//! Seeded input generators. The same seed gives the same inputs; a seed
//! changes URL, flow and operation *order*, never sizes, so two runs at
//! different seeds do the same amount of work.

use std::net::Ipv4Addr;

use crate::sut::{self, HistRow, Packet};

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so one seed can
    /// feed several independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `0` when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// The SplitMix64 finalizer, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF table.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------
// lane_http_topk
// ---------------------------------------------------------------------

/// Nominal event-time spacing of the HTTP lane's packets: 100 000 pkt/s.
pub const HTTP_DT_NS: u64 = 10_000;

/// Input of the HTTP lane: one prebuilt 512-byte GET per URL and the
/// order one stretch replays them in.
pub struct HttpInput {
    pub urls: Vec<String>,
    /// `pool[u]` requests `urls[u]` on flow `u % flows`.
    pub pool: Vec<Packet>,
    /// URL index of each packet of one stretch.
    pub seq: Vec<u16>,
}

/// Builds the HTTP lane input: `urls` URLs drawn Zipf(1.1) — the seed
/// picks which URL holds which popularity rank and the draw order —
/// spread over `flows` flows, `packets` packets per stretch.
pub fn http_input(seed: u64, urls: usize, flows: usize, packets: usize) -> HttpInput {
    let names: Vec<String> = (0..urls).map(|u| format!("/p/{u:04}/index.html")).collect();
    let pool = names
        .iter()
        .enumerate()
        .map(|(u, url)| sut::http_get_frame(4000 + (u % flows.max(1)) as u16, url, 512))
        .collect();
    let mut rng = Rng::new(seed, 1);
    let rank_to_url = rng.permutation(urls);
    let zipf = Zipf::new(urls, 1.1);
    let seq = (0..packets)
        .map(|_| rank_to_url[zipf.sample(&mut rng)] as u16)
        .collect();
    HttpInput {
        urls: names,
        pool,
        seq,
    }
}

// ---------------------------------------------------------------------
// lane_conn_diff
// ---------------------------------------------------------------------

/// Nominal event-time spacing of the connection lane: 40 000 pkt/s.
pub const CONN_DT_NS: u64 = 25_000;

/// Connections open at once in the connection lane.
pub const CONN_LAG: usize = 64;

/// One packet of the connection lane: identity index plus SYN/FIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnStep {
    pub conn: u16,
    pub fin: bool,
}

/// Input of the connection lane: a SYN and a FIN frame per connection
/// identity and the order one stretch plays them in.
pub struct ConnInput {
    pub syn: Vec<Packet>,
    pub fin: Vec<Packet>,
    pub seq: Vec<ConnStep>,
    /// Connections opened and closed by one stretch.
    pub conns_per_stretch: u64,
    /// Sum over those connections of FIN position minus SYN position.
    pub gap_steps_per_stretch: u64,
}

/// Builds the connection lane input: `idents` rotating identities to
/// `servers` servers, 64-byte frames, `packets` packets per stretch
/// (every one the SYN or the FIN of a connection; all opened connections
/// close within the stretch). The seed picks the identity order and the
/// server of each identity.
pub fn conn_input(seed: u64, idents: usize, servers: usize, packets: usize) -> ConnInput {
    let mut rng = Rng::new(seed, 2);
    let server_idx: Vec<usize> = (0..idents)
        .map(|_| rng.below(servers as u64) as usize)
        .collect();
    let server_ip = |s: usize| Ipv4Addr::new(10, 2, 0, 1 + s as u8);
    let client_ip = |i: usize| Ipv4Addr::new(10, 1, (i >> 8) as u8, (i & 255) as u8);
    let port = |i: usize| 20_000 + (i % 7) as u16;
    let frame = |i: usize, fin: bool| {
        sut::conn_frame(client_ip(i), port(i), server_ip(server_idx[i]), fin, 64)
    };
    let order = rng.permutation(idents);
    let conns = packets / 2;
    let lag = CONN_LAG.min(conns);
    let ident = |k: usize| order[k % idents] as u16;
    let mut seq: Vec<ConnStep> = Vec::with_capacity(conns * 2);
    let mut syn_pos = vec![0u64; conns];
    let mut gap_steps = 0u64;
    // Connection `k` opens at step `k`; once `lag` are open, each step
    // also closes the oldest; the tail closes the rest.
    for k in 0..conns + lag {
        if k < conns {
            syn_pos[k] = seq.len() as u64;
            seq.push(ConnStep {
                conn: ident(k),
                fin: false,
            });
        }
        if k >= lag {
            gap_steps += seq.len() as u64 - syn_pos[k - lag];
            seq.push(ConnStep {
                conn: ident(k - lag),
                fin: true,
            });
        }
    }
    ConnInput {
        syn: (0..idents).map(|i| frame(i, false)).collect(),
        fin: (0..idents).map(|i| frame(i, true)).collect(),
        seq,
        conns_per_stretch: conns as u64,
        gap_steps_per_stretch: gap_steps,
    }
}

// ---------------------------------------------------------------------
// history_mixed
// ---------------------------------------------------------------------

/// Width of the store's native rollup bucket.
pub const BUCKET_NS: u64 = 1_000_000_000;

/// Distinct values of the `code` field in the history data set.
pub const HIST_CODES: u64 = 64;

/// Shape of the preloaded history data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistShape {
    pub series: usize,
    pub per_series: u64,
    /// Event-time spacing inside one series.
    pub step_ns: u64,
}

impl HistShape {
    /// `total` tuples in `series` series spread over `buckets` native
    /// buckets.
    pub fn new(total: u64, series: usize, buckets: u64) -> HistShape {
        let per_series = total / series as u64;
        HistShape {
            series,
            per_series,
            step_ns: buckets * BUCKET_NS / per_series.max(1),
        }
    }

    /// End of the preloaded time span (exclusive).
    pub fn span_ns(&self) -> u64 {
        self.per_series * self.step_ns
    }

    /// Indices `k` of the tuples with `t0 <= ts <= t1` as a half-open
    /// range.
    pub fn indices_in(&self, t0: u64, t1: u64) -> std::ops::Range<u64> {
        let lo = t0.div_ceil(self.step_ns).min(self.per_series);
        let hi = (t1 / self.step_ns + 1).min(self.per_series);
        lo..hi.max(lo)
    }
}

/// Name of series `s`.
pub fn series_name(s: usize) -> String {
    format!("s{s:02}")
}

/// Value of the `v` field of tuple `k` of series `s`: a latency-like
/// integer in `[0, 1000)`, skewed low.
pub fn hist_value(seed: u64, s: usize, k: u64) -> u64 {
    let h = mix(seed ^ (s as u64) << 48 ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    (u * u * 1000.0) as u64
}

/// Value of the `code` field of tuple `k` of series `s`: a low-cardinality
/// key in `[0, 64)`, skewed toward low codes — what the sketch aggregates
/// (`distinct`, `topk`) run over.
pub fn hist_code(seed: u64, s: usize, k: u64) -> u64 {
    let h = mix(!seed ^ (s as u64) << 40 ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    (u * u * u * HIST_CODES as f64) as u64
}

/// Tuple `k` of series `s`.
pub fn hist_row(seed: u64, shape: &HistShape, s: usize, k: u64) -> HistRow {
    HistRow {
        id: k,
        ts_ns: k * shape.step_ns,
        v: hist_value(seed, s, k),
        code: hist_code(seed, s, k),
    }
}

/// The classes of the history mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// `mode=aggregate`, both ends on bucket boundaries.
    Aligned,
    /// `mode=aggregate`, neither end on a bucket boundary.
    Edge,
    /// `mode=aggregate` with `topk:10` / `distinct` over `code`.
    Sketch,
    /// `mode=range`.
    Range,
    /// `mode=latest`.
    Latest,
    /// A direct 64-tuple append into a series that is being read.
    Append,
}

impl OpClass {
    /// Name of the span one HTTP round trip (or direct append) of this
    /// class is recorded under.
    pub fn span_name(self) -> &'static str {
        match self {
            OpClass::Aligned => "http.history_aligned",
            OpClass::Edge => "http.history_edge",
            OpClass::Sketch => "http.history_sketch",
            OpClass::Range => "http.range",
            OpClass::Latest => "http.latest",
            OpClass::Append => "store.append_beside_reads",
        }
    }

    /// Whether the class is one of the three `mode=aggregate` ones.
    pub fn is_aggregate(self) -> bool {
        matches!(self, OpClass::Aligned | OpClass::Edge | OpClass::Sketch)
    }
}

/// One operation of the history mix. `agg` is empty and the range zero
/// where the class has none.
#[derive(Debug, Clone, PartialEq)]
pub struct HistOp {
    pub class: OpClass,
    pub series: usize,
    pub agg: &'static str,
    pub t0: u64,
    pub t1: u64,
}

impl HistOp {
    /// Field an aggregate class runs over.
    pub fn field(&self) -> &'static str {
        if self.class == OpClass::Sketch {
            "code"
        } else {
            "v"
        }
    }

    /// The aggregate's name without its argument (`topk:10` → `topk`).
    pub fn agg_name(&self) -> &'static str {
        self.agg.split(':').next().unwrap_or(self.agg)
    }
}

/// Source of the history operation mix. Operations come in blocks of
/// ten — four aligned aggregates, two unaligned edges, one sketch
/// aggregate, one range, one latest, one append — in an order the seed
/// shuffles per block, each over a range of fixed width at a seeded
/// position. The mix and the sizes are therefore the same in every
/// stretch of every run; only order and position move.
#[derive(Debug, Clone)]
pub struct HistOps {
    rng: Rng,
    shape: HistShape,
    block: Vec<OpClass>,
}

/// Widths, in native buckets, of the three aggregate classes.
const ALIGNED_BUCKETS: u64 = 400;
const EDGE_BUCKETS: u64 = 100;
const SKETCH_BUCKETS: u64 = 20;

impl HistOps {
    /// A source for `seed` over `shape`.
    pub fn new(seed: u64, shape: HistShape) -> HistOps {
        HistOps {
            rng: Rng::new(seed, 3),
            shape,
            block: Vec::new(),
        }
    }

    /// Start of a window `width` buckets wide, at a seeded bucket.
    fn window(&mut self, width: u64) -> (u64, u64) {
        let buckets = self.shape.span_ns() / BUCKET_NS;
        let width = width.min(buckets);
        (self.rng.below(buckets - width + 1), width)
    }
}

impl Iterator for HistOps {
    type Item = HistOp;

    fn next(&mut self) -> Option<HistOp> {
        if self.block.is_empty() {
            use OpClass::{Aligned, Append, Edge, Latest, Range, Sketch};
            self.block = vec![
                Aligned, Aligned, Aligned, Aligned, Edge, Edge, Sketch, Range, Latest, Append,
            ];
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let class = self.block.pop()?;
        let series = self.rng.below(self.shape.series as u64) as usize;
        let pick =
            |rng: &mut Rng, names: &[&'static str]| names[rng.below(names.len() as u64) as usize];
        let (agg, t0, t1) = match class {
            OpClass::Aligned => {
                let (b0, width) = self.window(ALIGNED_BUCKETS);
                let agg = pick(&mut self.rng, &["count", "sum", "mean", "p95"]);
                (agg, b0 * BUCKET_NS, (b0 + width) * BUCKET_NS - 1)
            }
            OpClass::Edge => {
                // Both ends strictly inside a bucket.
                let (b0, width) = self.window(EDGE_BUCKETS + 1);
                let off0 = 1 + self.rng.below(BUCKET_NS - 2);
                let off1 = 1 + self.rng.below(BUCKET_NS - 2);
                let agg = pick(&mut self.rng, &["count", "sum", "min", "max", "mean"]);
                (
                    agg,
                    b0 * BUCKET_NS + off0,
                    (b0 + width - 1) * BUCKET_NS + off1,
                )
            }
            OpClass::Sketch => {
                let (b0, width) = self.window(SKETCH_BUCKETS);
                let agg = pick(&mut self.rng, &["topk:10", "distinct"]);
                (agg, b0 * BUCKET_NS, (b0 + width) * BUCKET_NS - 1)
            }
            OpClass::Range => {
                let (b0, _) = self.window(2);
                let t0 = b0 * BUCKET_NS + self.rng.below(BUCKET_NS);
                ("", t0, t0 + BUCKET_NS - 1)
            }
            OpClass::Latest | OpClass::Append => ("", 0, 0),
        };
        Some(HistOp {
            class,
            series,
            agg,
            t0,
            t1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order_same_sizes() {
        let a = http_input(7, 200, 16, 5_000);
        let b = http_input(7, 200, 16, 5_000);
        let c = http_input(8, 200, 16, 5_000);
        assert_eq!(a.seq, b.seq);
        assert_ne!(a.seq, c.seq);
        assert_eq!((a.seq.len(), a.pool.len()), (c.seq.len(), c.pool.len()));
        assert!(a.pool.iter().all(|p| p.len() == 512));

        let x = conn_input(7, 256, 4, 2_000);
        let y = conn_input(7, 256, 4, 2_000);
        let z = conn_input(9, 256, 4, 2_000);
        assert_eq!(x.seq, y.seq);
        assert_ne!(x.seq, z.seq);
        assert_eq!(x.seq.len(), z.seq.len());
        assert_eq!(x.conns_per_stretch, z.conns_per_stretch);
        assert_eq!(x.gap_steps_per_stretch, z.gap_steps_per_stretch);
        assert!(x.syn.iter().chain(&x.fin).all(|p| p.len() == 64));
    }

    #[test]
    fn zipf_is_skewed_as_configured() {
        let z = Zipf::new(2_000, 1.1);
        let mut rng = Rng::new(1, 0);
        let mut counts = vec![0u32; 2_000];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(2000, 1.1) ~ 0.166; rank 1 ~ 2^-1.1 of that.
        let p0 = f64::from(counts[0]) / f64::from(n);
        assert!((0.15..0.18).contains(&p0), "p0 = {p0}");
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((1.9..2.4).contains(&ratio), "p0/p1 = {ratio}");
        let top10: u32 = counts[..10].iter().sum();
        assert!(f64::from(top10) / f64::from(n) > 0.4, "head is heavy");
        assert!(counts[1_000..].iter().sum::<u32>() > 0, "tail is reached");
    }

    #[test]
    fn every_connection_opens_before_it_closes_and_all_close() {
        let input = conn_input(3, 512, 16, 4_000);
        assert_eq!(input.seq.len(), 4_000);
        assert_eq!(input.conns_per_stretch, 2_000);
        let mut open = std::collections::HashMap::new();
        let mut gap = 0u64;
        for (pos, step) in input.seq.iter().enumerate() {
            if step.fin {
                let at = open.remove(&step.conn).expect("FIN after its SYN");
                gap += pos as u64 - at;
            } else {
                assert!(
                    open.insert(step.conn, pos as u64).is_none(),
                    "no reuse while open"
                );
                assert!(open.len() <= CONN_LAG + 1);
            }
        }
        assert!(open.is_empty(), "the stretch is self-contained");
        assert_eq!(gap, input.gap_steps_per_stretch);
    }

    #[test]
    fn history_shape_maps_times_to_indices() {
        let shape = HistShape::new(1_000_000, 16, 1_000);
        assert_eq!(shape.per_series, 62_500);
        assert_eq!(shape.step_ns, 16_000_000);
        assert_eq!(shape.span_ns(), 1_000 * BUCKET_NS);
        assert_eq!(shape.indices_in(0, 0), 0..1);
        assert_eq!(shape.indices_in(1, 15_999_999), 1..1);
        assert_eq!(shape.indices_in(16_000_000, 32_000_000), 1..3);
        assert_eq!(shape.indices_in(0, u64::MAX), 0..62_500);
        let mut classes = std::collections::BTreeMap::new();
        for op in HistOps::new(5, shape).take(10_000) {
            *classes.entry(op.class).or_insert(0u32) += 1;
            let (t0, t1) = (op.t0, op.t1);
            match op.class {
                OpClass::Aligned => {
                    assert_eq!(t0 % BUCKET_NS, 0);
                    assert_eq!(t1 + 1 - t0, ALIGNED_BUCKETS * BUCKET_NS);
                }
                OpClass::Edge => {
                    assert_ne!(t0 % BUCKET_NS, 0);
                    assert_ne!((t1 + 1) % BUCKET_NS, 0);
                    let whole = (t1 / BUCKET_NS).saturating_sub(t0 / BUCKET_NS + 1);
                    assert_eq!(whole, EDGE_BUCKETS - 1, "fixed aligned core");
                }
                OpClass::Sketch => assert_eq!(t1 + 1 - t0, SKETCH_BUCKETS * BUCKET_NS),
                OpClass::Range => assert_eq!(t1 + 1 - t0, BUCKET_NS),
                OpClass::Latest | OpClass::Append => continue,
            }
            assert!(t0 < t1 && t1 < shape.span_ns());
            assert_eq!(op.class.is_aggregate(), !op.agg.is_empty());
        }
        // Exactly the stated mix, in every block of ten.
        let mix: Vec<u32> = classes.values().copied().collect();
        assert_eq!(mix, [4_000, 2_000, 1_000, 1_000, 1_000, 1_000]);
        let a: Vec<HistOp> = HistOps::new(5, shape).take(50).collect();
        let b: Vec<HistOp> = HistOps::new(5, shape).take(50).collect();
        let c: Vec<HistOp> = HistOps::new(6, shape).take(50).collect();
        assert!(a == b && a != c, "seeded order");
    }
}
