//! The two lane workloads: the packet-to-subscriber data plane, driven
//! twice in one process.
//!
//! * **stepped** — this thread carries each burst of 256 packets through
//!   every layer in order. Event time is synthetic and evenly spaced, so
//!   the output is deterministic and checked exactly against a reference
//!   computed here from the generated input. Yields `goodput_per_s`,
//!   `result_latency_p50_ms` (the bursts' measured service times fed
//!   through an open-loop queue in event time, see [`sojourn_ms`]) and,
//!   traced, the layer attribution.
//! * **paced** — the real threaded lane with one open-loop generator and
//!   one loopback HTTP subscriber, on traced runs only. Packets are
//!   stamped with the time they were *due*, so a stall is charged to the
//!   packets it delays. Yields the concurrency diagnostics; its latency
//!   is wake-ups of more threads than the host has cores and does not
//!   repeat, so it is reported as `bench.paced_latency_p50_ms`, ungated.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::calib::Calibration;
use crate::gen::{self, ConnInput, HttpInput};
use crate::http::{self, DEADLINE};
use crate::json::u64_after;
use crate::metrics::RunOutput;
use crate::spans::{self, now_ns, span};
use crate::stats::{median, percentile, percentile_sorted, spread_pct};
use crate::sut::{
    self, DataTuple, LaneInput, LaneSpec, PacedLane, PacedReport, Packet, SteppedLane, BATCH_ROWS,
};
use crate::{procfs, Ctx};

/// First synthetic capture stamp of the stepped drive.
const T0_NS: u64 = 1_000_000_000_000;

/// Bursts between two calibration slices of the stepped drive.
const CALIBRATE_EVERY: usize = 32;

/// Set-ups per run at full size; `setup_s` is their median. One set-up
/// is milliseconds of allocation and file creation, so it takes many.
const SETUP_REPEATS: usize = 15;

/// Top-k window and `k`, as the HTTP lane's query states them. The
/// window is short so that a paced stretch closes enough of them: each
/// window's rows share one latency, so windows, not rows, are the
/// latency samples.
const WINDOW_NS: u64 = 20_000_000;
const TOP_K: usize = 10;

/// Which lane, with its fixed sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HttpTopk,
    ConnDiff,
}

/// Sizes of one lane workload; `quick` shrinks them for the smoke tests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Distinct URLs (HTTP) or connection identities (connections).
    keys: usize,
    /// Flows (HTTP) or servers (connections).
    fanout: usize,
    stepped_packets: usize,
    paced_rate: u64,
    dt_ns: u64,
}

impl Kind {
    fn spec(self) -> LaneSpec {
        match self {
            Kind::HttpTopk => LaneSpec {
                parser: "http_get",
                processor: "top-k",
                args: &[("k", "10"), ("key", "url"), ("w", "20ms"), ("par", "1")],
                group_field: None,
            },
            Kind::ConnDiff => LaneSpec {
                parser: "tcp_conn_time",
                processor: "diff-group",
                args: &[],
                group_field: Some("dst_ip"),
            },
        }
    }

    fn sizes(self, quick: bool) -> Sizes {
        match (self, quick) {
            (Kind::HttpTopk, false) => Sizes {
                keys: 2_000,
                fanout: 512,
                stepped_packets: 400_000,
                paced_rate: 100_000,
                dt_ns: gen::HTTP_DT_NS,
            },
            (Kind::HttpTopk, true) => Sizes {
                keys: 200,
                fanout: 16,
                stepped_packets: 30_000,
                paced_rate: 20_000,
                dt_ns: gen::HTTP_DT_NS,
            },
            (Kind::ConnDiff, false) => Sizes {
                keys: 8_192,
                fanout: 16,
                stepped_packets: 200_000,
                paced_rate: 40_000,
                dt_ns: gen::CONN_DT_NS,
            },
            (Kind::ConnDiff, true) => Sizes {
                keys: 512,
                fanout: 16,
                stepped_packets: 10_000,
                paced_rate: 10_000,
                dt_ns: gen::CONN_DT_NS,
            },
        }
    }
}

/// The generated input of either lane behind one accessor.
enum LaneData {
    Http(HttpInput),
    Conn(ConnInput),
}

impl LaneData {
    fn build(kind: Kind, seed: u64, s: &Sizes) -> LaneData {
        match kind {
            Kind::HttpTopk => {
                LaneData::Http(gen::http_input(seed, s.keys, s.fanout, s.stepped_packets))
            }
            Kind::ConnDiff => {
                LaneData::Conn(gen::conn_input(seed, s.keys, s.fanout, s.stepped_packets))
            }
        }
    }

    /// Packet `pos` of the endless replay of the stretch sequence,
    /// stamped `ts_ns`.
    #[inline]
    fn packet(&self, pos: usize, ts_ns: u64) -> Packet {
        match self {
            LaneData::Http(h) => h.pool[h.seq[pos % h.seq.len()] as usize].at_time(ts_ns),
            LaneData::Conn(c) => {
                let step = c.seq[pos % c.seq.len()];
                let pool = if step.fin { &c.fin } else { &c.syn };
                pool[step.conn as usize].at_time(ts_ns)
            }
        }
    }

    /// Whether packet `pos` completes a result row (a FIN).
    #[inline]
    fn completes_row(&self, pos: usize) -> bool {
        match self {
            LaneData::Http(_) => false,
            LaneData::Conn(c) => c.seq[pos % c.seq.len()].fin,
        }
    }
}

// ---------------------------------------------------------------------
// Reference: the top-k topology under the stepped burst/tick schedule
// ---------------------------------------------------------------------

/// A model of `top-k (par=1)`: tumbling count window on event time,
/// released into a ranker that keeps the maximum count per key and
/// emits its top `k` on every tick that finds it non-empty.
#[derive(Debug, Default)]
struct TopkModel {
    window_start: Option<u64>,
    counts: HashMap<u16, u64>,
    ranker: HashMap<u16, u64>,
}

/// One expected (or observed) rank row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RankRow {
    ts_ns: u64,
    rank: u64,
    key: String,
    count: u64,
}

impl TopkModel {
    fn release(&mut self, now_ns: u64) {
        for (k, c) in self.counts.drain() {
            let e = self.ranker.entry(k).or_default();
            *e = (*e).max(c);
        }
        self.window_start = Some(now_ns);
    }

    fn on_tuple(&mut self, url: u16, ts_ns: u64) {
        let start = *self.window_start.get_or_insert(ts_ns);
        if ts_ns >= start + WINDOW_NS {
            self.release(ts_ns);
        }
        *self.counts.entry(url).or_default() += 1;
    }

    fn emit(&mut self, now_ns: u64, urls: &[String], out: &mut Vec<RankRow>) {
        let mut ranked: Vec<(u16, u64)> = self.ranker.drain().collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| urls[a.0 as usize].cmp(&urls[b.0 as usize]))
        });
        ranked.truncate(TOP_K);
        out.extend(
            ranked
                .into_iter()
                .enumerate()
                .map(|(rank, (u, count))| RankRow {
                    ts_ns: now_ns,
                    rank: rank as u64,
                    key: urls[u as usize].clone(),
                    count,
                }),
        );
    }

    fn on_tick(&mut self, now_ns: u64, urls: &[String], out: &mut Vec<RankRow>) {
        if !self.counts.is_empty() {
            let start = *self.window_start.get_or_insert(now_ns);
            if now_ns >= start + WINDOW_NS {
                self.release(now_ns);
            }
        }
        self.emit(now_ns, urls, out);
    }

    fn on_stop(&mut self, now_ns: u64, urls: &[String], out: &mut Vec<RankRow>) {
        if !self.counts.is_empty() {
            self.release(now_ns);
        }
        self.emit(now_ns, urls, out);
    }
}

// ---------------------------------------------------------------------
// Stepped drive
// ---------------------------------------------------------------------

/// One burst of the stepped drive as the open-loop queue sees it: it is
/// complete, and may enter service, when its last packet's event time
/// has come.
#[derive(Debug, Clone, Copy)]
struct BurstTime {
    arrival_ns: u64,
    /// Measured time the thread spent carrying it, nanoseconds.
    service_ns: u64,
}

/// Result latencies, in ms, of the stepped drive taken as an open loop in
/// event time. Packets arrive on the workload's fixed schedule (their
/// synthetic capture stamps); burst `k` enters service once it is
/// complete and the burst before it has left, and stays for its measured
/// service time times `scale` (the stretch's host-speed calibration). A
/// row `(ts_ns, k)` rendered while burst `k` was carried leaves with that
/// burst, so its latency is the burst's departure minus `ts_ns`: the wait
/// for the batch to fill, any wait behind a slow burst, and the carrying
/// itself. A stall is charged to every packet it delays, and a layer that
/// holds a row back for later bursts pays a burst interval for each.
fn sojourn_ms(bursts: &[BurstTime], scale: f64, rows: &[(u64, u32)]) -> Vec<f64> {
    let mut departs = Vec::with_capacity(bursts.len());
    let mut free_at = 0.0f64;
    for b in bursts {
        free_at = free_at.max(b.arrival_ns as f64) + b.service_ns as f64 * scale;
        departs.push(free_at);
    }
    rows.iter()
        .filter_map(|&(ts, k)| Some((departs.get(k as usize)? - ts as f64) / 1e6))
        .collect()
}

/// What the subscriber side of the stepped drive observed.
#[derive(Debug, Default)]
struct Observed {
    lines: u64,
    malformed: u64,
    /// HTTP lane: every rank row, in arrival order.
    rank_rows: Vec<RankRow>,
    /// Connection lane: rows and the sum of their `diff_ms`, in ns.
    diff_rows: u64,
    diff_ns: u64,
    diff_rows_without_server: u64,
}

impl Observed {
    fn on_row(&mut self, kind: Kind, t: &DataTuple) {
        self.lines += 1;
        match kind {
            Kind::HttpTopk => self.rank_rows.push(RankRow {
                ts_ns: sut::tuple_ts(t),
                rank: sut::field_u64(t, "rank").unwrap_or(u64::MAX),
                key: sut::field_str(t, "key").unwrap_or("").to_string(),
                count: sut::field_u64(t, "count").unwrap_or(0),
            }),
            Kind::ConnDiff => {
                self.diff_rows += 1;
                self.diff_ns += (sut::field_f64(t, "diff_ms").unwrap_or(0.0) * 1e6).round() as u64;
                if sut::field_str(t, "dst_ip").is_none() {
                    self.diff_rows_without_server += 1;
                }
            }
        }
    }
}

/// The stepped drive's state across stretches.
struct Stepped {
    kind: Kind,
    lane: SteppedLane,
    /// Packets carried so far (also the event-time index).
    pos: usize,
    burst: Vec<Packet>,
    seen: Observed,
    model: TopkModel,
    /// Position the reference model has been advanced to.
    model_pos: usize,
    expected: Vec<RankRow>,
    /// Median calibration slice of each stretch, seconds.
    slice_s: Vec<f64>,
    /// This stretch's bursts, and `(ts_ns, burst)` of every row served
    /// while one of them was carried.
    bursts: Vec<BurstTime>,
    served_rows: Vec<(u64, u32)>,
}

/// What one stepped stretch measured.
struct StretchTimes {
    /// Seconds the stretch took, calibrated and on the wall clock.
    calibrated_s: f64,
    wall_s: f64,
    /// Result latencies of the stretch's rows, ms, ascending.
    latency_ms: Vec<f64>,
}

impl Stepped {
    fn ts(dt_ns: u64, pos: usize) -> u64 {
        T0_NS + pos as u64 * dt_ns
    }

    /// Carries `packets` packets through every layer, burst by burst.
    /// Every [`CALIBRATE_EVERY`] bursts one calibration slice runs, off
    /// the clock, on this same thread.
    fn stretch(&mut self, data: &LaneData, dt_ns: u64, packets: usize) -> StretchTimes {
        let (sink_clock, hub_clock) = self.lane.sink_clocks();
        let mut sunk = (sink_clock.read(), hub_clock.read());
        // Attributes what the sink wrappers measured since the last call
        // to the span that is open now.
        let mut attribute_sinks = move || {
            let now = (sink_clock.read(), hub_clock.read());
            spans::child_total("store.sink", now.0 .0 - sunk.0 .0, now.0 .1 - sunk.0 .1);
            spans::child_total(
                "stream.hub_publish",
                now.1 .0 - sunk.1 .0,
                now.1 .1 - sunk.1 .1,
            );
            sunk = now;
        };
        let mut root = span("stepped.stretch");
        root.work(packets as u64);
        let mut cal = Calibration::mixed();
        let mut off_clock = 0.0;
        self.bursts.clear();
        self.served_rows.clear();
        let t0 = Instant::now();
        let end = self.pos + packets;
        while self.pos < end {
            if self.bursts.len().is_multiple_of(CALIBRATE_EVERY) {
                let _g = span("bench.calibrate");
                off_clock += cal.sample();
            }
            let burst_t0 = Instant::now();
            let n = BATCH_ROWS.min(end - self.pos);
            {
                let mut g = span("bench.gen");
                g.work(n as u64);
                self.burst.clear();
                for i in self.pos..self.pos + n {
                    self.burst.push(data.packet(i, Self::ts(dt_ns, i)));
                }
            }
            self.pos += n;
            let watermark = Self::ts(dt_ns, self.pos - 1);
            {
                let mut g = span("monitor.sample");
                g.work(n as u64);
                let lane = &mut self.lane;
                self.burst.retain(|p| lane.accept(p));
            }
            {
                let mut g = span("monitor.parse");
                g.work(self.burst.len() as u64);
                for p in &self.burst {
                    self.lane.parse(p);
                }
            }
            let sealed = {
                let mut g = span("monitor.seal");
                let b = self.lane.seal();
                g.work(b.rows() as u64);
                b
            };
            {
                let mut g = span("queue.ship");
                g.work(sealed.rows() as u64);
                self.lane.ship(sealed);
            }
            let polled = {
                let mut g = span("queue.poll");
                let b = self.lane.poll();
                g.work(b.len() as u64);
                b
            };
            {
                let mut g = span("stream.offer");
                g.work(polled.len() as u64);
                self.lane.offer(polled);
                attribute_sinks();
            }
            {
                let mut g = span("stream.tick");
                g.work(1);
                self.lane.tick(watermark);
                attribute_sinks();
            }
            {
                let mut g = span("stream.poll_output");
                g.work(self.lane.poll_output().len() as u64);
            }
            self.serve();
            self.bursts.push(BurstTime {
                arrival_ns: watermark,
                service_ns: burst_t0.elapsed().as_nanos() as u64,
            });
        }
        let secs = t0.elapsed().as_secs_f64() - off_clock;
        drop(root);
        self.slice_s.push(cal.slice_s());
        let mut latency_ms = sojourn_ms(&self.bursts, cal.calibrated(1.0), &self.served_rows);
        latency_ms.sort_by(f64::total_cmp);
        StretchTimes {
            calibrated_s: cal.calibrated(secs),
            wall_s: secs,
            latency_ms,
        }
    }

    /// The serving half of a burst: drain the subscription, render each
    /// row as its NDJSON line, note what arrived.
    fn serve(&mut self) {
        let rows = {
            let mut g = span("stream.hub_drain");
            let rows = self.lane.drain_subscriber();
            g.work(rows.len() as u64);
            rows
        };
        if rows.is_empty() {
            return;
        }
        {
            let mut g = span("core.tuple_json");
            g.work(rows.len() as u64);
            for t in &rows {
                let line = self.lane.render(t);
                let whole = line.starts_with("{\"id\":") && line.ends_with("}}");
                self.seen.malformed += u64::from(!whole);
            }
        }
        let _g = span("bench.check");
        let burst = self.bursts.len() as u32;
        for t in &rows {
            self.seen.on_row(self.kind, t);
            self.served_rows.push((sut::tuple_ts(t), burst));
        }
    }

    /// Advances the reference model over the packets carried since the
    /// last call, under the same burst and tick schedule.
    fn advance_model(&mut self, data: &LaneData, dt_ns: u64) {
        let LaneData::Http(h) = data else { return };
        while self.model_pos < self.pos {
            let n = BATCH_ROWS.min(self.pos - self.model_pos);
            for i in self.model_pos..self.model_pos + n {
                self.model
                    .on_tuple(h.seq[i % h.seq.len()], Self::ts(dt_ns, i));
            }
            self.model_pos += n;
            let wm = Self::ts(dt_ns, self.model_pos - 1);
            self.model.on_tick(wm, &h.urls, &mut self.expected);
        }
    }
}

/// Result of the stepped drive.
struct SteppedResult {
    /// Calibrated seconds of each measured stretch.
    secs: Vec<f64>,
    /// The same stretches in wall-clock seconds.
    wall_secs: Vec<f64>,
    /// Result-latency p50 and p99 of each measured stretch, ms.
    latency_p50_ms: Vec<f64>,
    latency_p99_ms: Vec<f64>,
    /// Median calibration slice over the measured stretches, seconds.
    slice_s: f64,
    packets_per_stretch: usize,
    packets: u64,
    counters: sut::LaneCounters,
    stop_drain_ms: f64,
}

/// Runs the stepped drive: one warm-up stretch, `measured` measured
/// ones, then stops the executor and checks everything against the
/// reference.
fn run_stepped(
    kind: Kind,
    lane: SteppedLane,
    data: &LaneData,
    sizes: &Sizes,
    measured: usize,
    traced: bool,
    out: &mut RunOutput,
) -> SteppedResult {
    let mut st = Stepped {
        kind,
        lane,
        pos: 0,
        burst: Vec::with_capacity(BATCH_ROWS),
        seen: Observed::default(),
        model: TopkModel::default(),
        model_pos: 0,
        expected: Vec::new(),
        slice_s: Vec::new(),
        bursts: Vec::with_capacity(sizes.stepped_packets / BATCH_ROWS + 1),
        served_rows: Vec::with_capacity(sizes.stepped_packets),
    };
    let mut secs = Vec::new();
    let mut wall_secs = Vec::new();
    let mut latency_p50_ms = Vec::new();
    let mut latency_p99_ms = Vec::new();
    for i in 0..=measured {
        // On a traced run the recorder is on for every second measured
        // stretch, so recorder cost is read between neighbours rather
        // than across the run's drift.
        if traced && i > 0 && i % 2 == 0 {
            spans::enable();
        } else if traced {
            spans::disable();
        }
        let t = st.stretch(data, sizes.dt_ns, sizes.stepped_packets);
        // The reference runs between stretches, off the clock.
        st.advance_model(data, sizes.dt_ns);
        if i > 0 {
            secs.push(t.calibrated_s);
            wall_secs.push(t.wall_s);
            out.check(!t.latency_ms.is_empty(), || {
                format!("stepped: stretch {i} served no result rows")
            });
            latency_p50_ms.push(percentile_sorted(&t.latency_ms, 0.5));
            latency_p99_ms.push(percentile_sorted(&t.latency_ms, 0.99));
        }
    }
    if traced {
        spans::enable();
    }
    let final_ns = Stepped::ts(sizes.dt_ns, st.pos) + WINDOW_NS;
    let t0 = Instant::now();
    {
        let mut g = span("stream.stop");
        g.work(st.lane.stop(final_ns).len() as u64);
    }
    let stop_drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    st.serve();
    if traced {
        spans::disable();
    }
    if let LaneData::Http(h) = data {
        st.model.on_stop(final_ns, &h.urls, &mut st.expected);
    }

    let packets = st.pos as u64;
    let stretches = measured as u64 + 1;
    let c = st.lane.counters();
    // Conservation along the lane: nothing lost between layers.
    out.check(c.rows_shipped == packets, || {
        format!(
            "stepped: shipped {} rows for {packets} packets",
            c.rows_shipped
        )
    });
    out.check(c.processed == packets, || {
        format!("stepped: executor processed {} of {packets}", c.processed)
    });
    out.check(
        c.emitted == st.seen.lines && c.store_tuples == st.seen.lines,
        || {
            format!(
                "stepped: emitted {} / stored {} / served {} rows differ",
                c.emitted, c.store_tuples, st.seen.lines
            )
        },
    );
    out.check(st.seen.malformed == 0, || {
        format!("stepped: {} malformed lines", st.seen.malformed)
    });
    out.check(c.store_append_errors == 0 && c.batches_lost == 0, || {
        "stepped: append errors or lost batches".into()
    });
    let mut missing = 0u64;
    match data {
        LaneData::Http(_) => {
            let same = st.seen.rank_rows == st.expected;
            out.check(same, || {
                let at = st
                    .seen
                    .rank_rows
                    .iter()
                    .zip(&st.expected)
                    .position(|(a, b)| a != b);
                format!(
                    "stepped: rank rows differ from the reference top-k \
                     ({} seen, {} expected, first difference at {at:?})",
                    st.seen.rank_rows.len(),
                    st.expected.len()
                )
            });
            if !same {
                missing = (st.expected.len() as u64)
                    .abs_diff(st.seen.rank_rows.len() as u64)
                    .max(1);
            }
        }
        LaneData::Conn(cn) => {
            let want_rows = cn.conns_per_stretch * stretches;
            let want_ns = cn.gap_steps_per_stretch * stretches * sizes.dt_ns;
            out.check(st.seen.diff_rows == want_rows, || {
                format!(
                    "stepped: {} diff rows for {want_rows} connections",
                    st.seen.diff_rows
                )
            });
            out.check(st.seen.diff_ns == want_ns, || {
                format!(
                    "stepped: sum of diff_ms is {} ns, expected {want_ns}",
                    st.seen.diff_ns
                )
            });
            out.check(st.seen.diff_rows_without_server == 0, || {
                "stepped: diff rows without dst_ip".into()
            });
            missing = want_rows.saturating_sub(st.seen.diff_rows);
        }
    }
    out.attempted += packets;
    out.failed += c.shed + c.hub_shed + c.queue_lag + missing;
    SteppedResult {
        secs,
        wall_secs,
        latency_p50_ms,
        latency_p99_ms,
        slice_s: median(&st.slice_s[1..]),
        packets_per_stretch: sizes.stepped_packets,
        packets,
        counters: c,
        stop_drain_ms,
    }
}

// ---------------------------------------------------------------------
// Paced drive
// ---------------------------------------------------------------------

/// What the generator thread did.
#[derive(Debug, Default)]
struct GenReport {
    offered: u64,
    /// Offered packets that complete a row (FINs).
    completing: u64,
    /// How late sampled packets entered the lane, ms past due.
    late_ms: Vec<f64>,
    block_ns: u64,
    start_ns: u64,
    end_ns: u64,
    cpu_us: u64,
}

/// Sends `rate` packets per second for `total_ns` on a fixed schedule
/// (open loop: the rate never adapts), each stamped with the time it was
/// due. With `saturate`, offers back to back with blocking sends instead.
fn generate(
    input: LaneInput,
    data: &LaneData,
    rate: u64,
    total_ns: u64,
    saturate: bool,
) -> GenReport {
    let cpu0 = procfs::thread_cpu_us();
    let mut r = GenReport {
        start_ns: now_ns(),
        ..GenReport::default()
    };
    let start = r.start_ns;
    if saturate {
        let mut n = 0usize;
        loop {
            let now = now_ns();
            if now - start >= total_ns {
                break;
            }
            for _ in 0..64 {
                input.offer(data.packet(n, now));
                r.completing += u64::from(data.completes_row(n));
                n += 1;
            }
        }
        r.offered = n as u64;
    } else {
        let interval = 1_000_000_000 / rate.max(1);
        let total = (total_ns / interval) as usize;
        let mut n = 0usize;
        while n < total {
            let now = now_ns();
            let due_count = (((now - start) / interval) as usize + 1).min(total);
            if n >= due_count {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            while n < due_count {
                let due = start + n as u64 * interval;
                if !input.try_offer(data.packet(n, due)) {
                    // The input ring is full: block, and charge the wait.
                    let t0 = now_ns();
                    input.offer(data.packet(n, due));
                    r.block_ns += now_ns() - t0;
                }
                if n.is_multiple_of(64) {
                    r.late_ms.push(now_ns().saturating_sub(due) as f64 / 1e6);
                }
                r.completing += u64::from(data.completes_row(n));
                n += 1;
            }
        }
        r.offered = n as u64;
    }
    r.end_ns = now_ns();
    r.cpu_us = procfs::thread_cpu_us().saturating_sub(cpu0);
    r
}

/// What the HTTP subscriber saw.
#[derive(Debug, Default)]
struct SubReport {
    /// `(row ts_ns, arrival ns)` per line.
    samples: Vec<(u64, u64)>,
    malformed: u64,
    /// Hub publish → line read, µs (traced lanes only).
    serve_us: Vec<f64>,
    cpu_us: u64,
    error: Option<String>,
}

fn subscribe(
    addr: std::net::SocketAddr,
    stamps: Option<sut::StampQueue>,
    ready: std::sync::mpsc::Sender<()>,
) -> SubReport {
    let cpu0 = procfs::thread_cpu_us();
    let mut r = SubReport::default();
    let mut reader = match http::open_stream(addr, "/stream") {
        Ok((200, reader)) => reader,
        Ok((status, _)) => {
            r.error = Some(format!("GET /stream answered {status}"));
            return r;
        }
        Err(e) => {
            r.error = Some(format!("GET /stream: {e}"));
            return r;
        }
    };
    let _ = ready.send(());
    loop {
        match reader.next_line() {
            Ok(Some(line)) => {
                let arrival = now_ns();
                match u64_after(&line, "\"ts_ns\":") {
                    Some(ts) if line.ends_with("}}") => r.samples.push((ts, arrival)),
                    _ => r.malformed += 1,
                }
                if let Some(stamps) = &stamps {
                    let published = stamps
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .pop_front();
                    if let Some(p) = published {
                        r.serve_us.push(arrival.saturating_sub(p) as f64 / 1e3);
                    }
                }
            }
            Ok(None) => break,
            Err(e) => {
                r.error = Some(format!("stream read: {e}"));
                break;
            }
        }
    }
    r.cpu_us = procfs::thread_cpu_us().saturating_sub(cpu0);
    r
}

/// Result of one paced run.
struct PacedResult {
    gen: GenReport,
    sub: SubReport,
    lane: PacedReport,
    /// Process CPU over the run minus generator and subscriber threads.
    sut_cpu_us: u64,
}

/// A spawned paced lane with its subscriber connected.
struct PacedSetup {
    lane: PacedLane,
    subscriber: std::thread::JoinHandle<SubReport>,
}

fn paced_setup(kind: Kind, dir: &std::path::Path, traced: bool) -> Result<PacedSetup, String> {
    let lane = PacedLane::spawn(&kind.spec(), dir, traced)?;
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let addr = lane.addr();
    let stamps = traced.then(|| lane.publish_stamps());
    let subscriber = std::thread::Builder::new()
        .name("bench-subscriber".into())
        .spawn(move || subscribe(addr, stamps, ready_tx))
        .map_err(|e| format!("spawn subscriber: {e}"))?;
    ready_rx
        .recv_timeout(DEADLINE)
        .map_err(|_| "subscriber did not connect".to_string())?;
    let t_end = Instant::now() + DEADLINE;
    while lane.subscribers() == 0 {
        if Instant::now() > t_end {
            return Err("stream handler never subscribed to the hub".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(PacedSetup { lane, subscriber })
}

/// Drains and stops a paced lane and joins its subscriber.
fn paced_teardown(setup: PacedSetup) -> Result<(PacedReport, SubReport), String> {
    let report = setup.lane.finish(DEADLINE)?;
    let t_end = Instant::now() + DEADLINE;
    while !setup.subscriber.is_finished() {
        if Instant::now() > t_end {
            return Err("subscriber never saw end of stream".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let sub = setup
        .subscriber
        .join()
        .map_err(|_| "subscriber panicked".to_string())?;
    Ok((report, sub))
}

fn run_paced(
    setup: PacedSetup,
    data: &Arc<LaneData>,
    rate: u64,
    total_ns: u64,
    saturate: bool,
) -> Result<PacedResult, String> {
    let cpu0 = procfs::process_cpu_us();
    let input = setup.lane.input();
    let gen_data = Arc::clone(data);
    let generator = std::thread::Builder::new()
        .name("bench-generator".into())
        .spawn(move || generate(input, &gen_data, rate, total_ns, saturate))
        .map_err(|e| format!("spawn generator: {e}"))?;
    let t_end = Instant::now() + Duration::from_nanos(total_ns) + DEADLINE;
    while !generator.is_finished() {
        if Instant::now() > t_end {
            return Err("generator did not finish (lane blocked)".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let gen = generator
        .join()
        .map_err(|_| "generator panicked".to_string())?;
    let (lane, sub) = paced_teardown(setup)?;
    let cpu = procfs::process_cpu_us().saturating_sub(cpu0);
    Ok(PacedResult {
        sut_cpu_us: cpu.saturating_sub(gen.cpu_us + sub.cpu_us),
        gen,
        sub,
        lane,
    })
}

/// Checks the paced run's conservation identities and counts what was
/// not accounted for.
fn check_paced(kind: Kind, ctx: &Ctx, p: &PacedResult, out: &mut RunOutput) {
    let c = &p.lane.counters;
    let lines = p.sub.samples.len() as u64 + p.sub.malformed;
    if let Some(e) = &p.sub.error {
        out.wrong.push(format!("paced: subscriber: {e}"));
    }
    out.check(p.lane.packets_in == p.gen.offered, || {
        format!(
            "paced: monitor took {} of {} packets",
            p.lane.packets_in, p.gen.offered
        )
    });
    out.check(
        p.lane.tuples_out + p.lane.queue_drops == p.lane.packets_in,
        || {
            format!(
                "paced: {} tuples + {} drops for {} packets",
                p.lane.tuples_out, p.lane.queue_drops, p.lane.packets_in
            )
        },
    );
    out.check(c.rows_shipped == p.lane.tuples_out, || {
        format!(
            "paced: shipped {} of {} tuples",
            c.rows_shipped, p.lane.tuples_out
        )
    });
    out.check(c.processed == p.lane.driver.rows_polled, || {
        format!(
            "paced: processed {} of {} polled",
            c.processed, p.lane.driver.rows_polled
        )
    });
    out.check(c.emitted == p.lane.driver.output_rows, || {
        format!(
            "paced: emitted {} but the executor handed out {}",
            c.emitted, p.lane.driver.output_rows
        )
    });
    out.check(c.emitted == c.store_tuples, || {
        format!("paced: emitted {} but stored {}", c.emitted, c.store_tuples)
    });
    out.check(c.emitted == lines + c.hub_shed, || {
        format!(
            "paced: emitted {} but served {lines} (+{} shed)",
            c.emitted, c.hub_shed
        )
    });
    out.check(p.sub.malformed == 0, || {
        format!("paced: {} malformed lines", p.sub.malformed)
    });
    let queue_lost = c.rows_shipped.saturating_sub(p.lane.driver.rows_polled);
    let mut missing = 0;
    if kind == Kind::ConnDiff && p.lane.queue_drops == 0 && queue_lost == 0 && c.shed == 0 {
        // Every FIN's SYN went first, so each FIN completes one row.
        out.check(c.emitted == p.gen.completing, || {
            format!(
                "paced: {} rows for {} closed connections",
                c.emitted, p.gen.completing
            )
        });
        missing = p.gen.completing.saturating_sub(c.emitted);
    }
    out.attempted += p.gen.offered;
    out.failed += p.lane.queue_drops + queue_lost + c.shed + c.hub_shed + missing;
    ctx.note(&format!(
        "paced: offered {} monitor drops {} queue lost {queue_lost} shed {} hub shed {} \
         missing {missing}; gen blocked {:.1} ms; driver busy {:.2}",
        p.gen.offered,
        p.lane.queue_drops,
        c.shed,
        c.hub_shed,
        p.gen.block_ns as f64 / 1e6,
        p.lane.driver.busy_ns as f64 / p.lane.driver.wall_ns.max(1) as f64
    ));
}

/// Per-stretch latency percentiles: line arrival minus the row's
/// `ts_ns`, for rows stamped inside each measured stretch.
fn stretch_latencies_ms(p: &PacedResult, stretch_ns: u64, measured: usize) -> Vec<Vec<f64>> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); measured];
    for &(ts, arrival) in &p.sub.samples {
        let Some(since) = ts.checked_sub(p.gen.start_ns) else {
            continue;
        };
        let idx = (since / stretch_ns) as usize;
        // Stretch 0 is the warm-up.
        if (1..=measured).contains(&idx) {
            per[idx - 1].push(arrival.saturating_sub(ts) as f64 / 1e6);
        }
    }
    per
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// Everything `setup_s` covers: the generated input and the stepped lane
/// wired on a fresh disk-backed store.
fn setup(kind: Kind, ctx: &Ctx) -> Result<(Arc<LaneData>, SteppedLane), String> {
    let sizes = kind.sizes(ctx.quick);
    let data = Arc::new(LaneData::build(kind, ctx.seed, &sizes));
    let stepped = SteppedLane::open(&kind.spec(), &ctx.fresh_dir("stepped")?, ctx.trace)?;
    Ok((data, stepped))
}

/// Runs one lane workload and fills `out` with the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).
///
/// # Errors
///
/// Setup failures and exceeded deadlines.
pub fn run(kind: Kind, ctx: &Ctx, out: &mut RunOutput) -> Result<(), String> {
    let sizes = kind.sizes(ctx.quick);
    let measured = ctx.lane_stretches();
    // Set-up, several times, a calibration slice before each; the last
    // one is kept. It is all this thread's work, so it calibrates like
    // the stepped drive.
    let mut setup_secs = Vec::new();
    let mut setup_cal = Calibration::mixed();
    let mut kept = None;
    for _ in 0..ctx.setup_repeats(SETUP_REPEATS) {
        setup_cal.sample();
        let t0 = Instant::now();
        kept = Some(setup(kind, ctx)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let (data, stepped_lane) = kept.expect("at least one set-up");
    let setup_s = setup_cal.calibrated(ctx.startup_s + median(&setup_secs));

    let stepped = run_stepped(kind, stepped_lane, &data, &sizes, measured, ctx.trace, out);
    let rate_of = |secs: &[f64]| -> Vec<f64> {
        secs.iter()
            .map(|s| stepped.packets_per_stretch as f64 / s)
            .collect()
    };
    let wall_rates = rate_of(&stepped.wall_secs);
    ctx.note(&format!(
        "stepped pkt/s per stretch: calibrated {:.0?}, wall clock {wall_rates:.0?}; \
         latency p50 ms per stretch {:.3?}; set-ups s (wall clock) {setup_secs:.4?}",
        rate_of(&stepped.secs),
        stepped.latency_p50_ms
    ));
    if !ctx.trace {
        out.values.insert("setup_s", setup_s);
        out.values
            .insert("goodput_per_s", median(&rate_of(&stepped.secs)));
        out.values
            .insert("result_latency_p50_ms", median(&stepped.latency_p50_ms));
        // Not part of the result line: printed beside the calibrated
        // figure so the two can be compared run by run.
        out.values
            .insert("bench.goodput_wall_per_s", median(&wall_rates));
        return Ok(());
    }

    // ---- Traced run: the threaded lane, then per-layer metrics --------
    // Paced drive: one warm-up stretch plus the measured ones, back to
    // back on one schedule.
    let paced_measured = ctx.stretches();
    let stretch_ns = (ctx.paced_stretch_s() * 1e9) as u64;
    let paced = run_paced(
        paced_setup(kind, &ctx.fresh_dir("paced")?, ctx.trace)?,
        &data,
        sizes.paced_rate,
        stretch_ns * (paced_measured as u64 + 1),
        false,
    )?;
    check_paced(kind, ctx, &paced, out);
    let lat = stretch_latencies_ms(&paced, stretch_ns, paced_measured);
    let p50s: Vec<f64> = lat
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 0.5))
        .collect();
    out.check(p50s.len() == paced_measured, || {
        format!(
            "paced: only {} of {paced_measured} stretches produced result lines",
            p50s.len()
        )
    });
    ctx.note(&format!("paced p50 ms per stretch {p50s:.3?}"));

    let all_spans = spans::take_all();
    let sum = spans::summarize(&all_spans);
    // Nanoseconds per unit of work under one span name: total time, or
    // self time (net of child spans).
    let ns_per_work = |name: &str, self_time: bool| -> f64 {
        sum.get(name).filter(|t| t.work > 0).map_or(0.0, |t| {
            (if self_time { t.self_ns } else { t.total_ns }) as f64 / t.work as f64
        })
    };
    let per = |name: &str| ns_per_work(name, false);
    let v = &mut out.values;
    v.insert("monitor.sample_ns_per_pkt", per("monitor.sample"));
    v.insert("monitor.parse_ns_per_pkt", per("monitor.parse"));
    v.insert("monitor.seal_ns_per_row", per("monitor.seal"));
    v.insert("queue.ship_ns_per_row", per("queue.ship"));
    v.insert("queue.poll_ns_per_row", per("queue.poll"));
    v.insert("stream.poll_output_ns_per_row", per("stream.poll_output"));
    v.insert("core.tuple_json_ns_per_row", per("core.tuple_json"));
    v.insert("store.sink_ns_per_row", per("store.sink"));
    v.insert("stream.hub_publish_ns_per_row", per("stream.hub_publish"));
    // Executor time net of the sinks it calls into.
    v.insert(
        "stream.offer_ns_per_tuple",
        ns_per_work("stream.offer", true),
    );
    v.insert("stream.tick_us", ns_per_work("stream.tick", true) / 1e3);
    let c = &stepped.counters;
    v.insert(
        "monitor.tuples_per_pkt",
        c.rows_shipped as f64 / stepped.packets.max(1) as f64,
    );
    v.insert(
        "stream.rows_per_input",
        c.emitted as f64 / c.processed.max(1) as f64,
    );
    v.insert("stream.stop_drain_ms", stepped.stop_drain_ms);
    v.insert("stream.shed", (c.shed + paced.lane.counters.shed) as f64);
    v.insert(
        "stream.hub_shed",
        (c.hub_shed + paced.lane.counters.hub_shed) as f64,
    );
    if let Some(root) = sum.get("stepped.stretch").filter(|t| t.total_ns > 0) {
        let calibrate = sum.get("bench.calibrate").map_or(0, |t| t.total_ns);
        let bench = ["bench.gen", "bench.check"]
            .iter()
            .filter_map(|n| sum.get(n))
            .map(|t| t.total_ns)
            .sum::<u64>();
        v.insert(
            "bench.stepped_unattributed_pct",
            (root.self_ns + bench) as f64 / (root.total_ns - calibrate) as f64 * 100.0,
        );
    }
    // Measured stretches alternate recorder off / on.
    let rates = rate_of(&stepped.secs);
    let plain: Vec<f64> = rates.iter().copied().step_by(2).collect();
    let traced: Vec<f64> = rates.iter().copied().skip(1).step_by(2).collect();
    if median(&plain) > 0.0 {
        v.insert(
            "bench.trace_overhead_pct",
            (median(&plain) - median(&traced)) / median(&plain) * 100.0,
        );
    }
    v.insert("bench.stretch_spread_pct", spread_pct(&plain));
    let plain_p99: Vec<f64> = stepped.latency_p99_ms.iter().copied().step_by(2).collect();
    v.insert("bench.result_latency_p99_ms", median(&plain_p99));
    v.insert("bench.calib_slice_us", stepped.slice_s * 1e6);
    let plain_wall: Vec<f64> = wall_rates.iter().copied().step_by(2).collect();
    v.insert("bench.goodput_wall_per_s", median(&plain_wall));

    // Paced diagnostics.
    let d = &paced.lane.driver;
    v.insert(
        "monitor.offer_block_ns_per_pkt",
        paced.gen.block_ns as f64 / paced.gen.offered.max(1) as f64,
    );
    v.insert(
        "monitor.capture_to_ship_p50_us",
        percentile(&paced.lane.capture_to_ship_us, 0.5),
    );
    v.insert("monitor.queue_drops", paced.lane.queue_drops as f64);
    v.insert("monitor.sampler_drops", paced.lane.sampler_drops as f64);
    v.insert("queue.dwell_p50_us", percentile(&d.dwell_us, 0.5));
    v.insert("queue.dwell_p99_us", percentile(&d.dwell_us, 0.99));
    v.insert("queue.depth_max", d.depth_max as f64);
    v.insert(
        "queue.dropped",
        paced
            .lane
            .counters
            .rows_shipped
            .saturating_sub(d.rows_polled) as f64,
    );
    v.insert("queue.lag_end", paced.lane.counters.queue_lag as f64);
    v.insert(
        "stream.driver_busy_share",
        d.busy_ns as f64 / d.wall_ns.max(1) as f64,
    );
    v.insert(
        "telemetry.serve_p50_us",
        percentile(&paced.sub.serve_us, 0.5),
    );
    let all_lat: Vec<f64> = lat.concat();
    v.insert("bench.paced_latency_p50_ms", median(&p50s));
    v.insert("bench.paced_latency_p99_ms", percentile(&all_lat, 0.99));
    v.insert("bench.paced_latency_samples", all_lat.len() as f64);
    v.insert(
        "bench.gen_late_p99_ms",
        percentile(&paced.gen.late_ms, 0.99),
    );
    v.insert(
        "bench.cpu_us_per_input",
        paced.sut_cpu_us as f64 / paced.gen.offered.max(1) as f64,
    );

    // Saturation: the same threaded lane fed as fast as it accepts.
    let sat = run_paced(
        paced_setup(kind, &ctx.fresh_dir("saturate")?, false)?,
        &data,
        0,
        stretch_ns,
        true,
    )?;
    // Flooded, the monitor sheds at its parser queues by design, so this
    // run is not held to the conservation checks; what it delivered to
    // the executor per second of flooding is the saturation rate.
    if let Some(e) = &sat.sub.error {
        out.wrong.push(format!("saturation: subscriber: {e}"));
    }
    let sat_secs = (sat.gen.end_ns - sat.gen.start_ns) as f64 / 1e9;
    out.values.insert(
        "bench.threaded_saturation_per_s",
        sat.lane.driver.rows_polled as f64 / sat_secs.max(1e-9),
    );

    // Probes on the run's own sealed batches, and the trace file.
    let sample: Vec<Packet> = (0..BATCH_ROWS).map(|i| data.packet(i, T0_NS)).collect();
    crate::probes::run(ctx, Some((kind.spec().parser, &sample)), out)?;
    ctx.write_trace(&all_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sojourn_charges_fill_wait_service_and_the_queue_behind_a_stall() {
        let ms = 1_000_000u64;
        let burst = |arrival_ms: u64, service_ms: u64| BurstTime {
            arrival_ns: arrival_ms * ms,
            service_ns: service_ms * ms,
        };
        // Bursts complete every 10 ms; the second one stalls for 25 ms.
        let bursts = [
            burst(10, 2),
            burst(20, 25),
            burst(30, 2),
            burst(40, 2),
            burst(50, 2),
        ];
        let rows = [
            (4 * ms, 0),  // waited 6 ms for its burst to fill, 2 ms carried
            (20 * ms, 1), // stamped at the burst's end: the stall alone
            (30 * ms, 2), // behind the stall: enters at 45, leaves at 47
            (40 * ms, 3), // still behind it: 47 -> 49
            (50 * ms, 4), // caught up
            (50 * ms, 9), // no such burst: skipped
        ];
        assert_eq!(sojourn_ms(&bursts, 1.0, &rows), [8.0, 25.0, 17.0, 9.0, 2.0]);
        // A host half as fast as the reference: service counts half.
        assert_eq!(sojourn_ms(&bursts[..1], 0.5, &rows[..1]), [7.0]);
    }

    #[test]
    fn topk_model_rotates_on_event_time_and_ranks_by_count_then_key() {
        let urls: Vec<String> = ["/a", "/b", "/c"].iter().map(|s| s.to_string()).collect();
        let mut m = TopkModel::default();
        let mut out = Vec::new();
        // Window opens at the first tuple (t=0).
        for (u, t) in [(0u16, 0u64), (1, 10), (1, 20), (2, 30)] {
            m.on_tuple(u, t);
        }
        m.on_tick(WINDOW_NS - 1, &urls, &mut out);
        assert!(out.is_empty(), "window still open");
        m.on_tick(WINDOW_NS, &urls, &mut out);
        let got: Vec<(u64, &str, u64)> = out
            .iter()
            .map(|r| (r.rank, r.key.as_str(), r.count))
            .collect();
        assert_eq!(got, [(0, "/b", 2), (1, "/a", 1), (2, "/c", 1)]);
        assert!(out.iter().all(|r| r.ts_ns == WINDOW_NS));
        // A tuple past the boundary releases inside `on_tuple`, and the
        // ranker holds the release until the next tick.
        out.clear();
        m.on_tuple(0, WINDOW_NS + 1);
        m.on_tuple(0, 2 * WINDOW_NS + 5);
        assert!(m.counts.len() == 1 && m.ranker.len() == 1);
        m.on_tick(2 * WINDOW_NS + 6, &urls, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].key.as_str(), out[0].count), ("/a", 1));
        out.clear();
        m.on_stop(9 * WINDOW_NS, &urls, &mut out);
        assert_eq!((out[0].key.as_str(), out[0].count), ("/a", 1));
        out.clear();
        m.on_stop(9 * WINDOW_NS, &urls, &mut out);
        assert!(out.is_empty(), "nothing left");
    }
}
