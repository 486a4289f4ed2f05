//! `history_mixed`: the store read beside writes.
//!
//! A `QueryFrontend` (k = 4, no apps) serves a disk-backed store
//! preloaded with a million tuples in 16 series over 1 000 native
//! buckets. One closed-loop HTTP client mixes bucket-aligned aggregates,
//! unaligned edges, sketch aggregates, range and latest reads, and — one
//! operation in ten — a direct 64-tuple append into a series that is
//! being read. Every answer is checked against a reference computed here
//! from the generated data.

use std::time::Instant;

use crate::calib::Calibration;
use crate::gen::{self, HistOp, HistOps, HistShape, OpClass, BUCKET_NS};
use crate::http;
use crate::json::Json;
use crate::metrics::RunOutput;
use crate::spans::{self, span};
use crate::stats::{median, percentile, spread_pct};
use crate::sut::{self, HistRow, StoreHandle, COOKIE};
use crate::{procfs, Ctx};

/// Tuples per preload append and per `Append` operation.
const PRELOAD_BATCH: u64 = 625;
const APPEND_BATCH: u64 = 64;

/// Set-ups per run at full size (half a second each); `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 5;

/// Operations per second a stretch's length is converted at: about what
/// the mix sustains on the host this was written on.
const NOMINAL_OPS_PER_S: f64 = 350.0;

/// The generated data set in the form the reference needs: values,
/// codes and prefix sums per series.
struct Reference {
    seed: u64,
    shape: HistShape,
    v: Vec<Vec<u16>>,
    code: Vec<Vec<u8>>,
    prefix: Vec<Vec<u64>>,
    /// Tuples per series now (preload plus appends so far).
    len: Vec<u64>,
}

impl Reference {
    fn new(seed: u64, shape: HistShape) -> Reference {
        let n = shape.per_series as usize;
        let mut r = Reference {
            seed,
            shape,
            v: Vec::new(),
            code: Vec::new(),
            prefix: Vec::new(),
            len: vec![shape.per_series; shape.series],
        };
        for s in 0..shape.series {
            let v: Vec<u16> = (0..n as u64)
                .map(|k| gen::hist_value(seed, s, k) as u16)
                .collect();
            let mut prefix = Vec::with_capacity(n + 1);
            prefix.push(0u64);
            for &x in &v {
                prefix.push(prefix[prefix.len() - 1] + u64::from(x));
            }
            r.code.push(
                (0..n as u64)
                    .map(|k| gen::hist_code(seed, s, k) as u8)
                    .collect(),
            );
            r.v.push(v);
            r.prefix.push(prefix);
        }
        r
    }

    fn rows(&self, s: usize, k0: u64, n: u64) -> Vec<HistRow> {
        (k0..k0 + n)
            .map(|k| gen::hist_row(self.seed, &self.shape, s, k))
            .collect()
    }

    /// Index range of the preloaded tuples inside `[t0, t1]`.
    fn idx(&self, t0: u64, t1: u64) -> std::ops::Range<usize> {
        let r = self.shape.indices_in(t0, t1);
        r.start as usize..r.end as usize
    }
}

/// Preloads a fresh store in `dir`, interleaving the series in time the
/// way live queries would fill it.
fn preload(dir: &std::path::Path, reference: &Reference) -> Result<StoreHandle, String> {
    let store = StoreHandle::open(dir)?;
    let shape = reference.shape;
    let mut k0 = 0;
    while k0 < shape.per_series {
        let n = PRELOAD_BATCH.min(shape.per_series - k0);
        for s in 0..shape.series {
            store.append(&gen::series_name(s), &reference.rows(s, k0, n))?;
        }
        k0 += n;
    }
    Ok(store)
}

/// The request path of a read operation; `None` for an append.
fn op_path(op: &HistOp) -> Option<String> {
    let base = format!(
        "/queries/{COOKIE}/results?group={}",
        gen::series_name(op.series)
    );
    let (t0, t1) = (op.t0, op.t1);
    Some(match op.class {
        c if c.is_aggregate() => format!(
            "{base}&mode=aggregate&field={}&agg={}&from={t0}&to={t1}",
            op.field(),
            op.agg
        ),
        OpClass::Range => format!("{base}&mode=range&from={t0}&to={t1}"),
        OpClass::Latest => format!("{base}&mode=latest"),
        _ => return None,
    })
}

/// The answers accepted for a quantile whose exact value is `x`: from
/// the lower bound of `x`'s bucket in the store's log-bucketed histogram
/// (exact below 8, then 8 sub-buckets per octave — at most an eighth
/// below `x`) up to `x` itself.
fn quantile_bounds(x: u64) -> (u64, u64) {
    if x < 8 {
        return (x, x);
    }
    let width = 1u64 << (63 - x.leading_zeros() - 3);
    (x & !(width - 1), x)
}

/// The `(key, count)` pairs of the exact top `k`, heaviest first.
fn exact_topk(codes: &[u8], k: usize) -> Vec<(String, u64)> {
    let mut counts = [0u64; gen::HIST_CODES as usize];
    for &c in codes {
        counts[c as usize] += 1;
    }
    let mut ranked: Vec<(String, u64)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i.to_string(), c))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Checks one aggregate answer (`value`, with `top` for top-k) against
/// the reference; `Err` says what is wrong.
fn check_aggregate(
    r: &Reference,
    op: &HistOp,
    value: Option<f64>,
    top: &[(String, u64)],
) -> Result<(), String> {
    let (series, agg, t0, t1) = (op.series, op.agg_name(), op.t0, op.t1);
    let idx = r.idx(t0, t1);
    let n = idx.len() as u64;
    let fail = |want: String| {
        Err(format!(
            "{agg} over [{t0}, {t1}]: got {value:?}, want {want}"
        ))
    };
    if op.class == OpClass::Sketch {
        let codes = &r.code[series][idx];
        return match agg {
            "distinct" => {
                let mut seen = [false; gen::HIST_CODES as usize];
                codes.iter().for_each(|&c| seen[c as usize] = true);
                let exact = seen.iter().filter(|&&b| b).count() as f64;
                let got = value.unwrap_or(-1.0);
                // HyperLogLog at p = 12: ~1.6 % standard error.
                if (got - exact).abs() <= (exact * 0.05).max(2.0) {
                    Ok(())
                } else {
                    fail(format!("{exact} ± 5 %"))
                }
            }
            _ => {
                // Fewer distinct keys than counters: space-saving is exact,
                // only the order among equal counts is free.
                let want = exact_topk(codes, 10);
                let counts = |v: &[(String, u64)]| v.iter().map(|e| e.1).collect::<Vec<_>>();
                let each_exact = top.iter().all(|(key, n)| {
                    key.parse::<u8>()
                        .is_ok_and(|k| codes.iter().filter(|&&c| c == k).count() as u64 == *n)
                });
                if counts(top) == counts(&want) && each_exact {
                    Ok(())
                } else {
                    Err(format!(
                        "topk over [{t0}, {t1}]: got {top:?}, want {want:?}"
                    ))
                }
            }
        };
    }
    let vals = &r.v[series][idx.clone()];
    let sum = (r.prefix[series][idx.end] - r.prefix[series][idx.start]) as f64;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let got = value.unwrap_or(f64::NAN);
    match agg {
        "count" if got == n as f64 => Ok(()),
        "count" => fail(n.to_string()),
        "sum" if got == sum => Ok(()),
        "sum" => fail(sum.to_string()),
        "mean" if n > 0 && close(got, sum / n as f64) => Ok(()),
        "mean" => fail((sum / n as f64).to_string()),
        "min" | "max" => {
            let want = if agg == "min" {
                vals.iter().min()
            } else {
                vals.iter().max()
            };
            match want {
                Some(&w) if got == f64::from(w) => Ok(()),
                w => fail(format!("{w:?}")),
            }
        }
        "p95" => {
            let mut hist = [0u64; 1000];
            vals.iter().for_each(|&x| hist[x as usize] += 1);
            let rank = ((0.95 * n as f64).ceil() as u64).max(1);
            let mut seen = 0;
            let exact = hist
                .iter()
                .position(|&c| {
                    seen += c;
                    seen >= rank
                })
                .unwrap_or(0) as u64;
            let (lo, hi) = quantile_bounds(exact);
            if n > 0 && got >= lo as f64 && got <= hi as f64 {
                Ok(())
            } else {
                fail(format!("within [{lo}, {hi}] of the exact {exact}"))
            }
        }
        other => Err(format!("unexpected aggregate {other}")),
    }
}

/// Checks one HTTP answer; `tail` is the id of the series' newest tuple
/// when the request was sent. `Err` says what is wrong.
fn check_http(
    r: &Reference,
    op: &HistOp,
    status: u16,
    body: &str,
    tail: u64,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{:?}: status {status}: {body}", op.class));
    }
    let doc = Json::parse(body).ok_or_else(|| format!("{:?}: malformed JSON", op.class))?;
    let tuples = |doc: &Json| -> Vec<(u64, u64)> {
        doc.get("tuples")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| Some((t.get("id")?.as_u64()?, t.get("ts_ns")?.as_u64()?)))
            .collect()
    };
    let (t0, t1) = (op.t0, op.t1);
    match op.class {
        c if c.is_aggregate() => {
            let value = doc.get("value");
            let top: Vec<(String, u64)> = value
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("key")?.as_str()?.to_string(),
                        e.get("count")?.as_u64()?,
                    ))
                })
                .collect();
            check_aggregate(r, op, value.and_then(Json::as_f64), &top)
        }
        OpClass::Range => {
            let want = r.shape.indices_in(t0, t1);
            let got = tuples(&doc);
            let ids_ok = got.first().map(|t| t.0) == Some(want.start)
                && got.last().map(|t| t.0 + 1) == Some(want.end);
            if got.len() as u64 == want.end - want.start && (got.is_empty() || ids_ok) {
                Ok(())
            } else {
                Err(format!(
                    "range [{t0}, {t1}]: {} tuples, want {want:?}",
                    got.len()
                ))
            }
        }
        OpClass::Latest => match tuples(&doc).as_slice() {
            [(id, ts)] if *id == tail && *ts == tail * r.shape.step_ns => Ok(()),
            other => Err(format!(
                "latest of series {}: {other:?}, want id {tail}",
                op.series
            )),
        },
        _ => Ok(()),
    }
}

/// Operations between two calibration slices of a stretch (~45 ms).
const CALIBRATE_EVERY: u64 = 16;

/// One closed-loop stretch of `target` operations over HTTP, with a
/// calibration slice every [`CALIBRATE_EVERY`] operations, off the clock.
/// Returns `(round trips of the bucket-aligned aggregates in ms, wall
/// seconds, the stretch's calibration)`; answers are checked after the
/// clock stops.
fn http_stretch(
    addr: std::net::SocketAddr,
    store: &StoreHandle,
    r: &mut Reference,
    ops_source: &mut HistOps,
    target: u64,
    out: &mut RunOutput,
) -> (Vec<f64>, f64, Calibration) {
    // (operation, status, body, newest tuple id of its series then)
    let mut answers: Vec<(HistOp, u16, String, u64)> = Vec::new();
    let mut trips = Vec::new();
    let mut ops = 0u64;
    let mut failed = 0u64;
    let mut cal = Calibration::scan();
    let mut off_clock = 0.0;
    let t0 = Instant::now();
    while ops < target {
        if ops.is_multiple_of(CALIBRATE_EVERY) {
            off_clock += cal.sample();
        }
        let op = ops_source.next().expect("the mix is endless");
        ops += 1;
        match op_path(&op) {
            Some(path) => {
                let sent = Instant::now();
                let _g = span(op.class.span_name());
                match http::request(addr, "GET", &path, "") {
                    Ok(resp) => {
                        if op.class == OpClass::Aligned {
                            trips.push(sent.elapsed().as_secs_f64() * 1e3);
                        }
                        let tail = r.len[op.series] - 1;
                        answers.push((op, resp.status, resp.body, tail));
                    }
                    Err(e) => {
                        failed += 1;
                        out.wrong.push(format!("{:?}: {e}", op.class));
                    }
                }
            }
            None => {
                let series = op.series;
                let rows = r.rows(series, r.len[series], APPEND_BATCH);
                let _g = span(op.class.span_name());
                match store.append(&gen::series_name(series), &rows) {
                    Ok(()) => r.len[series] += APPEND_BATCH,
                    Err(e) => {
                        failed += 1;
                        out.wrong.push(e);
                    }
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64() - off_clock;
    // Answers are checked once the clock has stopped.
    for (op, status, body, tail) in &answers {
        if let Err(why) = check_http(r, op, *status, body, *tail) {
            failed += 1;
            if out.wrong.len() < 8 {
                out.wrong.push(why);
            }
        }
    }
    out.attempted += ops;
    out.failed += failed;
    (trips, elapsed, cal)
}

/// The traced run's direct pass: the same operation mix straight against
/// `TimeSeriesStore`, one span per operation class.
fn direct_pass(
    store: &StoreHandle,
    r: &mut Reference,
    ops_source: &mut HistOps,
    ops: usize,
    out: &mut RunOutput,
) {
    let mut us: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let (mut cells, mut raw, mut queries) = (0u64, 0u64, 0u64);
    for op in ops_source.take(ops) {
        let group = gen::series_name(op.series);
        let t0 = Instant::now();
        let name = match op.class {
            c if c.is_aggregate() => {
                let name = match c {
                    OpClass::Aligned => "store.history_pushdown",
                    OpClass::Edge => "store.history_edge",
                    _ => "store.history_sketch",
                };
                let ans = {
                    let _g = span(name);
                    store.history(&group, op.field(), op.agg, op.t0, op.t1, false)
                };
                match ans {
                    Ok(a) => {
                        cells += a.cells;
                        raw += a.raw_tuples;
                        queries += 1;
                        if let Err(why) = check_aggregate(r, &op, a.value, &a.top) {
                            out.failed += 1;
                            out.wrong.push(format!("direct: {why}"));
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.wrong.push(e);
                    }
                }
                name
            }
            OpClass::Range => {
                let n = {
                    let _g = span("store.range");
                    store.range_len(&group, op.t0, op.t1)
                };
                let want = r.shape.indices_in(op.t0, op.t1);
                if n != Ok((want.end - want.start) as usize) {
                    out.failed += 1;
                    out.wrong
                        .push(format!("direct range: {n:?}, want {want:?}"));
                }
                "store.range"
            }
            OpClass::Latest => continue,
            _ => {
                let rows = r.rows(op.series, r.len[op.series], APPEND_BATCH);
                let res = {
                    let _g = span("store.append_beside_reads");
                    store.append(&group, &rows)
                };
                match res {
                    Ok(()) => r.len[op.series] += APPEND_BATCH,
                    Err(e) => {
                        out.failed += 1;
                        out.wrong.push(e);
                    }
                }
                "store.append_beside_reads"
            }
        };
        us.entry(name)
            .or_default()
            .push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
    }
    let p50 = |name: &str| us.get(name).map_or(0.0, |v| percentile(v, 0.5));
    let v = &mut out.values;
    v.insert(
        "store.history_pushdown_p50_us",
        p50("store.history_pushdown"),
    );
    v.insert("store.history_edge_p50_us", p50("store.history_edge"));
    v.insert("store.history_sketch_p50_us", p50("store.history_sketch"));
    v.insert("store.range_p50_us", p50("store.range"));
    v.insert(
        "store.append_beside_reads_p50_us",
        p50("store.append_beside_reads"),
    );
    v.insert(
        "store.plan_cells_per_query",
        cells as f64 / queries.max(1) as f64,
    );
    v.insert(
        "store.plan_raw_tuples_per_query",
        raw as f64 / queries.max(1) as f64,
    );
}

/// Runs the workload and fills `out`.
///
/// # Errors
///
/// Setup failures and exceeded deadlines.
pub fn run(ctx: &Ctx, out: &mut RunOutput) -> Result<(), String> {
    let shape = if ctx.quick {
        HistShape::new(40_000, 16, 40)
    } else {
        HistShape::new(1_000_000, 16, 1_000)
    };
    debug_assert_eq!(shape.span_ns() % BUCKET_NS, 0);
    // One client in flight: client and server take turns, on one CPU.
    if !procfs::pin_to_one_cpu() {
        ctx.note("could not pin to one CPU; running unpinned");
    }
    // Set-up: reference tables, preload, frontend spawn — several times,
    // the last one kept. Half a second each, so a slice beside it says
    // little about the host during it: set-up stays on the wall clock.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.setup_repeats(SETUP_REPEATS) {
        drop(kept.take());
        let t0 = Instant::now();
        let reference = Reference::new(ctx.seed, shape);
        let dir = ctx.fresh_dir("history")?;
        let store = preload(&dir, &reference)?;
        let frontend = sut::spawn_history_frontend(&store)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some((reference, dir, store, frontend));
    }
    let (mut reference, dir, store, frontend) = kept.expect("at least one set-up");
    let (tuples, log_bytes, series) = store.stats();
    out.check(
        tuples == shape.per_series * shape.series as u64 && series == shape.series,
        || format!("preload: {tuples} tuples in {series} series"),
    );
    let addr = frontend.addr();
    let mut ops_source = HistOps::new(ctx.seed, shape);

    let measured = ctx.stretches();
    if ctx.trace {
        spans::enable();
    }
    let cpu0 = procfs::process_cpu_us();
    // Per measured stretch: operations per calibrated and per wall-clock
    // second, the aligned reads' p50 in calibrated ms, the median slice.
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut p50s = Vec::new();
    let mut slices_us = Vec::new();
    let mut ops_total = 0;
    // A stretch is a fixed number of operations, not a fixed time: stretch
    // `i` then meets the store with the same appends behind it on every
    // run, whatever the host's speed.
    let target = (ctx.closed_stretch_s() * NOMINAL_OPS_PER_S)
        .round()
        .max(10.0) as u64;
    for i in 0..=measured {
        let (trips, secs, cal) =
            http_stretch(addr, &store, &mut reference, &mut ops_source, target, out);
        if i > 0 {
            rates.push(target as f64 / cal.calibrated(secs));
            wall_rates.push(target as f64 / secs);
            p50s.push(cal.calibrated(percentile(&trips, 0.5)));
            slices_us.push(cal.slice_s() * 1e6);
            ops_total += target;
        }
    }
    let cpu_us = procfs::process_cpu_us().saturating_sub(cpu0);
    let appended: u64 = reference.len.iter().map(|l| l - shape.per_series).sum();
    out.check(store.stats().0 == tuples + appended, || {
        format!(
            "store holds {} tuples, want {}",
            store.stats().0,
            tuples + appended
        )
    });

    ctx.note(&format!(
        "ops/s per stretch: calibrated {rates:.1?}, wall clock {wall_rates:.1?}; aligned read \
         p50 ms (calibrated) {p50s:.3?}; slice us {slices_us:.0?}; set-ups s (wall clock) {setup_secs:.3?}"
    ));
    if !ctx.trace {
        out.values
            .insert("setup_s", ctx.startup_s + median(&setup_secs));
        out.values.insert("goodput_per_s", median(&rates));
        out.values.insert("result_latency_p50_ms", median(&p50s));
        // Not part of the result line: printed beside the calibrated
        // figure so the two can be compared run by run.
        out.values
            .insert("bench.goodput_wall_per_s", median(&wall_rates));
        return Ok(());
    }

    direct_pass(
        &store,
        &mut reference,
        &mut ops_source,
        if ctx.quick { 300 } else { 3_000 },
        out,
    );
    if ctx.trace {
        spans::disable();
    }
    out.values
        .insert("bench.stretch_spread_pct", spread_pct(&rates));
    out.values
        .insert("bench.goodput_wall_per_s", median(&wall_rates));
    out.values
        .insert("bench.calib_slice_us", median(&slices_us));
    out.values.insert(
        "bench.cpu_us_per_input",
        cpu_us as f64 / ops_total.max(1) as f64,
    );
    out.values.insert(
        "store.bytes_per_tuple",
        log_bytes as f64 / tuples.max(1) as f64,
    );
    // Reopen the loaded directory: what a restart of the service costs.
    drop(frontend);
    drop(store);
    let t0 = Instant::now();
    let reopened = StoreHandle::open(&dir)?;
    out.values
        .insert("store.open_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.check(
        reopened.stats().0 == reference.len.iter().sum::<u64>(),
        || format!("reopen recovered {} tuples", reopened.stats().0),
    );
    drop(reopened);
    crate::probes::run(ctx, None, out)?;
    ctx.write_trace(&spans::take_all())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bounds_follow_the_eight_sub_bucket_layout() {
        // Below 8 the histogram is exact.
        assert_eq!(quantile_bounds(5), (5, 5));
        assert_eq!(quantile_bounds(8), (8, 8));
        assert_eq!(quantile_bounds(17), (16, 17));
        // 900 sits in the bucket [896, 960): never more than an eighth
        // below.
        assert_eq!(quantile_bounds(900), (896, 900));
        for x in 8..5_000u64 {
            let (lo, hi) = quantile_bounds(x);
            assert!(lo <= x && x - lo <= x / 8 && hi == x, "{x}");
        }
    }

    #[test]
    fn reference_agrees_with_brute_force() {
        let shape = HistShape::new(8_000, 4, 8);
        let r = Reference::new(11, shape);
        let (t0, t1) = (BUCKET_NS + 3, 5 * BUCKET_NS + 77);
        let idx = r.idx(t0, t1);
        let brute: Vec<u64> = (0..shape.per_series)
            .filter(|k| (t0..=t1).contains(&(k * shape.step_ns)))
            .map(|k| gen::hist_value(11, 2, k))
            .collect();
        assert_eq!(idx.len(), brute.len());
        let sum: u64 = brute.iter().sum();
        let op = |class, agg| HistOp {
            class,
            series: 2,
            agg,
            t0,
            t1,
        };
        let check = |agg, v: f64| check_aggregate(&r, &op(OpClass::Edge, agg), Some(v), &[]);
        assert!(check("sum", sum as f64).is_ok());
        assert!(check("sum", sum as f64 + 1.0).is_err());
        assert!(check("count", brute.len() as f64).is_ok());
        let max = *brute.iter().max().unwrap() as f64;
        assert!(check("max", max).is_ok());
        assert!(check("min", max).is_err());
        let codes: Vec<u8> = r.code[2][idx].to_vec();
        let top = exact_topk(&codes, 10);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        let topk = op(OpClass::Sketch, "topk:10");
        assert!(check_aggregate(&r, &topk, None, &top).is_ok());
        let mut wrong = top.clone();
        wrong[0].1 += 1;
        assert!(check_aggregate(&r, &topk, None, &wrong).is_err());
    }
}
