//! Sketch accuracy and memory vs exact per-key state, plus the monitor
//! pre-aggregation traffic cut.
//!
//! Two questions the approximate-analytics plane must answer before it
//! can replace exact `HashMap` bolts at "millions of users" scale:
//!
//! 1. **Accuracy per byte** — at 1M/10M distinct Zipfian keys, how far
//!    are SpaceSaving top-k, HyperLogLog distinct counts and the
//!    log-bucketed quantile sketch from ground truth, and how much
//!    smaller are they than the exact state they replace?
//! 2. **Queue traffic** — with monitor pre-aggregation on, how many
//!    tuples cross the queue per raw parsed tuple? (The acceptance gate
//!    is a ≥10× cut on this workload.)
//!
//! Run with: `cargo run --release -p netalytics-bench --bin sketch_accuracy`
//! (add `--quick` for the CI-sized run). The recorded table is
//! `results/sketch_accuracy.txt`.

use std::collections::HashMap;
use std::fmt::Write as _;

use netalytics_apps::ZipfKeys;
use netalytics_bench::http_get_stream;
use netalytics_monitor::{Monitor, MonitorConfig, SampleSpec};
use netalytics_sketch::{Hll, PreAggSpec, QuantileSketch, SpaceSaving, DEFAULT_PRECISION};

/// Zipf exponent of the key popularity distribution.
const ZIPF_S: f64 = 1.05;
/// SpaceSaving error bound — the acceptance query's `eps`.
const EPS: f64 = 0.001;
/// Top-k size compared against exact.
const TOP_K: usize = 10;

/// Estimated resident bytes of the exact `HashMap<String, u64>` the
/// sketches replace: per-entry `(String, u64)` plus key payload and the
/// table's ~1/0.875 load-factor slack. An estimate, but the comparison
/// is decided by orders of magnitude, not percent.
fn exact_map_bytes(entries: usize, avg_key_len: usize) -> usize {
    let per_entry = std::mem::size_of::<(String, u64)>() + avg_key_len + 1;
    (entries as f64 * per_entry as f64 / 0.875) as usize
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// One accuracy round: stream `samples` Zipfian draws over `keys`
/// distinct keys into exact state and all three sketches, then report
/// error and memory side by side.
fn accuracy_round(report: &mut String, keys: usize, samples: usize) {
    let mut gen = ZipfKeys::new(keys, ZIPF_S, 42);
    let mut exact: HashMap<u32, u64> = HashMap::new();
    let mut ss = SpaceSaving::new(EPS);
    let mut hll = Hll::new(DEFAULT_PRECISION);
    let mut qs = QuantileSketch::new();
    let mut values: Vec<u64> = Vec::with_capacity(samples);

    for _ in 0..samples {
        let rank = gen.next_rank();
        let key = gen.key_of(rank);
        *exact.entry(rank as u32).or_default() += 1;
        ss.record(&key, 1);
        hll.record(key.as_bytes());
        // Latency model: deterministic per-rank value so exact
        // percentiles are reproducible.
        let v = 1_000 + rank as u64 * 13;
        qs.record(v);
        values.push(v);
    }

    // Heavy hitters: recall + worst relative count error over the true
    // top-k. Zipf ranks are popularity order, so the true top-k is
    // ranks 0..k (ties broken identically by construction).
    let mut by_count: Vec<(&u32, &u64)> = exact.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let true_top: Vec<(String, u64)> = by_count[..TOP_K]
        .iter()
        .map(|(r, c)| (gen.key_of(**r as usize), **c))
        .collect();
    let approx_top: Vec<String> = ss.top(TOP_K).into_iter().map(|(k, _, _)| k).collect();
    let hits = true_top
        .iter()
        .filter(|(k, _)| approx_top.contains(k))
        .count();
    let recall = hits as f64 / TOP_K as f64;
    let max_rel_err = true_top
        .iter()
        .map(|(k, c)| {
            let est = ss.estimate(k).map_or(0, |e| e.count);
            (est.abs_diff(*c)) as f64 / *c as f64
        })
        .fold(0.0, f64::max);

    // Distinct count.
    let distinct_exact = exact.len() as f64;
    let distinct_err = (hll.estimate() - distinct_exact).abs() / distinct_exact;

    // Quantiles.
    values.sort_unstable();
    let pct = |q: f64| values[((values.len() - 1) as f64 * q) as usize];
    let q_err = |q: f64| {
        let exact_v = pct(q) as f64;
        (qs.quantile(q) as f64 - exact_v).abs() / exact_v
    };

    let avg_key = gen.key_of(keys / 2).len();
    let exact_bytes = exact_map_bytes(exact.len(), avg_key);
    let sketch_bytes = ss.memory_bytes() + hll.memory_bytes() + qs.memory_bytes();

    let _ = writeln!(
        report,
        "-- {keys} distinct keys, {samples} samples (zipf s={ZIPF_S}, eps={EPS}) --"
    );
    let _ = writeln!(
        report,
        "  heavy-hitters  top-{TOP_K} recall {recall:.2}, max rel count err {max_rel_err:.4} \
         ({} / exact {})",
        human(ss.memory_bytes()),
        human(exact_bytes),
    );
    let _ = writeln!(
        report,
        "  distinct       rel err {distinct_err:.4} ({} vs exact set ~{})",
        human(hll.memory_bytes()),
        human(exact_bytes),
    );
    let _ = writeln!(
        report,
        "  quantile       p50 rel err {:.4}, p99 rel err {:.4} ({})",
        q_err(0.50),
        q_err(0.99),
        human(qs.memory_bytes()),
    );
    let _ = writeln!(
        report,
        "  total sketch state {} vs exact {} ({}x smaller)",
        human(sketch_bytes),
        human(exact_bytes),
        exact_bytes / sketch_bytes.max(1),
    );
    let _ = writeln!(report);

    assert!(recall >= 0.9, "top-{TOP_K} recall {recall} below 0.9");
    assert!(
        sketch_bytes * 10 < exact_bytes,
        "sketch state {sketch_bytes} B not ≪ exact {exact_bytes} B"
    );
}

/// Tuples-over-queue with and without monitor pre-aggregation on the
/// same packet stream, draining every `flush_every` packets the way the
/// heartbeat flushes a deployed monitor.
fn preagg_round(report: &mut String, packets: usize, urls: usize, flush_every: usize) -> f64 {
    let stream = http_get_stream(packets, 512, urls);
    let run = |preagg: Option<PreAggSpec>| {
        let mut m = Monitor::new(MonitorConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 128,
            preagg,
        })
        .expect("stock parser");
        for (i, p) in stream.iter().enumerate() {
            m.process(p);
            if (i + 1) % flush_every == 0 {
                m.drain((i as u64 + 1) * 1_000);
            }
        }
        m.drain(u64::MAX);
        m.stats().tuples_out
    };
    let raw = run(None);
    let pre = run(Some(PreAggSpec::HeavyHitters {
        key_field: "url".into(),
        eps: EPS,
    }));
    let cut = raw as f64 / pre.max(1) as f64;
    let _ = writeln!(
        report,
        "-- monitor pre-aggregation ({packets} GETs over {urls} urls, flush every {flush_every}) --"
    );
    let _ = writeln!(report, "  tuples over queue, raw    : {raw:>8}");
    let _ = writeln!(report, "  tuples over queue, preagg : {pre:>8}");
    let _ = writeln!(report, "  reduction                 : {cut:>8.1}x");
    let _ = writeln!(report);
    cut
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scales: &[(usize, usize)] = if quick {
        &[(100_000, 400_000)]
    } else {
        &[(1_000_000, 4_000_000), (10_000_000, 20_000_000)]
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Sketch accuracy vs exact state ({})",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(report);
    for &(keys, samples) in scales {
        accuracy_round(&mut report, keys, samples);
    }

    let cut = if quick {
        preagg_round(&mut report, 10_000, 1_000, 1_000)
    } else {
        preagg_round(&mut report, 50_000, 10_000, 1_000)
    };

    print!("{report}");

    assert!(
        cut >= 10.0,
        "pre-aggregation must cut tuples-over-queue >=10x (got {cut:.1}x)"
    );
}
