//! Query-scoped tracing overhead table.
//!
//! Runs the threaded monitor pipeline (`http_get` parser, realistic
//! 512 B GET stream) twice — once untraced, once with a
//! [`Tracer`] head-sampling batches at the default 1-in-N rate — and
//! prints both throughputs per round. Untraced batches pay a single
//! `Option` check per seal, so the two runs should be near-identical.
//! It gates nothing: rounds swing wider than any budget worth setting
//! (see the trailer of `results/trace_overhead.txt`); the calibrated
//! reading is the benchmark's `bench.trace_overhead_pct`.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin trace_overhead`
//! (add `--quick` for a short run). Writes `results/trace_overhead.txt`.

use std::fmt::Write as _;
use std::sync::Arc;

use netalytics_bench::{drive_pipeline, gbps, http_get_stream};
use netalytics_monitor::{PipelineConfig, SampleSpec};
use netalytics_packet::Packet;
use netalytics_telemetry::{TraceConfig, Tracer};

/// One measured pass: `packets` frames through a fresh pipeline; returns
/// sustained Gbps (input bytes over wall time, drain included).
fn run_once(stream: &[Packet], packets: usize, tracer: Option<Arc<Tracer>>) -> f64 {
    let (secs, summary) = drive_pipeline(
        PipelineConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 256,
            tracing: tracer.map(|t| (1u64, t)),
            ..Default::default()
        },
        stream,
        packets,
    );
    gbps(summary.bytes_in, secs)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (packets, rounds) = if quick { (100_000, 3) } else { (400_000, 5) };
    let stream = http_get_stream(2048, 512, 256);

    let mut report = String::new();
    let _ = writeln!(report, "Query-scoped tracing overhead on the monitor path");
    let _ = writeln!(
        report,
        "(http_get parser, 512 B GETs, {packets} packets/round, {rounds} interleaved rounds, \
         head sampling 1-in-{})\n",
        TraceConfig::default().sample_every
    );
    let _ = writeln!(
        report,
        "{:>6} {:>16} {:>14}",
        "round", "untraced (Gbps)", "traced (Gbps)"
    );
    // Interleave the two variants so CPU frequency drift and cache state
    // hit both equally; keep the best round of each (least interference).
    let mut bare_best = 0f64;
    let mut traced_best = 0f64;
    for r in 0..rounds {
        let bare = run_once(&stream, packets, None);
        let traced = run_once(
            &stream,
            packets,
            Some(Arc::new(Tracer::new(TraceConfig::default()))),
        );
        bare_best = bare_best.max(bare);
        traced_best = traced_best.max(traced);
        let _ = writeln!(report, "{r:>6} {bare:>16.2} {traced:>14.2}");
    }
    let ratio = traced_best / bare_best;
    let _ = writeln!(report, "\nbest untraced: {bare_best:.2} Gbps");
    let _ = writeln!(report, "best traced:   {traced_best:.2} Gbps");
    let _ = writeln!(report, "traced/untraced: {:.1}%", ratio * 100.0);

    print!("{report}");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/trace_overhead.txt", &report).expect("write results");
}
