//! Ablation — the monitor design choices DESIGN.md calls out:
//!
//! 1. **Batching** (§3.1/§5.1): tuples per output batch vs throughput and
//!    per-tuple wire overhead.
//! 2. **Sampling** (§3.3): fixed flow-sampling rates vs processed share
//!    and output volume.
//! 3. **Worker scaling** (Fig. 3): parser worker threads vs throughput
//!    (bounded by the host's cores).
//! 4. **Zero-copy fan-out** (§5.1): descriptor clone vs deep payload copy.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin ablation_monitor`

use std::time::Instant;

use netalytics_bench::{drive_pipeline, http_get_stream};
use netalytics_monitor::{PipelineConfig, SampleSpec};

fn main() {
    let n = 200_000;
    let stream = http_get_stream(2048, 512, 256);

    println!("== 1. batching: batch size vs throughput and wire overhead ==\n");
    println!(
        "{:>10} {:>12} {:>18}",
        "batch", "rate (Mbps)", "bytes/tuple"
    );
    for batch in [1usize, 8, 32, 128, 512] {
        let (secs, s) = drive_pipeline(
            PipelineConfig {
                parsers: vec!["http_get".into()],
                batch_size: batch,
                ..Default::default()
            },
            &stream,
            n,
        );
        let mbps = s.bytes_in as f64 * 8.0 / secs / 1e6;
        let per_tuple = s.bytes_out as f64 / s.tuples_out.max(1) as f64;
        println!("{batch:>10} {mbps:>12.0} {per_tuple:>18.1}");
    }
    println!("(larger batches amortize the column frame's dictionaries and headers)\n");

    println!("== 2. sampling: fixed rate vs processed share and output ==\n");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "rate", "sampled %", "tuples out", "rate (Mbps)"
    );
    let many_flows = http_get_stream(2048, 512, 1024);
    for rate in [1.0f64, 0.5, 0.2, 0.05] {
        let spec = if rate >= 1.0 {
            SampleSpec::All
        } else {
            SampleSpec::Rate(rate)
        };
        let (secs, s) = drive_pipeline(
            PipelineConfig {
                parsers: vec!["http_get".into()],
                sample: spec,
                ..Default::default()
            },
            &many_flows,
            n,
        );
        let offered_share =
            100.0 * s.packets_in as f64 / (s.packets_in + s.sampler_drops).max(1) as f64;
        println!(
            "{rate:>10.2} {offered_share:>13.1}% {:>14} {:>12.0}",
            s.tuples_out,
            (s.packets_in + s.sampler_drops) as f64 * 512.0 * 8.0 / secs / 1e6
        );
    }
    println!("(sampling sheds whole flows at the collector, before parsing)\n");

    println!("== 3. parser workers vs throughput ==\n");
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    println!("{:>10} {:>12}", "workers", "rate (Mbps)");
    for workers in [1usize, 2, 4] {
        let (secs, s) = drive_pipeline(
            PipelineConfig {
                parsers: vec!["http_get".into()],
                workers_per_parser: workers,
                ..Default::default()
            },
            &stream,
            n,
        );
        let mbps = s.bytes_in as f64 * 8.0 / secs / 1e6;
        println!("{workers:>10} {mbps:>12.0}");
    }
    println!("(gains require spare cores; flow-hash dispatch keeps state intact)\n");

    println!("== 4. zero-copy fan-out vs deep copy ==\n");
    let stream = http_get_stream(2048, 1024, 64);
    let rounds = 200;
    let start = Instant::now();
    let mut acc = 0usize;
    for _ in 0..rounds {
        for p in &stream {
            let clone = p.clone(); // refcount bump only
            acc = acc.wrapping_add(clone.len());
        }
    }
    let zc = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..rounds {
        for p in &stream {
            let copy = netalytics_packet::Packet::from_bytes(
                bytes::Bytes::copy_from_slice(&p.data),
                p.ts_ns,
            );
            acc = acc.wrapping_add(copy.len());
        }
    }
    let deep = start.elapsed().as_secs_f64();
    println!(
        "  descriptor clone: {:>8.1} ns/packet",
        zc * 1e9 / (rounds * stream.len()) as f64
    );
    println!(
        "  deep copy       : {:>8.1} ns/packet",
        deep * 1e9 / (rounds * stream.len()) as f64
    );
    println!("  speedup         : {:>8.1}x   (checksum {acc})", deep / zc);
}
