//! Fig. 6 — NetAlytics analytics scaling with process count.
//!
//! The paper: "Figure 6 shows the maximum input rate that can be
//! handled by NetAlytics as we adjust the number of monitors, Kafka
//! brokers and Storm workers", growing from ~1.2 Gbps at 4 processes to
//! ~4.2 Gbps at 16 (broker:worker ratio 1:2).
//!
//! Here each configuration runs the real threaded lane — columnar
//! monitor pipeline → queue cluster → sharded top-k executor — for a
//! fixed duration, and reports the sustained end-to-end input rate. The
//! "Storm workers" axis is the sharded engine's shard count. The whole
//! path is batch-first: parser workers ship sealed
//! [`ColumnBatch`](netalytics_data::ColumnBatch)es straight into the
//! queue through a [`QueueWriter`] sink (no relay threads), and one
//! driver thread per configuration runs [`drive`]: batched consumes →
//! `offer` → `tick`.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin fig6_pipeline_scaling`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use netalytics_bench::http_get_stream;
use netalytics_data::{DataTuple, TupleBatch};
use netalytics_monitor::{Pipeline, PipelineConfig, SampleSpec};
use netalytics_queue::{QueueCluster, QueueConfig, QueueWriter};
use netalytics_stream::spout::drive;
use netalytics_stream::{
    build_executor_with, topologies, ExecutorMode, ProcessorSpec, QueueSpout, ShardedConfig, Spout,
};
use netalytics_telemetry::{HistogramSnapshot, MetricsRegistry};

fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
}

/// A [`QueueSpout`] that goes quiet once the run is over: whatever
/// backlog a saturated queue still holds is abandoned, not drained — the
/// analytics-side twin of the pipelines' `shutdown(true)`.
struct UntilStopped {
    inner: QueueSpout,
    stop: Arc<AtomicBool>,
}

impl Spout for UntilStopped {
    fn poll(&mut self, max: usize) -> Vec<DataTuple> {
        self.poll_batch(max).into_tuples()
    }

    fn poll_batch(&mut self, max: usize) -> TupleBatch {
        if self.stop.load(Ordering::Relaxed) {
            return TupleBatch::new();
        }
        self.inner.poll_batch(max)
    }
}

/// One Fig. 6 configuration: process counts per layer.
struct Config {
    monitors: usize,
    brokers: usize,
    workers: usize,
}

impl Config {
    fn processes(&self) -> usize {
        self.monitors + self.brokers + self.workers
    }
}

fn run_config(cfg: &Config, secs: f64) -> (f64, HistogramSnapshot) {
    // One self-telemetry registry per configuration: the monitor
    // pipelines, the queue and the executor all publish into it, and the
    // executor's capture-to-analytics histogram gives the latency columns.
    let metrics = Arc::new(MetricsRegistry::new());
    let cluster = Arc::new(QueueCluster::new(QueueConfig {
        brokers: cfg.brokers,
        partitions: cfg.brokers * 2,
        partition_capacity: 1 << 16,
        replication: 1,
    }));
    cluster.set_registry(metrics.clone());
    let stop = Arc::new(AtomicBool::new(false));
    // Analytics: top-k with `workers` parallel instances per stage on
    // `workers` shards. The executor is built on the driver thread
    // (`dyn Executor` is not `Send`) and ticks on the capture-time
    // watermark.
    let topo = topologies::build(
        &ProcessorSpec::new("top-k")
            .with_arg("k", "10")
            .with_arg("key", "url")
            .with_arg("par", cfg.workers.to_string()),
    )
    .expect("catalog topology");
    let analytics = {
        let mut spout = UntilStopped {
            inner: QueueSpout::new(cluster.clone(), "http_get", "storm"),
            stop: stop.clone(),
        };
        let (metrics, stop, shards) = (metrics.clone(), stop.clone(), cfg.workers);
        std::thread::spawn(move || {
            let mode = ExecutorMode::Sharded(ShardedConfig {
                shards,
                ..Default::default()
            });
            let mut exec = build_executor_with(&topo, mode, Some(&metrics));
            drive(&mut spout, exec.as_mut(), 64, &stop);
            exec.stop(wall_ns());
        })
    };

    // Monitors: threaded pipelines whose output interface ships batches
    // straight into the queue (parser worker → QueueWriter → partition),
    // with no relay threads in between.
    let stream = http_get_stream(2048, 512, 512);
    let writer = Arc::new(QueueWriter::new(cluster.clone(), "http_get"));
    let mut pipelines = Vec::new();
    for _ in 0..cfg.monitors {
        pipelines.push(
            Pipeline::spawn_with_sink(
                PipelineConfig {
                    parsers: vec!["http_get".into()],
                    sample: SampleSpec::All,
                    batch_size: 256,
                    metrics: Some(metrics.clone()),
                    ..Default::default()
                },
                writer.clone(),
            )
            .expect("pipeline"),
        );
    }
    // Drive each pipeline from its own generator thread (the paper's
    // PktGen role); blocking offers self-pace to pipeline capacity.
    let offered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let start = Instant::now();
    let mut drivers = Vec::new();
    for p in &pipelines {
        let input_stream: Vec<_> = stream.clone();
        let offered = offered.clone();
        let stop = stop.clone();
        let tx = p.clone_input();
        drivers.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Stamp the capture time so the executor-side histogram
                // can measure true capture-to-analytics latency.
                let pkt = input_stream[i % input_stream.len()].at_time(wall_ns());
                let len = pkt.len() as u64;
                if tx.send(pkt).is_err() {
                    break;
                }
                offered.fetch_add(len, Ordering::Relaxed);
                i += 1;
            }
        }));
    }
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed().as_secs_f64();
    for d in drivers {
        let _ = d.join();
    }
    for p in pipelines {
        let _ = p.shutdown(true);
    }
    analytics.join().expect("analytics driver");
    let e2e = metrics.snapshot().histogram_merged("e2e.tuple_latency_ns");
    let mbps = offered.load(Ordering::Relaxed) as f64 * 8.0 / elapsed / 1e6;
    (mbps, e2e)
}

fn main() {
    let secs = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    // Paper keeps broker:worker = 1:2; x-axis is total processes 4..16.
    let configs = [
        Config {
            monitors: 1,
            brokers: 1,
            workers: 2,
        },
        Config {
            monitors: 1,
            brokers: 2,
            workers: 4,
        },
        Config {
            monitors: 1,
            brokers: 3,
            workers: 6,
        },
        Config {
            monitors: 2,
            brokers: 4,
            workers: 8,
        },
        Config {
            monitors: 2,
            brokers: 5,
            workers: 10,
        },
    ];
    println!("Fig. 6 — end-to-end sustained input rate vs NetAlytics processes");
    println!("(broker:worker ratio 1:2, as in the paper; {secs:.0}s per point)");
    println!("engine: columnar pipeline -> QueueWriter -> Sharded executor, shards = workers");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    if cores < 4 {
        println!("NOTE: on a host with fewer cores than processes, all threads");
        println!("time-share the CPU and the paper's near-linear scaling curve");
        println!("flattens; run on a >=16-core machine to reproduce the slope.");
    }
    println!();
    println!(
        "{:>10} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "processes", "rate (Mbps)", "layout m/b/w", "p50 (us)", "p95 (us)", "p99 (us)"
    );
    for cfg in &configs {
        let (mbps, e2e) = run_config(cfg, secs);
        let us = |ns: u64| ns as f64 / 1e3;
        println!(
            "{:>10} {:>12.0} {:>14} {:>10.0} {:>10.0} {:>10.0}",
            cfg.processes(),
            mbps,
            format!("{}/{}/{}", cfg.monitors, cfg.brokers, cfg.workers),
            us(e2e.p50()),
            us(e2e.p95()),
            us(e2e.p99()),
        );
    }
    println!("\nLatency columns: capture-to-analytics (packet stamped at the");
    println!("generator, recorded when the driver offers the tuple pulled out of");
    println!("the queue), from the self-telemetry e2e.tuple_latency_ns histogram.");
    println!("\nShape check (paper): rate grows roughly linearly with process");
    println!("count (1154 -> 4150 Mbps over 4 -> 16 processes on their testbed).");
}
