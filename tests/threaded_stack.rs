//! Integration: the threaded lane — columnar monitor pipeline →
//! [`QueueWriter`] → queue cluster → [`QueueSpout`] → sharded executor —
//! the same wiring the end-to-end benchmark and Fig. 6 measure.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use netalytics_data::{CollectSink, Value};
use netalytics_monitor::{Pipeline, PipelineConfig, SampleSpec};
use netalytics_packet::{http, Packet, TcpFlags};
use netalytics_queue::{QueueCluster, QueueConfig, QueueWriter};
use netalytics_stream::spout::drive;
use netalytics_stream::{
    build_executor, topologies, ExecutorMode, ProcessorSpec, QueueSpout, ShardedConfig,
};

#[test]
fn pipeline_to_queue_to_executor_counts_are_exact() {
    let cluster = Arc::new(QueueCluster::new(QueueConfig {
        brokers: 2,
        partitions: 4,
        partition_capacity: 1 << 16,
        replication: 1,
    }));
    let topo = topologies::build(
        &ProcessorSpec::new("top-k")
            .with_arg("k", "5")
            .with_arg("key", "url")
            .with_arg("par", "3"),
    )
    .unwrap();
    let mut exec = build_executor(
        &topo,
        ExecutorMode::Sharded(ShardedConfig {
            shards: 3,
            ..Default::default()
        }),
    );
    // The monitor output interface: parser workers seal column batches
    // and ship them straight into the queue.
    let writer = Arc::new(QueueWriter::new(Arc::clone(&cluster), "http_get"));
    let pipeline = Pipeline::spawn_with_sink(
        PipelineConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 64,
            ..Default::default()
        },
        Arc::clone(&writer) as _,
    )
    .unwrap();

    // 600 GETs: /hot 3x as popular as /warm.
    let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let dst: std::net::Ipv4Addr = "10.0.0.9".parse().unwrap();
    for i in 0..600u32 {
        let url = if i % 4 == 3 { "/warm" } else { "/hot" };
        pipeline.offer(Packet::tcp(
            src,
            4000 + (i % 512) as u16,
            dst,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &http::build_get(url, "h"),
        ));
    }
    let summary = pipeline.shutdown(false);
    assert_eq!(summary.packets_in, 600);
    assert_eq!(summary.tuples_out, 600);
    assert_eq!(writer.tuples_shipped(), 600, "every tuple crossed the sink");
    assert_eq!(writer.batches_lost(), 0);

    // Everything is in the queue; the driver loop returns once drained.
    let mut spout = QueueSpout::new(Arc::clone(&cluster), "http_get", "storm");
    let mut out = drive(&mut spout, exec.as_mut(), 512, &AtomicBool::new(true));
    assert_eq!(exec.processed(), 600, "all tuples reached the executor");
    assert_eq!(spout.decode_errors(), 0);
    out.extend(exec.stop(1));
    let top = out
        .iter()
        .filter(|t| t.source == "rank")
        .find(|t| t.get("rank").and_then(Value::as_u64) == Some(0))
        .expect("a top-ranked key");
    assert_eq!(top.get("key").and_then(Value::as_str), Some("/hot"));
    let topic = cluster.topic_id("http_get");
    assert_eq!(cluster.lag_of(cluster.group_id("storm"), topic), 0);
}

#[test]
fn queue_retention_sheds_under_slow_consumer() {
    let cluster = Arc::new(QueueCluster::new(QueueConfig {
        brokers: 1,
        partitions: 1,
        partition_capacity: 50,
        replication: 1,
    }));
    let t = cluster.topic_id("t");
    for i in 0..500u64 {
        cluster.produce_to(t, i, bytes::Bytes::from_static(b"x"), i);
    }
    assert_eq!(cluster.depth_of(t), 50, "bounded buffer");
    assert_eq!(cluster.dropped_of(t), 450);
    // A late consumer only sees the retained tail.
    let mut got = Vec::new();
    cluster.consume_batch(cluster.group_id("late"), t, 1_000, &mut got);
    assert_eq!(got.len(), 50);
    assert_eq!(got[0].offset, 450);
}

#[test]
fn sampler_in_pipeline_is_flow_consistent() {
    let sink = Arc::new(CollectSink::new());
    let pipeline = Pipeline::spawn_with_sink(
        PipelineConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::Rate(0.4),
            batch_size: 32,
            ..Default::default()
        },
        Arc::clone(&sink) as _,
    )
    .unwrap();
    let src: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let dst: std::net::Ipv4Addr = "10.0.0.9".parse().unwrap();
    // 50 flows x 10 packets each.
    for round in 0..10u32 {
        for port in 0..50u16 {
            pipeline.offer(Packet::tcp(
                src,
                1000 + port,
                dst,
                80,
                TcpFlags::ACK,
                round,
                0,
                b"",
            ));
        }
    }
    pipeline.shutdown(false);
    // Flow-consistent sampling admits whole flows: the per-flow tuple
    // count is 10 for every sampled flow.
    let mut per_flow: std::collections::HashMap<u64, usize> = Default::default();
    for t in sink.drain().into_iter().flatten() {
        *per_flow.entry(t.id).or_default() += 1;
    }
    assert!(!per_flow.is_empty());
    for (flow, n) in &per_flow {
        assert_eq!(*n, 10, "flow {flow:#x} partially sampled");
    }
}
