//! Conformance suite for the unified [`Executor`] trait.
//!
//! Every check runs against both engines, constructed the same way
//! through [`build_executor`] — the point of the trait is that callers
//! (the aggregator NF, the orchestrator) cannot tell the deterministic
//! inline engine from the sharded one except by scheduling. The suite
//! pins down the shared contract: exact totals, flow-consistent
//! grouping under parallelism, and a graceful drain on `stop`.

use std::collections::HashMap;

use netalytics_data::{DataTuple, TupleBatch, Value};
use netalytics_stream::topologies::{build, ProcessorSpec};
use netalytics_stream::{
    build_executor, build_executor_with, Executor, ExecutorMode, ShardedConfig,
};
use netalytics_telemetry::MetricsRegistry;

/// Both engine modes, with the sharded engine's rings small enough that
/// spill handling is actually exercised. Neither engine self-ticks, so
/// the tests are deterministic.
fn modes() -> Vec<(&'static str, ExecutorMode)> {
    vec![
        ("inline", ExecutorMode::Inline),
        (
            "sharded",
            ExecutorMode::Sharded(ShardedConfig {
                shards: 3,
                ring_capacity: 8,
                ..Default::default()
            }),
        ),
    ]
}

fn offer_in_batches(exec: &mut dyn Executor, tuples: Vec<DataTuple>, batch: usize) {
    let mut it = tuples.into_iter().peekable();
    while it.peek().is_some() {
        let b: TupleBatch = it.by_ref().take(batch).collect();
        exec.offer(b);
    }
}

#[test]
fn totals_are_exact_in_both_modes() {
    for (name, mode) in modes() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "host")
                .with_arg("value", "bytes"),
        )
        .unwrap();
        let mut exec = build_executor(&topo, mode);
        let tuples: Vec<DataTuple> = (0..1000u64)
            .map(|i| {
                DataTuple::new(i, 0)
                    .with("host", if i % 2 == 0 { "a" } else { "b" })
                    .with("bytes", 10.0)
            })
            .collect();
        offer_in_batches(exec.as_mut(), tuples, 32);
        assert_eq!(exec.processed(), 1000, "[{name}] offered tuples counted");
        let out = exec.stop(1);
        let mut sums: Vec<(String, f64)> = out
            .iter()
            .filter_map(|t| {
                Some((
                    t.get("host")?.to_string(),
                    t.get("sum").and_then(Value::as_f64)?,
                ))
            })
            .collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            sums,
            vec![("a".into(), 5000.0), ("b".into(), 5000.0)],
            "[{name}] exact totals"
        );
        assert_eq!(exec.shed_tuples(), 0, "[{name}] nothing shed by default");
    }
}

#[test]
fn flow_consistent_grouping_is_preserved_under_parallelism() {
    // top-k hashes tuples to counting instances by key; if batched slab
    // routing ever split one key across instances, the per-key counts in
    // the final global ranking would come out fragmented or duplicated.
    for (name, mode) in modes() {
        let topo = build(
            &ProcessorSpec::new("top-k")
                .with_arg("k", "16")
                .with_arg("par", "4")
                .with_arg("w", "3600s")
                .with_arg("key", "url"),
        )
        .unwrap();
        let mut exec = build_executor(&topo, mode);
        // Key /p<j> appears exactly (j + 1) * 10 times, interleaved.
        let mut truth: HashMap<String, u64> = HashMap::new();
        let mut tuples = Vec::new();
        let mut id = 0u64;
        for round in 0..80u64 {
            for j in 0..8u64 {
                if round < (j + 1) * 10 {
                    let url = format!("/p{j}");
                    *truth.entry(url.clone()).or_default() += 1;
                    tuples.push(DataTuple::new(id, 1).with("url", url));
                    id += 1;
                }
            }
        }
        offer_in_batches(exec.as_mut(), tuples, 64);
        let out = exec.stop(2);
        let ranked: HashMap<String, u64> = out
            .iter()
            .filter_map(|t| {
                Some((
                    t.get("key")?.to_string(),
                    t.get("count").and_then(Value::as_u64)?,
                ))
            })
            .collect();
        assert_eq!(ranked, truth, "[{name}] per-key counts survive routing");
    }
}

#[test]
fn stop_drains_gracefully_and_later_calls_are_safe() {
    for (name, mode) in modes() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = build_executor(&topo, mode);
        let tuples: Vec<DataTuple> = (0..64u64)
            .map(|i| DataTuple::new(i, 0).with("k", "x").with("v", 1.0))
            .collect();
        offer_in_batches(exec.as_mut(), tuples, 8);
        let out = exec.stop(1);
        let total: f64 = out
            .iter()
            .filter_map(|t| t.get("sum").and_then(Value::as_f64))
            .sum();
        assert_eq!(total, 64.0, "[{name}] stop flushes every window");
        // The contract: anything after stop is safe — never blocks, never
        // panics — even though what it produces is engine-specific.
        exec.offer(
            (0..4u64)
                .map(|i| DataTuple::new(i, 0).with("k", "y").with("v", 1.0))
                .collect(),
        );
        exec.tick(2);
        let _ = exec.poll_output();
        let _ = exec.stop(3);
        let _ = exec.processed();
        let _ = exec.shed_tuples();
    }
}

#[test]
fn both_modes_report_identical_counter_totals() {
    // Same workload through both engines, each publishing into its own
    // registry: the self-telemetry counters must agree exactly — with
    // each other and with the trait accessors they back.
    let mut per_mode = Vec::new();
    for (name, mode) in modes() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "host")
                .with_arg("value", "bytes"),
        )
        .unwrap();
        let metrics = MetricsRegistry::new();
        let mut exec = build_executor_with(&topo, mode, Some(&metrics));
        let tuples: Vec<DataTuple> = (0..500u64)
            .map(|i| {
                DataTuple::new(i, 0)
                    .with("host", if i % 3 == 0 { "a" } else { "b" })
                    .with("bytes", 2.0)
            })
            .collect();
        offer_in_batches(exec.as_mut(), tuples, 16);
        let _ = exec.stop(1);
        let snap = metrics.snapshot();
        let processed = snap.counter_total("stream.processed");
        let emitted = snap.counter_total("stream.emitted");
        let shed = snap.counter_total("stream.shed");
        assert_eq!(processed, exec.processed(), "[{name}] accessor == registry");
        assert_eq!(emitted, exec.emitted(), "[{name}] accessor == registry");
        assert_eq!(shed, exec.shed_tuples(), "[{name}] accessor == registry");
        per_mode.push((name, processed, emitted, shed));
    }
    let (_, p0, e0, s0) = per_mode[0];
    for &(name, p, e, s) in &per_mode[1..] {
        assert_eq!(p, p0, "[{name}] processed totals agree across engines");
        assert_eq!(e, e0, "[{name}] emitted totals agree across engines");
        assert_eq!(s, s0, "[{name}] shed totals agree across engines");
    }
}

#[test]
fn empty_offers_are_no_ops() {
    for (name, mode) in modes() {
        let topo = build(&ProcessorSpec::new("group-sum")).unwrap();
        let mut exec = build_executor(&topo, mode);
        exec.offer(TupleBatch::new());
        exec.offer(TupleBatch::new());
        assert_eq!(exec.processed(), 0, "[{name}] empty batches not counted");
        let out = exec.stop(1);
        assert!(out.is_empty(), "[{name}] no data in, no aggregates out");
        assert_eq!(exec.shed_tuples(), 0, "[{name}]");
    }
}
