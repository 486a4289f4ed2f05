//! Conformance suite for the unified [`Executor`] trait.
//!
//! Every check runs against both engines, constructed the same way
//! through [`build_executor`] — the point of the trait is that callers
//! (the aggregator NF, the orchestrator) cannot tell the deterministic
//! inline engine from the sharded one except by scheduling. The suite
//! pins down the shared contract: exact totals, flow-consistent
//! grouping under parallelism, fan-out that delivers once per edge in
//! emission order, field routing that lands on pinned instances, and a
//! graceful drain on `stop`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netalytics_data::{DataTuple, TupleBatch, Value};
use netalytics_stream::bolts::{RankBolt, RollingCountBolt};
use netalytics_stream::topologies::{build, ProcessorSpec};
use netalytics_stream::{
    build_executor, build_executor_with, Bolt, Executor, ExecutorMode, Grouping, ShardedConfig,
    SourceRef, Topology,
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

/// Re-emits every tuple with the index of the instance that saw it.
/// Both engines create a node's instances in index order, so the
/// factory's call count is the instance index.
struct Stamp {
    via: &'static str,
    inst: u64,
}

impl Bolt for Stamp {
    fn execute(&mut self, t: &DataTuple, out: &mut Vec<DataTuple>) {
        out.push(t.clone().with("via", self.via).with("inst", self.inst));
    }
}

fn stamp(via: &'static str) -> impl Fn() -> Box<Stamp> + Send + Sync {
    let next = Arc::new(AtomicU64::new(0));
    move || {
        Box::new(Stamp {
            via,
            inst: next.fetch_add(1, Ordering::SeqCst),
        })
    }
}

fn u64_field(t: &DataTuple, name: &str) -> u64 {
    t.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{name} missing in {t}"))
}

#[test]
fn two_out_edges_each_get_every_emission_once_and_in_order() {
    for (name, mode) in modes() {
        let mut b = Topology::builder("fan");
        let src = b.add_bolt("src", 1, stamp("src"));
        let keyed = b.add_bolt("keyed", 2, stamp("keyed"));
        let total = b.add_bolt("total", 1, stamp("total"));
        b.wire(SourceRef::Spout, src, Grouping::Global);
        b.wire(
            SourceRef::Bolt(src),
            keyed,
            Grouping::Fields(vec!["k".into()]),
        );
        b.wire(SourceRef::Bolt(src), total, Grouping::Global);
        let mut exec = build_executor(&b.build().unwrap(), mode);
        let n = 500u64;
        let tuples = (0..n)
            .map(|i| DataTuple::new(i, 0).with("k", format!("key{}", i % 7)))
            .collect();
        offer_in_batches(exec.as_mut(), tuples, 32);
        let mut out = exec.poll_output();
        out.extend(exec.stop(1));
        assert_eq!(out.len() as u64, 2 * n, "[{name}] one copy per edge");

        let via = |target: &str| -> Vec<&DataTuple> {
            out.iter()
                .filter(|t| {
                    t.fields
                        .iter()
                        .any(|(k, v)| k == "via" && v.as_str() == Some(target))
                })
                .collect()
        };
        let total_ids: Vec<u64> = via("total").iter().map(|t| t.id).collect();
        assert_eq!(
            total_ids,
            (0..n).collect::<Vec<_>>(),
            "[{name}] the global edge sees every emission, in emission order"
        );
        let keyed = via("keyed");
        let mut keyed_ids: Vec<u64> = keyed.iter().map(|t| t.id).collect();
        keyed_ids.sort_unstable();
        assert_eq!(
            keyed_ids,
            (0..n).collect::<Vec<_>>(),
            "[{name}] the fields edge sees every emission exactly once"
        );
        // Within one key — one instance — order is emission order.
        let mut last_id: HashMap<&str, u64> = HashMap::new();
        let mut inst_of: HashMap<&str, u64> = HashMap::new();
        for t in keyed {
            let k = t.get("k").and_then(Value::as_str).expect("key field");
            if let Some(prev) = last_id.insert(k, t.id) {
                assert!(prev < t.id, "[{name}] key {k}: {prev} before {}", t.id);
            }
            // `get` reads the first `inst`, src's; the keyed one is last.
            let inst = t.fields.last().and_then(|(_, v)| v.as_u64()).expect("inst");
            assert_eq!(
                *inst_of.entry(k).or_insert(inst),
                inst,
                "[{name}] key {k} split across instances"
            );
        }
    }
}

/// `Grouping::Fields(["k"])` placements, computed once from the formula
/// every deployed query has been routed by: FNV-1a over each named
/// field's display form, then a `|` per field, modulo the instance count.
/// Columns: value of `k` (`None` = field absent), instance of 5, of 7.
/// `par > 1` placements, fig6 and the store's group placement all move
/// if these do.
fn pinned_routes() -> Vec<(Option<Value>, usize, usize)> {
    vec![
        (Some(Value::from("/index.html")), 0, 5),
        (Some(Value::from("")), 2, 5),
        (Some(Value::from("404")), 1, 5),
        (Some(Value::U64(404)), 1, 5),
        (Some(Value::I64(-7)), 0, 4),
        (Some(Value::F64(1.5)), 3, 0),
        (Some(Value::F64(2.0)), 3, 5),
        (Some(Value::Bool(true)), 0, 6),
        (Some(Value::Null), 3, 0),
        (Some(Value::Bytes(vec![1, 2, 3])), 4, 5),
        (None, 2, 5),
    ]
}

fn keyed_by(k: &Option<Value>, id: u64) -> DataTuple {
    match k {
        Some(v) => DataTuple::new(id, 0).with("k", v.clone()),
        None => DataTuple::new(id, 0).with("other", 1u64),
    }
}

#[test]
fn fields_grouping_lands_on_pinned_instances() {
    let grouping = Grouping::Fields(vec!["k".into()]);
    let mut rr = 0;
    for (k, of5, of7) in pinned_routes() {
        let t = keyed_by(&k, 0);
        assert_eq!(grouping.route(&t, 5, &mut rr), of5, "{k:?} of 5");
        assert_eq!(grouping.route(&t, 7, &mut rr), of7, "{k:?} of 7");
    }
    // Two fields: the separator keeps ("ab", "") apart from ("a", "b").
    let two = Grouping::Fields(vec!["k".into(), "j".into()]);
    let t = |k: &str, j: &str| DataTuple::new(0, 0).with("k", k).with("j", j);
    assert_eq!(two.route(&t("ab", ""), 7, &mut rr), 6);
    assert_eq!(two.route(&t("a", "b"), 7, &mut rr), 0);

    // The same table through both engines: the instance that runs the
    // tuple is the pinned one.
    for (name, mode) in modes() {
        let mut b = Topology::builder("placed");
        let placed = b.add_bolt("placed", 5, stamp("placed"));
        b.wire(SourceRef::Spout, placed, grouping.clone());
        let mut exec = build_executor(&b.build().unwrap(), mode);
        let table = pinned_routes();
        exec.offer(
            table
                .iter()
                .enumerate()
                .map(|(i, (k, _, _))| keyed_by(k, i as u64))
                .collect(),
        );
        let out = exec.stop(1);
        assert_eq!(out.len(), table.len(), "[{name}]");
        for t in out {
            let (k, of5, _) = &table[t.id as usize];
            assert_eq!(u64_field(&t, "inst"), *of5 as u64, "[{name}] {k:?}");
        }
    }
}

#[test]
fn non_string_keys_count_and_rank_under_their_display_form() {
    for (name, mode) in modes() {
        let mut b = Topology::builder("codes");
        let count = b.add_bolt("count", 3, || Box::new(RollingCountBolt::new(1_000)));
        let rank = b.add_bolt("rank", 1, || Box::new(RankBolt::new(4)));
        b.wire(
            SourceRef::Spout,
            count,
            Grouping::Fields(vec!["key".into()]),
        );
        b.wire(SourceRef::Bolt(count), rank, Grouping::Global);
        let mut exec = build_executor(&b.build().unwrap(), mode);
        // 404 arrives as a number and as text; both are the key "404".
        let tuples = (0..30u64)
            .map(|i| match i % 3 {
                0 => DataTuple::new(i, 0).with("key", 404u64),
                1 => DataTuple::new(i, 0).with("key", "404"),
                _ => DataTuple::new(i, 0).with("key", 200u64),
            })
            .collect();
        offer_in_batches(exec.as_mut(), tuples, 8);
        let out = exec.stop(2);
        let ranked: Vec<(u64, &str, u64)> = out
            .iter()
            .map(|t| {
                (
                    u64_field(t, "rank"),
                    t.get("key").and_then(Value::as_str).expect("string key"),
                    u64_field(t, "count"),
                )
            })
            .collect();
        assert_eq!(ranked, vec![(0, "404", 20), (1, "200", 10)], "[{name}]");
    }
    // A ranker fed numeric keys directly (no counter upstream) as well.
    let mut rank = RankBolt::new(2);
    let mut out = Vec::new();
    rank.execute(
        &DataTuple::new(0, 0).with("key", 404u64).with("count", 3u64),
        &mut out,
    );
    rank.execute(
        &DataTuple::new(0, 0).with("key", "404").with("count", 9u64),
        &mut out,
    );
    rank.tick(1, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].get("key").and_then(Value::as_str), Some("404"));
    assert_eq!(u64_field(&out[0], "count"), 9);
}
