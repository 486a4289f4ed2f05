//! End-to-end approximate analytics: `PROCESS (heavy-hitters | distinct
//! | quantile)` from query text through SDN rules, NFV monitors with
//! pre-aggregation, the queue, the sketch reduction tree, and the
//! durable results store — on both executor modes, deterministically.

use std::collections::HashMap;
use std::sync::Arc;

use netalytics::{Orchestrator, TimeSeriesStore};
use netalytics_apps::{
    sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp, ZipfKeys,
};
use netalytics_data::{ColumnBatch, DataTuple, Value};
use netalytics_netsim::{SimDuration, SimTime};
use netalytics_packet::http;
use netalytics_sketch::{value_key_str, PreAgg, PreAggSpec, Sketch, SpaceSaving, SKETCH_SOURCE};
use netalytics_store::{AggValue, HistoryAgg, HistoryQuery, SeriesKey};
use netalytics_stream::bolts::{RankBolt, SketchBolt};
use netalytics_stream::topologies::{build, sketch_spec, ProcessorSpec};
use netalytics_stream::{build_executor, Bolt, ExecutorMode, ShardedConfig};
use proptest::prelude::*;

/// The SPSC-sharded engine with rings small enough that the workload
/// actually exercises spill handling. It never self-ticks, so it is
/// deterministic under virtual time out of the box.
fn sharded() -> ExecutorMode {
    ExecutorMode::Sharded(ShardedConfig {
        shards: 3,
        ring_capacity: 8,
        ..Default::default()
    })
}

type Ranking = Vec<(String, u64)>;

/// A k=4 data center with a web tier on host 1 and a client replaying a
/// skewed url mix; returns the final ranking, the ranking replayed from
/// the durable store, and the monitor fold counters.
fn run_heavy_hitters(mode: ExecutorMode) -> (Ranking, Ranking, u64, u64) {
    let store = Arc::new(TimeSeriesStore::in_memory());
    let mut orch = Orchestrator::builder(4)
        .executor_mode(mode)
        .monitor_preagg(true)
        .heartbeat_interval(SimDuration::from_millis(100))
        .result_store(store)
        .build();
    orch.name_host("web", 1);
    let web_ip = orch.host_ip(1);
    orch.deploy_app(
        1,
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
    );
    let urls = ["/hot", "/hot", "/hot", "/hot", "/warm", "/warm", "/cold"];
    let schedule = (0..280u64)
        .map(|i| {
            (
                SimTime::from_nanos(i * 7_000_000),
                Conversation {
                    dst: (web_ip, 80),
                    requests: vec![http::build_get(urls[(i % 7) as usize], "web")],
                    tag: "c".into(),
                },
            )
        })
        .collect();
    orch.deploy_app(0, Box::new(ClientApp::new(schedule, sample_sink())));

    let q = orch
        .submit(
            "PARSE http_get FROM * TO web:80 LIMIT 2s SAMPLE * \
             PROCESS (heavy-hitters: k=10, eps=0.001)",
        )
        .expect("sketch query submits");
    orch.run_until(SimTime::from_nanos(2_100_000_000));
    let report = orch.kill(&q).expect("running query");
    let ranking = report.first().final_ranking();

    let history = q.history().expect("store attached");
    let replayed = history.final_ranking();
    // The persisted history also carries the sketch snapshot itself, so
    // rollups keep the full summary — not just the extracted numbers.
    assert!(
        history.tuples.iter().any(|t| t.source == SKETCH_SOURCE),
        "sketch snapshot persisted beside the ranking"
    );

    let stats = &report.monitor_stats[0];
    (ranking, replayed, stats.tuples_folded, stats.sketches_out)
}

/// The acceptance query runs end-to-end on both executor modes and
/// they agree — same ranking from the live report and from
/// `QueryHandle::history`, with monitors shipping sketch deltas instead
/// of raw tuples.
#[test]
fn heavy_hitters_query_identical_on_both_executor_modes() {
    let (inline_rank, inline_hist, folded_i, deltas_i) = run_heavy_hitters(ExecutorMode::Inline);
    let (sharded_rank, sharded_hist, folded_s, deltas_s) = run_heavy_hitters(sharded());

    assert!(!inline_rank.is_empty(), "query produced a ranking");
    assert_eq!(inline_rank, sharded_rank, "sharded agrees on the ranking");
    assert_eq!(
        inline_hist, sharded_hist,
        "sharded agrees on stored history"
    );
    assert_eq!(inline_rank, inline_hist, "store replays the live answer");

    assert_eq!(inline_rank[0].0, "/hot");
    let counts: HashMap<&str, u64> = inline_rank.iter().map(|(k, c)| (k.as_str(), *c)).collect();
    assert!(counts["/hot"] > counts["/warm"] && counts["/warm"] > counts["/cold"]);

    // Pre-aggregation was really on: tuples folded at the tap point,
    // far fewer deltas crossed the queue, identically in every mode.
    assert_eq!((folded_i, deltas_i), (folded_s, deltas_s));
    assert!(folded_i > 0 && deltas_i > 0 && deltas_i < folded_i);
    // Every folded observation is accounted for in the final counts.
    assert_eq!(inline_rank.iter().map(|(_, c)| c).sum::<u64>(), folded_i);
}

/// Satellite regression: repeated identical runs produce bit-identical
/// rankings (ties broken by key, deterministic store flush order).
#[test]
fn repeated_runs_are_deterministic() {
    let a = run_heavy_hitters(ExecutorMode::Inline);
    let b = run_heavy_hitters(ExecutorMode::Inline);
    assert_eq!(a, b);
}

/// Golden test: the sketch ranker against the exact `RankBolt` on a
/// Zipfian stream — top-k recall must be ≥ 0.9 (it is 1.0 here, but the
/// gate is the ISSUE's).
#[test]
fn heavy_hitters_recall_vs_exact_rank_bolt_on_zipf_stream() {
    const K: usize = 10;
    let keys: Vec<String> = ZipfKeys::new(10_000, 1.1, 7).take(30_000).collect();

    // Exact path: per-key counts into the paper's total RankBolt.
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for k in &keys {
        *counts.entry(k).or_default() += 1;
    }
    let mut exact = RankBolt::new(K);
    let mut out = Vec::new();
    for (k, c) in &counts {
        exact.execute(
            &DataTuple::new(0, 0).with("key", *k).with("count", *c),
            &mut out,
        );
    }
    exact.tick(1, &mut out);
    let exact_top: Vec<(String, u64)> = out
        .iter()
        .map(|t| {
            (
                t.get("key").unwrap().to_string(),
                t.get("count").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    assert_eq!(exact_top.len(), K);

    // Approximate path: the same stream through four parallel local
    // sketch rankers reduced into the global one — the monitor/bolt
    // topology in miniature.
    let spec = PreAggSpec::HeavyHitters {
        key_field: "url".into(),
        eps: 0.001,
    };
    let mut locals: Vec<SketchBolt> = (0..4)
        .map(|_| SketchBolt::local(spec.clone(), 10_000_000_000, None))
        .collect();
    let mut partials = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        locals[i % 4].execute(
            &DataTuple::new(i as u64, 1).with("url", k.as_str()),
            &mut partials,
        );
    }
    for l in &mut locals {
        l.finish(100, &mut partials);
    }
    let mut global = SketchBolt::global(spec, K, Vec::new(), 10_000_000_000, None);
    let mut final_out = Vec::new();
    for p in &partials {
        global.execute(p, &mut final_out);
    }
    global.finish(200, &mut final_out);
    let approx_top: Vec<String> = final_out
        .iter()
        .filter(|t| t.source == "rank")
        .map(|t| t.get("key").unwrap().to_string())
        .collect();

    let hits = exact_top
        .iter()
        .filter(|(k, _)| approx_top.contains(k))
        .count();
    let recall = hits as f64 / K as f64;
    assert!(recall >= 0.9, "top-{K} recall {recall} below the 0.9 gate");

    // The hottest key's estimate is exact (SpaceSaving never loses the
    // head of a skewed stream).
    let hot = &exact_top[0];
    let est = final_out
        .iter()
        .filter(|t| t.source == "rank")
        .find(|t| t.get("key").map(ToString::to_string).as_deref() == Some(&hot.0))
        .and_then(|t| t.get("count").and_then(Value::as_u64))
        .expect("hottest key ranked");
    assert_eq!(est, hot.1);
}

/// Acceptance bound: sketch state is orders of magnitude below the
/// exact `HashMap` a `RankBolt`/`AggBolt` pipeline would hold at 1M
/// distinct keys. The sketch's footprint is `O(1/eps)` by construction,
/// so saturating it far past capacity is enough to measure its ceiling;
/// the exact side really holds the million entries.
#[test]
fn sketch_state_is_far_below_exact_state_at_1m_distinct_keys() {
    let mut exact: HashMap<String, u64> = HashMap::with_capacity(1 << 20);
    for i in 0..1_000_000u64 {
        exact.insert(format!("/key/{i}"), 1);
    }
    // Same per-entry accounting as SpaceSaving::memory_bytes.
    let exact_bytes: usize = exact
        .keys()
        .map(|k| k.len() + std::mem::size_of::<(u64, u64)>() + 48)
        .sum();

    let mut ss = SpaceSaving::new(0.001);
    let mut zipf = ZipfKeys::new(1_000_000, 1.05, 42);
    for _ in 0..20_000 {
        let k = zipf.next().unwrap();
        ss.record(&k, 1);
    }
    assert!(ss.len() <= 1_000, "capacity-bounded at 1/eps entries");
    let sketch_bytes = Sketch::HeavyHitters(ss).memory_bytes();
    assert!(
        sketch_bytes * 100 < exact_bytes,
        "sketch {sketch_bytes} B must be ≪ exact {exact_bytes} B"
    );
}

/// The other two operators compile and answer end-to-end on the default
/// (inline) engine: distinct counts the url set, quantile summarizes
/// the latency field.
#[test]
fn distinct_and_quantile_queries_answer_end_to_end() {
    let store = Arc::new(TimeSeriesStore::in_memory());
    let mut orch = Orchestrator::builder(4)
        .monitor_preagg(true)
        .heartbeat_interval(SimDuration::from_millis(100))
        .result_store(store)
        .build();
    orch.name_host("web", 1);
    let web_ip = orch.host_ip(1);
    orch.deploy_app(
        1,
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
    );
    let schedule = (0..200u64)
        .map(|i| {
            (
                SimTime::from_nanos(i * 9_000_000),
                Conversation {
                    dst: (web_ip, 80),
                    requests: vec![http::build_get(&format!("/page/{}", i % 17), "web")],
                    tag: "c".into(),
                },
            )
        })
        .collect();
    orch.deploy_app(0, Box::new(ClientApp::new(schedule, sample_sink())));

    let qd = orch
        .submit("PARSE http_get FROM * TO web:80 LIMIT 2s SAMPLE * PROCESS (distinct: field=url)")
        .expect("distinct query");
    let qq = orch
        .submit(
            "PARSE http_get FROM * TO web:80 LIMIT 2s SAMPLE * \
             PROCESS (quantile: value=t_ns, q=0.5+0.99)",
        )
        .expect("quantile query");
    orch.run_until(SimTime::from_nanos(2_100_000_000));

    let report = orch.kill(&qd).expect("distinct query running");
    let d = report
        .first()
        .tuples
        .iter()
        .rev()
        .find(|t| t.source == "distinct")
        .and_then(|t| t.get("distinct").and_then(Value::as_u64))
        .expect("distinct estimate emitted");
    assert!((15..=19).contains(&d), "17 true distinct urls, got {d}");
    let history = qd.history().expect("persisted");
    assert!(history.tuples.iter().any(|t| t.source == "distinct"));

    let report = orch.kill(&qq).expect("quantile query running");
    let quantiles: Vec<(f64, u64)> = report
        .first()
        .tuples
        .iter()
        .filter(|t| t.source == "quantile")
        .map(|t| {
            (
                t.get("q").and_then(Value::as_f64).unwrap(),
                t.get("value").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    assert!(
        quantiles.iter().any(|(q, v)| *q == 0.5 && *v > 0),
        "p50 of connection time reported: {quantiles:?}"
    );
}

/// Keys and counts named by each layer that folds a `col` field into a
/// heavy-hitters / distinct answer: `(top-8 ranking, distinct estimate)`.
type Named = (Vec<(String, u64)>, Option<u64>);

/// What the total reducer's answer rows name.
fn named_by(answers: &[DataTuple]) -> Named {
    let ranking = answers
        .iter()
        .filter(|t| t.source == "rank")
        .map(|t| {
            (
                t.get("key").unwrap().to_string(),
                t.get("count").and_then(Value::as_u64).unwrap(),
            )
        })
        .collect();
    let distinct = answers
        .iter()
        .find(|t| t.source == "distinct")
        .map(|t| t.get("distinct").and_then(Value::as_u64).unwrap());
    (ranking, distinct)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One keying rule, proven across layers: for a random column of
    /// any one type — with explicit nulls and rows missing the field
    /// mixed in — the catalog topology's final answer, the same rows
    /// pre-aggregated by a monitor and merged by the total reducer, and
    /// the store's `topk`/`distinct` history over the same rows name the
    /// same keys with the same counts, and those are the exact counts
    /// under `value_key_str`.
    #[test]
    fn every_layer_names_the_same_keys_with_the_same_counts(
        kind in 0u8..5,
        cells in proptest::collection::vec((0u8..8, 0u8..6), 1..120),
    ) {
        let rows: Vec<DataTuple> = cells
            .iter()
            .enumerate()
            .map(|(i, &(shape, v))| {
                let t = DataTuple::new(i as u64, i as u64).from_source("p");
                match (shape, kind) {
                    (0, _) => t,
                    (1, _) => t.with("col", Value::Null),
                    (_, 0) => t.with("col", format!("/k{v}")),
                    (_, 1) => t.with("col", 400 + u64::from(v)),
                    (_, 2) => t.with("col", i64::from(v) - 3),
                    (_, 3) => t.with("col", f64::from(v) * 0.5),
                    _ => t.with("col", v % 2 == 0),
                }
            })
            .collect();
        let mut exact: HashMap<String, u64> = HashMap::new();
        for key in rows.iter().filter_map(|t| value_key_str(t.get("col")?)) {
            *exact.entry(key.into_owned()).or_default() += 1;
        }
        let mut want: Vec<(String, u64)> = exact.into_iter().collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let processors = [
            ProcessorSpec::new("heavy-hitters").with_arg("k", "8").with_arg("eps", "0.01"),
            ProcessorSpec::new("distinct").with_arg("field", "col"),
        ]
        .map(|p| p.with_arg("key", "col").with_arg("par", "2"));
        let (mut live, mut preagg) = (Vec::new(), Vec::new());
        for processor in &processors {
            // The catalog topology over the raw rows.
            let mut exec = build_executor(&build(processor).unwrap(), ExecutorMode::Inline);
            exec.offer(rows.iter().cloned().collect());
            live.extend(exec.stop(1_000));

            // A monitor folding under the catalog's own spec, its delta
            // (and the rows it does not cover) into the total reducer.
            let spec = sketch_spec(processor).unwrap().expect("a sketch processor");
            let batch = ColumnBatch::from_batch(&rows.iter().cloned().collect());
            let shipped = PreAgg::new(spec.clone()).fold(batch, 500, true).batch;
            let mut global = SketchBolt::global(spec, 8, Vec::new(), 1_000_000, None);
            for t in &shipped.to_batch().tuples {
                global.execute(t, &mut preagg);
            }
            global.finish(1_000, &mut preagg);
        }

        // The store replaying the same rows.
        let store = TimeSeriesStore::in_memory();
        let series = SeriesKey::new(7, "");
        store.append(&series, &rows.iter().cloned().collect()).unwrap();
        let history = |agg| {
            let q = HistoryQuery::new(series.clone(), "col", 0, u64::MAX, agg);
            store.history(&q).unwrap().value
        };
        let stored: Named = (
            match history(HistoryAgg::HeavyHitters { k: 8 }) {
                AggValue::TopK(top) => top,
                AggValue::Empty => Vec::new(),
                other => panic!("topk answered {other:?}"),
            },
            match history(HistoryAgg::Distinct) {
                AggValue::Distinct(n) => Some(n),
                AggValue::Empty => None,
                other => panic!("distinct answered {other:?}"),
            },
        );

        let live = named_by(&live);
        prop_assert_eq!(&live.0, &want, "live ranking is exact");
        prop_assert_eq!(live.1.is_some(), !want.is_empty());
        if let Some(n) = live.1 {
            // p = 12 over at most six keys: the estimate is the count.
            prop_assert_eq!(n, want.len() as u64, "live distinct");
        }
        prop_assert_eq!(&named_by(&preagg), &live, "monitor deltas agree");
        prop_assert_eq!(&stored, &live, "store history agrees");
    }
}
