//! Sketch-backed reduction bolts: the paper's intermediate → total
//! parallel-reduction tree (Fig. 4), run over mergeable summaries
//! instead of exact per-key state.
//!
//! Every sketch processor is [`SketchBolt`] in two roles:
//!
//! * **local** (fields/shuffle-grouped, parallel): folds raw tuples into
//!   a bounded sketch, absorbs pre-aggregated sketch deltas arriving
//!   from monitors, and on window rotation ships one serialized delta
//!   downstream — mirroring the intermediate `RankBolt`.
//! * **global** (global-grouped, singleton): merges every partial it
//!   receives and on tick emits the final answer tuples plus one sketch
//!   *snapshot* tuple, which the store sink persists so rollups keep
//!   the full summary, not just the extracted numbers.
//!
//! State is `O(1/ε)` / `O(2^p)` per bolt instance regardless of key
//! cardinality — the bound the exact `RankBolt`/`AggBolt` pipeline
//! cannot offer under "millions of users" workloads.

use std::sync::Arc;

use netalytics_data::{DataTuple, Value};
use netalytics_sketch::{PreAggSpec, Sketch, FIELD_SKETCH};
use netalytics_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::bolt::Bolt;

/// Shared telemetry handles for one sketch processor: serialized bytes
/// shipped, deltas merged and rejected, and the observed-vs-bound error
/// pair.
#[derive(Debug, Clone)]
pub struct SketchCounters {
    /// Serialized sketch bytes shipped downstream (`sketch.bytes`).
    pub bytes: Arc<Counter>,
    /// Sketch-into-sketch merges performed (`sketch.merges`).
    pub merges: Arc<Counter>,
    /// Deltas not merged (`sketch.rejected`): another kind, other
    /// dimensions, or bytes that do not decode.
    pub rejected: Arc<Counter>,
    /// Guaranteed worst-case error of the final sketch (`ε·N`).
    pub error_bound: Arc<Gauge>,
    /// Largest error actually observed in the final sketch — compare
    /// against `error_bound` to see how loose the guarantee is.
    pub observed_error: Arc<Gauge>,
}

impl SketchCounters {
    /// Registers the sketch metrics for `processor` in `metrics`.
    pub fn register(metrics: &MetricsRegistry, processor: &str) -> Self {
        let l = [("processor", processor)];
        SketchCounters {
            bytes: metrics.counter("sketch.bytes", &l),
            merges: metrics.counter("sketch.merges", &l),
            rejected: metrics.counter("sketch.rejected", &l),
            error_bound: metrics.gauge("sketch.error_bound", &l),
            observed_error: metrics.gauge("sketch.observed_error", &l),
        }
    }
}

/// Which half of the reduction tree a bolt instance plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Local,
    Global,
}

/// Event-time tumbling window of a [`SketchBolt`] — the same
/// rotation rule as `RollingCountBolt`: rotate when event time crosses
/// the boundary, or when the watermark (tick) passes it.
#[derive(Debug)]
struct WindowTrack {
    window_ns: u64,
    start: Option<u64>,
}

impl WindowTrack {
    fn new(window_ns: u64) -> Self {
        WindowTrack {
            window_ns: window_ns.max(1),
            start: None,
        }
    }

    /// True when `now_ns` lies at or past the current window's end.
    fn crossed(&mut self, now_ns: u64) -> bool {
        let start = *self.start.get_or_insert(now_ns);
        now_ns >= start + self.window_ns
    }

    fn rotate(&mut self, now_ns: u64) {
        self.start = Some(now_ns);
    }
}

/// One sketch processor in one of its two roles. The [`PreAggSpec`]
/// says which field folds into which sketch of which dimensions — the
/// same description a monitor pre-aggregates under — and
/// [`Sketch::record`] is the fold; the kind is matched on only to
/// render the total reducer's answer rows.
#[derive(Debug)]
pub struct SketchBolt {
    role: Role,
    spec: PreAggSpec,
    /// Rank rows a heavy-hitters answer carries.
    k: usize,
    /// Quantiles a quantile answer reports, one row each.
    qs: Vec<f64>,
    sketch: Sketch,
    /// Rows and deltas folded since the last release (an HLL does not
    /// track a count, and an empty sketch must not emit).
    folded: u64,
    window: WindowTrack,
    counters: Option<SketchCounters>,
}

impl SketchBolt {
    /// The intermediate (parallel) reducer: folds raw tuples and monitor
    /// deltas, ships one sketch delta per window.
    pub fn local(spec: PreAggSpec, window_ns: u64, counters: Option<SketchCounters>) -> Self {
        Self::new(Role::Local, spec, 0, Vec::new(), window_ns, counters)
    }

    /// The total (singleton) reducer: merges partials and on tick emits
    /// the answer — the top `k` for heavy hitters, the estimate for
    /// distinct, one row per `qs` entry for quantiles — plus a
    /// persistable sketch snapshot.
    pub fn global(
        spec: PreAggSpec,
        k: usize,
        qs: Vec<f64>,
        window_ns: u64,
        counters: Option<SketchCounters>,
    ) -> Self {
        Self::new(Role::Global, spec, k, qs, window_ns, counters)
    }

    fn new(
        role: Role,
        spec: PreAggSpec,
        k: usize,
        qs: Vec<f64>,
        window_ns: u64,
        counters: Option<SketchCounters>,
    ) -> Self {
        SketchBolt {
            role,
            sketch: spec.fresh(),
            spec,
            k,
            qs,
            folded: 0,
            window: WindowTrack::new(window_ns),
            counters,
        }
    }

    fn release(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        if self.folded == 0 {
            return;
        }
        let full = std::mem::replace(&mut self.sketch, self.spec.fresh());
        self.folded = 0;
        if self.role == Role::Global {
            self.answer(&full, now_ns, out);
        }
        let t = full.into_tuple(now_ns, now_ns);
        if let (Role::Local, Some(c), Some(b)) = (
            self.role,
            &self.counters,
            t.get(FIELD_SKETCH).and_then(Value::as_bytes),
        ) {
            c.bytes.add(b.len() as u64);
        }
        out.push(t);
        self.window.rotate(now_ns);
    }

    /// The total reducer's answer rows for one released sketch.
    fn answer(&self, full: &Sketch, now_ns: u64, out: &mut Vec<DataTuple>) {
        match full {
            Sketch::HeavyHitters(ss) => {
                let top = ss.top(self.k);
                if let Some(c) = &self.counters {
                    c.error_bound.set(ss.error_bound() as i64);
                    let observed = top.iter().map(|(_, _, err)| *err).max().unwrap_or(0);
                    c.observed_error.set(observed as i64);
                }
                for (rank, (key, count, err)) in top.into_iter().enumerate() {
                    out.push(
                        DataTuple::new(rank as u64, now_ns)
                            .from_source("rank")
                            .with("rank", rank as u64)
                            .with("key", key)
                            .with("count", count)
                            .with("err", err)
                            .with("window_end", now_ns),
                    );
                }
            }
            Sketch::Distinct(hll) => {
                let estimate = hll.estimate();
                if let Some(c) = &self.counters {
                    // Bound is relative for HLL: report ±rel_err·estimate.
                    c.error_bound
                        .set((hll.relative_error() * estimate).round() as i64);
                }
                out.push(
                    DataTuple::new(0, now_ns)
                        .from_source("distinct")
                        .with("field", self.spec.field())
                        .with("distinct", estimate.round() as u64)
                        .with("window_end", now_ns),
                );
            }
            Sketch::Quantile(q) => {
                for &at in &self.qs {
                    out.push(
                        DataTuple::new(0, now_ns)
                            .from_source("quantile")
                            .with("q", at)
                            .with("value", q.quantile(at))
                            .with("n", q.count())
                            .with("window_end", now_ns),
                    );
                }
            }
            Sketch::Cms(_) => {} // no spec builds one
        }
    }

    fn absorb(&mut self, tuple: &DataTuple) {
        let folded = match Sketch::from_tuple(tuple) {
            // A delta from a monitor or an intermediate reducer. One of
            // another kind or other dimensions, or bytes that do not
            // decode, is not ours to fold: counted, never silently lost.
            Some(partial) => {
                let merged = partial.is_ok_and(|p| self.sketch.merge(&p).is_ok());
                if let Some(c) = &self.counters {
                    let counter = if merged { &c.merges } else { &c.rejected };
                    counter.inc();
                }
                merged
            }
            None => tuple
                .get(self.spec.field())
                .is_some_and(|v| self.sketch.record(v)),
        };
        self.folded += u64::from(folded);
    }
}

impl Bolt for SketchBolt {
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>) {
        if self.role == Role::Local && self.window.crossed(tuple.ts_ns) {
            self.release(tuple.ts_ns, out);
        }
        self.absorb(tuple);
    }

    fn tick(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        match self.role {
            // Window rotation on watermark, like the counting bolt.
            Role::Local => {
                if self.folded > 0 && self.window.crossed(now_ns) {
                    self.release(now_ns, out);
                }
            }
            // The total reducer drains whatever it holds, like RankBolt.
            Role::Global => self.release(now_ns, out),
        }
    }

    fn finish(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        self.release(now_ns, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hh(window_ns: u64) -> [SketchBolt; 2] {
        let spec = PreAggSpec::HeavyHitters {
            key_field: "url".into(),
            eps: 0.01,
        };
        [
            SketchBolt::local(spec.clone(), window_ns, None),
            SketchBolt::global(spec, 3, Vec::new(), window_ns, None),
        ]
    }

    fn distinct(precision: u8, counters: Option<SketchCounters>) -> [SketchBolt; 2] {
        let spec = PreAggSpec::Distinct {
            field: "url".into(),
            precision,
        };
        [
            SketchBolt::local(spec.clone(), 1_000, counters.clone()),
            SketchBolt::global(spec, 0, Vec::new(), 1_000, counters),
        ]
    }

    fn quantile(qs: &[f64]) -> [SketchBolt; 2] {
        let spec = PreAggSpec::Quantile {
            value_field: "t_ns".into(),
        };
        [
            SketchBolt::local(spec.clone(), 10_000, None),
            SketchBolt::global(spec, 0, qs.to_vec(), 10_000, None),
        ]
    }

    fn url(u: &str, ts: u64) -> DataTuple {
        DataTuple::new(1, ts).with("url", u).with("t_ns", ts)
    }

    #[test]
    fn heavy_hitters_local_to_global_reduction() {
        let [mut local_a, mut global] = hh(1_000_000);
        let [mut local_b, _] = hh(1_000_000);
        let mut partials = Vec::new();
        for _ in 0..5 {
            local_a.execute(&url("/hot", 10), &mut partials);
        }
        for _ in 0..3 {
            local_b.execute(&url("/hot", 10), &mut partials);
            local_b.execute(&url("/warm", 10), &mut partials);
        }
        local_a.finish(100, &mut partials);
        local_b.finish(100, &mut partials);
        assert_eq!(partials.len(), 2, "one delta per local instance");

        let mut out = Vec::new();
        for p in &partials {
            global.execute(p, &mut out);
        }
        global.finish(200, &mut out);
        let ranked: Vec<(String, u64)> = out
            .iter()
            .filter(|t| t.source == "rank")
            .map(|t| {
                (
                    t.get("key").unwrap().to_string(),
                    t.get("count").and_then(Value::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(ranked, vec![("/hot".into(), 8), ("/warm".into(), 3)]);
        // The snapshot tuple rides along for persistence.
        assert_eq!(
            out.iter()
                .filter(|t| t.source == netalytics_sketch::SKETCH_SOURCE)
                .count(),
            1
        );
    }

    #[test]
    fn heavy_hitters_ties_break_by_key() {
        let [_, mut global] = hh(1_000);
        let mut out = Vec::new();
        for u in ["/z", "/a", "/m"] {
            global.execute(&url(u, 1), &mut out);
        }
        global.finish(10, &mut out);
        let keys: Vec<_> = out
            .iter()
            .filter(|t| t.source == "rank")
            .map(|t| t.get("key").unwrap().to_string())
            .collect();
        assert_eq!(keys, vec!["/a", "/m", "/z"]);
    }

    #[test]
    fn distinct_counts_across_partials() {
        let [mut local_a, mut global] = distinct(12, None);
        let [mut local_b, _] = distinct(12, None);
        let mut partials = Vec::new();
        for i in 0..60 {
            local_a.execute(&url(&format!("/p{i}"), 1), &mut partials);
        }
        for i in 30..90 {
            // 30 overlap with local_a, 30 new.
            local_b.execute(&url(&format!("/p{i}"), 1), &mut partials);
        }
        local_a.finish(10, &mut partials);
        local_b.finish(10, &mut partials);
        let mut out = Vec::new();
        for p in &partials {
            global.execute(p, &mut out);
        }
        global.finish(20, &mut out);
        let d = out
            .iter()
            .find(|t| t.source == "distinct")
            .and_then(|t| t.get("distinct").and_then(Value::as_u64))
            .unwrap();
        assert!((85..=95).contains(&d), "union estimate {d} for 90 true");
    }

    #[test]
    fn quantile_bolt_merges_and_reports() {
        let [mut local, mut global] = quantile(&[0.5, 0.95]);
        let mut partials = Vec::new();
        for v in 1..=100u64 {
            local.execute(&DataTuple::new(1, v).with("t_ns", v), &mut partials);
        }
        local.finish(200, &mut partials);
        let mut out = Vec::new();
        for p in &partials {
            global.execute(p, &mut out);
        }
        global.finish(300, &mut out);
        let quantiles: Vec<(f64, u64)> = out
            .iter()
            .filter(|t| t.source == "quantile")
            .map(|t| {
                (
                    t.get("q").and_then(Value::as_f64).unwrap(),
                    t.get("value").and_then(Value::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(quantiles.len(), 2);
        let p50 = quantiles[0].1;
        assert!((40..=56).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn local_rotates_on_event_time() {
        let [mut local, _] = hh(100);
        let mut out = Vec::new();
        local.execute(&url("/a", 0), &mut out);
        local.execute(&url("/a", 150), &mut out); // crosses the boundary
        assert_eq!(out.len(), 1, "first window shipped as a delta");
        local.finish(300, &mut out);
        assert_eq!(out.len(), 2, "second window holds the late tuple");
    }

    #[test]
    fn empty_bolts_emit_nothing() {
        let mut out = Vec::new();
        for [mut local, mut global] in [hh(1_000), distinct(12, None), quantile(&[0.5])] {
            local.finish(1, &mut out);
            global.finish(1, &mut out);
        }
        assert!(out.is_empty());
    }

    /// A delta that cannot be merged — other dimensions, or bytes that
    /// do not decode — raises `sketch.rejected` by one and changes no
    /// answer.
    #[test]
    fn rejected_deltas_are_counted_and_change_no_answer() {
        let metrics = MetricsRegistry::new();
        let counters = SketchCounters::register(&metrics, "distinct");
        let answer = |deltas: &[DataTuple], global: &mut SketchBolt| {
            let mut out = Vec::new();
            deltas.iter().for_each(|d| global.execute(d, &mut out));
            global.finish(20, &mut out);
            out
        };
        let delta_of = |precision: u8, urls: std::ops::Range<u32>| {
            let [mut local, _] = distinct(precision, None);
            let mut out = Vec::new();
            urls.for_each(|i| local.execute(&url(&format!("/p{i}"), 1), &mut out));
            local.finish(10, &mut out);
            out.pop().expect("one delta")
        };
        let good = delta_of(12, 0..40);
        let [_, mut alone] = distinct(12, None);
        let want = answer(std::slice::from_ref(&good), &mut alone);
        assert_eq!(want.len(), 2, "the distinct row and the snapshot");

        let narrow = delta_of(10, 100..140);
        let mut truncated = good.clone();
        let bytes = good.get(FIELD_SKETCH).and_then(Value::as_bytes).unwrap();
        truncated.set(FIELD_SKETCH, bytes[..bytes.len() / 2].to_vec());

        let [_, mut global] = distinct(12, Some(counters.clone()));
        let got = answer(&[narrow, good, truncated], &mut global);
        assert_eq!(got, want, "rejected deltas leave the answer alone");
        assert_eq!((counters.merges.get(), counters.rejected.get()), (1, 2));

        // Rejected deltas alone are nothing folded: nothing to release.
        let [_, mut global] = distinct(12, Some(counters.clone()));
        assert!(answer(&[delta_of(10, 0..5)], &mut global).is_empty());
        assert_eq!(counters.rejected.get(), 3);
    }
}
