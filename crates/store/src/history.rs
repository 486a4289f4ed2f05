//! The history query plane: filtered aggregations over persisted
//! segments with tier-aware pushdown.
//!
//! A [`HistoryQuery`] names one series, one field, a closed time range
//! and an aggregate. [`TimeSeriesStore::history`] answers it from the
//! cheapest tier that can serve it exactly:
//!
//! | aggregate            | persisted rollups | coarse (sketch) tier | sealed-segment cells | raw scan |
//! |----------------------|-------------------|----------------------|----------------------|----------|
//! | count/sum/min/max    | merge             | merge                | merge                | edges    |
//! | mean                 | merge             | merge                | merge                | edges    |
//! | p50/p95              | merge (histogram) | merge (histogram)    | merge                | edges    |
//! | distinct / top-k     | merge (sketch)    | merge (sketch)       | merge (sketch)       | replay   |
//! | any, with filters    | —                 | —                    | —                    | replay   |
//!
//! "Merge" means folding pre-aggregated [`RollupPoint`] cells through
//! the rollup algebra instead of re-decoding tuples; only the unaligned
//! edges of the range (plus the still-growing active segment) are
//! scanned raw. Filters always force [`TimeSeriesStore::history_replay`]
//! because cells cannot re-apply a tuple predicate, and the
//! distinct/top-k aggregates fall back to replay when the series holds
//! plain values rather than mergeable sketch snapshots.

use netalytics_data::{DataTuple, Value};
use netalytics_sketch::{
    value_key_bytes, value_key_str, Hll, Sketch, SpaceSaving, DEFAULT_PRECISION,
};

use crate::rollup::RollupPoint;
use crate::scan::{fold_value, ScanCount};
use crate::store::{SeriesKey, StoreError, TimeSeriesStore};

/// Aggregate functions the history plane evaluates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryAgg {
    /// Number of numeric observations of the field.
    Count,
    /// Sum of observed values.
    Sum,
    /// Smallest observed value.
    Min,
    /// Largest observed value.
    Max,
    /// Arithmetic mean of observed values.
    Mean,
    /// Median estimate (log-bucketed histogram).
    P50,
    /// 95th-percentile estimate.
    P95,
    /// Approximate distinct-value count (HyperLogLog).
    Distinct,
    /// Approximate top-k heaviest values (space-saving).
    HeavyHitters {
        /// How many entries to return.
        k: usize,
    },
}

impl HistoryAgg {
    /// Parses an aggregate name as used on the wire (`count`, `sum`,
    /// `min`, `max`, `mean`/`avg`, `p50`/`median`, `p95`, `distinct`,
    /// `topk` or `topk:<k>`).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "count" => HistoryAgg::Count,
            "sum" => HistoryAgg::Sum,
            "min" => HistoryAgg::Min,
            "max" => HistoryAgg::Max,
            "mean" | "avg" => HistoryAgg::Mean,
            "p50" | "median" => HistoryAgg::P50,
            "p95" => HistoryAgg::P95,
            "distinct" => HistoryAgg::Distinct,
            "topk" => HistoryAgg::HeavyHitters { k: 10 },
            _ => {
                let k = s.strip_prefix("topk:")?.parse().ok().filter(|&k| k > 0)?;
                HistoryAgg::HeavyHitters { k }
            }
        })
    }

    /// Stable name, used in derived series keys and journal lines.
    pub fn name(&self) -> String {
        match self {
            HistoryAgg::Count => "count".into(),
            HistoryAgg::Sum => "sum".into(),
            HistoryAgg::Min => "min".into(),
            HistoryAgg::Max => "max".into(),
            HistoryAgg::Mean => "mean".into(),
            HistoryAgg::P50 => "p50".into(),
            HistoryAgg::P95 => "p95".into(),
            HistoryAgg::Distinct => "distinct".into(),
            HistoryAgg::HeavyHitters { k } => format!("topk:{k}"),
        }
    }

    /// True for aggregates that need a mergeable sketch (not just the
    /// numeric cell summary).
    pub fn needs_sketch(&self) -> bool {
        matches!(self, HistoryAgg::Distinct | HistoryAgg::HeavyHitters { .. })
    }
}

/// Comparison operator of a [`FieldFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl FilterOp {
    /// Parses `eq|ne|lt|le|gt|ge` (or the symbolic forms).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "eq" | "=" | "==" => FilterOp::Eq,
            "ne" | "!=" => FilterOp::Ne,
            "lt" | "<" => FilterOp::Lt,
            "le" | "<=" => FilterOp::Le,
            "gt" | ">" => FilterOp::Gt,
            "ge" | ">=" => FilterOp::Ge,
            _ => return None,
        })
    }
}

/// One tuple predicate: `field <op> value`. Numeric when both sides
/// parse as numbers, string comparison otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldFilter {
    /// Tuple field the predicate reads.
    pub field: String,
    /// Comparison operator.
    pub op: FilterOp,
    /// Right-hand side, as written (parsed numerically when possible).
    pub value: String,
}

impl FieldFilter {
    /// Builds a filter.
    pub fn new(field: impl Into<String>, op: FilterOp, value: impl Into<String>) -> Self {
        FieldFilter {
            field: field.into(),
            op,
            value: value.into(),
        }
    }

    /// Whether `tuple` satisfies this predicate. Tuples missing the
    /// field never match.
    pub fn matches(&self, tuple: &DataTuple) -> bool {
        let Some(v) = tuple.get(&self.field) else {
            return false;
        };
        if let (Some(lhs), Ok(rhs)) = (v.as_f64(), self.value.parse::<f64>()) {
            return match self.op {
                FilterOp::Eq => lhs == rhs,
                FilterOp::Ne => lhs != rhs,
                FilterOp::Lt => lhs < rhs,
                FilterOp::Le => lhs <= rhs,
                FilterOp::Gt => lhs > rhs,
                FilterOp::Ge => lhs >= rhs,
            };
        }
        let lhs = match v {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        };
        match self.op {
            FilterOp::Eq => lhs == self.value,
            FilterOp::Ne => lhs != self.value,
            FilterOp::Lt => lhs < self.value,
            FilterOp::Le => lhs <= self.value,
            FilterOp::Gt => lhs > self.value,
            FilterOp::Ge => lhs >= self.value,
        }
    }
}

/// A history-plane question: aggregate one field of one series over a
/// closed time range, optionally filtered.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryQuery {
    /// Series to read.
    pub series: SeriesKey,
    /// Field to aggregate.
    pub field: String,
    /// Inclusive range start, nanoseconds.
    pub t0: u64,
    /// Inclusive range end, nanoseconds.
    pub t1: u64,
    /// Aggregate to compute.
    pub agg: HistoryAgg,
    /// Tuple predicates; non-empty filters force the replay path.
    pub filters: Vec<FieldFilter>,
}

impl HistoryQuery {
    /// Builds an unfiltered history query.
    pub fn new(
        series: SeriesKey,
        field: impl Into<String>,
        t0: u64,
        t1: u64,
        agg: HistoryAgg,
    ) -> Self {
        HistoryQuery {
            series,
            field: field.into(),
            t0,
            t1,
            agg,
            filters: Vec::new(),
        }
    }

    /// Adds a tuple predicate (forces replay evaluation).
    #[must_use]
    pub fn with_filter(mut self, f: FieldFilter) -> Self {
        self.filters.push(f);
        self
    }
}

/// The result of an aggregate, typed per aggregate family.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// No observations matched.
    Empty,
    /// `count`.
    Count(u64),
    /// `sum`, `min`, `max`, `mean`.
    Value(f64),
    /// `p50` / `p95` (histogram estimates are integral).
    Quantile(u64),
    /// `distinct` estimate.
    Distinct(u64),
    /// `topk`: `(value, estimated count)`, heaviest first.
    TopK(Vec<(String, u64)>),
}

impl AggValue {
    /// The result as a scalar, when the aggregate family has one.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            AggValue::Empty | AggValue::TopK(_) => None,
            AggValue::Count(n) | AggValue::Quantile(n) | AggValue::Distinct(n) => Some(*n as f64),
            AggValue::Value(v) => Some(*v),
        }
    }
}

/// How an answer was produced — the pushdown planner's receipt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryPlan {
    /// Persisted native rollup cells merged.
    pub persisted_cells: u64,
    /// Coarse sketch-tier cells merged.
    pub coarse_cells: u64,
    /// Cached sealed-segment cells merged.
    pub segment_cells: u64,
    /// In-range tuples the raw path (edges, active segment, replay)
    /// handed to the aggregate — a count of the answer, not of the read.
    pub raw_tuples: u64,
    /// Log frames the raw path verified and decoded to find them.
    pub frames_read: u64,
    /// Tuples in those frames, in range or not: what the read paid for.
    pub tuples_decoded: u64,
    /// Segments that contributed any raw-decoded tuples.
    pub segments_scanned: u64,
    /// False when a merged cell extends past the requested range, so
    /// the answer may include observations outside `[t0, t1]` whose raw
    /// tuples have already been retired.
    pub exact: bool,
    /// True when cells served the aligned core (false = full replay).
    pub pushdown: bool,
}

/// An evaluated [`HistoryQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryAnswer {
    /// The aggregate result.
    pub value: AggValue,
    /// Numeric observations folded into the answer.
    pub count: u64,
    /// How the answer was produced.
    pub plan: HistoryPlan,
}

fn overlaps_range(start: u64, width: u64, t0: u64, t1: u64) -> bool {
    start <= t1 && start.saturating_add(width) > t0
}

fn contained(start: u64, width: u64, t0: u64, t1: u64) -> bool {
    start >= t0
        && start
            .checked_add(width.saturating_sub(1))
            .is_some_and(|end| end <= t1)
}

/// Extracts the typed answer from the merged accumulator.
fn extract(
    acc: &RollupPoint,
    agg: &HistoryAgg,
    raw_distinct: Option<&Hll>,
    raw_hh: Option<&SpaceSaving>,
) -> AggValue {
    match agg {
        HistoryAgg::Count => AggValue::Count(acc.count),
        HistoryAgg::Sum => AggValue::Value(acc.sum),
        HistoryAgg::Min if acc.count == 0 => AggValue::Empty,
        HistoryAgg::Min => AggValue::Value(acc.min),
        HistoryAgg::Max if acc.count == 0 => AggValue::Empty,
        HistoryAgg::Max => AggValue::Value(acc.max),
        HistoryAgg::Mean if acc.count == 0 => AggValue::Empty,
        HistoryAgg::Mean => AggValue::Value(acc.mean()),
        HistoryAgg::P50 if acc.count == 0 => AggValue::Empty,
        HistoryAgg::P50 => AggValue::Quantile(acc.p50()),
        HistoryAgg::P95 if acc.count == 0 => AggValue::Empty,
        HistoryAgg::P95 => AggValue::Quantile(acc.p95()),
        HistoryAgg::Distinct => match (acc.sketch(), raw_distinct) {
            (Some(Sketch::Distinct(h)), _) => AggValue::Distinct(h.estimate().round() as u64),
            (_, Some(h)) if h.estimate() > 0.0 => AggValue::Distinct(h.estimate().round() as u64),
            _ => AggValue::Empty,
        },
        HistoryAgg::HeavyHitters { k } => {
            let top = match (acc.sketch(), raw_hh) {
                (Some(Sketch::HeavyHitters(ss)), _) => ss.top(*k),
                (_, Some(ss)) => ss.top(*k),
                _ => Vec::new(),
            };
            if top.is_empty() {
                AggValue::Empty
            } else {
                AggValue::TopK(top.into_iter().map(|(key, n, _)| (key, n)).collect())
            }
        }
    }
}

impl TimeSeriesStore {
    /// Evaluates a history query, pushing the aggregation down to
    /// rollup/sketch tiers whenever the aggregate and time bounds
    /// allow, and falling back to [`TimeSeriesStore::history_replay`]
    /// when they do not (filters; distinct/top-k over a series with no
    /// sketch snapshots).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a resident frame the plan needs no
    /// longer passes its length or CRC check; decode errors on frames
    /// that did (version skew).
    pub fn history(&self, q: &HistoryQuery) -> Result<HistoryAnswer, StoreError> {
        if q.t0 > q.t1 {
            return Ok(HistoryAnswer {
                value: AggValue::Empty,
                count: 0,
                plan: HistoryPlan {
                    exact: true,
                    pushdown: true,
                    ..HistoryPlan::default()
                },
            });
        }
        if !q.filters.is_empty() {
            return self.history_replay(q);
        }
        let (acc, plan) = self.history_pushdown(q)?;
        if q.agg.needs_sketch() {
            let served = matches!(
                (&q.agg, acc.sketch()),
                (HistoryAgg::Distinct, Some(Sketch::Distinct(_)))
                    | (
                        HistoryAgg::HeavyHitters { .. },
                        Some(Sketch::HeavyHitters(_))
                    )
            );
            // Cells fold only numbers and sketch snapshots, so cells that
            // covered tuples of a plain (e.g. string) field come back
            // empty: anything the plan touched is data to replay.
            let touched =
                plan.raw_tuples + plan.segment_cells + plan.persisted_cells + plan.coarse_cells;
            if !served && touched > 0 {
                return self.history_replay(q);
            }
        }
        let value = extract(&acc, &q.agg, None, None);
        Ok(HistoryAnswer {
            value,
            count: acc.count,
            plan,
        })
    }

    /// Evaluates a history query by decoding and folding raw tuples —
    /// the reference path the pushdown planner must agree with, and the
    /// only path that can apply filters or aggregate plain (non-sketch)
    /// values into distinct/top-k estimates.
    ///
    /// # Errors
    ///
    /// As [`TimeSeriesStore::history`].
    pub fn history_replay(&self, q: &HistoryQuery) -> Result<HistoryAnswer, StoreError> {
        let (tuples, read) = self.inner.lock().range(&q.series, q.t0, q.t1)?;
        let mut acc = RollupPoint::empty(q.t0, q.t1.saturating_sub(q.t0).saturating_add(1));
        let mut plan = HistoryPlan {
            frames_read: read.frames_read,
            tuples_decoded: read.tuples_decoded,
            exact: true,
            pushdown: false,
            ..HistoryPlan::default()
        };
        let mut distinct = Hll::new(DEFAULT_PRECISION);
        let mut hh = SpaceSaving::new(0.01);
        for t in &tuples {
            plan.raw_tuples += 1;
            if !q.filters.iter().all(|f| f.matches(t)) {
                continue;
            }
            let Some(v) = t.get(&q.field) else {
                continue;
            };
            fold_value(&mut acc, v);
            // Keyed by the rule the live sketch processors record under
            // (a null is no key); a bytes value is a sketch snapshot,
            // which `fold_value` merged.
            if q.agg.needs_sketch() && !matches!(v, Value::Bytes(_)) {
                if let (Some(bytes), Some(key)) = (value_key_bytes(v), value_key_str(v)) {
                    distinct.record(&bytes);
                    hh.record(&key, 1);
                }
            }
        }
        plan.segments_scanned = 1;
        let value = extract(&acc, &q.agg, Some(&distinct), Some(&hh));
        Ok(HistoryAnswer {
            value,
            count: acc.count,
            plan,
        })
    }

    /// The cell-merging fast path: persisted rollups + coarse cells +
    /// cached sealed-segment folds for the aligned core of the range,
    /// raw scan only for unaligned edges and the active segment.
    fn history_pushdown(&self, q: &HistoryQuery) -> Result<(RollupPoint, HistoryPlan), StoreError> {
        let mut inner = self.inner.lock();
        let native = inner.cfg.rollup_bucket_ns.max(1);
        let key = (q.series.clone(), q.field.clone());
        let mut acc = RollupPoint::empty(q.t0, q.t1.saturating_sub(q.t0).saturating_add(1));
        let mut plan = HistoryPlan {
            exact: true,
            pushdown: true,
            ..HistoryPlan::default()
        };

        // Aligned core: native buckets wholly inside [t0, t1].
        let core = if q.t1 >= native - 1 {
            let hi = (q.t1 - (native - 1)) / native * native;
            match q.t0.div_ceil(native).checked_mul(native) {
                Some(lo) if lo <= hi => Some((lo, hi)),
                _ => None,
            }
        } else {
            None
        };
        let in_core = |b: u64| core.is_some_and(|(lo, hi)| b >= lo && b <= hi);
        // Inclusive windows the raw edge scan must cover.
        let mut windows: Vec<(u64, u64)> = Vec::new();
        match core {
            Some((lo, hi)) => {
                if q.t0 < lo {
                    windows.push((q.t0, lo - 1));
                }
                let core_end = hi + native - 1;
                if core_end < q.t1 {
                    windows.push((core_end + 1, q.t1));
                }
            }
            None => windows.push((q.t0, q.t1)),
        }

        // Segments: cached cells for the core, raw scan for the edges
        // and for the (always uncached) active segment.
        let series_id = inner.series_id(&q.series);
        let mut read = ScanCount::default();
        let nsegs = inner.segments.len();
        for i in 0..nsegs {
            if !inner.segments[i].overlaps(q.t0, q.t1) {
                continue;
            }
            let sealed = i + 1 < nsegs;
            if sealed {
                inner.ensure_sealed_cells(i)?;
            }
            let seg = &inner.segments[i];
            // A sealed segment answers the core from its cached cells
            // and is read only at the edges; the active one is read
            // across the whole range.
            let cached = seg.cells.as_ref().filter(|_| sealed);
            if let Some(by_bucket) = cached.and_then(|(cells, _)| cells.get(&key)) {
                for (&b, cell) in by_bucket {
                    if in_core(b) {
                        acc.merge(cell);
                        plan.segment_cells += 1;
                    }
                }
            }
            let whole = [(q.t0, q.t1)];
            let raw: &[(u64, u64)] = if cached.is_some() { &windows } else { &whole };
            let mut scanned = 0u64;
            for &window in raw {
                inner.scan(
                    seg,
                    |s| Some(s) == series_id,
                    window,
                    &mut read,
                    |t| {
                        scanned += 1;
                        if let Some(v) = t.get(&q.field) {
                            fold_value(&mut acc, v);
                        }
                    },
                )?;
            }
            if scanned > 0 {
                plan.raw_tuples += scanned;
                plan.segments_scanned += 1;
            }
        }
        plan.frames_read = read.frames_read;
        plan.tuples_decoded = read.tuples_decoded;

        // Persisted tiers: raw data behind these cells is gone, so a
        // cell straddling the range boundary is merged inexactly rather
        // than dropped.
        if let Some(by_bucket) = inner.rollups.get(&key) {
            for (&b, cell) in by_bucket {
                if !overlaps_range(b, cell.bucket_ns, q.t0, q.t1) {
                    continue;
                }
                acc.merge(cell);
                plan.persisted_cells += 1;
                if !contained(b, cell.bucket_ns, q.t0, q.t1) {
                    plan.exact = false;
                }
            }
        }
        if let Some(by_bucket) = inner.coarse.get(&key) {
            for (&b, cell) in by_bucket {
                if !overlaps_range(b, cell.bucket_ns, q.t0, q.t1) {
                    continue;
                }
                acc.merge(cell);
                plan.coarse_cells += 1;
                if !contained(b, cell.bucket_ns, q.t0, q.t1) {
                    plan.exact = false;
                }
            }
        }

        Ok((acc, plan))
    }
}

#[cfg(test)]
mod tests {
    use netalytics_data::TupleBatch;

    use super::*;
    use crate::store::StoreConfig;

    const SECOND: u64 = 1_000_000_000;

    fn filled_store(cfg: StoreConfig, series: &SeriesKey, seconds: u64) -> TimeSeriesStore {
        let store = TimeSeriesStore::in_memory_with(cfg);
        for s in 0..seconds {
            // Integer-valued latencies: f64 folds are exact, so the
            // pushdown and replay paths must agree bitwise.
            let tuples: Vec<DataTuple> = (0..10)
                .map(|i| {
                    DataTuple::new(i, s * SECOND + i * 100_000_000).with("lat", (s % 7) * 10 + i)
                })
                .collect();
            store
                .append(series, &TupleBatch::from_tuples(tuples))
                .unwrap();
        }
        store
    }

    #[test]
    fn pushdown_matches_replay_on_golden_ranges() {
        let series = SeriesKey::new(9, "web");
        let store = filled_store(
            StoreConfig {
                segment_max_bytes: 2_000,
                rollup_bucket_ns: SECOND,
                ..StoreConfig::default()
            },
            &series,
            30,
        );
        assert!(store.stats().segments > 3, "load must span segments");

        let ranges = [
            (0, 30 * SECOND - 1),            // fully aligned
            (0, u64::MAX),                   // open-ended
            (3 * SECOND, 17 * SECOND - 1),   // aligned interior
            (2_500_000_000, 21_700_000_000), // unaligned edges
            (123, 456),                      // sub-bucket, raw only
        ];
        for agg in [
            HistoryAgg::Count,
            HistoryAgg::Sum,
            HistoryAgg::Min,
            HistoryAgg::Max,
            HistoryAgg::Mean,
            HistoryAgg::P50,
            HistoryAgg::P95,
        ] {
            for &(t0, t1) in &ranges {
                let q = HistoryQuery::new(series.clone(), "lat", t0, t1, agg.clone());
                let fast = store.history(&q).unwrap();
                let slow = store.history_replay(&q).unwrap();
                assert!(fast.plan.pushdown && fast.plan.exact, "{agg:?} {t0}..{t1}");
                assert_eq!(
                    fast.value, slow.value,
                    "{agg:?} over [{t0}, {t1}] diverged: {:?}",
                    fast.plan
                );
                assert_eq!(fast.count, slow.count);
            }
        }

        // The aligned full-range query must actually use cells.
        let q = HistoryQuery::new(series.clone(), "lat", 0, 30 * SECOND - 1, HistoryAgg::Sum);
        let a = store.history(&q).unwrap();
        assert!(a.plan.segment_cells > 0, "plan: {:?}", a.plan);
        assert!(
            a.plan.raw_tuples < 300,
            "most tuples must come from cells: {:?}",
            a.plan
        );
    }

    /// `frames_read` counts the asked series' frames that overlap the
    /// raw windows — however many other series share the segments.
    #[test]
    fn unaligned_query_reads_only_its_series_edge_frames() {
        // One frame per series per append round: 4 tuples, 250 ms apart,
        // so every frame spans exactly one native bucket.
        let plan_for = |nseries: u64| {
            let store = TimeSeriesStore::in_memory_with(StoreConfig {
                segment_max_bytes: 1_200,
                rollup_bucket_ns: SECOND,
                ..StoreConfig::default()
            });
            for s in 0..40u64 {
                for g in 0..nseries {
                    let tuples = (0..4)
                        .map(|i| DataTuple::new(i, s * SECOND + i * 250_000_000).with("lat", s + i))
                        .collect();
                    store
                        .append(
                            &SeriesKey::new(9, format!("g{g}")),
                            &TupleBatch::from_tuples(tuples),
                        )
                        .unwrap();
                }
            }
            assert!(store.stats().segments > 4, "load must span segments");
            // Both edges cut a bucket in half; the range ends long before
            // the active segment starts.
            let q = HistoryQuery::new(
                SeriesKey::new(9, "g0"),
                "lat",
                2 * SECOND + 500_000_000,
                11 * SECOND + 499_999_999,
                HistoryAgg::Sum,
            );
            let a = store.history(&q).unwrap();
            assert_eq!(a.value, store.history_replay(&q).unwrap().value);
            assert!(a.plan.segment_cells > 0, "{:?}", a.plan);
            a.plan
        };
        let alone = plan_for(1);
        // The left window [2.5 s, 3 s) and the right one [11 s, 11.5 s)
        // each overlap one frame of g0: two of its four tuples in range.
        assert_eq!(
            (alone.frames_read, alone.tuples_decoded, alone.raw_tuples),
            (2, 8, 4),
            "{alone:?}"
        );
        let shared = plan_for(4);
        assert_eq!(
            (shared.frames_read, shared.tuples_decoded, shared.raw_tuples),
            (2, 8, 4),
            "{shared:?}"
        );
    }

    #[test]
    fn filters_force_replay_and_apply() {
        let series = SeriesKey::new(9, "web");
        let store = filled_store(StoreConfig::default(), &series, 10);
        let q = HistoryQuery::new(series.clone(), "lat", 0, u64::MAX, HistoryAgg::Count)
            .with_filter(FieldFilter::new("lat", FilterOp::Ge, "30"));
        let a = store.history(&q).unwrap();
        assert!(!a.plan.pushdown);
        let all = store
            .history(&HistoryQuery::new(
                series,
                "lat",
                0,
                u64::MAX,
                HistoryAgg::Count,
            ))
            .unwrap();
        assert!(matches!(a.value, AggValue::Count(n) if n > 0));
        assert!(a.count < all.count, "filter must drop some tuples");
    }

    #[test]
    fn tiered_history_survives_compaction_exactly() {
        let series = SeriesKey::new(4, "");
        let cfg = StoreConfig {
            segment_max_bytes: 1_500,
            retention_ns: Some(8 * SECOND),
            rollup_bucket_ns: SECOND,
            rollup_retention_ns: Some(16 * SECOND),
            sketch_bucket_ns: 4 * SECOND,
            ..StoreConfig::default()
        };
        let store = filled_store(cfg, &series, 30);
        let q = HistoryQuery::new(series.clone(), "lat", 0, 30 * SECOND - 1, HistoryAgg::Count);
        let before = store.history(&q).unwrap();
        assert_eq!(before.value, AggValue::Count(300));

        let report = store.compact(30 * SECOND).unwrap();
        assert!(report.segments_dropped > 0);
        assert!(report.rollup_cells_demoted > 0, "{report:?}");
        assert!(store.stats().coarse_points > 0);

        // All three tiers now hold part of the answer; the total is
        // unchanged and the aligned query stays exact.
        let after = store.history(&q).unwrap();
        assert_eq!(after.value, AggValue::Count(300), "plan: {:?}", after.plan);
        assert!(after.plan.exact);
        assert!(after.plan.persisted_cells > 0, "{:?}", after.plan);
        assert!(after.plan.coarse_cells > 0, "{:?}", after.plan);
    }

    #[test]
    fn sketch_aggregates_serve_from_cells_or_replay() {
        let series = SeriesKey::new(6, "");
        let store = TimeSeriesStore::in_memory_with(StoreConfig {
            segment_max_bytes: 800,
            rollup_bucket_ns: SECOND,
            ..StoreConfig::default()
        });
        // Heavy-hitter snapshots in one field, raw URLs in another.
        for s in 0..20u64 {
            let mut ss = SpaceSaving::new(0.01);
            ss.record("/hot", 3);
            ss.record(&format!("/only-{s}"), 1);
            let t = DataTuple::new(s, s * SECOND)
                .with("sketch", Sketch::HeavyHitters(ss).encode())
                .with("url", format!("/u{}", s % 5));
            store
                .append(&series, &TupleBatch::from_tuples(vec![t]))
                .unwrap();
        }

        let q = HistoryQuery::new(
            series.clone(),
            "sketch",
            0,
            20 * SECOND - 1,
            HistoryAgg::HeavyHitters { k: 3 },
        );
        let a = store.history(&q).unwrap();
        assert!(a.plan.pushdown, "snapshot field merges through cells");
        let AggValue::TopK(top) = &a.value else {
            panic!("expected top-k, got {:?}", a.value);
        };
        assert_eq!(top[0].0, "/hot");
        assert_eq!(top[0].1, 60);

        // Plain values cannot merge as sketches: distinct falls back.
        let q = HistoryQuery::new(series.clone(), "url", 0, u64::MAX, HistoryAgg::Distinct);
        let a = store.history(&q).unwrap();
        assert!(!a.plan.pushdown);
        assert_eq!(a.value, AggValue::Distinct(5));

        // Also on a bucket-aligned range inside sealed segments, where no
        // raw tuple is scanned and the string field's cells are empty.
        for agg in [HistoryAgg::Distinct, HistoryAgg::HeavyHitters { k: 2 }] {
            let q = HistoryQuery::new(series.clone(), "url", 0, 10 * SECOND - 1, agg);
            let a = store.history(&q).unwrap();
            assert!(!a.plan.pushdown, "{:?}: {:?}", q.agg, a.plan);
            assert_ne!(a.value, AggValue::Empty, "{:?}", q.agg);
            assert_eq!(a.value, store.history_replay(&q).unwrap().value);
        }
        // A range holding no data at all still answers without a replay.
        let q = HistoryQuery::new(
            series,
            "url",
            100 * SECOND,
            101 * SECOND - 1,
            HistoryAgg::Distinct,
        );
        let a = store.history(&q).unwrap();
        assert!(a.plan.pushdown);
        assert_eq!(a.value, AggValue::Empty);
    }

    #[test]
    fn agg_and_filter_parsing() {
        assert_eq!(HistoryAgg::parse("mean"), Some(HistoryAgg::Mean));
        assert_eq!(
            HistoryAgg::parse("topk:5"),
            Some(HistoryAgg::HeavyHitters { k: 5 })
        );
        assert_eq!(HistoryAgg::parse("topk:0"), None);
        assert_eq!(HistoryAgg::parse("bogus"), None);
        assert_eq!(HistoryAgg::HeavyHitters { k: 5 }.name(), "topk:5");
        assert_eq!(FilterOp::parse(">="), Some(FilterOp::Ge));
        assert_eq!(FilterOp::parse("between"), None);

        let t = DataTuple::new(0, 0).with("u", "GET").with("n", 7u64);
        assert!(FieldFilter::new("u", FilterOp::Eq, "GET").matches(&t));
        assert!(FieldFilter::new("n", FilterOp::Gt, "6.5").matches(&t));
        assert!(!FieldFilter::new("missing", FilterOp::Ne, "x").matches(&t));
    }
}
