//! Monitor-side pre-aggregation.
//!
//! When a query's processor is sketch-backed, the monitor does not need
//! to ship every parsed tuple — it can fold tuples into a per-window
//! sketch *at the tap point* and ship one small delta per flush. The
//! aggregation bolts merge deltas exactly as they merge each other's
//! partials, so the answer is unchanged while queue traffic drops from
//! `O(tuples)` to `O(flushes)` — the bandwidth the placement layer
//! optimizes (paper §5's 10:1 reduction, taken much further).
//!
//! A [`PreAgg`] owns one sketch and the field mapping derived from the
//! query ([`PreAggSpec`]). [`PreAgg::fold`] takes each sealed batch:
//! rows the spec covers are absorbed, the rest pass through, and the
//! accumulated sketch leaves as one delta row and resets — so each
//! observation is shipped exactly once and downstream sum-style merges
//! stay correct.

use netalytics_data::{ColumnBatch, DataTuple, TupleBatch};

use crate::{Hll, QuantileSketch, Sketch, SpaceSaving};

/// Which sketch a monitor should fold tuples into, derived from the
/// query's `PROCESS` operator by the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub enum PreAggSpec {
    /// Fold `key_field` occurrences into a SpaceSaving summary.
    HeavyHitters {
        /// Tuple field holding the key (e.g. `url`).
        key_field: String,
        /// Per-key error bound as a fraction of total weight.
        eps: f64,
    },
    /// Fold `field` values into a HyperLogLog distinct count.
    Distinct {
        /// Tuple field whose distinct values are counted.
        field: String,
        /// HLL precision (`2^p` registers).
        precision: u8,
    },
    /// Fold numeric `value_field` observations into a quantile sketch.
    Quantile {
        /// Tuple field holding the observed value (e.g. `t_ns`).
        value_field: String,
    },
}

impl PreAggSpec {
    /// The tuple field whose values are folded.
    pub fn field(&self) -> &str {
        match self {
            PreAggSpec::HeavyHitters { key_field: f, .. }
            | PreAggSpec::Distinct { field: f, .. }
            | PreAggSpec::Quantile { value_field: f } => f,
        }
    }

    /// A fresh, empty sketch of the right shape for this spec.
    pub fn fresh(&self) -> Sketch {
        match self {
            PreAggSpec::HeavyHitters { eps, .. } => Sketch::HeavyHitters(SpaceSaving::new(*eps)),
            PreAggSpec::Distinct { precision, .. } => Sketch::Distinct(Hll::new(*precision)),
            PreAggSpec::Quantile { .. } => Sketch::Quantile(QuantileSketch::new()),
        }
    }
}

/// Folded rows a [`PreAgg`] accumulates before it ships a delta without
/// being asked to drain.
const FLUSH_ROWS: u64 = 1024;

/// What [`PreAgg::fold`] made of one sealed batch.
#[derive(Debug)]
pub struct Folded {
    /// The rows the spec does not cover, then the delta row if one was
    /// taken. May be empty.
    pub batch: ColumnBatch,
    /// Rows absorbed into the sketch.
    pub rows_folded: u64,
    /// Whether `batch` ends in a sketch delta row.
    pub delta: bool,
}

/// Per-monitor sketch accumulator.
#[derive(Debug, Clone)]
pub struct PreAgg {
    spec: PreAggSpec,
    sketch: Sketch,
    folded: u64,
}

impl PreAgg {
    pub fn new(spec: PreAggSpec) -> Self {
        let sketch = spec.fresh();
        PreAgg {
            spec,
            sketch,
            folded: 0,
        }
    }

    /// Folds one sealed batch. Rows carrying the spec's field are
    /// absorbed into the sketch; rows without it pass through unchanged,
    /// so no data is silently dropped. When `drain` is set, or once
    /// `FLUSH_ROWS` rows have accumulated, the sketch is appended as a
    /// delta row stamped `now_ns` and reset.
    ///
    /// Reading a row's field by name goes through the row form; this is
    /// the one place on the monitor side that materializes rows, and
    /// only on lanes that pre-aggregate.
    pub fn fold(&mut self, batch: ColumnBatch, now_ns: u64, drain: bool) -> Folded {
        let mut rest = batch.to_batch().into_tuples();
        let rows = rest.len();
        rest.retain(|t| !self.offer(t));
        let rows_folded = (rows - rest.len()) as u64;
        let delta = if drain || self.folded >= FLUSH_ROWS {
            self.take_delta(now_ns)
        } else {
            None
        };
        if rows_folded == 0 && delta.is_none() {
            return Folded {
                batch,
                rows_folded,
                delta: false,
            };
        }
        let had_delta = delta.is_some();
        rest.extend(delta);
        Folded {
            batch: ColumnBatch::from_batch(&TupleBatch::from_tuples(rest)),
            rows_folded,
            delta: had_delta,
        }
    }

    /// Tries to fold one row into the sketch; `false` when the row lacks
    /// the field the spec names or [`Sketch::record`] declines its value.
    fn offer(&mut self, t: &DataTuple) -> bool {
        let folded = t
            .get(self.spec.field())
            .is_some_and(|v| self.sketch.record(v));
        self.folded += u64::from(folded);
        folded
    }

    /// Takes the accumulated sketch as a shippable delta tuple and resets.
    ///
    /// `None` when nothing was folded since the last delta. Emitting
    /// *and resetting* is what keeps downstream sum-style merges exact:
    /// each folded observation appears in exactly one delta.
    fn take_delta(&mut self, now_ns: u64) -> Option<DataTuple> {
        if self.folded == 0 {
            return None;
        }
        let delta = std::mem::replace(&mut self.sketch, self.spec.fresh());
        self.folded = 0;
        Some(delta.into_tuple(now_ns, now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::Value;

    fn http(url: &str, t_ns: u64) -> DataTuple {
        DataTuple::new(1, 100)
            .from_source("http")
            .with("url", url)
            .with("t_ns", t_ns)
    }

    #[test]
    fn folds_and_resets_exactly_once() {
        let mut pa = PreAgg::new(PreAggSpec::HeavyHitters {
            key_field: "url".into(),
            eps: 0.01,
        });
        // Missing field: passes through, not folded.
        let dns = DataTuple::new(2, 100).from_source("dns");
        let mut rows = vec![http("/a", 1); 5];
        rows.extend([dns.clone(), http("/b", 1)]);
        let f = pa.fold(ColumnBatch::from_batch(&rows.into()), 100, false);
        assert_eq!((f.rows_folded, f.delta), (6, false));
        assert_eq!(f.batch.to_batch().tuples, std::slice::from_ref(&dns));
        assert_eq!(pa.folded, 6);

        // Nothing covered, no drain: the batch comes back as it went in.
        let uncovered = ColumnBatch::from_batch(&vec![dns].into());
        assert_eq!(pa.fold(uncovered.clone(), 150, false).batch, uncovered);

        // A drain appends the delta, stamped with the caller's time, and
        // resets: the next drain has nothing to ship.
        let f = pa.fold(ColumnBatch::default(), 200, true);
        assert!(f.delta);
        assert_eq!(pa.folded, 0);
        let again = pa.fold(ColumnBatch::default(), 300, true);
        assert!(!again.delta && again.batch.is_empty());

        let delta = &f.batch.to_batch().tuples[0];
        let Sketch::HeavyHitters(ss) = Sketch::from_tuple(delta).unwrap().unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(ss.estimate("/a").map(|e| e.count), Some(5));
        assert_eq!(ss.total(), 6);
        assert_eq!(delta.ts_ns, 200);
        assert_eq!(
            delta.get(crate::FIELD_WINDOW_END).and_then(Value::as_u64),
            Some(200)
        );
    }

    #[test]
    fn fold_ships_a_delta_on_its_own_once_enough_rows_accumulated() {
        let mut pa = PreAgg::new(PreAggSpec::Quantile {
            value_field: "t_ns".into(),
        });
        let batch = |n: u64| {
            ColumnBatch::from_batch(&(0..n).map(|i| http("/a", i)).collect::<TupleBatch>())
        };
        assert!(!pa.fold(batch(FLUSH_ROWS - 1), 1, false).delta);
        let f = pa.fold(batch(1), 2, false);
        assert!(f.delta, "the {FLUSH_ROWS}th row trips the flush");
        assert_eq!(f.batch.rows(), 1, "only the delta crosses the queue");
    }

    #[test]
    fn quantile_and_distinct_specs_fold() {
        let mut q = PreAgg::new(PreAggSpec::Quantile {
            value_field: "t_ns".into(),
        });
        assert!(q.offer(&http("/a", 500)));
        assert!(!q.offer(&DataTuple::new(3, 1).from_source("http").with("url", "/x")));
        let t = q.take_delta(1).unwrap();
        let Sketch::Quantile(qs) = Sketch::from_tuple(&t).unwrap().unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(qs.count(), 1);

        let mut d = PreAgg::new(PreAggSpec::Distinct {
            field: "url".into(),
            precision: 12,
        });
        for i in 0..100 {
            assert!(d.offer(&http(&format!("/page/{i}"), 1)));
            assert!(d.offer(&http(&format!("/page/{i}"), 2)));
        }
        let t = d.take_delta(1).unwrap();
        let Sketch::Distinct(hll) = Sketch::from_tuple(&t).unwrap().unwrap() else {
            panic!("wrong kind");
        };
        let est = hll.estimate();
        assert!((90.0..=110.0).contains(&est), "estimate {est}");
    }
}
