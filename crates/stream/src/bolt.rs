//! The bolt abstraction: one processing step in a topology.

use std::borrow::Cow;

use netalytics_data::{DataTuple, Value};

/// A stream-processing element (Storm "bolt", paper §2.2).
///
/// Bolts receive tuples, update internal state, and emit derived tuples.
/// Windowed bolts (rolling counts, rankings) release their state on
/// [`Bolt::tick`], which executors call at the topology's tick interval.
///
/// # Examples
///
/// ```
/// use netalytics_data::{DataTuple, Value};
/// use netalytics_stream::Bolt;
///
/// /// Doubles the `n` field of every tuple.
/// struct Doubler;
/// impl Bolt for Doubler {
///     fn execute(&mut self, t: &DataTuple, out: &mut Vec<DataTuple>) {
///         if let Some(n) = t.get("n").and_then(Value::as_u64) {
///             out.push(DataTuple::new(t.id, t.ts_ns).with("n", n * 2));
///         }
///     }
/// }
/// ```
pub trait Bolt: Send {
    /// Processes one input tuple, appending emissions to `out`.
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>);

    /// Batch-level trace hook: executors call this once per traced
    /// input batch, before `execute` runs over its tuples. Sinks that
    /// commit whole batches (the store sink) use it to carry the
    /// context across the bolt boundary and record their own stage
    /// span. Default: not traced, ignore.
    fn observe_trace(&mut self, _ctx: &netalytics_data::TraceCtx) {}

    /// Advances windowed state; called periodically with the current
    /// time. Default: stateless bolt, nothing to release.
    fn tick(&mut self, _now_ns: u64, _out: &mut Vec<DataTuple>) {}

    /// Final flush when the topology shuts down; defaults to a last tick.
    fn finish(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        self.tick(now_ns, out);
    }
}

/// Creates fresh instances of a bolt for parallel execution.
///
/// Storm instantiates `parallelism` copies of each bolt; each instance
/// owns independent state, and the grouping decides which instance sees
/// which tuple.
pub type BoltFactory = Box<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// How tuples are routed among a bolt's parallel instances (Storm
/// "stream groupings").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin across instances (stateless bolts).
    Shuffle,
    /// Hash of the named fields — same values, same instance (the paper's
    /// Parsing→Counting hashing, §5.3).
    Fields(Vec<String>),
    /// Hash of the tuple ID — same flow, same instance.
    ById,
    /// All tuples to instance 0 (the paper's total Ranking bolt).
    Global,
}

impl Grouping {
    /// Picks the instance index for `tuple` among `n` instances;
    /// `round_robin` supplies and updates shuffle state.
    pub fn route(&self, tuple: &DataTuple, n: usize, round_robin: &mut usize) -> usize {
        debug_assert!(n > 0);
        match self {
            Grouping::Shuffle => {
                *round_robin = (*round_robin + 1) % n;
                *round_robin
            }
            Grouping::Fields(fields) => {
                let mut h = FNV_OFFSET;
                for f in fields {
                    if let Some(v) = tuple.get(f) {
                        h = fnv(h, key_str(v).as_bytes());
                    }
                    h = fnv(h, b"|");
                }
                (h % n as u64) as usize
            }
            Grouping::ById => (tuple.id % n as u64) as usize,
            Grouping::Global => 0,
        }
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h`.
pub(crate) fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A value as the string it is hashed, counted and ranked under:
/// borrowed when it already is one, so keyed routing and the keyed bolts
/// read a string key without copying it.
pub(crate) fn key_str(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()), // cold path: non-string keys
    }
}

/// Delivers `tuple` to every edge in order: cloned for each edge but
/// the last, which takes ownership. Both engines fan out through here,
/// so the copy count and the delivery order cannot drift apart.
pub(crate) fn fan_out<E>(
    edges: &[E],
    tuple: DataTuple,
    mut deliver: impl FnMut(usize, &E, DataTuple),
) {
    let Some((last, rest)) = edges.split_last() else {
        return;
    };
    for (k, edge) in rest.iter().enumerate() {
        deliver(k, edge, tuple.clone());
    }
    deliver(rest.len(), last, tuple);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, k: &str) -> DataTuple {
        DataTuple::new(id, 0).with("k", k)
    }

    #[test]
    fn shuffle_round_robins() {
        let g = Grouping::Shuffle;
        let mut rr = 0;
        let picks: Vec<_> = (0..6).map(|i| g.route(&t(i, "x"), 3, &mut rr)).collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn fields_grouping_is_consistent() {
        let g = Grouping::Fields(vec!["k".into()]);
        let mut rr = 0;
        let a1 = g.route(&t(1, "alpha"), 4, &mut rr);
        let a2 = g.route(&t(99, "alpha"), 4, &mut rr);
        assert_eq!(a1, a2, "same field value routes identically");
    }

    #[test]
    fn fields_grouping_spreads_values() {
        let g = Grouping::Fields(vec!["k".into()]);
        let mut rr = 0;
        let distinct: std::collections::HashSet<_> = (0..64)
            .map(|i| g.route(&t(0, &format!("key{i}")), 8, &mut rr))
            .collect();
        assert!(distinct.len() > 3, "{distinct:?}");
    }

    #[test]
    fn by_id_and_global() {
        let mut rr = 0;
        assert_eq!(Grouping::ById.route(&t(13, "x"), 4, &mut rr), 1);
        assert_eq!(Grouping::Global.route(&t(13, "x"), 4, &mut rr), 0);
    }

    #[test]
    fn missing_field_still_routes() {
        let g = Grouping::Fields(vec!["nope".into()]);
        let mut rr = 0;
        let i = g.route(&t(1, "x"), 4, &mut rr);
        assert!(i < 4);
    }
}
