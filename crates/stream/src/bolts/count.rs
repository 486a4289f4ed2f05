//! Rolling counts — the paper's "Counting Bolt" (Fig. 4).

use std::collections::HashMap;

use netalytics_data::DataTuple;

use crate::bolt::{key_str, Bolt};

/// Counts tuples per `key` over a tumbling window, emitting
/// `(key, count)` tuples when the window closes on a tick.
///
/// The paper's Rolling-Top-Words derivative uses sliding windows; a
/// tumbling window gives the same ranking dynamics for our workloads and
/// keeps replays deterministic.
#[derive(Debug)]
pub struct RollingCountBolt {
    window_ns: u64,
    window_start: Option<u64>,
    counts: HashMap<String, u64>,
}

impl RollingCountBolt {
    /// Creates a counting bolt with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        RollingCountBolt {
            window_ns,
            window_start: None,
            counts: HashMap::new(),
        }
    }

    fn release(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        let mut keys: Vec<_> = self.counts.drain().collect();
        keys.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (key, count) in keys {
            out.push(
                DataTuple::new(0, now_ns)
                    .from_source("rolling_count")
                    .with("key", key)
                    .with("count", count)
                    .with("window_end", now_ns),
            );
        }
        self.window_start = Some(now_ns);
    }
}

impl Bolt for RollingCountBolt {
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>) {
        let Some(key) = tuple.get("key").map(key_str) else {
            return;
        };
        let n = tuple
            .get("count")
            .and_then(netalytics_data::Value::as_u64)
            .unwrap_or(1);
        let start = *self.window_start.get_or_insert(tuple.ts_ns);
        // Event-time window rotation: late-arriving data still counts in
        // the current window; rotation happens on watermark (tick) or
        // when event time crosses the boundary.
        if tuple.ts_ns >= start + self.window_ns {
            self.release(tuple.ts_ns, out);
        }
        // The key is copied on first sight in a window only.
        if let Some(count) = self.counts.get_mut(&*key) {
            *count += n;
        } else {
            self.counts.insert(key.into_owned(), n);
        }
    }

    fn tick(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        // Executors tick frequently; the window only rotates once the
        // watermark passes its end.
        if self.counts.is_empty() {
            return;
        }
        let start = *self.window_start.get_or_insert(now_ns);
        if now_ns >= start + self.window_ns {
            self.release(now_ns, out);
        }
    }

    fn finish(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        if !self.counts.is_empty() {
            self.release(now_ns, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::Value;

    fn keyed(key: &str, ts: u64) -> DataTuple {
        DataTuple::new(0, ts).with("key", key)
    }

    #[test]
    fn counts_within_window() {
        let mut b = RollingCountBolt::new(1_000);
        let mut out = Vec::new();
        b.execute(&keyed("a", 0), &mut out);
        b.execute(&keyed("a", 10), &mut out);
        b.execute(&keyed("b", 20), &mut out);
        assert!(out.is_empty());
        b.tick(999, &mut out);
        assert!(out.is_empty(), "window not over yet");
        b.tick(1_000, &mut out);
        assert_eq!(out.len(), 2);
        // Sorted by count desc.
        assert_eq!(out[0].get("key").and_then(Value::as_str), Some("a"));
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn event_time_rotation() {
        let mut b = RollingCountBolt::new(100);
        let mut out = Vec::new();
        b.execute(&keyed("a", 0), &mut out);
        b.execute(&keyed("a", 150), &mut out); // crosses the boundary
        assert_eq!(out.len(), 1, "first window released");
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(1));
        b.tick(260, &mut out);
        assert_eq!(out.len(), 2, "second window holds the late tuple");
    }

    #[test]
    fn respects_carried_counts() {
        let mut b = RollingCountBolt::new(1_000);
        let mut out = Vec::new();
        b.execute(&keyed("a", 0).with("count", 5u64), &mut out);
        b.finish(1, &mut out);
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn empty_tick_emits_nothing() {
        let mut b = RollingCountBolt::new(1_000);
        let mut out = Vec::new();
        b.tick(1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = RollingCountBolt::new(0);
    }
}
