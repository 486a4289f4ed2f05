//! Ranking — the paper's intermediate and total "Ranking Bolts" (Fig. 4).
//!
//! "The Ranking Bolts use a parallel reduction to construct rolling local
//! top-k's and then combine them into the rolling global top-k."

use std::collections::HashMap;

use netalytics_data::{DataTuple, Value};

use crate::bolt::{key_str, Bolt};

/// Maintains the k highest-count keys seen since the last tick and emits
/// one `rank`ed tuple per retained key when ticked.
///
/// Used twice in the top-k topology: per-instance (fields-grouped) as the
/// intermediate ranker, and singleton (global-grouped) as the total
/// ranker — the same parallel-reduction shape as the paper's.
#[derive(Debug)]
pub struct RankBolt {
    k: usize,
    counts: HashMap<String, u64>,
}

impl RankBolt {
    /// Creates a ranker keeping the top `k` keys.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        RankBolt {
            k,
            counts: HashMap::new(),
        }
    }
}

impl Bolt for RankBolt {
    fn execute(&mut self, tuple: &DataTuple, _out: &mut Vec<DataTuple>) {
        let (Some(key), Some(count)) = (
            tuple.get("key").map(key_str),
            tuple.get("count").and_then(Value::as_u64),
        ) else {
            return;
        };
        // Merging partial counts from upstream rankers: take the max per
        // key (each upstream already aggregated its share; duplicates
        // from re-emission must not double count).
        if let Some(seen) = self.counts.get_mut(&*key) {
            *seen = (*seen).max(count);
        } else {
            self.counts.insert(key.into_owned(), count);
        }
    }

    fn tick(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        if self.counts.is_empty() {
            return;
        }
        let mut ranked: Vec<_> = self.counts.drain().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(self.k);
        for (rank, (key, count)) in ranked.into_iter().enumerate() {
            out.push(
                DataTuple::new(rank as u64, now_ns)
                    .from_source("rank")
                    .with("rank", rank as u64)
                    .with("key", key)
                    .with("count", count)
                    .with("window_end", now_ns),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(key: &str, count: u64) -> DataTuple {
        DataTuple::new(0, 0).with("key", key).with("count", count)
    }

    #[test]
    fn keeps_top_k_sorted() {
        let mut b = RankBolt::new(2);
        let mut out = Vec::new();
        b.execute(&counted("a", 5), &mut out);
        b.execute(&counted("b", 9), &mut out);
        b.execute(&counted("c", 1), &mut out);
        b.tick(100, &mut out);
        let keys: Vec<_> = out
            .iter()
            .filter_map(|t| t.get("key").and_then(Value::as_str))
            .collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(out[0].get("rank").and_then(Value::as_u64), Some(0));
        assert_eq!(out[1].get("rank").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn duplicate_partial_counts_take_max_not_sum() {
        let mut b = RankBolt::new(5);
        let mut out = Vec::new();
        b.execute(&counted("a", 5), &mut out);
        b.execute(&counted("a", 7), &mut out);
        b.tick(1, &mut out);
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn window_resets_after_tick() {
        let mut b = RankBolt::new(3);
        let mut out = Vec::new();
        b.execute(&counted("a", 5), &mut out);
        b.tick(1, &mut out);
        out.clear();
        b.tick(2, &mut out);
        assert!(out.is_empty(), "state drained by first tick");
    }

    #[test]
    fn ties_break_lexicographically() {
        let mut b = RankBolt::new(2);
        let mut out = Vec::new();
        b.execute(&counted("z", 5), &mut out);
        b.execute(&counted("a", 5), &mut out);
        b.tick(1, &mut out);
        assert_eq!(out[0].get("key").and_then(Value::as_str), Some("a"));
    }

    #[test]
    fn ignores_malformed() {
        let mut b = RankBolt::new(2);
        let mut out = Vec::new();
        b.execute(&DataTuple::new(0, 0).with("key", "a"), &mut out);
        b.execute(&DataTuple::new(0, 0).with("count", 5u64), &mut out);
        b.tick(1, &mut out);
        assert!(out.is_empty());
    }
}
