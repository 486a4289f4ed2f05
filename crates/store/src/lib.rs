//! netalytics-store: a durable embedded time-series store for query
//! results.
//!
//! The paper's pipeline ends with "results" flowing back to the
//! administrator, and its case studies all replay history — load
//! spikes, cache-hit drift, per-tier latency over time. This crate is
//! that storage layer: an append-only segmented log of CRC-framed
//! [`netalytics_data::TupleBatch`]es, fronted by per-series memtables,
//! with retention that compacts expired raw segments into downsampled
//! rollups built on [`netalytics_telemetry`]'s mergeable histogram
//! snapshots.
//!
//! Guarantees, in one breath: a batch accepted by
//! [`TimeSeriesStore::append`] is committed — it survives process
//! restart (crash recovery truncates only a torn final frame, never a
//! committed one) and orchestrator re-placements; reads
//! ([`TimeSeriesStore::range`], [`TimeSeriesStore::latest`],
//! [`TimeSeriesStore::rollup`], [`TimeSeriesStore::query_history`])
//! always see every committed tuple still inside retention.
//!
//! # Example
//!
//! ```
//! use netalytics_data::{DataTuple, TupleBatch};
//! use netalytics_store::{SeriesKey, TimeSeriesStore};
//!
//! let store = TimeSeriesStore::in_memory();
//! let series = SeriesKey::new(1, "checkout");
//! let batch = TupleBatch::from_tuples(vec![
//!     DataTuple::new(0, 1_000).with("t_ns", 250u64),
//!     DataTuple::new(0, 2_000).with("t_ns", 900u64),
//! ]);
//! store.append(&series, &batch).unwrap();
//! assert_eq!(store.latest(&series).unwrap().ts_ns, 2_000);
//! assert_eq!(store.range(&series, 0, 1_500).unwrap().len(), 1);
//! ```

pub mod backend;
pub mod frame;
pub mod history;
pub mod rollup;
mod scan;
pub mod sharded;
pub mod sink;
pub mod store;
mod wire;

pub use backend::ResultBackend;
pub use history::{
    AggValue, FieldFilter, FilterOp, HistoryAgg, HistoryAnswer, HistoryPlan, HistoryQuery,
};
pub use rollup::RollupPoint;
pub use sharded::{ShardedConfig, ShardedStats, ShardedStore};
pub use sink::StoreSink;
pub use store::{
    CompactionReport, SeriesKey, StoreConfig, StoreError, StoreStats, TimeSeriesStore,
};

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use netalytics_data::{DataTuple, TupleBatch};

    use super::*;

    /// Fresh scratch directory (no tempfile dep in this workspace).
    pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netalytics-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(ts0: u64, n: u64, field: &str) -> TupleBatch {
        TupleBatch::from_tuples(
            (0..n)
                .map(|i| DataTuple::new(i, ts0 + i * 100).with(field, ts0 + i))
                .collect(),
        )
    }

    #[test]
    fn append_reopen_preserves_everything() {
        let dir = scratch_dir("reopen");
        let series = SeriesKey::new(3, "api");
        {
            let store = TimeSeriesStore::open(&dir).expect("open");
            for k in 0..5 {
                store.append(&series, &batch(k * 10_000, 10, "v")).unwrap();
            }
            assert_eq!(store.stats().tuples, 50);
        }
        let store = TimeSeriesStore::open(&dir).expect("reopen");
        let all = store.range(&series, 0, u64::MAX).expect("range");
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(store.latest(&series).unwrap().ts_ns, 40_000 + 9 * 100);
        assert_eq!(store.query_history(3).unwrap().len(), 50);
        assert!(store.query_history(99).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_agrees_between_memtable_and_log_paths() {
        // Tiny memtable forces the log path for old data while the
        // memtable serves the tail; both must agree where they overlap.
        let cfg = StoreConfig {
            memtable_per_series: 8,
            segment_max_bytes: 2_000,
            ..StoreConfig::default()
        };
        let store = TimeSeriesStore::in_memory_with(cfg);
        let series = SeriesKey::new(1, "");
        for k in 0..20 {
            store.append(&series, &batch(k * 1_000, 5, "v")).unwrap();
        }
        assert!(store.stats().segments > 1, "load spans segments");
        // Old window: only on the log path.
        let old = store.range(&series, 0, 3_000).unwrap();
        // Batches at 0, 1000, 2000 fit wholly; the batch at 3000
        // contributes its first tuple (closed interval).
        assert_eq!(old.len(), 5 + 5 + 5 + 1);
        // Tail window: memtable path.
        let tail = store.range(&series, 19_000, u64::MAX).unwrap();
        assert_eq!(tail.len(), 5);
        // Full scan equals total.
        assert_eq!(store.range(&series, 0, u64::MAX).unwrap().len(), 100);
    }

    #[test]
    fn series_are_isolated() {
        let store = TimeSeriesStore::in_memory();
        let a = SeriesKey::new(1, "a");
        let b = SeriesKey::new(1, "b");
        let other_query = SeriesKey::new(2, "a");
        store.append(&a, &batch(0, 3, "v")).unwrap();
        store.append(&b, &batch(0, 4, "v")).unwrap();
        store.append(&other_query, &batch(0, 5, "v")).unwrap();
        assert_eq!(store.range(&a, 0, u64::MAX).unwrap().len(), 3);
        assert_eq!(store.range(&b, 0, u64::MAX).unwrap().len(), 4);
        assert_eq!(store.query_history(1).unwrap().len(), 7);
        assert_eq!(store.query_history(2).unwrap().len(), 5);
        assert_eq!(store.series().len(), 3);
    }

    #[test]
    fn retention_compacts_into_rollups_and_drops_segments() {
        let dir = scratch_dir("retention");
        let second = 1_000_000_000u64;
        let cfg = StoreConfig {
            segment_max_bytes: 4_000,
            retention_ns: Some(10 * second),
            rollup_bucket_ns: second,
            ..StoreConfig::default()
        };
        let series = SeriesKey::new(5, "web");
        let store = TimeSeriesStore::open_with(&dir, cfg.clone()).expect("open");
        // 30 seconds of data, one tuple per 100ms.
        for s in 0..30u64 {
            let tuples: Vec<DataTuple> = (0..10)
                .map(|i| DataTuple::new(i, s * second + i * 100_000_000).with("lat", 10 * (s + 1)))
                .collect();
            store
                .append(&series, &TupleBatch::from_tuples(tuples))
                .unwrap();
        }
        let before = store.stats();
        assert_eq!(before.tuples, 300);
        assert!(before.segments > 2);

        let now = 30 * second;
        let report = store.compact(now).expect("compact");
        assert!(report.segments_dropped > 0, "old segments dropped");
        assert!(report.tuples_folded > 0);
        assert!(report.rollup_points_written > 0);
        let after = store.stats();
        assert_eq!(
            after.segments as u64,
            before.segments as u64 - report.segments_dropped
        );
        assert!(after.rollup_points > 0);

        // Raw reads still serve everything inside retention.
        let recent = store.range(&series, now - 5 * second, now).unwrap();
        assert!(!recent.is_empty());

        // Rollups cover the dropped history: every bucket from t=0 on.
        let roll = store
            .rollup(&series, "lat", 0, now, second)
            .expect("rollup");
        assert_eq!(roll.first().unwrap().bucket_start, 0);
        assert_eq!(roll.len(), 30, "one point per second, none lost");
        let p0 = &roll[0];
        assert_eq!(p0.count, 10);
        assert_eq!(p0.min, 10.0);
        assert_eq!(p0.max, 10.0);
        assert_eq!(p0.p50(), 10);

        // The rollups survive a reopen, raw expired data stays gone.
        drop(store);
        let store = TimeSeriesStore::open_with(&dir, cfg).expect("reopen");
        let roll2 = store.rollup(&series, "lat", 0, now, second).unwrap();
        assert_eq!(roll2, roll, "persisted rollups reload identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_snapshots_survive_compaction_and_reopen() {
        use netalytics_sketch::{Sketch, SpaceSaving};

        let dir = scratch_dir("sketch");
        let second = 1_000_000_000u64;
        let cfg = StoreConfig {
            segment_max_bytes: 1_000,
            retention_ns: Some(5 * second),
            rollup_bucket_ns: second,
            ..StoreConfig::default()
        };
        let series = SeriesKey::new(8, "");
        let store = TimeSeriesStore::open_with(&dir, cfg.clone()).expect("open");
        // One heavy-hitters snapshot per second; /hot gains one count
        // each time, so only the merged total sees all 20.
        for s in 0..20u64 {
            let mut ss = SpaceSaving::new(0.01);
            ss.record("/hot", 1);
            ss.record(&format!("/only-{s}"), 1);
            let t = DataTuple::new(s, s * second)
                .with("sketch", Sketch::HeavyHitters(ss).encode())
                .with("n", 2u64);
            store
                .append(&series, &TupleBatch::from_tuples(vec![t]))
                .unwrap();
        }
        let report = store.compact(20 * second).expect("compact");
        assert!(report.segments_dropped > 0);

        // The rollup view merges expired snapshots with retained ones:
        // one coarse bucket spanning the whole run must see every delta.
        let check = |store: &TimeSeriesStore| {
            let pts = store
                .rollup(&series, "sketch", 0, 20 * second, 20 * second)
                .expect("rollup");
            assert_eq!(pts.len(), 1);
            let Some(Sketch::HeavyHitters(merged)) = pts[0].sketch() else {
                panic!("bucket should hold a merged heavy-hitters sketch");
            };
            assert_eq!(merged.estimate("/hot").map(|e| e.count), Some(20));
            assert_eq!(merged.top(1)[0].0, "/hot");
        };
        check(&store);

        // Persisted rollup cells carry the blob across a reopen.
        drop(store);
        let store = TimeSeriesStore::open_with(&dir, cfg).expect("reopen");
        check(&store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollup_rejects_non_multiple_buckets() {
        let store = TimeSeriesStore::in_memory();
        let s = SeriesKey::new(1, "");
        for bad in [0u64, 500, 1_500_000_000] {
            assert!(matches!(
                store.rollup(&s, "v", 0, u64::MAX, bad),
                Err(StoreError::BadBucket { .. })
            ));
        }
        // Coarser multiples are fine.
        store.append(&s, &batch(0, 10, "v")).unwrap();
        let pts = store.rollup(&s, "v", 0, u64::MAX, 5_000_000_000).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].count, 10);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let dir = scratch_dir("torn");
        let series = SeriesKey::new(1, "g");
        {
            let store = TimeSeriesStore::open(&dir).expect("open");
            for k in 0..4 {
                store.append(&series, &batch(k * 1_000, 8, "v")).unwrap();
            }
        }
        // Tear the newest segment mid-frame.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
            .max()
            .unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let store = TimeSeriesStore::open(&dir).expect("recovering open");
        assert_eq!(store.stats().truncated_on_open, 1);
        let got = store.query_history(1).unwrap();
        // The clean prefix: 3 whole batches; the torn 4th is gone.
        assert_eq!(got.len(), 24);
        // And the store keeps working after recovery.
        store.append(&series, &batch(50_000, 8, "v")).unwrap();
        assert_eq!(store.query_history(1).unwrap().len(), 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_records_segment_seals_and_rollup_folds() {
        use std::sync::Arc;

        use netalytics_telemetry::{EventKind, Journal};

        let second = 1_000_000_000u64;
        let store = TimeSeriesStore::in_memory_with(StoreConfig {
            segment_max_bytes: 2_000,
            retention_ns: Some(5 * second),
            rollup_bucket_ns: second,
            ..StoreConfig::default()
        });
        let journal = Arc::new(Journal::new(64));
        store.attach_journal(Arc::clone(&journal));

        let series = SeriesKey::new(4, "");
        for s in 0..20u64 {
            store.append(&series, &batch(s * second, 10, "v")).unwrap();
        }
        let seals = journal
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::SegmentSealed)
            .count();
        assert!(seals > 0, "log rolls must journal segment seals");
        assert_eq!(
            seals as u64,
            store.stats().segments as u64 - 1,
            "one seal per non-active segment"
        );

        let report = store.compact(20 * second).expect("compact");
        assert!(report.segments_dropped > 0);
        let fold = journal
            .events()
            .into_iter()
            .find(|e| e.kind == EventKind::RollupFolded)
            .expect("compaction journaled");
        assert_eq!(fold.ts_ns, 20 * second, "stamped with the compact clock");
        assert!(fold.detail.contains("dropped"), "detail: {}", fold.detail);
    }

    #[test]
    fn stats_and_metrics_register() {
        let registry = netalytics_telemetry::MetricsRegistry::new();
        let store = TimeSeriesStore::in_memory();
        store.register_metrics(&registry);
        let s = SeriesKey::new(1, "");
        store.append(&s, &batch(0, 5, "v")).unwrap();
        store.note_sink_flush();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("store.ingest_tuples"), 5);
        assert_eq!(snap.counter_total("store.ingest_batches"), 1);
        assert_eq!(snap.counter_total("store.sink_flushes"), 1);
        assert!(snap.counter_total("store.ingest_bytes") > 0);
        assert!(snap.names().contains(&"store.segments"));
        // The memtable serves the range; only `query_history` reads the log.
        assert_eq!(store.range(&s, 0, u64::MAX).unwrap().len(), 5);
        assert_eq!(registry.snapshot().counter_total("store.frames_read"), 0);
        assert_eq!(store.query_history(1).unwrap().len(), 5);
        assert_eq!(registry.snapshot().counter_total("store.frames_read"), 1);
    }
}
