//! Directory-driven reads ≡ a linear walk of the log.
//!
//! Reads go through each segment's frame directory and touch only the
//! frames it lists for the asked series and window. The oracle here
//! knows nothing of that: it re-reads the segment *files*, walks every
//! frame with the byte-slice [`FrameIter`], parses the record header
//! from its documented layout and filters. Whatever the interleaving of
//! series, however out of order or duplicated the timestamps, and
//! across reopen, retention compaction and a torn tail, the two must
//! agree — and `history()` must agree with `history_replay()`.
//!
//! The same walk pins the on-disk format: the bytes a given append
//! sequence leaves in `seg-*.log` are exactly the frames the documented
//! record layout and segment-roll rule produce, directory or not.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use netalytics_data::{DataTuple, TupleBatch};
use netalytics_store::frame::{write_frame, FrameIter};
use netalytics_store::{HistoryAgg, HistoryQuery, SeriesKey, StoreConfig, TimeSeriesStore};
use proptest::prelude::*;

/// Fresh scratch directory per case (no tempfile crate in-tree).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("netalytics-scan-{tag}-{}-{n}", std::process::id()))
}

const SEC: u64 = 1_000_000_000;
const SEGMENT_MAX_BYTES: usize = 700;

fn config() -> StoreConfig {
    StoreConfig {
        segment_max_bytes: SEGMENT_MAX_BYTES,
        retention_ns: Some(30 * SEC),
        rollup_bucket_ns: SEC,
        // Out-of-order timestamps break the memtable's "tail is a time
        // suffix" shortcut by design; keep every read on the log.
        memtable_per_series: 0,
        ..StoreConfig::default()
    }
}

/// Series `i` of the case: two query ids, so `query_history` has
/// foreign frames to skip.
fn series(i: usize) -> SeriesKey {
    SeriesKey::new(1 + (i % 2) as u64, format!("g{i}"))
}

/// SplitMix64, for the per-tuple jitter inside a generated batch.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` tuples scattered (unsorted, on a 250 ms grid so duplicates are
/// common) over the two seconds from `base_s`; integer values keep f64
/// sums exact in any fold order.
fn batch(id0: u64, base_s: u64, n: u64, mut seed: u64) -> TupleBatch {
    (0..n)
        .map(|j| {
            let r = splitmix(&mut seed);
            DataTuple::new(id0 + j, base_s * SEC + (r % 8) * 250_000_000).with("v", r >> 40)
        })
        .collect()
}

/// A data frame's payload, from the layout `store.rs` documents:
/// `query_id:u64 group:str16 min_ts:u64 max_ts:u64 batch`.
fn record(series: &SeriesKey, batch: &TupleBatch) -> Vec<u8> {
    let min_ts = batch.iter().map(|t| t.ts_ns).min().expect("non-empty");
    let max_ts = batch.iter().map(|t| t.ts_ns).max().expect("non-empty");
    let mut out = Vec::new();
    out.extend_from_slice(&series.query_id.to_le_bytes());
    out.extend_from_slice(&(series.group.len() as u16).to_le_bytes());
    out.extend_from_slice(series.group.as_bytes());
    out.extend_from_slice(&min_ts.to_le_bytes());
    out.extend_from_slice(&max_ts.to_le_bytes());
    out.extend_from_slice(&batch.encode());
    out
}

fn parse_record(payload: &[u8]) -> (SeriesKey, Vec<DataTuple>) {
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    let group_len = u16::from_le_bytes(payload[8..10].try_into().expect("2 bytes")) as usize;
    let group = std::str::from_utf8(&payload[10..10 + group_len]).expect("utf-8 group");
    // Skip min_ts/max_ts: the oracle filters on the tuples themselves.
    let mut body = Bytes::copy_from_slice(&payload[10 + group_len + 16..]);
    let batch = TupleBatch::decode(&mut body).expect("batch decodes");
    (SeriesKey::new(u64_at(0), group), batch.into_tuples())
}

/// Segment files of `dir`, oldest first.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    files.sort();
    files
}

/// The oracle: every `(series, tuple)` on disk, in log order, by
/// walking every frame of every segment file.
fn walk(dir: &Path) -> Vec<(SeriesKey, DataTuple)> {
    let mut out = Vec::new();
    for path in segment_files(dir) {
        let bytes = std::fs::read(&path).expect("segment readable");
        for (_, payload) in FrameIter::new(&bytes) {
            let (series, tuples) = parse_record(payload);
            out.extend(tuples.into_iter().map(|t| (series.clone(), t)));
        }
    }
    out
}

fn sorted(mut tuples: Vec<DataTuple>) -> Vec<DataTuple> {
    tuples.sort_by_key(|t| t.ts_ns);
    tuples
}

/// Every read the directory serves, against the oracle.
fn check_reads(store: &TimeSeriesStore, dir: &Path, nseries: usize, probes: &[(usize, u64, u64)]) {
    let log = walk(dir);
    for query_id in [1u64, 2] {
        let want = sorted(
            log.iter()
                .filter(|(s, _)| s.query_id == query_id)
                .map(|(_, t)| t.clone())
                .collect(),
        );
        assert_eq!(
            store.query_history(query_id).expect("query_history"),
            want,
            "query_history({query_id})"
        );
    }
    for &(i, a, b) in probes {
        let key = series(i % nseries);
        let (t0, t1) = (a.min(b), a.max(b));
        let want = sorted(
            log.iter()
                .filter(|(s, t)| *s == key && t.ts_ns >= t0 && t.ts_ns <= t1)
                .map(|(_, t)| t.clone())
                .collect(),
        );
        assert_eq!(
            store.range(&key, t0, t1).expect("range"),
            want,
            "range({key}, {t0}, {t1})"
        );
        for agg in [
            HistoryAgg::Count,
            HistoryAgg::Sum,
            HistoryAgg::Min,
            HistoryAgg::Max,
        ] {
            let q = HistoryQuery::new(key.clone(), "v", t0, t1, agg);
            let fast = store.history(&q).expect("history");
            // Cells persisted by retention hold observations whose raw
            // tuples are gone; replay cannot see them.
            if fast.plan.persisted_cells + fast.plan.coarse_cells > 0 {
                continue;
            }
            let slow = store.history_replay(&q).expect("history_replay");
            assert_eq!(
                (&fast.value, fast.count),
                (&slow.value, slow.count),
                "{:?} on {key} over [{t0}, {t1}]: {:?}",
                q.agg,
                fast.plan
            );
            assert!(fast.plan.raw_tuples <= fast.plan.tuples_decoded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn directory_reads_equal_a_linear_walk_of_the_log(
        nseries in 1usize..=6,
        appends in proptest::collection::vec(
            (0usize..6, 0u64..40, 1u64..8, any::<u64>()), 4..70),
        probes in proptest::collection::vec(
            (0usize..6, 0u64..45 * SEC, 0u64..45 * SEC), 4..10),
        tear in 1usize..40,
    ) {
        let dir = scratch_dir("walk");
        let store = TimeSeriesStore::open_with(&dir, config()).expect("open");

        // Append, mirroring what must land on disk: one frame per
        // append, rolled into a new segment when it would overflow.
        let mut expected: Vec<Vec<u8>> = vec![Vec::new()];
        for (k, &(i, base_s, n, seed)) in appends.iter().enumerate() {
            let key = series(i % nseries);
            let b = batch(k as u64 * 100, base_s, n, seed);
            store.append(&key, &b).expect("append");
            let mut frame = Vec::new();
            write_frame(&mut frame, &record(&key, &b));
            let active = expected.last_mut().expect("one segment");
            if !active.is_empty() && active.len() + frame.len() > SEGMENT_MAX_BYTES {
                expected.push(frame);
            } else {
                active.extend_from_slice(&frame);
            }
        }
        let on_disk: Vec<Vec<u8>> = segment_files(&dir)
            .iter()
            .map(|p| std::fs::read(p).expect("segment readable"))
            .collect();
        prop_assert_eq!(&on_disk, &expected, "segment files differ from the documented layout");
        check_reads(&store, &dir, nseries, &probes);

        // Reopen: the directory is rebuilt by the recovery walk.
        drop(store);
        let store = TimeSeriesStore::open_with(&dir, config()).expect("reopen");
        check_reads(&store, &dir, nseries, &probes);

        // Retention drops whole segments, directory and all.
        store.compact(60 * SEC).expect("compact");
        check_reads(&store, &dir, nseries, &probes);

        // A torn tail: the newest segment ends in half a frame.
        drop(store);
        let newest = segment_files(&dir).pop().expect("a segment file");
        let mut bytes = std::fs::read(&newest).expect("segment readable");
        let clean = bytes.len();
        let mut torn = Vec::new();
        write_frame(&mut torn, &record(&series(0), &batch(9_000_000, 50, 5, 7)));
        bytes.extend_from_slice(&torn[..tear.min(torn.len() - 1)]);
        std::fs::write(&newest, &bytes).expect("tear");
        let store = TimeSeriesStore::open_with(&dir, config()).expect("reopen torn");
        prop_assert_eq!(store.stats().truncated_on_open, 1);
        prop_assert_eq!(std::fs::metadata(&newest).expect("segment").len(), clean as u64);
        check_reads(&store, &dir, nseries, &probes);

        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
