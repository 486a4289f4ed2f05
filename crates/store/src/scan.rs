//! Segment scanning and folding: the shared read-path primitives under
//! the history query plane.
//!
//! Two consumers need a segment's tuples: raw reads
//! ([`crate::store::TimeSeriesStore::range`] when the memtable cannot
//! serve, `query_history`) and the history engine's replay/edge paths.
//! Both go through [`scan_frames`], which is driven by the segment's
//! frame directory — it touches only the frames of the wanted series
//! whose time span overlaps the window, and never walks (or
//! re-checksums) the frames in between.
//!
//! [`fold_segment`] is the other half: it folds *every* field of every
//! tuple in a segment into native-bucket [`RollupPoint`] cells, exactly
//! the way retention compaction summarises expired segments. Sealed
//! segments cache this fold (see `Segment::cells` in `store.rs`), so
//! an aggregation pushdown can merge a handful of cells instead of
//! re-decoding a million tuples, and `compact()` reuses the same cells
//! when the segment later expires.

use std::collections::BTreeMap;

use netalytics_data::{DataTuple, Value};

use crate::frame::{frame_at, FrameIter};
use crate::rollup::RollupPoint;
use crate::store::{decode_batch, decode_record, Segment, SeriesKey, StoreError};

/// Per-segment rollup cells: `(series, field) -> bucket_start -> cell`.
pub(crate) type SegmentCells = BTreeMap<(SeriesKey, String), BTreeMap<u64, RollupPoint>>;

/// What directory-driven scans read off the log.
#[derive(Debug, Default)]
pub(crate) struct ScanCount {
    /// Frames verified and decoded.
    pub(crate) frames_read: u64,
    /// Tuples in those frames, inside the asked window or not.
    pub(crate) tuples_decoded: u64,
}

/// Hands `each` every tuple with `t0 <= ts <= t1` from the frames of
/// `seg` whose series id satisfies `want`, in frame order (callers sort
/// when they need global timestamp order). Only directory entries that
/// overlap the window are read; each frame read passes its length and
/// CRC check before it is decoded.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when a listed frame fails that check — the
/// directory says the frame exists, so a short answer would be a wrong
/// one; decode errors on a frame that passed it (version skew).
pub(crate) fn scan_frames(
    seg: &Segment,
    want: impl Fn(u32) -> bool,
    (t0, t1): (u64, u64),
    count: &mut ScanCount,
    mut each: impl FnMut(DataTuple),
) -> Result<(), StoreError> {
    for entry in &seg.frames {
        if entry.min_ts > t1 || entry.max_ts < t0 || !want(entry.series) {
            continue;
        }
        let payload = frame_at(&seg.bytes, entry.offset as usize).ok_or(StoreError::Corrupt(
            "resident frame failed its length or CRC check",
        ))?;
        let batch = decode_batch(decode_record(payload)?.batch)?;
        count.frames_read += 1;
        count.tuples_decoded += batch.len() as u64;
        batch
            .into_tuples()
            .into_iter()
            .filter(|t| t.ts_ns >= t0 && t.ts_ns <= t1)
            .for_each(&mut each);
    }
    Ok(())
}

/// Folds one tuple field into a rollup cell the way compaction does:
/// numeric values are observed, sketch snapshots merge through the
/// sketch algebra, everything else (strings, nulls) is skipped.
pub(crate) fn fold_value(cell: &mut RollupPoint, v: &Value) {
    match v {
        Value::Bytes(b) => {
            cell.fold_sketch(b);
        }
        other => {
            if let Some(x) = other.as_f64() {
                cell.observe(x);
            }
        }
    }
}

/// Folds every field of every tuple in a segment into native-bucket
/// cells. Returns the cells plus the number of tuples folded.
///
/// # Errors
///
/// Decode errors on frames that passed their CRC (version skew) — the
/// caller treats the segment as un-summarisable and scans it raw.
pub(crate) fn fold_segment(bytes: &[u8], native: u64) -> Result<(SegmentCells, u64), StoreError> {
    let mut cells = SegmentCells::new();
    let mut tuples = 0u64;
    // whole-segment walk: the fold summarises every frame by definition.
    for (_, payload) in FrameIter::new(bytes) {
        let rec = decode_record(payload)?;
        let series = SeriesKey::new(rec.query_id, rec.group);
        for tuple in decode_batch(rec.batch)?.into_tuples() {
            tuples += 1;
            let bucket = tuple.ts_ns - tuple.ts_ns % native;
            for (k, v) in &tuple.fields {
                let cell = cells
                    .entry((series.clone(), k.clone()))
                    .or_default()
                    .entry(bucket)
                    .or_insert_with(|| RollupPoint::empty(bucket, native));
                fold_value(cell, v);
            }
        }
    }
    Ok((cells, tuples))
}

#[cfg(test)]
mod tests {
    use netalytics_data::TupleBatch;

    use super::*;
    use crate::frame::write_frame;
    use crate::store::encode_record;

    /// Appends one frame holding `tuples` to `seg`, listed under series
    /// id `id`.
    fn push_frame(seg: &mut Segment, id: u32, series: &SeriesKey, tuples: Vec<DataTuple>) {
        let batch = TupleBatch::from_tuples(tuples);
        let (payload, min_ts, max_ts) = encode_record(series, &batch);
        let offset = seg.bytes.len() as u32;
        write_frame(&mut seg.bytes, &payload);
        seg.note_frame(id, offset, min_ts, max_ts);
    }

    type Scanned = Result<(Vec<u64>, ScanCount), StoreError>;

    fn scan_ts(seg: &Segment, id: u32, t0: u64, t1: u64) -> Scanned {
        let mut got = Vec::new();
        let mut count = ScanCount::default();
        let each = |t: DataTuple| got.push(t.ts_ns);
        scan_frames(seg, |s| s == id, (t0, t1), &mut count, each)?;
        Ok((got, count))
    }

    fn mk(ts: u64, v: u64) -> DataTuple {
        DataTuple::new(v, ts).with("v", v)
    }

    #[test]
    fn scan_reads_only_listed_frames_of_the_series_inside_the_window() {
        let (a, b) = (SeriesKey::new(1, "a"), SeriesKey::new(1, "b"));
        let mut seg = Segment::empty(0, None);
        push_frame(&mut seg, 0, &a, vec![mk(100, 1), mk(200, 2), mk(300, 3)]);
        push_frame(&mut seg, 1, &b, vec![mk(150, 9)]);
        push_frame(&mut seg, 0, &a, vec![mk(900, 4)]);

        let (got, count) = scan_ts(&seg, 0, 150, 300).expect("clean scan");
        assert_eq!(got, [200, 300]);
        // One frame of `a` overlaps the window; its out-of-window tuple
        // is decoded but not handed on.
        assert_eq!((count.frames_read, count.tuples_decoded), (1, 3));
        let (other, count) = scan_ts(&seg, 1, 0, u64::MAX).expect("clean scan");
        assert_eq!(other, [150]);
        assert_eq!(count.frames_read, 1);
    }

    #[test]
    fn a_listed_frame_that_fails_its_crc_is_an_error_not_a_short_answer() {
        let (a, b) = (SeriesKey::new(1, "a"), SeriesKey::new(1, "b"));
        let mut seg = Segment::empty(0, None);
        push_frame(&mut seg, 0, &a, vec![mk(100, 1)]);
        push_frame(&mut seg, 1, &b, vec![mk(200, 2)]);
        push_frame(&mut seg, 0, &a, vec![mk(300, 3)]);
        push_frame(&mut seg, 1, &b, vec![mk(400, 4)]);

        // Damage the second frame of `a` after it entered memory.
        let last = seg.frames[3].offset as usize - 1;
        seg.bytes[last] ^= 0x01;

        let err = scan_ts(&seg, 0, 0, u64::MAX).expect_err("damaged frame is listed");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        // A window that does not need the damaged frame still reads...
        let (early, _) = scan_ts(&seg, 0, 0, 250).expect("first frame intact");
        assert_eq!(early, [100]);
        // ...and so does the other series, on both sides of the damage.
        let (other, _) = scan_ts(&seg, 1, 0, u64::MAX).expect("neighbours intact");
        assert_eq!(other, [200, 400]);
    }

    #[test]
    fn fold_segment_matches_per_tuple_observation() {
        let s = SeriesKey::new(3, "");
        let tuples = vec![
            DataTuple::new(0, 500).with("t_ns", 10u64),
            DataTuple::new(1, 900).with("t_ns", 30u64),
            DataTuple::new(2, 1_500).with("t_ns", 20u64),
        ];
        let mut seg = Segment::empty(0, None);
        push_frame(&mut seg, 0, &s, tuples);
        let (cells, tuples) = fold_segment(&seg.bytes, 1_000).expect("fold");
        assert_eq!(tuples, 3);
        let by_field = &cells[&(s, "t_ns".to_string())];
        assert_eq!(by_field.len(), 2, "two native buckets");
        assert_eq!(by_field[&0].count, 2);
        assert_eq!(by_field[&0].sum, 40.0);
        assert_eq!(by_field[&1_000].count, 1);
        assert_eq!(by_field[&1_000].min, 20.0);
    }
}
