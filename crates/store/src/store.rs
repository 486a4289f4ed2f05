//! The embedded time-series store: segmented CRC-framed append log,
//! per-series memtables, retention, and rollup compaction.
//!
//! # Data layout
//!
//! A store directory holds `seg-NNNNNNNN.log` segment files plus one
//! `rollups.log`. Every file is a sequence of [`crate::frame`] frames.
//! A data frame's payload is
//!
//! ```text
//! query_id:u64 group:str16 min_ts:u64 max_ts:u64 batch(TupleBatch codec)
//! ```
//!
//! so readers can route and time-filter a frame without decoding its
//! tuples. Writes are fsync-free: the commit point is the buffered
//! `write(2)` into the active segment, and a torn tail left by a crash
//! is detected by CRC and truncated away on the next open.
//!
//! Reads come from three structures kept coherent under one lock: the
//! segments (source of truth), a bounded per-series tail memtable
//! (`latest` and recent `range`s without touching the log), and the
//! rollup map (downsampled history that outlives expired segments).

use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use netalytics_data::{CodecError, DataTuple, TupleBatch, Value};
use netalytics_telemetry::{Counter, EventKind, Gauge, Journal, MetricsRegistry};
use parking_lot::Mutex;

use crate::frame::{write_frame, FrameIter, FRAME_HEADER};
use crate::rollup::{decode_rollup, encode_rollup, RollupPoint};
use crate::scan::{fold_segment, scan_frames, ScanCount, SegmentCells};
use crate::wire::{put_str16, put_u64, Reader};

/// Identity of one stored series: the query that produced the tuples
/// and the group key they aggregate under (empty for ungrouped output).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Orchestrator cookie of the producing query.
    pub query_id: u64,
    /// Group-by key value, `""` when the query has no grouping.
    pub group: String,
}

impl SeriesKey {
    /// Builds a series key.
    pub fn new(query_id: u64, group: impl Into<String>) -> Self {
        SeriesKey {
            query_id,
            group: group.into(),
        }
    }
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}/{}", self.query_id, self.group)
    }
}

/// Store tuning knobs; the defaults suit the simulation-scale loads in
/// this repo (a few MiB of results per query).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Roll the active segment once it would exceed this many bytes.
    pub segment_max_bytes: usize,
    /// Drop (after folding into rollups) sealed segments whose newest
    /// tuple is older than `now - retention_ns`. `None` keeps raw data
    /// forever. This is the raw tier's TTL; see `rollup_retention_ns`
    /// for the next tier down.
    pub retention_ns: Option<u64>,
    /// Native rollup bucket width; queries may ask for any multiple.
    pub rollup_bucket_ns: u64,
    /// Second-tier TTL: native rollup cells whose bucket closed before
    /// `now - rollup_retention_ns` are demoted into coarse sketch-tier
    /// cells of `sketch_bucket_ns` width (count/sum/min/max, histogram
    /// and sketch survive; native-bucket resolution does not). `None`
    /// keeps native cells forever.
    pub rollup_retention_ns: Option<u64>,
    /// Sketch-tier bucket width; rounded up to a multiple of
    /// `rollup_bucket_ns` when it is not one already.
    pub sketch_bucket_ns: u64,
    /// Tuples kept per series in the in-memory tail memtable.
    pub memtable_per_series: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 4 << 20,
            retention_ns: None,
            rollup_bucket_ns: 1_000_000_000,
            rollup_retention_ns: None,
            sketch_bucket_ns: 60_000_000_000,
            memtable_per_series: 256,
        }
    }
}

impl StoreConfig {
    /// The sketch-tier bucket width actually used: `sketch_bucket_ns`
    /// rounded up to a non-zero multiple of the native width.
    pub(crate) fn coarse_bucket_ns(&self) -> u64 {
        let native = self.rollup_bucket_ns.max(1);
        let want = self.sketch_bucket_ns.max(native);
        want.next_multiple_of(native)
    }
}

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble (open, append, truncate, remove).
    Io(std::io::Error),
    /// A frame passed its CRC but its tuple payload would not decode —
    /// a layout bug or version skew, never a torn write.
    Codec(CodecError),
    /// A frame passed its CRC but its record header would not parse.
    Corrupt(&'static str),
    /// `rollup()` asked for a bucket the store cannot serve exactly.
    BadBucket {
        /// The requested bucket width.
        requested_ns: u64,
        /// The configured native width it must be a multiple of.
        native_ns: u64,
    },
    /// Every replica of a sharded store's shard is quarantined or
    /// down, so the operation addressed to it cannot be served. The
    /// other shards keep working; see `ShardedStore`.
    ShardUnavailable {
        /// Index of the unavailable shard.
        shard: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Codec(e) => write!(f, "store codec: {e}"),
            StoreError::Corrupt(what) => write!(f, "store corrupt record: {what}"),
            StoreError::BadBucket {
                requested_ns,
                native_ns,
            } => write!(
                f,
                "rollup bucket {requested_ns}ns must be a non-zero multiple of the \
                 configured {native_ns}ns"
            ),
            StoreError::ShardUnavailable { shard } => write!(
                f,
                "store shard {shard} unavailable: every replica is quarantined or down"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Point-in-time counters, for tests and operator display.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live segments (including the active one).
    pub segments: usize,
    /// Intact frames across live segments.
    pub frames: u64,
    /// Bytes across live segments.
    pub log_bytes: u64,
    /// Distinct series seen.
    pub series: usize,
    /// Tuples appended over the store's lifetime (not reset by open).
    pub tuples: u64,
    /// Native-tier rollup cells currently held.
    pub rollup_points: usize,
    /// Sketch-tier (coarse) cells currently held.
    pub coarse_points: usize,
    /// Log files whose torn tail was truncated during `open`.
    pub truncated_on_open: u64,
    /// Compaction passes that dropped at least one segment.
    pub compactions: u64,
    /// Segments dropped by retention so far.
    pub segments_dropped: u64,
    /// Append failures noted by sinks writing into this store.
    pub append_errors: u64,
    /// Malformed tuples skipped (not persisted) by sinks.
    pub sink_skipped: u64,
}

/// What one [`TimeSeriesStore::compact`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Whole segments dropped.
    pub segments_dropped: u64,
    /// Tuples folded into rollups before dropping.
    pub tuples_folded: u64,
    /// Rollup cells written or updated.
    pub rollup_points_written: u64,
    /// Native rollup cells demoted into the coarse sketch tier.
    pub rollup_cells_demoted: u64,
}

/// Registered metric handles; created lazily by
/// [`TimeSeriesStore::register_metrics`].
struct StoreMetrics {
    ingest_tuples: Arc<Counter>,
    ingest_batches: Arc<Counter>,
    ingest_bytes: Arc<Counter>,
    sink_flushes: Arc<Counter>,
    sink_skipped: Arc<Counter>,
    append_errors: Arc<Counter>,
    compactions: Arc<Counter>,
    segments_dropped: Arc<Counter>,
    frames_read: Arc<Counter>,
    segments: Arc<Gauge>,
    series: Arc<Gauge>,
    rollup_points: Arc<Gauge>,
}

/// One entry of a segment's frame directory: which series a resident
/// frame belongs to, the timestamps it spans and where it starts, so a
/// read visits only the frames it needs. 24 bytes.
pub(crate) struct FrameEntry {
    pub(crate) min_ts: u64,
    pub(crate) max_ts: u64,
    /// Byte offset of the frame header in the segment.
    pub(crate) offset: u32,
    /// Store-level series id (see [`MemSeries::id`]).
    pub(crate) series: u32,
}

// DESIGN.md states the directory's memory cost per frame.
const _: () = assert!(std::mem::size_of::<FrameEntry>() == 24);

/// A segment never grows past this, so directory offsets fit `u32`.
const SEGMENT_BYTES_CAP: usize = u32::MAX as usize;

/// One log segment, held both on disk (durability) and in memory
/// (serving reads). `file` is `None` for in-memory stores.
pub(crate) struct Segment {
    seq: u64,
    pub(crate) bytes: Vec<u8>,
    file: Option<File>,
    /// The frame directory: one entry per frame of `bytes`, in log
    /// order, recorded as frames enter memory (append, recovery).
    pub(crate) frames: Vec<FrameEntry>,
    pub(crate) min_ts: u64,
    pub(crate) max_ts: u64,
    /// Cached native-bucket fold of this segment's tuples, built
    /// lazily once the segment is sealed (see
    /// [`Inner::ensure_sealed_cells`]). `None` while active, after
    /// invalidation, or when the segment would not fold cleanly.
    pub(crate) cells: Option<(SegmentCells, u64)>,
}

impl Segment {
    pub(crate) fn empty(seq: u64, file: Option<File>) -> Self {
        Segment {
            seq,
            bytes: Vec::new(),
            file,
            frames: Vec::new(),
            min_ts: u64::MAX,
            max_ts: 0,
            cells: None,
        }
    }

    /// Lists the frame at `offset` in the directory.
    pub(crate) fn note_frame(&mut self, series: u32, offset: u32, min_ts: u64, max_ts: u64) {
        self.frames.push(FrameEntry {
            min_ts,
            max_ts,
            offset,
            series,
        });
        self.min_ts = self.min_ts.min(min_ts);
        self.max_ts = self.max_ts.max(max_ts);
    }

    pub(crate) fn overlaps(&self, t0: u64, t1: u64) -> bool {
        !self.frames.is_empty() && self.min_ts <= t1 && self.max_ts >= t0
    }

    fn path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("seg-{seq:08}.log"))
    }
}

/// Data-frame payload header plus the raw batch bytes.
pub(crate) struct RecordRef<'a> {
    pub(crate) query_id: u64,
    pub(crate) group: &'a str,
    pub(crate) min_ts: u64,
    pub(crate) max_ts: u64,
    pub(crate) batch: &'a [u8],
}

pub(crate) fn encode_record(series: &SeriesKey, batch: &TupleBatch) -> (Vec<u8>, u64, u64) {
    let mut min_ts = u64::MAX;
    let mut max_ts = 0;
    for t in batch.iter() {
        min_ts = min_ts.min(t.ts_ns);
        max_ts = max_ts.max(t.ts_ns);
    }
    let mut payload = Vec::with_capacity(32 + series.group.len() + batch.wire_size());
    put_u64(&mut payload, series.query_id);
    put_str16(&mut payload, &series.group);
    put_u64(&mut payload, min_ts);
    put_u64(&mut payload, max_ts);
    payload.extend_from_slice(&batch.encode());
    (payload, min_ts, max_ts)
}

pub(crate) fn decode_record(payload: &[u8]) -> Result<RecordRef<'_>, StoreError> {
    let mut r = Reader::new(payload);
    let query_id = r.u64("record.query_id")?;
    let group = r.str16("record.group")?;
    let min_ts = r.u64("record.min_ts")?;
    let max_ts = r.u64("record.max_ts")?;
    Ok(RecordRef {
        query_id,
        group,
        min_ts,
        max_ts,
        batch: r.rest(),
    })
}

pub(crate) fn decode_batch(bytes: &[u8]) -> Result<TupleBatch, StoreError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    Ok(TupleBatch::decode(&mut buf)?)
}

/// Bounded tail of one series, serving `latest` and recent ranges.
struct MemSeries {
    /// Store-level series id, dense in order of first appearance: what
    /// a [`FrameEntry`] names its series by. Never reused — a series
    /// stays in `Inner::mem` once seen.
    id: u32,
    tail: VecDeque<DataTuple>,
    /// Tuples ever appended; when this equals `tail.len()` the tail is
    /// the complete series.
    appended: u64,
}

impl MemSeries {
    fn new(id: usize) -> Self {
        MemSeries {
            id: u32::try_from(id).expect("fewer than 2^32 series"),
            tail: VecDeque::new(),
            appended: 0,
        }
    }

    /// True when every retained tuple with `ts >= t0` is in the tail.
    fn covers_from(&self, t0: u64) -> bool {
        self.appended == self.tail.len() as u64 || self.tail.front().is_some_and(|f| f.ts_ns < t0)
    }
}

pub(crate) type RollupSeries = (SeriesKey, String);
pub(crate) type RollupMap = BTreeMap<RollupSeries, BTreeMap<u64, RollupPoint>>;

pub(crate) struct Inner {
    pub(crate) cfg: StoreConfig,
    dir: Option<PathBuf>,
    pub(crate) segments: Vec<Segment>,
    mem: BTreeMap<SeriesKey, MemSeries>,
    /// Native-tier rollup cells (bucket width `cfg.rollup_bucket_ns`).
    pub(crate) rollups: RollupMap,
    /// Sketch-tier cells: native cells demoted by `rollup_retention_ns`
    /// land here at `coarse_bucket_ns()` width.
    pub(crate) coarse: RollupMap,
    rollup_file: Option<File>,
    stats: StoreStats,
    metrics: Option<StoreMetrics>,
    /// Flight recorder for segment churn; see
    /// [`TimeSeriesStore::attach_journal`].
    journal: Option<Arc<Journal>>,
}

impl Inner {
    fn active(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("at least one segment")
    }

    /// Builds (once) the native-bucket fold cache of sealed segment
    /// `i`. The active segment is never cached: it is still growing.
    pub(crate) fn ensure_sealed_cells(&mut self, i: usize) -> Result<(), StoreError> {
        if i + 1 >= self.segments.len() || self.segments[i].cells.is_some() {
            return Ok(());
        }
        let folded = fold_segment(&self.segments[i].bytes, self.cfg.rollup_bucket_ns)?;
        self.segments[i].cells = Some(folded);
        Ok(())
    }

    /// Rewrites `rollups.log` from current state via tmp-file + rename.
    /// Needed when cells are *removed* (tier demotion): an append-only
    /// last-wins log could resurrect deleted native cells on reload.
    fn rewrite_rollup_log(&mut self) -> Result<(), StoreError> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let path = dir.join("rollups.log");
        let tmp = dir.join("rollups.log.tmp");
        let mut log = Vec::new();
        for ((series, field), cells) in self.rollups.iter().chain(self.coarse.iter()) {
            for cell in cells.values() {
                let mut payload = Vec::new();
                encode_rollup(&mut payload, series, field, cell);
                write_frame(&mut log, &payload);
            }
        }
        fs::write(&tmp, &log)?;
        fs::rename(&tmp, &path)?;
        self.rollup_file = Some(OpenOptions::new().append(true).open(&path)?);
        Ok(())
    }

    fn roll_segment(&mut self) -> Result<(), StoreError> {
        let seq = self.active().seq + 1;
        let file = match &self.dir {
            Some(dir) => Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(Segment::path(dir, seq))?,
            ),
            None => None,
        };
        if let Some(journal) = &self.journal {
            let sealed = self.segments.last().expect("at least one segment");
            journal.record(
                sealed.max_ts,
                None,
                EventKind::SegmentSealed,
                format!(
                    "segment {} sealed: {} frames, {} bytes",
                    sealed.seq,
                    sealed.frames.len(),
                    sealed.bytes.len()
                ),
            );
        }
        self.segments.push(Segment::empty(seq, file));
        Ok(())
    }

    fn refresh_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.segments.set(self.segments.len() as i64);
            m.series.set(self.mem.len() as i64);
            m.rollup_points
                .set(self.rollups.values().map(BTreeMap::len).sum::<usize>() as i64);
        }
    }

    fn rollup_points(&self) -> usize {
        self.rollups.values().map(BTreeMap::len).sum()
    }

    fn coarse_points(&self) -> usize {
        self.coarse.values().map(BTreeMap::len).sum()
    }

    /// The directory id of `series`; `None` when the store has never
    /// held a frame of it.
    pub(crate) fn series_id(&self, series: &SeriesKey) -> Option<u32> {
        self.mem.get(series).map(|ms| ms.id)
    }

    /// [`scan_frames`] over one segment, counted into `count` and into
    /// the `store.frames_read` metric.
    pub(crate) fn scan(
        &self,
        seg: &Segment,
        want: impl Fn(u32) -> bool,
        window: (u64, u64),
        count: &mut ScanCount,
        each: impl FnMut(DataTuple),
    ) -> Result<(), StoreError> {
        let before = count.frames_read;
        let scanned = scan_frames(seg, want, window, count, each);
        if let Some(m) = &self.metrics {
            m.frames_read.add(count.frames_read - before);
        }
        scanned
    }

    /// All tuples of `series` in `[t0, t1]`, oldest first, plus what
    /// the log scan read to find them (nothing when the memtable
    /// served).
    pub(crate) fn range(
        &self,
        series: &SeriesKey,
        t0: u64,
        t1: u64,
    ) -> Result<(Vec<DataTuple>, ScanCount), StoreError> {
        let mut out = Vec::new();
        let mut count = ScanCount::default();
        // A series the store never saw has no memtable and no frames.
        let ms = match self.mem.get(series) {
            Some(ms) if t0 <= t1 => ms,
            _ => return Ok((out, count)),
        };
        if ms.covers_from(t0) {
            out.extend(
                ms.tail
                    .iter()
                    .filter(|t| t.ts_ns >= t0 && t.ts_ns <= t1)
                    .cloned(),
            );
        } else {
            for seg in self.segments.iter().filter(|s| s.overlaps(t0, t1)) {
                self.scan(seg, |s| s == ms.id, (t0, t1), &mut count, |t| out.push(t))?;
            }
        }
        out.sort_by_key(|t| t.ts_ns);
        Ok((out, count))
    }
}

/// The embedded, thread-safe results store. Cheap to share via `Arc`;
/// all operations take one internal lock, so a single writer and many
/// readers interleave safely from both executor planes.
pub struct TimeSeriesStore {
    pub(crate) inner: Mutex<Inner>,
}

impl std::fmt::Debug for TimeSeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("TimeSeriesStore")
            .field("segments", &stats.segments)
            .field("series", &stats.series)
            .field("tuples", &stats.tuples)
            .finish_non_exhaustive()
    }
}

impl TimeSeriesStore {
    /// Opens (or creates) a store directory with default config,
    /// truncating any torn tail left by a crash.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors; corrupt log tails are repaired,
    /// not reported.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// [`TimeSeriesStore::open`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors.
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            cfg,
            dir: Some(dir.clone()),
            segments: Vec::new(),
            mem: BTreeMap::new(),
            rollups: BTreeMap::new(),
            coarse: BTreeMap::new(),
            rollup_file: None,
            stats: StoreStats::default(),
            metrics: None,
            journal: None,
        };

        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();

        for &seq in &seqs {
            let path = Segment::path(&dir, seq);
            let bytes = fs::read(&path)?;
            let mut seg = Segment::empty(seq, None);
            // whole-segment walk: recovery verifies and lists every frame once.
            let mut it = FrameIter::new(&bytes);
            for (offset, payload) in it.by_ref() {
                let rec = decode_record(payload)?;
                let offset = u32::try_from(offset)
                    .map_err(|_| StoreError::Corrupt("segment larger than 4 GiB"))?;
                let series = SeriesKey::new(rec.query_id, rec.group);
                let batch = decode_batch(rec.batch)?;
                inner.stats.tuples += batch.len() as u64;
                let next_id = inner.mem.len();
                let ms = inner
                    .mem
                    .entry(series)
                    .or_insert_with(|| MemSeries::new(next_id));
                seg.note_frame(ms.id, offset, rec.min_ts, rec.max_ts);
                for t in batch.into_tuples() {
                    ms.tail.push_back(t);
                    ms.appended += 1;
                    if ms.tail.len() > inner.cfg.memtable_per_series {
                        ms.tail.pop_front();
                    }
                }
            }
            let valid = it.valid_len();
            if valid < bytes.len() {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid as u64)?;
                inner.stats.truncated_on_open += 1;
            }
            seg.bytes = bytes[..valid].to_vec();
            inner.segments.push(seg);
        }

        // Reopen the newest segment for append, or start segment 0.
        let next_seq = seqs.last().map_or(0, |s| s + 1);
        match inner.segments.last_mut() {
            Some(last) if last.bytes.len() < inner.cfg.segment_max_bytes => {
                last.file = Some(
                    OpenOptions::new()
                        .append(true)
                        .open(Segment::path(&dir, last.seq))?,
                );
            }
            _ => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(Segment::path(&dir, next_seq))?;
                inner.segments.push(Segment::empty(next_seq, Some(file)));
            }
        }

        // Rollups: replay last-wins, repair torn tail.
        let rollup_path = dir.join("rollups.log");
        if rollup_path.exists() {
            let bytes = fs::read(&rollup_path)?;
            // whole-segment walk: the rollup log replays last-wins from its start.
            let mut it = FrameIter::new(&bytes);
            for (_, payload) in it.by_ref() {
                let (series, field, point) = decode_rollup(payload)?;
                // Route by persisted width: cells wider than the native
                // bucket belong to the demoted sketch tier.
                let map = if point.bucket_ns > inner.cfg.rollup_bucket_ns {
                    &mut inner.coarse
                } else {
                    &mut inner.rollups
                };
                map.entry((series, field))
                    .or_default()
                    .insert(point.bucket_start, point);
            }
            let valid = it.valid_len();
            if valid < bytes.len() {
                OpenOptions::new()
                    .write(true)
                    .open(&rollup_path)?
                    .set_len(valid as u64)?;
                inner.stats.truncated_on_open += 1;
            }
        }
        inner.rollup_file = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&rollup_path)?,
        );

        Ok(TimeSeriesStore {
            inner: Mutex::new(inner),
        })
    }

    /// A purely in-memory store with the same semantics minus
    /// durability — for tests and ephemeral queries.
    pub fn in_memory() -> Self {
        Self::in_memory_with(StoreConfig::default())
    }

    /// [`TimeSeriesStore::in_memory`] with explicit tuning.
    pub fn in_memory_with(cfg: StoreConfig) -> Self {
        TimeSeriesStore {
            inner: Mutex::new(Inner {
                cfg,
                dir: None,
                segments: vec![Segment::empty(0, None)],
                mem: BTreeMap::new(),
                rollups: BTreeMap::new(),
                coarse: BTreeMap::new(),
                rollup_file: None,
                stats: StoreStats::default(),
                metrics: None,
                journal: None,
            }),
        }
    }

    /// True when backed by a directory (false for in-memory stores).
    pub fn is_durable(&self) -> bool {
        self.inner.lock().dir.is_some()
    }

    /// Appends a batch to a series. The write is committed once this
    /// returns: it survives process death (modulo OS page cache) and
    /// any later orchestrator re-placement.
    ///
    /// # Errors
    ///
    /// Filesystem append failures; the in-memory copy is not updated on
    /// error, so the store never claims more than the log holds.
    pub fn append(&self, series: &SeriesKey, batch: &TupleBatch) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let (payload, min_ts, max_ts) = encode_record(series, batch);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let frame_len = FRAME_HEADER + payload.len();
        let max_bytes = inner.cfg.segment_max_bytes.min(SEGMENT_BYTES_CAP);
        if !inner.active().frames.is_empty() && inner.active().bytes.len() + frame_len > max_bytes {
            inner.roll_segment()?;
        }
        let seg = inner.segments.last_mut().expect("at least one segment");
        let offset = seg.bytes.len();
        write_frame(&mut seg.bytes, &payload);
        if let Some(file) = &mut seg.file {
            if let Err(e) = file.write_all(&seg.bytes[offset..]) {
                // Keep memory and disk consistent: undo the in-memory append.
                seg.bytes.truncate(offset);
                return Err(e.into());
            }
        }

        let cap = inner.cfg.memtable_per_series;
        let next_id = inner.mem.len();
        let ms = inner
            .mem
            .entry(series.clone())
            .or_insert_with(|| MemSeries::new(next_id));
        let offset = u32::try_from(offset).expect("segments roll before 4 GiB");
        seg.note_frame(ms.id, offset, min_ts, max_ts);
        for t in batch.iter() {
            ms.tail.push_back(t.clone());
            ms.appended += 1;
            if ms.tail.len() > cap {
                ms.tail.pop_front();
            }
        }

        inner.stats.tuples += batch.len() as u64;
        if let Some(m) = &inner.metrics {
            m.ingest_tuples.add(batch.len() as u64);
            m.ingest_batches.inc();
            m.ingest_bytes.add(frame_len as u64);
        }
        inner.refresh_gauges();
        Ok(())
    }

    /// The newest retained tuple of a series, if any.
    pub fn latest(&self, series: &SeriesKey) -> Option<DataTuple> {
        self.inner.lock().mem.get(series)?.tail.back().cloned()
    }

    /// All retained tuples of `series` with `t0 <= ts <= t1`, oldest
    /// first. Served from the memtable when it covers the range, else
    /// from the log via each overlapping segment's frame directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a resident frame the read needs no
    /// longer passes its length or CRC check; decode errors on a frame
    /// that did (version skew).
    pub fn range(
        &self,
        series: &SeriesKey,
        t0: u64,
        t1: u64,
    ) -> Result<Vec<DataTuple>, StoreError> {
        Ok(self.inner.lock().range(series, t0, t1)?.0)
    }

    /// Downsampled view of one numeric field over `[t0, t1]` in buckets
    /// of `bucket_ns`, merging persisted rollups (for expired raw data)
    /// with on-the-fly folds of still-retained tuples.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadBucket`] unless `bucket_ns` is a non-zero
    /// multiple of [`StoreConfig::rollup_bucket_ns`] (persisted cells
    /// must nest exactly into query buckets), plus any decode error.
    pub fn rollup(
        &self,
        series: &SeriesKey,
        field: &str,
        t0: u64,
        t1: u64,
        bucket_ns: u64,
    ) -> Result<Vec<RollupPoint>, StoreError> {
        let inner = self.inner.lock();
        let native = inner.cfg.rollup_bucket_ns;
        if bucket_ns == 0 || bucket_ns < native || !bucket_ns.is_multiple_of(native) {
            return Err(StoreError::BadBucket {
                requested_ns: bucket_ns,
                native_ns: native,
            });
        }
        let mut out: BTreeMap<u64, RollupPoint> = BTreeMap::new();
        let mut fold = |bucket_start: u64, apply: &dyn Fn(&mut RollupPoint)| {
            let p = out
                .entry(bucket_start)
                .or_insert_with(|| RollupPoint::empty(bucket_start, bucket_ns));
            apply(p);
        };
        let rollup_series = (series.clone(), field.to_string());
        for tier in [&inner.rollups, &inner.coarse] {
            if let Some(cells) = tier.get(&rollup_series) {
                for (&start, cell) in cells {
                    // Include a cell if it overlaps [t0, t1]. Coarse
                    // cells wider than `bucket_ns` fold into the query
                    // bucket containing their start (resolution below
                    // the sketch tier's width is gone by design).
                    if start <= t1 && start.saturating_add(cell.bucket_ns) > t0 {
                        fold(start - start % bucket_ns, &|p| p.merge(cell));
                    }
                }
            }
        }
        for tuple in inner.range(series, t0, t1)?.0 {
            let bucket = tuple.ts_ns - tuple.ts_ns % bucket_ns;
            match tuple.get(field) {
                Some(Value::Bytes(b)) => fold(bucket, &|p| {
                    p.fold_sketch(b);
                }),
                Some(v) => {
                    if let Some(v) = v.as_f64() {
                        fold(bucket, &|p| p.observe(v));
                    }
                }
                None => {}
            }
        }
        Ok(out.into_values().collect())
    }

    /// Every tuple the store has retained for a query, across all of
    /// its group series, sorted by timestamp — the durable counterpart
    /// of a finalized `ResultSet`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a resident frame of the query no
    /// longer passes its length or CRC check; decode errors on a frame
    /// that did (version skew).
    pub fn query_history(&self, query_id: u64) -> Result<Vec<DataTuple>, StoreError> {
        let inner = self.inner.lock();
        // The query's series, as a set of directory ids.
        let mut wanted = vec![false; inner.mem.len()];
        let first = SeriesKey::new(query_id, "");
        for (_, ms) in inner
            .mem
            .range(first..)
            .take_while(|(k, _)| k.query_id == query_id)
        {
            wanted[ms.id as usize] = true;
        }
        let mut out = Vec::new();
        let mut count = ScanCount::default();
        for seg in &inner.segments {
            inner.scan(
                seg,
                |s| wanted[s as usize],
                (0, u64::MAX),
                &mut count,
                |t| out.push(t),
            )?;
        }
        out.sort_by_key(|t| t.ts_ns);
        Ok(out)
    }

    /// All series the store currently knows about.
    pub fn series(&self) -> Vec<SeriesKey> {
        self.inner.lock().mem.keys().cloned().collect()
    }

    /// Tiered retention + compaction pass.
    ///
    /// Tier 1 (raw → rollup, gated on [`StoreConfig::retention_ns`]):
    /// sealed segments whose newest tuple is older than
    /// `now_ns - retention_ns` have every field of every tuple folded
    /// into native-bucket rollups (reusing the segment's cached fold
    /// when the history engine already built one), are deleted from
    /// disk, and dropped from memory.
    ///
    /// Tier 2 (rollup → sketch-only, gated on
    /// [`StoreConfig::rollup_retention_ns`]): native cells whose bucket
    /// closed before `now_ns - rollup_retention_ns` are merged into
    /// coarse cells of [`StoreConfig::coarse_bucket_ns`] width and the
    /// rollup log is rewritten so the demoted cells cannot resurrect on
    /// reload.
    ///
    /// A no-op when neither TTL is configured.
    ///
    /// # Errors
    ///
    /// Filesystem errors while persisting rollups or removing segment
    /// files; the fold happens before the drop, so an error never loses
    /// data that was not already summarised.
    pub fn compact(&self, now_ns: u64) -> Result<CompactionReport, StoreError> {
        let mut inner = self.inner.lock();
        let mut report = CompactionReport::default();
        let native = inner.cfg.rollup_bucket_ns;

        // Tier 1: raw segments fold into native rollup cells.
        let expired: Vec<usize> = match inner.cfg.retention_ns {
            Some(retention) => {
                let cutoff = now_ns.saturating_sub(retention);
                inner.segments[..inner.segments.len() - 1]
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.frames.is_empty() && s.max_ts < cutoff)
                    .map(|(i, _)| i)
                    .collect()
            }
            None => Vec::new(),
        };
        if !expired.is_empty() {
            let mut touched: BTreeMap<RollupSeries, Vec<u64>> = BTreeMap::new();
            for &i in &expired {
                inner.ensure_sealed_cells(i)?;
                let (cells, tuples) = inner.segments[i].cells.take().expect("sealed fold built");
                report.tuples_folded += tuples;
                for (key, buckets) in cells {
                    for (bucket, cell) in buckets {
                        // An all-empty cell (e.g. only undecodable
                        // sketch blobs) adds nothing; skip it so we do
                        // not persist noise.
                        if cell.count == 0 && cell.sketch.is_none() {
                            continue;
                        }
                        inner
                            .rollups
                            .entry(key.clone())
                            .or_default()
                            .entry(bucket)
                            .or_insert_with(|| RollupPoint::empty(bucket, native))
                            .merge(&cell);
                        let list = touched.entry(key.clone()).or_default();
                        if !list.contains(&bucket) {
                            list.push(bucket);
                        }
                    }
                }
            }

            // Persist the merged cells (last-wins supersedes older
            // records).
            let mut log = Vec::new();
            for ((series, field), buckets) in &touched {
                for bucket in buckets {
                    let cell = &inner.rollups[&(series.clone(), field.clone())][bucket];
                    let mut payload = Vec::new();
                    encode_rollup(&mut payload, series, field, cell);
                    write_frame(&mut log, &payload);
                    report.rollup_points_written += 1;
                }
            }
            if let Some(file) = &mut inner.rollup_file {
                file.write_all(&log)?;
            }

            // Drop the segments, newest index first so indices stay
            // valid.
            for &i in expired.iter().rev() {
                let seg = inner.segments.remove(i);
                if let Some(dir) = &inner.dir {
                    fs::remove_file(Segment::path(dir, seg.seq))?;
                }
                report.segments_dropped += 1;
            }
            inner.stats.segments_dropped += report.segments_dropped;
            inner.stats.compactions += 1;

            // Expired tuples may linger in memtables; evict them so
            // reads are consistent with the log.
            let cutoff = now_ns.saturating_sub(inner.cfg.retention_ns.unwrap_or(u64::MAX));
            for ms in inner.mem.values_mut() {
                while ms.tail.front().is_some_and(|t| t.ts_ns < cutoff) {
                    ms.tail.pop_front();
                }
            }

            if let Some(m) = &inner.metrics {
                m.compactions.inc();
                m.segments_dropped.add(report.segments_dropped);
            }
            if let Some(journal) = &inner.journal {
                journal.record(
                    now_ns,
                    None,
                    EventKind::RollupFolded,
                    format!(
                        "{} tuple(s) folded into {} rollup point(s); {} segment(s) dropped",
                        report.tuples_folded, report.rollup_points_written, report.segments_dropped
                    ),
                );
            }
        }

        // Tier 2: expired native cells demote into the coarse sketch
        // tier.
        if let Some(rollup_retention) = inner.cfg.rollup_retention_ns {
            let cutoff = now_ns.saturating_sub(rollup_retention);
            let coarse_ns = inner.cfg.coarse_bucket_ns();
            let Inner {
                rollups, coarse, ..
            } = &mut *inner;
            for (key, cells) in rollups.iter_mut() {
                let old: Vec<u64> = cells
                    .iter()
                    .filter(|(&start, cell)| start.saturating_add(cell.bucket_ns) <= cutoff)
                    .map(|(&start, _)| start)
                    .collect();
                for start in old {
                    let cell = cells.remove(&start).expect("listed above");
                    let cb = start - start % coarse_ns;
                    coarse
                        .entry(key.clone())
                        .or_default()
                        .entry(cb)
                        .or_insert_with(|| RollupPoint::empty(cb, coarse_ns))
                        .merge(&cell);
                    report.rollup_cells_demoted += 1;
                }
            }
            inner.rollups.retain(|_, cells| !cells.is_empty());
            if report.rollup_cells_demoted > 0 {
                inner.rewrite_rollup_log()?;
                if let Some(journal) = &inner.journal {
                    journal.record(
                        now_ns,
                        None,
                        EventKind::RollupFolded,
                        format!(
                            "{} native rollup cell(s) demoted into {} coarse cell(s)",
                            report.rollup_cells_demoted,
                            inner.coarse_points()
                        ),
                    );
                }
            }
        }

        inner.refresh_gauges();
        Ok(report)
    }

    /// Attaches a flight-recorder journal. From here on, every segment
    /// seal (log roll) records a `segment_sealed` event — stamped with
    /// the sealed segment's newest tuple timestamp — and every
    /// retention pass that folded or dropped anything records a
    /// `rollup_folded` event. Both happen on the append/compact control
    /// path, never per tuple.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        self.inner.lock().journal = Some(journal);
    }

    /// Registers this store's counters and gauges under `store.*` in a
    /// [`MetricsRegistry`]. Gauges reflect current state immediately;
    /// counters count from registration onward.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let mut inner = self.inner.lock();
        inner.metrics = Some(StoreMetrics {
            ingest_tuples: registry.counter("store.ingest_tuples", &[]),
            ingest_batches: registry.counter("store.ingest_batches", &[]),
            frames_read: registry.counter("store.frames_read", &[]),
            ingest_bytes: registry.counter("store.ingest_bytes", &[]),
            sink_flushes: registry.counter("store.sink_flushes", &[]),
            sink_skipped: registry.counter("store.sink_skipped", &[]),
            append_errors: registry.counter("store.append_errors", &[]),
            compactions: registry.counter("store.compactions", &[]),
            segments_dropped: registry.counter("store.segments_dropped", &[]),
            segments: registry.gauge("store.segments", &[]),
            series: registry.gauge("store.series", &[]),
            rollup_points: registry.gauge("store.rollup_points", &[]),
        });
        inner.refresh_gauges();
    }

    /// Called by sinks after flushing their buffers into the store.
    pub fn note_sink_flush(&self) {
        if let Some(m) = &self.inner.lock().metrics {
            m.sink_flushes.inc();
        }
    }

    /// Called by sinks when an append failed and the batch was dropped.
    pub fn note_append_error(&self) {
        let mut inner = self.inner.lock();
        inner.stats.append_errors += 1;
        if let Some(m) = &inner.metrics {
            m.append_errors.inc();
        }
    }

    /// Called by sinks when `n` malformed tuples were skipped rather
    /// than persisted.
    pub fn note_sink_skipped(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.stats.sink_skipped += n;
        if let Some(m) = &inner.metrics {
            m.sink_skipped.add(n);
        }
    }

    /// The configured native rollup bucket width in nanoseconds.
    pub fn native_bucket_ns(&self) -> u64 {
        self.inner.lock().cfg.rollup_bucket_ns
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            segments: inner.segments.len(),
            frames: inner.segments.iter().map(|s| s.frames.len() as u64).sum(),
            log_bytes: inner.segments.iter().map(|s| s.bytes.len() as u64).sum(),
            series: inner.mem.len(),
            rollup_points: inner.rollup_points(),
            coarse_points: inner.coarse_points(),
            ..inner.stats.clone()
        }
    }
}
