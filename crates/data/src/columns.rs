//! Columnar tuple batches: the hot-path record layout.
//!
//! A [`TupleBatch`] stores each record as a heap `String` source plus a
//! `Vec<(String, Value)>` — two allocations per field before a bolt ever
//! sees the data. A [`ColumnBatch`] stores the same records transposed:
//! one typed column per distinct `(field, type)` pair (`u64`/`i64`/`f64`
//! vectors, bit-packed bools, string/byte arenas), a presence bitmap per
//! column, and per-row *layouts* (deduplicated field sequences) that
//! make the transform lossless — field order, duplicate field names,
//! explicit nulls, and mixed types per name all survive a round trip.
//!
//! Field names are interned through the process-wide [`Schema`]
//! registry ([`FieldId`]); batches carry `u32` handles, not strings.
//! The wire format ships a per-batch name dictionary and re-interns on
//! decode, so frames are portable across processes.
//!
//! Frames open with a magic word `>= 0xFFFF_0000`. The row codec's
//! [`TupleBatch::decode`] reads that as an absurd tuple count and
//! rejects the frame, and [`ColumnBatch::decode`] rejects anything that
//! does not open with it — the two framings cannot be mistaken for one
//! another. Only column frames cross the queue.
//!
//! [`Schema`]: crate::Schema

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{
    need, put_str16, put_trace_ctx, put_u32, take_str16, take_trace_ctx, take_u32, CodecError,
    TRACE_CTX_FLAG,
};
use crate::schema::FieldId;
use crate::tuple::{DataTuple, TraceCtx, TupleBatch};
use crate::value::Value;

/// First four wire bytes of a columnar frame (little-endian). Any value
/// `>= 0xFFFF_0000` is unreachable as a row-codec batch tuple count,
/// which is what makes the two framings distinguishable.
pub const COLUMNAR_MAGIC: u32 = 0xFFFF_C01A;
const COLUMNAR_VERSION: u8 = 2;

/// Arena wire forms for string/bytes columns: `encode` picks whichever
/// is smaller per column.
const ARENA_PLAIN: u8 = 0;
const ARENA_DICT: u8 = 1;

/// Distinct-value ceiling for the dictionary scan. Past this the
/// column is effectively unique-valued and the scan stops paying.
const ARENA_DICT_MAX: usize = 4096;

/// One deduplicated per-row field sequence.
#[derive(Debug, Clone, PartialEq)]
struct Layout {
    /// `(field, value tag)` per position, in emission order.
    fields: Vec<(FieldId, u8)>,
    /// Column index backing each position.
    cols: Vec<u32>,
}

/// Typed storage of one column. Values are dense: entry `k` belongs to
/// the `k`-th row whose presence bit is set.
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    /// Explicit nulls: presence bits only.
    Null(usize),
    Bool(Vec<bool>),
    I64(Vec<i64>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Str {
        offsets: Vec<u32>,
        bytes: Vec<u8>,
    },
    Bytes {
        offsets: Vec<u32>,
        bytes: Vec<u8>,
    },
}

impl ColumnData {
    fn for_tag(tag: u8) -> ColumnData {
        match tag {
            0 => ColumnData::Null(0),
            1 => ColumnData::Bool(Vec::new()),
            2 => ColumnData::I64(Vec::new()),
            3 => ColumnData::U64(Vec::new()),
            4 => ColumnData::F64(Vec::new()),
            5 => ColumnData::Str {
                offsets: Vec::new(),
                bytes: Vec::new(),
            },
            6 => ColumnData::Bytes {
                offsets: Vec::new(),
                bytes: Vec::new(),
            },
            _ => unreachable!("value tags are 0..=6"),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Null(n) => *n,
            ColumnData::Bool(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str { offsets, .. } | ColumnData::Bytes { offsets, .. } => offsets.len(),
        }
    }

    /// Reconstructs the `k`-th stored value as an owned [`Value`].
    fn value_at(&self, k: usize) -> Value {
        fn slice<'a>(offsets: &[u32], bytes: &'a [u8], k: usize) -> &'a [u8] {
            let start = if k == 0 { 0 } else { offsets[k - 1] as usize };
            &bytes[start..offsets[k] as usize]
        }
        match self {
            ColumnData::Null(_) => Value::Null,
            ColumnData::Bool(v) => Value::Bool(v[k]),
            ColumnData::I64(v) => Value::I64(v[k]),
            ColumnData::U64(v) => Value::U64(v[k]),
            ColumnData::F64(v) => Value::F64(v[k]),
            ColumnData::Str { offsets, bytes } => Value::Str(
                std::str::from_utf8(slice(offsets, bytes, k))
                    .expect("column arena holds validated UTF-8")
                    .to_owned(),
            ),
            ColumnData::Bytes { offsets, bytes } => Value::Bytes(slice(offsets, bytes, k).to_vec()),
        }
    }
}

/// One typed column plus the bitmap of rows it covers.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    field: FieldId,
    tag: u8,
    /// Bit `r` set ⇔ row `r` holds a value in this column.
    presence: Vec<u64>,
    data: ColumnData,
}

/// FNV-1a: a tiny non-DoS-resistant hash. The dictionary scan hashes
/// attacker-free short keys on the encode hot path, where SipHash's
/// per-byte cost is the wrong trade.
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = Fnv;
    fn build_hasher(&self) -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

/// Writes a string/bytes arena, choosing per column between the plain
/// form (per-value offsets + concatenated bytes) and a dictionary form
/// (each distinct value once + per-value `u16` indices) — whichever is
/// smaller on the wire. Monitoring streams are heavily repetitive (one
/// URL, one user-agent, one status string across a whole batch), so the
/// dictionary routinely collapses a column to ~2 bytes per row.
fn put_arena(buf: &mut BytesMut, offsets: &[u32], bytes: &[u8]) {
    let n = offsets.len();
    let plain_cost = 4 * n + 4 + bytes.len();
    let mut dict: Vec<&[u8]> = Vec::new();
    let mut index: HashMap<&[u8], u16, FnvBuild> = HashMap::with_hasher(FnvBuild);
    let mut ids: Vec<u16> = Vec::with_capacity(n);
    let mut dict_bytes = 0usize;
    let mut viable = n >= 8; // tiny columns: not worth the scan
    let mut start = 0usize;
    // Homogeneous batches dominate the hot path, so runs of one value
    // bypass the map with a single slice compare. (per-batch scan)
    let mut last: Option<(&[u8], u16)> = None;
    for &end in offsets {
        if !viable {
            break;
        }
        let v = &bytes[start..end as usize];
        start = end as usize;
        if v.len() > u16::MAX as usize {
            viable = false;
            break;
        }
        let id = match last {
            Some((lv, lid)) if lv == v => lid,
            _ => {
                let next = dict.len() as u16;
                *index.entry(v).or_insert_with(|| {
                    dict_bytes += 2 + v.len();
                    dict.push(v);
                    next
                })
            }
        };
        last = Some((v, id));
        ids.push(id);
        if dict.len() > ARENA_DICT_MAX {
            // Effectively unique-valued: the dictionary can't pay.
            viable = false;
            break;
        }
    }
    let dict_cost = 2 + dict_bytes + 2 * n;
    if viable && dict_cost < plain_cost {
        buf.put_u8(ARENA_DICT);
        buf.put_u16_le(dict.len() as u16);
        for v in &dict {
            buf.put_u16_le(v.len() as u16);
            buf.put_slice(v);
        }
        for &id in &ids {
            buf.put_u16_le(id);
        }
    } else {
        buf.put_u8(ARENA_PLAIN);
        for &o in offsets {
            put_u32(buf, o);
        }
        assert!(bytes.len() <= u32::MAX as usize, "columnar arena limit");
        put_u32(buf, bytes.len() as u32);
        buf.put_slice(bytes);
    }
}

fn set_bit(bits: &mut Vec<u64>, row: usize) {
    let word = row / 64;
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1u64 << (row % 64);
}

fn popcount(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// A sealed batch of records in columnar form.
///
/// Build one with [`BatchBuilder`] (parsers write columns directly) or
/// convert from rows with [`ColumnBatch::from_batch`]; both directions
/// of the `TupleBatch` ⇄ `ColumnBatch` conversion are lossless.
///
/// # Examples
///
/// ```
/// use netalytics_data::{BatchBuilder, ColumnBatch, FieldId};
///
/// let bytes = FieldId::intern("bytes");
/// let mut b = BatchBuilder::new();
/// for i in 0..3u64 {
///     b.begin_row(i, i * 10, "http_get");
///     b.field_u64(bytes, 512 + i);
///     b.end_row();
/// }
/// let cols = b.finish();
/// assert_eq!(cols.u64s(bytes), Some(&[512, 513, 514][..]));
/// let mut frame = cols.encode();
/// let back = ColumnBatch::decode(&mut frame).unwrap();
/// assert_eq!(back.to_batch(), cols.to_batch());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnBatch {
    rows: usize,
    ids: Vec<u64>,
    ts: Vec<u64>,
    /// Per-row index into `source_names`.
    sources: Vec<u32>,
    source_names: Vec<String>,
    layouts: Vec<Layout>,
    /// Per-row index into `layouts`.
    row_layouts: Vec<u32>,
    columns: Vec<Column>,
    /// Trace context, present on the head-sampled subset of batches.
    trace: Option<TraceCtx>,
}

impl ColumnBatch {
    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of records (alias mirroring [`TupleBatch::len`]).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Flow ids, one per row (zero-copy).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Timestamps in nanoseconds, one per row (zero-copy).
    pub fn timestamps(&self) -> &[u64] {
        &self.ts
    }

    /// The trace context carried by this batch, if it was sampled.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Stamps (or clears) the trace context.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    fn find(&self, field: FieldId, tag: u8) -> Option<&Column> {
        self.columns
            .iter()
            .find(|c| c.field == field && c.tag == tag)
    }

    /// The dense `u64` values of `field` (first occurrence), in row
    /// order over the rows where the field is present. Zero-copy.
    pub fn u64s(&self, field: FieldId) -> Option<&[u64]> {
        match &self.find(field, 3)?.data {
            ColumnData::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The dense `i64` values of `field`, as [`ColumnBatch::u64s`].
    pub fn i64s(&self, field: FieldId) -> Option<&[i64]> {
        match &self.find(field, 2)?.data {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The dense `f64` values of `field`, as [`ColumnBatch::u64s`].
    pub fn f64s(&self, field: FieldId) -> Option<&[f64]> {
        match &self.find(field, 4)?.data {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string values of `field` as a zero-copy arena view.
    pub fn strs(&self, field: FieldId) -> Option<StrColumn<'_>> {
        match &self.find(field, 5)?.data {
            ColumnData::Str { offsets, bytes } => Some(StrColumn { offsets, bytes }),
            _ => None,
        }
    }

    /// Converts a row batch, interning every field name. Lossless: the
    /// result of [`ColumnBatch::to_batch`] equals the input.
    pub fn from_batch(batch: &TupleBatch) -> ColumnBatch {
        let mut b = BatchBuilder::new();
        // Per-call name cache so repeated fields hit the global interner
        // (and its lock) once per distinct name, not once per tuple.
        let mut names: HashMap<&str, FieldId> = HashMap::new();
        for t in batch.iter() {
            b.begin_row(t.id, t.ts_ns, &t.source);
            for (k, v) in &t.fields {
                let fid = *names
                    .entry(k.as_str())
                    .or_insert_with(|| FieldId::intern(k));
                b.field(fid, v);
            }
            b.end_row();
        }
        let mut cols = b.finish();
        cols.trace = batch.trace;
        cols
    }

    /// Reconstructs the row form. Field order, duplicate names, explicit
    /// nulls and per-row sources are all restored exactly.
    pub fn to_batch(&self) -> TupleBatch {
        // Shape per batch, values per row: each layout's names resolve
        // here, so the row loop never touches the schema registry.
        let names: Vec<Vec<&'static str>> = self
            .layouts
            .iter()
            // per-batch: one lookup per layout position
            .map(|l| l.fields.iter().map(|&(fid, _)| fid.name()).collect())
            .collect();
        let mut cursors = vec![0usize; self.columns.len()];
        let mut tuples = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let lidx = self.row_layouts[r] as usize;
            let fields = names[lidx]
                .iter()
                .zip(&self.layouts[lidx].cols)
                .map(|(&name, &cidx)| {
                    let k = cursors[cidx as usize];
                    cursors[cidx as usize] += 1;
                    (
                        name.to_owned(),
                        self.columns[cidx as usize].data.value_at(k),
                    )
                })
                .collect();
            tuples.push(DataTuple {
                id: self.ids[r],
                ts_ns: self.ts[r],
                source: self.source_names[self.sources[r] as usize].clone(),
                fields,
            });
        }
        let mut out = TupleBatch::from_tuples(tuples);
        out.trace = self.trace;
        out
    }

    /// Approximate encoded size in bytes, used for traffic accounting.
    pub fn wire_size(&self) -> usize {
        let mut n = 4 + 1 + 4; // magic, version, rows
        if self.trace.is_some() {
            n += 24;
        }
        n += 2 + self
            .columns
            .iter()
            .map(|c| 2 + c.field.name().len()) // per-batch: once per column
            .sum::<usize>();
        n += 2 + self.source_names.iter().map(|s| 2 + s.len()).sum::<usize>();
        n += self.rows * (8 + 8 + 2); // ids, ts, source idx
        n += 2 + self
            .layouts
            .iter()
            .map(|l| 2 + 3 * l.fields.len())
            .sum::<usize>();
        if self.layouts.len() > 1 {
            n += 2 * self.rows;
        }
        let presence_bytes = self.rows.div_ceil(8);
        n += 2;
        for c in &self.columns {
            n += 3 + 4 + presence_bytes;
            n += match &c.data {
                ColumnData::Null(_) => 0,
                ColumnData::Bool(v) => v.len().div_ceil(8),
                ColumnData::I64(v) => 8 * v.len(),
                ColumnData::U64(v) => 8 * v.len(),
                ColumnData::F64(v) => 8 * v.len(),
                ColumnData::Str { offsets, bytes } | ColumnData::Bytes { offsets, bytes } => {
                    // Upper bound: the plain arena form. A dictionary-
                    // compressed column encodes smaller than this.
                    1 + 4 * offsets.len() + 4 + bytes.len()
                }
            };
        }
        n
    }

    /// Encodes the batch as one self-describing columnar frame.
    ///
    /// # Panics
    ///
    /// Panics if a single batch exceeds a wire limit: `u32::MAX` rows,
    /// or more than `u16::MAX` distinct fields, sources, layouts or
    /// columns. Real batches are a few thousand rows of a handful of
    /// fields.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        put_u32(&mut buf, COLUMNAR_MAGIC);
        buf.put_u8(COLUMNAR_VERSION);
        // The top bit of the rows word flags a trailing trace context,
        // exactly like the legacy batch count word.
        assert!(
            self.rows < TRACE_CTX_FLAG as usize,
            "columnar frame row limit"
        );
        let mut rows_word = self.rows as u32;
        if self.trace.is_some() {
            rows_word |= TRACE_CTX_FLAG;
        }
        put_u32(&mut buf, rows_word);
        if let Some(ctx) = &self.trace {
            put_trace_ctx(&mut buf, ctx);
        }

        // Field-name dictionary, in first-use column order. Layout field
        // sets are always a subset of column field sets by construction.
        let mut dict: Vec<FieldId> = Vec::new();
        let mut dict_idx: HashMap<FieldId, u16> = HashMap::new();
        for c in &self.columns {
            dict_idx.entry(c.field).or_insert_with(|| {
                dict.push(c.field);
                assert!(dict.len() <= u16::MAX as usize, "columnar field limit");
                (dict.len() - 1) as u16
            });
        }
        buf.put_u16_le(dict.len() as u16);
        for fid in &dict {
            put_str16(&mut buf, fid.name()); // per-batch: once per distinct field
        }

        assert!(
            self.source_names.len() <= u16::MAX as usize,
            "columnar source limit"
        );
        buf.put_u16_le(self.source_names.len() as u16);
        for s in &self.source_names {
            put_str16(&mut buf, s);
        }

        for &id in &self.ids {
            buf.put_u64_le(id);
        }
        for &ts in &self.ts {
            buf.put_u64_le(ts);
        }
        for &s in &self.sources {
            buf.put_u16_le(s as u16);
        }

        assert!(
            self.layouts.len() <= u16::MAX as usize,
            "columnar layout limit"
        );
        buf.put_u16_le(self.layouts.len() as u16);
        for l in &self.layouts {
            assert!(
                l.fields.len() <= u16::MAX as usize,
                "columnar layout width limit"
            );
            buf.put_u16_le(l.fields.len() as u16);
            for &(fid, tag) in &l.fields {
                buf.put_u16_le(dict_idx[&fid]);
                buf.put_u8(tag);
            }
        }
        if self.layouts.len() > 1 {
            for &l in &self.row_layouts {
                buf.put_u16_le(l as u16);
            }
        }

        assert!(
            self.columns.len() <= u16::MAX as usize,
            "columnar column limit"
        );
        buf.put_u16_le(self.columns.len() as u16);
        let presence_bytes = self.rows.div_ceil(8);
        for c in &self.columns {
            buf.put_u16_le(dict_idx[&c.field]);
            buf.put_u8(c.tag);
            let n = c.data.len();
            assert!(n <= u32::MAX as usize, "columnar value limit");
            put_u32(&mut buf, n as u32);
            for j in 0..presence_bytes {
                let word = j / 8;
                let shift = (j % 8) * 8;
                let byte = c.presence.get(word).map_or(0u8, |w| (w >> shift) as u8);
                buf.put_u8(byte);
            }
            match &c.data {
                ColumnData::Null(_) => {}
                ColumnData::Bool(v) => {
                    let mut byte = 0u8;
                    for (i, &b) in v.iter().enumerate() {
                        if b {
                            byte |= 1 << (i % 8);
                        }
                        if i % 8 == 7 {
                            buf.put_u8(byte);
                            byte = 0;
                        }
                    }
                    if v.len() % 8 != 0 {
                        buf.put_u8(byte);
                    }
                }
                ColumnData::I64(v) => {
                    for &x in v {
                        buf.put_i64_le(x);
                    }
                }
                ColumnData::U64(v) => {
                    for &x in v {
                        buf.put_u64_le(x);
                    }
                }
                ColumnData::F64(v) => {
                    for &x in v {
                        buf.put_f64_le(x);
                    }
                }
                ColumnData::Str { offsets, bytes } | ColumnData::Bytes { offsets, bytes } => {
                    put_arena(&mut buf, offsets, bytes);
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a frame produced by [`ColumnBatch::encode`], re-interning
    /// the shipped field-name dictionary.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation, a wrong magic/version, or
    /// any structural inconsistency (dangling dictionary index, layout
    /// referencing a missing column, presence/value count mismatch).
    pub fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        if take_u32(buf)? != COLUMNAR_MAGIC {
            return Err(CodecError::Corrupt("not a columnar frame"));
        }
        need(buf, 1, "columnar version")?;
        if buf.get_u8() != COLUMNAR_VERSION {
            return Err(CodecError::Corrupt("unknown columnar version"));
        }
        let raw_rows = take_u32(buf)?;
        let trace = if raw_rows & TRACE_CTX_FLAG != 0 {
            Some(take_trace_ctx(buf)?)
        } else {
            None
        };
        let rows = (raw_rows & !TRACE_CTX_FLAG) as usize;
        // Every row costs >= 18 bytes of fixed arrays below.
        if rows as u64 * 18 > buf.len() as u64 {
            return Err(CodecError::Corrupt("row count exceeds payload"));
        }

        need(buf, 2, "field dictionary size")?;
        let nfields = buf.get_u16_le() as usize;
        let mut dict = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            dict.push(FieldId::intern(&take_str16(buf)?));
        }

        need(buf, 2, "source dictionary size")?;
        let nsources = buf.get_u16_le() as usize;
        let mut source_names = Vec::with_capacity(nsources);
        for _ in 0..nsources {
            source_names.push(take_str16(buf)?);
        }

        need(buf, 8 * rows, "row ids")?;
        let ids: Vec<u64> = (0..rows).map(|_| buf.get_u64_le()).collect();
        need(buf, 8 * rows, "row timestamps")?;
        let ts: Vec<u64> = (0..rows).map(|_| buf.get_u64_le()).collect();
        need(buf, 2 * rows, "row sources")?;
        let mut sources = Vec::with_capacity(rows);
        for _ in 0..rows {
            let s = buf.get_u16_le() as u32;
            if s as usize >= source_names.len() {
                return Err(CodecError::Corrupt("row source out of dictionary"));
            }
            sources.push(s);
        }

        need(buf, 2, "layout count")?;
        let nlayouts = buf.get_u16_le() as usize;
        if nlayouts == 0 && rows > 0 {
            return Err(CodecError::Corrupt("rows without layouts"));
        }
        let mut layout_fields: Vec<Vec<(FieldId, u8)>> = Vec::with_capacity(nlayouts);
        for _ in 0..nlayouts {
            need(buf, 2, "layout width")?;
            let w = buf.get_u16_le() as usize;
            need(buf, 3 * w, "layout fields")?;
            let mut fields = Vec::with_capacity(w);
            for _ in 0..w {
                let fidx = buf.get_u16_le() as usize;
                let tag = buf.get_u8();
                if fidx >= dict.len() {
                    return Err(CodecError::Corrupt("layout field out of dictionary"));
                }
                if tag > 6 {
                    return Err(CodecError::Corrupt("unknown value tag"));
                }
                fields.push((dict[fidx], tag));
            }
            layout_fields.push(fields);
        }
        let row_layouts: Vec<u32> = if nlayouts > 1 {
            need(buf, 2 * rows, "row layouts")?;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                let l = buf.get_u16_le() as u32;
                if l as usize >= nlayouts {
                    return Err(CodecError::Corrupt("row layout out of range"));
                }
                v.push(l);
            }
            v
        } else {
            vec![0; rows]
        };

        need(buf, 2, "column count")?;
        let ncols = buf.get_u16_le() as usize;
        let presence_bytes = rows.div_ceil(8);
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            need(buf, 3, "column header")?;
            let fidx = buf.get_u16_le() as usize;
            let tag = buf.get_u8();
            if fidx >= dict.len() {
                return Err(CodecError::Corrupt("column field out of dictionary"));
            }
            if tag > 6 {
                return Err(CodecError::Corrupt("unknown value tag"));
            }
            let n = take_u32(buf)? as usize;
            if n > rows {
                return Err(CodecError::Corrupt("column holds more values than rows"));
            }
            need(buf, presence_bytes, "column presence")?;
            let mut presence = vec![0u64; rows.div_ceil(64)];
            for j in 0..presence_bytes {
                let byte = buf.get_u8() as u64;
                presence[j / 8] |= byte << ((j % 8) * 8);
            }
            if popcount(&presence) != n {
                return Err(CodecError::Corrupt("presence bits disagree with count"));
            }
            let data = match tag {
                0 => ColumnData::Null(n),
                1 => {
                    let nbytes = n.div_ceil(8);
                    need(buf, nbytes, "bool column")?;
                    let mut v = Vec::with_capacity(n);
                    let mut byte = 0u8;
                    for i in 0..n {
                        if i % 8 == 0 {
                            byte = buf.get_u8();
                        }
                        v.push(byte & (1 << (i % 8)) != 0);
                    }
                    ColumnData::Bool(v)
                }
                2 => {
                    need(buf, 8 * n, "i64 column")?;
                    ColumnData::I64((0..n).map(|_| buf.get_i64_le()).collect())
                }
                3 => {
                    need(buf, 8 * n, "u64 column")?;
                    ColumnData::U64((0..n).map(|_| buf.get_u64_le()).collect())
                }
                4 => {
                    need(buf, 8 * n, "f64 column")?;
                    ColumnData::F64((0..n).map(|_| buf.get_f64_le()).collect())
                }
                5 | 6 => {
                    need(buf, 1, "arena encoding")?;
                    let (offsets, bytes) = match buf.get_u8() {
                        ARENA_PLAIN => {
                            need(buf, 4 * n, "arena offsets")?;
                            let offsets: Vec<u32> = (0..n).map(|_| buf.get_u32_le()).collect();
                            let total = take_u32(buf)? as usize;
                            if offsets.last().is_some_and(|&last| last as usize != total)
                                || offsets.windows(2).any(|w| w[0] > w[1])
                                || (n == 0 && total != 0)
                            {
                                return Err(CodecError::Corrupt("arena offsets inconsistent"));
                            }
                            need(buf, total, "arena bytes")?;
                            (offsets, buf.split_to(total).to_vec())
                        }
                        ARENA_DICT => {
                            need(buf, 2, "arena dictionary size")?;
                            let ndict = buf.get_u16_le() as usize;
                            let mut entries: Vec<Vec<u8>> = Vec::with_capacity(ndict);
                            for _ in 0..ndict {
                                need(buf, 2, "arena dictionary entry length")?;
                                let len = buf.get_u16_le() as usize;
                                need(buf, len, "arena dictionary entry")?;
                                entries.push(buf.split_to(len).to_vec());
                            }
                            need(buf, 2 * n, "arena indices")?;
                            let mut ids = Vec::with_capacity(n);
                            let mut total = 0u64;
                            for _ in 0..n {
                                let id = buf.get_u16_le() as usize;
                                let v = entries
                                    .get(id)
                                    .ok_or(CodecError::Corrupt("arena index out of dictionary"))?;
                                total += v.len() as u64;
                                ids.push(id);
                            }
                            if total > u32::MAX as u64 {
                                return Err(CodecError::Corrupt("arena overflow"));
                            }
                            let mut offsets = Vec::with_capacity(n);
                            let mut bytes = Vec::with_capacity(total as usize);
                            for id in ids {
                                bytes.extend_from_slice(&entries[id]);
                                offsets.push(bytes.len() as u32);
                            }
                            (offsets, bytes)
                        }
                        _ => return Err(CodecError::Corrupt("unknown arena encoding")),
                    };
                    if tag == 5 {
                        // Validate every value slice, not just the arena:
                        // a corrupt offset could split a multi-byte char.
                        let mut start = 0usize;
                        for &end in &offsets {
                            if std::str::from_utf8(&bytes[start..end as usize]).is_err() {
                                return Err(CodecError::InvalidUtf8);
                            }
                            start = end as usize;
                        }
                        ColumnData::Str { offsets, bytes }
                    } else {
                        ColumnData::Bytes { offsets, bytes }
                    }
                }
                _ => unreachable!("tag validated above"),
            };
            columns.push(Column {
                field: dict[fidx],
                tag,
                presence,
                data,
            });
        }

        // Rebuild each layout's column mapping: the k-th column sharing
        // a (field, tag) pair serves the k-th occurrence in a row.
        let mut occ_map: HashMap<(FieldId, u8, usize), u32> = HashMap::new();
        let mut occ_count: HashMap<(FieldId, u8), usize> = HashMap::new();
        for (i, c) in columns.iter().enumerate() {
            let occ = occ_count.entry((c.field, c.tag)).or_insert(0);
            occ_map.insert((c.field, c.tag, *occ), i as u32);
            *occ += 1;
        }
        let mut layouts = Vec::with_capacity(nlayouts);
        for fields in layout_fields {
            let mut cols = Vec::with_capacity(fields.len());
            for (pos, &(fid, tag)) in fields.iter().enumerate() {
                let occ = fields[..pos]
                    .iter()
                    .filter(|&&(f, t)| f == fid && t == tag)
                    .count();
                match occ_map.get(&(fid, tag, occ)) {
                    Some(&c) => cols.push(c),
                    None => return Err(CodecError::Corrupt("layout references missing column")),
                }
            }
            layouts.push(Layout { fields, cols });
        }

        // Cross-check: the number of (row, position) references into each
        // column must equal its value count, so row reconstruction can
        // never run a cursor off the end.
        let mut layout_rows = vec![0usize; nlayouts];
        for &l in &row_layouts {
            layout_rows[l as usize] += 1;
        }
        let mut refs = vec![0usize; columns.len()];
        for (l, layout) in layouts.iter().enumerate() {
            for &c in &layout.cols {
                refs[c as usize] += layout_rows[l];
            }
        }
        for (c, col) in columns.iter().enumerate() {
            if refs[c] != col.data.len() {
                return Err(CodecError::Corrupt(
                    "layout references disagree with column",
                ));
            }
        }

        Ok(ColumnBatch {
            rows,
            ids,
            ts,
            sources,
            source_names,
            layouts,
            row_layouts,
            columns,
            trace,
        })
    }
}

impl From<&TupleBatch> for ColumnBatch {
    fn from(batch: &TupleBatch) -> Self {
        ColumnBatch::from_batch(batch)
    }
}

/// Zero-copy view of one string column: an arena plus end offsets.
#[derive(Debug, Clone, Copy)]
pub struct StrColumn<'a> {
    offsets: &'a [u32],
    bytes: &'a [u8],
}

impl<'a> StrColumn<'a> {
    /// Number of strings in the column.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if the column holds no strings.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The `k`-th string, borrowed straight from the arena.
    pub fn get(&self, k: usize) -> Option<&'a str> {
        if k >= self.offsets.len() {
            return None;
        }
        let start = if k == 0 {
            0
        } else {
            self.offsets[k - 1] as usize
        };
        let end = self.offsets[k] as usize;
        Some(std::str::from_utf8(&self.bytes[start..end]).expect("validated UTF-8"))
    }

    /// Iterates the strings in value order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> {
        let this = *self;
        (0..this.len()).map(move |k| this.get(k).unwrap())
    }
}

/// Streaming writer that builds a [`ColumnBatch`] row by row, appending
/// values straight into typed columns — no intermediate [`DataTuple`].
///
/// Call [`begin_row`](BatchBuilder::begin_row), any number of `field_*`
/// appends, then [`end_row`](BatchBuilder::end_row);
/// [`finish`](BatchBuilder::finish) seals the batch and resets the
/// builder for reuse (allocation maps are retained).
#[derive(Default)]
pub struct BatchBuilder {
    rows: usize,
    ids: Vec<u64>,
    ts: Vec<u64>,
    sources: Vec<u32>,
    source_names: Vec<String>,
    layouts: Vec<Layout>,
    row_layouts: Vec<u32>,
    columns: Vec<Column>,
    source_index: HashMap<String, u32>,
    layout_index: HashMap<Vec<(FieldId, u8)>, u32>,
    column_index: HashMap<(FieldId, u8, usize), u32>,
    cur_sig: Vec<(FieldId, u8)>,
    cur_cols: Vec<u32>,
    /// The previous row's layout for as long as the open row has matched
    /// it position by position: shape is resolved per batch, and a row
    /// that follows its predecessor hashes nothing.
    follow: Option<u32>,
    in_row: bool,
}

impl BatchBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows completed so far (excluding any open row).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if no row has been completed yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Opens a new row with the given flow id, timestamp and source.
    ///
    /// # Panics
    ///
    /// Panics if the previous row was not closed with
    /// [`end_row`](BatchBuilder::end_row).
    pub fn begin_row(&mut self, id: u64, ts_ns: u64, source: &str) {
        assert!(!self.in_row, "begin_row while a row is open");
        self.in_row = true;
        self.ids.push(id);
        self.ts.push(ts_ns);
        let sidx = match self.sources.last() {
            Some(&i) if self.source_names[i as usize] == source => i,
            _ => match self.source_index.get(source) {
                Some(&i) => i,
                None => {
                    let i = self.source_names.len() as u32;
                    self.source_names.push(source.to_owned());
                    self.source_index.insert(source.to_owned(), i);
                    i
                }
            },
        };
        self.sources.push(sidx);
        self.cur_sig.clear();
        self.cur_cols.clear();
        self.follow = self.row_layouts.last().copied();
    }

    fn column_for(&mut self, field: FieldId, tag: u8) -> usize {
        let pos = self.cur_sig.len();
        let followed = self.follow.and_then(|l| {
            let layout = &self.layouts[l as usize];
            (layout.fields.get(pos) == Some(&(field, tag))).then(|| layout.cols[pos])
        });
        let cidx = match followed {
            Some(c) => c,
            None => {
                // The row left its predecessor's layout (or has none):
                // resolve this and every later position by hash.
                self.follow = None;
                // Occurrence = how many times this (field, tag) already
                // appeared in the open row; duplicates land in distinct
                // columns.
                let occ = self
                    .cur_sig
                    .iter()
                    .filter(|&&(f, t)| f == field && t == tag)
                    .count();
                match self.column_index.get(&(field, tag, occ)) {
                    Some(&c) => c,
                    None => {
                        let c = self.columns.len() as u32;
                        self.columns.push(Column {
                            field,
                            tag,
                            presence: Vec::new(),
                            data: ColumnData::for_tag(tag),
                        });
                        self.column_index.insert((field, tag, occ), c);
                        c
                    }
                }
            }
        };
        self.cur_sig.push((field, tag));
        self.cur_cols.push(cidx);
        let row = self.rows;
        set_bit(&mut self.columns[cidx as usize].presence, row);
        cidx as usize
    }

    /// Appends an explicit null.
    pub fn field_null(&mut self, field: FieldId) {
        let c = self.column_for(field, 0);
        if let ColumnData::Null(n) = &mut self.columns[c].data {
            *n += 1;
        }
    }

    /// Appends a boolean value.
    pub fn field_bool(&mut self, field: FieldId, v: bool) {
        let c = self.column_for(field, 1);
        if let ColumnData::Bool(vec) = &mut self.columns[c].data {
            vec.push(v);
        }
    }

    /// Appends a signed integer value.
    pub fn field_i64(&mut self, field: FieldId, v: i64) {
        let c = self.column_for(field, 2);
        if let ColumnData::I64(vec) = &mut self.columns[c].data {
            vec.push(v);
        }
    }

    /// Appends an unsigned integer value.
    pub fn field_u64(&mut self, field: FieldId, v: u64) {
        let c = self.column_for(field, 3);
        if let ColumnData::U64(vec) = &mut self.columns[c].data {
            vec.push(v);
        }
    }

    /// Appends a float value.
    pub fn field_f64(&mut self, field: FieldId, v: f64) {
        let c = self.column_for(field, 4);
        if let ColumnData::F64(vec) = &mut self.columns[c].data {
            vec.push(v);
        }
    }

    /// Appends a string value into the column's arena — no per-value
    /// allocation.
    pub fn field_str(&mut self, field: FieldId, s: &str) {
        let c = self.column_for(field, 5);
        if let ColumnData::Str { offsets, bytes } = &mut self.columns[c].data {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len() as u32);
        }
    }

    /// Appends a byte-blob value into the column's arena.
    pub fn field_bytes(&mut self, field: FieldId, b: &[u8]) {
        let c = self.column_for(field, 6);
        if let ColumnData::Bytes { offsets, bytes } = &mut self.columns[c].data {
            bytes.extend_from_slice(b);
            offsets.push(bytes.len() as u32);
        }
    }

    /// Appends any [`Value`] by dispatching on its variant.
    pub fn field(&mut self, field: FieldId, v: &Value) {
        match v {
            Value::Null => self.field_null(field),
            Value::Bool(b) => self.field_bool(field, *b),
            Value::I64(x) => self.field_i64(field, *x),
            Value::U64(x) => self.field_u64(field, *x),
            Value::F64(x) => self.field_f64(field, *x),
            Value::Str(s) => self.field_str(field, s),
            Value::Bytes(b) => self.field_bytes(field, b),
        }
    }

    /// Closes the open row, deduplicating its layout.
    ///
    /// # Panics
    ///
    /// Panics if no row is open.
    pub fn end_row(&mut self) {
        assert!(self.in_row, "end_row without begin_row");
        self.in_row = false;
        // A followed layout is this row's only if the row did not stop
        // short of it.
        let followed = self
            .follow
            .filter(|&l| self.layouts[l as usize].fields.len() == self.cur_sig.len());
        let lidx = match followed {
            Some(l) => l,
            None => match self.layout_index.get(&self.cur_sig) {
                Some(&l) => l,
                None => {
                    let l = self.layouts.len() as u32;
                    self.layouts.push(Layout {
                        fields: self.cur_sig.clone(),
                        cols: self.cur_cols.clone(),
                    });
                    self.layout_index.insert(self.cur_sig.clone(), l);
                    l
                }
            },
        };
        self.row_layouts.push(lidx);
        self.rows += 1;
    }

    /// Seals and returns the batch, resetting the builder for reuse.
    ///
    /// # Panics
    ///
    /// Panics if a row is still open.
    pub fn finish(&mut self) -> ColumnBatch {
        assert!(!self.in_row, "finish with a row open");
        self.source_index.clear();
        self.layout_index.clear();
        self.column_index.clear();
        ColumnBatch {
            rows: std::mem::take(&mut self.rows),
            ids: std::mem::take(&mut self.ids),
            ts: std::mem::take(&mut self.ts),
            sources: std::mem::take(&mut self.sources),
            source_names: std::mem::take(&mut self.source_names),
            layouts: std::mem::take(&mut self.layouts),
            row_layouts: std::mem::take(&mut self.row_layouts),
            columns: std::mem::take(&mut self.columns),
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> TupleBatch {
        vec![
            DataTuple::new(1, 10)
                .from_source("http_get")
                .with("url", "/a.html")
                .with("bytes", 512u64)
                .with("rt", 1.5),
            DataTuple::new(2, 20)
                .from_source("http_get")
                .with("url", "/b.html")
                .with("bytes", 256u64)
                .with("rt", 2.5),
            DataTuple::new(3, 30)
                .from_source("dns")
                .with("qname", "x.example")
                .with("none", Value::Null)
                .with("ok", true)
                .with("delta", -4i64)
                .with("blob", vec![1u8, 2, 3]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn row_column_roundtrip_is_identity() {
        let batch = sample_batch();
        let cols = ColumnBatch::from_batch(&batch);
        assert_eq!(cols.rows(), 3);
        assert_eq!(cols.to_batch(), batch);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = TupleBatch::new();
        let cols = ColumnBatch::from_batch(&batch);
        assert!(cols.is_empty());
        assert_eq!(cols.to_batch(), batch);
        let mut frame = cols.encode();
        let back = ColumnBatch::decode(&mut frame).unwrap();
        assert_eq!(back.to_batch(), batch);
    }

    #[test]
    fn duplicate_and_mixed_type_fields_survive() {
        let batch: TupleBatch = vec![DataTuple::new(9, 1)
            .from_source("weird")
            .with("k", "first")
            .with("k", "second")
            .with("k", 7u64)
            .with("k", Value::Null)]
        .into_iter()
        .collect();
        let cols = ColumnBatch::from_batch(&batch);
        assert_eq!(cols.to_batch(), batch);
        let mut frame = cols.encode();
        let back = ColumnBatch::decode(&mut frame).unwrap();
        assert_eq!(back.to_batch(), batch);
    }

    #[test]
    fn wire_roundtrip_preserves_rows() {
        let batch = sample_batch();
        let cols = ColumnBatch::from_batch(&batch);
        let mut frame = cols.encode();
        assert_eq!(frame[..4], COLUMNAR_MAGIC.to_le_bytes());
        let back = ColumnBatch::decode(&mut frame).unwrap();
        assert!(frame.is_empty(), "decode consumes the whole frame");
        assert_eq!(back.to_batch(), batch);
    }

    #[test]
    fn trace_context_survives_conversion_and_wire() {
        let mut batch = sample_batch();
        batch.trace = Some(TraceCtx {
            cookie: 3,
            batch_id: 99,
            born_ns: 10,
        });
        let cols = ColumnBatch::from_batch(&batch);
        assert_eq!(cols.trace(), batch.trace, "from_batch carries the context");
        assert_eq!(cols.to_batch(), batch, "to_batch restores it");
        let mut frame = cols.encode();
        let back = ColumnBatch::decode(&mut frame).unwrap();
        assert_eq!(back.trace(), batch.trace, "wire roundtrip preserves it");
        assert_eq!(back.to_batch(), batch);
    }

    #[test]
    fn untraced_columnar_frame_has_no_trace_flag() {
        let cols = ColumnBatch::from_batch(&sample_batch());
        let frame = cols.encode();
        // Bytes 5..9 are the rows word; the trace flag must be clear.
        let rows_word = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
        assert_eq!(rows_word, 3);
    }

    #[test]
    fn legacy_decoder_rejects_columnar_frames() {
        let cols = ColumnBatch::from_batch(&sample_batch());
        let mut frame = cols.encode();
        assert!(TupleBatch::decode(&mut frame.clone()).is_err());
        assert!(ColumnBatch::decode(&mut frame).is_ok());
    }

    #[test]
    fn columnar_decoder_rejects_legacy_frames() {
        let mut frame = sample_batch().encode();
        assert_eq!(
            ColumnBatch::decode(&mut frame),
            Err(CodecError::Corrupt("not a columnar frame"))
        );
    }

    #[test]
    fn accessors_expose_typed_slices() {
        let cols = ColumnBatch::from_batch(&sample_batch());
        let bytes = FieldId::intern("bytes");
        let rt = FieldId::intern("rt");
        let url = FieldId::intern("url");
        assert_eq!(cols.u64s(bytes), Some(&[512, 256][..]));
        assert_eq!(cols.f64s(rt), Some(&[1.5, 2.5][..]));
        let urls: Vec<&str> = cols.strs(url).unwrap().iter().collect();
        assert_eq!(urls, ["/a.html", "/b.html"]);
        assert_eq!(cols.ids(), &[1, 2, 3]);
        assert_eq!(cols.timestamps(), &[10, 20, 30]);
        assert_eq!(cols.u64s(FieldId::intern("columns_test_absent")), None);
    }

    #[test]
    fn builder_writes_columns_directly() {
        let url = FieldId::intern("url");
        let n = FieldId::intern("n");
        let mut b = BatchBuilder::new();
        for i in 0..70u64 {
            b.begin_row(i, i, "gen");
            b.field_str(url, if i % 2 == 0 { "/even" } else { "/odd" });
            b.field_u64(n, i);
            b.end_row();
        }
        let cols = b.finish();
        assert_eq!(cols.rows(), 70);
        assert_eq!(cols.u64s(n).unwrap().len(), 70);
        // Builder is reusable after finish.
        assert!(b.is_empty());
        b.begin_row(0, 0, "gen");
        b.field_u64(n, 1);
        b.end_row();
        assert_eq!(b.finish().rows(), 1);
        // One layout -> no per-row layout table on the wire, still decodes.
        let mut frame = cols.encode();
        let back = ColumnBatch::decode(&mut frame).unwrap();
        assert_eq!(back.to_batch(), cols.to_batch());
    }

    #[test]
    fn remembered_layout_builds_what_hashing_builds() {
        let (a, b, c) = (
            FieldId::intern("a"),
            FieldId::intern("b"),
            FieldId::intern("c"),
        );
        // Shapes that keep, cut, extend and bend one another: prefixes,
        // a type change mid-row, a repeated name, an explicit null.
        let shapes: [&[(FieldId, Value)]; 8] = [
            &[],
            &[(a, Value::U64(1))],
            &[(a, Value::U64(2)), (b, Value::Str("x".into()))],
            &[(a, Value::U64(3)), (b, Value::U64(4))],
            &[(a, Value::U64(5)), (a, Value::U64(6))],
            &[
                (a, Value::U64(7)),
                (b, Value::Str("y".into())),
                (c, Value::Null),
            ],
            &[(b, Value::Str("z".into()))],
            &[(a, Value::Str("w".into()))],
        ];
        // One builder per side, reused across every sequence: `finish`
        // must leave nothing of the last batch's layouts behind.
        let mut builders = [BatchBuilder::new(), BatchBuilder::new()];
        let n = shapes.len();
        for seq in 0..n.pow(4) {
            let rows: Vec<usize> = (0..4).map(|i| seq / n.pow(i) % n).collect();
            let [followed, hashed] = [false, true].map(|force_hash| {
                let builder = &mut builders[usize::from(force_hash)];
                for (r, &shape) in rows.iter().enumerate() {
                    let source = if shape % 2 == 0 { "even" } else { "odd" };
                    builder.begin_row(r as u64, r as u64, source);
                    if force_hash {
                        builder.follow = None;
                    }
                    for (fid, v) in shapes[shape] {
                        builder.field(*fid, v);
                    }
                    builder.end_row();
                }
                builder.finish()
            });
            assert_eq!(followed, hashed, "rows {rows:?}");
            assert_eq!(followed.encode(), hashed.encode(), "rows {rows:?}");
        }
    }

    #[test]
    fn truncated_frames_are_errors() {
        let cols = ColumnBatch::from_batch(&sample_batch());
        let enc = cols.encode();
        for cut in 0..enc.len() {
            let mut b = enc.slice(..cut);
            assert!(
                ColumnBatch::decode(&mut b).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn wire_size_tracks_encoded_size() {
        let cols = ColumnBatch::from_batch(&sample_batch());
        let enc = cols.encode();
        let est = cols.wire_size();
        assert!(est >= enc.len() / 2 && est <= enc.len() * 2);
    }

    #[test]
    fn repetitive_string_columns_dictionary_compress() {
        let repetitive: TupleBatch = (0..128u64)
            .map(|i| {
                DataTuple::new(i, i)
                    .from_source("http_get")
                    .with("url", if i % 2 == 0 { "/a" } else { "/b" })
            })
            .collect();
        let unique: TupleBatch = (0..128u64)
            .map(|i| {
                DataTuple::new(i, i)
                    .from_source("http_get")
                    .with("url", format!("/page/{i}/{}", i * 7919))
            })
            .collect();
        for batch in [&repetitive, &unique] {
            let cols = ColumnBatch::from_batch(batch);
            let mut frame = cols.encode();
            let back = ColumnBatch::decode(&mut frame).unwrap();
            assert_eq!(back.to_batch(), *batch, "arena forms roundtrip exactly");
        }
        let rep_frame = ColumnBatch::from_batch(&repetitive).encode().len();
        let uniq_frame = ColumnBatch::from_batch(&unique).encode().len();
        // Two distinct values across 128 rows: the dictionary holds both
        // once and spends 2 bytes per row, where the plain arena spends
        // 4 offset bytes plus the value bytes — over 1.5 KiB apart here
        // (both frames share ~2.3 KiB of fixed id/ts/source arrays).
        assert!(
            rep_frame + 1500 < uniq_frame,
            "dictionary form ({rep_frame}B) beats plain ({uniq_frame}B)"
        );
    }

    #[test]
    fn columnar_frames_are_smaller_than_row_frames() {
        // Homogeneous batches (the hot-path shape) shed the per-tuple
        // field-name and source repetition.
        let batch: TupleBatch = (0..256u64)
            .map(|i| {
                DataTuple::new(i, i)
                    .from_source("http_get")
                    .with("url", "/index.html")
                    .with("bytes", 512u64)
                    .with("rt_ms", 1.25)
            })
            .collect();
        let row = batch.encode().len();
        let col = ColumnBatch::from_batch(&batch).encode().len();
        assert!(
            col * 2 < row,
            "columnar frame ({col}B) should be under half the row frame ({row}B)"
        );
    }
}
