//! Data tuples: the records monitors emit and analytics engines process.

use std::fmt;

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::codec::{self, CodecError, Decode, Encode};
use crate::value::Value;

/// A single record emitted by a parser (paper §3.1).
///
/// The first element of each tuple is an *ID field*, usually the hash of the
/// packet n-tuple, which lets downstream processors join information from
/// multiple parsers about the same flow. The timestamp is virtual (emulated
/// plane) or wall-clock nanoseconds (threaded plane).
///
/// # Examples
///
/// ```
/// use netalytics_data::{DataTuple, Value};
///
/// let t = DataTuple::new(1, 1_000)
///     .with("dst", "10.0.0.9")
///     .with("rt_ms", 12.5);
/// assert_eq!(t.get("rt_ms").and_then(Value::as_f64), Some(12.5));
/// assert!(t.get("missing").is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataTuple {
    /// Flow / aggregation identifier (paper: hash of the packet n-tuple).
    pub id: u64,
    /// Emission timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Name of the parser (or bolt) that produced this tuple.
    pub source: String,
    /// Named fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl DataTuple {
    /// Creates an empty tuple with the given flow `id` and timestamp.
    pub fn new(id: u64, ts_ns: u64) -> Self {
        DataTuple {
            id,
            ts_ns,
            source: String::new(),
            fields: Vec::new(),
        }
    }

    /// Sets the producing parser/bolt name (builder style).
    pub fn from_source(mut self, source: impl Into<String>) -> Self {
        self.source = source.into();
        self
    }

    /// Appends a field (builder style).
    ///
    /// This *always* appends, even when a field named `key` already
    /// exists — tuples allow duplicate field names and [`DataTuple::get`]
    /// returns the first match. Use [`DataTuple::set`] for
    /// replace-semantics.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Appends a field in place. Like [`DataTuple::with`], this appends
    /// unconditionally; duplicates are allowed.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((key.into(), value.into()));
    }

    /// Sets a field, replacing the *first* existing field named `key`
    /// (the one [`DataTuple::get`] reads) or appending if absent. Later
    /// duplicates, if any, are left untouched.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((key, value)),
        }
    }

    /// Returns the first field with the given key, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the tuple carries no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Approximate encoded size in bytes, used for traffic accounting
    /// (the paper's 10:1 monitor→aggregator reduction factor).
    pub fn wire_size(&self) -> usize {
        let mut n = 8 + 8 + 2 + self.source.len();
        for (k, v) in &self.fields {
            n += 2 + k.len();
            n += 1 + match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::I64(_) | Value::U64(_) | Value::F64(_) => 8,
                Value::Str(s) => 4 + s.len(),
                Value::Bytes(b) => 4 + b.len(),
            };
        }
        n
    }

    /// Encodes the tuple with the compact binary [`codec`].
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        Encode::encode(self, &mut buf);
        buf.freeze()
    }

    /// Decodes one tuple from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or malformed.
    pub fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Decode::decode(buf)
    }
}

impl fmt::Display for DataTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x} @{}ns {}:", self.id, self.ts_ns, self.source)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        f.write_str("]")
    }
}

/// Query-scoped trace context stamped into a sampled batch at the
/// parser and carried with the batch across every hop — queue, spout,
/// bolt chain, store sink — so each stage can attribute its span to the
/// same end-to-end trace.
///
/// 24 bytes on the wire, `Copy`, and optional: batches without a
/// context encode byte-identically to the legacy format (the presence
/// flag rides the top bit of the count/rows word, which real batch
/// sizes never reach).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceCtx {
    /// Query cookie the batch belongs to.
    pub cookie: u64,
    /// Tracer-allocated id, unique per sampled batch within a process.
    pub batch_id: u64,
    /// Capture timestamp of the oldest tuple in the batch, in the clock
    /// domain of the plane that stamped it (virtual or wall ns).
    pub born_ns: u64,
}

/// A batch of tuples in row form (paper §3.1: "aggregating tuples produced
/// by all parsers and having the monitor send them in batches"). Monitors
/// seal and ship the columnar twin, [`crate::ColumnBatch`]; this is what
/// the readers decode it into for the executors, and what the store
/// writes to disk.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TupleBatch {
    /// Tuples in this batch, oldest first.
    pub tuples: Vec<DataTuple>,
    /// Trace context, present on the head-sampled subset of batches.
    #[serde(default)]
    pub trace: Option<TraceCtx>,
}

impl TupleBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch from a vector of tuples.
    pub fn from_tuples(tuples: Vec<DataTuple>) -> Self {
        TupleBatch {
            tuples,
            trace: None,
        }
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total wire size of the batch payload.
    pub fn wire_size(&self) -> usize {
        let trace = if self.trace.is_some() { 24 } else { 0 };
        4 + trace + self.tuples.iter().map(DataTuple::wire_size).sum::<usize>()
    }

    /// Encodes the whole batch. A trace context, when present, is
    /// flagged in the top bit of the count word and shipped right after
    /// it; untraced batches encode byte-identically to the legacy form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        let mut count = self.tuples.len() as u32;
        debug_assert_eq!(count & codec::TRACE_CTX_FLAG, 0, "batch count overflow");
        if self.trace.is_some() {
            count |= codec::TRACE_CTX_FLAG;
        }
        codec::put_u32(&mut buf, count);
        if let Some(ctx) = &self.trace {
            codec::put_trace_ctx(&mut buf, ctx);
        }
        for t in &self.tuples {
            Encode::encode(t, &mut buf);
        }
        buf.freeze()
    }

    /// Decodes a batch previously produced by [`TupleBatch::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or malformed.
    pub fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let raw = codec::take_u32(buf)?;
        let trace = if raw & codec::TRACE_CTX_FLAG != 0 {
            Some(codec::take_trace_ctx(buf)?)
        } else {
            None
        };
        let n = (raw & !codec::TRACE_CTX_FLAG) as usize;
        // Guard against absurd counts from corrupt input.
        if n > buf.len() {
            return Err(CodecError::Corrupt("batch count exceeds payload"));
        }
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            tuples.push(DataTuple::decode(buf)?);
        }
        Ok(TupleBatch { tuples, trace })
    }

    /// Appends one tuple to the batch.
    pub fn push(&mut self, tuple: DataTuple) {
        self.tuples.push(tuple);
    }

    /// Borrowing iterator over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, DataTuple> {
        self.tuples.iter()
    }

    /// Takes the current contents (tuples and trace context), leaving the
    /// batch empty (its capacity is retained so producers can keep filling
    /// the same allocation).
    pub fn take(&mut self) -> TupleBatch {
        TupleBatch {
            tuples: std::mem::take(&mut self.tuples),
            trace: self.trace.take(),
        }
    }

    /// Consumes the batch and returns the raw tuple vector.
    pub fn into_tuples(self) -> Vec<DataTuple> {
        self.tuples
    }
}

impl FromIterator<DataTuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = DataTuple>>(iter: I) -> Self {
        TupleBatch {
            tuples: iter.into_iter().collect(),
            trace: None,
        }
    }
}

impl Extend<DataTuple> for TupleBatch {
    fn extend<I: IntoIterator<Item = DataTuple>>(&mut self, iter: I) {
        self.tuples.extend(iter);
    }
}

impl IntoIterator for TupleBatch {
    type Item = DataTuple;
    type IntoIter = std::vec::IntoIter<DataTuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a DataTuple;
    type IntoIter = std::slice::Iter<'a, DataTuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl From<Vec<DataTuple>> for TupleBatch {
    fn from(tuples: Vec<DataTuple>) -> Self {
        TupleBatch::from_tuples(tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataTuple {
        DataTuple::new(0xabcd, 99)
            .from_source("http_get")
            .with("url", "/a.html")
            .with("size", 128u64)
            .with("rt", 1.5)
            .with("syn", true)
            .with("delta", -2i64)
            .with("blob", vec![1u8, 2, 3])
            .with("none", Value::Null)
    }

    #[test]
    fn get_returns_first_match() {
        let mut t = sample();
        t.push("url", "/second");
        assert_eq!(t.get("url").and_then(Value::as_str), Some("/a.html"));
    }

    #[test]
    fn with_appends_duplicates_but_set_replaces() {
        // Regression: `with` keeps append semantics (duplicates pile up)
        // while `set` replaces the first occurrence in place.
        let mut t = DataTuple::new(1, 0).with("url", "/a").with("url", "/b");
        assert_eq!(t.len(), 2, "with() appends even for duplicate keys");
        t.set("url", "/c");
        assert_eq!(t.len(), 2, "set() replaces instead of appending");
        assert_eq!(t.get("url").and_then(Value::as_str), Some("/c"));
        assert_eq!(
            t.fields[1].1.as_str(),
            Some("/b"),
            "later duplicates untouched"
        );
        t.set("bytes", 42u64);
        assert_eq!(t.len(), 3, "set() appends when the key is absent");
        assert_eq!(t.get("bytes").and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn roundtrip_encode_decode() {
        let t = sample();
        let mut b = t.encode();
        let back = DataTuple::decode(&mut b).unwrap();
        assert_eq!(t, back);
        assert!(b.is_empty(), "decode must consume the whole tuple");
    }

    #[test]
    fn batch_roundtrip() {
        let batch: TupleBatch = (0..17)
            .map(|i| DataTuple::new(i, i * 10).with("n", i))
            .collect();
        let mut b = batch.encode();
        let back = TupleBatch::decode(&mut b).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn truncated_buffer_is_error() {
        let t = sample();
        let enc = t.encode();
        for cut in 0..enc.len() {
            let mut b = enc.slice(..cut);
            assert!(
                DataTuple::decode(&mut b).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn corrupt_batch_count_is_error() {
        let mut buf = BytesMut::new();
        codec::put_u32(&mut buf, u32::MAX);
        let mut b = buf.freeze();
        assert!(TupleBatch::decode(&mut b).is_err());
    }

    #[test]
    fn wire_size_tracks_encoded_size() {
        let t = sample();
        let enc = t.encode();
        // wire_size is an estimate; it must be within 25% of reality and
        // never smaller than half.
        let est = t.wire_size();
        assert!(est >= enc.len() / 2 && est <= enc.len() * 2);
    }

    #[test]
    fn take_empties_but_preserves_contents() {
        let mut batch: TupleBatch = (0..4).map(|i| DataTuple::new(i, 0)).collect();
        let taken = batch.take();
        assert_eq!(taken.len(), 4);
        assert!(batch.is_empty());
    }

    fn ctx() -> TraceCtx {
        TraceCtx {
            cookie: 7,
            batch_id: 42,
            born_ns: 1_000,
        }
    }

    #[test]
    fn traced_batch_roundtrips() {
        let mut batch: TupleBatch = (0..3).map(|i| DataTuple::new(i, i * 5)).collect();
        batch.trace = Some(ctx());
        let mut b = batch.encode();
        let back = TupleBatch::decode(&mut b).unwrap();
        assert_eq!(back.trace, Some(ctx()));
        assert_eq!(back, batch);
        assert!(b.is_empty());
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_legacy() {
        // A batch without a trace context must encode exactly as before
        // the flag bit existed: old decoders keep working on new frames.
        let batch: TupleBatch = (0..2).map(|i| DataTuple::new(i, 0)).collect();
        let enc = batch.encode();
        assert_eq!(&enc[..4], &(2u32).to_le_bytes());
        assert_eq!(enc.len(), 4 + 2 * (8 + 8 + 2 + 2));
    }

    #[test]
    fn traced_empty_buffer_after_flag_is_error() {
        let mut buf = BytesMut::new();
        codec::put_u32(&mut buf, codec::TRACE_CTX_FLAG | 1);
        let mut b = buf.freeze();
        assert!(TupleBatch::decode(&mut b).is_err(), "missing trace context");
    }

    #[test]
    fn take_moves_the_trace_context_out() {
        let mut batch: TupleBatch = (0..5).map(|i| DataTuple::new(i, 0)).collect();
        batch.trace = Some(ctx());
        let taken = batch.take();
        assert_eq!(taken.trace, Some(ctx()));
        assert_eq!(batch.trace, None, "take() moves the context out");
    }

    #[test]
    fn display_contains_fields() {
        let s = sample().to_string();
        assert!(s.contains("url=/a.html"));
        assert!(s.contains("http_get"));
    }
}
