//! # netalytics-sketch
//!
//! Mergeable probabilistic summaries for bounded-memory analytics:
//!
//! - [`Cms`] — Count-Min Sketch point counts (conservative update,
//!   overestimate-only within `ε·N`),
//! - [`SpaceSaving`] — heavy hitters with per-key error bounds in
//!   `O(1/ε)` entries,
//! - [`Hll`] — HyperLogLog distinct counts (~1.6 % error in 4 KiB),
//! - [`QuantileSketch`] — log-bucketed quantiles sharing bucket math
//!   with the telemetry plane's `Histogram`.
//!
//! Every structure merges associatively and commutatively (property-
//! tested), which is what lets the stream layer run the paper's
//! intermediate → total parallel-reduction tree over *summaries*
//! instead of exact per-key state, and lets monitors pre-aggregate
//! tuples into per-window sketch deltas before anything crosses the
//! queue. The [`Sketch`] enum gives all four a single versioned wire
//! encoding ([`wire::MAGIC`], [`wire::VERSION`]) that rides inside a
//! normal `DataTuple` as a bytes field — no codec changes, sketches are
//! just another tuple payload.

mod cms;
mod hash;
mod hll;
mod preagg;
mod quantile;
mod spacesaving;
pub mod wire;

pub use cms::Cms;
pub use hash::{hash_bytes, mix64};
pub use hll::{Hll, DEFAULT_PRECISION};
pub use preagg::{Folded, PreAgg, PreAggSpec};
pub use quantile::QuantileSketch;
pub use spacesaving::{SpaceSaving, SsEntry};
pub use wire::SketchError;

use std::borrow::Cow;

use netalytics_data::{DataTuple, Value};

/// `DataTuple::source` of every sketch-carrying tuple.
pub const SKETCH_SOURCE: &str = "sketch";
/// Field holding the encoded sketch bytes.
pub const FIELD_SKETCH: &str = "sketch";
/// Field holding the weight (observations folded into the sketch).
pub const FIELD_N: &str = "n";
/// Field holding the end of the event-time window the sketch covers.
pub const FIELD_WINDOW_END: &str = "window_end";

/// A tagged mergeable summary — the unit that crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Sketch {
    /// Count-Min point counts.
    Cms(Cms),
    /// SpaceSaving heavy hitters.
    HeavyHitters(SpaceSaving),
    /// HyperLogLog distinct count.
    Distinct(Hll),
    /// Log-bucketed quantile summary.
    Quantile(QuantileSketch),
}

impl Sketch {
    /// Human-readable kind name (matches the query-language operator).
    pub fn kind(&self) -> &'static str {
        match self {
            Sketch::Cms(_) => "cms",
            Sketch::HeavyHitters(_) => "heavy-hitters",
            Sketch::Distinct(_) => "distinct",
            Sketch::Quantile(_) => "quantile",
        }
    }

    /// Total weight folded in: recorded observations (estimate for HLL,
    /// which by construction does not track a total).
    pub fn weight(&self) -> u64 {
        match self {
            Sketch::Cms(s) => s.total(),
            Sketch::HeavyHitters(s) => s.total(),
            Sketch::Distinct(s) => s.estimate().round() as u64,
            Sketch::Quantile(s) => s.count(),
        }
    }

    /// Approximate bytes of in-memory state — the bounded footprint the
    /// acceptance criteria compare against exact `HashMap` bolts.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Sketch::Cms(s) => s.memory_bytes(),
            Sketch::HeavyHitters(s) => s.memory_bytes(),
            Sketch::Distinct(s) => s.memory_bytes(),
            Sketch::Quantile(s) => s.memory_bytes(),
        }
    }

    /// Folds one field value in — the record rule every layer shares
    /// (monitor [`PreAgg`], the stream layer's sketch bolt; the store's
    /// history replay derives its keys from the same two functions).
    /// Heavy hitters count [`value_key_str`], distinct/count sketches
    /// hash [`value_key_bytes`], quantiles observe the value's numeric
    /// form. `false` when the value is not recordable for this kind: a
    /// null for any of them, a non-number for quantiles.
    pub fn record(&mut self, v: &Value) -> bool {
        match self {
            Sketch::Cms(s) => value_key_bytes(v).map(|k| s.record(&k, 1)),
            Sketch::HeavyHitters(s) => value_key_str(v).map(|k| s.record(&k, 1)),
            Sketch::Distinct(s) => value_key_bytes(v).map(|k| s.record(&k)),
            Sketch::Quantile(s) => v.as_f64().map(|x| s.record_f64(x)),
        }
        .is_some()
    }

    /// Merge another sketch of the same kind and dimensions.
    ///
    /// # Errors
    ///
    /// [`SketchError::Incompatible`] on kind or dimension mismatch.
    pub fn merge(&mut self, other: &Sketch) -> Result<(), SketchError> {
        match (self, other) {
            (Sketch::Cms(a), Sketch::Cms(b)) => a.merge(b),
            (Sketch::HeavyHitters(a), Sketch::HeavyHitters(b)) => a.merge(b),
            (Sketch::Distinct(a), Sketch::Distinct(b)) => a.merge(b),
            (Sketch::Quantile(a), Sketch::Quantile(b)) => a.merge(b),
            _ => Err(SketchError::Incompatible("sketch kinds differ")),
        }
    }

    /// Serialize to the compact versioned wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Sketch::Cms(s) => {
                wire::put_header(&mut out, wire::KIND_CMS);
                s.encode_into(&mut out);
            }
            Sketch::HeavyHitters(s) => {
                wire::put_header(&mut out, wire::KIND_SPACESAVING);
                s.encode_into(&mut out);
            }
            Sketch::Distinct(s) => {
                wire::put_header(&mut out, wire::KIND_HLL);
                s.encode_into(&mut out);
            }
            Sketch::Quantile(s) => {
                wire::put_header(&mut out, wire::KIND_QUANTILE);
                s.encode_into(&mut out);
            }
        }
        out
    }

    /// Decode a sketch from its wire bytes.
    ///
    /// # Errors
    ///
    /// [`SketchError`] on truncated, corrupt, or unsupported input.
    pub fn decode(buf: &[u8]) -> Result<Self, SketchError> {
        let (kind, mut r) = wire::read_header(buf)?;
        match kind {
            wire::KIND_CMS => Ok(Sketch::Cms(Cms::decode_from(&mut r)?)),
            wire::KIND_SPACESAVING => Ok(Sketch::HeavyHitters(SpaceSaving::decode_from(&mut r)?)),
            wire::KIND_HLL => Ok(Sketch::Distinct(Hll::decode_from(&mut r)?)),
            wire::KIND_QUANTILE => Ok(Sketch::Quantile(QuantileSketch::decode_from(&mut r)?)),
            _ => Err(SketchError::Corrupt("unknown sketch kind")),
        }
    }

    /// Wrap this sketch in a [`DataTuple`] so it can ride a normal
    /// `TupleBatch` through the existing codec and queue.
    pub fn into_tuple(self, ts_ns: u64, window_end_ns: u64) -> DataTuple {
        let bytes = self.encode();
        let id = hash_bytes(&bytes, 0);
        DataTuple::new(id, ts_ns)
            .from_source(SKETCH_SOURCE)
            .with(FIELD_SKETCH, bytes)
            .with(FIELD_N, self.weight())
            .with(FIELD_WINDOW_END, window_end_ns)
    }

    /// Recognize and decode a sketch-carrying tuple.
    ///
    /// `None` for ordinary tuples; `Some(Err(..))` when the tuple claims
    /// to carry a sketch but the bytes do not decode.
    pub fn from_tuple(t: &DataTuple) -> Option<Result<Sketch, SketchError>> {
        if t.source != SKETCH_SOURCE {
            return None;
        }
        let bytes = t.get(FIELD_SKETCH)?.as_bytes()?;
        Some(Sketch::decode(bytes))
    }
}

/// The string a value is counted and ranked under by heavy-hitters
/// sketches: a string as it is (borrowed), bytes as lossy UTF-8, any
/// other value in its `Display` form (`true`, `404`, `1.5`). `None` for
/// [`Value::Null`], which is never a key.
pub fn value_key_str(v: &Value) -> Option<Cow<'_, str>> {
    match v {
        Value::Null => None,
        Value::Str(s) => Some(Cow::Borrowed(s)),
        Value::Bytes(b) => Some(String::from_utf8_lossy(b)),
        other => Some(Cow::Owned(other.to_string())),
    }
}

/// The bytes a value is hashed under by distinct/count sketches: string
/// and bytes payloads raw, numbers in their `Display` form, a bool as
/// one `0`/`1` byte. `None` for [`Value::Null`], which is never a key.
pub fn value_key_bytes(v: &Value) -> Option<Cow<'_, [u8]>> {
    match v {
        Value::Null => None,
        Value::Str(s) => Some(Cow::Borrowed(s.as_bytes())),
        Value::Bytes(b) => Some(Cow::Borrowed(b)),
        Value::Bool(b) => Some(Cow::Owned(vec![u8::from(*b)])),
        other => Some(Cow::Owned(other.to_string().into_bytes())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_all_kinds() {
        let mut cms = Cms::new(0.01, 0.01);
        cms.record(b"a", 3);
        let mut ss = SpaceSaving::new(0.1);
        ss.record("url", 5);
        let mut hll = Hll::new(12);
        hll.record(b"x");
        let mut q = QuantileSketch::new();
        q.record(42);
        for s in [
            Sketch::Cms(cms),
            Sketch::HeavyHitters(ss),
            Sketch::Distinct(hll),
            Sketch::Quantile(q),
        ] {
            let bytes = s.encode();
            let back = Sketch::decode(&bytes).unwrap();
            assert_eq!(back, s, "{} roundtrip", s.kind());
        }
    }

    #[test]
    fn tuple_embedding_roundtrip_through_codec() {
        let mut ss = SpaceSaving::new(0.01);
        ss.record("/index.html", 9);
        let sketch = Sketch::HeavyHitters(ss);
        let t = sketch.clone().into_tuple(1_000, 10_000_000_000);
        // Through the real tuple codec, as it would cross the queue.
        let mut wire_bytes = t.encode();
        let decoded_tuple = DataTuple::decode(&mut wire_bytes).unwrap();
        let back = Sketch::from_tuple(&decoded_tuple).unwrap().unwrap();
        assert_eq!(back, sketch);
        assert_eq!(decoded_tuple.get(FIELD_N).and_then(Value::as_u64), Some(9));
        // Ordinary tuples are not mistaken for sketches.
        let plain = DataTuple::new(1, 2).from_source("http");
        assert!(Sketch::from_tuple(&plain).is_none());
    }

    /// The one keying rule, over every `Value` variant.
    #[test]
    fn record_rule_over_every_value_variant() {
        // (value, heavy-hitters key, distinct key, recordable as a number)
        type Row = (Value, Option<&'static str>, Option<&'static [u8]>, bool);
        let table: [Row; 8] = [
            (Value::Null, None, None, false),
            (Value::Bool(true), Some("true"), Some(&[1]), false),
            (Value::Bool(false), Some("false"), Some(&[0]), false),
            (Value::I64(-3), Some("-3"), Some(b"-3"), true),
            (Value::U64(404), Some("404"), Some(b"404"), true),
            (Value::F64(1.5), Some("1.5"), Some(b"1.5"), true),
            (Value::from("/a"), Some("/a"), Some(b"/a"), false),
            (
                Value::from(vec![0x2f, 0xff]),
                Some("/\u{fffd}"),
                Some(&[0x2f, 0xff]),
                false,
            ),
        ];
        for (v, key, bytes, numeric) in &table {
            assert_eq!(value_key_str(v).as_deref(), *key, "{v:?}");
            assert_eq!(value_key_bytes(v).as_deref(), *bytes, "{v:?}");

            let mut hh = Sketch::HeavyHitters(SpaceSaving::new(0.1));
            assert_eq!(hh.record(v), key.is_some(), "{v:?}");
            let Sketch::HeavyHitters(ss) = &hh else {
                unreachable!()
            };
            let counted = key.and_then(|k| ss.estimate(k)).map(|e| e.count);
            assert_eq!(counted, key.map(|_| 1), "{v:?}");
            assert_eq!(ss.total(), u64::from(key.is_some()), "{v:?}");

            let mut by_value = Sketch::Distinct(Hll::new(8));
            assert_eq!(by_value.record(v), bytes.is_some(), "{v:?}");
            let mut by_bytes = Hll::new(8);
            bytes.iter().for_each(|b| by_bytes.record(b));
            assert_eq!(by_value, Sketch::Distinct(by_bytes), "{v:?}");

            let mut cms = Sketch::Cms(Cms::new(0.01, 0.01));
            assert_eq!(cms.record(v), bytes.is_some(), "{v:?}");

            let mut q = Sketch::Quantile(QuantileSketch::new());
            assert_eq!(q.record(v), *numeric, "{v:?}");
            assert_eq!(q.weight(), u64::from(*numeric), "{v:?}");
        }
    }

    #[test]
    fn cross_kind_merge_is_rejected() {
        let mut a = Sketch::Distinct(Hll::new(12));
        let b = Sketch::Quantile(QuantileSketch::new());
        assert_eq!(
            a.merge(&b),
            Err(SketchError::Incompatible("sketch kinds differ"))
        );
    }
}
