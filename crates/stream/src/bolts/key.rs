//! Key extraction — the paper's "Parsing Bolt" (Fig. 4).
//!
//! "The Parsing Bolts hash the raw string obtained from Kafka to get a
//! signature. Each of these bolts emit the signatures with a respective
//! count of one to a Counting Bolt selected based on the signatures."

use netalytics_data::DataTuple;

use crate::bolt::{fnv, key_str, Bolt, FNV_OFFSET};

/// Lifts a named field into the canonical `key` field (plus a stable
/// signature in the tuple ID) with a count of one.
#[derive(Debug, Clone)]
pub struct KeyExtractBolt {
    from_field: String,
}

impl KeyExtractBolt {
    /// Creates a bolt extracting `from_field` as the ranking key.
    pub fn new(from_field: impl Into<String>) -> Self {
        KeyExtractBolt {
            from_field: from_field.into(),
        }
    }
}

impl Bolt for KeyExtractBolt {
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>) {
        let Some(v) = tuple.get(&self.from_field) else {
            return;
        };
        let key = key_str(v);
        out.push(
            DataTuple::new(fnv(FNV_OFFSET, key.as_bytes()), tuple.ts_ns)
                .from_source("key_extract")
                .with("key", key.into_owned())
                .with("count", 1u64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::Value;

    #[test]
    fn extracts_and_signs() {
        let mut b = KeyExtractBolt::new("url");
        let mut out = Vec::new();
        b.execute(&DataTuple::new(1, 5).with("url", "/a"), &mut out);
        b.execute(&DataTuple::new(2, 6).with("url", "/a"), &mut out);
        b.execute(&DataTuple::new(3, 7).with("url", "/b"), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, out[1].id, "same key, same signature");
        assert_ne!(out[0].id, out[2].id);
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn missing_field_emits_nothing() {
        let mut b = KeyExtractBolt::new("url");
        let mut out = Vec::new();
        b.execute(&DataTuple::new(1, 0).with("other", 1u64), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn numeric_fields_stringify() {
        let mut b = KeyExtractBolt::new("code");
        let mut out = Vec::new();
        b.execute(&DataTuple::new(1, 0).with("code", 404u64), &mut out);
        assert_eq!(out[0].get("key").and_then(Value::as_str), Some("404"));
    }
}
