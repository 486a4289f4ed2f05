//! Round-trip guarantees for the row frame, [`TupleBatch::encode`] —
//! the store's on-disk record. (No wire carries it: monitors, the
//! emulated fabric and the queue move column frames, guarded by
//! `columnar_properties.rs`.) What is written must read back exactly:
//! empty batches, unicode in every string position, the numeric extremes,
//! and (because `NaN != NaN`) byte-identical re-encoding.

use netalytics_data::{DataTuple, TupleBatch, Value};
use proptest::prelude::*;

/// Encode → decode → encode; asserts the buffer is fully consumed and the
/// second encoding is byte-identical to the first.
fn roundtrip(batch: &TupleBatch) -> TupleBatch {
    let wire = batch.encode();
    let mut buf = wire.clone();
    let back = TupleBatch::decode(&mut buf).expect("decode");
    assert!(buf.is_empty(), "decode must consume the whole batch");
    assert_eq!(wire, back.encode(), "re-encoding must be byte-identical");
    back
}

#[test]
fn empty_batch_roundtrips() {
    let back = roundtrip(&TupleBatch::new());
    assert!(back.is_empty());
    assert_eq!(back.len(), 0);
}

#[test]
fn unicode_survives_every_string_position() {
    let t = DataTuple::new(7, 9)
        .from_source("解析器")
        .with("url", "/emoji/🦀🛰️")
        .with("ключ", "значение")
        .with("mixed", "ascii-läuft-ß-ok");
    let back = roundtrip(&TupleBatch::from_tuples(vec![t.clone()]));
    assert_eq!(back.tuples, vec![t]);
    assert_eq!(
        back.tuples[0].get("url").and_then(Value::as_str),
        Some("/emoji/🦀🛰️")
    );
}

#[test]
fn numeric_extremes_roundtrip_exactly() {
    let t = DataTuple::new(u64::MAX, u64::MAX)
        .with("u_max", u64::MAX)
        .with("u_min", 0u64)
        .with("i_min", i64::MIN)
        .with("i_max", i64::MAX)
        .with("f_max", f64::MAX)
        .with("f_tiny", f64::MIN_POSITIVE)
        .with("f_neg0", -0.0f64)
        .with("f_inf", f64::INFINITY)
        .with("f_ninf", f64::NEG_INFINITY);
    let back = roundtrip(&TupleBatch::from_tuples(vec![t.clone()]));
    assert_eq!(back.tuples, vec![t]);
    let got = &back.tuples[0];
    assert_eq!(got.get("u_max").and_then(Value::as_u64), Some(u64::MAX));
    assert_eq!(
        got.get("f_inf").and_then(Value::as_f64),
        Some(f64::INFINITY)
    );
    // -0.0 must keep its sign bit, not collapse to +0.0.
    let neg0 = got.get("f_neg0").and_then(Value::as_f64).unwrap();
    assert!(neg0 == 0.0 && neg0.is_sign_negative());
}

#[test]
fn nan_roundtrips_byte_identically() {
    // NaN breaks PartialEq-based comparison, so the byte-identity check
    // inside `roundtrip` is the meaningful assertion here.
    let t = DataTuple::new(1, 2).with("nan", f64::NAN);
    let back = roundtrip(&TupleBatch::from_tuples(vec![t]));
    assert!(back.tuples[0]
        .get("nan")
        .and_then(Value::as_f64)
        .unwrap()
        .is_nan());
}

#[test]
fn truncated_batch_errors_instead_of_panicking() {
    let batch: TupleBatch = (0..4u64)
        .map(|i| DataTuple::new(i, i).with("k", "v"))
        .collect();
    let wire = batch.encode();
    for cut in 0..wire.len() {
        let mut short = wire.slice(..cut);
        assert!(
            TupleBatch::decode(&mut short).is_err(),
            "prefix of {cut} bytes must not decode"
        );
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        any::<f64>().prop_map(Value::F64),
        ".{0,24}".prop_map(Value::Str), // mixed ascii/unicode
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ]
}

prop_compose! {
    fn arb_tuple()(
        id in any::<u64>(),
        ts in any::<u64>(),
        source in ".{0,12}",
        fields in proptest::collection::vec(("[a-z_]{1,8}", arb_value()), 0..6),
    ) -> DataTuple {
        let mut t = DataTuple::new(id, ts).from_source(source);
        for (k, v) in fields {
            t = t.with(k, v);
        }
        t
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_batch_roundtrips_byte_identically(
        tuples in proptest::collection::vec(arb_tuple(), 0..12),
    ) {
        let batch = TupleBatch::from_tuples(tuples);
        let n = batch.len();
        let back = roundtrip(&batch);
        prop_assert_eq!(back.len(), n);
    }
}
