//! Property tests for the columnar hot path's two load-bearing
//! invariants: `TupleBatch` ⇄ `ColumnBatch` conversion is lossless over
//! arbitrary tuples (empty batches, explicit nulls, duplicate keys,
//! mixed types, ragged layouts), and the SPSC ring delivers every value
//! exactly once, in order, across a real producer/consumer thread pair.

use netalytics_data::{
    spsc, ColumnBatch, DataTuple, PopError, PushError, TupleBatch, Value, COLUMNAR_MAGIC,
};
use proptest::prelude::*;

/// Any field value. Floats are kept finite: `Value` equality is derived,
/// so a NaN field would fail the identity check for the wrong reason.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        (-1e12f64..1e12).prop_map(Value::F64),
        "[a-z/]{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ]
}

/// Tuples drawn from a small key/source alphabet so the interesting
/// cases — duplicate keys in one row, the same key at different types,
/// shared layouts across rows — actually occur.
fn tuple_strategy() -> impl Strategy<Value = DataTuple> {
    let key = prop_oneof![
        Just("url"),
        Just("kind"),
        Just("t_ns"),
        Just("bytes"),
        Just("status")
    ];
    let source = prop_oneof![Just("http_get"), Just("tcp_conn_time"), Just("")];
    (
        any::<u64>(),
        any::<u64>(),
        source,
        prop::collection::vec((key, value_strategy()), 0..8),
    )
        .prop_map(|(id, ts_ns, source, fields)| {
            let mut t = DataTuple::new(id, ts_ns).from_source(source);
            for (k, v) in fields {
                t = t.with(k, v);
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row → column → row is the identity, in memory and over the wire:
    /// ids, timestamps, sources, field order, duplicate names, explicit
    /// nulls and every value survive exactly.
    #[test]
    fn column_batch_round_trip_is_identity(
        tuples in prop::collection::vec(tuple_strategy(), 0..40),
    ) {
        let batch = TupleBatch::from_tuples(tuples);
        let cols = ColumnBatch::from_batch(&batch);
        prop_assert_eq!(cols.rows(), batch.len());
        prop_assert_eq!(cols.to_batch(), batch.clone(), "in-memory round trip");

        let mut wire = cols.encode();
        prop_assert_eq!(&wire[..4], &COLUMNAR_MAGIC.to_le_bytes()[..]);
        let decoded = ColumnBatch::decode(&mut wire).expect("well-formed frame");
        prop_assert_eq!(decoded.rows(), batch.len());
        prop_assert_eq!(decoded.to_batch(), batch, "wire round trip");
    }

    /// A real producer thread races the consuming test thread through a
    /// ring of arbitrary (tiny, wrapping) capacity: every value arrives,
    /// in push order, and the drain-then-disconnect contract holds.
    #[test]
    fn spsc_ring_is_fifo_and_lossless(cap in 1usize..64, n in 0usize..2000) {
        let (mut tx, mut rx) = spsc::<usize>(cap);
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                        Err(PushError::Disconnected(_)) => panic!("consumer vanished"),
                    }
                }
            }
        });
        let mut seen = 0usize;
        loop {
            match rx.pop() {
                Ok(v) => {
                    assert_eq!(v, seen, "FIFO order broken");
                    seen += 1;
                }
                Err(PopError::Empty) => std::thread::yield_now(),
                Err(PopError::Disconnected) => break,
            }
        }
        producer.join().expect("producer thread");
        prop_assert_eq!(seen, n, "no value lost or duplicated");
    }
}
