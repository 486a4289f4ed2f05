//! Property tests for the columnar hot path's load-bearing invariants:
//! `TupleBatch` ⇄ `ColumnBatch` conversion is lossless over arbitrary
//! tuples (empty batches, explicit nulls, duplicate keys, mixed types,
//! ragged layouts); the layout a `BatchBuilder` remembers from row to
//! row is invisible in what it builds; the v2 frame's bytes are pinned;
//! and the SPSC ring delivers every value exactly once, in order, across
//! a real producer/consumer thread pair.

use netalytics_data::{
    spsc, BatchBuilder, ColumnBatch, DataTuple, FieldId, PopError, PushError, TupleBatch, Value,
    COLUMNAR_MAGIC,
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

const KEYS: [&str; 5] = ["url", "kind", "t_ns", "bytes", "status"];
const SOURCES: [&str; 3] = ["http_get", "tcp_conn_time", ""];

/// The same value shape with different contents, so a repeated layout
/// does not also repeat its values.
fn vary(v: &Value, by: u64) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(*b ^ (by % 2 == 1)),
        Value::I64(x) => Value::I64(x.wrapping_sub(by as i64)),
        Value::U64(x) => Value::U64(x.wrapping_add(by)),
        Value::F64(x) => Value::F64(x + by as f64),
        Value::Str(s) => Value::Str(format!("{s}{by}")),
        Value::Bytes(b) => Value::Bytes(b.iter().map(|x| x.wrapping_add(by as u8)).collect()),
    }
}

/// Row sequences shaped against the builder's memory of the previous
/// row: each row is derived from the one before it (or the one before
/// that) by keeping its layout, cutting it to a strict prefix, bending
/// one position to another name or type, extending it, or repeating one
/// of its names.
fn shaped_rows() -> impl Strategy<Value = Vec<DataTuple>> {
    let step = (
        0u8..7,
        0usize..KEYS.len(),
        value_strategy(),
        0usize..8,
        0usize..SOURCES.len(),
    );
    prop::collection::vec(step, 0..60).prop_map(|steps| {
        let mut rows: Vec<DataTuple> = Vec::new();
        for (i, (op, key, value, at, source)) in steps.into_iter().enumerate() {
            let i = i as u64;
            let back = if op == 6 { 2 } else { 1 };
            let mut fields: Vec<(String, Value)> = rows
                .len()
                .checked_sub(back)
                .map(|r| rows[r].fields.clone())
                .unwrap_or_default();
            for (_, v) in &mut fields {
                *v = vary(v, i);
            }
            let len = fields.len();
            match op {
                0 | 6 => {} // the previous row's layout, or the one before it
                1 => fields.truncate(at % (len + 1)),
                2 if len > 0 => fields[at % len] = (KEYS[key].to_owned(), value),
                3 if len > 0 => fields.push(fields[at % len].clone()),
                4 => fields.clear(),
                _ => fields.push((KEYS[key].to_owned(), value)),
            }
            // Sources change less often than layouts do.
            let source = match rows.last() {
                Some(prev) if at != 0 => prev.source.clone(),
                _ => SOURCES[source].to_owned(),
            };
            rows.push(DataTuple {
                id: i,
                ts_ns: i * 10,
                source,
                fields,
            });
        }
        rows
    })
}

/// Appends `rows` to `b` through the builder's own entry points.
fn fill(b: &mut BatchBuilder, rows: &[DataTuple]) {
    for t in rows {
        b.begin_row(t.id, t.ts_ns, &t.source);
        for (k, v) in &t.fields {
            b.field(FieldId::intern(k), v);
        }
        b.end_row();
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The v2 frame of a fixed batch, byte for byte: two rows that share a
/// layout, nine more whose URL column takes the dictionary arena form,
/// then a row with a repeated name, an explicit null, mixed types under
/// one name and a second source. A change to these bytes is a change to
/// the wire format and needs a new version number, not a new constant.
#[test]
fn v2_frame_bytes_are_pinned() {
    let (url, n) = (FieldId::intern("url"), FieldId::intern("n"));
    let mut b = BatchBuilder::new();
    for i in 0..11u64 {
        b.begin_row(i, 100 + i, "http_get");
        b.field_str(url, if i % 3 == 0 { "/a" } else { "/bb" });
        b.field_u64(n, i);
        b.end_row();
    }
    b.begin_row(11, 111, "odd");
    b.field_str(url, "/c");
    b.field_str(url, "/d");
    b.field_null(n);
    b.field_i64(url, -1);
    b.field_bool(n, true);
    b.field_f64(n, 0.5);
    b.field_bytes(n, &[1, 2]);
    b.end_row();
    let frame = b.finish().encode();
    assert_eq!(hex(&frame), GOLDEN_V2_FRAME);
    let back = ColumnBatch::decode(&mut frame.clone()).expect("pinned frame decodes");
    assert_eq!(back.encode(), frame, "decode → encode reproduces the frame");
}

const GOLDEN_V2_FRAME: &str = concat!(
    "1ac0ffff020c0000000200030075726c01006e02000800687474705f67657403006f64640000",
    "0000000000000100000000000000020000000000000003000000000000000400000000000000",
    "0500000000000000060000000000000007000000000000000800000000000000090000000000",
    "00000a000000000000000b000000000000006400000000000000650000000000000066000000",
    "000000006700000000000000680000000000000069000000000000006a000000000000006b00",
    "0000000000006c000000000000006d000000000000006e000000000000006f00000000000000",
    "0000000000000000000000000000000000000000000001000200020000000501000307000000",
    "0500000501000000000201000101000401000600000000000000000000000000000000000000",
    "000000010008000000050c000000ff0f01030002002f6103002f626202002f63000001000100",
    "0000010001000000010001000000010002000100030b000000ff070000000000000000010000",
    "0000000000020000000000000003000000000000000400000000000000050000000000000006",
    "000000000000000700000000000000080000000000000009000000000000000a000000000000",
    "000000050100000000080002000000020000002f640100000100000000080000020100000000",
    "08ffffffffffffffff01000101000000000801010004010000000008000000000000e03f0100",
    "060100000000080002000000020000000102",
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What a builder remembers of the previous row never shows: rows
    /// that keep, cut, bend, extend or alternate the layout before them,
    /// fed through one builder reused across `finish()`, come back
    /// exactly; the frame equals that of a fresh builder per batch; and
    /// the same rows with a sentinel row between every two — so that no
    /// row ever follows its own layout — read back the same.
    #[test]
    fn remembered_layout_is_invisible(
        rows in shaped_rows(),
        cuts in prop::collection::vec(1usize..20, 1..8),
    ) {
        let mut reused = BatchBuilder::new();
        let mut rest = &rows[..];
        let mut cuts = cuts.iter().cycle();
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at((*cuts.next().unwrap()).min(rest.len()));
            rest = tail;
            let batch = TupleBatch::from_tuples(chunk.to_vec());
            fill(&mut reused, chunk);
            let built = reused.finish();
            prop_assert_eq!(built.to_batch(), batch.clone(), "builder round trip");
            let fresh = ColumnBatch::from_batch(&batch);
            prop_assert_eq!(fresh.to_batch(), batch.clone(), "from_batch round trip");
            let wire = built.encode();
            prop_assert_eq!(&wire, &fresh.encode(), "reuse leaks into the frame");
            let decoded = ColumnBatch::decode(&mut wire.clone()).expect("well-formed frame");
            prop_assert_eq!(&decoded, &built, "decode rebuilds the same columns");

            let sentinel = DataTuple::new(u64::MAX, 0)
                .from_source("sentinel")
                .with("sentinel", 0u64);
            let mut spaced = Vec::new();
            for t in chunk {
                spaced.push(t.clone());
                spaced.push(sentinel.clone());
            }
            fill(&mut reused, &spaced);
            let mut read = reused.finish().to_batch().into_tuples();
            read.retain(|t| t.source != "sentinel");
            prop_assert_eq!(read, chunk.to_vec(), "sentinel-spaced rows");
        }
    }

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
