//! Columnar transport microbenchmark: rows/s across two queue paths.
//!
//! Both paths move the same logical records (http_get-shaped
//! tuples) through a [`QueueCluster`], including encode and decode —
//! the full monitor→queue→spout seam:
//!
//! * **per-message** — one row tuple per frame via
//!   [`QueueCluster::produce_to`] / [`QueueCluster::consume_batch`]:
//!   every record pays a heap tuple, a frame, and a partition lock.
//! * **columnar** — 128 rows per [`ColumnBatch`] built natively with a
//!   [`BatchBuilder`] and moved via [`QueueCluster::produce_columns`] /
//!   [`QueueCluster::consume_columns`]: interned field ids, typed
//!   column arenas, one lock per batch, no row materialization.
//!
//! Run with: `cargo run --release -p netalytics-bench --bin columnar_micro`
//! (add `--quick` for a reduced-size run). Writes
//! `results/columnar_micro.txt` and asserts the columnar path clears
//! 5x the per-message path.

use std::fmt::Write as _;
use std::time::Instant;

use netalytics_data::{BatchBuilder, ColumnBatch, DataTuple, FieldId, TupleBatch};
use netalytics_queue::{QueueCluster, QueueConfig};

/// Rows moved through the queue per measured round.
const TOTAL: usize = 1 << 17;
/// Rows per frame on the columnar path.
const BATCH: usize = 128;
/// Frames drained per consume call on the columnar path.
const DRAIN: usize = 16;
/// Measured rounds per path; the best round is reported.
const ROUNDS: usize = 3;

fn cluster(capacity: usize) -> QueueCluster {
    QueueCluster::new(QueueConfig {
        brokers: 2,
        partitions: 8,
        partition_capacity: capacity,
        replication: 1,
    })
}

/// One http_get-shaped record, the hot-path tuple of Fig. 5.
fn sample(id: u64) -> DataTuple {
    DataTuple::new(id, id)
        .from_source("http_get")
        .with("kind", "request")
        .with("url", "/index.html")
        .with("t_ns", id)
}

/// One row tuple encoded per message — the pre-batch hot path.
fn per_message_round(total: usize) -> f64 {
    let q = cluster(total);
    let topic = q.topic_id("http_get");
    let group = q.group_id("storm");
    let start = Instant::now();
    for i in 0..total as u64 {
        let frame = TupleBatch::from_tuples(vec![sample(i)]).encode();
        q.produce_to(topic, i, frame, i);
    }
    let mut msgs = Vec::with_capacity(1);
    let mut rows = 0usize;
    while rows < total {
        msgs.clear();
        let n = q.consume_batch(group, topic, 1, &mut msgs);
        assert!(n > 0, "queue drained early");
        for m in msgs.drain(..) {
            let mut payload = m.payload;
            rows += TupleBatch::decode(&mut payload).expect("row frame").len();
        }
    }
    total as f64 / start.elapsed().as_secs_f64()
}

/// 128 rows per columnar frame, built and consumed without row tuples.
fn columnar_round(total: usize, batch: usize) -> f64 {
    let q = cluster(total);
    let topic = q.topic_id("http_get");
    let group = q.group_id("storm");
    let kind = FieldId::intern("kind");
    let url = FieldId::intern("url");
    let t_ns = FieldId::intern("t_ns");
    let mut builder = BatchBuilder::new();
    let start = Instant::now();
    let mut next = 0u64;
    while (next as usize) < total {
        for j in 0..batch as u64 {
            let id = next + j;
            builder.begin_row(id, id, "http_get");
            builder.field_str(kind, "request");
            builder.field_str(url, "/index.html");
            builder.field_u64(t_ns, id);
            builder.end_row();
        }
        let cols = builder.finish();
        q.produce_columns(topic, next, &cols, next).expect("leader");
        next += batch as u64;
    }
    let mut out: Vec<ColumnBatch> = Vec::with_capacity(DRAIN);
    let mut rows = 0usize;
    while rows < total {
        out.clear();
        let n = q.consume_columns(group, topic, DRAIN, &mut out);
        assert!(n > 0, "queue drained early");
        rows += n;
    }
    total as f64 / start.elapsed().as_secs_f64()
}

fn best(rounds: usize, f: impl Fn() -> f64) -> f64 {
    let _ = f(); // warmup
    (0..rounds).map(|_| f()).fold(0.0, f64::max)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (total, rounds) = if quick { (1 << 14, 1) } else { (TOTAL, ROUNDS) };

    let per_msg = best(rounds, || per_message_round(total));
    let columnar = best(rounds, || columnar_round(total, BATCH));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "Columnar transport microbenchmark ({total} rows/round, best of {rounds})"
    );
    let _ = writeln!(report);
    let _ = writeln!(report, "{:>38} {:>14}", "path", "rows/sec");
    let _ = writeln!(
        report,
        "{:>38} {:>14.0}",
        "per-message (1 row/frame)", per_msg
    );
    let _ = writeln!(
        report,
        "{:>38} {:>14.0}",
        format!("columnar x{BATCH} (ColumnBatch frame)"),
        columnar
    );
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "columnar speedup over per-message:  {:.2}x",
        columnar / per_msg
    );
    print!("{report}");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/columnar_micro.txt", &report).expect("write results");

    assert!(
        columnar >= 5.0 * per_msg,
        "columnar path must be >=5x the per-message path (got {:.2}x)",
        columnar / per_msg
    );
}
