//! The batch hand-off contract between pipeline stages.
//!
//! Every seam in the data plane moves whole batches, never individual
//! tuples. The monitor pipeline holds some `dyn BatchSink` and calls
//! [`BatchSink::ship_columns`] once per sealed [`ColumnBatch`] — column
//! batches are the only thing a monitor produces and the only frame the
//! queue carries. [`BatchSink::ship`] takes a row [`TupleBatch`] for
//! producers downstream of the wire (tests, examples, anything already
//! holding rows). Either way the sink accepts the batch as one unit
//! (enqueuing, encoding, or forwarding it) or reports that the downstream
//! side is gone.
//!
//! Implementations must be cheap to share across producer threads, so both
//! methods take `&self` and implementors handle their own synchronization.

use parking_lot::Mutex;

use crate::columns::ColumnBatch;
use crate::tuple::TupleBatch;

/// Error returned when a sink's downstream consumer has disconnected.
///
/// Carries the batch back to the caller so no tuples are silently lost; the
/// producer decides whether to retry elsewhere, count the drop, or stop.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkClosed(pub TupleBatch);

impl std::fmt::Display for SinkClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch sink closed ({} tuples returned to producer)",
            self.0.len()
        )
    }
}

impl std::error::Error for SinkClosed {}

/// A destination that accepts tuple batches as indivisible units.
///
/// This is the one transport abstraction shared by all layers: the monitor
/// pipeline ships into a queue-backed sink, benchmarks ship into counting
/// sinks, and tests ship into in-memory collectors.
pub trait BatchSink: Send + Sync {
    /// Hands one batch downstream.
    ///
    /// Empty batches are accepted and may be dropped by the implementation.
    ///
    /// # Errors
    ///
    /// Returns [`SinkClosed`] with the rejected batch if the downstream
    /// consumer has disconnected and will never accept more data.
    fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed>;

    /// Hands one sealed columnar batch downstream.
    ///
    /// The default bridges to [`BatchSink::ship`] by converting to rows,
    /// so every existing sink accepts columnar producers unchanged;
    /// columnar-aware sinks (the queue writer) override this to keep the
    /// batch in column form end to end.
    ///
    /// # Errors
    ///
    /// Returns [`SinkClosed`] (carrying the row form of the rejected
    /// batch) if the downstream consumer has disconnected.
    fn ship_columns(&self, columns: ColumnBatch) -> Result<(), SinkClosed> {
        self.ship(columns.to_batch())
    }
}

/// A sink that appends batches to a shared vector, for tests and examples.
#[derive(Default)]
pub struct CollectSink {
    batches: Mutex<Vec<TupleBatch>>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes every batch shipped so far.
    pub fn drain(&self) -> Vec<TupleBatch> {
        std::mem::take(&mut self.batches.lock()) // per-batch lock
    }

    /// Total number of tuples shipped so far.
    pub fn tuple_count(&self) -> usize {
        self.batches.lock().iter().map(TupleBatch::len).sum() // per-batch lock
    }
}

impl BatchSink for CollectSink {
    fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed> {
        self.batches.lock().push(batch); // per-batch lock
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::DataTuple;

    #[test]
    fn collect_sink_accumulates_batches() {
        let sink = CollectSink::new();
        sink.ship(TupleBatch::from_tuples(vec![DataTuple::new(1, 0)]))
            .unwrap();
        sink.ship(TupleBatch::from_tuples(vec![
            DataTuple::new(2, 0),
            DataTuple::new(3, 0),
        ]))
        .unwrap();
        assert_eq!(sink.tuple_count(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(sink.tuple_count(), 0);
    }

    #[test]
    fn ship_columns_bridges_to_row_sinks_by_default() {
        let sink = CollectSink::new();
        let batch = TupleBatch::from_tuples(vec![
            DataTuple::new(1, 5).with("url", "/a"),
            DataTuple::new(2, 6).with("url", "/b"),
        ]);
        sink.ship_columns(ColumnBatch::from_batch(&batch)).unwrap();
        let drained = sink.drain();
        assert_eq!(drained, vec![batch], "lossless row bridge");
    }

    #[test]
    fn sink_closed_reports_batch_size() {
        let e = SinkClosed(TupleBatch::from_tuples(vec![DataTuple::new(9, 9)]));
        assert!(e.to_string().contains("1 tuples"));
    }
}
