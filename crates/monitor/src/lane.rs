//! The lane core: the one place packets become sealed column batches.
//!
//! parsers → [`BatchBuilder`] → parser flush → [`PreAgg`] fold → sealed
//! [`ColumnBatch`] → trace stamp. [`crate::Monitor`] drives a lane on the
//! discrete-event plane with the virtual clock; each [`crate::Pipeline`]
//! worker drives one on its own thread with the wall clock. The lane
//! reads no clock itself — both times it needs arrive as arguments — so
//! the two planes cannot drift apart in what they emit.

use std::sync::Arc;

use netalytics_data::{BatchBuilder, ColumnBatch, TraceCtx};
use netalytics_packet::Packet;
use netalytics_sketch::PreAgg;
use netalytics_telemetry::Tracer;

use crate::parser::Parser;

/// Output-side counts of a lane since they were last taken.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneStats {
    /// Rows in sealed batches (sketch deltas included).
    pub tuples_out: u64,
    /// Encoded size of the sealed batches.
    pub bytes_out: u64,
    /// Parsed rows folded into the pre-aggregation sketch.
    pub tuples_folded: u64,
    /// Sketch delta rows among `tuples_out`.
    pub sketches_out: u64,
}

pub(crate) struct Lane {
    parsers: Vec<Box<dyn Parser>>,
    builder: BatchBuilder,
    preagg: Option<PreAgg>,
    batch_size: usize,
    /// Query cookie and tracer; sealed batches are head-sampled and the
    /// sampled ones stamped and given a `parse` span on `shard`.
    tracing: Option<(u64, Arc<Tracer>)>,
    shard: usize,
    /// Packets offered since the parsers were last flushed.
    since_flush: usize,
    /// Newest capture time offered so far: the lane's event time.
    newest_ts: u64,
    /// Driver-clock time the open batch got its first row (traced lanes).
    open_ns: Option<u64>,
    stats: LaneStats,
}

impl Lane {
    pub fn new(
        parsers: Vec<Box<dyn Parser>>,
        batch_size: usize,
        preagg: Option<PreAgg>,
        tracing: Option<(u64, Arc<Tracer>)>,
        shard: usize,
    ) -> Self {
        Lane {
            parsers,
            builder: BatchBuilder::new(),
            preagg,
            batch_size: batch_size.max(1),
            tracing,
            shard,
            since_flush: 0,
            newest_ts: 0,
            open_ns: None,
            stats: LaneStats::default(),
        }
    }

    pub fn parser_names(&self) -> Vec<&'static str> {
        self.parsers.iter().map(|p| p.name()).collect()
    }

    pub fn set_tracing(&mut self, cookie: u64, tracer: Arc<Tracer>) {
        self.tracing = Some((cookie, tracer));
    }

    /// Event time: the newest `ts_ns` among the packets offered.
    pub fn newest_ts(&self) -> u64 {
        self.newest_ts
    }

    /// Runs every parser over `packet`. Returns `true` when a
    /// [`Lane::seal`] is due: `batch_size` rows are waiting, or
    /// `batch_size` packets went by since the parsers were last flushed
    /// (so an aggregating parser's state stays bounded and its output
    /// current even when it emits nothing per packet). `clock` is read
    /// only when a traced batch opens.
    pub fn offer(&mut self, packet: &Packet, clock: impl FnOnce() -> u64) -> bool {
        self.newest_ts = self.newest_ts.max(packet.ts_ns);
        self.since_flush += 1;
        for p in &mut self.parsers {
            p.on_packet_columns(packet, &mut self.builder);
        }
        if self.tracing.is_some() && self.open_ns.is_none() && !self.builder.is_empty() {
            self.open_ns = Some(clock());
        }
        self.builder.rows() >= self.batch_size || self.since_flush >= self.batch_size
    }

    /// Flushes the parsers at `flush_ns`, seals what the builder holds,
    /// folds it through pre-aggregation (`drain` forces the sketch delta
    /// out with it) and stamps the head-sampled trace context. `None`
    /// when nothing is left to ship. `clock` is read only for a sampled
    /// batch.
    pub fn seal(
        &mut self,
        flush_ns: u64,
        drain: bool,
        clock: impl FnOnce() -> u64,
    ) -> Option<ColumnBatch> {
        self.since_flush = 0;
        for p in &mut self.parsers {
            p.flush_columns(flush_ns, &mut self.builder);
        }
        let mut batch = self.builder.finish();
        if let Some(pa) = &mut self.preagg {
            let folded = pa.fold(batch, flush_ns, drain);
            self.stats.tuples_folded += folded.rows_folded;
            self.stats.sketches_out += u64::from(folded.delta);
            batch = folded.batch;
        }
        let opened_ns = self.open_ns.take();
        if batch.is_empty() {
            return None;
        }
        if let Some((cookie, tracer)) = &self.tracing {
            if let Some(batch_id) = tracer.sample_batch() {
                let now_ns = clock();
                // Born when the batch got its first row; the parse span
                // runs from there to this seal.
                let born_ns = opened_ns.unwrap_or(now_ns).min(now_ns);
                batch.set_trace(Some(TraceCtx {
                    cookie: *cookie,
                    batch_id,
                    born_ns,
                }));
                tracer.record_span(
                    self.shard, *cookie, batch_id, born_ns, "parse", born_ns, now_ns,
                );
            }
        }
        self.stats.tuples_out += batch.rows() as u64;
        self.stats.bytes_out += batch.wire_size() as u64;
        Some(batch)
    }

    /// Takes the counts accumulated since the last call.
    pub fn take_stats(&mut self) -> LaneStats {
        std::mem::take(&mut self.stats)
    }
}
