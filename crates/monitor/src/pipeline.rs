//! The threaded monitor pipeline — Figure 3 of the paper.
//!
//! "NetAlytics monitor framework includes the collector, parsers, and an
//! output interface" built on DPDK's zero-copy, lock-free primitives with
//! multi-level queuing and batching (§5.1-5.2). Here:
//!
//! * the **collector** thread pulls packets off the input ring and pushes
//!   a cheap descriptor clone ([`netalytics_packet::Packet`] is refcounted
//!   [`bytes::Bytes`]) into each parser's queue — no payload copies;
//! * each **parser** runs on its own worker thread(s) with a bounded
//!   queue; a full queue drops descriptors early (the adaptive-sampling
//!   load-shedding of §5.1). A worker drives one lane core
//!   ([`crate::lane`]) — the same one [`crate::Monitor`] drives — on the
//!   wall clock, and hands sealed [`ColumnBatch`]es over a lock-free SPSC
//!   ring;
//! * the **output interface** is one shipper thread that drains every
//!   worker ring into the sink via [`BatchSink::ship_columns`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use netalytics_data::{spsc, BatchSink, ColumnBatch, Consumer, PopError, Producer, PushError};
use netalytics_packet::Packet;
use netalytics_sketch::{PreAgg, PreAggSpec};
use netalytics_telemetry::{wall_now_ns, Counter, Gauge, Histogram, MetricsRegistry, Tracer};

use crate::lane::{Lane, LaneStats};
use crate::monitor::MonitorError;
use crate::parser::make_parser;
use crate::sampler::{FlowSampler, SampleSpec};

/// Configuration of a threaded pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Parser registry names; each gets its own worker thread(s).
    pub parsers: Vec<String>,
    /// Worker threads per parser (paper Fig. 3: "One parser process may
    /// run multiple worker threads; this provides scalability for
    /// computationally intensive parsing functions"). Workers of one
    /// parser receive packets by flow hash, so stateful parsers keep
    /// seeing whole flows ("based on the packet flow ID to ensure
    /// consistent processing of flows", §5.2).
    pub workers_per_parser: usize,
    /// Sampling applied at the collector.
    pub sample: SampleSpec,
    /// Depth of the collector input ring.
    pub input_depth: usize,
    /// Depth of each parser queue.
    pub parser_depth: usize,
    /// Rows per output batch. A worker also flushes its parser and seals
    /// whatever it holds once this many *packets* went by since the last
    /// flush, so a parser that aggregates across packets stays bounded
    /// and current.
    pub batch_size: usize,
    /// Optional metrics registry: when set, pipeline counters register as
    /// `monitor.*` series and the workers additionally record per-parser
    /// queue depth, output batch sizes, and (sampled) parse latency.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// How often the collector refreshes the pipeline's wall-clock
    /// heartbeat even when no packets arrive. An orchestrator that polls
    /// [`Pipeline::heartbeat_age`] declares the monitor dead once the age
    /// exceeds a few intervals. A worker whose queue stays empty this
    /// long flushes and ships what it holds, so a trickle's rows are not
    /// held back waiting for a full batch.
    pub heartbeat_interval: Duration,
    /// When set, each parser worker folds covered rows into its own
    /// bounded sketch and ships periodic deltas instead of raw rows
    /// (deltas from different workers merge downstream, so totals are
    /// preserved).
    pub preagg: Option<PreAggSpec>,
    /// Inert: read nowhere. It once selected between a row lane and the
    /// columnar lane; the columnar lane is now the only one. The field
    /// stays declared only because the end-to-end benchmark's frozen
    /// `e2ebench/src/sut.rs` still sets it; the next change to that file
    /// drops both.
    pub columnar: bool,
    /// Query-scoped tracing as `(cookie, tracer)`: parser workers
    /// head-sample sealed batches per the tracer's config, stamp them
    /// with a trace context for downstream stages, and record a `parse`
    /// span (batch open → seal, wall clock).
    pub tracing: Option<(u64, Arc<Tracer>)>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            parsers: vec!["tcp_conn_time".into()],
            workers_per_parser: 1,
            sample: SampleSpec::All,
            input_depth: 8192,
            parser_depth: 8192,
            batch_size: 128,
            metrics: None,
            heartbeat_interval: Duration::from_millis(100),
            preagg: None,
            columnar: false,
            tracing: None,
        }
    }
}

/// Shared pipeline counters — telemetry [`Counter`]s, so a pipeline built
/// with [`PipelineConfig::metrics`] shares these very cells with the
/// registry's `monitor.*` series (no double accounting, no extra cost).
/// Without a registry they are free-standing atomics.
#[derive(Debug)]
pub struct PipelineCounters {
    /// Packets accepted into the input ring (`monitor.packets_in`).
    pub packets_in: Arc<Counter>,
    /// Raw bytes across accepted packets (`monitor.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Descriptors dropped because a parser queue was full
    /// (`monitor.queue_drops`).
    pub queue_drops: Arc<Counter>,
    /// Packets rejected by the sampler (`monitor.sampler_drops`).
    pub sampler_drops: Arc<Counter>,
    /// Tuples emitted across all parsers (`monitor.tuples_out`).
    pub tuples_out: Arc<Counter>,
    /// Encoded batch bytes emitted (`monitor.bytes_out`).
    pub bytes_out: Arc<Counter>,
    /// Parsed tuples folded into pre-aggregation sketches
    /// (`monitor.tuples_folded`).
    pub tuples_folded: Arc<Counter>,
    /// Sketch delta tuples shipped (`monitor.sketches_out`).
    pub sketches_out: Arc<Counter>,
}

impl PipelineCounters {
    fn new(metrics: Option<&MetricsRegistry>) -> Self {
        let counter = |name: &str| match metrics {
            Some(m) => m.counter(name, &[]),
            None => Arc::new(Counter::new()),
        };
        PipelineCounters {
            packets_in: counter("monitor.packets_in"),
            bytes_in: counter("monitor.bytes_in"),
            queue_drops: counter("monitor.queue_drops"),
            sampler_drops: counter("monitor.sampler_drops"),
            tuples_out: counter("monitor.tuples_out"),
            bytes_out: counter("monitor.bytes_out"),
            tuples_folded: counter("monitor.tuples_folded"),
            sketches_out: counter("monitor.sketches_out"),
        }
    }

    fn absorb(&self, lane: LaneStats) {
        self.tuples_out.add(lane.tuples_out);
        self.bytes_out.add(lane.bytes_out);
        self.tuples_folded.add(lane.tuples_folded);
        self.sketches_out.add(lane.sketches_out);
    }
}

/// Per-worker instruments, present only when the pipeline has a registry.
struct WorkerTelemetry {
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    parse_latency: Arc<Histogram>,
}

/// Record one parse latency for every `LATENCY_SAMPLE` packets: keeps the
/// two `Instant::now` calls off most of the hot path so the instrumented
/// pipeline stays within the ≤5 % overhead budget.
const LATENCY_SAMPLE: u64 = 32;

/// Sealed column batches queued per worker ring.
const RING_DEPTH: usize = 64;

/// Blocking push onto a worker's output ring: spins (yielding) while the
/// shipper catches up. A disconnected shipper means the pipeline is
/// tearing down, so the batch is dropped.
fn push_blocking(ring: &mut Producer<ColumnBatch>, mut batch: ColumnBatch) {
    loop {
        match ring.push(batch) {
            Ok(()) => return,
            Err(PushError::Full(b)) => {
                batch = b;
                std::thread::yield_now();
            }
            Err(PushError::Disconnected(_)) => return,
        }
    }
}

/// One parser worker: its lane, the queue feeding it, and the SPSC ring
/// it hands sealed batches over (one producer — this thread; one
/// consumer — the shipper).
struct Worker {
    lane: Lane,
    prx: Receiver<Packet>,
    ring: Producer<ColumnBatch>,
    counters: Arc<PipelineCounters>,
    telemetry: Option<WorkerTelemetry>,
}

impl Worker {
    /// Seals the lane at its event time — the newest capture stamp it has
    /// seen, as `spout::drive`'s watermark — and ships the batch, if any.
    fn seal(&mut self, drain: bool) {
        let sealed = self.lane.seal(self.lane.newest_ts(), drain, wall_now_ns);
        self.counters.absorb(self.lane.take_stats());
        let Some(batch) = sealed else { return };
        if let Some(tel) = &self.telemetry {
            tel.batch_size.record(batch.rows() as u64);
            tel.queue_depth.set(self.prx.len() as i64);
        }
        push_blocking(&mut self.ring, batch);
    }

    /// Runs until the collector closes the queue. A queue that stays
    /// empty for `idle` drains the lane, so nothing waits on traffic that
    /// may never come.
    fn run(mut self, idle: Duration) {
        let mut seen = 0u64;
        loop {
            let pkt = match self.prx.recv_timeout(idle) {
                Ok(pkt) => pkt,
                Err(RecvTimeoutError::Timeout) => {
                    self.seal(true);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            seen += 1;
            let due = match &self.telemetry {
                Some(tel) if seen.is_multiple_of(LATENCY_SAMPLE) => {
                    let t0 = Instant::now();
                    let due = self.lane.offer(&pkt, wall_now_ns);
                    tel.parse_latency.record(t0.elapsed().as_nanos() as u64);
                    due
                }
                _ => self.lane.offer(&pkt, wall_now_ns),
            };
            if due {
                self.seal(false);
            }
        }
        self.seal(true);
        if let Some(tel) = &self.telemetry {
            tel.queue_depth.set(0);
        }
    }
}

/// Body of the shipper thread: drains every worker ring (each ring keeps
/// exactly one producer and one consumer) into the sink until all
/// workers are gone.
fn ship_rings(mut rings: Vec<Consumer<ColumnBatch>>, sink: &dyn BatchSink) {
    let mut alive = vec![true; rings.len()];
    while alive.contains(&true) {
        let mut idle = true;
        for (ring, alive) in rings.iter_mut().zip(&mut alive) {
            while *alive {
                match ring.pop() {
                    Ok(cols) => {
                        idle = false;
                        // A gone consumer means we drop output.
                        let _ = sink.ship_columns(cols);
                    }
                    Err(PopError::Empty) => break,
                    Err(PopError::Disconnected) => *alive = false,
                }
            }
        }
        if idle {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// A running threaded monitor pipeline.
///
/// Feed packets with [`Pipeline::offer`]; sealed batches reach the sink
/// given to [`Pipeline::spawn_with_sink`]; stop with
/// [`Pipeline::shutdown`].
pub struct Pipeline {
    input: Sender<Packet>,
    counters: Arc<PipelineCounters>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// Nanoseconds since `epoch` of the collector's last liveness beat.
    heartbeat_ns: Arc<AtomicU64>,
    epoch: Instant,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Spawns the collector, one worker per parser (times
    /// `workers_per_parser`) and the shipper that hands every sealed
    /// batch to `sink` via [`BatchSink::ship_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError`] for an empty or unknown parser list.
    pub fn spawn_with_sink(
        config: PipelineConfig,
        sink: Arc<dyn BatchSink>,
    ) -> Result<Self, MonitorError> {
        if config.parsers.is_empty() {
            return Err(MonitorError::NoParsers);
        }
        // Validate up front so we fail before spawning threads.
        for name in &config.parsers {
            if make_parser(name).is_none() {
                return Err(MonitorError::UnknownParser(name.clone()));
            }
        }
        let counters = Arc::new(PipelineCounters::new(config.metrics.as_deref()));
        let stop = Arc::new(AtomicBool::new(false));
        let (in_tx, in_rx) = bounded::<Packet>(config.input_depth);
        let beat_every = config.heartbeat_interval.max(Duration::from_millis(1));

        let mut handles = Vec::new();
        // Per parser: the worker queues its dispatcher fans into (Fig. 3's
        // two-level queuing — one instance per worker, flow-consistent).
        let mut parser_txs: Vec<Vec<Sender<Packet>>> = Vec::new();
        let workers = config.workers_per_parser.max(1);
        // Consumer halves of the worker rings (shipper-owned).
        let mut rings: Vec<Consumer<ColumnBatch>> = Vec::new();

        for name in &config.parsers {
            let mut worker_txs = Vec::with_capacity(workers);
            for w in 0..workers {
                let (ptx, prx) = bounded::<Packet>(config.parser_depth);
                worker_txs.push(ptx);
                let (ring, ring_rx) = spsc::<ColumnBatch>(RING_DEPTH);
                rings.push(ring_rx);
                let telemetry = config.metrics.as_deref().map(|m| {
                    let worker = w.to_string();
                    let l: &[(&str, &str)] = &[("parser", name), ("worker", &worker)];
                    WorkerTelemetry {
                        queue_depth: m.gauge("monitor.parser_queue_depth", l),
                        batch_size: m.histogram("monitor.batch_size", &[("parser", name)]),
                        parse_latency: m.histogram("monitor.parse_latency_ns", &[("parser", name)]),
                    }
                });
                let worker = Worker {
                    lane: Lane::new(
                        vec![make_parser(name).expect("validated above")],
                        config.batch_size,
                        config.preagg.clone().map(PreAgg::new),
                        config.tracing.clone(),
                        // Stable worker index: picks a tracer span shard.
                        handles.len(),
                    ),
                    prx,
                    ring,
                    counters: counters.clone(),
                    telemetry,
                };
                let handle = std::thread::Builder::new()
                    .name(format!("parser-{name}-{w}"))
                    .spawn(move || worker.run(beat_every))
                    .expect("spawn parser thread");
                handles.push(handle);
            }
            parser_txs.push(worker_txs);
        }

        let handle = std::thread::Builder::new()
            .name("col-shipper".into())
            .spawn(move || ship_rings(rings, sink.as_ref()))
            .expect("spawn shipper thread");
        handles.push(handle);

        // Collector thread.
        let epoch = Instant::now();
        let heartbeat_ns = Arc::new(AtomicU64::new(0));
        {
            let counters = counters.clone();
            let stop = stop.clone();
            let heartbeat_ns = heartbeat_ns.clone();
            let mut sampler = FlowSampler::new(config.sample);
            let handle = std::thread::Builder::new()
                .name("collector".into())
                .spawn(move || {
                    loop {
                        // Liveness beat on every pass, so an idle but
                        // healthy monitor keeps announcing itself.
                        heartbeat_ns.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        let pkt = match in_rx.recv_timeout(beat_every) {
                            Ok(pkt) => pkt,
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if !sampler.accept(&pkt) {
                            counters.sampler_drops.inc();
                            continue;
                        }
                        counters.packets_in.inc();
                        counters.bytes_in.add(pkt.len() as u64);
                        // Flow-consistent worker dispatch within each
                        // parser, round-robin fallback for non-IP frames.
                        let flow_slot = pkt.flow_key().map(|f| f.canonical_hash() as usize);
                        for worker_txs in &parser_txs {
                            let slot = flow_slot.unwrap_or(0) % worker_txs.len();
                            // Zero-copy fan-out: descriptor clone only.
                            match worker_txs[slot].try_send(pkt.clone()) {
                                Ok(()) => {}
                                Err(TrySendError::Full(_)) => {
                                    counters.queue_drops.inc();
                                }
                                Err(TrySendError::Disconnected(_)) => return,
                            }
                        }
                    }
                    // parser_txs drop here, closing parser inputs.
                })
                .expect("spawn collector thread");
            handles.push(handle);
        }

        Ok(Pipeline {
            input: in_tx,
            counters,
            stop,
            handles,
            heartbeat_ns,
            epoch,
        })
    }

    /// Offers a packet to the pipeline, blocking if the input ring is full
    /// (a generator can thus measure sustainable throughput).
    pub fn offer(&self, packet: Packet) {
        let _ = self.input.send(packet);
    }

    /// Offers without blocking; returns `false` if the ring was full.
    pub fn try_offer(&self, packet: Packet) -> bool {
        self.input.try_send(packet).is_ok()
    }

    /// A clonable handle to the input ring, letting external generator
    /// threads feed the pipeline directly.
    pub fn clone_input(&self) -> Sender<Packet> {
        self.input.clone()
    }

    /// Shared counters.
    pub fn counters(&self) -> &PipelineCounters {
        &self.counters
    }

    /// Nanoseconds (since pipeline start) of the collector's most recent
    /// liveness beat. Beats continue while idle, so a stalled value means
    /// the collector thread itself is gone.
    pub fn last_heartbeat_ns(&self) -> u64 {
        self.heartbeat_ns.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the collector last beat. Compare against a
    /// multiple of [`PipelineConfig::heartbeat_interval`] to declare the
    /// monitor dead.
    pub fn heartbeat_age(&self) -> Duration {
        self.epoch
            .elapsed()
            .saturating_sub(Duration::from_nanos(self.last_heartbeat_ns()))
    }

    /// Stops all threads and waits for them; pending queue contents are
    /// processed and shipped (graceful drain) unless `abandon` is set.
    pub fn shutdown(mut self, abandon: bool) -> PipelineSummary {
        if abandon {
            self.stop.store(true, Ordering::Relaxed);
        }
        drop(self.input); // closes the collector loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        PipelineSummary {
            packets_in: self.counters.packets_in.get(),
            bytes_in: self.counters.bytes_in.get(),
            queue_drops: self.counters.queue_drops.get(),
            sampler_drops: self.counters.sampler_drops.get(),
            tuples_out: self.counters.tuples_out.get(),
            bytes_out: self.counters.bytes_out.get(),
            tuples_folded: self.counters.tuples_folded.get(),
            sketches_out: self.counters.sketches_out.get(),
        }
    }
}

/// Final counter snapshot returned by [`Pipeline::shutdown`].
#[derive(Debug)]
pub struct PipelineSummary {
    /// Packets accepted into the pipeline.
    pub packets_in: u64,
    /// Raw bytes accepted.
    pub bytes_in: u64,
    /// Descriptors dropped at full parser queues.
    pub queue_drops: u64,
    /// Packets the sampler rejected.
    pub sampler_drops: u64,
    /// Tuples emitted.
    pub tuples_out: u64,
    /// Encoded output bytes.
    pub bytes_out: u64,
    /// Parsed tuples folded into pre-aggregation sketches.
    pub tuples_folded: u64,
    /// Sketch delta tuples shipped.
    pub sketches_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_data::{CollectSink, DataTuple, SinkClosed, TupleBatch};
    use netalytics_packet::{http, TcpFlags};
    use std::net::Ipv4Addr;
    use std::sync::mpsc;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn get(port: u16, url: &str) -> Packet {
        Packet::tcp(
            A,
            port,
            B,
            80,
            TcpFlags::PSH | TcpFlags::ACK,
            1,
            1,
            &http::build_get(url, "b"),
        )
    }

    /// Spawns a pipeline into a fresh [`CollectSink`].
    fn spawn(config: PipelineConfig) -> (Pipeline, Arc<CollectSink>) {
        let sink = Arc::new(CollectSink::new());
        let p = Pipeline::spawn_with_sink(config, sink.clone()).unwrap();
        (p, sink)
    }

    fn rows(sink: &CollectSink) -> Vec<DataTuple> {
        sink.drain().into_iter().flatten().collect()
    }

    /// Forwards each sealed batch over a channel, so a test can wait for
    /// output while the pipeline is still running.
    struct ChannelSink(mpsc::Sender<ColumnBatch>);

    impl BatchSink for ChannelSink {
        fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed> {
            self.ship_columns(ColumnBatch::from_batch(&batch))
        }

        fn ship_columns(&self, columns: ColumnBatch) -> Result<(), SinkClosed> {
            self.0.send(columns).map_err(|e| SinkClosed(e.0.to_batch()))
        }
    }

    fn spawn_channel(config: PipelineConfig) -> (Pipeline, mpsc::Receiver<ColumnBatch>) {
        let (tx, rx) = mpsc::channel();
        let p = Pipeline::spawn_with_sink(config, Arc::new(ChannelSink(tx))).unwrap();
        (p, rx)
    }

    #[test]
    fn rejects_bad_config() {
        let sink = Arc::new(CollectSink::new());
        assert!(Pipeline::spawn_with_sink(
            PipelineConfig {
                parsers: vec![],
                ..Default::default()
            },
            sink.clone()
        )
        .is_err());
        assert!(Pipeline::spawn_with_sink(
            PipelineConfig {
                parsers: vec!["nope".into()],
                ..Default::default()
            },
            sink
        )
        .is_err());
    }

    #[test]
    fn processes_packets_end_to_end() {
        let (p, sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            batch_size: 4,
            ..Default::default()
        });
        for i in 0..20 {
            p.offer(get(4000 + i, &format!("/u{i}")));
        }
        let summary = p.shutdown(false);
        assert_eq!(summary.packets_in, 20);
        assert_eq!(summary.tuples_out, 20);
        assert_eq!(sink.tuple_count(), 20, "all tuples reached the sink");
        assert!(summary.bytes_out > 0);
    }

    #[test]
    fn two_parsers_both_see_traffic() {
        let (p, sink) = spawn(PipelineConfig {
            parsers: vec!["tcp_conn_time".into(), "http_get".into()],
            batch_size: 1,
            ..Default::default()
        });
        p.offer(Packet::tcp(A, 1, B, 80, TcpFlags::SYN, 0, 0, b""));
        p.offer(get(1, "/x"));
        p.shutdown(false);
        let sources: std::collections::HashSet<String> =
            rows(&sink).into_iter().map(|t| t.source).collect();
        assert!(sources.contains("tcp_conn_time"), "{sources:?}");
        assert!(sources.contains("http_get"), "{sources:?}");
    }

    #[test]
    fn a_trickle_reaches_the_sink_while_the_pipeline_runs() {
        let (p, rx) = spawn_channel(PipelineConfig {
            parsers: vec!["http_get".into()],
            batch_size: 128,
            heartbeat_interval: Duration::from_millis(5),
            ..Default::default()
        });
        for i in 0..10 {
            p.offer(get(4000 + i, &format!("/t{i}")));
        }
        // Far fewer rows than a batch, and no more traffic coming: the
        // idle flush must ship them without waiting for shutdown.
        let mut got = 0;
        while got < 10 {
            got += rx
                .recv_timeout(Duration::from_secs(10))
                .expect("rows held hostage until shutdown")
                .rows();
        }
        assert_eq!(got, 10);
        assert_eq!(p.shutdown(false).tuples_out, 10);
    }

    #[test]
    fn an_aggregating_parser_flushes_while_the_pipeline_runs() {
        let batch_size = 16;
        let (p, rx) = spawn_channel(PipelineConfig {
            parsers: vec!["tcp_pkt_size".into()],
            batch_size,
            // Only the packet count may trigger the flush here.
            heartbeat_interval: Duration::from_secs(3600),
            ..Default::default()
        });
        for i in 0..10 * batch_size as u64 {
            p.offer(Packet::tcp(A, 4000, B, 80, TcpFlags::ACK, 0, 0, &[0u8; 100]).at_time(1 + i));
        }
        // tcp_pkt_size emits only on flush: every `batch_size` packets,
        // stamped with event time, not once at shutdown stamped zero.
        let mut bytes = 0;
        for _ in 0..10 {
            let batch = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("flushed while running");
            for t in batch.to_batch() {
                assert!(t.ts_ns > 0, "flush carries the lane's event time");
                bytes += t
                    .get("bytes")
                    .and_then(netalytics_data::Value::as_u64)
                    .unwrap();
            }
        }
        assert_eq!(
            bytes,
            10 * batch_size as u64 * 100,
            "no packet lost or doubled"
        );
        assert_eq!(p.shutdown(false).tuples_out, 10);
    }

    #[test]
    fn monitor_and_one_worker_pipeline_emit_the_same_rows() {
        use crate::{Monitor, MonitorConfig, STOCK_PARSERS};
        use netalytics_packet::{memcached, mysql};

        // Eight connections, each speaking every protocol the stock
        // parsers know (requests up, then responses down), on a 1 us clock.
        let data = TcpFlags::PSH | TcpFlags::ACK;
        let mut traffic = Vec::new();
        for port in 4000..4008 {
            let conversation = [
                (true, TcpFlags::SYN, Vec::new()),
                (true, data, http::build_get(&format!("/p{port}"), "b")),
                (true, data, memcached::build_get("k")),
                (true, data, mysql::build_query("SELECT 1")),
                (false, data, http::build_response(200, b"x")),
                (
                    false,
                    data,
                    memcached::build_value_response("k", Some(b"v")),
                ),
                (false, data, mysql::build_ok(1)),
                (true, TcpFlags::FIN | TcpFlags::ACK, Vec::new()),
            ];
            for (up, flags, payload) in conversation {
                let ts = 1_000 * (traffic.len() as u64 + 1);
                traffic.push(match up {
                    true => Packet::tcp(A, port, B, 80, flags, 1, 1, &payload).at_time(ts),
                    false => Packet::tcp(B, 80, A, port, flags, 1, 1, &payload).at_time(ts),
                });
            }
        }
        let end_ns = traffic.last().unwrap().ts_ns;

        for name in STOCK_PARSERS {
            let mut m = Monitor::new(MonitorConfig {
                parsers: vec![name.into()],
                sample: SampleSpec::All,
                batch_size: 8,
                preagg: None,
            })
            .unwrap();
            for pkt in &traffic {
                m.process(pkt);
            }
            let inline: Vec<DataTuple> = m
                .drain(end_ns)
                .iter()
                .flat_map(ColumnBatch::to_batch)
                .collect();
            assert!(!inline.is_empty(), "{name} sees its protocol");

            let (p, sink) = spawn(PipelineConfig {
                parsers: vec![name.into()],
                batch_size: 8,
                // An idle flush mid-stream would move tcp_pkt_size's cuts.
                heartbeat_interval: Duration::from_secs(3600),
                ..Default::default()
            });
            for pkt in &traffic {
                p.offer(pkt.clone());
            }
            p.shutdown(false);
            assert_eq!(rows(&sink), inline, "{name}: one lane, two drivers");
        }
    }

    #[test]
    fn registry_mode_reports_monitor_metrics() {
        use netalytics_telemetry::MetricValue;
        let metrics = Arc::new(MetricsRegistry::new());
        let (p, _sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            batch_size: 4,
            metrics: Some(Arc::clone(&metrics)),
            ..Default::default()
        });
        for i in 0..64 {
            p.offer(get(4000 + i, &format!("/m{i}")));
        }
        let summary = p.shutdown(false);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter_total("monitor.packets_in"), summary.packets_in);
        assert_eq!(snap.counter_total("monitor.tuples_out"), 64);
        let batches = snap.histogram_merged("monitor.batch_size");
        assert_eq!(batches.sum(), 64, "batch sizes sum to the tuple total");
        assert!(batches.max() <= 4);
        let lat = snap.histogram_merged("monitor.parse_latency_ns");
        assert!(lat.count() >= 1, "latency sampled at 1/{LATENCY_SAMPLE}");
        match snap.get(
            "monitor.parser_queue_depth",
            &[("parser", "http_get"), ("worker", "0")],
        ) {
            Some(MetricValue::Gauge(d)) => assert_eq!(*d, 0, "drained at shutdown"),
            other => panic!("queue depth gauge missing: {other:?}"),
        }
    }

    #[test]
    fn tracing_stamps_sealed_batches() {
        use netalytics_telemetry::{TraceConfig, Tracer};
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        let (p, sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            batch_size: 4,
            tracing: Some((9, Arc::clone(&tracer))),
            ..Default::default()
        });
        for i in 0..8 {
            p.offer(get(4000 + i, &format!("/t{i}")));
        }
        p.shutdown(false);
        let batches = sink.drain();
        assert!(!batches.is_empty());
        for b in &batches {
            let ctx = b.trace.expect("sample_every=1 stamps every batch");
            assert_eq!(ctx.cookie, 9);
        }
        let falls = tracer.waterfalls(9);
        assert!(!falls.is_empty());
        assert_eq!(falls[0].spans[0].stage, "parse");
    }

    #[test]
    fn preagg_cuts_tuples_over_queue_but_preserves_totals() {
        use netalytics_sketch::{PreAggSpec, Sketch};

        let (p, sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            workers_per_parser: 2,
            batch_size: 16,
            preagg: Some(PreAggSpec::HeavyHitters {
                key_field: "url".into(),
                eps: 0.001,
            }),
            // The idle flush would ship extra (still exact) deltas.
            heartbeat_interval: Duration::from_secs(3600),
            ..Default::default()
        });
        for i in 0..400u16 {
            p.offer(get(4000 + i, &format!("/h{}", i % 4)));
        }
        let s = p.shutdown(false);
        assert_eq!(s.tuples_folded, 400, "every GET folds into a sketch");
        assert!(
            s.sketches_out >= 1 && s.sketches_out <= 2,
            "one residual delta per worker, got {}",
            s.sketches_out
        );
        assert_eq!(s.tuples_out, s.sketches_out, "only deltas cross the queue");
        // Worker deltas merge back to exact totals at sketch capacity.
        let mut merged: Option<Sketch> = None;
        for t in rows(&sink) {
            let sk = Sketch::from_tuple(&t)
                .expect("sketch tuple")
                .expect("decodes");
            match &mut merged {
                None => merged = Some(sk),
                Some(m) => m.merge(&sk).expect("same kind"),
            }
        }
        let Some(Sketch::HeavyHitters(ss)) = merged else {
            panic!("expected a heavy-hitters sketch");
        };
        for k in 0..4 {
            assert_eq!(ss.estimate(&format!("/h{k}")).map(|e| e.count), Some(100));
        }
    }

    #[test]
    fn fault_heartbeat_beats_while_idle_and_stops_at_shutdown() {
        let (p, _sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            heartbeat_interval: Duration::from_millis(5),
            ..Default::default()
        });
        std::thread::sleep(Duration::from_millis(40));
        let first = p.last_heartbeat_ns();
        assert!(first > 0, "collector beat without any traffic");
        std::thread::sleep(Duration::from_millis(40));
        assert!(p.last_heartbeat_ns() > first, "heartbeat keeps advancing");
        assert!(p.heartbeat_age() < Duration::from_secs(1));
        p.shutdown(false);
    }

    #[test]
    fn sampler_drops_are_counted() {
        let (p, _sink) = spawn(PipelineConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::Rate(0.2),
            ..Default::default()
        });
        for i in 0..500u16 {
            p.offer(Packet::tcp(A, i, B, 80, TcpFlags::ACK, 0, 0, b""));
        }
        let s = p.shutdown(false);
        assert!(s.sampler_drops > 200, "drops {}", s.sampler_drops);
        assert_eq!(s.packets_in + s.sampler_drops, 500);
    }

    #[test]
    fn overload_sheds_at_parser_queue() {
        // A tiny parser queue plus a burst bigger than it can hold must
        // produce queue drops rather than unbounded memory.
        let (p, _sink) = spawn(PipelineConfig {
            parsers: vec!["mysql_query".into()],
            input_depth: 4096,
            parser_depth: 2,
            batch_size: 1024,
            ..Default::default()
        });
        // Use mysql parser with packets that require real work.
        let payload = netalytics_packet::mysql::build_query(
            "SELECT * FROM film JOIN actor USING (id) WHERE title LIKE '%X%'",
        );
        for _ in 0..5000 {
            p.offer(Packet::tcp(
                A,
                1,
                B,
                3306,
                TcpFlags::PSH | TcpFlags::ACK,
                1,
                1,
                &payload,
            ));
        }
        let s = p.shutdown(false);
        assert_eq!(s.packets_in, 5000);
        // Either the parser kept up or drops were recorded; totals must
        // reconcile exactly.
        assert_eq!(s.tuples_out, 0, "queries without responses emit nothing");
        assert!(s.queue_drops < 5000);
    }

    #[test]
    fn multi_worker_parser_preserves_totals() {
        let (p, sink) = spawn(PipelineConfig {
            parsers: vec!["http_get".into()],
            workers_per_parser: 4,
            batch_size: 8,
            ..Default::default()
        });
        for i in 0..200u16 {
            p.offer(get(4000 + i, &format!("/w{i}")));
        }
        let s = p.shutdown(false);
        assert_eq!(s.packets_in, 200);
        assert_eq!(s.tuples_out, 200, "no tuple lost or duplicated");
        let urls: std::collections::HashSet<String> = rows(&sink)
            .iter()
            .filter_map(|t| t.get("url").and_then(netalytics_data::Value::as_str))
            .map(str::to_owned)
            .collect();
        assert_eq!(urls.len(), 200, "every GET surfaced exactly once");
    }

    #[test]
    fn multi_worker_dispatch_is_flow_consistent() {
        // A stateful parser (mysql_query) must see a flow's query and
        // response on the SAME worker or pairing breaks.
        let (p, _sink) = spawn(PipelineConfig {
            parsers: vec!["mysql_query".into()],
            workers_per_parser: 4,
            batch_size: 1,
            ..Default::default()
        });
        for i in 0..50u16 {
            let port = 4000 + i;
            p.offer(Packet::tcp(
                A,
                port,
                B,
                3306,
                TcpFlags::PSH | TcpFlags::ACK,
                1,
                1,
                &netalytics_packet::mysql::build_query("SELECT 1"),
            ));
            p.offer(Packet::tcp(
                B,
                3306,
                A,
                port,
                TcpFlags::PSH | TcpFlags::ACK,
                1,
                2,
                &netalytics_packet::mysql::build_ok(1),
            ));
        }
        let s = p.shutdown(false);
        assert_eq!(
            s.tuples_out, 50,
            "every query/response pair must land on one worker"
        );
    }
}
