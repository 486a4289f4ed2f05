//! The adapter between the benchmark and the system under test.
//!
//! Every in-process call into the program lives in this file; the rest
//! of the benchmark sees only the handles defined here, plain data and
//! HTTP. It uses the entry points the data plane itself keeps — the
//! columnar [`Pipeline`], [`BatchSink::ship_columns`],
//! [`build_executor`] with `Inline` / `Sharded`, [`StoreSink`],
//! [`TimeSeriesStore`] and one frontend spawn — so a change that removes
//! the row codec, `Parser::on_packet` or the threaded executor does not
//! have to touch the benchmark. Nothing here edits or instruments the
//! program: timing wrappers implement the program's public `Bolt` and
//! `BatchSink` traits from outside.

use std::collections::{HashMap, VecDeque};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netalytics::{
    tuple_json, FrontendConfig, Orchestrator, QueryFrontend, Response, Router, TelemetryServer,
};
use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
use netalytics_data::{BatchBuilder, BatchSink, SinkClosed};
use netalytics_monitor::{make_parser, FlowSampler, Parser, Pipeline, PipelineConfig, SampleSpec};
use netalytics_netsim::SimTime;
use netalytics_packet::{http, TcpFlags, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, TCP_HEADER_LEN};
use netalytics_queue::{QueueCluster, QueueConfig, QueueWriter};
use netalytics_store::{
    AggValue, HistoryAgg, HistoryQuery, SeriesKey, StoreConfig, StoreSink, TimeSeriesStore,
};
use netalytics_stream::{
    build_executor, topologies, Bolt, Executor, ExecutorMode, ProcessorSpec, QueueSpout,
    ShardedConfig, Spout, Subscription, SubscriptionHub, SubscriptionSink, Topology,
};
use netalytics_telemetry::{Introspection, MetricsRegistry};

pub use netalytics_data::{ColumnBatch, DataTuple, TupleBatch};
pub use netalytics_packet::Packet;

use crate::spans::now_ns;

/// Query id every lane and the history workload store their series
/// under (`GET /queries/{COOKIE}/results` reads them back).
pub const COOKIE: u64 = 1;

/// Rows per sealed column batch, on both drives.
pub const BATCH_ROWS: usize = 256;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Packets
// ---------------------------------------------------------------------

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 8);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 9);

/// An HTTP GET for `url` padded with spaces to exactly `frame_len`
/// bytes, on the flow `SRC:src_port -> DST:80`.
///
/// # Panics
///
/// Panics if `frame_len` cannot hold the headers plus the request.
pub fn http_get_frame(src_port: u16, url: &str, frame_len: usize) -> Packet {
    let overhead = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
    let mut payload = http::build_get(url, "h");
    assert!(overhead + payload.len() <= frame_len, "frame too small");
    payload.resize(frame_len - overhead, b' ');
    Packet::tcp(
        SRC,
        src_port,
        DST,
        80,
        TcpFlags::PSH | TcpFlags::ACK,
        1,
        1,
        &payload,
    )
}

/// The SYN (`fin == false`) or FIN of the connection
/// `client:port -> server:80`, padded to `frame_len` bytes.
pub fn conn_frame(client: Ipv4Addr, port: u16, server: Ipv4Addr, fin: bool, len: usize) -> Packet {
    let flags = if fin {
        TcpFlags::FIN | TcpFlags::ACK
    } else {
        TcpFlags::SYN
    };
    Packet::tcp_padded(client, port, server, 80, flags, len)
}

/// The packet layer's per-packet work: header view plus flow key.
/// Returns whether both succeeded.
pub fn view_and_flow(p: &Packet) -> bool {
    p.view().is_ok() && p.flow_key().is_some()
}

/// Event time of a result tuple.
pub fn tuple_ts(t: &DataTuple) -> u64 {
    t.ts_ns
}

/// A numeric field of a result tuple, widened to `f64`.
pub fn field_f64(t: &DataTuple, name: &str) -> Option<f64> {
    t.get(name).and_then(netalytics_data::Value::as_f64)
}

/// An unsigned field of a result tuple.
pub fn field_u64(t: &DataTuple, name: &str) -> Option<u64> {
    t.get(name).and_then(netalytics_data::Value::as_u64)
}

/// A string field of a result tuple.
pub fn field_str<'a>(t: &'a DataTuple, name: &str) -> Option<&'a str> {
    t.get(name).and_then(netalytics_data::Value::as_str)
}

// ---------------------------------------------------------------------
// Lanes: shared wiring
// ---------------------------------------------------------------------

/// What one lane workload runs.
#[derive(Debug, Clone, Copy)]
pub struct LaneSpec {
    /// Stock parser name.
    pub parser: &'static str,
    /// Catalog processor name and arguments.
    pub processor: &'static str,
    pub args: &'static [(&'static str, &'static str)],
    /// Result field whose value names the store series.
    pub group_field: Option<&'static str>,
}

/// Times at which the hub wrapper began publishing each row, oldest
/// first; the subscriber pops one per line it reads.
pub type StampQueue = Arc<Mutex<VecDeque<u64>>>;

/// Time a wrapped layer spent inside the program's calls into it.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl LayerClock {
    /// `(nanoseconds, calls)` accumulated so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// A pass-through wrapper that times every call the executor makes into
/// the wrapped sink bolt. Used on traced runs only.
struct TimedBolt<B> {
    inner: B,
    clock: Arc<LayerClock>,
    /// When set, the time each `execute` began is queued for the
    /// subscriber to match against line arrival.
    stamps: Option<StampQueue>,
}

impl<B: Bolt> Bolt for TimedBolt<B> {
    fn execute(&mut self, tuple: &DataTuple, out: &mut Vec<DataTuple>) {
        // Stamped before the call, so the stamp is queued by the time
        // the subscriber can possibly read the line.
        if let Some(stamps) = &self.stamps {
            lock(stamps).push_back(now_ns());
        }
        let t0 = Instant::now();
        self.inner.execute(tuple, out);
        self.clock
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn tick(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        let t0 = Instant::now();
        self.inner.tick(now_ns, out);
        self.clock
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn finish(&mut self, now_ns: u64, out: &mut Vec<DataTuple>) {
        self.inner.finish(now_ns, out);
    }
}

/// The parts both drives share: store, hub, queue and the topology that
/// ends in `StoreSink` then `SubscriptionSink`.
struct LaneCore {
    store: Arc<TimeSeriesStore>,
    hub: Arc<SubscriptionHub>,
    cluster: Arc<QueueCluster>,
    writer: Arc<QueueWriter>,
    topo: Topology,
    sink_clock: Arc<LayerClock>,
    hub_clock: Arc<LayerClock>,
    publish_stamps: StampQueue,
}

impl LaneCore {
    fn build(
        spec: &LaneSpec,
        store_dir: &Path,
        traced: bool,
        stamp_publishes: bool,
        retained_batches: usize,
    ) -> Result<LaneCore, String> {
        let store =
            Arc::new(TimeSeriesStore::open(store_dir).map_err(|e| format!("store open: {e}"))?);
        // Deep enough that a subscriber descheduled for a few hundred
        // milliseconds — the host does that — sheds nothing; the depth is
        // the hub owner's to choose and costs nothing while it is empty.
        let hub = Arc::new(SubscriptionHub::with_depth(16_384));
        // One partition keeps batches in ship order, so dwell can be
        // matched batch for batch. Retention is short on purpose: the log
        // keeps every batch until it is pushed out, consumed or not, and
        // a long log would cycle the run through tens of megabytes of
        // dead payloads — memory traffic that is the host's to vary, not
        // the program's.
        let cluster = Arc::new(QueueCluster::new(QueueConfig {
            brokers: 1,
            partitions: 1,
            partition_capacity: retained_batches,
            replication: 1,
        }));
        let writer = Arc::new(QueueWriter::new(Arc::clone(&cluster), spec.parser));
        let mut proc_spec = ProcessorSpec::new(spec.processor);
        for (k, v) in spec.args {
            proc_spec = proc_spec.with_arg(*k, *v);
        }
        let base = topologies::build(&proc_spec).map_err(|e| format!("topology: {e}"))?;
        let sink_clock = Arc::new(LayerClock::default());
        let hub_clock = Arc::new(LayerClock::default());
        let publish_stamps = Arc::new(Mutex::new(VecDeque::new()));
        let group = spec.group_field.map(str::to_string);
        let topo = if traced {
            let (s, g, c) = (Arc::clone(&store), group.clone(), Arc::clone(&sink_clock));
            let (h, hc) = (Arc::clone(&hub), Arc::clone(&hub_clock));
            let stamps = stamp_publishes.then(|| Arc::clone(&publish_stamps));
            base.with_sink("store_sink", move || {
                Box::new(TimedBolt {
                    inner: StoreSink::new(Arc::clone(&s), COOKIE, g.clone()),
                    clock: Arc::clone(&c),
                    stamps: None,
                })
            })
            .with_sink("subscription_sink", move || {
                Box::new(TimedBolt {
                    inner: SubscriptionSink::new(Arc::clone(&h)),
                    clock: Arc::clone(&hc),
                    stamps: stamps.clone(),
                })
            })
        } else {
            let (s, g) = (Arc::clone(&store), group.clone());
            let h = Arc::clone(&hub);
            base.with_sink("store_sink", move || {
                Box::new(StoreSink::new(Arc::clone(&s), COOKIE, g.clone()))
            })
            .with_sink("subscription_sink", move || {
                Box::new(SubscriptionSink::new(Arc::clone(&h)))
            })
        };
        Ok(LaneCore {
            store,
            hub,
            cluster,
            writer,
            topo,
            sink_clock,
            hub_clock,
            publish_stamps,
        })
    }
}

/// Counter snapshot of one lane, read from the program's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    pub rows_shipped: u64,
    pub batches_lost: u64,
    pub processed: u64,
    pub emitted: u64,
    pub shed: u64,
    pub store_tuples: u64,
    pub store_append_errors: u64,
    pub hub_shed: u64,
    pub queue_lag: u64,
}

fn lane_counters(core: &LaneCore, (processed, emitted, shed): (u64, u64, u64)) -> LaneCounters {
    let stats = core.store.stats();
    let topic = core.writer.topic();
    LaneCounters {
        rows_shipped: core.writer.tuples_shipped(),
        batches_lost: core.writer.batches_lost(),
        processed,
        emitted,
        shed,
        store_tuples: stats.tuples,
        store_append_errors: stats.append_errors,
        hub_shed: core.hub.shed(),
        queue_lag: core.cluster.lag_of(core.cluster.group_id(GROUP), topic),
    }
}

fn exec_counts(exec: &dyn Executor) -> (u64, u64, u64) {
    (exec.processed(), exec.emitted(), exec.shed_tuples())
}

/// Consumer group every lane's spout reads as.
const GROUP: &str = "bench";

// ---------------------------------------------------------------------
// Stepped drive
// ---------------------------------------------------------------------

/// The data plane carried one call at a time by the benchmark's thread,
/// through the entry points the threaded fast lane itself calls. Each
/// method is one call into one layer, so the caller can put a span round
/// it.
pub struct SteppedLane {
    core: LaneCore,
    sampler: FlowSampler,
    parser: Box<dyn Parser>,
    builder: BatchBuilder,
    spout: QueueSpout,
    exec: Box<dyn Executor>,
    sub: Subscription,
    line: String,
}

impl SteppedLane {
    /// Opens the disk-backed store in `store_dir` and wires the lane.
    ///
    /// # Errors
    ///
    /// Store open failures, or an unknown parser / processor.
    pub fn open(spec: &LaneSpec, store_dir: &Path, traced: bool) -> Result<SteppedLane, String> {
        let core = LaneCore::build(spec, store_dir, traced, false, 64)?;
        let parser =
            make_parser(spec.parser).ok_or_else(|| format!("unknown parser {}", spec.parser))?;
        let spout = QueueSpout::new(Arc::clone(&core.cluster), spec.parser, GROUP);
        let exec = build_executor(&core.topo, ExecutorMode::Inline);
        let sub = core.hub.subscribe();
        Ok(SteppedLane {
            core,
            sampler: FlowSampler::new(SampleSpec::All),
            parser,
            builder: BatchBuilder::new(),
            spout,
            exec,
            sub,
            line: String::with_capacity(256),
        })
    }

    /// `FlowSampler::accept`.
    #[inline]
    pub fn accept(&mut self, p: &Packet) -> bool {
        self.sampler.accept(p)
    }

    /// `Parser::on_packet_columns` into the lane's builder.
    #[inline]
    pub fn parse(&mut self, p: &Packet) {
        self.parser.on_packet_columns(p, &mut self.builder);
    }

    /// `BatchBuilder::finish`.
    pub fn seal(&mut self) -> ColumnBatch {
        self.builder.finish()
    }

    /// `QueueWriter::ship_columns`.
    pub fn ship(&self, batch: ColumnBatch) -> bool {
        self.core.writer.ship_columns(batch).is_ok()
    }

    /// `QueueSpout::poll_batch`.
    pub fn poll(&mut self) -> TupleBatch {
        self.spout.poll_batch(64)
    }

    /// `Executor::offer`.
    pub fn offer(&mut self, batch: TupleBatch) {
        self.exec.offer(batch);
    }

    /// `Executor::tick`.
    pub fn tick(&mut self, watermark_ns: u64) {
        self.exec.tick(watermark_ns);
    }

    /// `Executor::poll_output`.
    pub fn poll_output(&mut self) -> Vec<DataTuple> {
        self.exec.poll_output()
    }

    /// `Subscription::drain`.
    pub fn drain_subscriber(&mut self) -> Vec<DataTuple> {
        self.sub.drain()
    }

    /// `tuple_json` into the lane's reused line buffer.
    pub fn render(&mut self, t: &DataTuple) -> &str {
        self.line.clear();
        self.line.push_str(&tuple_json(t));
        &self.line
    }

    /// `Executor::stop`: closes open windows at `now_ns` and returns the
    /// residual output.
    pub fn stop(&mut self, now_ns: u64) -> Vec<DataTuple> {
        self.exec.stop(now_ns)
    }

    /// The program's counters for this lane.
    pub fn counters(&self) -> LaneCounters {
        lane_counters(&self.core, exec_counts(self.exec.as_ref()))
    }

    /// Clocks of the timing wrappers round `StoreSink` and
    /// `SubscriptionSink` (all zero on an untraced lane).
    pub fn sink_clocks(&self) -> (Arc<LayerClock>, Arc<LayerClock>) {
        (
            Arc::clone(&self.core.sink_clock),
            Arc::clone(&self.core.hub_clock),
        )
    }
}

// ---------------------------------------------------------------------
// Paced drive
// ---------------------------------------------------------------------

/// A [`BatchSink`] that notes when each sealed batch was shipped and how
/// long the ship took, then forwards to the [`QueueWriter`].
struct TimingSink {
    inner: Arc<QueueWriter>,
    /// `(ship time, rows)` per batch, in ship order.
    shipped: Mutex<VecDeque<(u64, usize)>>,
    /// Capture stamp of a batch's newest row → ship time, microseconds.
    capture_to_ship_us: Mutex<Vec<f64>>,
}

impl BatchSink for TimingSink {
    fn ship(&self, batch: TupleBatch) -> Result<(), SinkClosed> {
        self.inner.ship(batch)
    }

    fn ship_columns(&self, columns: ColumnBatch) -> Result<(), SinkClosed> {
        let rows = columns.rows();
        let newest = columns.timestamps().iter().copied().max().unwrap_or(0);
        let _span = crate::spans::span("queue.ship");
        let t0 = now_ns();
        // Noted before the ship, so the entry exists by the time the
        // driver can possibly poll the batch.
        lock(&self.shipped).push_back((t0, rows));
        let r = self.inner.ship_columns(columns);
        let t1 = now_ns();
        if newest > 0 {
            lock(&self.capture_to_ship_us).push(t1.saturating_sub(newest) as f64 / 1e3);
        }
        r
    }
}

/// What the driver thread measured, handed back when the lane finishes.
#[derive(Debug, Default, Clone)]
pub struct DriverReport {
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub batches: u64,
    pub rows_polled: u64,
    pub output_rows: u64,
    /// Ship → poll per batch, microseconds.
    pub dwell_us: Vec<f64>,
    pub depth_max: usize,
    /// `Executor::{processed, emitted, shed_tuples}` after `stop`.
    pub exec_counts: (u64, u64, u64),
}

/// Everything the paced lane reports once drained and stopped.
#[derive(Debug, Default, Clone)]
pub struct PacedReport {
    pub counters: LaneCounters,
    pub driver: DriverReport,
    pub packets_in: u64,
    pub tuples_out: u64,
    pub queue_drops: u64,
    pub sampler_drops: u64,
    pub capture_to_ship_us: Vec<f64>,
}

/// A handle the generator thread feeds packets through.
#[derive(Clone)]
pub struct LaneInput {
    pipeline: Arc<Pipeline>,
}

impl LaneInput {
    /// Offers without blocking; `false` when the input ring is full.
    #[inline]
    pub fn try_offer(&self, p: Packet) -> bool {
        self.pipeline.try_offer(p)
    }

    /// Offers, blocking while the input ring is full.
    #[inline]
    pub fn offer(&self, p: Packet) {
        self.pipeline.offer(p);
    }
}

/// The real threaded lane: columnar [`Pipeline`] → [`QueueWriter`] →
/// a driver thread (`QueueSpout::poll_batch` → one-shard `Sharded`
/// executor → `tick` on the event-time watermark) → `StoreSink` +
/// `SubscriptionSink` → hub → an NDJSON route identical to the
/// frontend's `/stream` handler.
pub struct PacedLane {
    core: Arc<LaneCore>,
    pipeline: Arc<Pipeline>,
    sink: Arc<TimingSink>,
    server: TelemetryServer,
    stop: Arc<AtomicBool>,
    driver: Option<JoinHandle<DriverReport>>,
}

/// Registers the frontend's `/stream` handler over one hub: subscribe,
/// then one `tuple_json` line per tuple, a blank keep-alive line every
/// idle 100 ms, end of stream when the hub closes or `?max=` is reached.
fn stream_route(router: &mut Router, hub: Arc<SubscriptionHub>) {
    router.route("GET", "/stream", move |req| {
        let hub = Arc::clone(&hub);
        let max: Option<u64> = req.query_param("max").and_then(|v| v.parse().ok());
        Response::ndjson_stream(move |w| {
            let sub = hub.subscribe();
            let mut sent = 0u64;
            loop {
                if max.is_some_and(|m| sent >= m) {
                    break;
                }
                match sub.recv_timeout(Duration::from_millis(100)) {
                    Ok(tuple) => {
                        if w.send_line(&tuple_json(&tuple)).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        if w.send_line("").is_err() {
                            break;
                        }
                    }
                }
            }
        })
    });
}

impl PacedLane {
    /// Spawns the whole threaded lane and its HTTP server on
    /// `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// Store open, bind or spawn failures.
    pub fn spawn(spec: &LaneSpec, store_dir: &Path, traced: bool) -> Result<PacedLane, String> {
        // Half a second of traffic and more: a consumer stall that long
        // loses rows, and they are counted as failed.
        let core = Arc::new(LaneCore::build(spec, store_dir, traced, traced, 512)?);
        let sink = Arc::new(TimingSink {
            inner: Arc::clone(&core.writer),
            shipped: Mutex::new(VecDeque::new()),
            capture_to_ship_us: Mutex::new(Vec::new()),
        });
        let pipeline = Pipeline::spawn_with_sink(
            PipelineConfig {
                parsers: vec![spec.parser.to_string()],
                workers_per_parser: 1,
                sample: SampleSpec::All,
                // A third of a second of the fastest lane's traffic, for
                // the same reason the hub is deep.
                input_depth: 32_768,
                parser_depth: 32_768,
                batch_size: BATCH_ROWS,
                columnar: true,
                ..PipelineConfig::default()
            },
            Arc::clone(&sink) as Arc<dyn BatchSink>,
        )
        .map_err(|e| format!("pipeline: {e}"))?;
        let mut router = Router::new();
        stream_route(&mut router, Arc::clone(&core.hub));
        let server = TelemetryServer::spawn_router("127.0.0.1:0", router, 2)
            .map_err(|e| format!("bind: {e}"))?;

        let stop = Arc::new(AtomicBool::new(false));
        let driver = {
            let core = Arc::clone(&core);
            let sink = Arc::clone(&sink);
            let stop = Arc::clone(&stop);
            let topic = spec.parser;
            std::thread::Builder::new()
                .name("bench-driver".into())
                .spawn(move || drive(&core, &sink, topic, &stop))
                .map_err(|e| format!("spawn driver: {e}"))?
        };
        Ok(PacedLane {
            core,
            pipeline: Arc::new(pipeline),
            sink,
            server,
            stop,
            driver: Some(driver),
        })
    }

    /// Live subscribers on the lane's hub.
    pub fn subscribers(&self) -> usize {
        self.core.hub.subscriber_count()
    }

    /// Address of the lane's HTTP server (`GET /stream`).
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A handle for the generator thread.
    pub fn input(&self) -> LaneInput {
        LaneInput {
            pipeline: Arc::clone(&self.pipeline),
        }
    }

    /// Queue of hub-publish wall times, one per published row, filled
    /// on traced lanes only.
    pub fn publish_stamps(&self) -> StampQueue {
        Arc::clone(&self.core.publish_stamps)
    }

    /// Drains the pipeline, lets the driver consume everything shipped,
    /// stops the executor (closing open windows at the final watermark),
    /// closes the hub so the subscriber sees end of stream, and shuts the
    /// server down. Every [`LaneInput`] clone must be dropped first.
    ///
    /// # Errors
    ///
    /// A stage that does not finish within the deadline.
    pub fn finish(mut self, deadline: Duration) -> Result<PacedReport, String> {
        let t_end = Instant::now() + deadline;
        let pipeline = Arc::try_unwrap(self.pipeline)
            .map_err(|_| "a generator still holds the lane input".to_string())?;
        let summary = pipeline.shutdown(false);
        // The pipeline has shipped everything; the driver exits once the
        // queue is drained.
        self.stop.store(true, Ordering::Release);
        let driver = self.driver.take().expect("driver joined once");
        while !driver.is_finished() {
            if Instant::now() > t_end {
                return Err("driver did not drain the queue in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = driver.join().map_err(|_| "driver panicked".to_string())?;
        let counters = lane_counters(&self.core, report.exec_counts);
        self.core.hub.close();
        self.server.shutdown();
        Ok(PacedReport {
            counters,
            driver: report,
            packets_in: summary.packets_in,
            tuples_out: summary.tuples_out,
            queue_drops: summary.queue_drops,
            sampler_drops: summary.sampler_drops,
            capture_to_ship_us: std::mem::take(&mut *lock(&self.sink.capture_to_ship_us)),
        })
    }
}

/// The driver loop: poll the queue, offer, tick on the event-time
/// watermark, drain the executor's output. Runs until `stop` is set and
/// the queue is empty, then stops the executor. The executor is built
/// here because `dyn Executor` is not `Send`: it lives and dies on this
/// thread.
fn drive(core: &LaneCore, sink: &TimingSink, topic: &str, stop: &AtomicBool) -> DriverReport {
    let mut exec = build_executor(
        &core.topo,
        ExecutorMode::Sharded(ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        }),
    );
    let mut spout = QueueSpout::new(Arc::clone(&core.cluster), topic, GROUP);
    let topic_id = core.writer.topic();
    let mut report = DriverReport::default();
    let mut watermark = 0u64;
    let started = now_ns();
    let group = core.cluster.group_id(GROUP);
    let mut passes = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        passes += 1;
        if passes.is_multiple_of(8) {
            // Batches waiting in the queue, seen before they are taken.
            let lag = core.cluster.lag_of(group, topic_id) as usize;
            report.depth_max = report.depth_max.max(lag);
        }
        let t0 = now_ns();
        let batch = spout.poll_batch(64);
        if batch.is_empty() {
            if stopping {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        let _span = crate::spans::span("stream.drive_batch");
        let polled_at = now_ns();
        let rows = batch.len();
        // Match polled rows to shipped batches (one partition: in order).
        {
            let mut shipped = lock(&sink.shipped);
            let mut left = rows;
            while left > 0 {
                let Some(&(at, n)) = shipped.front() else {
                    break;
                };
                if n > left {
                    break;
                }
                shipped.pop_front();
                left -= n;
                report
                    .dwell_us
                    .push(polled_at.saturating_sub(at) as f64 / 1e3);
            }
        }
        if let Some(ts) = batch.tuples.iter().map(|t| t.ts_ns).max() {
            watermark = watermark.max(ts);
        }
        exec.offer(batch);
        exec.tick(watermark);
        report.output_rows += exec.poll_output().len() as u64;
        report.batches += 1;
        report.rows_polled += rows as u64;
        report.busy_ns += now_ns() - t0;
    }
    report.wall_ns = now_ns() - started;
    // Close the windows still open, well past the last capture stamp.
    report.output_rows += exec.stop(watermark + 1_000_000_000).len() as u64;
    report.exec_counts = exec_counts(exec.as_ref());
    report
}

// ---------------------------------------------------------------------
// Layer probes on the data plane
// ---------------------------------------------------------------------

/// `(encode ns, decode ns, to_rows ns, wire bytes)` of one sealed batch:
/// the columnar codec round trip plus the row detour the spout takes.
pub fn codec_round_trip(batch: &ColumnBatch) -> Result<(u64, u64, u64, usize), String> {
    let t0 = Instant::now();
    let wire = batch.encode();
    let encode = t0.elapsed().as_nanos() as u64;
    let bytes = wire.len();
    let mut cursor = wire.clone();
    let t0 = Instant::now();
    let back = ColumnBatch::decode(&mut cursor).map_err(|e| format!("decode: {e}"))?;
    let decode = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let rows = back.to_batch();
    let to_rows = t0.elapsed().as_nanos() as u64;
    if rows.len() != batch.rows() {
        return Err("codec round trip lost rows".into());
    }
    Ok((encode, decode, to_rows, bytes))
}

/// Seals one column batch from `packets` with the named parser — a
/// sample input for the codec probe.
pub fn sample_batch(parser: &str, packets: &[Packet]) -> Result<ColumnBatch, String> {
    let mut p = make_parser(parser).ok_or_else(|| format!("unknown parser {parser}"))?;
    let mut b = BatchBuilder::new();
    for pkt in packets {
        p.on_packet_columns(pkt, &mut b);
    }
    Ok(b.finish())
}

/// The rows of a sealed batch (the conversion the spout performs).
pub fn rows_of(batch: &ColumnBatch) -> Vec<DataTuple> {
    batch.to_batch().into_tuples()
}

/// Renders one tuple as its NDJSON line.
pub fn render_line(t: &DataTuple) -> String {
    tuple_json(t)
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// One history tuple as the benchmark generates it.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    pub id: u64,
    pub ts_ns: u64,
    pub v: u64,
    pub code: u64,
}

/// A handle on a disk-backed store whose series all live under
/// [`COOKIE`].
#[derive(Clone)]
pub struct StoreHandle {
    store: Arc<TimeSeriesStore>,
}

/// The answer of one direct history call.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectAnswer {
    pub value: Option<f64>,
    pub top: Vec<(String, u64)>,
    /// Summary cells merged, over all tiers.
    pub cells: u64,
    /// Tuples decoded on the raw path.
    pub raw_tuples: u64,
}

impl StoreHandle {
    /// Opens (or reopens) the store in `dir` with 1 MiB segments, so a
    /// million tuples seal plenty of segments for the cell cache.
    ///
    /// # Errors
    ///
    /// Store open failures.
    pub fn open(dir: &Path) -> Result<StoreHandle, String> {
        let cfg = StoreConfig {
            segment_max_bytes: 1 << 20,
            ..StoreConfig::default()
        };
        TimeSeriesStore::open_with(dir, cfg)
            .map(|s| StoreHandle { store: Arc::new(s) })
            .map_err(|e| format!("store open: {e}"))
    }

    /// Appends `rows` to series `group` as one batch.
    ///
    /// # Errors
    ///
    /// Store append failures.
    pub fn append(&self, group: &str, rows: &[HistRow]) -> Result<(), String> {
        let batch: TupleBatch = rows
            .iter()
            .map(|r| {
                DataTuple::new(r.id, r.ts_ns)
                    .from_source("agg")
                    .with("v", r.v)
                    .with("code", r.code)
            })
            .collect();
        self.store
            .append(&SeriesKey::new(COOKIE, group), &batch)
            .map_err(|e| format!("append: {e}"))
    }

    /// `TimeSeriesStore::history` (or `history_replay`) for one series.
    ///
    /// # Errors
    ///
    /// An unknown aggregate name or a store failure.
    pub fn history(
        &self,
        group: &str,
        field: &str,
        agg: &str,
        t0: u64,
        t1: u64,
        replay: bool,
    ) -> Result<DirectAnswer, String> {
        let agg = HistoryAgg::parse(agg).ok_or_else(|| format!("unknown agg {agg}"))?;
        let q = HistoryQuery::new(SeriesKey::new(COOKIE, group), field, t0, t1, agg);
        let ans = if replay {
            self.store.history_replay(&q)
        } else {
            self.store.history(&q)
        }
        .map_err(|e| format!("history: {e}"))?;
        let top = match &ans.value {
            AggValue::TopK(t) => t.clone(),
            _ => Vec::new(),
        };
        Ok(DirectAnswer {
            value: ans.value.scalar(),
            top,
            cells: ans.plan.persisted_cells + ans.plan.coarse_cells + ans.plan.segment_cells,
            raw_tuples: ans.plan.raw_tuples,
        })
    }

    /// `TimeSeriesStore::range`: tuple count in `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Store read failures.
    pub fn range_len(&self, group: &str, t0: u64, t1: u64) -> Result<usize, String> {
        self.store
            .range(&SeriesKey::new(COOKIE, group), t0, t1)
            .map(|v| v.len())
            .map_err(|e| format!("range: {e}"))
    }

    /// `(tuples, log bytes, series)` from `TimeSeriesStore::stats`.
    pub fn stats(&self) -> (u64, u64, usize) {
        let s = self.store.stats();
        (s.tuples, s.log_bytes, s.series)
    }
}

// ---------------------------------------------------------------------
// Frontends: everything after the spawn goes over HTTP
// ---------------------------------------------------------------------

/// A running query frontend; dropping it shuts it down.
pub struct Frontend {
    inner: QueryFrontend,
}

impl Frontend {
    /// Address the HTTP API listens on.
    pub fn addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }
}

/// A `k = 4` frontend with no apps over an already-loaded store: the
/// history workload's server.
///
/// # Errors
///
/// Bind or spawn failures.
pub fn spawn_history_frontend(store: &StoreHandle) -> Result<Frontend, String> {
    let builder = Orchestrator::builder(4).result_store(Arc::clone(&store.store));
    QueryFrontend::spawn("127.0.0.1:0", builder, |_orch| {})
        .map(|inner| Frontend { inner })
        .map_err(|e| format!("frontend spawn: {e}"))
}

/// The fabric the served workload queries: a `k`-ary fat tree with one
/// `TierApp` web tier (named `web`) and `clients` `ClientApp`s, each
/// opening one GET conversation every `gap_ms` of virtual time for
/// `span_s` virtual seconds, URLs drawn from `urls` by `pick`.
#[derive(Clone)]
pub struct FabricSpec {
    pub k: u32,
    pub clients: u32,
    pub gap_ms: u64,
    pub span_s: u64,
    pub urls: Vec<String>,
    /// URL index of the `n`-th conversation of client `c`.
    pub pick: Arc<dyn Fn(u32, u64) -> usize + Send + Sync>,
}

fn deploy_fabric(orch: &mut Orchestrator, spec: &FabricSpec) {
    orch.name_host("web", 1);
    let web_ip = orch.host_ip(1);
    orch.deploy_app(
        1,
        Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
    );
    let per_client = spec.span_s * 1000 / spec.gap_ms.max(1);
    for c in 0..spec.clients {
        // Stagger clients across the gap so load is even in time.
        let phase_ns = u64::from(c) * spec.gap_ms * 1_000_000 / u64::from(spec.clients.max(1));
        let schedule = (0..per_client)
            .map(|n| {
                (
                    SimTime::from_nanos(phase_ns + n * spec.gap_ms * 1_000_000),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get(&spec.urls[(spec.pick)(c, n)], "web")],
                        tag: String::new(),
                    },
                )
            })
            .collect();
        orch.deploy_app(2 + c, Box::new(ClientApp::new(schedule, sample_sink())));
    }
}

/// Spawns the served workload's frontend (default tuning, in-memory
/// result store) over the fabric.
///
/// # Errors
///
/// Bind or spawn failures.
pub fn spawn_served_frontend(spec: FabricSpec) -> Result<Frontend, String> {
    let builder =
        Orchestrator::builder(spec.k).result_store(Arc::new(TimeSeriesStore::in_memory()));
    QueryFrontend::spawn_with(
        "127.0.0.1:0",
        builder,
        FrontendConfig::default(),
        move |orch| deploy_fabric(orch, &spec),
    )
    .map(|inner| Frontend { inner })
    .map_err(|e| format!("frontend spawn: {e}"))
}

/// Parse + compile of one query text against a one-host resolver;
/// returns elapsed nanoseconds.
///
/// # Errors
///
/// A query that does not parse or compile.
pub fn parse_compile_ns(query: &str) -> Result<u64, String> {
    let mut hosts = HashMap::new();
    hosts.insert("web".to_string(), Ipv4Addr::new(10, 0, 0, 3));
    let t0 = Instant::now();
    let q = netalytics_query::parse(query).map_err(|e| format!("parse: {e}"))?;
    let d = netalytics_query::compile(&q, &hosts).map_err(|e| format!("compile: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(d);
    Ok(ns)
}

/// Builds the served fabric in-process, deploys `query`, and advances
/// the emulation `virtual_ms` of virtual time; returns wall nanoseconds
/// spent in `Orchestrator::run_until`.
///
/// # Errors
///
/// A query the orchestrator refuses.
pub fn run_fabric_ns(spec: &FabricSpec, query: &str, virtual_ms: u64) -> Result<u64, String> {
    let mut orch = Orchestrator::builder(spec.k).build();
    deploy_fabric(&mut orch, spec);
    let handle = orch.submit(query).map_err(|e| format!("submit: {e}"))?;
    // Let deployment settle before timing.
    orch.run_until(SimTime::from_nanos(50_000_000));
    let t0 = Instant::now();
    orch.run_until(SimTime::from_nanos((50 + virtual_ms) * 1_000_000));
    let ns = t0.elapsed().as_nanos() as u64;
    let _ = orch.kill(&handle);
    Ok(ns)
}

/// A bare introspection server (`GET /metrics`) plus a route that pushes
/// `lines` prepared NDJSON lines through one chunked response — the
/// telemetry layer on its own.
///
/// # Errors
///
/// Bind failures.
pub fn spawn_telemetry_probe(line: String, lines: u64) -> Result<TelemetryServer, String> {
    let registry = Arc::new(MetricsRegistry::new());
    for i in 0..32 {
        registry
            .counter("bench.probe", &[("i", &i.to_string())])
            .add(i);
    }
    let mut router = netalytics_telemetry::introspection_router(&Introspection::new(registry));
    router.route("GET", "/lines", move |_req| {
        let line = line.clone();
        Response::ndjson_stream(move |w| {
            for _ in 0..lines {
                if w.send_line(&line).is_err() {
                    break;
                }
            }
        })
    });
    TelemetryServer::spawn_router("127.0.0.1:0", router, 2).map_err(|e| format!("bind: {e}"))
}
