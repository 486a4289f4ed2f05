//! The NFV applications the orchestrator deploys onto emulated hosts:
//! the packet monitor and the aggregation point feeding the analytics
//! engine (paper Fig. 1's "NF Monitors" and "Distributed Queue").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

use netalytics_data::{ColumnBatch, DataTuple, TraceCtx, TupleBatch};
use netalytics_monitor::{FeedbackSignal, Monitor, MonitorStats};
use netalytics_netsim::{App, Ctx, SimDuration, SimTime};
use netalytics_packet::Packet;
use netalytics_stream::{build_executor_with, Executor, ExecutorMode, Topology};
use netalytics_telemetry::{Gauge, Histogram, MetricsRegistry, Tracer};

/// UDP port monitors listen on for aggregator feedback.
pub const FEEDBACK_PORT: u16 = 9990;
/// UDP port aggregators listen on for tuple batches.
pub const BATCH_PORT: u16 = 9991;

/// State shared between the orchestrator and a deployed monitor app.
#[derive(Debug, Default)]
pub struct MonitorShared {
    /// Set by the orchestrator when the query's LIMIT expires.
    pub stopped: bool,
    /// Live traffic counters.
    pub stats: MonitorStats,
    /// Current effective sampling rate.
    pub sample_rate: f64,
    /// Virtual time of the monitor's last flush tick — its heartbeat on
    /// the emulated plane. A reconciler that sees this fall behind the
    /// clock by several intervals declares the monitor dead.
    pub last_heartbeat: SimTime,
    /// Set by the orchestrator to point the monitor at a replacement
    /// aggregator; consumed at the next flush tick.
    pub retarget_aggregator: Option<Ipv4Addr>,
    /// Set by the reconciler to force one step of sampling backoff
    /// (graceful degradation under aggregator overload); consumed at the
    /// next flush tick.
    pub degrade: bool,
}

/// Handle to a monitor's shared state.
pub type MonitorHandle = Rc<RefCell<MonitorShared>>;

/// An NFV monitor on an emulated host: processes mirrored packets through
/// its parsers and ships column-batch frames to the aggregator over the
/// fabric — the same frame the queue carries on the threaded plane.
pub struct MonitorApp {
    monitor: Monitor,
    aggregator: (Ipv4Addr, u16),
    batch_interval: SimDuration,
    /// Stop after observing this many packets (LIMIT ...p).
    packet_limit: Option<u64>,
    shared: MonitorHandle,
    /// Registry + instance label for self-telemetry export at flush.
    telemetry: Option<(Arc<MetricsRegistry>, String)>,
}

impl std::fmt::Debug for MonitorApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorApp")
            .field("aggregator", &self.aggregator)
            .finish_non_exhaustive()
    }
}

impl MonitorApp {
    /// Creates a monitor app shipping batches to `aggregator_ip`.
    pub fn new(monitor: Monitor, aggregator_ip: Ipv4Addr, packet_limit: Option<u64>) -> Self {
        let shared = Rc::new(RefCell::new(MonitorShared {
            sample_rate: monitor.sample_rate(),
            ..MonitorShared::default()
        }));
        MonitorApp {
            monitor,
            aggregator: (aggregator_ip, BATCH_PORT),
            batch_interval: SimDuration::from_millis(10),
            packet_limit,
            shared,
            telemetry: None,
        }
    }

    /// Builder: exports this monitor's counters into `metrics` (as
    /// `monitor.*{monitor=name}` gauges) on every batch flush. The
    /// export happens at scrape points only, so instrumenting a
    /// deterministic simulation cannot perturb it.
    pub fn with_telemetry(
        mut self,
        metrics: Arc<MetricsRegistry>,
        name: impl Into<String>,
    ) -> Self {
        self.telemetry = Some((metrics, name.into()));
        self
    }

    /// Builder: overrides the flush/heartbeat cadence (default 10 ms of
    /// virtual time). The flush timer doubles as the liveness beat, so
    /// this is also the orchestrator's heartbeat interval.
    pub fn with_batch_interval(mut self, interval: SimDuration) -> Self {
        self.batch_interval = interval;
        self
    }

    /// Handle for the orchestrator to observe/stop this monitor.
    pub fn handle(&self) -> MonitorHandle {
        self.shared.clone()
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(ip) = self.shared.borrow_mut().retarget_aggregator.take() {
            self.aggregator = (ip, BATCH_PORT);
        }
        for batch in self.monitor.drain(ctx.now().as_nanos()) {
            let payload = batch.encode();
            ctx.send(Packet::udp(
                ctx.ip(),
                BATCH_PORT,
                self.aggregator.0,
                self.aggregator.1,
                &payload,
            ));
        }
        let mut shared = self.shared.borrow_mut();
        shared.stats = self.monitor.stats();
        shared.sample_rate = self.monitor.sample_rate();
        shared.last_heartbeat = ctx.now();
        if let Some((metrics, name)) = &self.telemetry {
            shared.stats.export(metrics, name);
        }
    }
}

impl App for MonitorApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_in(self.batch_interval, 0);
    }

    fn on_packet(&mut self, packet: &Packet, ctx: &mut Ctx<'_>) {
        let Ok(view) = packet.view() else { return };
        let Some(ip) = view.ipv4 else { return };
        if ip.dst != ctx.ip() {
            return;
        }
        // Aggregator feedback (§4.2 back-pressure).
        if view.udp.map(|u| u.dst_port) == Some(FEEDBACK_PORT) {
            let signal = match view.payload {
                b"OVERLOADED" => Some(FeedbackSignal::Overloaded),
                b"HEALTHY" => Some(FeedbackSignal::Healthy),
                _ => None,
            };
            if let Some(s) = signal {
                self.monitor.on_feedback(s);
                self.shared.borrow_mut().sample_rate = self.monitor.sample_rate();
            }
            return;
        }
        // Encapsulated mirror traffic from the SDN data plane.
        let Some(inner) = netalytics_netsim::decapsulate_mirror(packet) else {
            return;
        };
        if self.shared.borrow().stopped {
            return;
        }
        if let Some(limit) = self.packet_limit {
            if self.monitor.stats().packets_seen >= limit {
                self.shared.borrow_mut().stopped = true;
                return;
            }
        }
        self.monitor.process(&inner);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if std::mem::take(&mut self.shared.borrow_mut().degrade) {
            self.monitor.on_feedback(FeedbackSignal::Overloaded);
        }
        self.flush(ctx);
        if !self.shared.borrow().stopped {
            ctx.timer_in(self.batch_interval, 0);
        }
    }
}

/// State shared between the orchestrator and an aggregator app.
#[derive(Debug, Default)]
pub struct AggregatorShared {
    /// Tuples received from monitors.
    pub tuples_in: u64,
    /// Tuples handed to the analytics executor.
    pub tuples_processed: u64,
    /// Tuples shed to buffer overflow.
    pub dropped: u64,
    /// Datagrams on the batch port that were not a column-batch frame
    /// (the emulated plane's twin of `QueueSpout::decode_errors`).
    pub decode_errors: u64,
    /// Overload feedback messages sent.
    pub overload_signals: u64,
    /// Set by the orchestrator after re-placing a monitor: replaces the
    /// feedback target list at the next drain tick, so back-pressure
    /// reaches the replacement instead of the dead host.
    pub retarget_monitors: Option<Vec<Ipv4Addr>>,
}

/// Handle to an aggregator's shared state.
pub type AggregatorHandle = Rc<RefCell<AggregatorShared>>;

/// An analytics engine shared between the aggregator app and whoever
/// reads its results — any [`Executor`] behind the unified trait.
pub type SharedExecutor = Rc<RefCell<Box<dyn Executor>>>;

/// Instantiates `topology` on the engine picked by `mode` and wraps it
/// for sharing with an [`AggregatorApp`].
pub fn shared_executor(topology: &Topology, mode: ExecutorMode) -> SharedExecutor {
    shared_executor_with(topology, mode, None)
}

/// Like [`shared_executor`], registering the executor's `stream.*`
/// counters and per-bolt latency histograms in `metrics` when given.
pub fn shared_executor_with(
    topology: &Topology,
    mode: ExecutorMode,
    metrics: Option<&MetricsRegistry>,
) -> SharedExecutor {
    Rc::new(RefCell::new(build_executor_with(topology, mode, metrics)))
}

/// Telemetry instruments of one [`AggregatorApp`]. The aggregator plays
/// the distributed queue's role on the emulated plane, so its series
/// reuse the `queue.*` names (labeled `topic="aggregator"`) and it owns
/// the plane's `e2e.tuple_latency_ns` histogram, recorded against
/// virtual time when tuples leave the buffer for the executors.
struct AggTelemetry {
    depth: Arc<Gauge>,
    dropped: Arc<Gauge>,
    tuples_in: Arc<Gauge>,
    overload_signals: Arc<Gauge>,
    e2e_latency: Arc<Histogram>,
}

impl AggTelemetry {
    fn register(metrics: &MetricsRegistry) -> Self {
        let labels: &[(&str, &str)] = &[("topic", "aggregator")];
        AggTelemetry {
            depth: metrics.gauge("queue.depth", labels),
            dropped: metrics.gauge("queue.dropped", labels),
            tuples_in: metrics.gauge("queue.tuples_in", labels),
            overload_signals: metrics.gauge("queue.overload_signals", labels),
            e2e_latency: metrics.histogram("e2e.tuple_latency_ns", &[]),
        }
    }
}

/// The aggregation point: buffers tuple batches from monitors (the
/// Kafka layer's role) and feeds them into the inline Storm executor at
/// a bounded processing rate, emitting §4.2 back-pressure feedback.
pub struct AggregatorApp {
    executors: Vec<SharedExecutor>,
    buffer: VecDeque<DataTuple>,
    capacity: usize,
    /// Tuples the analytics engine absorbs per drain tick.
    drain_per_tick: usize,
    tick: SimDuration,
    monitors: Vec<Ipv4Addr>,
    overloaded: bool,
    shared: AggregatorHandle,
    telemetry: Option<AggTelemetry>,
    /// Virtual-clock tracing: the aggregator plays the queue's role on
    /// the emulated plane, so it records the `queue` (arrival → drain)
    /// and `bolt` (executor hand-off, instantaneous in virtual time)
    /// spans itself — executors on this plane run untraced so wall and
    /// virtual clocks never mix within one trace.
    tracer: Option<Arc<Tracer>>,
    /// Contexts of traced batches received from monitors, with their
    /// virtual arrival time, awaiting the next drain tick.
    pending_traces: VecDeque<(TraceCtx, u64)>,
}

/// Pending trace contexts held between drain ticks (drained every tick,
/// so the cap only matters if draining stalls entirely).
const PENDING_TRACE_CAP: usize = 64;

impl std::fmt::Debug for AggregatorApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregatorApp")
            .field("buffered", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl AggregatorApp {
    /// Creates an aggregator feeding one executor, signalling feedback
    /// to `monitors`.
    pub fn new(
        executor: SharedExecutor,
        monitors: Vec<Ipv4Addr>,
        capacity: usize,
        drain_per_tick: usize,
    ) -> Self {
        Self::with_executors(vec![executor], monitors, capacity, drain_per_tick)
    }

    /// Creates an aggregator fanning tuples into several executors (one
    /// per `PROCESS` entry of the query).
    pub fn with_executors(
        executors: Vec<SharedExecutor>,
        monitors: Vec<Ipv4Addr>,
        capacity: usize,
        drain_per_tick: usize,
    ) -> Self {
        AggregatorApp {
            executors,
            buffer: VecDeque::new(),
            capacity: capacity.max(1),
            drain_per_tick: drain_per_tick.max(1),
            tick: SimDuration::from_millis(10),
            monitors,
            overloaded: false,
            shared: Rc::new(RefCell::new(AggregatorShared::default())),
            telemetry: None,
            tracer: None,
            pending_traces: VecDeque::new(),
        }
    }

    /// Builder: records `queue` and `bolt` stage spans on the virtual
    /// clock for batches that arrive carrying a trace context (stamped
    /// by a monitor whose [`Monitor::set_tracing`] points at the same
    /// tracer).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builder: publishes the buffer's queue-layer metrics and the
    /// virtual-time `e2e.tuple_latency_ns` histogram into `metrics`.
    pub fn with_telemetry(mut self, metrics: &MetricsRegistry) -> Self {
        self.telemetry = Some(AggTelemetry::register(metrics));
        self
    }

    /// Handle for the orchestrator to observe this aggregator.
    pub fn handle(&self) -> AggregatorHandle {
        self.shared.clone()
    }

    fn signal(&mut self, msg: &'static [u8], ctx: &mut Ctx<'_>) {
        for m in &self.monitors {
            ctx.send(Packet::udp(ctx.ip(), BATCH_PORT, *m, FEEDBACK_PORT, msg));
        }
    }
}

impl App for AggregatorApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_in(self.tick, 0);
    }

    fn on_packet(&mut self, packet: &Packet, ctx: &mut Ctx<'_>) {
        let Ok(view) = packet.view() else { return };
        let Some(ip) = view.ipv4 else { return };
        if ip.dst != ctx.ip() || view.udp.map(|u| u.dst_port) != Some(BATCH_PORT) {
            return;
        }
        let mut payload = bytes::Bytes::copy_from_slice(view.payload);
        let batch = match ColumnBatch::decode(&mut payload) {
            Ok(cols) => cols.to_batch(),
            Err(_) => {
                self.shared.borrow_mut().decode_errors += 1;
                return;
            }
        };
        if self.tracer.is_some() {
            if let Some(tctx) = batch.trace {
                if self.pending_traces.len() < PENDING_TRACE_CAP {
                    self.pending_traces.push_back((tctx, ctx.now().as_nanos()));
                }
            }
        }
        let mut shared = self.shared.borrow_mut();
        for t in batch {
            shared.tuples_in += 1;
            if self.buffer.len() >= self.capacity {
                self.buffer.pop_front();
                shared.dropped += 1;
            }
            self.buffer.push_back(t);
        }
        drop(shared);
        // High watermark: tell monitors to shed (§4.2).
        if !self.overloaded && self.buffer.len() >= self.capacity * 8 / 10 {
            self.overloaded = true;
            self.shared.borrow_mut().overload_signals += 1;
            self.signal(b"OVERLOADED", ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if let Some(monitors) = self.shared.borrow_mut().retarget_monitors.take() {
            self.monitors = monitors;
        }
        let take = self.buffer.len().min(self.drain_per_tick);
        if take > 0 {
            // Drain this tick's quantum as ONE slab per executor rather
            // than per-tuple pushes: the batch is cloned only for the
            // extra `PROCESS` entries.
            let mut slab: TupleBatch = self.buffer.drain(..take).collect();
            if let Some(tracer) = &self.tracer {
                // Close the queue dwell and mark the executor hand-off
                // for every traced context this drain covers, all on the
                // virtual clock. The hand-off is instantaneous in
                // virtual time, so the `bolt` span is zero-width.
                let now = ctx.now().as_nanos();
                let mut first = None;
                while let Some((tctx, arrived_ns)) = self.pending_traces.pop_front() {
                    tracer.record_span(
                        0,
                        tctx.cookie,
                        tctx.batch_id,
                        tctx.born_ns,
                        "queue",
                        arrived_ns,
                        now,
                    );
                    tracer.record_span(
                        0,
                        tctx.cookie,
                        tctx.batch_id,
                        tctx.born_ns,
                        "bolt",
                        now,
                        now,
                    );
                    first.get_or_insert(tctx);
                }
                slab.trace = first;
            }
            if let Some(tel) = &self.telemetry {
                // Capture-to-analytics latency on the virtual clock:
                // tuples carry their monitor-side capture time in ts_ns.
                let now = ctx.now().as_nanos();
                for t in slab.tuples.iter() {
                    if t.ts_ns > 0 && t.ts_ns <= now {
                        tel.e2e_latency.record(now - t.ts_ns);
                    }
                }
            }
            if let Some((last, rest)) = self.executors.split_last() {
                for exec in rest {
                    exec.borrow_mut().offer(slab.clone());
                }
                last.borrow_mut().offer(slab);
            }
        }
        for exec in &self.executors {
            exec.borrow_mut().tick(ctx.now().as_nanos());
        }
        self.shared.borrow_mut().tuples_processed += take as u64;
        if let Some(tel) = &self.telemetry {
            let shared = self.shared.borrow();
            tel.depth.set(self.buffer.len() as i64);
            tel.dropped.set(shared.dropped as i64);
            tel.tuples_in.set(shared.tuples_in as i64);
            tel.overload_signals.set(shared.overload_signals as i64);
        }
        if self.overloaded {
            if self.buffer.len() <= self.capacity * 5 / 10 {
                // Low watermark: allow recovery.
                self.overloaded = false;
                self.signal(b"HEALTHY", ctx);
            } else {
                // Still drowning: repeat the signal so monitors keep
                // halving their rate until arrivals match the drain.
                self.shared.borrow_mut().overload_signals += 1;
                self.signal(b"OVERLOADED", ctx);
            }
        } else if self.buffer.len() <= self.capacity * 2 / 10 {
            // Comfortably idle: let monitors climb back toward full
            // sampling (the signal is a no-op at rate 1.0).
            self.signal(b"HEALTHY", ctx);
        }
        ctx.timer_in(self.tick, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netalytics_monitor::{MonitorConfig, SampleSpec};
    use netalytics_netsim::{Engine, LinkSpec, Network, SimTime};
    use netalytics_packet::TcpFlags;
    use netalytics_sdn::{FlowMatch, FlowRule};
    use netalytics_stream::topologies::{self, ProcessorSpec};

    /// Sends `n` short HTTP GET connections from host 0 to host 1.
    struct Gen {
        dst: Ipv4Addr,
        n: u16,
    }
    impl App for Gen {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                ctx.timer_in(SimDuration::from_micros(u64::from(i) * 100), u64::from(i));
            }
        }
        fn on_packet(&mut self, _p: &Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, i: u64, ctx: &mut Ctx<'_>) {
            let port = 5000 + i as u16;
            ctx.send(Packet::tcp(
                ctx.ip(),
                port,
                self.dst,
                80,
                TcpFlags::SYN,
                0,
                0,
                b"",
            ));
            ctx.send(Packet::tcp(
                ctx.ip(),
                port,
                self.dst,
                80,
                TcpFlags::PSH | TcpFlags::ACK,
                1,
                1,
                &netalytics_packet::http::build_get(&format!("/u{}", i % 3), "h"),
            ));
            ctx.send(Packet::tcp(
                ctx.ip(),
                port,
                self.dst,
                80,
                TcpFlags::FIN | TcpFlags::ACK,
                2,
                1,
                b"",
            ));
        }
    }

    #[test]
    fn mirror_monitor_aggregator_executor_pipeline() {
        let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let dst_ip = engine.network().host_ip(1);
        let mon_ip = engine.network().host_ip(2);
        // Mirror web traffic at the ToR to the monitor host.
        engine.install_rule(
            0,
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        let monitor = Monitor::new(MonitorConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 16,
            preagg: None,
        })
        .unwrap();
        let topo = topologies::build(
            &ProcessorSpec::new("top-k")
                .with_arg("k", "3")
                .with_arg("key", "url"),
        )
        .unwrap();
        let executor = shared_executor(&topo, ExecutorMode::Inline);
        let agg_ip = engine.network().host_ip(3);
        let mon_app = MonitorApp::new(monitor, agg_ip, None);
        let mon_handle = mon_app.handle();
        let agg_app = AggregatorApp::new(executor.clone(), vec![mon_ip], 10_000, 1_000);
        let agg_handle = agg_app.handle();
        engine.set_app(0, Box::new(Gen { dst: dst_ip, n: 30 }));
        engine.set_app(2, Box::new(mon_app));
        engine.set_app(3, Box::new(agg_app));
        engine.run_until(SimTime::from_nanos(2_000_000_000));
        assert_eq!(mon_handle.borrow().stats.tuples_out, 30, "one URL per conn");
        assert_eq!(agg_handle.borrow().tuples_in, 30);
        assert_eq!(agg_handle.borrow().tuples_processed, 30);
        let out = executor.borrow_mut().stop(2_000_000_000);
        assert!(!out.is_empty(), "top-k rankings must emerge");
    }

    #[test]
    fn virtual_clock_traces_cover_parse_queue_and_bolt() {
        use netalytics_telemetry::{TraceConfig, Tracer};

        let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let dst_ip = engine.network().host_ip(1);
        let mon_ip = engine.network().host_ip(2);
        engine.install_rule(
            0,
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        let mut monitor = Monitor::new(MonitorConfig {
            parsers: vec!["http_get".into()],
            sample: SampleSpec::All,
            batch_size: 4,
            preagg: None,
        })
        .unwrap();
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        monitor.set_tracing(77, Arc::clone(&tracer));
        let topo = topologies::build(
            &ProcessorSpec::new("top-k")
                .with_arg("k", "3")
                .with_arg("key", "url"),
        )
        .unwrap();
        let executor = shared_executor(&topo, ExecutorMode::Inline);
        let agg_ip = engine.network().host_ip(3);
        let mon_app = MonitorApp::new(monitor, agg_ip, None);
        let agg_app = AggregatorApp::new(executor, vec![mon_ip], 10_000, 1_000)
            .with_tracer(Arc::clone(&tracer));
        engine.set_app(0, Box::new(Gen { dst: dst_ip, n: 30 }));
        engine.set_app(2, Box::new(mon_app));
        engine.set_app(3, Box::new(agg_app));
        engine.run_until(SimTime::from_nanos(2_000_000_000));
        let falls = tracer.waterfalls(77);
        assert!(!falls.is_empty(), "sampled batches must leave exemplars");
        let stages: std::collections::HashSet<&str> =
            falls[0].spans.iter().map(|s| s.stage.as_str()).collect();
        assert!(
            stages.contains("parse") && stages.contains("queue") && stages.contains("bolt"),
            "virtual waterfall must span the pipeline: {stages:?}"
        );
    }

    #[test]
    fn undecodable_batch_frames_are_counted_not_silently_dropped() {
        /// Sends one row-encoded batch — the store's frame, not the
        /// wire's — to the aggregator's batch port.
        struct RowFrame(Ipv4Addr);
        impl App for RowFrame {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let rows = TupleBatch::from_tuples(vec![DataTuple::new(1, 1).with("url", "/a")]);
                ctx.send(Packet::udp(
                    ctx.ip(),
                    BATCH_PORT,
                    self.0,
                    BATCH_PORT,
                    &rows.encode(),
                ));
            }
            fn on_packet(&mut self, _p: &Packet, _ctx: &mut Ctx<'_>) {}
        }

        let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let agg_ip = engine.network().host_ip(3);
        let topo = topologies::build(&ProcessorSpec::new("group-sum")).unwrap();
        let agg_app = AggregatorApp::new(
            shared_executor(&topo, ExecutorMode::Inline),
            vec![],
            100,
            10,
        );
        let handle = agg_app.handle();
        engine.set_app(0, Box::new(RowFrame(agg_ip)));
        engine.set_app(3, Box::new(agg_app));
        engine.run_until(SimTime::from_nanos(100_000_000));
        assert_eq!(handle.borrow().tuples_in, 0, "a row frame yields no tuples");
        assert_eq!(handle.borrow().decode_errors, 1);
    }

    #[test]
    fn packet_limit_stops_monitor() {
        let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let dst_ip = engine.network().host_ip(1);
        engine.install_rule(
            0,
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        let monitor = Monitor::new(MonitorConfig::default()).unwrap();
        let topo = topologies::build(&ProcessorSpec::new("group-sum")).unwrap();
        let executor = shared_executor(&topo, ExecutorMode::Inline);
        let mon_app = MonitorApp::new(monitor, engine.network().host_ip(3), Some(10));
        let handle = mon_app.handle();
        engine.set_app(0, Box::new(Gen { dst: dst_ip, n: 30 }));
        engine.set_app(2, Box::new(mon_app));
        engine.set_app(3, Box::new(AggregatorApp::new(executor, vec![], 100, 10)));
        engine.run_until(SimTime::from_nanos(2_000_000_000));
        let shared = handle.borrow();
        assert!(shared.stopped);
        assert_eq!(shared.stats.packets_seen, 10);
    }

    #[test]
    fn overload_feedback_reduces_sampling() {
        let mut engine = Engine::new(Network::fat_tree(4, LinkSpec::default()));
        let dst_ip = engine.network().host_ip(1);
        let mon_ip = engine.network().host_ip(2);
        engine.install_rule(
            0,
            FlowRule::mirror(FlowMatch::any().to_host(dst_ip, Some(80)), 2, 1),
        );
        let monitor = Monitor::new(MonitorConfig {
            parsers: vec!["tcp_flow_key".into()],
            sample: SampleSpec::Auto,
            batch_size: 16,
            preagg: None,
        })
        .unwrap();
        let topo = topologies::build(&ProcessorSpec::new("group-sum")).unwrap();
        let executor = shared_executor(&topo, ExecutorMode::Inline);
        // Tiny buffer and slow drain: must overload.
        let agg_app = AggregatorApp::new(executor, vec![mon_ip], 20, 1);
        let agg_handle = agg_app.handle();
        let mon_app = MonitorApp::new(monitor, engine.network().host_ip(3), None);
        let mon_handle = mon_app.handle();
        engine.set_app(
            0,
            Box::new(Gen {
                dst: dst_ip,
                n: 200,
            }),
        );
        engine.set_app(2, Box::new(mon_app));
        engine.set_app(3, Box::new(agg_app));
        // Mid-burst: the monitor must have adapted down.
        engine.run_until(SimTime::from_nanos(60_000_000));
        assert!(agg_handle.borrow().overload_signals >= 1);
        assert!(
            mon_handle.borrow().sample_rate < 1.0,
            "sampling must have adapted down"
        );
        // Long after the burst: the drain empties the buffer and the
        // HEALTHY heartbeat restores full sampling.
        engine.run_until(SimTime::from_nanos(5_000_000_000));
        assert_eq!(
            mon_handle.borrow().sample_rate,
            1.0,
            "sampling must recover once the aggregator drains"
        );
    }
}
