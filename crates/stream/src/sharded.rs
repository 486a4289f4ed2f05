//! Sharded executor: partition-disjoint bolt chains pinned to worker
//! threads, exchanging tuple slabs over lock-free SPSC rings.
//!
//! The engine spawns one thread per *shard* — not per bolt instance —
//! and gives shard `w` ownership of instance `i` of every node where
//! `i % shards == w`. A tuple chain that stays on one shard
//! (the common case for `ById`/`Fields` groupings whose hash lands on
//! the same residue at every stage) runs bolt-to-bolt as plain function
//! calls with zero synchronization; tuples that hop shards travel over
//! [`netalytics_data::spsc`] rings — one producer, one consumer, no
//! locks anywhere on the data path.
//!
//! * The caller (the only producer on the main→worker rings) routes
//!   each offered batch by the edge grouping — `id % shards` for the
//!   spout's `ById` edges — and pushes per-instance slabs.
//! * Workers never block: a full peer ring spills into a per-peer FIFO
//!   queue that is re-flushed opportunistically, so the mesh cannot
//!   deadlock no matter the topology shape.
//! * Ticks ride the main rings as messages, keeping them FIFO with data
//!   (and best-effort: a full ring drops the tick, not data).
//! * Shutdown is a marker protocol: `Marker(0)` quiesces, then each
//!   worker finishes node `t` only after every peer advertised
//!   `Marker(t)` — i.e. finished node `t - 1` and flushed its
//!   emissions — so windows close upstream-first across all shards.
//!
//! Counters: `processed` stays a plain [`Counter`] (single writer — the
//! offering thread); `emitted`/`shed` are [`ShardedCounter`]s with one
//! cache-line-padded cell per shard (plus one for the caller), merged
//! only on scrape.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crossbeam::channel::{unbounded, Receiver, Sender};
use netalytics_data::{
    spsc, Consumer, DataTuple, PopError, Producer, PushError, TraceCtx, TupleBatch,
};
use netalytics_telemetry::{
    wall_now_ns, Counter, Histogram, MetricsRegistry, ShardedCounter, Tracer,
};

use crate::bolt::{fan_out, Bolt, Grouping};
use crate::executor::{BackpressurePolicy, Executor};
use crate::topology::{BoltId, SourceRef, Topology};

/// Execute-latency sampling period, matching the inline engine: timing
/// every call would put two `Instant::now` syscalls on each execution.
const LAT_SAMPLE: u64 = 32;

/// Incoming-source index of the caller's ring at every worker.
const MAIN_SRC: usize = 0;

/// Configuration for [`ShardedExecutor::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Worker threads; shard `w` owns instance `i` of every bolt node
    /// where `i % shards == w`.
    pub shards: usize,
    /// Capacity of each SPSC ring, counted in slabs (messages), rounded
    /// up to a power of two.
    pub ring_capacity: usize,
    /// Worker sleep when a full drain pass found nothing to do.
    pub idle_sleep: Duration,
    /// What producers do when a ring is full: `Block` spills (caller
    /// spins, workers queue unboundedly — never blocking each other),
    /// `Shed` drops the slab and counts its tuples.
    pub backpressure: BackpressurePolicy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            ring_capacity: 1024,
            idle_sleep: Duration::from_micros(50),
            backpressure: BackpressurePolicy::Block,
        }
    }
}

/// What travels over the rings. Slabs address a (node, instance) pair so
/// the receiving shard can pick the bolt without re-routing; markers
/// carry the shutdown round and the finish timestamp.
enum ShardMsg {
    Slab {
        node: u32,
        inst: u32,
        tuples: Vec<DataTuple>,
        /// Trace context of the batch this slab descends from; follows
        /// the slab across every shard hop.
        trace: Option<TraceCtx>,
    },
    Tick(u64),
    Marker {
        round: u32,
        now_ns: u64,
    },
}

/// One worker's owned bolt instances for one node, indexed by local
/// slot (`slot * shards + shard` = global instance).
type NodeInstances = Vec<Box<dyn Bolt>>;

/// A worker's outgoing edge to one peer shard: the ring plus the
/// unbounded spill queue that absorbs overflow so the worker never
/// blocks (ring order is preserved — nothing overtakes the spill).
struct Peer {
    ring: Producer<ShardMsg>,
    spill: VecDeque<ShardMsg>,
}

struct Worker {
    shard: usize,
    shards: usize,
    /// Global instance count per node (for grouping routes).
    par: Vec<usize>,
    /// Owned instances per node; slot `s` holds global instance
    /// `s * shards + shard`.
    bolts: Vec<NodeInstances>,
    terminal: Vec<bool>,
    /// Outgoing edges per node: (target node, grouping).
    out_edges: Vec<Vec<(usize, Grouping)>>,
    /// Shuffle state per (node, edge), local to this worker.
    rr: Vec<Vec<usize>>,
    /// `[0]` = caller's ring, then peer rings in ascending shard order.
    incoming: Vec<Consumer<ShardMsg>>,
    /// Highest marker round seen per incoming source (−1 = none;
    /// `i64::MAX` once the source disconnected).
    marker_level: Vec<i64>,
    /// Outgoing rings indexed by shard id (`None` at our own slot).
    peers: Vec<Option<Peer>>,
    /// Scratch: cross-shard emissions batched per (node, instance)
    /// between flushes, so fan-out costs one message per slab.
    remote: HashMap<(u32, u32), Vec<DataTuple>>,
    output_tx: Sender<DataTuple>,
    emitted: Arc<ShardedCounter>,
    shed: Arc<ShardedCounter>,
    latency: Vec<Option<Arc<Histogram>>>,
    lat_ticks: u64,
    policy: BackpressurePolicy,
    idle_sleep: Duration,
    /// Set when the caller's `Marker(0)` arrives; its timestamp drives
    /// every `finish`.
    finish_now: Option<u64>,
    /// Traced-slab recording (span per slab, context forwarded on hops).
    tracer: Option<Arc<Tracer>>,
    /// Context of the slab currently draining; attached to the remote
    /// slabs it spawns and cleared once the slab completes.
    current_trace: Option<TraceCtx>,
    /// Last (node, slot) that received `observe_trace` for the current
    /// slab, so chained local executions don't re-observe per tuple.
    last_observed: Option<(usize, usize)>,
}

impl Worker {
    fn run(mut self) {
        loop {
            let mut busy = self.flush_spills();
            let (progress, main_gone) = self.drain_incoming();
            busy |= progress;
            if self.finish_now.is_some() {
                self.shutdown_phases();
                return;
            }
            if main_gone {
                // Executor dropped without stop(): abandon quietly.
                return;
            }
            if !busy {
                std::thread::sleep(self.idle_sleep);
            }
        }
    }

    /// Pops every queued message from every incoming ring, processing
    /// each inline. Returns (made progress, caller ring disconnected).
    fn drain_incoming(&mut self) -> (bool, bool) {
        let mut busy = false;
        let mut main_gone = false;
        for src in 0..self.incoming.len() {
            loop {
                match self.incoming[src].pop() {
                    Ok(msg) => {
                        busy = true;
                        self.on_msg(src, msg);
                    }
                    Err(PopError::Empty) => break,
                    Err(PopError::Disconnected) => {
                        if src == MAIN_SRC {
                            main_gone = true;
                        } else {
                            // A dead peer can't send markers; don't wait
                            // for it during shutdown.
                            self.marker_level[src] = i64::MAX;
                        }
                        break;
                    }
                }
            }
        }
        (busy, main_gone)
    }

    fn on_msg(&mut self, src: usize, msg: ShardMsg) {
        match msg {
            ShardMsg::Slab {
                node,
                inst,
                tuples,
                trace,
            } => {
                self.current_trace = trace.filter(|_| self.tracer.is_some());
                self.last_observed = None;
                let span_start = self.current_trace.map(|_| wall_now_ns());
                let mut work: VecDeque<(u32, u32, DataTuple)> =
                    tuples.into_iter().map(|t| (node, inst, t)).collect();
                self.drain_local(&mut work);
                self.flush_remote();
                if let (Some(ctx), Some(start)) = (self.current_trace, span_start) {
                    if let Some(tracer) = &self.tracer {
                        tracer.record_span(
                            self.shard,
                            ctx.cookie,
                            ctx.batch_id,
                            ctx.born_ns,
                            "bolt",
                            start,
                            wall_now_ns(),
                        );
                    }
                }
                self.current_trace = None;
            }
            ShardMsg::Tick(now) => self.run_ticks(now),
            ShardMsg::Marker { round, now_ns } => {
                self.marker_level[src] = i64::from(round);
                if src == MAIN_SRC {
                    self.finish_now = Some(now_ns);
                }
            }
        }
    }

    /// Runs queued (node, instance, tuple) work to completion. Local
    /// emissions chain depth-first through the queue; cross-shard
    /// emissions accumulate in `remote` for the caller to flush.
    fn drain_local(&mut self, work: &mut VecDeque<(u32, u32, DataTuple)>) {
        while let Some((node, inst, tuple)) = work.pop_front() {
            let node = node as usize;
            let slot = inst as usize / self.shards;
            if let Some(ctx) = self.current_trace {
                // Once per (node, slot) run of the chain, not per tuple.
                if self.last_observed != Some((node, slot)) {
                    self.bolts[node][slot].observe_trace(&ctx);
                    self.last_observed = Some((node, slot));
                }
            }
            let mut out = Vec::new();
            let timed = self.latency[node].is_some() && {
                self.lat_ticks = self.lat_ticks.wrapping_add(1);
                self.lat_ticks.is_multiple_of(LAT_SAMPLE)
            };
            if timed {
                let t0 = std::time::Instant::now();
                self.bolts[node][slot].execute(&tuple, &mut out);
                if let Some(h) = &self.latency[node] {
                    h.record(t0.elapsed().as_nanos() as u64);
                }
            } else {
                self.bolts[node][slot].execute(&tuple, &mut out);
            }
            if !out.is_empty() {
                self.dispatch(node, out, work);
            }
        }
    }

    /// Routes one node's emissions: terminal → output channel, else per
    /// edge per tuple to the owning shard (self → `work`, peer →
    /// `remote`).
    fn dispatch(
        &mut self,
        node: usize,
        out: Vec<DataTuple>,
        work: &mut VecDeque<(u32, u32, DataTuple)>,
    ) {
        if self.terminal[node] {
            self.emitted.add(self.shard, out.len() as u64);
            for t in out {
                let _ = self.output_tx.send(t);
            }
            return;
        }
        // Borrow dance: the edge list moves out so routing can update
        // `rr` and `remote` freely, then moves back.
        let edges = std::mem::take(&mut self.out_edges[node]);
        for t in out {
            fan_out(&edges, t, |k, (target, grouping), tuple| {
                let inst = grouping.route(&tuple, self.par[*target], &mut self.rr[node][k]);
                if inst % self.shards == self.shard {
                    work.push_back((*target as u32, inst as u32, tuple));
                } else {
                    self.remote
                        .entry((*target as u32, inst as u32))
                        .or_default()
                        .push(tuple);
                }
            });
        }
        self.out_edges[node] = edges;
    }

    /// Ships the accumulated cross-shard slabs, one message per
    /// (node, instance).
    fn flush_remote(&mut self) {
        if self.remote.is_empty() {
            return;
        }
        let remote = std::mem::take(&mut self.remote);
        let trace = self.current_trace;
        for ((node, inst), tuples) in remote {
            let owner = inst as usize % self.shards;
            self.send_to(
                owner,
                ShardMsg::Slab {
                    node,
                    inst,
                    tuples,
                    trace,
                },
            );
        }
    }

    /// Sends to a peer without ever blocking: full ring → spill under
    /// `Block`, drop-and-count under `Shed` (markers always spill — the
    /// shutdown protocol must not lose them). FIFO holds: while the
    /// spill is non-empty nothing goes to the ring directly.
    fn send_to(&mut self, owner: usize, msg: ShardMsg) {
        let shard = self.shard;
        let policy = self.policy;
        let mut dropped = 0u64;
        {
            let peer = self.peers[owner].as_mut().expect("no ring to self");
            let overflow = if peer.spill.is_empty() {
                match peer.ring.push(msg) {
                    Ok(()) => None,
                    Err(PushError::Full(back)) => Some(back),
                    // Peer thread died; nothing to deliver to.
                    Err(PushError::Disconnected(_)) => None,
                }
            } else {
                Some(msg)
            };
            if let Some(msg) = overflow {
                let shed_it = matches!(policy, BackpressurePolicy::Shed)
                    && matches!(msg, ShardMsg::Slab { .. });
                if shed_it {
                    if let ShardMsg::Slab { tuples, .. } = msg {
                        dropped = tuples.len() as u64;
                    }
                } else {
                    peer.spill.push_back(msg);
                }
            }
        }
        if dropped > 0 {
            self.shed.add(shard, dropped);
        }
    }

    /// Retries spilled messages against their rings; returns whether
    /// anything moved.
    fn flush_spills(&mut self) -> bool {
        let mut progressed = false;
        for peer in self.peers.iter_mut().flatten() {
            while let Some(msg) = peer.spill.pop_front() {
                match peer.ring.push(msg) {
                    Ok(()) => progressed = true,
                    Err(PushError::Full(back)) => {
                        peer.spill.push_front(back);
                        break;
                    }
                    Err(PushError::Disconnected(_)) => {
                        peer.spill.clear();
                        break;
                    }
                }
            }
        }
        progressed
    }

    fn spill_pending(&self) -> bool {
        self.peers.iter().flatten().any(|p| !p.spill.is_empty())
    }

    /// Advances every owned instance to `now`, routing released tuples.
    fn run_ticks(&mut self, now: u64) {
        let mut work = VecDeque::new();
        for node in 0..self.bolts.len() {
            let mut emitted = Vec::new();
            for bolt in &mut self.bolts[node] {
                bolt.tick(now, &mut emitted);
            }
            if !emitted.is_empty() {
                self.dispatch(node, emitted, &mut work);
                self.drain_local(&mut work);
            }
        }
        self.flush_remote();
    }

    /// Round `t` may finish only once every peer advertised `Marker(t)`
    /// — proof that all data bound for node `t` is already in our rings
    /// (FIFO before the marker) and therefore processed by the wait
    /// loop's drain.
    fn markers_ready(&self, round: usize) -> bool {
        round == 0 || self.marker_level[1..].iter().all(|&l| l >= round as i64)
    }

    fn send_marker_all(&mut self, round: u32, now_ns: u64) {
        for owner in 0..self.peers.len() {
            if self.peers[owner].is_some() {
                self.send_to(owner, ShardMsg::Marker { round, now_ns });
            }
        }
    }

    /// The per-node marker rounds: wait for `Marker(t)` from every peer,
    /// finish our instances of node `t`, flush the emissions, advertise
    /// `Marker(t + 1)`. Data for node `t` can only originate from the
    /// caller (quiesced before `Marker(0)`) or from nodes `s < t`, whose
    /// emissions every shard flushes before its `Marker(s + 1) ≤
    /// Marker(t)` — so once the markers are in, node `t` is complete.
    fn shutdown_phases(&mut self) {
        let now = self.finish_now.unwrap_or(0);
        let n = self.bolts.len();
        for node in 0..n {
            while !self.markers_ready(node) {
                let mut busy = self.flush_spills();
                let (progress, _) = self.drain_incoming();
                busy |= progress;
                if !busy {
                    std::thread::yield_now();
                }
            }
            let mut work = VecDeque::new();
            let mut emitted = Vec::new();
            for bolt in &mut self.bolts[node] {
                bolt.finish(now, &mut emitted);
            }
            if !emitted.is_empty() {
                self.dispatch(node, emitted, &mut work);
                self.drain_local(&mut work);
            }
            self.flush_remote();
            if node + 1 < n {
                self.send_marker_all(node as u32 + 1, now);
            }
        }
        // Whatever is still spilled is FIFO ≤ our last marker; the peers
        // that need it are draining until they pop that marker, so this
        // terminates (a dead peer clears on Disconnected).
        while self.spill_pending() {
            if !self.flush_spills() {
                std::thread::yield_now();
            }
        }
    }
}

/// Unix-epoch wall clock: the domain capture timestamps (`ts_ns`) are
/// stamped in, unlike the process-relative [`wall_now_ns`] spans use.
fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
}

/// Records capture→now latency for every tuple carrying a capture
/// timestamp. Tuples with `ts_ns == 0` (synthetic, no capture time) and
/// clock skew (capture after now) are skipped rather than recorded as
/// nonsense.
fn record_e2e(h: &Histogram, tuples: &[DataTuple]) {
    let now = wall_ns();
    for t in tuples {
        if t.ts_ns > 0 && t.ts_ns <= now {
            h.record(now - t.ts_ns);
        }
    }
}

/// A running sharded topology. See the module docs for the execution
/// model; construct via [`crate::build_executor`] with
/// [`crate::ExecutorMode::Sharded`], or directly with
/// [`ShardedExecutor::spawn`].
pub struct ShardedExecutor {
    workers: Vec<JoinHandle<()>>,
    main_tx: Vec<Producer<ShardMsg>>,
    output_rx: Receiver<DataTuple>,
    spout_edges: Vec<(usize, Grouping)>,
    par: Vec<usize>,
    offer_rr: Vec<usize>,
    shards: usize,
    policy: BackpressurePolicy,
    processed: Arc<Counter>,
    emitted: Arc<ShardedCounter>,
    shed: Arc<ShardedCounter>,
    e2e_latency: Option<Arc<Histogram>>,
    stopped: bool,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl ShardedExecutor {
    /// Spawns `config.shards` worker threads owning partition-disjoint
    /// instance sets; data arrives through [`Executor::offer`].
    pub fn spawn(topology: &Topology, config: ShardedConfig) -> Self {
        Self::spawn_with_metrics(topology, config, None)
    }

    /// [`ShardedExecutor::spawn`] with telemetry: `stream.processed` as
    /// a plain counter (single writer), `stream.emitted`/`stream.shed`
    /// as per-shard striped counters merged on scrape, per-bolt
    /// `stream.execute_latency_ns` histograms (the `stream.*` names the
    /// inline engine publishes too), and `e2e.tuple_latency_ns` for
    /// offered tuples.
    pub fn spawn_with_metrics(
        topology: &Topology,
        config: ShardedConfig,
        metrics: Option<&MetricsRegistry>,
    ) -> Self {
        Self::spawn_traced(topology, config, metrics, None)
    }

    /// [`ShardedExecutor::spawn_with_metrics`] plus an optional
    /// [`Tracer`]: traced slabs record a `bolt` stage span per draining
    /// shard (the context follows slabs across shard hops) and every
    /// bolt instance that runs a traced slab's chain receives
    /// [`crate::Bolt::observe_trace`] first.
    pub fn spawn_traced(
        topology: &Topology,
        config: ShardedConfig,
        metrics: Option<&MetricsRegistry>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let shards = config.shards.max(1);
        let n = topology.bolts.len();
        let terminals = topology.terminals();
        let par: Vec<usize> = topology.bolts.iter().map(|b| b.parallelism).collect();
        let processed = match metrics {
            Some(m) => m.counter("stream.processed", &[]),
            None => Arc::new(Counter::new()),
        };
        // One cell per shard plus one for the offering thread.
        let emitted = match metrics {
            Some(m) => m.sharded_counter("stream.emitted", &[], shards + 1),
            None => Arc::new(ShardedCounter::new(shards + 1)),
        };
        let shed = match metrics {
            Some(m) => m.sharded_counter("stream.shed", &[], shards + 1),
            None => Arc::new(ShardedCounter::new(shards + 1)),
        };
        let e2e_latency = metrics.map(|m| m.histogram("e2e.tuple_latency_ns", &[]));
        let latency: Vec<Option<Arc<Histogram>>> = topology
            .bolts
            .iter()
            .map(|b| {
                metrics.map(|m| m.histogram("stream.execute_latency_ns", &[("bolt", &b.name)]))
            })
            .collect();

        // Rings: caller → each worker, then the full worker mesh. Every
        // ring has exactly one producer and one consumer by construction.
        let cap = config.ring_capacity.max(2);
        let mut main_tx = Vec::with_capacity(shards);
        let mut incoming: Vec<Vec<Consumer<ShardMsg>>> = (0..shards).map(|_| Vec::new()).collect();
        for rx_list in incoming.iter_mut() {
            let (tx, rx) = spsc::<ShardMsg>(cap);
            main_tx.push(tx);
            rx_list.push(rx);
        }
        let mut peer_tx: Vec<Vec<Option<Peer>>> = (0..shards)
            .map(|_| (0..shards).map(|_| None).collect())
            .collect();
        #[allow(clippy::needless_range_loop)] // 2-D index with a == b skip
        for a in 0..shards {
            for b in 0..shards {
                if a == b {
                    continue;
                }
                let (tx, rx) = spsc::<ShardMsg>(cap);
                peer_tx[a][b] = Some(Peer {
                    ring: tx,
                    spill: VecDeque::new(),
                });
                incoming[b].push(rx);
            }
        }

        // Instance ownership: global instance `i` of every node lives on
        // shard `i % shards`, preserving each grouping's instance-level
        // semantics exactly (same instance count, same routing function).
        let mut bolts: Vec<Vec<NodeInstances>> = (0..shards)
            .map(|_| (0..n).map(|_| Vec::new()).collect())
            .collect();
        for (node_i, node) in topology.bolts.iter().enumerate() {
            for inst in 0..node.parallelism {
                bolts[inst % shards][node_i].push((node.factory)());
            }
        }
        let edges_from = |from: SourceRef| -> Vec<(usize, Grouping)> {
            topology
                .edges
                .iter()
                .filter(|e| e.from == from)
                .map(|e| (e.to.0, e.grouping.clone()))
                .collect()
        };
        let spout_edges = edges_from(SourceRef::Spout);

        let (output_tx, output_rx) = unbounded::<DataTuple>();
        let mut workers = Vec::with_capacity(shards);
        let mut incoming = incoming.into_iter();
        let mut peer_tx = peer_tx.into_iter();
        let mut bolts = bolts.into_iter();
        for w in 0..shards {
            let incoming = incoming.next().expect("one consumer set per worker");
            let marker_level = vec![-1i64; incoming.len()];
            let out_edges: Vec<_> = (0..n)
                .map(|i| edges_from(SourceRef::Bolt(BoltId(i))))
                .collect();
            let worker = Worker {
                shard: w,
                shards,
                par: par.clone(),
                bolts: bolts.next().expect("one instance set per worker"),
                terminal: terminals.clone(),
                rr: out_edges.iter().map(|es| vec![0usize; es.len()]).collect(),
                out_edges,
                incoming,
                marker_level,
                peers: peer_tx.next().expect("one peer row per worker"),
                remote: HashMap::new(),
                output_tx: output_tx.clone(),
                emitted: emitted.clone(),
                shed: shed.clone(),
                latency: latency.clone(),
                lat_ticks: 0,
                policy: config.backpressure,
                idle_sleep: config.idle_sleep,
                finish_now: None,
                tracer: tracer.clone(),
                current_trace: None,
                last_observed: None,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-{w}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
        }
        // Workers hold the only output senders: the channel disconnects
        // exactly when the last worker exits.
        drop(output_tx);

        let offer_rr = vec![0usize; spout_edges.len().max(1)];
        ShardedExecutor {
            workers,
            main_tx,
            output_rx,
            spout_edges,
            par,
            offer_rr,
            shards,
            policy: config.backpressure,
            processed,
            emitted,
            shed,
            e2e_latency,
            stopped: false,
        }
    }

    /// Worker threads (= configured shards).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pushes a data slab to its owning worker, honoring the policy:
    /// `Block` spins until the ring accepts (workers always drain, so
    /// the wait is bounded), `Shed` drops and counts.
    fn push_data(&mut self, w: usize, msg: ShardMsg) {
        match self.policy {
            BackpressurePolicy::Block => {
                let mut msg = msg;
                loop {
                    match self.main_tx[w].push(msg) {
                        Ok(()) => return,
                        Err(PushError::Full(back)) => {
                            msg = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Disconnected(_)) => return,
                    }
                }
            }
            BackpressurePolicy::Shed => {
                if let Err(PushError::Full(ShardMsg::Slab { tuples, .. })) =
                    self.main_tx[w].push(msg)
                {
                    self.shed.add(self.shards, tuples.len() as u64);
                }
            }
        }
    }

    /// Stops workers via the marker protocol and collects the residual
    /// output; reusable from [`Executor::stop`] and idempotent.
    fn drain_shutdown(&mut self, now_ns: u64) -> Vec<DataTuple> {
        if !self.stopped {
            self.stopped = true;
            for tx in &mut self.main_tx {
                // Markers must arrive regardless of policy.
                let mut msg = ShardMsg::Marker { round: 0, now_ns };
                loop {
                    match tx.push(msg) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            msg = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Disconnected(_)) => break,
                    }
                }
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let mut collected = Vec::new();
        while let Ok(t) = self.output_rx.recv() {
            collected.push(t);
        }
        collected
    }
}

impl Executor for ShardedExecutor {
    fn offer(&mut self, batch: TupleBatch) {
        if batch.is_empty() || self.stopped || self.spout_edges.is_empty() {
            return;
        }
        self.processed.add(batch.len() as u64);
        if let Some(h) = &self.e2e_latency {
            record_e2e(h, &batch.tuples);
        }
        let trace = batch.trace;
        let edges = std::mem::take(&mut self.spout_edges);
        // One slab per (edge, instance), filled tuple by tuple and
        // shipped edge by edge.
        let mut slabs: Vec<Vec<Vec<DataTuple>>> = edges
            .iter()
            .map(|(node, _)| (0..self.par[*node]).map(|_| Vec::new()).collect())
            .collect();
        for t in batch {
            fan_out(&edges, t, |k, (_, grouping), t| {
                let i = grouping.route(&t, slabs[k].len(), &mut self.offer_rr[k]);
                slabs[k][i].push(t);
            });
        }
        for ((node, _), slabs) in edges.iter().zip(slabs) {
            for (inst, slab) in slabs.into_iter().enumerate() {
                if slab.is_empty() {
                    continue;
                }
                self.push_data(
                    inst % self.shards,
                    ShardMsg::Slab {
                        node: *node as u32,
                        inst: inst as u32,
                        tuples: slab,
                        trace,
                    },
                );
            }
        }
        self.spout_edges = edges;
    }

    fn tick(&mut self, now_ns: u64) {
        if self.stopped {
            return;
        }
        for tx in &mut self.main_tx {
            // Best-effort: a full ring means the worker is busy with data
            // and will get the next tick soon enough.
            let _ = tx.push(ShardMsg::Tick(now_ns));
        }
    }

    fn poll_output(&mut self) -> Vec<DataTuple> {
        let mut out = Vec::new();
        while let Ok(t) = self.output_rx.try_recv() {
            out.push(t);
        }
        out
    }

    fn stop(&mut self, now_ns: u64) -> Vec<DataTuple> {
        self.drain_shutdown(now_ns)
    }

    fn processed(&self) -> u64 {
        self.processed.get()
    }

    fn emitted(&self) -> u64 {
        self.emitted.get()
    }

    fn shed_tuples(&self) -> u64 {
        self.shed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies::{build, ProcessorSpec};
    use netalytics_data::Value;

    fn offer_all(exec: &mut ShardedExecutor, tuples: Vec<DataTuple>, chunk: usize) {
        let mut it = tuples.into_iter().peekable();
        while it.peek().is_some() {
            let b: TupleBatch = it.by_ref().take(chunk).collect();
            exec.offer(b);
        }
    }

    #[test]
    fn sharded_group_sum_totals_are_exact() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "dst_ip")
                .with_arg("value", "bytes"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(
            &topo,
            ShardedConfig {
                shards: 3,
                ring_capacity: 8,
                ..Default::default()
            },
        );
        let tuples: Vec<DataTuple> = (0..1000)
            .map(|i| {
                DataTuple::new(i, 0)
                    .with("dst_ip", if i % 2 == 0 { "a" } else { "b" })
                    .with("bytes", 10.0)
            })
            .collect();
        offer_all(&mut exec, tuples, 20);
        assert_eq!(exec.processed(), 1000, "counted at offer");
        let out = exec.stop(1);
        let mut sums: Vec<(String, f64)> = out
            .iter()
            .filter_map(|t| {
                Some((
                    t.get("dst_ip")?.to_string(),
                    t.get("sum").and_then(Value::as_f64)?,
                ))
            })
            .collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(sums, vec![("a".into(), 5000.0), ("b".into(), 5000.0)]);
        assert_eq!(Executor::shed_tuples(&exec), 0, "Block loses nothing");
    }

    #[test]
    fn sharded_top_k_crosses_shards_and_ranks() {
        // par=4 counting instances over 3 shards forces cross-shard hops
        // into the single global ranker; the tiny rings force spills.
        let topo = build(
            &ProcessorSpec::new("top-k")
                .with_arg("k", "2")
                .with_arg("par", "4")
                .with_arg("key", "url"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(
            &topo,
            ShardedConfig {
                shards: 3,
                ring_capacity: 2,
                ..Default::default()
            },
        );
        let tuples: Vec<DataTuple> = (0..300)
            .map(|i| {
                let url = match i % 6 {
                    0..=2 => "/hot",
                    3 | 4 => "/warm",
                    _ => "/cold",
                };
                DataTuple::new(i, 1_000 + i).with("url", url)
            })
            .collect();
        offer_all(&mut exec, tuples, 32);
        let out = exec.stop(1);
        let last_window: Vec<_> = out.iter().filter(|t| t.source == "rank").collect();
        assert!(!last_window.is_empty(), "no rankings emitted");
        let top = last_window
            .iter()
            .find(|t| t.get("rank").and_then(Value::as_u64) == Some(0))
            .unwrap();
        assert_eq!(top.get("key").and_then(Value::as_str), Some("/hot"));
    }

    #[test]
    fn single_shard_degenerates_to_serial_chains() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(
            &topo,
            ShardedConfig {
                shards: 1,
                ..Default::default()
            },
        );
        let tuples: Vec<DataTuple> = (0..64u64)
            .map(|i| DataTuple::new(i, 0).with("k", "x").with("v", 1.0))
            .collect();
        offer_all(&mut exec, tuples, 8);
        let out = exec.stop(1);
        let total: f64 = out
            .iter()
            .filter_map(|t| t.get("sum").and_then(Value::as_f64))
            .sum();
        assert_eq!(total, 64.0);
    }

    #[test]
    fn shed_policy_accounts_for_every_tuple() {
        // Single-node topology: sheds can only happen at the main rings,
        // so processed == delivered + shed exactly.
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(
            &topo,
            ShardedConfig {
                shards: 2,
                ring_capacity: 2,
                backpressure: BackpressurePolicy::Shed,
                ..Default::default()
            },
        );
        let tuples: Vec<DataTuple> = (0..1000u64)
            .map(|i| DataTuple::new(i, 0).with("k", "x").with("v", 1.0))
            .collect();
        offer_all(&mut exec, tuples, 1);
        assert_eq!(exec.processed(), 1000);
        let out = exec.stop(1);
        let delivered: f64 = out
            .iter()
            .filter_map(|t| t.get("sum").and_then(Value::as_f64))
            .sum();
        let shed = Executor::shed_tuples(&exec);
        assert_eq!(
            delivered as u64 + shed,
            1000,
            "every offered tuple is either summed or counted shed"
        );
    }

    #[test]
    fn stop_is_idempotent_and_post_stop_calls_are_safe() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(&topo, ShardedConfig::default());
        exec.offer(
            (0..10u64)
                .map(|i| DataTuple::new(i, 0).with("k", "x").with("v", 1.0))
                .collect(),
        );
        let out = exec.stop(1);
        let total: f64 = out
            .iter()
            .filter_map(|t| t.get("sum").and_then(Value::as_f64))
            .sum();
        assert_eq!(total, 10.0);
        exec.offer((0..4u64).map(|i| DataTuple::new(i, 0)).collect());
        exec.tick(2);
        assert!(exec.poll_output().is_empty());
        assert!(exec.stop(3).is_empty(), "second stop yields nothing");
        assert_eq!(exec.processed(), 10);
    }

    #[test]
    fn dropping_without_stop_does_not_hang() {
        let topo = build(
            &ProcessorSpec::new("group-sum")
                .with_arg("group", "k")
                .with_arg("value", "v"),
        )
        .unwrap();
        let mut exec = ShardedExecutor::spawn(&topo, ShardedConfig::default());
        exec.offer(
            (0..8u64)
                .map(|i| DataTuple::new(i, 0).with("k", "x").with("v", 1.0))
                .collect(),
        );
        drop(exec); // workers observe the disconnected rings and exit
    }
}
