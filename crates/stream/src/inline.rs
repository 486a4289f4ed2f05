//! Deterministic single-threaded executor (the discrete-event plane's
//! analytics engine).

use std::collections::VecDeque;
use std::sync::Arc;

use netalytics_data::{DataTuple, TraceCtx, TupleBatch};
use netalytics_telemetry::{wall_now_ns, Counter, Histogram, MetricsRegistry, Tracer};

use crate::bolt::{fan_out, Bolt, Grouping};
use crate::executor::Executor;
use crate::topology::{SourceRef, Topology};

struct NodeRt {
    instances: Vec<Box<dyn Bolt>>,
    round_robin: usize,
    terminal: bool,
    /// Outgoing edges: (target node, grouping).
    out_edges: Vec<(usize, Grouping)>,
}

/// Executes a [`Topology`] synchronously.
///
/// Tuples pushed via [`InlineExecutor::push`] flow through the DAG to
/// completion before the call returns; windowed bolts release state on
/// [`InlineExecutor::tick`]. Emissions of terminal bolts accumulate in
/// the output buffer, drained by [`InlineExecutor::take_output`].
///
/// # Examples
///
/// ```
/// use netalytics_data::DataTuple;
/// use netalytics_stream::topologies::{build, ProcessorSpec};
/// use netalytics_stream::InlineExecutor;
///
/// let topo = build(&ProcessorSpec::new("top-k").with_arg("k", "3")).unwrap();
/// let mut exec = InlineExecutor::new(&topo);
/// for (i, url) in ["/a", "/a", "/b"].iter().enumerate() {
///     exec.push(DataTuple::new(i as u64, 0).with("url", *url));
/// }
/// exec.tick(10_000_000_000); // close the window
/// let out = exec.take_output();
/// assert!(!out.is_empty());
/// ```
pub struct InlineExecutor {
    nodes: Vec<NodeRt>,
    spout_edges: Vec<(usize, Grouping)>,
    output: Vec<DataTuple>,
    /// Shared with the registry's `stream.processed` when instrumented,
    /// free-standing otherwise — either way one cell, no double counting.
    processed: Arc<Counter>,
    emitted: Arc<Counter>,
    /// Parallel to `nodes`: `stream.execute_latency_ns{bolt=...}`.
    node_latency: Vec<Option<Arc<Histogram>>>,
    /// Rolling sample counter for latency timing (1 in [`LAT_SAMPLE`]).
    lat_ticks: u64,
    /// When set, batches carrying a [`TraceCtx`] get a `bolt` stage span
    /// covering their synchronous run through the DAG.
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for InlineExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineExecutor")
            .field("nodes", &self.nodes.len())
            .field("processed", &self.processed.get())
            .finish_non_exhaustive()
    }
}

impl InlineExecutor {
    /// Instantiates every bolt of `topology`.
    pub fn new(topology: &Topology) -> Self {
        Self::with_metrics(topology, None)
    }

    /// [`InlineExecutor::new`] with optional telemetry: tuple counters
    /// register as `stream.processed` / `stream.emitted` and each bolt
    /// records (sampled) execute latency. The inline engine runs on the
    /// deterministic plane, so instruments never change scheduling — only
    /// observation.
    pub fn with_metrics(topology: &Topology, metrics: Option<&MetricsRegistry>) -> Self {
        Self::with_instruments(topology, metrics, None)
    }

    /// [`InlineExecutor::with_metrics`] plus an optional [`Tracer`]:
    /// traced batches record a `bolt` stage span (the whole synchronous
    /// DAG run) and deliver their context to every bolt instance via
    /// [`Bolt::observe_trace`] before execution.
    pub fn with_instruments(
        topology: &Topology,
        metrics: Option<&MetricsRegistry>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let terminals = topology.terminals();
        let mut nodes: Vec<NodeRt> = topology
            .bolts
            .iter()
            .zip(terminals)
            .map(|(b, terminal)| NodeRt {
                instances: (0..b.parallelism).map(|_| (b.factory)()).collect(),
                round_robin: 0,
                terminal,
                out_edges: Vec::new(),
            })
            .collect();
        let mut spout_edges = Vec::new();
        for e in &topology.edges {
            match e.from {
                SourceRef::Spout => spout_edges.push((e.to.0, e.grouping.clone())),
                SourceRef::Bolt(b) => nodes[b.0].out_edges.push((e.to.0, e.grouping.clone())),
            }
        }
        let counter = |name: &str| match metrics {
            Some(m) => m.counter(name, &[]),
            None => Arc::new(Counter::new()),
        };
        let node_latency = topology
            .bolts
            .iter()
            .map(|b| {
                metrics.map(|m| m.histogram("stream.execute_latency_ns", &[("bolt", &b.name)]))
            })
            .collect();
        InlineExecutor {
            nodes,
            spout_edges,
            output: Vec::new(),
            processed: counter("stream.processed"),
            emitted: counter("stream.emitted"),
            node_latency,
            lat_ticks: 0,
            tracer,
        }
    }

    /// Feeds one tuple from the spout through the whole DAG.
    pub fn push(&mut self, tuple: DataTuple) {
        self.processed.inc();
        self.run_from_spout([tuple]);
    }

    /// Feeds a whole batch through the DAG in one call — the batch-first
    /// twin of [`InlineExecutor::push`]. Tuples are routed in order; with
    /// a single spout edge no tuple is cloned.
    pub fn push_batch(&mut self, batch: TupleBatch) {
        let trace = batch.trace.filter(|_| self.tracer.is_some());
        let bolt_start = trace.map(|_| wall_now_ns());
        if let Some(ctx) = trace {
            self.observe_trace_all(&ctx);
        }
        self.processed.add(batch.len() as u64);
        self.run_from_spout(batch);
        if let (Some(ctx), Some(start), Some(tracer)) = (trace, bolt_start, &self.tracer) {
            tracer.record_span(
                0,
                ctx.cookie,
                ctx.batch_id,
                ctx.born_ns,
                "bolt",
                start,
                wall_now_ns(),
            );
        }
    }

    /// Routes spout tuples over every spout edge, then runs the DAG dry.
    fn run_from_spout(&mut self, tuples: impl IntoIterator<Item = DataTuple>) {
        let mut work = VecDeque::new();
        // per-batch: the edge list moves out so `enqueue` can borrow
        // `self`, then moves back.
        let edges = std::mem::take(&mut self.spout_edges);
        for t in tuples {
            fan_out(&edges, t, |_, (node, grouping), t| {
                self.enqueue(&mut work, *node, grouping, t);
            });
        }
        self.spout_edges = edges;
        self.drain_work(work);
    }

    /// Delivers a traced batch's context to every bolt instance before
    /// the batch runs — sinks latch it to close the trace at commit.
    fn observe_trace_all(&mut self, ctx: &TraceCtx) {
        for node in &mut self.nodes {
            for bolt in &mut node.instances {
                bolt.observe_trace(ctx);
            }
        }
    }

    /// Advances every windowed bolt to `now_ns`, flowing any released
    /// tuples downstream.
    pub fn tick(&mut self, now_ns: u64) {
        self.phase(now_ns, false);
    }

    /// Final flush: gives every bolt a chance to release remaining state.
    pub fn finish(&mut self, now_ns: u64) {
        self.phase(now_ns, true);
    }

    fn phase(&mut self, now_ns: u64, finish: bool) {
        // Tick in node order (upstream nodes were defined first in all our
        // topologies), letting released tuples cascade within one phase.
        let mut emitted = Vec::new();
        for idx in 0..self.nodes.len() {
            for bolt in &mut self.nodes[idx].instances {
                if finish {
                    bolt.finish(now_ns, &mut emitted);
                } else {
                    bolt.tick(now_ns, &mut emitted);
                }
            }
            let mut work = VecDeque::new();
            self.route_emissions(&mut work, idx, &mut emitted);
            self.drain_work(work);
        }
    }

    fn enqueue(
        &mut self,
        work: &mut VecDeque<(usize, DataTuple)>,
        node: usize,
        grouping: &Grouping,
        tuple: DataTuple,
    ) {
        // Routing picks the instance, but we carry it as (node, tuple) and
        // re-route at execution time; instead, encode instance by routing
        // now and storing it alongside.
        let n = self.nodes[node].instances.len();
        let inst = grouping.route(&tuple, n, &mut self.nodes[node].round_robin);
        work.push_back((node * MAX_PAR + inst, tuple));
    }

    /// Routes one node's emissions, leaving `emitted` empty for reuse.
    fn route_emissions(
        &mut self,
        work: &mut VecDeque<(usize, DataTuple)>,
        node: usize,
        emitted: &mut Vec<DataTuple>,
    ) {
        if self.nodes[node].terminal {
            self.emitted.add(emitted.len() as u64);
            self.output.append(emitted);
            return;
        }
        // per-batch: the edge list moves out so `enqueue` can borrow
        // `self`, then moves back.
        let edges = std::mem::take(&mut self.nodes[node].out_edges);
        for t in emitted.drain(..) {
            fan_out(&edges, t, |_, (target, grouping), t| {
                self.enqueue(work, *target, grouping, t);
            });
        }
        self.nodes[node].out_edges = edges;
    }

    fn drain_work(&mut self, mut work: VecDeque<(usize, DataTuple)>) {
        let mut out = Vec::new();
        while let Some((slot, tuple)) = work.pop_front() {
            let (node, inst) = (slot / MAX_PAR, slot % MAX_PAR);
            let timed = self.node_latency[node].is_some() && {
                self.lat_ticks = self.lat_ticks.wrapping_add(1);
                self.lat_ticks.is_multiple_of(LAT_SAMPLE)
            };
            let t0 = timed.then(std::time::Instant::now);
            self.nodes[node].instances[inst].execute(&tuple, &mut out);
            if let (Some(t0), Some(h)) = (t0, &self.node_latency[node]) {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            self.route_emissions(&mut work, node, &mut out);
        }
    }

    /// Drains accumulated terminal emissions.
    pub fn take_output(&mut self) -> Vec<DataTuple> {
        std::mem::take(&mut self.output)
    }

    /// Tuples pushed so far.
    pub fn processed(&self) -> u64 {
        self.processed.get()
    }

    /// Tuples emitted by terminal bolts so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.get()
    }
}

impl Executor for InlineExecutor {
    fn offer(&mut self, batch: TupleBatch) {
        self.push_batch(batch);
    }

    fn tick(&mut self, now_ns: u64) {
        InlineExecutor::tick(self, now_ns);
    }

    fn poll_output(&mut self) -> Vec<DataTuple> {
        self.take_output()
    }

    fn stop(&mut self, now_ns: u64) -> Vec<DataTuple> {
        self.finish(now_ns);
        self.take_output()
    }

    fn processed(&self) -> u64 {
        self.processed.get()
    }

    fn emitted(&self) -> u64 {
        InlineExecutor::emitted(self)
    }
}

/// Encoding base for (node, instance) work slots; bounds per-bolt
/// parallelism in the inline executor.
const MAX_PAR: usize = 1024;

/// Execute-latency sampling period: timing every call would put two
/// `Instant::now` syscalls on each tuple execution.
const LAT_SAMPLE: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use netalytics_data::Value;

    /// Appends its instance-unique discriminator so tests can observe
    /// routing.
    struct Tag(&'static str);
    impl Bolt for Tag {
        fn execute(&mut self, t: &DataTuple, out: &mut Vec<DataTuple>) {
            out.push(t.clone().with("via", self.0));
        }
    }

    /// Counts tuples; emits the count on tick.
    #[derive(Default)]
    struct Count(u64);
    impl Bolt for Count {
        fn execute(&mut self, _t: &DataTuple, _out: &mut Vec<DataTuple>) {
            self.0 += 1;
        }
        fn tick(&mut self, now: u64, out: &mut Vec<DataTuple>) {
            out.push(DataTuple::new(0, now).with("count", self.0));
            self.0 = 0;
        }
    }

    #[test]
    fn chain_passes_tuples_through() {
        let mut b = Topology::builder("t");
        let a = b.add_bolt("a", 1, || Box::new(Tag("a")));
        let z = b.add_bolt("z", 1, || Box::new(Tag("z")));
        b.wire(SourceRef::Spout, a, Grouping::Shuffle);
        b.wire(SourceRef::Bolt(a), z, Grouping::Shuffle);
        let topo = b.build().unwrap();
        let mut exec = InlineExecutor::new(&topo);
        exec.push(DataTuple::new(1, 0));
        let out = exec.take_output();
        assert_eq!(out.len(), 1);
        // The tuple passed both bolts: two `via` fields appended.
        assert_eq!(out[0].fields.len(), 2);
    }

    #[test]
    fn tick_cascades_downstream() {
        let mut b = Topology::builder("t");
        let c = b.add_bolt("count", 1, Box::<Count>::default);
        let tag = b.add_bolt("tag", 1, || Box::new(Tag("after")));
        b.wire(SourceRef::Spout, c, Grouping::Global);
        b.wire(SourceRef::Bolt(c), tag, Grouping::Global);
        let topo = b.build().unwrap();
        let mut exec = InlineExecutor::new(&topo);
        for i in 0..5 {
            exec.push(DataTuple::new(i, 0));
        }
        assert!(exec.take_output().is_empty(), "counts held until tick");
        exec.tick(1);
        let out = exec.take_output();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("count").and_then(Value::as_u64), Some(5));
        assert_eq!(out[0].get("via").and_then(Value::as_str), Some("after"));
    }

    #[test]
    fn fanout_duplicates_to_both_branches() {
        let mut b = Topology::builder("t");
        let left = b.add_bolt("l", 1, || Box::new(Tag("l")));
        let right = b.add_bolt("r", 1, || Box::new(Tag("r")));
        b.wire(SourceRef::Spout, left, Grouping::Shuffle);
        b.wire(SourceRef::Spout, right, Grouping::Shuffle);
        let topo = b.build().unwrap();
        let mut exec = InlineExecutor::new(&topo);
        exec.push(DataTuple::new(7, 0));
        let out = exec.take_output();
        let vias: Vec<_> = out
            .iter()
            .filter_map(|t| t.get("via").and_then(Value::as_str))
            .collect();
        assert_eq!(out.len(), 2);
        assert!(vias.contains(&"l") && vias.contains(&"r"));
    }

    #[test]
    fn by_id_grouping_partitions_state() {
        // Two Count instances grouped by id: even/odd ids count apart.
        let mut b = Topology::builder("t");
        let c = b.add_bolt("count", 2, Box::<Count>::default);
        b.wire(SourceRef::Spout, c, Grouping::ById);
        let topo = b.build().unwrap();
        let mut exec = InlineExecutor::new(&topo);
        for i in 0..10 {
            exec.push(DataTuple::new(i % 2, 0)); // ids 0 and 1 alternate
        }
        exec.tick(1);
        let out = exec.take_output();
        let counts: Vec<_> = out
            .iter()
            .filter_map(|t| t.get("count").and_then(Value::as_u64))
            .collect();
        assert_eq!(counts, vec![5, 5]);
    }

    #[test]
    fn push_batch_matches_per_tuple_push() {
        let mk = || {
            let mut b = Topology::builder("t");
            let c = b.add_bolt("count", 2, Box::<Count>::default);
            let tag = b.add_bolt("tag", 1, || Box::new(Tag("after")));
            b.wire(SourceRef::Spout, c, Grouping::ById);
            b.wire(SourceRef::Bolt(c), tag, Grouping::Global);
            InlineExecutor::new(&b.build().unwrap())
        };
        let tuples: Vec<DataTuple> = (0..10).map(|i| DataTuple::new(i % 2, 0)).collect();
        let mut per_tuple = mk();
        for t in tuples.clone() {
            per_tuple.push(t);
        }
        per_tuple.tick(1);
        let mut batched = mk();
        batched.push_batch(TupleBatch::from_tuples(tuples));
        batched.tick(1);
        assert_eq!(per_tuple.take_output(), batched.take_output());
        assert_eq!(per_tuple.processed(), batched.processed());
    }

    #[test]
    fn traced_batches_record_bolt_spans_and_reach_observers() {
        use netalytics_telemetry::{TraceConfig, Tracer};

        /// Latches the last observed trace context into a shared cell.
        struct Latch(Arc<parking_lot::Mutex<Option<TraceCtx>>>);
        impl Bolt for Latch {
            fn execute(&mut self, _t: &DataTuple, _out: &mut Vec<DataTuple>) {}
            fn observe_trace(&mut self, ctx: &TraceCtx) {
                *self.0.lock() = Some(*ctx); // cold path: test latch
            }
        }

        let seen = Arc::new(parking_lot::Mutex::new(None));
        let mut b = Topology::builder("t");
        let cell = seen.clone();
        let a = b.add_bolt("latch", 1, move || Box::new(Latch(cell.clone())));
        b.wire(SourceRef::Spout, a, Grouping::Shuffle);
        let topo = b.build().unwrap();
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        let mut exec = InlineExecutor::with_instruments(&topo, None, Some(Arc::clone(&tracer)));
        let mut batch = TupleBatch::from_tuples(vec![DataTuple::new(1, 0)]);
        batch.trace = Some(TraceCtx {
            cookie: 5,
            batch_id: 1,
            born_ns: 0,
        });
        exec.push_batch(batch);
        let latched = seen.lock().map(|c| c.cookie); // cold path: test latch
        assert_eq!(latched, Some(5));
        let falls = tracer.waterfalls(5);
        assert_eq!(falls.len(), 1);
        assert_eq!(falls[0].spans[0].stage, "bolt");
    }

    #[test]
    fn processed_counter() {
        let mut b = Topology::builder("t");
        let a = b.add_bolt("a", 1, || Box::new(Tag("a")));
        b.wire(SourceRef::Spout, a, Grouping::Shuffle);
        let topo = b.build().unwrap();
        let mut exec = InlineExecutor::new(&topo);
        for i in 0..3 {
            exec.push(DataTuple::new(i, 0));
        }
        assert_eq!(exec.processed(), 3);
    }
}
