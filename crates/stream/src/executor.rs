//! The unified executor abstraction over the inline and sharded engines.
//!
//! Two engines, kept for different reasons: [`ExecutorMode::Inline`] is
//! deterministic (the discrete-event plane replays bit-for-bit under a
//! virtual clock), [`ExecutorMode::Sharded`] is the wall-clock threaded
//! lane behind the queue. Both consume the same batch-first transport:
//! callers offer [`TupleBatch`]es, the executor routes tuple slabs through
//! the topology (grouping each batch by destination instance once), and
//! terminal-bolt emissions come back out through
//! [`Executor::poll_output`]. Code that drives a topology — the NFV
//! aggregator, the orchestrator, benchmarks, conformance tests — programs
//! against `dyn Executor` and picks an engine with [`ExecutorMode`] at
//! construction time.

use std::sync::Arc;

use netalytics_data::{DataTuple, TupleBatch};
use netalytics_telemetry::{MetricsRegistry, Tracer};

use crate::inline::InlineExecutor;
use crate::sharded::{ShardedConfig, ShardedExecutor};
use crate::topology::Topology;

/// What happens when a bounded inter-shard ring is full (paper §4.2's
/// load-shedding philosophy applied inside the stream processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the consumer catches up. Backpressure
    /// propagates upstream to the spout, whose queue lag then drives the
    /// adaptive-sampling feedback loop.
    #[default]
    Block,
    /// Drop the offered slab and count its tuples in
    /// [`Executor::shed_tuples`]. Keeps producers real-time at the cost
    /// of completeness, like the paper's sampling under overload.
    Shed,
}

/// A running analytics topology that exchanges tuple batches.
///
/// The contract both engines satisfy:
///
/// * [`offer`](Executor::offer) is the only data entry point; one call
///   routes the whole batch (per-destination slabs, not per-tuple sends).
/// * [`tick`](Executor::tick) advances windowed bolts to a timestamp.
/// * [`poll_output`](Executor::poll_output) drains terminal emissions
///   produced so far; it never blocks.
/// * [`stop`](Executor::stop) flushes windows upstream-first, drains all
///   in-flight tuples gracefully, and returns the residual output.
///   Calling any method after `stop` is safe (never blocks or panics),
///   but what it produces is engine-specific.
pub trait Executor {
    /// Routes one batch of tuples into the topology.
    fn offer(&mut self, batch: TupleBatch);

    /// Advances every windowed bolt to `now_ns`.
    fn tick(&mut self, now_ns: u64);

    /// Drains terminal-bolt emissions accumulated so far (non-blocking).
    fn poll_output(&mut self) -> Vec<DataTuple>;

    /// Flushes windows at `now_ns`, drains in-flight work, and returns
    /// the remaining output.
    fn stop(&mut self, now_ns: u64) -> Vec<DataTuple>;

    /// Tuples accepted via `offer` (plus any internal spout) so far.
    fn processed(&self) -> u64;

    /// Tuples emitted by terminal bolts so far (including ones already
    /// drained through [`Executor::poll_output`] or [`Executor::stop`]).
    fn emitted(&self) -> u64;

    /// Tuples dropped by the [`BackpressurePolicy::Shed`] policy.
    fn shed_tuples(&self) -> u64 {
        0
    }
}

/// Engine selection for [`build_executor`].
#[derive(Debug, Clone, Copy, Default)]
pub enum ExecutorMode {
    /// Deterministic, single-threaded, runs tuples to completion inside
    /// `offer` — the discrete-event plane's engine.
    #[default]
    Inline,
    /// One worker thread per *shard* owning partition-disjoint bolt
    /// instances (`instance % shards`), exchanging slabs over lock-free
    /// SPSC rings — the threaded lane's engine. Caller-driven: no spout
    /// thread is spawned, data arrives via [`Executor::offer`] (see
    /// [`crate::spout::drive`] for the poll → offer → tick loop).
    Sharded(ShardedConfig),
}

/// Instantiates `topology` on the chosen engine.
///
/// # Examples
///
/// ```
/// use netalytics_data::{DataTuple, TupleBatch, Value};
/// use netalytics_stream::{build_executor, topologies, ExecutorMode};
/// use netalytics_stream::topologies::ProcessorSpec;
///
/// let topo = topologies::build(
///     &ProcessorSpec::new("top-k").with_arg("k", "1").with_arg("key", "url"),
/// )?;
/// let mut exec = build_executor(&topo, ExecutorMode::Inline);
/// exec.offer(
///     ["/a", "/b", "/a"]
///         .iter()
///         .enumerate()
///         .map(|(i, url)| DataTuple::new(i as u64, 0).with("url", *url))
///         .collect(),
/// );
/// let out = exec.stop(1);
/// assert_eq!(out[0].get("key").and_then(Value::as_str), Some("/a"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_executor(topology: &Topology, mode: ExecutorMode) -> Box<dyn Executor> {
    build_executor_with(topology, mode, None)
}

/// [`build_executor`] with an optional metrics registry: the executor's
/// processed/emitted/shed counters register as `stream.*` series, every
/// bolt gets a `stream.execute_latency_ns{bolt=...}` histogram, and the
/// sharded engine additionally records `e2e.tuple_latency_ns` (capture
/// timestamp → arrival at the topology, wall clock) for offered tuples.
pub fn build_executor_with(
    topology: &Topology,
    mode: ExecutorMode,
    metrics: Option<&MetricsRegistry>,
) -> Box<dyn Executor> {
    build_executor_traced(topology, mode, metrics, None)
}

/// [`build_executor_with`] plus an optional [`Tracer`]: batches whose
/// [`netalytics_data::TraceCtx`] is set get a `bolt` stage span per
/// processed slab (wall clock, worker-indexed span shards), and every
/// bolt that handles a traced slab receives
/// [`crate::Bolt::observe_trace`] so sinks can close the trace at the
/// store. Untraced batches pay nothing beyond an `Option` check.
pub fn build_executor_traced(
    topology: &Topology,
    mode: ExecutorMode,
    metrics: Option<&MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
) -> Box<dyn Executor> {
    match mode {
        ExecutorMode::Inline => {
            Box::new(InlineExecutor::with_instruments(topology, metrics, tracer))
        }
        ExecutorMode::Sharded(config) => Box::new(ShardedExecutor::spawn_traced(
            topology, config, metrics, tracer,
        )),
    }
}
