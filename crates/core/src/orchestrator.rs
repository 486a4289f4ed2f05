//! The NetAlytics orchestrator: the Fig. 1 pipeline end to end.
//!
//! Input query → SDN mirror rules + NFV monitor deployment + analytics
//! deployment → result interface. Queries run against the discrete-event
//! plane, so experiments are deterministic and the monitoring traffic's
//! bandwidth cost is observable on the emulated links.
//!
//! The control plane is self-healing: deployed monitors publish
//! heartbeats into their shared handles, and the [`Orchestrator`]'s
//! reconcile pass ([`Orchestrator::reconcile`]) re-runs placement for
//! any monitor whose host died or whose heartbeat went stale, reinstalls
//! the affected mirror rules, and re-points the aggregator's feedback
//! loop — recording `reconcile.recovery_time_ns` and
//! `reconcile.tuples_lost` into the self-telemetry registry.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

use netalytics_data::{DataTuple, TupleBatch};
use netalytics_monitor::{Monitor, MonitorConfig, MonitorError, SampleSpec};
use netalytics_netsim::{App, Engine, HostIdx, LinkSpec, Network, SimDuration, SimTime};
use netalytics_query::{compile, parse, CompileError, Deployment, Limit, ParseQueryError};
use netalytics_sdn::{FlowMatch, FlowRule, InstallMode, SdnController};
use netalytics_sketch::PreAggSpec;
use netalytics_store::{AggValue, HistoryAgg, HistoryQuery, ResultBackend, SeriesKey, StoreSink};
use netalytics_stream::{
    topologies, ExecutorMode, Subscription, SubscriptionHub, SubscriptionSink,
};
use netalytics_telemetry::{
    EventKind, Introspection, Journal, MetricsRegistry, QueryDirectory, QueryInfo,
    RegistrySnapshot, TelemetryServer, TraceConfig, Tracer,
};

use crate::admission::{
    AdmissionController, AdmissionError, ResourceDemand, Tenant, DEFAULT_TENANT,
};
use crate::nfv::{
    shared_executor_with, AggregatorApp, AggregatorHandle, MonitorApp, MonitorHandle,
    SharedExecutor,
};
use crate::results::ResultSet;

/// Errors surfaced by the orchestrator.
#[derive(Debug)]
pub enum OrchestratorError {
    /// The query text failed to parse.
    Parse(ParseQueryError),
    /// The query failed semantic validation.
    Compile(CompileError),
    /// No anchored endpoint resolved to a fabric host.
    NoMonitorableEndpoint,
    /// Not enough free hosts to deploy monitors/aggregators.
    NoFreeHost,
    /// An anchored FROM/TO endpoint resolved to a host that is
    /// currently failed — there is no traffic there to monitor.
    HostDown(HostIdx),
    /// The reconciler detected a failure it could not repair: either no
    /// live free host was available for re-placement, or the query's
    /// replacement budget ([`FailurePolicy::max_replacements`]) ran out.
    ReplacementFailed {
        /// Cookie of the affected query.
        cookie: u64,
        /// The dead host whose monitor needed replacing.
        host: HostIdx,
    },
    /// [`Orchestrator::await_recovery`] reached its deadline before the
    /// query healed.
    Timeout,
    /// The tenant's submission was refused by admission control.
    Admission(AdmissionError),
    /// A standing (continuous) query was submitted but the
    /// orchestrator has no results store to materialize windows into.
    NoResultStore,
}

impl fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestratorError::Parse(e) => write!(f, "query parse error: {e}"),
            OrchestratorError::Compile(e) => write!(f, "query compile error: {e}"),
            OrchestratorError::NoMonitorableEndpoint => {
                f.write_str("no FROM/TO endpoint maps to a fabric host")
            }
            OrchestratorError::NoFreeHost => {
                f.write_str("no free host available for NetAlytics processes")
            }
            OrchestratorError::HostDown(h) => {
                write!(f, "anchored endpoint host {h} is down")
            }
            OrchestratorError::ReplacementFailed { cookie, host } => {
                write!(
                    f,
                    "query {cookie}: could not re-place monitor of dead host {host}"
                )
            }
            OrchestratorError::Timeout => f.write_str("recovery deadline expired"),
            OrchestratorError::Admission(e) => write!(f, "admission refused: {e}"),
            OrchestratorError::NoResultStore => {
                f.write_str("standing queries require a results store")
            }
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<AdmissionError> for OrchestratorError {
    fn from(e: AdmissionError) -> Self {
        OrchestratorError::Admission(e)
    }
}

impl From<ParseQueryError> for OrchestratorError {
    fn from(e: ParseQueryError) -> Self {
        OrchestratorError::Parse(e)
    }
}

impl From<CompileError> for OrchestratorError {
    fn from(e: CompileError) -> Self {
        OrchestratorError::Compile(e)
    }
}

/// Reconciler policy: how aggressively the control loop declares death
/// and how much repair it is willing to do per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePolicy {
    /// Consecutive heartbeat intervals a monitor may miss before the
    /// reconciler declares it dead.
    pub miss_threshold: u32,
    /// Per-query budget of monitor/aggregator replacements; once spent,
    /// the next detection surfaces as
    /// [`OrchestratorError::ReplacementFailed`].
    pub max_replacements: u32,
    /// Whether aggregator-side drops trigger one step of sampling
    /// backoff on every monitor at the next reconcile pass (graceful
    /// degradation instead of silent loss).
    pub degrade_on_overload: bool,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            miss_threshold: 3,
            max_replacements: 8,
            degrade_on_overload: true,
        }
    }
}

/// Typed constructor for [`Orchestrator`]: topology plus the §3.4
/// control-plane knobs in one surface, replacing the old
/// `new(k, links)` + setter pattern.
///
/// # Examples
///
/// ```
/// use netalytics::{FailurePolicy, Orchestrator};
/// use netalytics_netsim::SimDuration;
/// use netalytics_sdn::InstallMode;
///
/// let orch = Orchestrator::builder(4)
///     .install_mode(InstallMode::Reactive)
///     .heartbeat_interval(SimDuration::from_millis(5))
///     .failure_policy(FailurePolicy { miss_threshold: 2, ..Default::default() })
///     .build();
/// assert_eq!(orch.engine().network().num_hosts(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct OrchestratorBuilder {
    k: u32,
    links: LinkSpec,
    install_mode: InstallMode,
    executor_mode: ExecutorMode,
    heartbeat_interval: SimDuration,
    policy: FailurePolicy,
    result_store: Option<Arc<dyn ResultBackend>>,
    monitor_preagg: bool,
    trace: Option<TraceConfig>,
    journal_capacity: usize,
    tenants: Vec<Tenant>,
    pod_range: Option<(u32, u32)>,
    cookie_base: u64,
    directory: Option<Arc<QueryDirectory>>,
    shared_journal: Option<Arc<Journal>>,
}

impl OrchestratorBuilder {
    fn new(k: u32) -> Self {
        OrchestratorBuilder {
            k,
            links: LinkSpec::default(),
            install_mode: InstallMode::Proactive,
            executor_mode: ExecutorMode::Inline,
            heartbeat_interval: SimDuration::from_millis(10),
            policy: FailurePolicy::default(),
            result_store: None,
            monitor_preagg: false,
            trace: None,
            journal_capacity: 1024,
            tenants: Vec::new(),
            pod_range: None,
            cookie_base: 0,
            directory: None,
            shared_journal: None,
        }
    }

    /// Link characteristics of the emulated fat-tree (default:
    /// [`LinkSpec::default`]).
    pub fn links(mut self, links: LinkSpec) -> Self {
        self.links = links;
        self
    }

    /// How queries install their mirror rules: proactive push (default)
    /// or reactive pull on the first table miss (§3.4).
    pub fn install_mode(mut self, mode: InstallMode) -> Self {
        self.install_mode = mode;
        self
    }

    /// Which analytics engine `PROCESS` topologies deploy on (default:
    /// deterministic inline).
    pub fn executor_mode(mut self, mode: ExecutorMode) -> Self {
        self.executor_mode = mode;
        self
    }

    /// Monitor flush/heartbeat cadence in virtual time (default 10 ms).
    /// Clamped to at least 1 ns.
    pub fn heartbeat_interval(mut self, interval: SimDuration) -> Self {
        self.heartbeat_interval = SimDuration::from_nanos(interval.as_nanos().max(1));
        self
    }

    /// Failure-detection and repair policy for the reconcile loop.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a durable results store. Every query submitted to this
    /// orchestrator gets a pass-through [`StoreSink`] appended to its
    /// analytics topology, committing output tuples as series keyed by
    /// `(query cookie, group key)`. The store is shared (`Arc`), held
    /// outside the per-query executors, so committed results survive
    /// `reconcile()` re-placements and — when opened on a directory —
    /// orchestrator restarts. Its `store.*` stats register into the
    /// root metrics registry at `build()`.
    pub fn result_store<S: ResultBackend + 'static>(mut self, store: Arc<S>) -> Self {
        self.result_store = Some(store);
        self
    }

    /// Like [`OrchestratorBuilder::result_store`], for a backend that is
    /// already type-erased (e.g. shared with a cluster coordinator).
    pub fn result_backend(mut self, store: Arc<dyn ResultBackend>) -> Self {
        self.result_store = Some(store);
        self
    }

    /// Restricts this orchestrator to pods `lo..=hi` of the fat-tree.
    /// Placement, failover and `reconcile()` only ever touch hosts in
    /// that range — the scale-out cluster gives each shard a disjoint
    /// pod range so shards never contend for the same hosts. Out of
    /// range values are clamped at deploy time by host availability
    /// (a host outside the range is simply never available).
    pub fn pod_range(mut self, lo: u32, hi: u32) -> Self {
        self.pod_range = Some((lo.min(hi), hi.max(lo)));
        self
    }

    /// Offsets this orchestrator's cookie sequence (first cookie is
    /// `base + 1`). Cluster shards use disjoint bases so cookies stay
    /// globally unique and encode their owning shard.
    pub fn cookie_base(mut self, base: u64) -> Self {
        self.cookie_base = base;
        self
    }

    /// Shares an externally owned query directory instead of creating a
    /// private one — cluster shards all publish into the coordinator's
    /// directory so `GET /queries` sees every shard's queries.
    pub fn directory(mut self, directory: Arc<QueryDirectory>) -> Self {
        self.directory = Some(directory);
        self
    }

    /// Shares an externally owned flight recorder instead of creating a
    /// private one, merging this orchestrator's control-plane events
    /// into the caller's journal (cluster shards share one).
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.shared_journal = Some(journal);
        self
    }

    /// Enables monitor-side pre-aggregation for sketch queries. When a
    /// submitted query's first `PROCESS` entry is `heavy-hitters`,
    /// `distinct` or `quantile`, each deployed monitor folds its parsed
    /// tuples into a matching mergeable sketch and ships one compact
    /// delta per flush instead of every raw tuple — cutting monitoring
    /// bandwidth by the fold factor while the stream layer merges the
    /// deltas back to the same answer. Off by default: raw tuples flow
    /// unchanged.
    pub fn monitor_preagg(mut self, enabled: bool) -> Self {
        self.monitor_preagg = enabled;
        self
    }

    /// Enables query-scoped tracing. Deployed monitors head-sample
    /// batches per `config` and stamp them with a trace context; the
    /// aggregator closes the `queue` and `bolt` stage spans on the
    /// virtual clock (the monitor records `parse`). Off by default —
    /// stamped batches carry a few extra bytes on the emulated fabric,
    /// so untraced runs stay byte-identical to previous behavior.
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Overrides the flight recorder's event capacity (default 1024).
    pub fn journal_capacity(mut self, events: usize) -> Self {
        self.journal_capacity = events;
        self
    }

    /// Registers a tenant with the admission controller. May be called
    /// repeatedly; an unlimited `"default"` tenant always exists, so
    /// single-tenant use needs no registration at all.
    pub fn tenant(mut self, tenant: Tenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Builds the orchestrator over a fresh k-ary fat-tree.
    pub fn build(self) -> Orchestrator {
        let mut engine = Engine::new(Network::fat_tree(self.k, self.links));
        // The controller serves the reactive packet-in path (§3.4:
        // rules are "either pulled on demand by switches when they see
        // new packets or proactively pushed").
        engine.set_controller(SdnController::new(), true);
        let metrics = Arc::new(MetricsRegistry::new());
        let journal = self
            .shared_journal
            .unwrap_or_else(|| Arc::new(Journal::new(self.journal_capacity)));
        if let Some(store) = &self.result_store {
            store.register_metrics(&metrics);
            store.attach_journal(Arc::clone(&journal));
        }
        let tracing_enabled = self.trace.is_some();
        let tracer = Arc::new(Tracer::with_registry(
            self.trace.unwrap_or_default(),
            Arc::clone(&metrics),
        ));
        let mut admission = AdmissionController::new();
        for tenant in self.tenants {
            admission.register(tenant);
        }
        Orchestrator {
            engine,
            hostnames: HashMap::new(),
            used_hosts: BTreeSet::new(),
            next_cookie: self.cookie_base + 1,
            pod_range: self.pod_range,
            install_mode: self.install_mode,
            executor_mode: self.executor_mode,
            heartbeat_interval: self.heartbeat_interval,
            policy: self.policy,
            metrics,
            result_store: self.result_store,
            monitor_preagg: self.monitor_preagg,
            tracer,
            tracing_enabled,
            journal,
            queries: self
                .directory
                .unwrap_or_else(|| Arc::new(QueryDirectory::new())),
            admission,
            registry: HashMap::new(),
            standing: BTreeMap::new(),
        }
    }
}

/// One deployed monitor of a running query: which rack it taps, where
/// it runs, and the handle the reconciler watches.
#[derive(Debug, Clone)]
pub struct MonitorSlot {
    /// Edge switch (rack) whose traffic this monitor taps.
    pub edge: u32,
    /// Host the monitor currently runs on.
    pub host: HostIdx,
    /// Shared state: heartbeat, stats, stop/retarget flags.
    pub handle: MonitorHandle,
    /// Virtual time this monitor (or its replacement) was deployed —
    /// heartbeats are only expected after `deployed_at`.
    pub deployed_at: SimTime,
}

/// A deployed, running query. Internal state behind [`QueryHandle`];
/// the orchestrator keeps one per live cookie in its registry.
pub struct RunningQuery {
    /// SDN cookie tagging this query's rules.
    pub cookie: u64,
    /// Virtual-time deadline, when the LIMIT is time-based.
    pub deadline: Option<SimTime>,
    /// Tenant the query was admitted under. (The resources charged
    /// against its quota live in the [`AdmissionController`].)
    pub tenant: String,
    /// Fan-out point for live result subscriptions.
    hub: Arc<SubscriptionHub>,
    executors: Vec<(String, SharedExecutor)>,
    /// Rows per processor the control pass has already taken out of the
    /// executors. `Some` only for a served query ([`Orchestrator::submit_with`]):
    /// its results live in the store and on the hub, so nothing reads
    /// them from the executor again. A library submit's executors keep
    /// every row for the [`ResultSet`] that `kill` returns.
    drained: Option<Vec<u64>>,
    monitors: Vec<MonitorSlot>,
    /// Handle to the aggregator.
    pub aggregator_handle: AggregatorHandle,
    /// Host running the aggregator + processors.
    pub aggregator_host: HostIdx,
    aggregator_ip: Ipv4Addr,
    // Everything the reconciler needs to re-run placement.
    parsers: Vec<String>,
    sample: SampleSpec,
    packet_limit: Option<u64>,
    preagg: Option<PreAggSpec>,
    match_edges: Vec<(FlowMatch, u32)>,
    replacements: u32,
    lost_seen: u64,
    dropped_seen: u64,
    /// Engine fault count at the last reconcile pass, so new faults can
    /// be journaled exactly once per query.
    faults_seen: u64,
}

impl RunningQuery {
    /// The query's monitor slots (rack, host, handle).
    pub fn monitors(&self) -> &[MonitorSlot] {
        &self.monitors
    }

    /// Hosts currently running this query's monitors.
    pub fn monitor_hosts(&self) -> Vec<HostIdx> {
        self.monitors.iter().map(|s| s.host).collect()
    }

    /// Handles to the deployed monitors.
    pub fn monitor_handles(&self) -> Vec<MonitorHandle> {
        self.monitors.iter().map(|s| s.handle.clone()).collect()
    }

    /// How many monitor/aggregator replacements the reconciler has
    /// performed for this query.
    pub fn replacements(&self) -> u32 {
        self.replacements
    }

    /// Served queries only: takes what the executors emitted since the
    /// last control pass out of them, keeping the per-processor count,
    /// so a long-lived query holds one pass's rows rather than all of
    /// them. Returns the rows taken.
    fn drain_outputs(&mut self) -> u64 {
        let Some(drained) = &mut self.drained else {
            return 0;
        };
        let mut rows = 0;
        for (n, (_, exec)) in drained.iter_mut().zip(&self.executors) {
            let polled = exec.borrow_mut().poll_output().len() as u64;
            *n += polled;
            rows += polled;
        }
        rows
    }
}

impl fmt::Debug for RunningQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunningQuery")
            .field("cookie", &self.cookie)
            .field("monitor_hosts", &self.monitor_hosts())
            .field("replacements", &self.replacements)
            .finish_non_exhaustive()
    }
}

/// A deployed query, by value: the handle [`Orchestrator::submit`]
/// returns. Cheap to clone; read paths (status, history, live
/// subscriptions) work directly on the handle, while engine operations
/// (reconcile, kill) go through the orchestrator with the handle as the
/// argument:
///
/// ```text
/// let q = orch.submit(src)?;          // QueryHandle
/// orch.run_reconciling(&q, deadline)?;
/// let live = q.subscribe();           // tap incremental results
/// let report = orch.kill(&q).unwrap();
/// let durable = q.history();          // survives the kill
/// ```
///
/// The handle stays valid after the query is killed: `status()` reports
/// the terminal state, `history()` still reads the durable store, and
/// `subscribe()` returns an immediately-ended stream.
#[derive(Clone)]
pub struct QueryHandle {
    cookie: u64,
    inner: Rc<RefCell<RunningQuery>>,
    directory: Arc<QueryDirectory>,
    store: Option<Arc<dyn ResultBackend>>,
    hub: Arc<SubscriptionHub>,
}

impl QueryHandle {
    /// The SDN cookie identifying this query everywhere: rules,
    /// directory, journal, store series and the HTTP API.
    pub fn cookie(&self) -> u64 {
        self.cookie
    }

    /// The query's virtual-time deadline, when its LIMIT is time-based.
    pub fn deadline(&self) -> Option<SimTime> {
        self.inner.borrow().deadline
    }

    /// The tenant the query was admitted under.
    pub fn tenant(&self) -> String {
        self.inner.borrow().tenant.clone()
    }

    /// The query's monitor slots (rack, host, handle) at this instant.
    pub fn monitors(&self) -> Vec<MonitorSlot> {
        self.inner.borrow().monitors.clone()
    }

    /// Hosts currently running this query's monitors.
    pub fn monitor_hosts(&self) -> Vec<HostIdx> {
        self.inner.borrow().monitor_hosts()
    }

    /// How many monitor/aggregator replacements the reconciler has
    /// performed for this query.
    pub fn replacements(&self) -> u32 {
        self.inner.borrow().replacements
    }

    /// Host currently running the query's aggregator + analytics.
    pub fn aggregator_host(&self) -> HostIdx {
        self.inner.borrow().aggregator_host
    }

    /// The directory's view of this query: lifecycle state, deployment
    /// shape, health, tenant.
    pub fn status(&self) -> Option<QueryInfo> {
        self.directory.get(self.cookie)
    }

    /// The durable history of this query from the attached results
    /// store: every committed output tuple still inside retention,
    /// across all group series. `None` when no store is attached or the
    /// store could not be read. Survives kill and failover.
    pub fn history(&self) -> Option<ResultSet> {
        let store = self.store.as_ref()?;
        store.query_history(self.cookie).ok().map(ResultSet::new)
    }

    /// Opens a live subscription to the query's incremental results.
    /// Tuples are shed (never buffered unboundedly) if this subscriber
    /// falls behind; the stream ends when the query is killed.
    pub fn subscribe(&self) -> Subscription {
        self.hub.subscribe()
    }

    /// The fan-out hub behind [`QueryHandle::subscribe`], for
    /// delivered/shed accounting.
    pub fn subscription_hub(&self) -> &Arc<SubscriptionHub> {
        &self.hub
    }
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle")
            .field("cookie", &self.cookie)
            .field("monitor_hosts", &self.monitor_hosts())
            .finish_non_exhaustive()
    }
}

/// Everything needed to (re)deploy one monitor of a query.
struct DeploySpec<'a> {
    cookie: u64,
    parsers: &'a [String],
    sample: SampleSpec,
    packet_limit: Option<u64>,
    preagg: Option<&'a PreAggSpec>,
    aggregator_ip: Ipv4Addr,
    match_edges: &'a [(FlowMatch, u32)],
}

/// What one [`Orchestrator::reconcile`] pass did.
#[derive(Debug, Clone, Default)]
pub struct ReconcileReport {
    /// `(old_host, new_host)` for every replacement performed.
    pub replaced: Vec<(HostIdx, HostIdx)>,
    /// Fabric tuples/packets newly charged to failures since the last
    /// pass (from the engine's `lost_to_failure` counter).
    pub tuples_lost: u64,
    /// Whether sampling backoff was pushed to the monitors this pass.
    pub degraded: bool,
}

/// What one [`Orchestrator::tick`] control pass did (summed across
/// shards by [`crate::Cluster::tick`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Monitors/aggregators re-placed onto fresh hosts.
    pub replaced: usize,
    /// Queries killed because their LIMIT deadline (plus grace) passed.
    pub deadline_kills: usize,
    /// Queries killed because reconcile could not repair them.
    pub unrepairable_kills: usize,
}

impl TickReport {
    pub(crate) fn absorb(&mut self, other: TickReport) {
        self.replaced += other.replaced;
        self.deadline_kills += other.deadline_kills;
        self.unrepairable_kills += other.unrepairable_kills;
    }
}

/// Results and statistics of a completed query.
#[derive(Debug)]
pub struct QueryReport {
    /// One result set per `PROCESS` entry, keyed by processor name.
    pub results: Vec<(String, ResultSet)>,
    /// Parallel to `results`: rows each processor emitted that the
    /// control pass had already drained before the kill, so are not in
    /// its result set. All zero unless the query was served through a
    /// frontend, where the store and the hub hold the results.
    pub drained: Vec<u64>,
    /// Final monitor traffic counters.
    pub monitor_stats: Vec<netalytics_monitor::MonitorStats>,
    /// Tuples into/processed/dropped at the aggregation layer.
    pub aggregator: crate::nfv::AggregatorShared,
}

impl QueryReport {
    /// The result set of the first (often only) processor.
    pub fn first(&self) -> &ResultSet {
        &self.results[0].1
    }
}

/// The NetAlytics control plane over an emulated data center.
///
/// # Examples
///
/// See the crate-level example and `examples/quickstart.rs`.
/// How many overdue windows one reconcile pass will evaluate per
/// standing query before skipping ahead. A query that falls further
/// behind (long partition, paused control loop) journals a
/// `standing_lagged` event and resumes at the catch-up horizon rather
/// than stalling the whole reconcile pass replaying history.
const STANDING_MAX_CATCHUP: u64 = 32;

/// Configuration of a standing (continuous) query: the window width
/// and the aggregate materialized each time a window closes.
#[derive(Clone, Debug)]
pub struct StandingConfig {
    /// Window width in virtual time; one aggregate row materializes per
    /// elapsed window. Must be positive.
    pub every: SimDuration,
    /// Tuple field the aggregate reads (e.g. `"count"`).
    pub field: String,
    /// The aggregate evaluated over each window.
    pub agg: HistoryAgg,
    /// Source series group within the query's output (`""` is the
    /// ungrouped series, where tuples without the group field land).
    pub group: String,
}

impl StandingConfig {
    /// Sums the `count` field of the ungrouped series every `every`.
    pub fn new(every: SimDuration) -> Self {
        StandingConfig {
            every,
            field: "count".into(),
            agg: HistoryAgg::Sum,
            group: String::new(),
        }
    }

    /// Replaces the aggregated field.
    pub fn field(mut self, field: impl Into<String>) -> Self {
        self.field = field.into();
        self
    }

    /// Replaces the aggregate.
    pub fn agg(mut self, agg: HistoryAgg) -> Self {
        self.agg = agg;
        self
    }

    /// Replaces the source series group.
    pub fn group(mut self, group: impl Into<String>) -> Self {
        self.group = group.into();
        self
    }
}

/// Reconciler-side state of one standing query.
struct StandingState {
    cfg: StandingConfig,
    /// Series the materialized window aggregates append to
    /// (`standing:<agg>:<field>[:<group>]` under the query's cookie).
    derived: SeriesKey,
    /// The owning query's hub, cloned at submit time so firing never
    /// needs the registry entry (reconcile may hold it borrowed).
    hub: Arc<SubscriptionHub>,
    /// Watermark: exclusive end of the next window to close. Advanced
    /// exactly once per window, so replays after failover resume here.
    next_window_end: u64,
    /// Windows materialized so far; doubles as the derived tuple id.
    windows_fired: u64,
    /// Overdue windows skipped by catch-up clamping, cumulative.
    windows_lagged: u64,
}

pub struct Orchestrator {
    engine: Engine,
    hostnames: HashMap<String, Ipv4Addr>,
    used_hosts: BTreeSet<HostIdx>,
    next_cookie: u64,
    /// When set, placement and failover only consider hosts whose edge
    /// switch lives in pods `lo..=hi` (cluster shard ownership).
    pod_range: Option<(u32, u32)>,
    install_mode: InstallMode,
    executor_mode: ExecutorMode,
    heartbeat_interval: SimDuration,
    policy: FailurePolicy,
    /// Root self-telemetry registry: every component the orchestrator
    /// deploys (monitors, aggregators, executors) publishes here.
    metrics: Arc<MetricsRegistry>,
    /// Optional durable results store shared by every query's sink.
    result_store: Option<Arc<dyn ResultBackend>>,
    /// Whether sketch queries push pre-aggregation into their monitors.
    monitor_preagg: bool,
    /// Query-scoped tracer. Always present so the introspection bundle
    /// has a stable identity; wired to monitors/aggregators only when
    /// `tracing_enabled` (see [`OrchestratorBuilder::tracing`]).
    tracer: Arc<Tracer>,
    tracing_enabled: bool,
    /// Flight recorder of control-plane events (query lifecycle,
    /// reconcile decisions, failovers, store segment churn).
    journal: Arc<Journal>,
    /// Directory of live and recently killed queries.
    queries: Arc<QueryDirectory>,
    /// Multi-tenant quota enforcement and eviction priorities.
    admission: AdmissionController,
    /// Live queries by cookie; entries leave on kill/eviction. Shares
    /// each query's state with the [`QueryHandle`]s given to callers.
    registry: HashMap<u64, Rc<RefCell<RunningQuery>>>,
    /// Standing (continuous) queries by cookie, evaluated by the
    /// reconcile pass; entries leave with their query on kill.
    standing: BTreeMap<u64, StandingState>,
}

impl fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orchestrator")
            .field("hosts", &self.engine.network().num_hosts())
            .field("used_hosts", &self.used_hosts.len())
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// Starts configuring an orchestrator over a k-ary fat-tree.
    pub fn builder(k: u32) -> OrchestratorBuilder {
        OrchestratorBuilder::new(k)
    }

    /// The root metrics registry all deployed components publish into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The query-scoped tracer. Only populated with span waterfalls
    /// when the orchestrator was built with
    /// [`OrchestratorBuilder::tracing`].
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The flight recorder journaling control-plane events.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The directory of live and recently killed queries.
    pub fn query_directory(&self) -> &Arc<QueryDirectory> {
        &self.queries
    }

    /// Everything the introspection server exposes, bundled: the
    /// metrics registry, tracer, journal and query directory.
    pub fn introspection(&self) -> Introspection {
        Introspection {
            registry: Arc::clone(&self.metrics),
            tracer: Arc::clone(&self.tracer),
            journal: Arc::clone(&self.journal),
            queries: Arc::clone(&self.queries),
        }
    }

    /// Binds `addr` (port 0 for ephemeral) and serves the live
    /// introspection endpoints — `/metrics`, `/metrics.json`,
    /// `/queries`, `/queries/{cookie}`, `/trace/{cookie}` and
    /// `/events` — until the returned server is dropped.
    ///
    /// # Errors
    ///
    /// Bind/listen failures.
    pub fn serve(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<TelemetryServer> {
        TelemetryServer::spawn(addr, self.introspection())
    }

    /// The tracer to wire into deployed components, when tracing is on.
    fn trace_handle(&self) -> Option<Arc<Tracer>> {
        self.tracing_enabled.then(|| Arc::clone(&self.tracer))
    }

    /// The attached durable results store, if one was configured via
    /// [`OrchestratorBuilder::result_store`].
    pub fn result_store(&self) -> Option<&Arc<dyn ResultBackend>> {
        self.result_store.as_ref()
    }

    /// Scrapes the layers that export on demand (the netsim engine's
    /// fabric counters) and returns a point-in-time snapshot of every
    /// metric in the registry — monitor, queue (aggregator), stream and
    /// netsim series, the end-to-end tuple latency histogram, and the
    /// reconciler's `reconcile.*` recovery series.
    pub fn telemetry_report(&self) -> RegistrySnapshot {
        let stats = self.engine.stats();
        let pairs: [(&str, u64); 7] = [
            ("netsim.delivered", stats.delivered),
            ("netsim.dropped", stats.dropped),
            ("netsim.mirrored", stats.mirrored),
            ("netsim.events", stats.events),
            ("netsim.packet_ins", stats.packet_ins),
            ("netsim.faults", stats.faults),
            ("netsim.lost_to_failure", stats.lost_to_failure),
        ];
        for (name, v) in pairs {
            self.metrics.gauge(name, &[]).set(v as i64);
        }
        self.metrics.snapshot()
    }

    /// The monitor heartbeat/flush cadence queries are deployed with.
    pub fn heartbeat_interval(&self) -> SimDuration {
        self.heartbeat_interval
    }

    /// The reconciler's failure policy.
    pub fn failure_policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Access to the underlying engine (topology, stats, clock).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (e.g. to inject faults or reset counters).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The IPv4 address of fabric host `h`.
    pub fn host_ip(&self, h: HostIdx) -> Ipv4Addr {
        self.engine.network().host_ip(h)
    }

    /// Registers `name` → host `h` in the IP-to-host mapping table used
    /// by query `FROM`/`TO` hostnames.
    pub fn name_host(&mut self, name: impl Into<String>, h: HostIdx) {
        let ip = self.host_ip(h);
        self.hostnames.insert(name.into(), ip);
    }

    /// Deploys a workload application on host `h`, marking it busy so
    /// NetAlytics processes avoid it.
    pub fn deploy_app(&mut self, h: HostIdx, app: Box<dyn App>) {
        self.used_hosts.insert(h);
        self.engine.set_app(h, app);
    }

    /// Runs the emulation until `deadline` with no reconcile passes.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.engine.run_until(deadline);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The staleness window: a monitor whose last heartbeat is older
    /// than this is declared dead.
    fn heartbeat_window(&self) -> SimDuration {
        self.heartbeat_interval
            .saturating_mul(u64::from(self.policy.miss_threshold.max(1)))
    }

    fn anchored_hosts(&self, m: &FlowMatch) -> Vec<HostIdx> {
        let mut out = Vec::new();
        for mask in [m.dst_ip, m.src_ip].into_iter().flatten() {
            if mask.prefix() == 32 {
                if let Some(h) = self.engine.network().host_of_ip(mask.addr()) {
                    out.push(h);
                }
            }
        }
        out
    }

    /// Whether this orchestrator owns `pod` (always true without a
    /// configured pod range).
    pub fn owns_pod(&self, pod: u32) -> bool {
        self.pod_range
            .is_none_or(|(lo, hi)| (lo..=hi).contains(&pod))
    }

    /// The pod range this orchestrator is restricted to, if any.
    pub fn pod_range(&self) -> Option<(u32, u32)> {
        self.pod_range
    }

    fn host_available(&self, h: HostIdx) -> bool {
        if self.used_hosts.contains(&h) || !self.engine.host_is_up(h) {
            return false;
        }
        let tree = self.engine.network().tree();
        self.owns_pod(tree.pod_of_edge(tree.edge_of_host(h)))
    }

    fn free_host_under(&self, edge: u32) -> Option<HostIdx> {
        self.engine
            .network()
            .tree()
            .hosts_of_edge(edge)
            .find(|&h| self.host_available(h))
    }

    fn any_free_host_preferring_pod(&self, pod: u32) -> Option<HostIdx> {
        let tree = *self.engine.network().tree();
        tree.edges_of_pod(pod)
            .flat_map(|e| tree.hosts_of_edge(e))
            .find(|&h| self.host_available(h))
            .or_else(|| (0..tree.num_hosts()).find(|&h| self.host_available(h)))
    }

    /// Builds a monitor instance from a query's validated parser set.
    fn build_monitor(
        &self,
        parsers: &[String],
        sample: SampleSpec,
        preagg: Option<&PreAggSpec>,
    ) -> Result<Monitor, OrchestratorError> {
        Monitor::new(MonitorConfig {
            parsers: parsers.to_vec(),
            sample,
            batch_size: 64,
            preagg: preagg.cloned(),
        })
        .map_err(|e| match e {
            MonitorError::UnknownParser(p) => {
                OrchestratorError::Compile(CompileError::UnknownParser(p))
            }
            MonitorError::NoParsers => OrchestratorError::Compile(CompileError::BadProcessor(
                "query names no parsers".into(),
            )),
        })
    }

    /// Installs both-direction mirror rules for every match anchored at
    /// `edge`, targeting `host`, honoring the install mode.
    fn install_mirrors(
        &mut self,
        edge: u32,
        host: HostIdx,
        cookie: u64,
        match_edges: &[(FlowMatch, u32)],
    ) {
        let sw = self.engine.edge_switch_id(edge);
        for (m, m_edge) in match_edges {
            if *m_edge != edge {
                continue;
            }
            // Monitor both directions of each matched flow: the forward
            // match plus its reverse, so responses and FINs from the
            // anchored endpoint reach the parsers too.
            for mm in [*m, m.reversed()] {
                let rule = FlowRule::mirror(mm, host, cookie).with_priority(100);
                match self.install_mode {
                    InstallMode::Proactive => {
                        // Record in the controller's desired state and
                        // push straight into the switch table.
                        if let Some(ctl) = self.engine.controller_mut() {
                            ctl.install(sw, rule.clone(), InstallMode::Reactive);
                        }
                        self.engine.install_rule(sw, rule);
                    }
                    InstallMode::Reactive => {
                        // Desired state only; the switch pulls on its
                        // first matching table miss (packet-in).
                        if let Some(ctl) = self.engine.controller_mut() {
                            ctl.install(sw, rule, InstallMode::Reactive);
                        }
                    }
                }
            }
        }
    }

    /// Deploys one monitor on `host` for rack `edge` per `spec` and
    /// wires its mirror rules; returns the handle.
    fn deploy_monitor(
        &mut self,
        edge: u32,
        host: HostIdx,
        spec: &DeploySpec<'_>,
    ) -> Result<MonitorHandle, OrchestratorError> {
        let mut monitor = self.build_monitor(spec.parsers, spec.sample, spec.preagg)?;
        if let Some(tracer) = self.trace_handle() {
            monitor.set_tracing(spec.cookie, tracer);
        }
        let app = MonitorApp::new(monitor, spec.aggregator_ip, spec.packet_limit)
            .with_telemetry(self.metrics.clone(), format!("host{host}"))
            .with_batch_interval(self.heartbeat_interval);
        let handle = app.handle();
        self.engine.set_app(host, Box::new(app));
        self.install_mirrors(edge, host, spec.cookie, spec.match_edges);
        Ok(handle)
    }

    /// Compiles and deploys a query under the `"default"` tenant: SDN
    /// mirror rules at every covering ToR, one NFV monitor per covered
    /// rack, and an aggregator feeding one inline analytics executor
    /// per `PROCESS` entry.
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError`] on parse/compile failures, if an
    /// anchored endpoint's host is down, or if the fabric lacks free
    /// hosts.
    pub fn submit(&mut self, query_src: &str) -> Result<QueryHandle, OrchestratorError> {
        self.submit_as(DEFAULT_TENANT, query_src)
    }

    /// Like [`Orchestrator::submit`], but on behalf of a named tenant:
    /// the submission is checked against the tenant's quota first, and
    /// when placement finds no free host, a strictly lower-priority
    /// running query may be evicted to make room.
    ///
    /// # Errors
    ///
    /// Everything [`Orchestrator::submit`] returns, plus
    /// [`OrchestratorError::Admission`] when the tenant is unknown or
    /// over quota.
    pub fn submit_as(
        &mut self,
        tenant: &str,
        query_src: &str,
    ) -> Result<QueryHandle, OrchestratorError> {
        let query = parse(query_src)?;
        let deployment: Deployment = compile(&query, &self.hostnames)?;
        // Each match is monitored at exactly ONE covering ToR (paper
        // Algorithm 1 assigns every flow to a single monitor; mirroring
        // the same flow at two ToRs would duplicate every event). We
        // anchor at the match's first resolved endpoint.
        let mut match_edges = Vec::new();
        let mut edges = BTreeSet::new();
        for m in &deployment.matches {
            let Some(&h) = self.anchored_hosts(m).first() else {
                continue;
            };
            if !self.engine.host_is_up(h) {
                return Err(OrchestratorError::HostDown(h));
            }
            let edge = self.engine.network().tree().edge_of_host(h);
            edges.insert(edge);
            match_edges.push((*m, edge));
        }
        if edges.is_empty() {
            return Err(OrchestratorError::NoMonitorableEndpoint);
        }

        // Admission: one monitor core per covered rack; two mirror
        // rules (forward + reverse) per anchored match.
        let demand = ResourceDemand {
            monitor_cores: edges.len() as u32,
            mirror_rules: 2 * match_edges.len() as u32,
        };
        if let Err(e) = self.admission.admit(tenant, demand) {
            self.journal.record(
                self.engine.now().as_nanos(),
                None,
                EventKind::AdmissionRejected,
                format!("tenant \"{tenant}\": {e}"),
            );
            self.metrics.counter("admission.rejected", &[]).inc();
            return Err(OrchestratorError::Admission(e));
        }

        // Analytics executors, one per PROCESS entry, built before any
        // hosts are claimed so a bad processor leaks nothing. With a
        // results store attached, each topology gets a pass-through
        // StoreSink appended after its terminals, committing the
        // query's output as series keyed by (cookie, group key); the
        // SubscriptionSink after it taps the same stream for live
        // `/stream` subscribers.
        let cookie = self.next_cookie;
        let hub = Arc::new(SubscriptionHub::new());
        let mut executors = Vec::new();
        // What the monitors pre-aggregate under: the catalog's own spec
        // of the query's first sketch-backed processor.
        let mut preagg = None;
        for spec in &deployment.processors {
            let bad_processor = |e: topologies::CatalogError| {
                OrchestratorError::Compile(CompileError::BadProcessor(e.to_string()))
            };
            let mut topo =
                topologies::build_with(spec, Some(&self.metrics)).map_err(bad_processor)?;
            if self.monitor_preagg && preagg.is_none() {
                preagg = topologies::sketch_spec(spec).map_err(bad_processor)?;
            }
            if let Some(store) = &self.result_store {
                let store = store.clone();
                let group_field = spec
                    .arg("group")
                    .or_else(|| spec.arg("key"))
                    .map(str::to_string);
                topo = topo.with_sink("store-sink", move || {
                    Box::new(StoreSink::over(store.clone(), cookie, group_field.clone()))
                });
            }
            let sub_hub = Arc::clone(&hub);
            topo = topo.with_sink("subscribe-sink", move || {
                Box::new(SubscriptionSink::new(Arc::clone(&sub_hub)))
            });
            executors.push((
                spec.name.clone(),
                shared_executor_with(&topo, self.executor_mode, Some(&self.metrics)),
            ));
        }

        // Placement, with one priority-eviction retry: if the fabric is
        // full and some running query has strictly lower priority than
        // this tenant, kill it and try again.
        let (monitor_hosts, aggregator_host) = match self.place(&edges) {
            Ok(p) => p,
            Err(OrchestratorError::NoFreeHost) => {
                let arriving = self
                    .admission
                    .tenant(tenant)
                    .map(|t| t.priority)
                    .unwrap_or(0);
                let victim = self
                    .admission
                    .eviction_candidate(arriving)
                    .ok_or(OrchestratorError::NoFreeHost)?;
                self.evict(victim, tenant);
                self.place(&edges)?
            }
            Err(e) => return Err(e),
        };
        let aggregator_ip = self.host_ip(aggregator_host);

        self.next_cookie += 1;
        let now_ns = self.engine.now().as_nanos();
        self.queries
            .submitted_for(cookie, query_src, tenant, now_ns);
        self.journal.record(
            now_ns,
            Some(cookie),
            EventKind::QuerySubmitted,
            format!(
                "tenant \"{tenant}\": {} match(es) over {} rack(s), {} processor(s)",
                match_edges.len(),
                edges.len(),
                deployment.processors.len()
            ),
        );

        // Deploy monitors and mirror rules.
        let packet_limit = match deployment.limit {
            Limit::Packets(n) => Some(n),
            Limit::Time(_) => None,
        };
        let now = self.engine.now();
        let mut monitors = Vec::new();
        let mut monitor_ips = Vec::new();
        let spec = DeploySpec {
            cookie,
            parsers: &deployment.parsers,
            sample: deployment.sample,
            packet_limit,
            preagg: preagg.as_ref(),
            aggregator_ip,
            match_edges: &match_edges,
        };
        for &(edge, host) in &monitor_hosts {
            let handle = self.deploy_monitor(edge, host, &spec)?;
            monitor_ips.push(self.host_ip(host));
            monitors.push(MonitorSlot {
                edge,
                host,
                handle,
                deployed_at: now,
            });
        }
        let mut agg = AggregatorApp::with_executors(
            executors.iter().map(|(_, e)| e.clone()).collect(),
            monitor_ips,
            100_000,
            10_000,
        )
        .with_telemetry(&self.metrics);
        if let Some(tracer) = self.trace_handle() {
            agg = agg.with_tracer(tracer);
        }
        let aggregator_handle = agg.handle();
        self.engine.set_app(aggregator_host, Box::new(agg));

        self.queries.deployed(
            cookie,
            monitors.len(),
            &format!("host{aggregator_host}"),
            now.as_nanos(),
        );
        self.journal.record(
            now.as_nanos(),
            Some(cookie),
            EventKind::QueryDeployed,
            format!(
                "{} monitor(s), aggregator on host{aggregator_host}",
                monitors.len()
            ),
        );

        let deadline = match deployment.limit {
            Limit::Time(ns) => Some(self.engine.now() + SimDuration::from_nanos(ns)),
            Limit::Packets(_) => None,
        };
        self.admission.charge(cookie, tenant, demand);
        self.metrics.counter("admission.admitted", &[]).inc();
        let inner = Rc::new(RefCell::new(RunningQuery {
            cookie,
            deadline,
            tenant: tenant.to_string(),
            hub: Arc::clone(&hub),
            executors,
            drained: None,
            monitors,
            aggregator_handle,
            aggregator_host,
            aggregator_ip,
            parsers: deployment.parsers,
            sample: deployment.sample,
            packet_limit,
            preagg,
            match_edges,
            replacements: 0,
            lost_seen: self.engine.stats().lost_to_failure,
            dropped_seen: 0,
            faults_seen: self.engine.stats().faults,
        }));
        self.registry.insert(cookie, Rc::clone(&inner));
        Ok(QueryHandle {
            cookie,
            inner,
            directory: Arc::clone(&self.queries),
            store: self.result_store.clone(),
            hub,
        })
    }

    /// [`Orchestrator::submit_standing_as`] under the default tenant.
    pub fn submit_standing(
        &mut self,
        query_src: &str,
        cfg: StandingConfig,
    ) -> Result<QueryHandle, OrchestratorError> {
        self.submit_standing_as(DEFAULT_TENANT, query_src, cfg)
    }

    /// [`Orchestrator::submit_as`] plus a continuous evaluation
    /// schedule: each time `cfg.every` of virtual time elapses, the
    /// reconcile pass aggregates the query's persisted output over the
    /// just-closed window ([`netalytics_store::TimeSeriesStore::history`], so closed
    /// windows are served from rollups/sketches, not raw replay) and
    /// materializes one result tuple back into the store under the
    /// derived series `standing:<agg>:<field>[:<group>]`. Each firing
    /// is also published to the query's subscribers and journaled as
    /// `standing_fired`. Evaluation is watermark-driven: it needs no
    /// live subscriber, and a reconciler that restarts resumes at the
    /// first window the previous incarnation did not materialize.
    pub fn submit_standing_as(
        &mut self,
        tenant: &str,
        query_src: &str,
        cfg: StandingConfig,
    ) -> Result<QueryHandle, OrchestratorError> {
        if self.result_store.is_none() {
            return Err(OrchestratorError::NoResultStore);
        }
        let every = cfg.every.as_nanos();
        assert!(every > 0, "standing interval must be positive");
        let handle = self.submit_as(tenant, query_src)?;
        let cookie = handle.cookie();
        let mut group = format!("standing:{}:{}", cfg.agg.name(), cfg.field);
        if !cfg.group.is_empty() {
            group.push(':');
            group.push_str(&cfg.group);
        }
        // First window closes at the next interval boundary, so two
        // standing queries with the same interval fire in lockstep.
        let now = self.engine.now().as_nanos();
        let next_window_end = now - now % every + every;
        self.standing.insert(
            cookie,
            StandingState {
                derived: SeriesKey::new(cookie, group),
                hub: Arc::clone(&handle.hub),
                cfg,
                next_window_end,
                windows_fired: 0,
                windows_lagged: 0,
            },
        );
        self.queries
            .standing_progress(cookie, next_window_end, 0, 0);
        self.metrics.counter("standing.registered", &[]).inc();
        Ok(handle)
    }

    /// Submit as the frontends' mailbox carries it — plain or standing —
    /// returning what crosses threads: the cookie and the live hub. The
    /// caller holds no handle to read results from, so
    /// [`Orchestrator::tick`] drains this query's executors every pass.
    pub(crate) fn submit_with(
        &mut self,
        tenant: &str,
        query_src: &str,
        standing: Option<StandingConfig>,
    ) -> Result<(u64, Arc<SubscriptionHub>), OrchestratorError> {
        let handle = match standing {
            Some(cfg) => self.submit_standing_as(tenant, query_src, cfg),
            None => self.submit_as(tenant, query_src),
        }?;
        let mut q = handle.inner.borrow_mut();
        q.drained = Some(vec![0; q.executors.len()]);
        drop(q);
        Ok((handle.cookie, handle.hub))
    }

    /// The derived series a query's standing aggregates materialize
    /// into, if the query is standing.
    pub fn standing_series(&self, cookie: u64) -> Option<SeriesKey> {
        self.standing.get(&cookie).map(|st| st.derived.clone())
    }

    /// Evaluates every due standing-query window. Called once at the end
    /// of each control pass; watermark-driven and idempotent, so each
    /// window is materialized exactly once no matter how many queries
    /// are reconciled per tick or how late a pass runs (bounded by
    /// [`STANDING_MAX_CATCHUP`]).
    fn poll_standing(&mut self) {
        let Some(store) = self.result_store.clone() else {
            return;
        };
        let journal = Arc::clone(&self.journal);
        let metrics = Arc::clone(&self.metrics);
        let queries = Arc::clone(&self.queries);
        let now = self.engine.now().as_nanos();
        for (&cookie, st) in self.standing.iter_mut() {
            let every = st.cfg.every.as_nanos();
            if now < st.next_window_end {
                continue;
            }
            let pending = (now - st.next_window_end) / every + 1;
            if pending > STANDING_MAX_CATCHUP {
                let skipped = pending - STANDING_MAX_CATCHUP;
                st.next_window_end += skipped * every;
                st.windows_lagged += skipped;
                journal.record(
                    now,
                    Some(cookie),
                    EventKind::StandingLagged,
                    format!("skipped {skipped} overdue window(s) to catch up"),
                );
                metrics.counter("standing.lagged", &[]).add(skipped);
            }
            while st.next_window_end <= now {
                let w1 = st.next_window_end;
                let w0 = w1 - every;
                st.next_window_end += every;
                let query = HistoryQuery::new(
                    SeriesKey::new(cookie, st.cfg.group.clone()),
                    st.cfg.field.clone(),
                    w0,
                    w1 - 1,
                    st.cfg.agg.clone(),
                );
                let ans = match store.history(&query) {
                    Ok(a) => a,
                    Err(_) => {
                        // An unreadable window is a store fault, not a
                        // control-loop fault; skip it and keep going.
                        metrics.counter("standing.errors", &[]).inc();
                        continue;
                    }
                };
                // Every window materializes — including empty ones —
                // so the derived series is a gap-free cadence readers
                // can difference without tracking the schedule.
                let mut tuple = DataTuple::new(st.windows_fired, w1)
                    .from_source("standing")
                    .with("window_start", w0)
                    .with("window_end", w1)
                    .with("agg", st.cfg.agg.name())
                    .with("field", st.cfg.field.as_str())
                    .with("count", ans.count);
                if let Some(v) = ans.value.scalar() {
                    tuple = tuple.with("value", v);
                }
                if let AggValue::TopK(top) = &ans.value {
                    let rendered = top
                        .iter()
                        .map(|(k, n)| format!("{k}={n}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    tuple = tuple.with("top", rendered);
                }
                st.windows_fired += 1;
                let batch = TupleBatch::from_tuples(vec![tuple.clone()]);
                if store.append(&st.derived, &batch).is_err() {
                    store.note_append_error();
                    continue;
                }
                st.hub.publish(&tuple);
                journal.record(
                    w1,
                    Some(cookie),
                    EventKind::StandingFired,
                    format!(
                        "window [{w0}, {w1}) {}({}) count={}",
                        st.cfg.agg.name(),
                        st.cfg.field,
                        ans.count
                    ),
                );
                metrics.counter("standing.fired", &[]).inc();
                metrics.counter("standing.materialized", &[]).inc();
            }
            queries.standing_progress(
                cookie,
                st.next_window_end,
                st.windows_fired,
                st.windows_lagged,
            );
        }
    }

    /// Claims one free host per covered rack plus an aggregator host
    /// near the first monitor. On failure every claim made by THIS call
    /// is rolled back, so an eviction retry starts from clean state.
    fn place(
        &mut self,
        edges: &BTreeSet<u32>,
    ) -> Result<(Vec<(u32, HostIdx)>, HostIdx), OrchestratorError> {
        fn rollback(orch: &mut Orchestrator, claimed: &[HostIdx]) {
            for h in claimed {
                orch.used_hosts.remove(h);
            }
        }
        let mut claimed = Vec::new();
        let mut monitor_hosts = Vec::new();
        for &edge in edges {
            let pod = self.engine.network().tree().pod_of_edge(edge);
            match self
                .free_host_under(edge)
                .or_else(|| self.any_free_host_preferring_pod(pod))
            {
                Some(host) => {
                    self.used_hosts.insert(host);
                    claimed.push(host);
                    monitor_hosts.push((edge, host));
                }
                None => {
                    rollback(self, &claimed);
                    return Err(OrchestratorError::NoFreeHost);
                }
            }
        }
        let agg_pod = self.engine.network().tree().pod_of_edge(monitor_hosts[0].0);
        match self.any_free_host_preferring_pod(agg_pod) {
            Some(host) => {
                self.used_hosts.insert(host);
                Ok((monitor_hosts, host))
            }
            None => {
                rollback(self, &claimed);
                Err(OrchestratorError::NoFreeHost)
            }
        }
    }

    /// Kills `victim` to make room for a higher-priority submission.
    fn evict(&mut self, victim: u64, for_tenant: &str) {
        let Some(rc) = self.registry.remove(&victim) else {
            return;
        };
        let victim_tenant = rc.borrow().tenant.clone();
        self.journal.record(
            self.engine.now().as_nanos(),
            Some(victim),
            EventKind::QueryEvicted,
            format!(
                "tenant \"{victim_tenant}\" query evicted for \
                 higher-priority \"{for_tenant}\" submission"
            ),
        );
        self.metrics.counter("admission.evictions", &[]).inc();
        let mut q = rc.borrow_mut();
        let _ = self.kill_inner(&mut q);
    }

    /// One pass of the self-healing control loop: declares dead any
    /// monitor whose host failed or whose heartbeat went stale beyond
    /// [`FailurePolicy::miss_threshold`] intervals, re-runs placement
    /// for it (fresh monitor on a live free host, mirror rules
    /// reinstalled under the same cookie, aggregator feedback
    /// re-pointed), fails over the aggregator if its host died, and —
    /// when enabled — pushes sampling backoff to the monitors after
    /// aggregator drops. Records `reconcile.recovery_time_ns`,
    /// `reconcile.tuples_lost`, `reconcile.replacements` and
    /// `reconcile.degradations` into the telemetry registry.
    ///
    /// A handle may outlive its query (killed, or evicted behind the
    /// holder's back): reconciling one is a no-op that repairs, claims
    /// and records nothing.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::ReplacementFailed`] when a detected failure
    /// cannot be repaired (no live free host, or the query's
    /// replacement budget ran out).
    pub fn reconcile(&mut self, q: &QueryHandle) -> Result<ReconcileReport, OrchestratorError> {
        if !self.registry.contains_key(&q.cookie) {
            return Ok(ReconcileReport::default());
        }
        let report = self.repair(q)?;
        self.housekeeping();
        Ok(report)
    }

    /// The per-query half of a reconcile pass: detect and repair, then
    /// publish the health verdict into the directory so
    /// `/queries/{cookie}` reflects it without further engine access.
    fn repair(&mut self, q: &QueryHandle) -> Result<ReconcileReport, OrchestratorError> {
        let report = {
            let mut inner = q.inner.borrow_mut();
            self.reconcile_inner(&mut inner)
        };
        let healthy = self.query_is_healthy(q);
        self.queries
            .set_health(q.cookie, healthy, self.engine.now().as_nanos());
        report
    }

    /// The per-pass half, run once however many queries were repaired:
    /// let the results store enforce retention and fold expired segments
    /// into rollups (compaction failures are not repair failures — the
    /// store records them in its own stats — so they never abort the
    /// control loop), then close and materialize the standing-query
    /// windows that elapsed since the previous pass.
    fn housekeeping(&mut self) {
        if let Some(store) = &self.result_store {
            let _ = store.compact(self.engine.now().as_nanos());
        }
        self.poll_standing();
    }

    fn reconcile_inner(
        &mut self,
        q: &mut RunningQuery,
    ) -> Result<ReconcileReport, OrchestratorError> {
        let mut report = ReconcileReport::default();
        let now = self.engine.now();
        let window = self.heartbeat_window();
        // Journal fabric faults fired since the last pass — the "kill"
        // entry that precedes any detection/re-placement records below.
        let faults_total = self.engine.stats().faults;
        if faults_total > q.faults_seen {
            let delta = faults_total - q.faults_seen;
            q.faults_seen = faults_total;
            self.journal.record(
                now.as_nanos(),
                Some(q.cookie),
                EventKind::ReconcileDecision,
                format!("fault: {delta} fabric fault(s) fired since last pass"),
            );
        }
        // Charge fabric losses since the last pass to this query. The
        // counter is touched unconditionally so the series exists in
        // every telemetry report once the reconciler is running.
        let lost_counter = self.metrics.counter("reconcile.tuples_lost", &[]);
        let lost_total = self.engine.stats().lost_to_failure;
        if lost_total > q.lost_seen {
            let delta = lost_total - q.lost_seen;
            q.lost_seen = lost_total;
            report.tuples_lost = delta;
            lost_counter.add(delta);
        }
        // Monitor replacement.
        for i in 0..q.monitors.len() {
            let (edge, old, handle, deployed_at) = {
                let s = &q.monitors[i];
                (s.edge, s.host, s.handle.clone(), s.deployed_at)
            };
            let (stopped, beat) = {
                let sh = handle.borrow();
                (sh.stopped, sh.last_heartbeat)
            };
            if stopped {
                continue;
            }
            let last_seen = beat.max(deployed_at);
            let stale = now - last_seen > window;
            if self.engine.host_is_up(old) && !stale {
                continue;
            }
            let cause = if self.engine.host_is_up(old) {
                "heartbeat stale"
            } else {
                "host down"
            };
            self.journal.record(
                now.as_nanos(),
                Some(q.cookie),
                EventKind::ReconcileDecision,
                format!("monitor on host{old} declared dead ({cause})"),
            );
            if q.replacements >= self.policy.max_replacements {
                return Err(OrchestratorError::ReplacementFailed {
                    cookie: q.cookie,
                    host: old,
                });
            }
            // Retire what is left of the old monitor: stop and undeploy
            // it (a stale process on a live host may still be ticking,
            // and its pending timers would fire on the host's next
            // tenant), purge its mirror rules from the data plane AND
            // the controller's desired state (so reactive pulls cannot
            // resurrect them).
            handle.borrow_mut().stopped = true;
            self.engine.clear_app(old);
            self.engine.remove_mirrors_to(old);
            if let Some(ctl) = self.engine.controller_mut() {
                ctl.remove_mirrors_to(old);
            }
            self.used_hosts.remove(&old);
            // Re-run placement for this rack.
            let pod = self.engine.network().tree().pod_of_edge(edge);
            let host = self
                .free_host_under(edge)
                .or_else(|| self.any_free_host_preferring_pod(pod))
                .ok_or(OrchestratorError::ReplacementFailed {
                    cookie: q.cookie,
                    host: old,
                })?;
            self.used_hosts.insert(host);
            let spec = DeploySpec {
                cookie: q.cookie,
                parsers: &q.parsers,
                sample: q.sample,
                packet_limit: q.packet_limit,
                preagg: q.preagg.as_ref(),
                aggregator_ip: q.aggregator_ip,
                match_edges: &q.match_edges,
            };
            let new_handle = self.deploy_monitor(edge, host, &spec)?;
            q.monitors[i] = MonitorSlot {
                edge,
                host,
                handle: new_handle,
                deployed_at: now,
            };
            q.replacements += 1;
            // Point the aggregator's feedback loop at the new fleet.
            let ips: Vec<_> = q.monitors.iter().map(|s| self.host_ip(s.host)).collect();
            q.aggregator_handle.borrow_mut().retarget_monitors = Some(ips);
            self.journal.record(
                now.as_nanos(),
                Some(q.cookie),
                EventKind::Failover,
                format!("monitor re-placed: host{old} -> host{host}"),
            );
            self.queries.replaced(q.cookie, None, now.as_nanos());
            self.metrics.counter("reconcile.replacements", &[]).inc();
            self.metrics
                .histogram("reconcile.recovery_time_ns", &[])
                .record((now - last_seen).as_nanos());
            report.replaced.push((old, host));
        }
        // Aggregator failover.
        if !self.engine.host_is_up(q.aggregator_host) {
            self.journal.record(
                now.as_nanos(),
                Some(q.cookie),
                EventKind::ReconcileDecision,
                format!(
                    "aggregator on host{} declared dead (host down)",
                    q.aggregator_host
                ),
            );
            if q.replacements >= self.policy.max_replacements {
                return Err(OrchestratorError::ReplacementFailed {
                    cookie: q.cookie,
                    host: q.aggregator_host,
                });
            }
            let old = q.aggregator_host;
            self.used_hosts.remove(&old);
            let tree = *self.engine.network().tree();
            let host = self
                .any_free_host_preferring_pod(tree.pod_of_edge(tree.edge_of_host(old)))
                .ok_or(OrchestratorError::ReplacementFailed {
                    cookie: q.cookie,
                    host: old,
                })?;
            self.used_hosts.insert(host);
            let ips: Vec<_> = q.monitors.iter().map(|s| self.host_ip(s.host)).collect();
            let mut agg = AggregatorApp::with_executors(
                q.executors.iter().map(|(_, e)| e.clone()).collect(),
                ips,
                100_000,
                10_000,
            )
            .with_telemetry(&self.metrics);
            if let Some(tracer) = self.trace_handle() {
                agg = agg.with_tracer(tracer);
            }
            let new_handle = agg.handle();
            {
                // Carry counters over so the final report stays
                // cumulative across the failover.
                let old_shared = q.aggregator_handle.borrow();
                let mut fresh = new_handle.borrow_mut();
                fresh.tuples_in = old_shared.tuples_in;
                fresh.tuples_processed = old_shared.tuples_processed;
                fresh.dropped = old_shared.dropped;
                fresh.overload_signals = old_shared.overload_signals;
            }
            self.engine.set_app(host, Box::new(agg));
            let new_ip = self.host_ip(host);
            q.aggregator_host = host;
            q.aggregator_ip = new_ip;
            q.aggregator_handle = new_handle;
            // Monitors learn the new destination at their next flush.
            for s in &q.monitors {
                s.handle.borrow_mut().retarget_aggregator = Some(new_ip);
            }
            q.replacements += 1;
            self.journal.record(
                now.as_nanos(),
                Some(q.cookie),
                EventKind::Failover,
                format!("aggregator failed over: host{old} -> host{host}"),
            );
            self.queries
                .replaced(q.cookie, Some(&format!("host{host}")), now.as_nanos());
            self.metrics.counter("reconcile.replacements", &[]).inc();
            self.metrics
                .histogram("reconcile.recovery_time_ns", &[])
                .record(window.as_nanos());
            report.replaced.push((old, host));
        }
        // Graceful degradation: aggregator drops push sampling backoff.
        if self.policy.degrade_on_overload {
            let dropped = q.aggregator_handle.borrow().dropped;
            if dropped > q.dropped_seen {
                let shed = dropped - q.dropped_seen;
                q.dropped_seen = dropped;
                for s in &q.monitors {
                    s.handle.borrow_mut().degrade = true;
                }
                self.journal.record(
                    now.as_nanos(),
                    Some(q.cookie),
                    EventKind::ReconcileDecision,
                    format!("sampling backoff pushed ({shed} tuple(s) shed)"),
                );
                self.metrics.counter("reconcile.degradations", &[]).inc();
                report.degraded = true;
            }
        }
        Ok(report)
    }

    /// True when every non-stopped monitor runs on a live host with a
    /// fresh heartbeat and the aggregator host is up.
    pub fn query_is_healthy(&self, q: &QueryHandle) -> bool {
        self.is_healthy_inner(&q.inner.borrow())
    }

    fn is_healthy_inner(&self, q: &RunningQuery) -> bool {
        if !self.engine.host_is_up(q.aggregator_host) {
            return false;
        }
        let now = self.engine.now();
        let window = self.heartbeat_window();
        q.monitors.iter().all(|s| {
            let sh = s.handle.borrow();
            sh.stopped
                || (self.engine.host_is_up(s.host)
                    && now - sh.last_heartbeat.max(s.deployed_at) <= window)
        })
    }

    /// Runs the emulation until `deadline`, reconciling the query once
    /// per heartbeat interval — the self-healing equivalent of
    /// [`Orchestrator::run_until`].
    ///
    /// # Errors
    ///
    /// Propagates [`Orchestrator::reconcile`] failures.
    pub fn run_reconciling(
        &mut self,
        q: &QueryHandle,
        deadline: SimTime,
    ) -> Result<(), OrchestratorError> {
        while self.engine.now() < deadline {
            let step = (self.engine.now() + self.heartbeat_interval).min(deadline);
            self.engine.run_until(step);
            self.reconcile(q)?;
        }
        Ok(())
    }

    /// Advances virtual time (reconciling every heartbeat interval)
    /// until the query is healthy again, returning how long recovery
    /// took.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::Timeout`] if the query has not healed
    /// `within` the given budget; reconcile errors propagate.
    pub fn await_recovery(
        &mut self,
        q: &QueryHandle,
        within: SimDuration,
    ) -> Result<SimDuration, OrchestratorError> {
        let start = self.engine.now();
        let deadline = start + within;
        loop {
            self.reconcile(q)?;
            if self.query_is_healthy(q) {
                return Ok(self.engine.now() - start);
            }
            if self.engine.now() >= deadline {
                return Err(OrchestratorError::Timeout);
            }
            let step = (self.engine.now() + self.heartbeat_interval).min(deadline);
            self.engine.run_until(step);
        }
    }

    /// Kills a running query: removes its rules, stops its monitors,
    /// flushes its analytics, closes live subscriptions, releases its
    /// admission charge and frees its hosts. Returns the final report,
    /// or `None` if the query was already killed (kill is idempotent).
    pub fn kill(&mut self, q: &QueryHandle) -> Option<QueryReport> {
        self.kill_by_cookie(q.cookie)
    }

    /// [`Orchestrator::kill`] addressed by cookie — the form the HTTP
    /// frontend's `DELETE /queries/{cookie}` uses. `None` for unknown
    /// or already-killed cookies.
    pub fn kill_by_cookie(&mut self, cookie: u64) -> Option<QueryReport> {
        let rc = self.registry.remove(&cookie)?;
        let mut q = rc.borrow_mut();
        self.journal.record(
            self.engine.now().as_nanos(),
            Some(cookie),
            EventKind::QueryKilled,
            format!("killed after {} replacement(s)", q.replacements),
        );
        Some(self.kill_inner(&mut q))
    }

    /// Shared teardown for kill and eviction. The caller has already
    /// removed the query from the registry and journaled why.
    fn kill_inner(&mut self, q: &mut RunningQuery) -> QueryReport {
        let now_ns = self.engine.now().as_nanos();
        self.queries.killed(q.cookie, now_ns);
        self.admission.release(q.cookie);
        self.standing.remove(&q.cookie);
        q.hub.close();
        self.engine.remove_rules_by_cookie(q.cookie);
        if let Some(ctl) = self.engine.controller_mut() {
            ctl.remove_cookie(q.cookie);
        }
        // Undeploy the NFs and free their hosts for subsequent queries.
        // Dropping the apps with their pending timers ends the tick
        // chains: left armed, the aggregator's re-arms forever and fires
        // on whichever query's app lands on the host next.
        for s in &q.monitors {
            s.handle.borrow_mut().stopped = true;
            self.engine.clear_app(s.host);
            self.used_hosts.remove(&s.host);
        }
        self.engine.clear_app(q.aggregator_host);
        self.used_hosts.remove(&q.aggregator_host);
        let results = q
            .executors
            .iter()
            .map(|(name, exec)| (name.clone(), ResultSet::new(exec.borrow_mut().stop(now_ns))))
            .collect();
        QueryReport {
            results,
            drained: q
                .drained
                .take()
                .unwrap_or_else(|| vec![0; q.executors.len()]),
            monitor_stats: q.monitors.iter().map(|s| s.handle.borrow().stats).collect(),
            aggregator: std::mem::take(&mut q.aggregator_handle.borrow_mut()),
        }
    }

    /// Kills every running query; returns how many were torn down.
    pub fn kill_all(&mut self) -> usize {
        let running = self.running_queries();
        for q in &running {
            self.kill(q);
        }
        running.len()
    }

    /// One control pass — the single place the query lifecycle is
    /// enforced, whoever drives the clock (a frontend's driver thread,
    /// [`crate::Cluster::tick`], a test): advance the emulation by
    /// `step`, then for every running query in ascending cookie order
    /// kill it if its LIMIT deadline passed `grace` ago (the grace lets
    /// in-flight batches land), otherwise drain a served query's
    /// executors (`stream.drained`), repair it as
    /// [`Orchestrator::reconcile`] does (which also refreshes its
    /// directory health) and kill it if it cannot be repaired rather
    /// than leave it zombied; then, once for the pass, retention and
    /// the standing windows. With nothing running this only advances
    /// the clock.
    pub fn tick(&mut self, step: SimDuration, grace: SimDuration) -> TickReport {
        let target = self.engine.now() + step;
        self.engine.run_until(target);
        let mut report = TickReport::default();
        let running = self.running_queries();
        for q in &running {
            if q.deadline().is_some_and(|d| target >= d + grace) {
                self.kill(q);
                report.deadline_kills += 1;
                continue;
            }
            let drained = q.inner.borrow_mut().drain_outputs();
            if drained > 0 {
                self.metrics.counter("stream.drained", &[]).add(drained);
            }
            match self.repair(q) {
                Ok(r) => report.replaced += r.replaced.len(),
                Err(_) => {
                    self.kill(q);
                    report.unrepairable_kills += 1;
                }
            }
        }
        if !running.is_empty() {
            self.housekeeping();
        }
        report
    }

    /// How many queries are running.
    pub fn num_running(&self) -> usize {
        self.registry.len()
    }

    /// Handles to every currently running query, newest-cookie last.
    pub fn running_queries(&self) -> Vec<QueryHandle> {
        let mut cookies: Vec<u64> = self.registry.keys().copied().collect();
        cookies.sort_unstable();
        cookies
            .into_iter()
            .filter_map(|c| self.handle_for(c))
            .collect()
    }

    /// A fresh handle to a running query by cookie, or `None` once it
    /// has been killed.
    pub fn handle_for(&self, cookie: u64) -> Option<QueryHandle> {
        let inner = self.registry.get(&cookie)?;
        let hub = Arc::clone(&inner.borrow().hub);
        Some(QueryHandle {
            cookie,
            inner: Rc::clone(inner),
            directory: Arc::clone(&self.queries),
            store: self.result_store.clone(),
            hub,
        })
    }

    /// The admission controller's read surface (tenants, usage).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Registers a tenant after construction (see also
    /// [`OrchestratorBuilder::tenant`]).
    pub fn register_tenant(&mut self, tenant: Tenant) {
        self.admission.register(tenant);
    }

    /// Convenience: submit, run until the query's own deadline (or for
    /// `horizon` when the LIMIT is packet-based), then finalize. No
    /// reconcile passes run; see
    /// [`Orchestrator::run_query_resilient`] for the self-healing
    /// variant.
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError`] from [`Orchestrator::submit`].
    pub fn run_query(
        &mut self,
        query_src: &str,
        horizon: SimDuration,
    ) -> Result<QueryReport, OrchestratorError> {
        let q = self.submit(query_src)?;
        let deadline = q.deadline().unwrap_or(self.engine.now() + horizon);
        // Let in-flight batches land: run a small grace period past the
        // deadline before tearing down.
        self.engine
            .run_until(deadline + SimDuration::from_millis(50));
        Ok(self.kill(&q).expect("fresh query is killable"))
    }

    /// Like [`Orchestrator::run_query`], but with the reconcile loop
    /// engaged: failures injected mid-query (host/link faults) are
    /// detected via heartbeats and repaired by re-placement, so the
    /// query still finalizes with results.
    ///
    /// # Errors
    ///
    /// Submit and reconcile errors propagate.
    pub fn run_query_resilient(
        &mut self,
        query_src: &str,
        horizon: SimDuration,
    ) -> Result<QueryReport, OrchestratorError> {
        let q = self.submit(query_src)?;
        let deadline = q.deadline().unwrap_or(self.engine.now() + horizon);
        self.run_reconciling(&q, deadline + SimDuration::from_millis(50))?;
        Ok(self.kill(&q).expect("fresh query is killable"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use netalytics_store::{
        CompactionReport, HistoryAnswer, RollupPoint, StoreError, StoreStats, TimeSeriesStore,
    };

    use super::*;

    #[test]
    fn hostnames_resolve_in_queries() {
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 1);
        let err = orch
            .submit("PARSE http_get FROM * TO nosuch:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .unwrap_err();
        assert!(matches!(err, OrchestratorError::Compile(_)));
        let q = orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .unwrap();
        assert_eq!(q.monitor_hosts().len(), 1);
        // Monitor sits in the web host's rack but not on the web host.
        let tree = *orch.engine().network().tree();
        assert_eq!(
            tree.edge_of_host(q.monitor_hosts()[0]),
            tree.edge_of_host(1)
        );
    }

    /// An in-memory store that counts its `compact` calls (the store's
    /// own `compactions` stat counts only passes that expired data).
    #[derive(Debug)]
    struct CountingStore {
        inner: TimeSeriesStore,
        compact_calls: AtomicU64,
    }

    impl ResultBackend for CountingStore {
        fn append(&self, s: &SeriesKey, b: &TupleBatch) -> Result<(), StoreError> {
            self.inner.append(s, b)
        }
        fn latest(&self, s: &SeriesKey) -> Option<DataTuple> {
            self.inner.latest(s)
        }
        fn range(&self, s: &SeriesKey, t0: u64, t1: u64) -> Result<Vec<DataTuple>, StoreError> {
            self.inner.range(s, t0, t1)
        }
        fn rollup(
            &self,
            s: &SeriesKey,
            field: &str,
            t0: u64,
            t1: u64,
            bucket_ns: u64,
        ) -> Result<Vec<RollupPoint>, StoreError> {
            self.inner.rollup(s, field, t0, t1, bucket_ns)
        }
        fn history(&self, q: &HistoryQuery) -> Result<HistoryAnswer, StoreError> {
            self.inner.history(q)
        }
        fn query_history(&self, id: u64) -> Result<Vec<DataTuple>, StoreError> {
            self.inner.query_history(id)
        }
        fn series(&self) -> Vec<SeriesKey> {
            self.inner.series()
        }
        fn compact(&self, now_ns: u64) -> Result<CompactionReport, StoreError> {
            self.compact_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.compact(now_ns)
        }
        fn native_bucket_ns(&self) -> u64 {
            self.inner.native_bucket_ns()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn is_durable(&self) -> bool {
            self.inner.is_durable()
        }
        fn attach_journal(&self, journal: Arc<Journal>) {
            self.inner.attach_journal(journal)
        }
        fn register_metrics(&self, registry: &MetricsRegistry) {
            self.inner.register_metrics(registry)
        }
        fn note_sink_flush(&self) {
            self.inner.note_sink_flush()
        }
        fn note_append_error(&self) {
            self.inner.note_append_error()
        }
        fn note_sink_skipped(&self, n: u64) {
            self.inner.note_sink_skipped(n)
        }
    }

    /// Retention and the standing windows are per-pass work: one
    /// `tick` over eight running queries compacts once, where each
    /// query's own `reconcile` still ends with its own housekeeping.
    #[test]
    fn tick_runs_housekeeping_once_per_pass_not_once_per_query() {
        let store = Arc::new(CountingStore {
            inner: TimeSeriesStore::in_memory(),
            compact_calls: Default::default(),
        });
        let compact_calls = || store.compact_calls.load(Ordering::Relaxed);
        let mut orch = Orchestrator::builder(8)
            .result_store(Arc::clone(&store))
            .build();
        orch.name_host("web", 1);
        let queries: Vec<QueryHandle> = (0..8)
            .map(|_| {
                orch.submit(
                    "PARSE http_get FROM * TO web:80 LIMIT 60s SAMPLE * PROCESS (group-sum)",
                )
                .expect("fabric has room for eight")
            })
            .collect();
        let step = SimDuration::from_millis(10);
        orch.tick(step, step);
        assert_eq!(orch.num_running(), 8);
        assert_eq!(compact_calls(), 1, "one pass, one compaction");
        orch.tick(step, step);
        assert_eq!(compact_calls(), 2);
        orch.reconcile(&queries[0]).expect("healthy");
        assert_eq!(compact_calls(), 3, "reconcile keeps its own");
        // With nothing running a pass only advances the clock.
        orch.kill_all();
        orch.tick(step, step);
        assert_eq!(compact_calls(), 3);
    }

    #[test]
    fn bad_queries_are_rejected() {
        let mut orch = Orchestrator::builder(4).build();
        assert!(matches!(
            orch.submit("garbage").unwrap_err(),
            OrchestratorError::Parse(_)
        ));
        assert!(matches!(
            orch.submit(
                "PARSE http_get FROM * TO 99.9.9.9:80 LIMIT 1s SAMPLE * PROCESS (group-sum)"
            )
            .unwrap_err(),
            OrchestratorError::NoMonitorableEndpoint
        ));
    }

    #[test]
    fn fault_submit_rejects_queries_anchored_at_dead_hosts() {
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 1);
        orch.engine_mut().fail_host(1);
        assert!(matches!(
            orch.submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
                .unwrap_err(),
            OrchestratorError::HostDown(1)
        ));
        orch.engine_mut().repair_host(1);
        assert!(orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .is_ok());
    }

    #[test]
    fn fault_placement_skips_dead_hosts() {
        struct Noop;
        impl App for Noop {
            fn on_packet(
                &mut self,
                _p: &netalytics_packet::Packet,
                _c: &mut netalytics_netsim::Ctx<'_>,
            ) {
            }
        }
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 0);
        orch.deploy_app(0, Box::new(Noop));
        // Kill every other host in web's rack: the monitor must land in
        // a different rack rather than on a dead NIC.
        let tree = *orch.engine().network().tree();
        let edge = tree.edge_of_host(0);
        for h in tree.hosts_of_edge(edge) {
            if h != 0 {
                orch.engine_mut().fail_host(h);
            }
        }
        let q = orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .unwrap();
        for &h in &q.monitor_hosts() {
            assert!(orch.engine().host_is_up(h), "placed on live host");
            assert_ne!(tree.edge_of_host(h), edge, "rack was busy or dead");
        }
    }

    #[test]
    fn builder_configures_policy_and_heartbeat() {
        let orch = Orchestrator::builder(4)
            .heartbeat_interval(SimDuration::from_millis(5))
            .failure_policy(FailurePolicy {
                miss_threshold: 2,
                max_replacements: 1,
                degrade_on_overload: false,
            })
            .build();
        assert_eq!(orch.heartbeat_interval(), SimDuration::from_millis(5));
        assert_eq!(orch.failure_policy().miss_threshold, 2);
        assert!(!orch.failure_policy().degrade_on_overload);
    }

    #[test]
    fn kill_undeploys_the_query_so_tick_work_does_not_pile_up() {
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 1);
        let step = SimDuration::from_millis(50);
        // Engine events per submit → run → kill → idle cycle. No
        // workload runs, so every event is NF tick work (plus the few
        // packets still in flight at the kill).
        let mut per_cycle = Vec::new();
        for _ in 0..50 {
            let before = orch.engine().stats().events;
            let q = orch
                .submit("PARSE http_get FROM * TO web:80 LIMIT 10s SAMPLE * PROCESS (group-sum)")
                .expect("submit");
            orch.run_until(orch.now() + step);
            orch.kill(&q).expect("running query");
            orch.run_until(orch.now() + step);
            per_cycle.push(orch.engine().stats().events - before);
        }
        let settled = orch.engine().stats().events;
        orch.run_until(orch.now() + step);
        assert_eq!(
            orch.engine().stats().events,
            settled,
            "killed queries leave nothing ticking"
        );
        assert!(per_cycle[4] > 0, "a live query does tick");
        assert_eq!(
            per_cycle[4], per_cycle[49],
            "cycle 50 costs what cycle 5 did: {per_cycle:?}"
        );
    }

    /// Same event-count method, for the reconciler's own undeploy: a
    /// monitor process that wedges on a live host (still ticking, no
    /// heartbeat) must be undeployed when it is re-placed. Left in
    /// place, its timers keep firing — on the replacement itself when
    /// placement reuses the freed host — and every tick costs more
    /// than before the fault, forever.
    #[test]
    fn fault_stale_monitor_on_live_host_is_undeployed_on_replacement() {
        /// Re-arms every 10 ms like a monitor, never heartbeats.
        struct Wedged;
        impl App for Wedged {
            fn on_start(&mut self, ctx: &mut netalytics_netsim::Ctx<'_>) {
                ctx.timer_in(SimDuration::from_millis(10), 0);
            }
            fn on_packet(
                &mut self,
                _p: &netalytics_packet::Packet,
                _c: &mut netalytics_netsim::Ctx<'_>,
            ) {
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut netalytics_netsim::Ctx<'_>) {
                ctx.timer_in(SimDuration::from_millis(10), 0);
            }
        }
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 1);
        let (hb, grace) = (orch.heartbeat_interval(), SimDuration::from_millis(50));
        // Engine events over ten control passes. No workload runs, so
        // every event is NF tick work.
        let events_per_ten_ticks = |orch: &mut Orchestrator| {
            let before = orch.engine().stats().events;
            for _ in 0..10 {
                assert_eq!(orch.tick(hb, grace).unrepairable_kills, 0);
            }
            orch.engine().stats().events - before
        };
        let q = orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 10s SAMPLE * PROCESS (group-sum)")
            .expect("submit");
        events_per_ten_ticks(&mut orch); // deployment settles
        let healthy = events_per_ten_ticks(&mut orch);
        assert!(healthy > 0, "a live query does tick");

        let victim = q.monitor_hosts()[0];
        orch.engine_mut().set_app(victim, Box::new(Wedged));
        // Staleness trips after miss_threshold beats; ten passes cover
        // detection, re-placement and the retired app's last events.
        events_per_ten_ticks(&mut orch);
        assert_eq!(q.replacements(), 1, "the wedged monitor was re-placed");
        assert!(orch.engine().host_is_up(victim), "its host never went down");
        assert!(orch.query_is_healthy(&q));
        assert_eq!(
            events_per_ten_ticks(&mut orch),
            healthy,
            "tick work is back to the pre-fault level"
        );
    }

    #[test]
    fn result_store_commits_query_output_and_serves_history() {
        use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
        use netalytics_packet::http;

        let store = Arc::new(TimeSeriesStore::in_memory());
        let mut orch = Orchestrator::builder(4).result_store(store.clone()).build();
        orch.name_host("web", 1);
        let web_ip = orch.host_ip(1);
        orch.deploy_app(
            1,
            Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
        );
        let schedule = (0..30u64)
            .map(|i| {
                (
                    SimTime::from_nanos(i * 10_000_000),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get("/r", "web")],
                        tag: "c".into(),
                    },
                )
            })
            .collect();
        orch.deploy_app(0, Box::new(ClientApp::new(schedule, sample_sink())));

        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        let cookie = q.cookie();
        let deadline = q.deadline().expect("time-limited");
        orch.run_until(deadline + SimDuration::from_millis(50));
        let report = orch.kill(&q).expect("running query");
        assert!(!report.first().tuples.is_empty(), "query produced results");

        // The durable history matches the in-memory result set and
        // outlives the query's teardown — the handle stays readable
        // after the kill.
        let history = q.history().expect("store attached");
        assert_eq!(history.tuples.len(), report.first().tuples.len());
        assert!(store.stats().tuples > 0);
        assert!(
            store
                .series()
                .iter()
                .any(|s| s.query_id == cookie && s.group == "/r"),
            "series keyed by (cookie, group key): {:?}",
            store.series()
        );
        // Store ingest stats registered into the root registry.
        let snap = orch.telemetry_report();
        assert!(snap.counter_total("store.ingest_tuples") > 0);
        // No store on a plain orchestrator → handles have no history.
        let mut plain = Orchestrator::builder(4).build();
        plain.name_host("web", 1);
        let storeless = plain
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .expect("submit");
        assert!(storeless.history().is_none());
    }

    #[test]
    fn monitors_avoid_busy_hosts_and_rules_are_scoped() {
        struct Noop;
        impl App for Noop {
            fn on_packet(
                &mut self,
                _p: &netalytics_packet::Packet,
                _c: &mut netalytics_netsim::Ctx<'_>,
            ) {
            }
        }
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 0);
        orch.deploy_app(0, Box::new(Noop));
        orch.deploy_app(1, Box::new(Noop)); // rack of host 0 is full
        let q = orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .unwrap();
        assert!(!q.monitor_hosts().contains(&0));
        assert!(!q.monitor_hosts().contains(&1));
        let cookie = q.cookie();
        let report = orch.kill(&q).expect("running query");
        assert!(report.results[0].1.is_empty());
        assert_eq!(
            orch.engine_mut().remove_rules_by_cookie(cookie),
            0,
            "finalize already removed the rules"
        );
    }

    #[test]
    fn two_sequential_queries_reuse_hosts() {
        let mut orch = Orchestrator::builder(4).build();
        orch.name_host("web", 0);
        let r1 = orch
            .run_query(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)",
                SimDuration::from_secs(1),
            )
            .unwrap();
        let r2 = orch
            .run_query(
                "PARSE tcp_conn_time FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (diff-group)",
                SimDuration::from_secs(1),
            )
            .unwrap();
        assert_eq!(r1.results[0].0, "group-sum");
        assert_eq!(r2.results[0].0, "diff-group");
    }
}

#[cfg(test)]
mod reactive_tests {
    use super::*;
    use netalytics_apps::{sample_sink, ClientApp, Conversation, StaticHttpBehavior, TierApp};
    use netalytics_packet::http;

    fn deploy_web(orch: &mut Orchestrator) -> std::net::Ipv4Addr {
        orch.name_host("web", 1);
        let web_ip = orch.host_ip(1);
        orch.deploy_app(
            1,
            Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(1.0, 3)))),
        );
        let sink = sample_sink();
        let schedule = (0..60u64)
            .map(|i| {
                (
                    SimTime::from_nanos(i * 10_000_000),
                    Conversation {
                        dst: (web_ip, 80),
                        requests: vec![http::build_get("/r", "web")],
                        tag: "c".into(),
                    },
                )
            })
            .collect();
        orch.deploy_app(0, Box::new(ClientApp::new(schedule, sink)));
        web_ip
    }

    #[test]
    fn reactive_install_pulls_rules_on_first_miss() {
        let mut orch = Orchestrator::builder(4)
            .install_mode(InstallMode::Reactive)
            .build();
        deploy_web(&mut orch);
        let report = orch
            .run_query(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
                SimDuration::from_secs(1),
            )
            .expect("reactive query");
        // The first matching packet triggered a packet-in; monitoring
        // then proceeded normally.
        assert!(orch.engine().stats().packet_ins >= 1, "packet-in served");
        assert!(
            report.monitor_stats[0].packets_seen > 0,
            "mirroring active after the pull"
        );
    }

    #[test]
    fn telemetry_report_covers_all_four_layers() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        orch.run_query(
            "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
             PROCESS (group-sum: group=url, value=t_ns)",
            SimDuration::from_secs(1),
        )
        .expect("query");
        let snap = orch.telemetry_report();
        let names = snap.names();
        for prefix in ["monitor.", "queue.", "stream.", "netsim."] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "snapshot must contain {prefix}* series, got {names:?}"
            );
        }
        assert!(snap.counter_total("stream.processed") > 0, "tuples flowed");
        let e2e = snap.histogram_merged("e2e.tuple_latency_ns");
        assert!(e2e.count() > 0, "e2e latency populated");
        assert!(e2e.p50() > 0 && e2e.p50() <= e2e.p99());
        // Renderers must carry the same series.
        let prom = snap.render_prometheus();
        assert!(prom.contains("e2e_tuple_latency_ns_count"));
        assert!(prom.contains("netsim_delivered"));
    }

    #[test]
    fn preagg_monitors_fold_tuples_and_sketch_query_still_answers() {
        // A 100 ms flush cadence lets each delta fold ~10 tuples, so the
        // compression is visible in the stats.
        let mut orch = Orchestrator::builder(4)
            .monitor_preagg(true)
            .heartbeat_interval(SimDuration::from_millis(100))
            .build();
        deploy_web(&mut orch);
        let report = orch
            .run_query(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (heavy-hitters: k=5, eps=0.01)",
                SimDuration::from_secs(1),
            )
            .expect("sketch query with pre-aggregation");
        // Monitors folded raw tuples into sketch deltas...
        let stats = &report.monitor_stats[0];
        assert!(stats.tuples_folded > 0, "monitor folded tuples: {stats:?}");
        assert!(stats.sketches_out > 0, "monitor shipped deltas: {stats:?}");
        assert!(
            stats.sketches_out < stats.tuples_folded,
            "pre-aggregation must compress: {stats:?}"
        );
        // ...and the analytics layer still produced the right ranking.
        let ranking = report.first().final_ranking();
        assert_eq!(ranking.first().map(|(k, _)| k.as_str()), Some("/r"));
        let total: u64 = ranking.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.tuples_folded, "counts survive the fold");
        // Sketch self-telemetry registered in the root registry.
        let snap = orch.telemetry_report();
        assert!(snap.counter_total("sketch.merges") > 0, "merges recorded");
        assert!(
            snap.names().contains(&"monitor.tuples_folded"),
            "fold stats exported"
        );
    }

    #[test]
    fn preagg_disabled_by_default_keeps_raw_tuple_path() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let report = orch
            .run_query(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (heavy-hitters: k=5, eps=0.01)",
                SimDuration::from_secs(1),
            )
            .expect("sketch query without pre-aggregation");
        let stats = &report.monitor_stats[0];
        assert_eq!(stats.tuples_folded, 0, "no folding by default");
        assert_eq!(stats.sketches_out, 0);
        assert_eq!(
            report
                .first()
                .final_ranking()
                .first()
                .map(|(k, _)| k.as_str()),
            Some("/r"),
            "raw path answers identically"
        );
    }

    #[test]
    fn proactive_install_needs_no_packet_ins_for_matched_flows() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let before = orch.engine().stats().packet_ins;
        let report = orch
            .run_query(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
                SimDuration::from_secs(1),
            )
            .expect("proactive query");
        assert!(report.monitor_stats[0].packets_seen > 0);
        // Packet-ins may fire for unrelated unmatched traffic, but the
        // mirror rules themselves were pushed up front: the count cannot
        // have grown faster than the packets observed (sanity bound) and
        // monitoring started from the very first matching packet.
        let _ = before;
        assert_eq!(
            report.monitor_stats[0].packets_seen % 2,
            0,
            "both directions mirrored from the start (GET+response per conn)"
        );
    }

    #[test]
    fn fault_reconciler_replaces_dead_monitor_mid_query() {
        let mut orch = Orchestrator::builder(4)
            .heartbeat_interval(SimDuration::from_millis(10))
            .build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        let victim = q.monitor_hosts()[0];
        // Let traffic flow, then kill the monitor host mid-query.
        orch.engine_mut().schedule_fault(
            SimTime::from_nanos(200_000_000),
            netalytics_netsim::FaultKind::HostDown(victim),
        );
        let deadline = q.deadline().expect("time-limited query");
        orch.run_reconciling(&q, deadline + SimDuration::from_millis(50))
            .expect("reconciling run");
        assert!(q.replacements() >= 1, "the dead monitor was replaced");
        assert_ne!(q.monitor_hosts()[0], victim, "placement moved");
        assert!(orch.query_is_healthy(&q), "healed before the deadline");
        let snap = orch.telemetry_report();
        assert!(
            snap.histogram_merged("reconcile.recovery_time_ns").count() >= 1,
            "recovery time recorded"
        );
        let report = orch.kill(&q).expect("running query");
        assert!(
            report.monitor_stats.iter().any(|s| s.packets_seen > 0),
            "replacement monitor observed traffic"
        );
    }

    #[test]
    fn fault_replacement_budget_is_enforced() {
        let mut orch = Orchestrator::builder(4)
            .failure_policy(FailurePolicy {
                max_replacements: 0,
                ..Default::default()
            })
            .build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        let victim = q.monitor_hosts()[0];
        orch.engine_mut().fail_host(victim);
        assert!(matches!(
            orch.reconcile(&q).unwrap_err(),
            OrchestratorError::ReplacementFailed { host, .. } if host == victim
        ));
    }

    #[test]
    fn fault_await_recovery_times_out_without_capacity() {
        // 4-ary fat tree: 16 hosts. Use them all up so a replacement
        // cannot be placed, then check await_recovery surfaces Timeout
        // is NOT reached — ReplacementFailed fires first.
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        // Occupy every remaining host, then kill the monitor.
        for h in 0..orch.engine().network().num_hosts() {
            orch.used_hosts.insert(h);
        }
        let victim = q.monitor_hosts()[0];
        orch.engine_mut().fail_host(victim);
        assert!(matches!(
            orch.await_recovery(&q, SimDuration::from_millis(100))
                .unwrap_err(),
            OrchestratorError::ReplacementFailed { .. }
        ));
    }

    #[test]
    fn journal_and_directory_track_the_query_lifecycle() {
        use netalytics_telemetry::QueryState;

        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        let cookie = q.cookie();
        let info = orch.query_directory().get(cookie).expect("directory entry");
        assert_eq!(info.state, QueryState::Running);
        assert_eq!(info.monitors, q.monitors().len());
        assert!(info.query.contains("PARSE http_get"));
        assert!(info.aggregator.starts_with("host"));

        let deadline = q.deadline().expect("time-limited");
        orch.run_until(deadline + SimDuration::from_millis(50));
        orch.kill(&q).expect("running query");

        let kinds = orch.journal().kinds_for(cookie);
        assert_eq!(
            kinds,
            [
                EventKind::QuerySubmitted,
                EventKind::QueryDeployed,
                EventKind::QueryKilled
            ],
            "clean run journals exactly the lifecycle"
        );
        assert_eq!(
            orch.query_directory().get(cookie).unwrap().state,
            QueryState::Killed
        );
    }

    #[test]
    fn tracing_builder_yields_virtual_clock_waterfalls() {
        let mut orch = Orchestrator::builder(4)
            .tracing(TraceConfig {
                sample_every: 1,
                ..TraceConfig::default()
            })
            .build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        let cookie = q.cookie();
        let deadline = q.deadline().expect("time-limited");
        orch.run_until(deadline + SimDuration::from_millis(50));
        orch.kill(&q).expect("running query");

        let falls = orch.tracer().waterfalls(cookie);
        assert!(!falls.is_empty(), "sampled batches leave exemplars");
        let stages: std::collections::BTreeSet<&str> =
            falls[0].spans.iter().map(|s| s.stage.as_str()).collect();
        assert!(
            stages.contains("parse") && stages.contains("queue") && stages.contains("bolt"),
            "waterfall spans the emulated pipeline: {stages:?}"
        );
        // Untraced orchestrators keep the fabric byte-identical: no
        // exemplars ever appear.
        let mut plain = Orchestrator::builder(4).build();
        deploy_web(&mut plain);
        let q = plain
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .expect("submit");
        let cookie = q.cookie();
        plain.run_until(SimTime::from_nanos(300_000_000));
        plain.kill(&q);
        assert!(plain.tracer().waterfalls(cookie).is_empty());
    }

    #[test]
    fn admission_quota_rejects_then_kill_frees_the_slot() {
        use crate::admission::{Tenant, TenantQuota};

        let mut orch = Orchestrator::builder(4)
            .tenant(Tenant::new(
                "ops",
                TenantQuota {
                    max_concurrent_queries: 1,
                    ..TenantQuota::UNLIMITED
                },
                50,
            ))
            .build();
        deploy_web(&mut orch);
        const Q: &str = "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)";

        // Unknown tenants are refused outright.
        assert!(matches!(
            orch.submit_as("nobody", Q).unwrap_err(),
            OrchestratorError::Admission(AdmissionError::UnknownTenant { .. })
        ));

        let first = orch.submit_as("ops", Q).expect("within quota");
        assert_eq!(first.tenant(), "ops");
        assert_eq!(orch.admission().running("ops"), 1);
        let err = orch.submit_as("ops", Q).unwrap_err();
        assert!(matches!(
            &err,
            OrchestratorError::Admission(AdmissionError::ConcurrentQueries { .. })
        ));
        // The rejection is journaled and counted.
        assert!(orch
            .journal()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::AdmissionRejected));
        assert!(orch.telemetry_report().counter_total("admission.rejected") >= 1);

        // Killing the running query releases the charge.
        orch.kill(&first).expect("running");
        assert_eq!(orch.admission().running("ops"), 0);
        orch.submit_as("ops", Q).expect("slot freed by kill");
        // The default tenant is never quota-bound.
        orch.submit(Q).expect("default tenant unlimited");
    }

    #[test]
    fn admission_priority_eviction_frees_capacity() {
        use crate::admission::{Tenant, TenantQuota};
        use netalytics_telemetry::QueryState;

        let mut orch = Orchestrator::builder(4)
            .tenant(Tenant::new("bulk", TenantQuota::UNLIMITED, 10))
            .tenant(Tenant::new("ops", TenantQuota::UNLIMITED, 200))
            .build();
        deploy_web(&mut orch);
        const Q: &str = "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)";
        let victim = orch.submit_as("bulk", Q).expect("bulk submit");
        // Exhaust the fabric so the next placement must evict.
        for h in 0..orch.engine().network().num_hosts() {
            orch.used_hosts.insert(h);
        }
        // Equal/lower priority cannot evict: bulk's own resubmission
        // fails with NoFreeHost and the victim keeps running.
        assert!(matches!(
            orch.submit_as("bulk", Q).unwrap_err(),
            OrchestratorError::NoFreeHost
        ));
        assert!(orch.handle_for(victim.cookie()).is_some());

        // A higher-priority arrival evicts the bulk query and lands on
        // the freed hosts.
        let winner = orch.submit_as("ops", Q).expect("evicts bulk");
        assert_eq!(
            victim.status().unwrap().state,
            QueryState::Killed,
            "victim was torn down"
        );
        assert!(orch.handle_for(victim.cookie()).is_none());
        assert_eq!(winner.status().unwrap().state, QueryState::Running);
        assert!(orch
            .journal()
            .kinds_for(victim.cookie())
            .contains(&EventKind::QueryEvicted));
        assert!(orch.telemetry_report().counter_total("admission.evictions") >= 1);
        // The victim's live subscribers saw end-of-stream.
        assert!(victim.subscription_hub().is_closed());
    }

    /// An evicted query leaves `registry` behind its handle's back. A
    /// control pass — or anyone still holding the handle — must never
    /// reconcile it again: the aggregator branch of reconcile would
    /// fail it over onto a fresh host that nothing ever frees.
    #[test]
    fn fault_evicted_query_is_never_reconciled_again() {
        use crate::admission::{Tenant, TenantQuota};
        use netalytics_telemetry::QueryState;

        let mut orch = Orchestrator::builder(4)
            .tenant(Tenant::new("bulk", TenantQuota::UNLIMITED, 10))
            .tenant(Tenant::new("ops", TenantQuota::UNLIMITED, 200))
            .build();
        deploy_web(&mut orch);
        const Q: &str = "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)";
        let victim = orch.submit_as("bulk", Q).expect("bulk submit");
        let old_aggregator = victim.aggregator_host();
        // Fill the fabric so the next placement must evict.
        let hosts = orch.engine().network().num_hosts();
        let spare: Vec<HostIdx> = (0..hosts)
            .filter(|h| !orch.used_hosts.contains(h))
            .collect();
        orch.used_hosts.extend(0..hosts);
        let winner = orch.submit_as("ops", Q).expect("evicts bulk");
        assert!(orch.handle_for(victim.cookie()).is_none(), "evicted");
        // Room to repair: whoever reconciles after the fault below can
        // claim a host, so a wrongful claim would succeed and show.
        for h in &spare {
            orch.used_hosts.remove(h);
        }
        let journaled = orch.journal().kinds_for(victim.cookie());
        let entry = victim.status().expect("directory entry");
        assert_eq!(entry.state, QueryState::Killed);
        let claimed = orch.used_hosts.len();

        orch.engine_mut().fail_host(old_aggregator);
        let hb = orch.heartbeat_interval();
        for _ in 0..5 {
            let report = orch.tick(hb, SimDuration::from_millis(50));
            assert_eq!((report.deadline_kills, report.unrepairable_kills), (0, 0));
        }
        let stale = orch.reconcile(&victim).expect("stale handle is a no-op");
        assert!(stale.replaced.is_empty() && stale.tuples_lost == 0 && !stale.degraded);

        assert_eq!(
            orch.journal().kinds_for(victim.cookie()),
            journaled,
            "no Failover / ReconcileDecision under the dead cookie"
        );
        let after = victim.status().expect("directory entry");
        assert_eq!(
            (after.state, after.updated_ns, after.replacements),
            (QueryState::Killed, entry.updated_ns, entry.replacements),
            "the victim's directory entry is untouched"
        );
        assert_eq!(victim.replacements(), 0);
        assert_eq!(victim.aggregator_host(), old_aggregator, "never re-placed");
        // The evictor may have reused the failed host and legitimately
        // failed over: that swaps one claim for another. Nothing else
        // may claim a host.
        assert_eq!(orch.used_hosts.len(), claimed, "no host claimed for it");
        assert!(orch.handle_for(winner.cookie()).is_some());
        assert!(orch.query_is_healthy(&winner));
    }

    #[test]
    fn subscriptions_stream_incremental_results_until_kill() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        // Windowed top-k: the rank bolt re-emits every 100 ms window,
        // so subscribers see incremental results long before the end.
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (top-k: k=3, w=100ms, key=url)",
            )
            .expect("submit");
        let live = q.subscribe();
        orch.run_until(SimTime::from_nanos(400_000_000));
        let seen = live.drain();
        assert!(!seen.is_empty(), "incremental results streamed mid-query");
        assert!(
            seen.iter().any(|t| t.get("key").is_some()),
            "streamed tuples carry the query's output fields: {seen:?}"
        );
        orch.kill(&q).expect("running query");
        assert_eq!(
            live.recv(),
            None,
            "kill closes the hub: stream ends after the buffer drains"
        );
        // Subscribing on a killed query's handle ends immediately.
        assert_eq!(q.subscribe().recv(), None);
    }

    #[test]
    fn kill_is_idempotent_and_addressable_by_cookie() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let q = orch
            .submit("PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (group-sum)")
            .expect("submit");
        assert_eq!(orch.running_queries().len(), 1);
        assert!(orch.kill(&q).is_some());
        assert!(orch.kill(&q).is_none(), "second kill is a no-op");
        assert!(orch.kill_by_cookie(q.cookie()).is_none());
        assert!(orch.kill_by_cookie(9999).is_none(), "unknown cookie");
        assert!(orch.running_queries().is_empty());
    }

    #[test]
    fn fault_healthy_query_reconciles_to_noop() {
        let mut orch = Orchestrator::builder(4).build();
        deploy_web(&mut orch);
        let q = orch
            .submit(
                "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * \
                 PROCESS (group-sum: group=url, value=t_ns)",
            )
            .expect("submit");
        orch.run_until(SimTime::from_nanos(100_000_000));
        let report = orch.reconcile(&q).expect("reconcile");
        assert!(report.replaced.is_empty(), "nothing to repair");
        assert_eq!(q.replacements(), 0);
        assert!(orch.query_is_healthy(&q));
        let recovered = orch
            .await_recovery(&q, SimDuration::from_millis(100))
            .expect("already healthy");
        assert_eq!(recovered.as_nanos(), 0, "no time needed");
    }
}
