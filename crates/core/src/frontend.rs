//! The production query frontend: NetAlytics' §3.1 "administrators
//! submit queries" surface as a real HTTP API.
//!
//! [`QueryFrontend`] is the one frontend. Its driver thread either owns
//! an [`Orchestrator`] (built on that thread: the orchestrator is
//! deliberately single-threaded — its monitor and executor handles are
//! `Rc`-shared with the discrete-event engine) or fronts a sharded
//! [`Cluster`], and exposes the full query lifecycle over the wire:
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /queries` | submit SQL-ish query text → JSON descriptor |
//! | `GET /queries` | list the query directory |
//! | `GET /queries/{cookie}` | describe one query, incl. health |
//! | `DELETE /queries/{cookie}` | kill; returns a teardown summary |
//! | `GET /queries/{cookie}/results` | durable results from the store |
//! | `GET /queries/{cookie}/stream` | live NDJSON result stream |
//!
//! plus the read-only introspection routes from
//! [`introspection_router`] (`/metrics`, `/events`, `/trace/{cookie}`).
//!
//! Mutations (submit, kill) are forwarded to the driver thread over a
//! command mailbox; reads (list, describe, results, stream) go straight
//! to the shared directory/store/hubs, so a slow simulation tick never
//! blocks them. Between commands the driver runs the backend's control
//! pass ([`Orchestrator::tick`]: advance virtual time, kill queries
//! whose `LIMIT` deadline passed, reconcile the rest, refresh directory
//! health) — an HTTP client watching `/queries/{cookie}` sees the same
//! lifecycle a library caller drives by hand.
//!
//! Every non-2xx response is the one [`ApiError`] envelope
//! `{"code", "message", "detail"}`; see DESIGN.md §11 for the
//! error-to-status table.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use netalytics_data::{DataTuple, Value};
use netalytics_netsim::SimDuration;
use netalytics_store::{
    AggValue, HistoryAgg, HistoryAnswer, HistoryQuery, ResultBackend, RollupPoint, SeriesKey,
};
use netalytics_stream::SubscriptionHub;
use netalytics_telemetry::{
    introspection_router, json_escape, ApiError, Introspection, MetricsRegistry, QueryDirectory,
    Request, Response, Router, TelemetryServer, DEFAULT_WORKERS,
};
use parking_lot::Mutex;

use crate::admission::AdmissionError;
use crate::cluster::Cluster;
use crate::orchestrator::{
    Orchestrator, OrchestratorBuilder, OrchestratorError, QueryReport, StandingConfig, TickReport,
};

/// Maps every orchestrator failure onto the stable wire envelope.
/// The status/code table is part of the public API (DESIGN.md §11):
/// clients branch on `code`, proxies on the status class.
impl From<OrchestratorError> for ApiError {
    fn from(e: OrchestratorError) -> Self {
        let message = e.to_string();
        match e {
            OrchestratorError::Parse(_) => ApiError::new(400, "parse_error", message),
            OrchestratorError::Compile(_) => ApiError::new(400, "compile_error", message),
            OrchestratorError::NoMonitorableEndpoint => {
                ApiError::new(422, "no_monitorable_endpoint", message)
            }
            OrchestratorError::NoFreeHost => ApiError::new(503, "no_free_host", message),
            OrchestratorError::HostDown(_) => ApiError::new(503, "host_down", message),
            OrchestratorError::ReplacementFailed { .. } => {
                ApiError::new(500, "replacement_failed", message)
            }
            OrchestratorError::Timeout => ApiError::new(504, "recovery_timeout", message),
            OrchestratorError::Admission(a) => ApiError::from(a),
            OrchestratorError::NoResultStore => ApiError::new(422, "no_result_store", message),
        }
    }
}

/// Admission refusals: unknown tenants are a 403 (the caller's
/// identity, not its load, is the problem); quota refusals are a 429
/// with the machine code naming the exhausted dimension.
impl From<AdmissionError> for ApiError {
    fn from(e: AdmissionError) -> Self {
        let message = e.to_string();
        let status = match e {
            AdmissionError::UnknownTenant { .. } => 403,
            _ => 429,
        };
        ApiError::new(status, e.code(), message).with_detail(format!("tenant={}", e.tenant()))
    }
}

/// Renders one result tuple as a single JSON object — the line format
/// of `/stream` and the element format of `/results`.
pub fn tuple_json(t: &DataTuple) -> String {
    let mut s = String::with_capacity(64 + 16 * t.fields.len());
    s.push_str(&format!("{{\"id\":{},\"ts_ns\":{}", t.id, t.ts_ns));
    if !t.source.is_empty() {
        s.push_str(&format!(",\"source\":\"{}\"", json_escape(&t.source)));
    }
    s.push_str(",\"fields\":{");
    for (i, (k, v)) in t.fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{}", json_escape(k), value_json(v)));
    }
    s.push_str("}}");
    s
}

fn value_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(f) if f.is_finite() => f.to_string(),
        Value::F64(_) => "null".to_string(),
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
        Value::Bytes(b) => format!("\"{} bytes\"", b.len()),
    }
}

/// Virtual milliseconds the emulation advances per idle tick.
const IDLE_STEP_MS: u64 = 10;

/// Wall-clock wait for a command before the driver runs an idle tick.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Virtual milliseconds past a query's LIMIT deadline before the idle
/// tick auto-kills it (lets in-flight batches land).
const DEADLINE_GRACE_MS: u64 = 50;

/// Frontend tuning.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// HTTP worker-pool size (streams run on their own threads and do
    /// not consume pool workers).
    pub workers: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: DEFAULT_WORKERS,
        }
    }
}

enum Command {
    Submit {
        tenant: String,
        query: String,
        /// When set, the query runs standing: the orchestrator closes a
        /// window every `every` and materializes the aggregate.
        standing: Option<StandingConfig>,
        reply: SyncSender<Result<u64, ApiError>>,
    },
    Kill {
        cookie: u64,
        /// `Ok(summary_json)` on success, `Err(())` for unknown cookie.
        reply: SyncSender<Result<String, ()>>,
    },
    Shutdown,
}

/// Live subscription hubs by cookie.
type Hubs = Mutex<HashMap<u64, Arc<SubscriptionHub>>>;

/// What a backend hands the HTTP handlers so reads never cross the
/// driver thread.
type ReadSide = (Introspection, Option<Arc<dyn ResultBackend>>);

/// State the HTTP handlers read without involving the driver thread.
struct FrontendShared {
    directory: Arc<QueryDirectory>,
    store: Option<Arc<dyn ResultBackend>>,
    metrics: Arc<MetricsRegistry>,
    /// Entries persist after kill (closed hubs yield immediately-ended
    /// streams), bounded by the number of queries ever submitted in the
    /// frontend's lifetime.
    hubs: Arc<Hubs>,
    /// Command mailbox to the driver thread. `Sender` is not `Sync`, so
    /// handlers clone it under this lock. (cold path)
    tx: Mutex<Sender<Command>>,
}

impl FrontendShared {
    fn sender(&self) -> Sender<Command> {
        self.tx.lock().clone()
    }
}

/// How long an HTTP handler waits for the driver thread to act on a
/// command before reporting the frontend stalled.
const COMMAND_TIMEOUT: Duration = Duration::from_secs(10);

fn frontend_stalled() -> ApiError {
    ApiError::new(503, "frontend_stalled", "orchestrator thread unresponsive")
}

/// What the driver thread needs from whatever runs the queries: one
/// [`Orchestrator`] it owns, or a shared [`Cluster`] of them.
trait Backend {
    /// Deploys a query; the cookie plus the hub `/stream` subscribes to.
    fn submit(
        &mut self,
        tenant: &str,
        query: &str,
        standing: Option<StandingConfig>,
    ) -> Result<(u64, Arc<SubscriptionHub>), OrchestratorError>;
    fn kill(&mut self, cookie: u64) -> Option<QueryReport>;
    fn tick(&mut self, step: SimDuration, grace: SimDuration) -> TickReport;
    fn kill_all(&mut self);
}

impl Backend for Orchestrator {
    fn submit(
        &mut self,
        tenant: &str,
        query: &str,
        standing: Option<StandingConfig>,
    ) -> Result<(u64, Arc<SubscriptionHub>), OrchestratorError> {
        self.submit_with(tenant, query, standing)
    }
    fn kill(&mut self, cookie: u64) -> Option<QueryReport> {
        self.kill_by_cookie(cookie)
    }
    fn tick(&mut self, step: SimDuration, grace: SimDuration) -> TickReport {
        Orchestrator::tick(self, step, grace)
    }
    fn kill_all(&mut self) {
        Orchestrator::kill_all(self);
    }
}

impl Backend for Arc<Cluster> {
    fn submit(
        &mut self,
        tenant: &str,
        query: &str,
        standing: Option<StandingConfig>,
    ) -> Result<(u64, Arc<SubscriptionHub>), OrchestratorError> {
        self.submit_routed(tenant, query, standing)
    }
    fn kill(&mut self, cookie: u64) -> Option<QueryReport> {
        Cluster::kill(self, cookie)
    }
    fn tick(&mut self, step: SimDuration, grace: SimDuration) -> TickReport {
        Cluster::tick(self, step, grace)
    }
    fn kill_all(&mut self) {
        Cluster::kill_all(self);
    }
}

/// The HTTP query frontend — the one frontend, with two constructors:
/// [`QueryFrontend::spawn`] builds a single [`Orchestrator`] on the
/// driver thread and owns it; [`QueryFrontend::spawn_cluster`] fronts a
/// shared [`Cluster`] and adds the two `/cluster/*` views. Either way
/// one driver thread applies submit/kill commands and, whenever the
/// mailbox stays empty for 500 µs of wall clock, runs one control pass
/// (`tick`: 10 ms of virtual time, 50 ms LIMIT grace). The pass itself —
/// deadline kills, reconcile, killing the unrepairable — lives on
/// [`Orchestrator::tick`], not here. Dropping the frontend kills what
/// is still running and joins the thread.
///
/// # Examples
///
/// See `examples/frontend.rs` and the README quickstart; programmatic
/// submission works too:
///
/// ```no_run
/// use netalytics::{FrontendConfig, Orchestrator, QueryFrontend};
///
/// let frontend = QueryFrontend::spawn(
///     "127.0.0.1:0",
///     Orchestrator::builder(4),
///     |orch| {
///         orch.name_host("web", 1);
///         // deploy workload apps here
///     },
/// )?;
/// println!("listening on http://{}", frontend.local_addr());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct QueryFrontend {
    server: TelemetryServer,
    tx: Sender<Command>,
    thread: Option<JoinHandle<()>>,
    shared: Arc<FrontendShared>,
}

impl QueryFrontend {
    /// Spawns a frontend with default [`FrontendConfig`]. The `setup`
    /// closure runs once on the orchestrator thread right after the
    /// builder — name hosts and deploy workload apps there.
    ///
    /// # Errors
    ///
    /// Bind/listen/thread-spawn failures.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        builder: OrchestratorBuilder,
        setup: impl FnOnce(&mut Orchestrator) + Send + 'static,
    ) -> io::Result<QueryFrontend> {
        Self::spawn_with(addr, builder, FrontendConfig::default(), setup)
    }

    /// [`QueryFrontend::spawn`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Bind/listen/thread-spawn failures.
    pub fn spawn_with(
        addr: impl ToSocketAddrs,
        builder: OrchestratorBuilder,
        config: FrontendConfig,
        setup: impl FnOnce(&mut Orchestrator) + Send + 'static,
    ) -> io::Result<QueryFrontend> {
        // The orchestrator is `!Send`: build it on the thread that
        // will drive it.
        let build = move || {
            let mut orch = builder.build();
            setup(&mut orch);
            let read_side = (orch.introspection(), orch.result_store().cloned());
            (orch, read_side)
        };
        Self::start(addr, config, build, |_router| {})
    }

    /// Serves `cluster` over the same lifecycle API (same routes, same
    /// envelopes), plus two cluster views:
    ///
    /// | Route | Effect |
    /// |---|---|
    /// | `GET /cluster/metrics` | merged, `shard=`-labelled Prometheus text |
    /// | `GET /cluster/shards` | per-shard pods / load / clock as JSON |
    ///
    /// Configure the cluster (host names, workload apps, tenants)
    /// before handing it over. Submissions and kills route by
    /// hostname/cookie exactly as the library calls do; reads (list,
    /// describe, results, stream) hit the shared directory/store/hubs
    /// without any shard round trip.
    ///
    /// # Errors
    ///
    /// Bind/listen/thread-spawn failures.
    pub fn spawn_cluster(
        addr: impl ToSocketAddrs,
        cluster: Arc<Cluster>,
        config: FrontendConfig,
    ) -> io::Result<QueryFrontend> {
        let (metrics_view, shards_view) = (Arc::clone(&cluster), Arc::clone(&cluster));
        let build = move || {
            let store = cluster
                .store()
                .map(|s| Arc::clone(s) as Arc<dyn ResultBackend>);
            let read_side = (cluster.introspection(), store);
            (cluster, read_side)
        };
        Self::start(addr, config, build, |router| {
            router.route("GET", "/cluster/metrics", move |_req| {
                Response::text(metrics_view.telemetry_report().render_prometheus())
            });
            router.route("GET", "/cluster/shards", move |_req| {
                Response::json(shards_view.shards_json())
            });
        })
    }

    /// Starts the driver thread (which builds its backend in place),
    /// waits for the backend's read side, and binds the HTTP server.
    fn start<B: Backend>(
        addr: impl ToSocketAddrs,
        config: FrontendConfig,
        build: impl FnOnce() -> (B, ReadSide) + Send + 'static,
        extra_routes: impl FnOnce(&mut Router),
    ) -> io::Result<QueryFrontend> {
        let (tx, rx) = mpsc::channel::<Command>();
        let (ready_tx, ready_rx) = mpsc::sync_channel::<ReadSide>(1);
        let hubs = Arc::new(Hubs::default());
        let thread_hubs = Arc::clone(&hubs);
        let thread = std::thread::Builder::new()
            .name("netalytics-frontend".into())
            .spawn(move || {
                let (backend, read_side) = build();
                let metrics = Arc::clone(&read_side.0.registry);
                if ready_tx.send(read_side).is_ok() {
                    drive(backend, &metrics, &rx, &thread_hubs);
                }
            })?;
        let (introspection, store) = ready_rx
            .recv()
            .map_err(|_| io::Error::other("frontend orchestrator failed to start"))?;
        let shared = Arc::new(FrontendShared {
            directory: Arc::clone(&introspection.queries),
            store,
            metrics: Arc::clone(&introspection.registry),
            hubs,
            tx: Mutex::new(tx.clone()),
        });
        let mut router = frontend_router(&shared, &introspection);
        extra_routes(&mut router);
        let server = TelemetryServer::spawn_router(addr, router, config.workers)?;
        Ok(QueryFrontend {
            server,
            tx,
            thread: Some(thread),
            shared,
        })
    }

    /// The bound address (use port 0 to pick an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Programmatic submit, bypassing HTTP but taking the exact same
    /// path through admission and the driver thread.
    ///
    /// # Errors
    ///
    /// The same [`ApiError`]s `POST /queries` returns.
    pub fn submit(&self, tenant: &str, query: &str) -> Result<u64, ApiError> {
        submit_command(&self.tx, tenant, query, None)
    }

    /// Programmatic standing submit — the counterpart of
    /// `POST /queries?standing_every_ms=...`.
    ///
    /// # Errors
    ///
    /// The same [`ApiError`]s the HTTP route returns.
    pub fn submit_standing(
        &self,
        tenant: &str,
        query: &str,
        cfg: StandingConfig,
    ) -> Result<u64, ApiError> {
        submit_command(&self.tx, tenant, query, Some(cfg))
    }

    /// Programmatic kill. `true` when the cookie named a running query.
    pub fn kill(&self, cookie: u64) -> bool {
        matches!(kill_command(&self.tx, cookie), Ok(Ok(_)))
    }

    /// The query directory the HTTP surface serves.
    pub fn directory(&self) -> &Arc<QueryDirectory> {
        &self.shared.directory
    }

    /// `(delivered, shed)` tuple counts across a query's live
    /// subscribers, or `None` for an unknown cookie.
    pub fn stream_stats(&self, cookie: u64) -> Option<(u64, u64)> {
        let hubs = self.shared.hubs.lock();
        hubs.get(&cookie).map(|h| (h.delivered(), h.shed()))
    }
}

impl Drop for QueryFrontend {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Sends a submit to the driver thread and waits for its verdict.
fn submit_command(
    tx: &Sender<Command>,
    tenant: &str,
    query: &str,
    standing: Option<StandingConfig>,
) -> Result<u64, ApiError> {
    let (reply, rx) = mpsc::sync_channel(1);
    tx.send(Command::Submit {
        tenant: tenant.to_string(),
        query: query.to_string(),
        standing,
        reply,
    })
    .map_err(|_| frontend_stalled())?;
    rx.recv_timeout(COMMAND_TIMEOUT)
        .map_err(|_| frontend_stalled())?
}

/// Sends a kill to the driver thread: the teardown summary, `Err(())`
/// inside for an unknown cookie, or the stall error outside.
fn kill_command(tx: &Sender<Command>, cookie: u64) -> Result<Result<String, ()>, ApiError> {
    let (reply, rx) = mpsc::sync_channel(1);
    tx.send(Command::Kill { cookie, reply })
        .map_err(|_| frontend_stalled())?;
    rx.recv_timeout(COMMAND_TIMEOUT)
        .map_err(|_| frontend_stalled())
}

/// The driver thread: applies commands, and between commands runs the
/// backend's control pass. On shutdown it tears down whatever is still
/// running so sinks flush and subscribers see end-of-stream.
fn drive<B: Backend>(
    mut backend: B,
    metrics: &MetricsRegistry,
    rx: &Receiver<Command>,
    hubs: &Hubs,
) {
    let step = SimDuration::from_millis(IDLE_STEP_MS);
    let grace = SimDuration::from_millis(DEADLINE_GRACE_MS);
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(Command::Submit {
                tenant,
                query,
                standing,
                reply,
            }) => {
                let outcome = match backend.submit(&tenant, &query, standing) {
                    Ok((cookie, hub)) => {
                        hubs.lock().insert(cookie, hub);
                        metrics.counter("frontend.submitted", &[]).inc();
                        Ok(cookie)
                    }
                    Err(e) => {
                        metrics.counter("frontend.rejected", &[]).inc();
                        Err(ApiError::from(e))
                    }
                };
                let _ = reply.send(outcome);
            }
            Ok(Command::Kill { cookie, reply }) => {
                let outcome = match backend.kill(cookie) {
                    Some(report) => {
                        metrics.counter("frontend.killed", &[]).inc();
                        Ok(kill_summary_json(cookie, &report))
                    }
                    None => Err(()),
                };
                let _ = reply.send(outcome);
            }
            Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let report = backend.tick(step, grace);
                for (name, kills) in [
                    ("frontend.deadline_kills", report.deadline_kills),
                    ("frontend.unrepairable_kills", report.unrepairable_kills),
                ] {
                    if kills > 0 {
                        metrics.counter(name, &[]).add(kills as u64);
                    }
                }
            }
        }
    }
    backend.kill_all();
}

fn kill_summary_json(cookie: u64, report: &QueryReport) -> String {
    let mut s = format!("{{\"cookie\":{cookie},\"state\":\"killed\",\"results\":[");
    for (i, ((name, set), drained)) in report.results.iter().zip(&report.drained).enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Everything the processor emitted: what the control pass
        // drained while the query ran plus what the kill flushed.
        s.push_str(&format!(
            "{{\"processor\":\"{}\",\"tuples\":{}}}",
            json_escape(name),
            drained + set.tuples.len() as u64
        ));
    }
    s.push_str(&format!(
        "],\"aggregator\":{{\"tuples_in\":{},\"processed\":{},\"dropped\":{}}}}}",
        report.aggregator.tuples_in, report.aggregator.tuples_processed, report.aggregator.dropped
    ));
    s
}

fn tuples_payload(cookie: u64, mode: &str, tuples: &[DataTuple]) -> String {
    let mut s = format!(
        "{{\"cookie\":{cookie},\"mode\":\"{mode}\",\"count\":{},\"tuples\":[",
        tuples.len()
    );
    for (i, t) in tuples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&tuple_json(t));
    }
    s.push_str("]}");
    s
}

/// The full frontend router: introspection routes plus the query
/// lifecycle.
fn frontend_router(shared: &Arc<FrontendShared>, introspection: &Introspection) -> Router {
    let mut router = introspection_router(introspection);

    // Submit: body is the SQL-ish query text; tenant comes from the
    // X-Tenant header or ?tenant=, defaulting to "default".
    let s = Arc::clone(shared);
    router.route("POST", "/queries", move |req| {
        match submit_request(&s, req) {
            Ok(body) => Response::json_status(201, body),
            Err(e) => e.into(),
        }
    });

    let s = Arc::clone(shared);
    router.route(
        "DELETE",
        "/queries/{cookie}",
        move |req| match kill_request(&s, req) {
            Ok(body) => Response::json(body),
            Err(e) => e.into(),
        },
    );

    let s = Arc::clone(shared);
    router.route(
        "GET",
        "/queries/{cookie}/results",
        move |req| match results_request(&s, req) {
            Ok(body) => Response::json(body),
            Err(e) => e.into(),
        },
    );

    let s = Arc::clone(shared);
    router.route(
        "GET",
        "/queries/{cookie}/stream",
        move |req| match stream_request(&s, req) {
            Ok(response) => response,
            Err(e) => e.into(),
        },
    );

    router
}

/// Parses the `standing_*` query parameters into a [`StandingConfig`],
/// or `None` when `standing_every_ms` is absent. Any other `standing_*`
/// parameter without the interval is a user error, not a silent no-op.
fn parse_standing(req: &Request) -> Result<Option<StandingConfig>, ApiError> {
    let Some(every) = req.query_param("standing_every_ms") else {
        for p in ["standing_agg", "standing_field", "standing_group"] {
            if req.query_param(p).is_some() {
                return Err(ApiError::bad_request(format!(
                    "{p} requires standing_every_ms"
                )));
            }
        }
        return Ok(None);
    };
    let every: u64 = every
        .parse()
        .ok()
        .filter(|&ms| ms > 0)
        .ok_or_else(|| ApiError::bad_request("standing_every_ms must be a positive integer"))?;
    let agg_src = req.query_param("standing_agg").unwrap_or("sum");
    let agg = HistoryAgg::parse(agg_src).ok_or_else(|| {
        ApiError::bad_request(format!(
            "standing_agg must be count|sum|min|max|mean|p50|p95|distinct|topk[:k], \
             got \"{agg_src}\""
        ))
    })?;
    let mut cfg = StandingConfig::new(SimDuration::from_millis(every))
        .agg(agg)
        .field(req.query_param("standing_field").unwrap_or("count"));
    if let Some(group) = req.query_param("standing_group") {
        cfg = cfg.group(group);
    }
    Ok(Some(cfg))
}

fn submit_request(shared: &Arc<FrontendShared>, req: &Request) -> Result<String, ApiError> {
    let query = req.body.trim();
    if query.is_empty() {
        return Err(ApiError::bad_request("request body must be the query text"));
    }
    let tenant = req
        .query_param("tenant")
        .or_else(|| req.header("x-tenant"))
        .unwrap_or("default");
    let standing = parse_standing(req)?;
    let cookie = submit_command(&shared.sender(), tenant, query, standing)?;
    let info = shared
        .directory
        .get(cookie)
        .ok_or_else(|| ApiError::new(500, "lost_query", "submitted query vanished"))?;
    Ok(info.render_json())
}

fn kill_request(shared: &Arc<FrontendShared>, req: &Request) -> Result<String, ApiError> {
    let cookie = req.cookie_param("cookie")?;
    kill_command(&shared.sender(), cookie)?.map_err(|()| {
        ApiError::not_found(format!("no running query with cookie {cookie}"))
            .with_detail("already killed, or never submitted")
    })
}

fn results_request(shared: &Arc<FrontendShared>, req: &Request) -> Result<String, ApiError> {
    let cookie = req.cookie_param("cookie")?;
    let store = shared.store.as_ref().ok_or_else(|| {
        ApiError::new(
            404,
            "no_result_store",
            "this frontend was built without a results store",
        )
    })?;
    let mode = req.query_param("mode").unwrap_or("history");
    let store_err =
        |e: netalytics_store::StoreError| ApiError::new(500, "store_error", e.to_string());
    // Optional u64 parameter: absent is fine, garbage is a 400.
    let opt_u64 = |key: &str| -> Result<Option<u64>, ApiError> {
        match req.query_param(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ApiError::bad_request(format!("{key} must be a u64"))),
        }
    };
    match mode {
        "history" => {
            let tuples = store.query_history(cookie).map_err(store_err)?;
            Ok(tuples_payload(cookie, "history", &tuples))
        }
        "latest" => {
            let group = req.query_param("group").unwrap_or("");
            let latest = store.latest(&SeriesKey::new(cookie, group));
            let tuples: Vec<DataTuple> = latest.into_iter().collect();
            Ok(tuples_payload(cookie, "latest", &tuples))
        }
        "range" => {
            let group = req.query_param("group").unwrap_or("");
            let parse = |key: &str| -> Result<u64, ApiError> {
                req.query_param(key)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ApiError::bad_request(format!("{key} must be a u64 (ns)")))
            };
            let (from, to) = (parse("from")?, parse("to")?);
            let tuples = store
                .range(&SeriesKey::new(cookie, group), from, to)
                .map_err(store_err)?;
            Ok(tuples_payload(cookie, "range", &tuples))
        }
        "rollup" => {
            let group = req.query_param("group").unwrap_or("");
            let field = req
                .query_param("field")
                .ok_or_else(|| ApiError::bad_request("rollup mode requires field="))?;
            let from = opt_u64("from")?.unwrap_or(0);
            let to = opt_u64("to")?.unwrap_or(u64::MAX);
            let bucket_ns = match opt_u64("bucket_ms")? {
                Some(ms) => ms.saturating_mul(1_000_000),
                None => store.native_bucket_ns(),
            };
            let points = store
                .rollup(&SeriesKey::new(cookie, group), field, from, to, bucket_ns)
                .map_err(|e| match e {
                    netalytics_store::StoreError::BadBucket { .. } => {
                        ApiError::bad_request(e.to_string())
                    }
                    e => store_err(e),
                })?;
            Ok(rollup_payload(cookie, field, &points))
        }
        "aggregate" => {
            let group = req.query_param("group").unwrap_or("");
            let field = req
                .query_param("field")
                .ok_or_else(|| ApiError::bad_request("aggregate mode requires field="))?;
            let agg_src = req.query_param("agg").unwrap_or("count");
            let agg = HistoryAgg::parse(agg_src).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "agg must be count|sum|min|max|mean|p50|p95|distinct|topk[:k], \
                     got \"{agg_src}\""
                ))
            })?;
            let from = opt_u64("from")?.unwrap_or(0);
            let to = opt_u64("to")?.unwrap_or(u64::MAX);
            let q = HistoryQuery::new(SeriesKey::new(cookie, group), field, from, to, agg);
            let ans = store.history(&q).map_err(store_err)?;
            Ok(aggregate_payload(cookie, &q, &ans))
        }
        other => Err(ApiError::bad_request(format!(
            "mode must be history|latest|range|rollup|aggregate, got \"{other}\""
        ))),
    }
}

/// Finite floats render as numbers; NaN/inf (an empty bucket's min/max)
/// as null, matching [`value_json`].
fn num_json(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn rollup_payload(cookie: u64, field: &str, points: &[RollupPoint]) -> String {
    let mut s = format!(
        "{{\"cookie\":{cookie},\"mode\":\"rollup\",\"field\":\"{}\",\"count\":{},\"buckets\":[",
        json_escape(field),
        points.len()
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"bucket_start\":{},\"bucket_ns\":{},\"count\":{},\"sum\":{},\"min\":{},\
             \"max\":{},\"mean\":{},\"p50\":{},\"p95\":{}}}",
            p.bucket_start,
            p.bucket_ns,
            p.count,
            num_json(p.sum),
            num_json(p.min),
            num_json(p.max),
            num_json(p.mean()),
            p.p50(),
            p.p95()
        ));
    }
    s.push_str("]}");
    s
}

fn aggregate_payload(cookie: u64, q: &HistoryQuery, ans: &HistoryAnswer) -> String {
    let mut s = format!(
        "{{\"cookie\":{cookie},\"mode\":\"aggregate\",\"agg\":\"{}\",\"field\":\"{}\",\
         \"count\":{},\"value\":",
        json_escape(&q.agg.name()),
        json_escape(&q.field),
        ans.count
    );
    match &ans.value {
        AggValue::Empty => s.push_str("null"),
        AggValue::Count(n) => s.push_str(&n.to_string()),
        AggValue::Value(v) => s.push_str(&num_json(*v)),
        AggValue::Quantile(v) => s.push_str(&v.to_string()),
        AggValue::Distinct(n) => s.push_str(&n.to_string()),
        AggValue::TopK(top) => {
            s.push('[');
            for (i, (key, n)) in top.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"key\":\"{}\",\"count\":{n}}}",
                    json_escape(key)
                ));
            }
            s.push(']');
        }
    }
    s.push_str(&format!(
        ",\"exact\":{},\"plan\":{{\"pushdown\":{},\"segment_cells\":{},\"persisted_cells\":{},\
         \"coarse_cells\":{},\"raw_tuples\":{},\"frames_read\":{},\"tuples_decoded\":{},\
         \"segments_scanned\":{}}}}}",
        ans.plan.exact,
        ans.plan.pushdown,
        ans.plan.segment_cells,
        ans.plan.persisted_cells,
        ans.plan.coarse_cells,
        ans.plan.raw_tuples,
        ans.plan.frames_read,
        ans.plan.tuples_decoded,
        ans.plan.segments_scanned
    ));
    s
}

fn stream_request(shared: &Arc<FrontendShared>, req: &Request) -> Result<Response, ApiError> {
    let cookie = req.cookie_param("cookie")?;
    let hub = shared
        .hubs
        .lock()
        .get(&cookie)
        .cloned()
        .ok_or_else(|| ApiError::not_found(format!("unknown cookie {cookie}")))?;
    // `?max=N` ends the stream after N lines — handy for scripted
    // clients that would otherwise have to cut the connection.
    let max: Option<u64> = req.query_param("max").and_then(|v| v.parse().ok());
    let metrics = Arc::clone(&shared.metrics);
    metrics.counter("frontend.streams_opened", &[]).inc();
    let lines_counter = metrics.counter("frontend.stream_lines", &[]);
    Ok(Response::ndjson_stream(move |w| {
        let sub = hub.subscribe();
        let mut sent = 0u64;
        loop {
            if max.is_some_and(|m| sent >= m) {
                break;
            }
            match sub.recv_timeout(Duration::from_millis(100)) {
                Ok(tuple) => {
                    if w.send_line(&tuple_json(&tuple)).is_err() {
                        break; // client hung up
                    }
                    sent += 1;
                    lines_counter.inc();
                }
                // Query killed: end of stream.
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle; write an empty keepalive line so client
                    // disconnects surface even on quiet queries.
                    if w.send_line("").is_err() {
                        break;
                    }
                }
            }
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orchestrator_errors_map_to_stable_envelope() {
        let cases: Vec<(OrchestratorError, u16, &str)> = vec![
            (
                OrchestratorError::NoMonitorableEndpoint,
                422,
                "no_monitorable_endpoint",
            ),
            (OrchestratorError::NoFreeHost, 503, "no_free_host"),
            (OrchestratorError::HostDown(3), 503, "host_down"),
            (
                OrchestratorError::ReplacementFailed { cookie: 1, host: 2 },
                500,
                "replacement_failed",
            ),
            (OrchestratorError::Timeout, 504, "recovery_timeout"),
            (OrchestratorError::NoResultStore, 422, "no_result_store"),
            (
                OrchestratorError::Admission(AdmissionError::UnknownTenant { tenant: "x".into() }),
                403,
                "unknown_tenant",
            ),
            (
                OrchestratorError::Admission(AdmissionError::ConcurrentQueries {
                    tenant: "x".into(),
                    running: 2,
                    limit: 2,
                }),
                429,
                "quota_concurrent_queries",
            ),
        ];
        for (err, status, code) in cases {
            let api = ApiError::from(err);
            assert_eq!((api.status, api.code.as_str()), (status, code));
            assert!(!api.message.is_empty());
        }
    }

    #[test]
    fn tuple_json_renders_every_value_kind() {
        let t = DataTuple::new(7, 1_000)
            .from_source("bolt")
            .with("url", "/a\"b")
            .with("n", 3u64)
            .with("neg", -4i64)
            .with("f", 1.5f64)
            .with("ok", true);
        let json = tuple_json(&t);
        assert!(json.starts_with("{\"id\":7,\"ts_ns\":1000,\"source\":\"bolt\""));
        assert!(json.contains("\"url\":\"/a\\\"b\""));
        assert!(json.contains("\"n\":3"));
        assert!(json.contains("\"neg\":-4"));
        assert!(json.contains("\"f\":1.5"));
        assert!(json.contains("\"ok\":true"));
        let nan = DataTuple::new(1, 1).with("bad", f64::NAN);
        assert!(tuple_json(&nan).contains("\"bad\":null"), "NaN → null");
    }

    #[test]
    fn payload_helpers_produce_wellformed_json() {
        let tuples = vec![
            DataTuple::new(1, 10).with("k", "a"),
            DataTuple::new(2, 20).with("k", "b"),
        ];
        let body = tuples_payload(42, "history", &tuples);
        assert!(body.starts_with("{\"cookie\":42,\"mode\":\"history\",\"count\":2,"));
        assert!(body.ends_with("]}"));
        assert_eq!(body.matches("\"id\":").count(), 2);
    }
}
