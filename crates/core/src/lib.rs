//! **NetAlytics** — non-intrusive, cloud-scale application performance
//! monitoring with SDN and NFV (Liu, Trotter, Ren & Wood, Middleware'16),
//! reproduced in Rust over an emulated data center.
//!
//! An administrator submits a SQL-like query; NetAlytics compiles it into
//! OpenFlow mirror rules, deploys NFV packet monitors next to the traffic
//! they tap, aggregates the extracted tuples Kafka-style and analyzes
//! them with a Storm-style topology — returning application-level insight
//! without touching the application (paper Fig. 1).
//!
//! This crate is the orchestrator tying the substrate crates together:
//!
//! * [`Orchestrator`] — query → rules → monitors → analytics → results.
//! * [`MonitorApp`]/[`AggregatorApp`] — the deployed NFV processes.
//! * [`ResultSet`]/[`QueryReport`] — the result interface.
//!
//! # Examples
//!
//! Monitoring HTTP GETs to a web host and ranking URLs:
//!
//! ```
//! use netalytics::{Orchestrator};
//! use netalytics_apps::{ClientApp, Conversation, sample_sink, StaticHttpBehavior, TierApp};
//! use netalytics_netsim::{SimDuration, SimTime};
//! use netalytics_packet::http;
//!
//! let mut orch = Orchestrator::builder(4).build();
//! // A web server on host 1 and a client on host 0.
//! orch.name_host("web", 1);
//! let web_ip = orch.host_ip(1);
//! orch.deploy_app(1, Box::new(TierApp::new(80, Box::new(StaticHttpBehavior::new(2.0, 7)))));
//! let sink = sample_sink();
//! let schedule = (0..20).map(|i| (
//!     SimTime::from_nanos(i * 5_000_000),
//!     Conversation {
//!         dst: (web_ip, 80),
//!         requests: vec![http::build_get(if i % 3 == 0 { "/hot" } else { "/cold" }, "web")],
//!         tag: String::new(),
//!     },
//! )).collect();
//! orch.deploy_app(0, Box::new(ClientApp::new(schedule, sink)));
//!
//! let report = orch.run_query(
//!     "PARSE http_get FROM * TO web:80 LIMIT 1s SAMPLE * PROCESS (top-k: k=2, key=url)",
//!     SimDuration::from_secs(1),
//! )?;
//! let ranking = report.first().final_ranking();
//! assert_eq!(ranking[0].0, "/cold");
//! # Ok::<(), netalytics::OrchestratorError>(())
//! ```

pub mod admission;
pub mod cluster;
pub mod frontend;
pub mod nfv;
pub mod orchestrator;
pub mod results;

pub use admission::{
    AdmissionController, AdmissionError, ResourceDemand, Tenant, TenantQuota, DEFAULT_TENANT,
};
pub use cluster::{Cluster, ClusterConfig, PodKillReport};
pub use frontend::{tuple_json, FrontendConfig, QueryFrontend};
pub use nfv::{
    shared_executor, shared_executor_with, AggregatorApp, AggregatorHandle, AggregatorShared,
    MonitorApp, MonitorHandle, MonitorShared, SharedExecutor, BATCH_PORT, FEEDBACK_PORT,
};
pub use orchestrator::{
    FailurePolicy, MonitorSlot, Orchestrator, OrchestratorBuilder, OrchestratorError, QueryHandle,
    QueryReport, ReconcileReport, RunningQuery, StandingConfig, TickReport,
};
pub use results::ResultSet;
// Live-subscription surface re-exported from the stream layer, so
// `QueryHandle::subscribe` is usable with only this crate imported.
pub use netalytics_stream::{Subscription, SubscriptionHub};
// Storage-layer surface used by the orchestrator's result-store API.
pub use netalytics_store::{
    AggValue, FieldFilter, FilterOp, HistoryAgg, HistoryAnswer, HistoryQuery, ResultBackend,
    SeriesKey, ShardedConfig, ShardedStats, ShardedStore, StoreConfig, TimeSeriesStore,
};
// Introspection surface: the tracer, flight recorder, query directory
// and HTTP endpoint the orchestrator bundles via `Orchestrator::serve`.
pub use netalytics_telemetry::{
    ApiError, EventKind, Introspection, Journal, QueryDirectory, QueryInfo, QueryState, Request,
    Response, Router, TelemetryServer, TraceConfig, Tracer,
};
