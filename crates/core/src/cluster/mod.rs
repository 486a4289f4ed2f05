//! Scale-out control plane: sharded orchestration over one fat-tree.
//!
//! A single [`crate::Orchestrator`] is deliberately single-threaded —
//! fine for one pod's worth of queries, but placement, heartbeat
//! tracking and reconcile all serialize on that one thread. The
//! [`Cluster`] shards the control plane instead: the fat-tree's `k`
//! pods split into contiguous ranges, each owned by one orchestrator
//! shard on its own thread, with a thin coordinator that
//!
//! * routes submissions to the shard owning the named host (falling
//!   back to least-loaded) and cookie-addressed calls by the shard
//!   index encoded in the cookie's high 32 bits,
//! * merges the shards' views: one shared [`crate::QueryDirectory`],
//!   one shared [`crate::Journal`], shard-labelled metrics via
//!   [`Cluster::telemetry_report`],
//! * drives chaos at pod granularity — [`Cluster::fail_pod`] downs
//!   every host in a pod, their uplinks, and the colocated replica of
//!   the shared store,
//! * and is served over HTTP by the one frontend,
//!   [`crate::QueryFrontend::spawn_cluster`] — the single-node
//!   lifecycle API plus two `/cluster/*` views.
//!
//! Lifecycle enforcement is not duplicated here: [`Cluster::tick`] fans
//! [`crate::Orchestrator::tick`] out to every shard, and each shard's
//! orchestrator registry is the only record of what it runs.
//!
//! Durability scales out with it: shards share one
//! [`netalytics_store::ShardedStore`], which hashes each
//! `(cookie, group)` series onto a store shard and writes every append
//! to all live replicas of that shard, so result history and
//! standing-query watermarks survive store-node loss (reads fail over
//! to the first live replica).
//!
//! See DESIGN.md §13 for the full design.

mod coordinator;
mod shard;

pub use coordinator::{Cluster, ClusterConfig, PodKillReport, ShardSummary};
