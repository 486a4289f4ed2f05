//! Storm-style stream processing for the NetAlytics reproduction.
//!
//! The paper analyzes monitor output with Apache Storm (§2.2, §3.2): a
//! topology is a DAG of "spouts" (sources) and "bolts" (processors), with
//! stream groupings deciding which parallel instance of a bolt sees which
//! tuple. This crate implements that model:
//!
//! * [`Bolt`]/[`Grouping`]/[`Topology`] — the DAG abstraction.
//! * [`bolts`] — the Table 2 building blocks (`top-k`, `sum`, `avg`,
//!   `max`/`min`, `diff`, `group`) plus histogram/CDF collectors.
//! * [`topologies`] — the named catalog the query language's `PROCESS`
//!   clause refers to, including the paper's Fig. 4 top-k topology
//!   (Parsing → Counting → local Rank → global Rank).
//! * [`Executor`] — the unified batch-first engine interface; construct
//!   one with [`build_executor`] and an [`ExecutorMode`].
//! * [`InlineExecutor`] — deterministic, for the discrete-event plane.
//! * [`ShardedExecutor`] — the threaded lane: one thread per shard
//!   owning partition-disjoint bolt instances, exchanging tuple slabs
//!   over lock-free SPSC rings under a [`BackpressurePolicy`]; `shards`
//!   is the Fig. 6 "Storm workers" axis.
//! * [`QueueSpout`] — decodes column frames off the Kafka-style queue;
//!   [`spout::drive`] is the poll → offer → tick loop that carries them
//!   into an executor.
//!
//! # Examples
//!
//! ```
//! use netalytics_data::{DataTuple, Value};
//! use netalytics_stream::{topologies, InlineExecutor};
//! use netalytics_stream::topologies::ProcessorSpec;
//!
//! let topo = topologies::build(
//!     &ProcessorSpec::new("top-k").with_arg("k", "1").with_arg("key", "url"),
//! )?;
//! let mut exec = InlineExecutor::new(&topo);
//! for (i, url) in ["/a", "/b", "/a"].iter().enumerate() {
//!     exec.push(DataTuple::new(i as u64, 0).with("url", *url));
//! }
//! exec.finish(1);
//! let out = exec.take_output();
//! assert_eq!(out[0].get("key").and_then(Value::as_str), Some("/a"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bolt;
pub mod bolts;
pub mod executor;
pub mod inline;
pub mod sharded;
pub mod spout;
pub mod topologies;
pub mod topology;

pub use bolt::{Bolt, BoltFactory, Grouping};
pub use bolts::{Subscription, SubscriptionHub, SubscriptionSink};
pub use executor::{
    build_executor, build_executor_traced, build_executor_with, BackpressurePolicy, Executor,
    ExecutorMode,
};
pub use inline::InlineExecutor;
pub use sharded::{ShardedConfig, ShardedExecutor};
pub use spout::{QueueSpout, Spout};
pub use topologies::{CatalogError, ProcessorSpec, CATALOG};
pub use topology::{BoltId, SourceRef, Topology, TopologyBuilder, TopologyError};
