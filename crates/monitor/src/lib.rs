//! NFV packet monitor for the NetAlytics reproduction (paper §3.1, §5).
//!
//! A *monitor* is a software network function that receives a mirrored
//! packet stream, runs one or more protocol [`Parser`]s over every sampled
//! packet, and emits compact column batches of data tuples toward the aggregation
//! layer. The paper builds this on DPDK; we reproduce its architecture —
//! zero-copy fan-out, per-parser queues and workers, early drops, batching
//! — on top of refcounted packet buffers and lock-free channels.
//!
//! Two execution forms drive the same lane core (parsers → column
//! builder → parser flush → pre-aggregation fold → sealed, trace-stamped
//! column batch):
//!
//! * [`Monitor`] — inline, deterministic; used on the discrete-event
//!   plane, on the virtual clock.
//! * [`Pipeline`] — threaded (collector + per-parser workers + shipper),
//!   on the wall clock; the form the end-to-end benchmark and Fig. 6 run.
//!
//! Sampling is by flow, not packet ([`FlowSampler`]), and adapts to
//! aggregation-layer back-pressure ([`FeedbackSignal`], §4.2).
//!
//! # Examples
//!
//! ```
//! use netalytics_monitor::{Monitor, MonitorConfig, SampleSpec};
//! use netalytics_packet::{http, Packet, TcpFlags};
//!
//! let mut monitor = Monitor::new(MonitorConfig {
//!     parsers: vec!["http_get".into(), "tcp_conn_time".into()],
//!     sample: SampleSpec::Auto,
//!     batch_size: 32,
//!     preagg: None,
//! })?;
//!
//! let syn = Packet::tcp("10.0.2.8".parse()?, 5555, "10.0.2.9".parse()?, 80,
//!                       TcpFlags::SYN, 0, 0, b"");
//! let get = Packet::tcp("10.0.2.8".parse()?, 5555, "10.0.2.9".parse()?, 80,
//!                       TcpFlags::PSH | TcpFlags::ACK, 1, 1,
//!                       &http::build_get("/index.html", "h1"));
//! monitor.process(&syn);
//! monitor.process(&get);
//! let tuples: usize = monitor.drain(0).iter().map(|b| b.len()).sum();
//! assert_eq!(tuples, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod lane;
pub mod monitor;
pub mod parser;
pub mod parsers;
pub mod pipeline;
pub mod sampler;

pub use monitor::{Monitor, MonitorConfig, MonitorError, MonitorStats};
pub use parser::{make_parser, Parser, STOCK_PARSERS};
pub use pipeline::{Pipeline, PipelineConfig, PipelineCounters, PipelineSummary};
pub use sampler::{FeedbackSignal, FlowSampler, SampleSpec};
