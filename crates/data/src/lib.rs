//! Record model and wire codec shared across the NetAlytics stack.
//!
//! The NetAlytics paper (§3.1) has NFV monitors emit small *data tuples* —
//! an ID (usually the hash of the packet 5-tuple) plus a handful of typed
//! fields — which flow through the aggregation layer (Kafka in the paper,
//! `netalytics-queue` here) into the stream processor (Storm in the paper,
//! `netalytics-stream` here).
//!
//! This crate defines that record model:
//!
//! * [`Value`] — a small dynamically-typed scalar.
//! * [`DataTuple`] — an identified, timestamped bag of named [`Value`]s.
//! * [`TupleBatch`] — a batch of rows: what executors and bolts take,
//!   and the store's on-disk record.
//! * [`ColumnBatch`] — the same records transposed: what monitors seal
//!   and the only frame on a wire, emulated or queued (§3.1 batching;
//!   stand-in for the JSON/Kafka encoding of §5.2).
//! * [`codec`] — the compact, dependency-free binary row encoding.
//!
//! # Examples
//!
//! ```
//! use netalytics_data::{DataTuple, Value};
//!
//! let t = DataTuple::new(0xfeed, 42)
//!     .with("url", "/index.html")
//!     .with("bytes", 512u64);
//! assert_eq!(t.get("url").and_then(Value::as_str), Some("/index.html"));
//! let bytes = t.encode();
//! let back = DataTuple::decode(&mut bytes.clone()).unwrap();
//! assert_eq!(t, back);
//! ```

pub mod codec;
pub mod columns;
pub mod ring;
pub mod schema;
pub mod transport;
pub mod tuple;
pub mod value;

pub use codec::{CodecError, Decode, Encode};
pub use columns::{BatchBuilder, ColumnBatch, StrColumn, COLUMNAR_MAGIC};
pub use ring::{spsc, Consumer, PopError, Producer, PushError};
pub use schema::{FieldId, Schema};
pub use transport::{BatchSink, CollectSink, SinkClosed};
pub use tuple::{DataTuple, TraceCtx, TupleBatch};
pub use value::Value;
