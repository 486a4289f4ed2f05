//! The building-block bolts of paper Table 2.
//!
//! | Block | Description |
//! |---|---|
//! | `top-k` | k largest values of the stream |
//! | `max`/`min` | smallest/largest value of the stream |
//! | `sum` | total sum of the stream |
//! | `avg` | average value of the stream |
//! | `diff` | difference of two streams |
//! | `group` | group results by one or more attributes |
//!
//! Plus `histogram`/`cdf` used by the §7 case-study figures, and the
//! key-extraction bolt that plays the paper's "Parsing Bolt" role in the
//! top-k topology (Fig. 4).

mod agg;
mod count;
mod diff;
mod generic_join;
mod histogram;
mod join;
mod key;
mod rank;
mod sketch;
mod subscription;

pub use agg::{AggBolt, AggOp, UnknownAggOp};
pub use count::RollingCountBolt;
pub use diff::DiffBolt;
pub use generic_join::{JoinBolt, JoinStats};
pub use histogram::{CdfBolt, HistogramBolt};
pub use join::RequestTimeJoinBolt;
pub use key::KeyExtractBolt;
pub use rank::RankBolt;
pub use sketch::{SketchBolt, SketchCounters};
pub use subscription::{Subscription, SubscriptionHub, SubscriptionSink, DEFAULT_SUBSCRIBER_DEPTH};
