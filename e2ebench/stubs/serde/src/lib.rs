//! Offline stand-in for `serde`: the two trait names plus derives that
//! expand to nothing (see `serde_derive`).

pub use serde_derive::{Deserialize, Serialize};

/// Marker standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
