//! Field-name interning: the schema registry behind the columnar path.
//!
//! Row-oriented [`DataTuple`]s carry every field name as a heap `String`,
//! so the hot path pays an allocation and a byte-compare per field
//! lookup. The columnar path replaces names with [`FieldId`]s — small
//! dense integers handed out by a process-wide interner — so batches
//! store one `u32` per column and field lookups are integer compares.
//!
//! Interning is the cold path: parsers and bolts intern their field
//! names once at startup and keep the `FieldId`s. The registry is a
//! `RwLock` over an append-only table; the read lock is taken once per
//! distinct name per batch (conversion of foreign tuples, and
//! [`FieldId::name`] while a batch encodes or turns back into rows) and
//! never per tuple. Names are leaked into `'static` storage on first
//! intern, so a resolved `&'static str` outlives the lock.
//!
//! [`DataTuple`]: crate::DataTuple
//!
//! # Examples
//!
//! ```
//! use netalytics_data::FieldId;
//!
//! let url = FieldId::intern("url");
//! assert_eq!(url, FieldId::intern("url"));
//! assert_eq!(url.name(), "url");
//! ```

use std::collections::HashMap;
use std::sync::OnceLock;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// An interned field name: a dense `u32` handle into the process-wide
/// [`Schema`] registry.
///
/// Ids are stable for the lifetime of the process (the registry is
/// append-only) but are **not** stable across processes — the columnar
/// wire format ships a per-batch name dictionary and re-interns on
/// decode instead of trusting raw ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FieldId(pub u32);

impl FieldId {
    /// Interns `name`, returning its id (allocating one on first sight).
    pub fn intern(name: &str) -> FieldId {
        Schema::global().intern(name)
    }

    /// Resolves the id back to its name.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by [`FieldId::intern`] in this
    /// process (e.g. deserialized from another process's table).
    pub fn name(self) -> &'static str {
        Schema::global()
            .resolve(self)
            .expect("FieldId not present in this process's schema registry")
    }
}

impl std::fmt::Display for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match Schema::global().resolve(*self) {
            Some(name) => f.write_str(name),
            None => write!(f, "field#{}", self.0),
        }
    }
}

/// The process-wide field-name interner.
///
/// One instance exists per process ([`Schema::global`]); all columnar
/// batches share it so a [`FieldId`] means the same name everywhere.
pub struct Schema {
    // cold path: interning happens once per distinct name, never per tuple.
    inner: RwLock<SchemaInner>,
}

#[derive(Default)]
struct SchemaInner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

impl Schema {
    /// The process-wide registry.
    pub fn global() -> &'static Schema {
        static GLOBAL: OnceLock<Schema> = OnceLock::new();
        GLOBAL.get_or_init(|| Schema {
            inner: RwLock::new(SchemaInner::default()),
        })
    }

    /// Interns `name`, returning its [`FieldId`].
    pub fn intern(&self, name: &str) -> FieldId {
        // cold path: hit the read lock only when resolving a name to an
        // id; callers cache the returned FieldId.
        // cold path
        if let Some(&id) = self.inner.read().ids.get(name) {
            return FieldId(id);
        }
        let mut w = self.inner.write(); // cold path: first sight of a name
        if let Some(&id) = w.ids.get(name) {
            return FieldId(id);
        }
        // Leak the name so resolution hands out &'static str. Bounded by
        // the number of distinct field names, which is tiny and fixed.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = w.names.len() as u32;
        w.names.push(leaked);
        w.ids.insert(leaked, id);
        FieldId(id)
    }

    /// Returns the name behind `id`, or `None` for a foreign id.
    pub fn resolve(&self, id: FieldId) -> Option<&'static str> {
        self.inner.read().names.get(id.0 as usize).copied() // cold path
    }

    /// Number of names interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().names.len() // cold path
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = FieldId::intern("schema_test_url");
        let b = FieldId::intern("schema_test_url");
        assert_eq!(a, b);
        assert_eq!(a.name(), "schema_test_url");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = FieldId::intern("schema_test_a");
        let b = FieldId::intern("schema_test_b");
        assert_ne!(a, b);
        assert_eq!(a.name(), "schema_test_a");
        assert_eq!(b.name(), "schema_test_b");
    }

    #[test]
    fn foreign_id_resolves_to_none() {
        assert_eq!(Schema::global().resolve(FieldId(u32::MAX)), None);
        assert!(FieldId(u32::MAX).to_string().contains("field#"));
    }

    #[test]
    fn display_shows_name() {
        let id = FieldId::intern("schema_test_display");
        assert_eq!(id.to_string(), "schema_test_display");
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| FieldId::intern("schema_test_race")))
            .collect();
        let ids: Vec<FieldId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
