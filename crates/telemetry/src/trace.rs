//! Query-scoped tracing: where did *this query's* batches spend their
//! time?
//!
//! The [`MetricsRegistry`] answers "how much / how fast" in aggregate;
//! this module answers the per-query question. A parser head-samples one
//! batch in N and stamps it with a `TraceCtx { cookie, batch_id,
//! born_ns }` (defined in `netalytics-data`, carried inside the batch
//! across the wire). Every stage the batch visits — parse, queue, spout
//! decode, bolt chain, store commit — calls
//! [`Tracer::record_span`], which:
//!
//! * pushes a [`Span`] into a lock-free per-worker slot ring (a full
//!   slot drops the span and counts it, never blocks the data path),
//! * feeds the duration into a `trace.stage_ns{cookie=,stage=}`
//!   histogram on the shared registry, so stage latency distributions
//!   merge and scrape like any other series.
//!
//! The scrape/query side ([`Tracer::waterfalls`]) drains the rings,
//! groups spans by `(cookie, batch_id)` and keeps a bounded set of
//! exemplars per query — the K slowest end-to-end traces — each a full
//! span waterfall.
//!
//! Sampling is the overhead control: at the default 1-in-64 the
//! unsampled hot path pays one relaxed `fetch_add` per batch, and the
//! sampled path a handful of atomics plus one short-lived allocation
//! per stage, keeping tracing inside the 5 % telemetry budget (read as
//! the end-to-end benchmark's `bench.trace_overhead_pct`).

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::histogram::Histogram;
use crate::registry::{json_escape, MetricsRegistry};

/// Monotonic wall-clock nanoseconds since the first call in this
/// process — the threaded plane's trace clock. The emulated plane
/// passes its virtual clock instead; the two never mix within one
/// trace, because a batch lives on exactly one plane.
pub fn wall_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One stage visit by one traced batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage name: `parse`, `queue`, `spout`, `bolt:<name>`, `store`.
    pub stage: String,
    /// Stage entry time, same clock domain as the batch's `born_ns`.
    pub start_ns: u64,
    /// Time spent in the stage.
    pub dur_ns: u64,
}

impl Span {
    /// Stage exit time.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// A span tagged with the trace it belongs to — the unit the rings carry.
#[derive(Clone, Debug)]
struct SpanRecord {
    cookie: u64,
    batch_id: u64,
    born_ns: u64,
    span: Span,
}

const SLOT_EMPTY: u8 = 0;
const SLOT_WRITING: u8 = 1;
const SLOT_FULL: u8 = 2;

struct Slot {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<SpanRecord>>,
}

/// Lock-free bounded span buffer: producers claim a slot with one
/// `fetch_add` plus one CAS and never block; a slot still holding an
/// undrained span rejects the write (the span is dropped and counted).
/// The drain side is serialized by the tracer's collection mutex.
struct SpanShard {
    slots: Box<[Slot]>,
    mask: usize,
    /// Free-running claim cursor; the slot is `claim & mask`.
    claim: AtomicUsize,
}

// Safety: SpanRecord is Send; the slot state machine (EMPTY → WRITING →
// FULL → EMPTY) gives whoever wins the CAS exclusive access to the cell,
// and the single drainer only reads FULL slots.
unsafe impl Send for SpanShard {}
unsafe impl Sync for SpanShard {}

impl SpanShard {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..cap)
            .map(|_| Slot {
                state: AtomicU8::new(SLOT_EMPTY),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        SpanShard {
            slots,
            mask: cap - 1,
            claim: AtomicUsize::new(0),
        }
    }

    /// Non-blocking insert; `false` means the claimed slot was still
    /// full (the ring wrapped before a drain) and the record was dropped.
    fn push(&self, rec: SpanRecord) -> bool {
        let idx = self.claim.fetch_add(1, Ordering::Relaxed) & self.mask;
        let slot = &self.slots[idx];
        // Acquire pairs with the drainer's Release hand-back so the
        // winner sees the cell as vacated.
        if slot
            .state
            .compare_exchange(
                SLOT_EMPTY,
                SLOT_WRITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return false;
        }
        unsafe { (*slot.value.get()).write(rec) };
        // Release publishes the cell write to the drainer's Acquire load.
        slot.state.store(SLOT_FULL, Ordering::Release);
        true
    }

    /// Moves every full slot into `out`. Caller must be the sole drainer.
    fn drain_into(&self, out: &mut Vec<SpanRecord>) {
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::Acquire) == SLOT_FULL {
                let rec = unsafe { (*slot.value.get()).assume_init_read() };
                slot.state.store(SLOT_EMPTY, Ordering::Release);
                out.push(rec);
            }
        }
    }
}

impl Drop for SpanShard {
    fn drop(&mut self) {
        // Sole owner at this point: drop whatever is still in flight.
        for slot in self.slots.iter_mut() {
            if *slot.state.get_mut() == SLOT_FULL {
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Tracer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Head-sampling rate: trace one batch in `sample_every` (1 = all).
    pub sample_every: u64,
    /// Slowest end-to-end exemplar traces retained per query cookie.
    pub exemplars_per_query: usize,
    /// Span-buffer shards (≈ worker threads sharing the tracer).
    pub shards: usize,
    /// Slots per shard; spans past this between scrapes are dropped.
    pub shard_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            exemplars_per_query: 4,
            shards: 8,
            shard_capacity: 1024,
        }
    }
}

/// Spans of one sampled batch, accumulated across drains.
struct TraceRun {
    born_ns: u64,
    spans: Vec<Span>,
}

impl TraceRun {
    /// End-to-end latency so far: last span end minus birth.
    fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .map(Span::end_ns)
            .max()
            .unwrap_or(self.born_ns)
            .saturating_sub(self.born_ns)
    }
}

/// Collected traces, grouped per sampled batch. Cold path only.
#[derive(Default)]
struct TraceTable {
    runs: BTreeMap<(u64, u64), TraceRun>,
    scratch: Vec<SpanRecord>,
}

impl TraceTable {
    /// Bounds the per-cookie run set: keep the `keep_slowest` largest
    /// end-to-end totals plus the `keep_recent` newest batch ids (which
    /// may still be accumulating spans), evict the rest.
    fn prune_cookie(&mut self, cookie: u64, keep_slowest: usize, keep_recent: usize) {
        let ids: Vec<(u64, u64)> = self
            .runs
            .range((cookie, 0)..=(cookie, u64::MAX))
            .map(|(&(_, b), run)| (b, run.total_ns()))
            .collect();
        if ids.len() <= keep_slowest + keep_recent {
            return;
        }
        let mut keep: BTreeSet<u64> = ids
            .iter()
            .rev()
            .take(keep_recent)
            .map(|&(b, _)| b)
            .collect();
        let mut by_total = ids.clone();
        by_total.sort_by_key(|&(b, t)| std::cmp::Reverse((t, b)));
        for &(b, _) in by_total.iter().take(keep_slowest) {
            keep.insert(b);
        }
        for (b, _) in ids {
            if !keep.contains(&b) {
                self.runs.remove(&(cookie, b));
            }
        }
    }
}

/// A fully assembled span waterfall: one of the K slowest sampled
/// batches of a query.
#[derive(Clone, Debug)]
pub struct TraceExemplar {
    pub cookie: u64,
    pub batch_id: u64,
    /// Capture time of the batch's oldest tuple.
    pub born_ns: u64,
    /// End-to-end latency: last span end minus `born_ns`.
    pub total_ns: u64,
    /// Spans sorted by start time.
    pub spans: Vec<Span>,
}

/// The query-scoped tracing plane. One per orchestrator, shared as an
/// `Arc` by every stage; all methods take `&self` and are thread-safe.
pub struct Tracer {
    cfg: TraceConfig,
    /// Free-running batch sequence; doubles as the sampling clock.
    batch_seq: AtomicU64,
    shards: Box<[SpanShard]>,
    sampled: AtomicU64,
    dropped: AtomicU64,
    /// Exemplar assembly; locked only on the scrape/query path.
    collected: Mutex<TraceTable>,
    /// Cached `trace.stage_ns{cookie=,stage=}` handles so the sampled
    /// path registers each series once, not per span.
    stage_hists: Mutex<HashMap<(u64, String), Arc<Histogram>>>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sampled", &self.spans_sampled())
            .field("dropped", &self.spans_dropped())
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Creates a tracer without a registry: spans and exemplars only,
    /// no `trace.stage_ns` series.
    pub fn new(cfg: TraceConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Creates a tracer that also feeds per-stage latency into
    /// `trace.stage_ns{cookie=,stage=}` histograms on `registry`.
    pub fn with_registry(cfg: TraceConfig, registry: Arc<MetricsRegistry>) -> Self {
        Self::build(cfg, Some(registry))
    }

    fn build(cfg: TraceConfig, registry: Option<Arc<MetricsRegistry>>) -> Self {
        let shards: Box<[SpanShard]> = (0..cfg.shards.max(1))
            .map(|_| SpanShard::new(cfg.shard_capacity))
            .collect();
        Tracer {
            cfg,
            batch_seq: AtomicU64::new(0),
            shards,
            sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            collected: Mutex::new(TraceTable::default()),
            stage_hists: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The tracer's configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Head-sampling decision for a freshly sealed batch: `Some(id)`
    /// one time in `sample_every`, `None` otherwise. The unsampled path
    /// is a single relaxed `fetch_add`.
    #[inline]
    pub fn sample_batch(&self) -> Option<u64> {
        let seq = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.cfg.sample_every.max(1)) {
            return None;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        // Ids start at 1 so 0 can mean "absent" in dumps.
        Some(seq + 1)
    }

    /// Records one stage span of a traced batch. `worker` picks the
    /// span-buffer shard (pass a stable worker/thread index; it wraps).
    /// Called only for sampled batches, so its cost — a slot push, a
    /// histogram record, one short map lock — is paid 1-in-N times.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        worker: usize,
        cookie: u64,
        batch_id: u64,
        born_ns: u64,
        stage: &str,
        start_ns: u64,
        end_ns: u64,
    ) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        let rec = SpanRecord {
            cookie,
            batch_id,
            born_ns,
            span: Span {
                stage: stage.to_string(),
                start_ns,
                dur_ns,
            },
        };
        if !self.shards[worker % self.shards.len()].push(rec) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(reg) = &self.registry {
            let h = {
                let mut hists = self.stage_hists.lock(); // per sampled span, not per tuple
                hists
                    .entry((cookie, stage.to_string()))
                    .or_insert_with(|| {
                        let cookie_label = cookie.to_string();
                        reg.histogram(
                            "trace.stage_ns",
                            &[("cookie", cookie_label.as_str()), ("stage", stage)],
                        )
                    })
                    .clone()
            };
            h.record(dur_ns);
        }
    }

    /// Batches sampled so far.
    pub fn spans_sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Spans dropped because a shard wrapped between drains.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn drain_locked(&self, table: &mut TraceTable) {
        let mut scratch = std::mem::take(&mut table.scratch);
        scratch.clear();
        for shard in self.shards.iter() {
            shard.drain_into(&mut scratch);
        }
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for rec in scratch.drain(..) {
            touched.insert(rec.cookie);
            let run = table
                .runs
                .entry((rec.cookie, rec.batch_id))
                .or_insert_with(|| TraceRun {
                    born_ns: rec.born_ns,
                    spans: Vec::new(),
                });
            run.spans.push(rec.span);
        }
        table.scratch = scratch;
        let keep_slowest = self.cfg.exemplars_per_query.max(1) * 2;
        for cookie in touched {
            table.prune_cookie(cookie, keep_slowest, 8);
        }
    }

    /// The K slowest end-to-end traces collected for `cookie`, slowest
    /// first, each with its spans sorted by start time. Drains the span
    /// buffers first, so it is always up to date. Cold path.
    pub fn waterfalls(&self, cookie: u64) -> Vec<TraceExemplar> {
        let mut table = self.collected.lock(); // cold path
        self.drain_locked(&mut table);
        let mut out: Vec<TraceExemplar> = table
            .runs
            .range((cookie, 0)..=(cookie, u64::MAX))
            .map(|(&(c, b), run)| {
                let mut spans = run.spans.clone();
                spans.sort_by(|a, b| {
                    (a.start_ns, a.dur_ns, &a.stage).cmp(&(b.start_ns, b.dur_ns, &b.stage))
                });
                TraceExemplar {
                    cookie: c,
                    batch_id: b,
                    born_ns: run.born_ns,
                    total_ns: run.total_ns(),
                    spans,
                }
            })
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse((e.total_ns, e.batch_id)));
        out.truncate(self.cfg.exemplars_per_query.max(1));
        out
    }

    /// Cookies with at least one collected trace, ascending.
    pub fn traced_cookies(&self) -> Vec<u64> {
        let mut table = self.collected.lock(); // cold path
        self.drain_locked(&mut table);
        let mut out: Vec<u64> = table.runs.keys().map(|&(c, _)| c).collect();
        out.dedup();
        out
    }

    /// The waterfalls of `cookie` as a JSON document (hand-rolled, like
    /// the registry's renderer — the workspace carries no JSON crate).
    pub fn render_waterfalls_json(&self, cookie: u64) -> String {
        let exemplars = self.waterfalls(cookie);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cookie\":{cookie},\"sampled\":{},\"dropped\":{},\"exemplars\":[",
            self.spans_sampled(),
            self.spans_dropped()
        );
        for (i, e) in exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"batch_id\":{},\"born_ns\":{},\"total_ns\":{},\"spans\":[",
                e.batch_id, e.born_ns, e.total_ns
            );
            for (j, s) in e.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"stage\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                    json_escape(&s.stage),
                    s.start_ns,
                    s.dur_ns
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_one_in_n() {
        let t = Tracer::new(TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        });
        let sampled = (0..100).filter(|_| t.sample_batch().is_some()).count();
        assert_eq!(sampled, 25);
        assert_eq!(t.spans_sampled(), 25);
    }

    #[test]
    fn sample_every_one_traces_everything() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        assert!((0..10).all(|_| t.sample_batch().is_some()));
    }

    #[test]
    fn waterfall_assembles_spans_in_start_order() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let id = t.sample_batch().unwrap();
        // Record out of order, from different "workers".
        t.record_span(2, 7, id, 100, "bolt", 300, 340);
        t.record_span(0, 7, id, 100, "parse", 100, 150);
        t.record_span(1, 7, id, 100, "queue", 150, 290);
        t.record_span(3, 7, id, 100, "store", 350, 400);
        let falls = t.waterfalls(7);
        assert_eq!(falls.len(), 1);
        let e = &falls[0];
        assert_eq!(e.batch_id, id);
        assert_eq!(e.total_ns, 300, "last span ends at 400, born at 100");
        let stages: Vec<&str> = e.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["parse", "queue", "bolt", "store"]);
        assert!(t.waterfalls(8).is_empty(), "other cookies unaffected");
    }

    #[test]
    fn keeps_the_k_slowest_exemplars() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            exemplars_per_query: 2,
            ..TraceConfig::default()
        });
        for total in [50u64, 900, 10, 400, 700] {
            let id = t.sample_batch().unwrap();
            t.record_span(0, 1, id, 0, "parse", 0, total);
        }
        let falls = t.waterfalls(1);
        let totals: Vec<u64> = falls.iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, [900, 700], "two slowest, slowest first");
    }

    #[test]
    fn full_shard_drops_and_counts() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            shards: 1,
            shard_capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10u64 {
            t.record_span(0, 1, i + 1, 0, "parse", 0, 10);
        }
        assert_eq!(t.spans_dropped(), 6, "capacity 4, ten pushes");
        assert_eq!(t.waterfalls(1).len(), 4);
        // Drained: the shard accepts spans again.
        t.record_span(0, 1, 99, 0, "parse", 0, 10);
        assert_eq!(t.spans_dropped(), 6);
    }

    #[test]
    fn stage_histograms_land_in_the_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let t = Tracer::with_registry(
            TraceConfig {
                sample_every: 1,
                ..TraceConfig::default()
            },
            Arc::clone(&reg),
        );
        t.record_span(0, 5, 1, 0, "parse", 0, 1_000);
        t.record_span(0, 5, 2, 0, "parse", 0, 3_000);
        let snap = reg.snapshot();
        match snap.get("trace.stage_ns", &[("cookie", "5"), ("stage", "parse")]) {
            Some(crate::registry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), 3_000);
            }
            other => panic!("missing stage histogram: {other:?}"),
        }
    }

    #[test]
    fn concurrent_producers_never_lose_the_count() {
        let t = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            shards: 4,
            shard_capacity: 4096,
            ..TraceConfig::default()
        }));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    t.record_span(w, 1, w as u64 * 1_000 + i + 1, 0, "bolt", 0, 5);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every span either landed in a waterfall run or was counted
        // as dropped; nothing vanishes.
        let mut table = t.collected.lock();
        t.drain_locked(&mut table);
        // Pruning bounds per-cookie runs, so count what remains plus drops.
        assert!(t.spans_dropped() <= 2_000);
        drop(table);
        assert!(!t.waterfalls(1).is_empty());
    }

    #[test]
    fn waterfalls_render_as_json() {
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let id = t.sample_batch().unwrap();
        t.record_span(0, 3, id, 10, "parse", 10, 20);
        let js = t.render_waterfalls_json(3);
        assert!(js.starts_with("{\"cookie\":3,"));
        assert!(js.contains("\"stage\":\"parse\""));
        assert!(js.contains("\"total_ns\":10"));
        assert!(js.ends_with("]}"));
    }
}
