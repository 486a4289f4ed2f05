//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer of the program is wrapped
//! in a span: name, thread, id, parent id, start, end and a work count.
//! Spans are kept in per-thread memory while the run is on and written
//! out once, at exit. Nothing here touches the program — the recorder
//! sits on the benchmark's side of each call.
//!
//! The recorder is off unless [`enable`] was called (the `--trace 1`
//! run); an off recorder costs one relaxed atomic load per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    /// Unique within its thread, starting at 1.
    pub id: u32,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covered (packets, rows, tuples, ...).
    pub work: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch (first call).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on for every thread.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off; spans already open still close.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct ThreadRec {
    thread: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
}

impl Drop for ThreadRec {
    fn drop(&mut self) {
        DONE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut self.spans);
    }
}

thread_local! {
    static REC: RefCell<ThreadRec> = RefCell::new(ThreadRec {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard {
    /// Index of the span in the thread's buffer; `None` when recording
    /// was off at open time.
    idx: Option<usize>,
}

impl SpanGuard {
    /// Sets the span's work count.
    pub fn work(&mut self, n: u64) {
        if let Some(idx) = self.idx {
            REC.with(|r| r.borrow_mut().spans[idx].work = n);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = now_ns();
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[idx].end_ns = end;
                r.open.pop();
            });
        }
    }
}

/// Opens a span named `name` on the calling thread, nested under the
/// thread's innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { idx: None };
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().map_or(0, |&i| r.spans[i].id);
        let idx = r.spans.len();
        let thread = r.thread;
        r.spans.push(Span {
            name,
            thread,
            id: idx as u32 + 1,
            parent,
            start_ns: 0,
            end_ns: 0,
            work: 0,
        });
        r.open.push(idx);
        idx
    });
    let start = now_ns();
    REC.with(|r| r.borrow_mut().spans[idx].start_ns = start);
    SpanGuard { idx: Some(idx) }
}

/// Records an already-measured child of the innermost open span: time
/// a layer spent inside that call, summed by a wrapper the program
/// called back into (the sink bolts under `Executor::offer`). The child
/// is laid at the parent's start; only its duration carries meaning.
pub fn child_total(name: &'static str, total_ns: u64, work: u64) {
    if !enabled() || (total_ns == 0 && work == 0) {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(&p) = r.open.last() else { return };
        let (parent, start) = (r.spans[p].id, r.spans[p].start_ns);
        let idx = r.spans.len();
        let thread = r.thread;
        r.spans.push(Span {
            name,
            thread,
            id: idx as u32 + 1,
            parent,
            start_ns: start,
            end_ns: start + total_ns,
            work,
        });
    });
}

/// Moves the calling thread's closed spans to the shared buffer. Worker
/// threads flush on exit by themselves; the main thread calls this
/// before [`take_all`].
pub fn flush_thread() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.open.is_empty() {
            let mut spans = std::mem::take(&mut r.spans);
            DONE.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut spans);
        }
    });
}

/// Takes every flushed span recorded so far.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *DONE.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct child spans.
    pub self_ns: u64,
    pub work: u64,
}

/// Sums count / total / self time / work per span name. A span's self
/// time is its duration minus the durations of its direct children
/// (children never overlap on one thread), floored at zero.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry((s.thread, s.parent)).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = child_ns.get(&(s.thread, s.id)).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(kids);
        t.work += s.work;
    }
    out
}

/// Renders the trace file: every span plus the per-name summary.
pub fn render_json(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"summary\":["
    );
    for (i, (name, t)) in summarize(spans).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"work\":{}}}",
            t.count, t.total_ns, t.self_ns, t.work
        );
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"thread\":{},\"id\":{},\"parent\":{},\"start\":{},\"end\":{},\
             \"work\":{}}}",
            sp.name, sp.thread, sp.id, sp.parent, sp.start_ns, sp.end_ns, sp.work
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            thread: 1,
            id,
            parent,
            start_ns: start,
            end_ns: end,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 20..30 }, a 50..70 }
        let spans = vec![
            sp("root", 1, 0, 0, 100),
            sp("a", 2, 1, 10, 40),
            sp("b", 3, 2, 20, 30),
            sp("a", 4, 1, 50, 70),
        ];
        let sum = summarize(&spans);
        assert_eq!(sum["root"].self_ns, 100 - 30 - 20);
        assert_eq!(sum["a"].total_ns, 50);
        assert_eq!(sum["a"].self_ns, 50 - 10);
        assert_eq!(sum["a"].count, 2);
        assert_eq!(sum["b"].self_ns, 10);
        // Self times of one tree add up to the root's duration.
        let total_self: u64 = sum.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn same_ids_on_other_threads_do_not_mix() {
        let mut other = sp("child", 2, 1, 0, 50);
        other.thread = 2;
        let spans = vec![sp("root", 1, 0, 0, 100), other];
        assert_eq!(summarize(&spans)["root"].self_ns, 100);
    }

    #[test]
    fn recorder_nests_and_aggregates_children() {
        // The recorder is process-wide: take a turn.
        let _turn = crate::smoke::RECORDER
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        enable();
        {
            let mut outer = span("t.outer");
            outer.work(3);
            {
                let _inner = span("t.inner");
                child_total("t.agg", 5, 2);
            }
            child_total("t.agg", 7, 1);
        }
        disable();
        let spans: Vec<Span> = take_all()
            .into_iter()
            .filter(|s| s.name.starts_with("t."))
            .collect();
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        assert_eq!((outer.parent, outer.work), (0, 3));
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let aggs: Vec<_> = spans.iter().filter(|s| s.name == "t.agg").collect();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].parent, inner.id);
        assert_eq!(aggs[1].parent, outer.id);
        assert_eq!(summarize(&spans)["t.agg"].total_ns, 12);
        let json = render_json("w", &spans);
        assert!(crate::json::Json::parse(&json).is_some(), "{json}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        // Not enabled here (and `enable` in the test above is scoped to
        // names this test does not use).
        let before = now_ns();
        {
            let mut g = SpanGuard { idx: None };
            g.work(9);
        }
        assert!(now_ns() >= before);
    }
}
