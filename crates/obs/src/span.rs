//! Hierarchical tracing spans with a pluggable sink.
//!
//! With no sink attached, [`span`] costs one relaxed atomic load and
//! returns an inert guard — no clock read, no id allocation, no string
//! work. With a sink attached, each span captures wall time, best-effort
//! thread CPU time, and its parent (tracked in thread-local storage);
//! the finished [`SpanRecord`] is handed to the sink on drop.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Receives finished spans. Child spans arrive before their parent
/// (spans are reported on drop), carrying the parent's id.
pub trait Sink: Send + Sync {
    /// Called once per finished span.
    fn record(&self, span: &SpanRecord);
}

static SINK_ATTACHED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn Sink>>> {
    static SLOT: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
    &SLOT
}

thread_local! {
    static CURRENT_PARENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Install (or with `None`, remove) the global span sink.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    let attached = sink.is_some();
    *sink_slot().write().expect("obs sink lock") = sink;
    SINK_ATTACHED.store(attached, Ordering::Release);
}

/// Is a span sink currently attached?
#[inline]
pub fn sink_attached() -> bool {
    SINK_ATTACHED.load(Ordering::Acquire)
}

/// Id of the innermost span open on this thread (`None` when there is
/// none, or no sink is attached).
pub fn current_span() -> Option<u64> {
    CURRENT_PARENT.with(Cell::get)
}

/// Open spans on this thread under `parent` until the guard drops. Span
/// parents are tracked per thread, so a worker running part of a traced
/// operation calls this with the [`current_span`] of the thread that
/// handed it the work.
#[must_use = "the parent applies only while the guard is alive"]
pub fn enter(parent: Option<u64>) -> Entered {
    Entered(CURRENT_PARENT.with(|p| p.replace(parent)))
}

/// Guard returned by [`enter`]; restores the thread's previous parent.
pub struct Entered(Option<u64>);

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT_PARENT.with(|p| p.set(self.0));
    }
}

/// A finished span as delivered to the [`Sink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (creation-ordered across threads).
    pub id: u64,
    /// Enclosing span: on the same thread, or the one handed over with
    /// [`enter`].
    pub parent: Option<u64>,
    /// Static site name (`statement`, `element`, `shipment`, …).
    pub name: &'static str,
    /// Dynamic context, e.g. `id=s_old kind=source`.
    pub detail: String,
    /// Wall-clock duration, nanoseconds.
    pub wall_ns: u64,
    /// Thread CPU time consumed, when the platform exposes it.
    pub cpu_ns: Option<u64>,
}

struct Active {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: String,
    start: Instant,
    cpu_start: Option<u64>,
}

/// RAII span guard; records to the sink on drop. Inert (all no-ops)
/// when no sink was attached at creation time.
pub struct Span(Option<Active>);

/// Open a span. The guard closes — and reports — the span when dropped.
pub fn span(name: &'static str) -> Span {
    if !sink_attached() {
        return Span(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_PARENT.with(|p| p.replace(Some(id)));
    Span(Some(Active {
        id,
        parent,
        name,
        detail: String::new(),
        start: Instant::now(),
        cpu_start: thread_cpu_ns(),
    }))
}

impl Span {
    /// Append context to the span's detail string. The closure only runs
    /// when the span is live, so callers pay nothing to build detail
    /// strings while tracing is off.
    pub fn annotate(&mut self, f: impl FnOnce() -> String) {
        if let Some(a) = &mut self.0 {
            if !a.detail.is_empty() {
                a.detail.push(' ');
            }
            a.detail.push_str(&f());
        }
    }

    /// Is this span actually recording?
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        CURRENT_PARENT.with(|p| p.set(a.parent));
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            detail: a.detail,
            wall_ns: a.start.elapsed().as_nanos() as u64,
            cpu_ns: match (a.cpu_start, thread_cpu_ns()) {
                (Some(s), Some(e)) => Some(e.saturating_sub(s)),
                _ => None,
            },
        };
        if let Some(sink) = sink_slot().read().expect("obs sink lock").as_ref() {
            sink.record(&record);
        }
    }
}

/// Best-effort thread CPU time in nanoseconds (Linux: first field of
/// `/proc/thread-self/schedstat`); `None` where unavailable. Only read
/// while a sink is attached, so the file I/O never hits the hot path.
fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        s.split_whitespace().next()?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// A [`Sink`] that keeps every span and renders them as an indented
/// trace tree — the backend of `perfbase query --trace <file>`.
#[derive(Default)]
pub struct TraceCollector {
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    /// New, empty collector behind an [`Arc`] (ready for [`set_sink`]).
    pub fn new() -> Arc<TraceCollector> {
        Arc::new(TraceCollector::default())
    }

    /// Copy of every span collected so far, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("trace lock").clone()
    }

    /// Number of spans collected.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace lock").len()
    }

    /// No spans collected yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the collected spans as an indented tree, children in
    /// creation order. One line per span:
    /// `name detail [wall=…, cpu=…]`.
    pub fn render(&self) -> String {
        let mut records = self.records();
        records.sort_by_key(|r| r.id);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots: Vec<usize> = Vec::new();
        let index_of = |id: u64, records: &[SpanRecord]| -> Option<usize> {
            records.binary_search_by_key(&id, |r| r.id).ok()
        };
        for (i, r) in records.iter().enumerate() {
            match r.parent.and_then(|p| index_of(p, &records)) {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((i, depth)) = stack.pop() {
            let r = &records[i];
            out.push_str(&"  ".repeat(depth));
            out.push_str(r.name);
            if !r.detail.is_empty() {
                out.push(' ');
                out.push_str(&r.detail);
            }
            out.push_str(&format!(" [wall={}", crate::fmt_ns(r.wall_ns)));
            if let Some(cpu) = r.cpu_ns {
                out.push_str(&format!(", cpu={}", crate::fmt_ns(cpu)));
            }
            out.push_str("]\n");
            for &c in children[i].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }
}

impl Sink for TraceCollector {
    fn record(&self, span: &SpanRecord) {
        self.spans.lock().expect("trace lock").push(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_sink() {
        let _g = crate::test_guard();
        set_sink(None);
        let mut s = span("idle");
        assert!(!s.is_active());
        s.annotate(|| panic!("annotate closure must not run while inert"));
    }

    #[test]
    fn collector_builds_a_tree() {
        let _g = crate::test_guard();
        let collector = TraceCollector::new();
        set_sink(Some(collector.clone()));
        {
            let mut outer = span("outer");
            outer.annotate(|| "op=test".to_string());
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_sink(None);
        let records = collector.records();
        assert_eq!(records.len(), 2);
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.wall_ns >= inner.wall_ns);
        assert_eq!(outer.detail, "op=test");

        let tree = collector.render();
        let outer_line = tree.lines().find(|l| l.starts_with("outer")).unwrap();
        let inner_line = tree.lines().find(|l| l.contains("inner")).unwrap();
        assert!(outer_line.contains("op=test"));
        assert!(
            inner_line.starts_with("  "),
            "inner must be indented: {tree}"
        );
    }

    #[test]
    fn entered_parent_crosses_threads() {
        let _g = crate::test_guard();
        let collector = TraceCollector::new();
        set_sink(Some(collector.clone()));
        {
            let _outer = span("outer");
            let parent = current_span();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _p = enter(parent);
                    drop(span("worker"));
                });
            });
        }
        set_sink(None);
        let records = collector.records();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(worker.parent, Some(outer.id));
        assert_eq!(current_span(), None);
    }

    #[test]
    fn spans_after_detach_are_inert() {
        let _g = crate::test_guard();
        let collector = TraceCollector::new();
        set_sink(Some(collector.clone()));
        drop(span("recorded"));
        set_sink(None);
        drop(span("ignored"));
        assert!(collector.records().iter().all(|r| r.name != "ignored"));
    }
}
