//! Telemetry for the perfbase stack: engine counters, fixed-bucket
//! histograms, hierarchical tracing spans, and per-statement-class
//! accounting — all std-only and designed to be near-zero-cost when
//! nobody is looking.
//!
//! The subsystem has two tiers with different cost models:
//!
//! * **Counters, histograms, and the statement-class matrix** are always
//!   compiled in and always hot. Every operation is a single relaxed
//!   atomic RMW on pre-allocated statics — no locks, no allocation, no
//!   branching beyond one enabled-flag load. They can be switched off
//!   entirely with [`set_stats_enabled`] (one atomic load remains), which
//!   is what the `telemetry_overhead` microbench compares against.
//! * **Spans** cost one atomic load when no [`Sink`] is attached (the
//!   guard is inert: no clock read, no id allocation, no detail string).
//!   With a sink attached — `perfbase query --trace <file>` installs a
//!   [`TraceCollector`] — each span records wall time, best-effort thread
//!   CPU time, and a parent link maintained in thread-local storage, so
//!   the collector can render the full call tree of a query.
//!
//! Naming scheme (documented in DESIGN.md §5): counters and histograms
//! are `area.metric` (`wal.fsyncs`, `plan.point_lookup`, …); span names
//! are the static site name (`statement`, `element`, `shipment`) with
//! dynamic context carried in the detail string (`id=s_old kind=source`).

#![warn(missing_docs)]

mod class;
mod counter;
mod hist;
mod report;
mod span;

pub use class::{
    class_scope, class_snapshot, current_class, record_statement, ClassScope, ClassStats, StmtClass,
};
pub use counter::{add, counters_snapshot, get, incr, set, Counter};
pub use hist::{hist_snapshot, record, record_duration, Hist, HistSnapshot, BUCKETS};
pub use report::{fmt_ns, render_stats};
pub use span::{
    current_span, enter, set_sink, sink_attached, span, Entered, Sink, Span, SpanRecord,
    TraceCollector,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable counter/histogram/class recording globally.
///
/// Disabled, every recording call degrades to a single relaxed atomic
/// load — the baseline the `telemetry_overhead` microbench measures the
/// enabled path against. Spans are controlled separately by the presence
/// of a [`Sink`].
pub fn set_stats_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Are counters/histograms currently recording?
pub fn stats_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reset every counter, histogram, and statement-class cell to zero.
///
/// Intended for `perfbase stats --reset` and for tests that need a clean
/// slate; concurrent recorders are not synchronized against (individual
/// cells reset independently).
pub fn reset() {
    counter::reset_counters();
    hist::reset_hists();
    class::reset_classes();
}

/// Record one WAL append: byte count and wall latency, attributed to the
/// calling thread's current statement class.
pub fn wal_append(bytes: u64, ns: u64) {
    incr(Counter::WalAppends);
    add(Counter::WalAppendBytes, bytes);
    record(Hist::WalAppendNs, ns);
    class::class_wal_append();
}

/// Record one WAL fsync: the group-commit batch size (frames made durable
/// by this sync) and wall latency, attributed to the calling thread's
/// current statement class.
pub fn wal_fsync(batch_frames: u64, ns: u64) {
    incr(Counter::WalFsyncs);
    record(Hist::WalFsyncNs, ns);
    record(Hist::WalBatchFrames, batch_frames);
    class::class_wal_fsync(ns);
}

/// Serializes unit tests that touch the global enabled flag, counters,
/// or the span sink (all process-wide state).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_switch_gates_recording() {
        let _g = test_guard();
        set_stats_enabled(true);
        let before = get(Counter::WalAppends);
        wal_append(10, 100);
        assert_eq!(get(Counter::WalAppends), before + 1);
        set_stats_enabled(false);
        wal_append(10, 100);
        assert_eq!(get(Counter::WalAppends), before + 1);
        set_stats_enabled(true);
    }

    #[test]
    fn wal_helpers_update_class_matrix() {
        let _g = test_guard();
        set_stats_enabled(true);
        let _scope = class_scope(StmtClass::Insert);
        let before = class_snapshot()
            .into_iter()
            .find(|c| c.class == "insert")
            .unwrap();
        wal_append(32, 1_000);
        wal_fsync(4, 50_000);
        let after = class_snapshot()
            .into_iter()
            .find(|c| c.class == "insert")
            .unwrap();
        assert_eq!(after.wal_appends, before.wal_appends + 1);
        assert_eq!(after.wal_fsyncs, before.wal_fsyncs + 1);
        assert!(after.wal_fsync_ns >= before.wal_fsync_ns + 50_000);
    }
}
