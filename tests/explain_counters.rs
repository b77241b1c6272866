//! `EXPLAIN ANALYZE` runs the plan it prints, once: on the row and the
//! columnar fixture it moves the planner and scan counters by exactly what
//! the bare query moves them, and plain `EXPLAIN` (which only plans)
//! moves no `scan.*` counter at all.
//!
//! Counters are process-wide, so this binary holds a single test.

mod common;

use perfbase::obs::{self, Counter};

/// The counters one planned-and-executed SELECT must move identically
/// whether or not it runs under `EXPLAIN ANALYZE`.
const PLAN_AND_SCAN: [Counter; 10] = [
    Counter::PlanPointLookup,
    Counter::PlanInList,
    Counter::PlanRangeWindow,
    Counter::PlanFullScan,
    Counter::PlanFalsified,
    Counter::IndexProbes,
    Counter::IndexCandidateRows,
    Counter::ScanRowsVisited,
    Counter::VectorizedScans,
    Counter::VectorizedFallbacks,
];

/// How far `sql` moves each of [`PLAN_AND_SCAN`].
fn deltas(e: &perfbase::sqldb::Engine, sql: &str) -> Vec<(&'static str, u64)> {
    let before: Vec<u64> = PLAN_AND_SCAN.iter().map(|&c| obs::get(c)).collect();
    e.query(sql).unwrap_or_else(|err| panic!("{sql}: {err}"));
    PLAN_AND_SCAN
        .iter()
        .zip(before)
        .map(|(&c, b)| (c.name(), obs::get(c) - b))
        .collect()
}

/// Every `scan.*` counter and gauge.
fn scan_counters() -> Vec<(&'static str, u64)> {
    obs::counters_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("scan."))
        .collect()
}

#[test]
fn explain_analyze_moves_counters_exactly_like_the_query() {
    obs::set_stats_enabled(true);
    let queries = [
        "SELECT * FROM runs WHERE run_index = 5",
        "SELECT fs FROM runs WHERE run_index IN (1, 3, 5)",
        "SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8 ORDER BY bw DESC LIMIT 3",
        "SELECT fs, avg(bw) FROM runs GROUP BY fs",
        "SELECT count(*) FROM runs WHERE bw > 100.0",
        "SELECT * FROM runs WHERE run_index = 'text'",
        "SELECT fs FROM runs WHERE fs = 'ufs' OR nodes = 8",
        "SELECT run_index, bw * 2 FROM runs WHERE fs = 'ufs'",
        "SELECT DISTINCT fs FROM runs WHERE nodes = 4",
    ];
    for columnar in [false, true] {
        let e = common::runs(columnar);
        for q in queries {
            let plain = deltas(&e, q);
            let analyzed = deltas(&e, &format!("EXPLAIN ANALYZE {q}"));
            assert_eq!(analyzed, plain, "{q} (columnar={columnar})");

            let before = scan_counters();
            e.query(&format!("EXPLAIN {q}")).unwrap();
            assert_eq!(scan_counters(), before, "EXPLAIN {q} (columnar={columnar})");
        }
    }
}
