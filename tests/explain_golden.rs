//! Golden-file tests for `EXPLAIN` across the four access paths
//! (point-lookup, in-list, range-window, full-scan) plus the falsified
//! path, `EXPLAIN ANALYZE` goldens pinning every node's `actual_rows`
//! (with the `time_ms=` wall times masked), and an `EXPLAIN ANALYZE`
//! check that actual candidate-row counts match what the query really
//! touched.
//!
//! Regenerate the goldens with `BLESS=1 cargo test -p perfbase --test
//! explain_golden` after an intentional plan-format change.

mod common;

use perfbase::sqldb::Engine;
use std::path::PathBuf;

/// The row-layout `runs` fixture (see [`common::runs`]).
fn fixture() -> Engine {
    common::runs(false)
}

fn explain(e: &Engine, sql: &str) -> String {
    let rs = e.query(sql).unwrap();
    assert_eq!(rs.column_names(), &["plan"]);
    let mut out = String::new();
    for row in rs.rows() {
        out.push_str(row[0].as_str().unwrap());
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "plan drift for {name}; run with BLESS=1 to re-bless"
    );
}

#[test]
fn explain_point_lookup() {
    let e = fixture();
    check_golden(
        "explain_point_lookup.txt",
        &explain(&e, "EXPLAIN SELECT * FROM runs WHERE run_index = 5"),
    );
}

#[test]
fn explain_in_list() {
    let e = fixture();
    check_golden(
        "explain_in_list.txt",
        &explain(
            &e,
            "EXPLAIN SELECT fs FROM runs WHERE run_index IN (1, 3, 5)",
        ),
    );
}

#[test]
fn explain_range_window() {
    let e = fixture();
    check_golden(
        "explain_range_window.txt",
        &explain(
            &e,
            "EXPLAIN SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8 \
             ORDER BY bw DESC LIMIT 3",
        ),
    );
}

#[test]
fn explain_full_scan() {
    let e = fixture();
    check_golden(
        "explain_full_scan.txt",
        &explain(&e, "EXPLAIN SELECT fs, avg(bw) FROM runs GROUP BY fs"),
    );
}

#[test]
fn explain_falsified() {
    let e = fixture();
    check_golden(
        "explain_falsified.txt",
        &explain(&e, "EXPLAIN SELECT * FROM runs WHERE run_index = 'text'"),
    );
}

/// The columnar twin of [`fixture`]: same rows and indexes, `USING
/// COLUMNAR` layout. Scan lines gain `layout=columnar vectorized=...`
/// annotations; row-table goldens stay byte-identical.
fn columnar_fixture() -> Engine {
    common::runs(true)
}

#[test]
fn explain_columnar_vectorized_full() {
    let e = columnar_fixture();
    check_golden(
        "explain_columnar_full.txt",
        &explain(&e, "EXPLAIN SELECT fs, avg(bw) FROM runs GROUP BY fs"),
    );
}

#[test]
fn explain_columnar_vectorized_partial() {
    let e = columnar_fixture();
    check_golden(
        "explain_columnar_partial.txt",
        &explain(
            &e,
            "EXPLAIN SELECT run_index, bw * 2 FROM runs WHERE fs = 'ufs'",
        ),
    );
}

#[test]
fn explain_columnar_vectorized_none() {
    let e = columnar_fixture();
    check_golden(
        "explain_columnar_none.txt",
        &explain(
            &e,
            "EXPLAIN SELECT fs FROM runs WHERE fs = 'ufs' OR nodes = 8",
        ),
    );
}

#[test]
fn analyze_columnar_reports_layout_and_actual_rows() {
    let e = columnar_fixture();
    let text = explain(
        &e,
        "EXPLAIN ANALYZE SELECT fs, avg(bw) FROM runs GROUP BY fs",
    );
    let scan = text
        .lines()
        .find(|l| l.starts_with("Scan "))
        .unwrap_or_else(|| panic!("no scan line in {text}"));
    assert!(scan.contains(" layout=columnar vectorized=full "), "{scan}");
    assert!(scan.ends_with("actual_rows=20"), "{scan}");
}

#[test]
fn analyze_reports_actual_candidate_rows() {
    let e = fixture();
    // (sql, expected actual_rows on the scan, expected rows returned)
    let cases = [
        (
            "EXPLAIN ANALYZE SELECT * FROM runs WHERE run_index = 5",
            1,
            1,
        ),
        (
            "EXPLAIN ANALYZE SELECT fs FROM runs WHERE run_index IN (1, 3, 5)",
            3,
            3,
        ),
        // nodes cycles 2,4,8,1; nodes in [2,8) holds for 10 of 20 rows.
        (
            "EXPLAIN ANALYZE SELECT bw FROM runs WHERE nodes >= 2 AND nodes < 8",
            10,
            10,
        ),
        // Full scan visits all 20 rows; grouping returns 3.
        (
            "EXPLAIN ANALYZE SELECT fs, avg(bw) FROM runs GROUP BY fs",
            20,
            3,
        ),
    ];
    for (sql, actual_rows, returned) in cases {
        let text = explain(&e, sql);
        let scan = text
            .lines()
            .find(|l| l.starts_with("Scan "))
            .unwrap_or_else(|| panic!("no scan line in {text}"));
        assert!(
            scan.ends_with(&format!("actual_rows={actual_rows}")),
            "{sql}: {scan}"
        );
        assert!(
            text.trim_end()
                .ends_with(&format!("Rows returned: {returned}")),
            "{sql}: {text}"
        );
        // The analyzed result must match the plain query's row count.
        let plain = e.query(sql.trim_start_matches("EXPLAIN ANALYZE ")).unwrap();
        assert_eq!(plain.len(), returned, "{sql}");
    }
}

/// `EXPLAIN ANALYZE` output with every `time_ms=<wall time>` replaced by
/// `time_ms=*`, so the goldens pin the plan shape and row counts only.
fn analyze(e: &Engine, sql: &str) -> String {
    let text = explain(e, sql);
    let mut out = String::with_capacity(text.len());
    for (i, part) in text.split(" time_ms=").enumerate() {
        if i == 0 {
            out.push_str(part);
        } else {
            let rest = part.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
            assert!(rest.len() < part.len(), "time_ms without a value in {text}");
            out.push_str(" time_ms=*");
            out.push_str(rest);
        }
    }
    out
}

#[test]
fn analyze_index_path_golden() {
    let e = fixture();
    check_golden(
        "explain_analyze_range_window.txt",
        &analyze(
            &e,
            "EXPLAIN ANALYZE SELECT DISTINCT fs FROM runs WHERE nodes >= 2 AND nodes < 8 \
             AND bw > 50.0 ORDER BY fs LIMIT 2",
        ),
    );
}

#[test]
fn analyze_columnar_vectorized_full_golden() {
    let e = columnar_fixture();
    check_golden(
        "explain_analyze_columnar_full.txt",
        &analyze(
            &e,
            "EXPLAIN ANALYZE SELECT fs, avg(bw), count(*) FROM runs WHERE nodes = 4 GROUP BY fs",
        ),
    );
}

#[test]
fn analyze_join_golden() {
    let e = fixture();
    e.execute("CREATE TABLE hosts (nodes INTEGER, rack TEXT)")
        .unwrap();
    e.execute("INSERT INTO hosts VALUES (1, 'r1'), (2, 'r1'), (8, 'r2')")
        .unwrap();
    check_golden(
        "explain_analyze_join.txt",
        &analyze(
            &e,
            "EXPLAIN ANALYZE SELECT hosts.rack, count(*) FROM runs \
             JOIN hosts ON runs.nodes = hosts.nodes WHERE runs.bw > 100.0 GROUP BY hosts.rack",
        ),
    );
}
