//! The EXPLAIN fixture shared by the plan-golden and plan-counter test
//! binaries.

use perfbase::sqldb::Engine;

/// 20 deterministic `runs` rows; hash index on `run_index`, ordered index
/// on `nodes`. `columnar` stores the table `USING COLUMNAR`, so scan
/// lines gain `layout=columnar vectorized=...` annotations.
pub fn runs(columnar: bool) -> Engine {
    let e = Engine::new();
    let layout = if columnar { " USING COLUMNAR" } else { "" };
    e.execute(&format!(
        "CREATE TABLE runs (run_index INTEGER NOT NULL, fs TEXT, nodes INTEGER, bw FLOAT){layout}"
    ))
    .unwrap();
    let fs = ["ufs", "nfs", "pvfs"];
    let rows: Vec<String> = (1..=20)
        .map(|i| format!("({i}, '{}', {}, {}.0)", fs[i % 3], 1 << (i % 4), i * 10))
        .collect();
    e.execute(&format!("INSERT INTO runs VALUES {}", rows.join(",")))
        .unwrap();
    e.execute("CREATE INDEX ix_run ON runs (run_index)")
        .unwrap();
    e.execute("CREATE ORDERED INDEX ox_nodes ON runs (nodes)")
        .unwrap();
    e
}
