//! perfbench — one benchmark for perfbase-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload import_campaign|analyze_campaign|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload drives the public APIs of
//! `perfbase-core`, `sqldb` and `pbserver` with inputs made from `--seed`,
//! checks its outputs (any violated gate makes `correct` false), and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Scratch files live under `.bench_work/` and are removed at exit; span
//! dumps of traced runs are kept under `.bench_trace/`. See `NOTES.md`.

mod analyze;
mod import;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use util::Report;

/// End-to-end metrics: every workload reports every one (see NOTES.md for
/// what each means per workload).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("open_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("stored_bytes_per_input_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, named for the repository's
/// modules. A layer a workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("input.extract_us_p50", "us"),
    ("input.extract_mb_per_s", "MB/s"),
    ("experiment.dedup_us_p50", "us"),
    ("experiment.add_run_us_p50", "us"),
    ("experiment.add_run_us_p99", "us"),
    ("experiment.add_run_growth", "ratio"),
    ("experiment.dup_skip_ratio", "ratio"),
    ("wal.sync_us_p50", "us"),
    ("wal.appends_per_file", "count"),
    ("wal.bytes_per_input_byte", "ratio"),
    ("wal.fsyncs_per_file", "count"),
    ("wal.fsyncs_per_file_spread", "ratio"),
    ("wal.fsyncs_per_write", "ratio"),
    ("wal.replay_us_per_frame", "us"),
    ("dump.checkpoint_ms", "ms"),
    ("mvcc.cow_clones_per_write", "ratio"),
    ("mvcc.pinned_snapshots_max", "count"),
    ("txn.commits", "count"),
    ("txn.conflict_ratio", "ratio"),
    ("exec.point_us_p50", "us"),
    ("exec.groupby_us_p50", "us"),
    ("exec.filter_us_p50", "us"),
    ("exec.rows_visited_per_query", "count"),
    ("exec.full_scan_share", "ratio"),
    ("exec.vectorized_share", "ratio"),
    ("query.fig7_ms_p50", "ms"),
    ("query.sweep_ms_p50", "ms"),
    ("query.sweep_serial_ms_p50", "ms"),
    ("query.chain8_ms_p50", "ms"),
    ("query.fig7_sharded_ms_p50", "ms"),
    ("dag.source_ms_p50", "ms"),
    ("dag.operator_ms_p50", "ms"),
    ("dag.output_ms_p50", "ms"),
    ("dag.source_fraction", "ratio"),
    ("dag.spec_parse_us", "us"),
    ("dag.elements_per_query", "count"),
    ("dag.pushdown_fused_per_query", "count"),
    ("cluster.messages_per_query", "count"),
    ("cluster.rows_shipped_per_query", "count"),
    ("server.query_overhead_ms_p50", "ms"),
    ("server.ingest_overhead_ms_p50", "ms"),
    ("server.rejected_503", "count"),
    ("server.queue_depth_max", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("mem.bytes_per_row", "B"),
    ("self.harness_ms_per_op", "ms"),
    ("self.input_ms_per_op", "ms"),
    ("self.experiment_ms_per_op", "ms"),
    ("self.wal_ms_per_op", "ms"),
    ("self.query_ms_per_op", "ms"),
    ("self.gen_ms_per_op", "ms"),
    ("self.http_ms_per_op", "ms"),
    ("self.exec_ms_per_op", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("tail.op_ms", "ms"),
    ("tail.query_ms", "ms"),
    ("samples.op", "count"),
    ("samples.query", "count"),
    ("failed_frac", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run (removed at exit).
    pub work: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        work: PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id())),
        trace_dir: PathBuf::from(".bench_trace"),
        workload,
        seed,
        seconds: seconds.max(1.0),
        trace,
    })
}

/// The metric names above must be the ones `BENCHMARK.json` declares.
fn check_manifest(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut missing = Vec::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !text.contains(&decl) {
            missing.push(*name);
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metrics not declared in BENCHMARK.json: {missing:?}"
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_manifest(Path::new("BENCHMARK.json")) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "import_campaign" => import::run(&args),
        "analyze_campaign" => analyze::run(&args),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let frac = report.failed_frac();
        report.metrics.set("failed_frac", frac, "ratio");
    } else {
        report
            .metrics
            .set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    }
    for (name, (value, unit)) in report.metrics.iter() {
        eprintln!("  {name:<34} {value:>14.6} {unit}");
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) => 0.0,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not report {name}", args.workload);
                std::process::exit(1);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprintln!(
        "gates: {} checked, {} violated",
        report.gates.checked,
        report.gates.violations.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.gates.violations.is_empty() && report.gates.checked > 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}
