//! `import_campaign`: the paper's import path (§3.2, §5) on a durable
//! experiment — one closed-loop client imports a seeded `b_eff_io`
//! campaign file by file, checks progress with the Fig. 7 query every 100
//! files, then closes without a checkpoint, reopens (WAL replay),
//! verifies and checkpoints. The campaign repeats, each time into a fresh
//! experiment, until the run's time is up.

use crate::trace::{self, Tracer};
use crate::util::{
    bytes_per_row, median, ms, quantile, ratio, us, Counters, Gates, Metrics, Report, Rng,
};
use crate::Args;
use obs::Counter;
use perfbase_core::experiment::ExperimentDb;
use perfbase_core::import::{content_hash, Importer};
use perfbase_core::input::{extract_runs, InputDescription};
use perfbase_core::query::spec::{query_from_str, QuerySpec};
use perfbase_core::query::QueryRunner;
use perfbase_core::xmldef;
use sqldb::{Engine, SyncPolicy, WalOptions};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::beffio::{simulate, BeffIoConfig, FsType, Technique};

/// Distinct result files per campaign.
const UNIQUE_FILES: usize = 1900;
/// Byte-for-byte resubmissions of earlier files (5% of submissions).
const DUPLICATES: usize = 100;
/// Fig. 7 progress check every this many submissions.
const CHECK_EVERY: usize = 50;
/// Tail percentiles (2000 imports and 40 checks per campaign, about ten
/// campaigns per 30 s run). The import p99 would have 200 samples beyond
/// it, but it measures how often the shared host stalls the process (its
/// run-to-run spread was 0.5–0.8), so the import tail is the p95, which
/// the growth of the per-file cost sets.
const OP_TAIL: f64 = 0.95;
const QUERY_TAIL: f64 = 0.95;
/// Import timestamp stored with every run (fixed, so WAL bytes repeat).
pub const IMPORT_TIME: i64 = 1_101_229_830;

/// A generated campaign: distinct files plus the submission order.
pub struct Campaign {
    /// `(filename, content)` of each distinct file.
    pub files: Vec<(String, String)>,
    /// Indexes into `files`; a repeated index is a duplicate submission.
    pub order: Vec<usize>,
    /// Bytes of the distinct files.
    pub input_bytes: u64,
}

/// A seeded `b_eff_io` campaign across fs × technique, with `duplicates`
/// resubmissions of earlier files mixed into the order.
pub fn campaign(seed: u64, unique: usize, duplicates: usize) -> Campaign {
    let mut rng = Rng::new(seed);
    let mut next_index: HashMap<(usize, usize), u32> = HashMap::new();
    let mut files = Vec::with_capacity(unique);
    for _ in 0..unique {
        let fs = rng.below(3) as usize;
        let tech = rng.below(2) as usize;
        let run_index = next_index.entry((fs, tech)).or_insert(0);
        *run_index += 1;
        let run = simulate(BeffIoConfig {
            fs: [FsType::Ufs, FsType::Nfs, FsType::Pvfs][fs],
            technique: [Technique::ListBased, Technique::ListLess][tech],
            run_index: *run_index,
            seed: rng.next_u64(),
            date: format!(
                "{} Nov {:2} {:02}:{:02}:{:02} 2004",
                ["Mon", "Tue", "Wed", "Thu", "Fri"][rng.below(5) as usize],
                1 + rng.below(28),
                rng.below(24),
                rng.below(60),
                rng.below(60)
            ),
            ..BeffIoConfig::default()
        });
        files.push((run.filename(), run.render()));
    }
    // Events: `unique` first submissions and `duplicates` resubmissions,
    // shuffled; a resubmission repeats a file already submitted.
    let mut events: Vec<bool> = (0..unique + duplicates).map(|i| i < duplicates).collect();
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i as u64 + 1) as usize);
    }
    if let Some(first_new) = events.iter().position(|dup| !dup) {
        events.swap(0, first_new);
    }
    let mut order = Vec::with_capacity(events.len());
    let mut submitted = 0usize;
    for dup in events {
        if dup {
            order.push(rng.below(submitted as u64) as usize);
        } else {
            order.push(submitted);
            submitted += 1;
        }
    }
    let input_bytes = files.iter().map(|(_, c)| c.len() as u64).sum();
    Campaign {
        files,
        order,
        input_bytes,
    }
}

pub fn wal_options() -> WalOptions {
    WalOptions::with_sync(SyncPolicy::group_default())
}

/// Create a durable experiment at `dump` (dump + sibling WAL).
fn create_durable(dump: &Path) -> Result<ExperimentDb, String> {
    let def = xmldef::definition_from_str(bench::EXPERIMENT_XML).map_err(|e| e.to_string())?;
    let (engine, _) = Engine::open_durable(dump, &ExperimentDb::wal_path(dump), wal_options())
        .map_err(|e| e.to_string())?;
    ExperimentDb::create(Arc::new(engine), def).map_err(|e| e.to_string())
}

/// Run the Fig. 7 query and return its gnuplot artifact.
pub fn fig7(db: &ExperimentDb, spec: &QuerySpec) -> Result<String, String> {
    let out = QueryRunner::new(db)
        .run(spec.clone())
        .map_err(|e| format!("fig7: {e}"))?;
    out.artifacts
        .get("plot")
        .cloned()
        .ok_or_else(|| "fig7 rendered no plot".to_string())
}

/// Everything one campaign measured.
#[derive(Default)]
struct CampaignResult {
    setup: Duration,
    import_wall: Duration,
    open: Duration,
    checkpoint: Duration,
    import_ms: Vec<f64>,
    /// In a traced campaign: latencies of the files imported untraced
    /// (every other file), the baseline the traced ones are compared with.
    untraced_ms: Vec<f64>,
    /// Bytes of the files whose extraction was traced.
    traced_bytes: u64,
    query_ms: Vec<f64>,
    failed: u64,
    attempted: u64,
    dups_skipped: u64,
    runs: usize,
    wal_appends: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    frames_replayed: u64,
    stored_bytes: u64,
    dag_elements: u64,
    cow_clones: u64,
    txn_commits: u64,
    txn_conflicts: u64,
    queries_run: u64,
    rows_visited: u64,
    full_scans: u64,
    vectorized: u64,
    fig7_before: String,
    tracer: Option<Tracer>,
    bytes_per_row: f64,
}

/// One submission through `Importer::import_file` (untraced) or through
/// the same public steps it takes, each in its own span (traced).
pub fn submit(
    db: &ExperimentDb,
    importer: &Importer,
    desc: &InputDescription,
    name: &str,
    content: &str,
    tracer: Option<&mut Tracer>,
    rid: u64,
) -> Result<(usize, usize), String> {
    let Some(tr) = tracer else {
        let rep = importer
            .import_file(desc, name, content)
            .map_err(|e| e.to_string())?;
        return Ok((rep.runs_created.len(), rep.duplicates_skipped));
    };
    tr.span("import.file", rid, |tr| {
        let def = db.definition();
        desc.validate(&def).map_err(|e| e.to_string())?;
        let (hash, seen) = tr.span("experiment.dedup", rid, |_| {
            let hash = content_hash(content);
            let seen = db.is_imported(&hash);
            (hash, seen)
        });
        if seen.map_err(|e| e.to_string())? {
            return Ok((0, 1));
        }
        let runs = tr
            .span("input.extract", rid, |_| {
                extract_runs(desc, &def, name, content)
            })
            .map_err(|e| e.to_string())?;
        let mut created = 0;
        for run in runs {
            // What `Importer::store` does before `add_run` under the
            // default missing-content policy (store incomplete runs too).
            let def = db.definition();
            std::hint::black_box(run.missing_variables(&def));
            let datasets = run.datasets.clone();
            let id = tr
                .span("experiment.add_run", rid, |_| {
                    db.add_run(&run.once, &datasets, IMPORT_TIME)
                })
                .map_err(|e| e.to_string())?;
            tr.span("experiment.record_import", rid, |_| {
                db.record_import(&hash, name, id)
            })
            .map_err(|e| e.to_string())?;
            created += 1;
        }
        tr.span("wal.sync", rid, |_| db.durability_sync())
            .map_err(|e| e.to_string())?;
        Ok((created, 0))
    })
}

fn run_campaign(
    c: &Campaign,
    dir: &Path,
    desc: &InputDescription,
    spec: &QuerySpec,
    trace: bool,
    gates: &mut Gates,
) -> Result<CampaignResult, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let dump: PathBuf = dir.join("experiment.sql");
    let mut r = CampaignResult::default();
    let origin = Instant::now();
    let mut tracer = trace.then(|| Tracer::new(origin));

    let t = Instant::now();
    let db = create_durable(&dump)?;
    r.setup = t.elapsed();

    let importer = Importer::new(&db).at_time(IMPORT_TIME);
    let before = Counters::now();
    let mut created_ids = 0usize;
    let started = Instant::now();
    let mut query_time = Duration::ZERO;
    for (k, &fi) in c.order.iter().enumerate() {
        let (name, content) = &c.files[fi];
        r.attempted += 1;
        let t = Instant::now();
        // A traced campaign traces every other file, so traced and
        // untraced imports meet the same database size and machine state.
        let tr = tracer.as_mut().filter(|_| k % 2 == 1);
        let untraced = tr.is_none();
        match submit(&db, &importer, desc, name, content, tr, k as u64) {
            Ok((created, dups)) => {
                if !untraced && created > 0 {
                    r.traced_bytes += content.len() as u64;
                }
                created_ids += created;
                r.dups_skipped += dups as u64;
            }
            Err(e) => {
                eprintln!("import {name}: {e}");
                r.failed += 1;
            }
        }
        r.import_ms.push(ms(t.elapsed()));
        if trace && untraced {
            r.untraced_ms.push(ms(t.elapsed()));
        }
        if (k + 1) % CHECK_EVERY == 0 {
            r.attempted += 1;
            let t = Instant::now();
            match fig7(&db, spec) {
                Ok(a) => r.fig7_before = a,
                Err(e) => {
                    eprintln!("{e}");
                    r.failed += 1;
                }
            }
            let d = t.elapsed();
            query_time += d;
            r.query_ms.push(ms(d));
        }
    }
    r.import_wall = started.elapsed() - query_time;
    r.wal_appends = before.delta(Counter::WalAppends);
    r.wal_bytes = before.delta(Counter::WalAppendBytes);
    r.wal_fsyncs = before.delta(Counter::WalFsyncs);
    r.dag_elements = before.delta(Counter::DagElements);
    r.cow_clones = before.delta(Counter::MvccCowClones);
    r.txn_commits = before.delta(Counter::TxnCommits);
    r.txn_conflicts = before.delta(Counter::TxnConflicts);
    r.queries_run = before.delta(Counter::QueriesRun);
    r.rows_visited = before.delta(Counter::ScanRowsVisited);
    r.full_scans = before.delta(Counter::PlanFullScan);
    r.vectorized = before.delta(Counter::VectorizedScans);
    let expected = c.files.len();
    gates.check(created_ids == expected, || {
        format!("import: {created_ids} runs created, {expected} unique files")
    });
    gates.check(r.dups_skipped as usize == c.order.len() - expected, || {
        format!(
            "import: {} duplicates skipped, {} resubmitted",
            r.dups_skipped,
            c.order.len() - expected
        )
    });
    r.bytes_per_row = bytes_per_row(db.engine());
    drop(db);

    // Close without a checkpoint, reopen from dump + WAL.
    let t = Instant::now();
    let (db, recovery) =
        ExperimentDb::open_durable(&dump, wal_options()).map_err(|e| e.to_string())?;
    r.open = t.elapsed();
    r.frames_replayed = recovery.frames_replayed;
    let ids = db.run_ids().map_err(|e| e.to_string())?;
    r.runs = ids.len();
    let want: BTreeSet<i64> = (1..=expected as i64).collect();
    gates.check(ids.iter().copied().collect::<BTreeSet<_>>() == want, || {
        format!(
            "reopen: {} runs present, {expected} acknowledged",
            ids.len()
        )
    });
    let imports = db
        .engine()
        .query("SELECT count(*) FROM pb_imports")
        .map_err(|e| e.to_string())?;
    let n_imports = imports.rows()[0][0].as_i64().unwrap_or(-1);
    gates.check(n_imports == expected as i64, || {
        format!("reopen: {n_imports} import records, {expected} acknowledged")
    });
    let after = fig7(&db, spec)?;
    gates.check(after == r.fig7_before, || {
        "reopen: Fig. 7 artifact differs from the one rendered before close".into()
    });
    let t = Instant::now();
    db.checkpoint(&dump).map_err(|e| e.to_string())?;
    r.checkpoint = t.elapsed();
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    r.stored_bytes = size(&dump) + size(&ExperimentDb::wal_path(&dump));
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    r.tracer = tracer;
    Ok(r)
}

/// Counts that must repeat exactly for the same seed.
fn fingerprint(r: &CampaignResult) -> [u64; 6] {
    [
        r.wal_appends,
        r.wal_bytes,
        r.stored_bytes,
        r.dag_elements,
        r.frames_replayed,
        r.runs as u64,
    ]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let c = campaign(args.seed, UNIQUE_FILES, DUPLICATES);
    let desc = bench::input_description();
    let spec = query_from_str(bench::QUERY_XML).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut results: Vec<CampaignResult> = Vec::new();
    // A traced run alternates untraced campaigns (the catalog reference)
    // with traced ones, which trace every other file.
    let mut k = 0;
    while results.len() < 2 || Instant::now() < deadline {
        let traced = args.trace && k % 2 == 1;
        let dir = args.work.join(format!("campaign{k}"));
        let r = run_campaign(&c, &dir, &desc, &spec, traced, &mut report.gates)?;
        report.attempted += r.attempted;
        report.failed += r.failed;
        results.push(r);
        k += 1;
    }
    let first = fingerprint(&results[0]);
    for r in &results[1..] {
        let fp = fingerprint(r);
        report.gates.check(fp == first, || {
            format!("determinism: campaign counts {fp:?} differ from {first:?}")
        });
    }
    if args.trace {
        let traced: Vec<&CampaignResult> = results.iter().filter(|r| r.tracer.is_some()).collect();
        let plain: Vec<&CampaignResult> = results.iter().filter(|r| r.tracer.is_none()).collect();
        report.gates.check(
            traced.iter().all(|t| t.fig7_before == plain[0].fig7_before),
            || "traced import produced a different catalog (Fig. 7 differs)".into(),
        );
        layer_metrics(
            &mut report.metrics,
            &c,
            &traced,
            &plain,
            &mut report.gates,
            args,
        )?;
    } else {
        e2e_metrics(&mut report.metrics, &c, &results);
    }
    Ok(report)
}

fn e2e_metrics(m: &mut Metrics, c: &Campaign, rs: &[CampaignResult]) {
    let per = |f: &dyn Fn(&CampaignResult) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let imports: Vec<f64> = rs
        .iter()
        .flat_map(|r| r.import_ms.iter().copied())
        .collect();
    let queries: Vec<f64> = rs.iter().flat_map(|r| r.query_ms.iter().copied()).collect();
    m.set("setup_s", per(&|r| r.setup.as_secs_f64()), "s");
    m.set("open_s", per(&|r| r.open.as_secs_f64()), "s");
    m.set(
        "ops_per_s",
        per(&|r| r.attempted as f64 / r.import_wall.as_secs_f64()),
        "1/s",
    );
    m.set("op_p50_ms", median(&imports), "ms");
    m.set("query_p50_ms", median(&queries), "ms");
    m.set(
        "stored_bytes_per_input_byte",
        rs[0].stored_bytes as f64 / c.input_bytes as f64,
        "ratio",
    );
    eprintln!(
        "import_campaign: {} campaigns, {} file imports, {} Fig. 7 checks",
        rs.len(),
        imports.len(),
        queries.len()
    );
}

fn layer_metrics(
    m: &mut Metrics,
    c: &Campaign,
    traced: &[&CampaignResult],
    plain: &[&CampaignResult],
    gates: &mut Gates,
    args: &Args,
) -> Result<(), String> {
    let files = c.order.len() as f64;
    let tr = traced[0]
        .tracer
        .as_ref()
        .expect("traced campaign has a tracer");
    let p50 = |name: &str| median(&tr.durations_us(name));
    m.set("input.extract_us_p50", p50("input.extract"), "us");
    let extract_s: f64 = tr.durations_us("input.extract").iter().sum::<f64>() / 1e6;
    m.set(
        "input.extract_mb_per_s",
        ratio(traced[0].traced_bytes as f64 / 1e6, extract_s),
        "MB/s",
    );
    m.set("experiment.dedup_us_p50", p50("experiment.dedup"), "us");
    let add_run = tr.durations_us("experiment.add_run");
    m.set("experiment.add_run_us_p50", median(&add_run), "us");
    m.set("experiment.add_run_us_p99", quantile(&add_run, 0.99), "us");
    let tenth = add_run.len() / 10;
    m.set(
        "experiment.add_run_growth",
        ratio(
            median(&add_run[add_run.len() - tenth..]),
            median(&add_run[..tenth]),
        ),
        "ratio",
    );
    let dups = (c.order.len() - c.files.len()) as f64;
    m.set(
        "experiment.dup_skip_ratio",
        traced[0].dups_skipped as f64 / dups,
        "ratio",
    );
    m.set("wal.sync_us_p50", p50("wal.sync"), "us");
    let r = plain[0];
    m.set(
        "wal.appends_per_file",
        r.wal_appends as f64 / files,
        "count",
    );
    m.set(
        "wal.bytes_per_input_byte",
        r.wal_bytes as f64 / c.input_bytes as f64,
        "ratio",
    );
    let fsyncs: Vec<f64> = plain
        .iter()
        .chain(traced)
        .map(|r| r.wal_fsyncs as f64 / files)
        .collect();
    m.set("wal.fsyncs_per_file", median(&fsyncs), "count");
    m.set(
        "wal.fsyncs_per_file_spread",
        ratio(
            quantile(&fsyncs, 0.75) - quantile(&fsyncs, 0.25),
            median(&fsyncs),
        ),
        "ratio",
    );
    m.set(
        "wal.fsyncs_per_write",
        ratio(r.wal_fsyncs as f64, r.wal_appends as f64),
        "ratio",
    );
    m.set(
        "wal.replay_us_per_frame",
        ratio(us(r.open), r.frames_replayed as f64),
        "us",
    );
    m.set("dump.checkpoint_ms", ms(r.checkpoint), "ms");
    m.set(
        "mvcc.cow_clones_per_write",
        ratio(r.cow_clones as f64, r.runs as f64),
        "ratio",
    );
    m.set("txn.commits", r.txn_commits as f64, "count");
    m.set(
        "txn.conflict_ratio",
        ratio(
            r.txn_conflicts as f64,
            (r.txn_commits + r.txn_conflicts) as f64,
        ),
        "ratio",
    );
    m.set(
        "exec.rows_visited_per_query",
        ratio(r.rows_visited as f64, r.queries_run as f64),
        "count",
    );
    m.set(
        "exec.full_scan_share",
        ratio(r.full_scans as f64, r.queries_run as f64),
        "ratio",
    );
    m.set(
        "exec.vectorized_share",
        ratio(r.vectorized as f64, r.queries_run as f64),
        "ratio",
    );
    m.set("query.fig7_ms_p50", median(&r.query_ms), "ms");
    m.set(
        "dag.elements_per_query",
        r.dag_elements as f64 / r.query_ms.len() as f64,
        "count",
    );
    m.set("mem.bytes_per_row", r.bytes_per_row, "B");
    crate::analyze::dag_metrics(m, bench::QUERY_XML)?;

    // Traced files against the untraced files of the same campaign.
    let root_ms = trace::self_times(m, &[tr], "import.file");
    trace::reconcile(m, gates, median(&root_ms), median(&traced[0].untraced_ms));
    let imports: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.import_ms.iter().copied())
        .collect();
    let checks: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.query_ms.iter().copied())
        .collect();
    m.set("tail.op_ms", quantile(&imports, OP_TAIL), "ms");
    m.set("tail.query_ms", quantile(&checks, QUERY_TAIL), "ms");
    m.set("samples.op", imports.len() as f64, "count");
    m.set("samples.query", checks.len() as f64, "count");
    trace::write_spans(args, &[tr])
}
