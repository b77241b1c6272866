//! `analyze_campaign`: read-only analysis of an imported campaign. Set-up
//! imports a seeded campaign into a plain experiment and into a copy
//! sharded over a 4-node cluster (no simulated latency, pushdown on), and
//! saves the plain one as a dump. The run opens the dump the way every CLI
//! command does, then one closed-loop client cycles a fixed rotation of
//! five queries through both DAG runners and the pushdown path.

use crate::import::{campaign, submit, Campaign, IMPORT_TIME};
use crate::trace::{self, Tracer};
use crate::util::{
    bytes_per_row, class_p50, median, ms, quantile, ratio, us, Counters, Metrics, Report,
};
use crate::Args;
use obs::Counter;
use perfbase_core::experiment::ExperimentDb;
use perfbase_core::import::Importer;
use perfbase_core::query::spec::{query_from_str, QuerySpec};
use perfbase_core::query::{ParallelQueryRunner, QueryOutcome, QueryRunner};
use perfbase_core::xmldef;
use sqldb::cluster::{Cluster, LatencyModel};
use sqldb::Engine;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs imported by set-up.
const RUNS: usize = 1000;
/// Set-ups per run (the reported set-up time is their median).
const SETUPS: usize = 3;
/// Dump opens per run, spread over it (`open_s` is their median).
const OPENS: usize = 6;
/// Tail percentiles: the highest with at least ten samples beyond them in
/// a 30 s run (about 250 rotations of five queries; p90 still holds on a
/// host half as fast).
const OP_TAIL: f64 = 0.90;
const QUERY_TAIL: f64 = 0.95;
/// Nodes of the sharded copy.
const NODES: usize = 4;

/// Which DAG runner, on which experiment, runs a rotation query.
#[derive(Clone, Copy)]
enum Runner {
    Serial,
    Parallel,
    Sharded,
}

/// The rotation, in order: class name, query XML, runner.
fn rotation() -> Vec<(&'static str, String, Runner)> {
    vec![
        ("fig7", bench::QUERY_XML.to_string(), Runner::Serial),
        ("sweep", bench::sweep_query_xml(), Runner::Parallel),
        ("sweep_serial", bench::sweep_query_xml(), Runner::Serial),
        ("chain8", bench::chain_query_xml(8), Runner::Serial),
        (
            "fig7_sharded",
            bench::QUERY_XML.to_string(),
            Runner::Sharded,
        ),
    ]
}

/// Import every file of `c` into a fresh in-memory experiment, through
/// `Importer::import_file` or, traced, through its public steps.
fn import_all(c: &Campaign, mut tracer: Option<&mut Tracer>) -> Result<ExperimentDb, String> {
    let def = xmldef::definition_from_str(bench::EXPERIMENT_XML).map_err(|e| e.to_string())?;
    let db = ExperimentDb::create(Arc::new(Engine::new()), def).map_err(|e| e.to_string())?;
    let desc = bench::input_description();
    let importer = Importer::new(&db).at_time(IMPORT_TIME);
    for (k, &fi) in c.order.iter().enumerate() {
        let (name, content) = &c.files[fi];
        submit(
            &db,
            &importer,
            &desc,
            name,
            content,
            tracer.as_deref_mut(),
            k as u64,
        )?;
    }
    Ok(db)
}

/// What set-up leaves for the run: the sharded copy and the plain
/// experiment's dump.
struct Setup {
    sharded: ExperimentDb,
    dump: std::path::PathBuf,
}

fn setup(c: &Campaign, args: &Args, tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let plain = import_all(c, tracer)?;
    let sharded = import_all(c, None)?;
    let cluster = Cluster::with_frontend(sharded.engine().clone(), NODES, LatencyModel::none());
    sharded
        .attach_cluster(Arc::new(cluster))
        .map_err(|e| e.to_string())?;
    let dump = args.work.join("analysis.sql");
    plain.checkpoint(&dump).map_err(|e| e.to_string())?;
    Ok(Setup { sharded, dump })
}

fn run_query(
    class: Runner,
    spec: &QuerySpec,
    plain: &ExperimentDb,
    sharded: &ExperimentDb,
) -> Result<QueryOutcome, String> {
    let out = match class {
        Runner::Serial => QueryRunner::new(plain).run(spec.clone()),
        Runner::Parallel => ParallelQueryRunner::new(plain).run(spec.clone()),
        Runner::Sharded => QueryRunner::new(sharded).run(spec.clone()),
    };
    out.map_err(|e| e.to_string())
}

/// The one artifact a query renders.
fn artifact(out: &QueryOutcome, id: &str) -> Result<String, String> {
    out.artifacts
        .get(id)
        .cloned()
        .ok_or_else(|| format!("query rendered no '{id}' artifact"))
}

/// `dag.spec_parse_us`: median time to parse `xml` into a query spec.
pub fn dag_metrics(m: &mut Metrics, xml: &str) -> Result<(), String> {
    let mut t = Vec::new();
    for _ in 0..200 {
        let start = Instant::now();
        let spec = query_from_str(xml).map_err(|e| e.to_string())?;
        t.push(us(start.elapsed()));
        std::hint::black_box(spec);
    }
    m.set("dag.spec_parse_us", median(&t), "us");
    Ok(())
}

#[derive(Default)]
struct Samples {
    rotation_ms: Vec<f64>,
    query_ms: Vec<f64>,
    by_class: BTreeMap<&'static str, Vec<f64>>,
    /// Per query: total element time by kind (source, operator, output).
    kind_ms: BTreeMap<&'static str, Vec<f64>>,
    source_ns: u128,
    element_ns: u128,
    messages: u64,
    rows_shipped: u64,
    sharded_queries: u64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let c = campaign(args.seed, RUNS, 0);
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = args.trace.then(|| Tracer::new(origin));

    let mut setup_s = Vec::new();
    let mut s = None;
    for k in 0..SETUPS {
        drop(s.take());
        let t = Instant::now();
        // The traced run traces the first set-up's imports (input and
        // experiment layers, predicted flat against import_campaign).
        let tr = if k == 0 { tracer.as_mut() } else { None };
        s = Some(setup(&c, args, tr)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    report.attempted += (SETUPS * RUNS) as u64;

    // The analyst opens the dump the way every CLI command does; the
    // opens are spread over the run, each followed by rotations on the
    // freshly opened experiment.
    let mut open_s = Vec::new();
    let open = |report: &mut Report, open_s: &mut Vec<f64>| -> Result<ExperimentDb, String> {
        let t = Instant::now();
        let engine = Engine::load_from_file(&s.dump).map_err(|e| e.to_string())?;
        let db = ExperimentDb::open(Arc::new(engine)).map_err(|e| e.to_string())?;
        open_s.push(t.elapsed().as_secs_f64());
        let runs = db.run_ids().map_err(|e| e.to_string())?.len();
        report.gates.check(runs == RUNS, || {
            format!("open: {runs} runs in the reopened dump, {RUNS} imported")
        });
        Ok(db)
    };
    let mut plain = open(&mut report, &mut open_s)?;

    let classes: Vec<(&'static str, QuerySpec, Runner)> = rotation()
        .into_iter()
        .map(|(n, xml, r)| query_from_str(&xml).map(|q| (n, q, r)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    // Reference artifacts from the first rotation; every later one must
    // match byte for byte, and the sharded/parallel forms must match the
    // serial ones.
    let mut reference: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut transfer: Option<(u64, u64)> = None;
    let mut plain_samples = Samples::default();
    let mut traced_samples = Samples::default();
    let before = Counters::now();
    let mut queries = 0u64;
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(args.seconds);
    let mut k = 0u64;
    while k < 4 || Instant::now() < deadline {
        if began.elapsed().as_secs_f64() * OPENS as f64 > args.seconds * open_s.len() as f64 {
            drop(plain);
            plain = open(&mut report, &mut open_s)?;
        }
        let traced = args.trace && k % 2 == 1;
        let samples = if traced {
            &mut traced_samples
        } else {
            &mut plain_samples
        };
        let t_rot = Instant::now();
        let mut one = |tr: Option<&mut Tracer>| -> Result<(), String> {
            let mut tr = tr;
            for (name, spec, runner) in &classes {
                report.attempted += 1;
                queries += 1;
                let t = Instant::now();
                let out = match tr.as_deref_mut() {
                    Some(tr) => tr.span(span_name(name), k, |_| {
                        run_query(*runner, spec, &plain, &s.sharded)
                    }),
                    None => run_query(*runner, spec, &plain, &s.sharded),
                };
                let d = ms(t.elapsed());
                let out = match out {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        report.failed += 1;
                        continue;
                    }
                };
                samples.query_ms.push(d);
                samples.by_class.entry(name).or_default().push(d);
                let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
                for t in &out.timings {
                    *by_kind.entry(t.kind).or_default() += ms(t.wall);
                    samples.element_ns += t.wall.as_nanos();
                    if t.kind == "source" {
                        samples.source_ns += t.wall.as_nanos();
                    }
                }
                for (kind, v) in by_kind {
                    samples.kind_ms.entry(kind).or_default().push(v);
                }
                if let Some(tx) = out.transfer {
                    samples.messages += tx.messages;
                    samples.rows_shipped += tx.rows;
                    samples.sharded_queries += 1;
                    // Traffic of the same query over the same shards must
                    // repeat exactly.
                    let first = *transfer.get_or_insert((tx.messages, tx.rows));
                    report.gates.check(first == (tx.messages, tx.rows), || {
                        format!("{name}: moved {tx:?}, first run moved {first:?}")
                    });
                }
                let art_id = if name.starts_with("fig7") {
                    "plot"
                } else {
                    "o"
                };
                let a = artifact(&out, art_id)?;
                let key: &'static str = match *name {
                    "fig7_sharded" => "fig7",
                    "sweep_serial" => "sweep",
                    n => n,
                };
                match reference.get(key) {
                    Some(r) => report.gates.check(*r == a, || {
                        format!("{name}: artifact differs from the reference rendering")
                    }),
                    None => {
                        reference.insert(key, a);
                    }
                }
            }
            Ok(())
        };
        if traced {
            let tr = tracer.as_mut().expect("traced run has a tracer");
            tr.span("analyze.rotation", k, |tr| one(Some(tr)))?;
        } else {
            one(None)?;
        }
        samples.rotation_ms.push(ms(t_rot.elapsed()));
        k += 1;
    }

    let m = &mut report.metrics;
    if !args.trace {
        let p = &plain_samples;
        let wall_s: f64 = p.rotation_ms.iter().sum::<f64>() / 1e3;
        m.set("setup_s", median(&setup_s), "s");
        m.set("open_s", median(&open_s), "s");
        m.set("ops_per_s", p.rotation_ms.len() as f64 / wall_s, "1/s");
        m.set("op_p50_ms", median(&p.rotation_ms), "ms");
        m.set("query_p50_ms", class_p50(p.by_class.values()), "ms");
        let dump_bytes = std::fs::metadata(&s.dump).map(|m| m.len()).unwrap_or(0);
        m.set(
            "stored_bytes_per_input_byte",
            dump_bytes as f64 / c.input_bytes as f64,
            "ratio",
        );
        eprintln!(
            "analyze_campaign: {} rotations, {} queries",
            p.rotation_ms.len(),
            p.query_ms.len()
        );
        return Ok(report);
    }

    let tr = tracer.as_ref().expect("traced run has a tracer");
    let t = &traced_samples;
    for (class, _, _) in &classes {
        let v = t.by_class.get(class).cloned().unwrap_or_default();
        m.set(&format!("query.{class}_ms_p50"), median(&v), "ms");
    }
    for kind in ["source", "operator", "output"] {
        let v = t.kind_ms.get(kind).cloned().unwrap_or_default();
        m.set(&format!("dag.{kind}_ms_p50"), median(&v), "ms");
    }
    m.set(
        "dag.source_fraction",
        ratio(t.source_ns as f64, t.element_ns as f64),
        "ratio",
    );
    dag_metrics(m, bench::QUERY_XML)?;
    let q = queries as f64;
    m.set(
        "dag.elements_per_query",
        before.delta(Counter::DagElements) as f64 / q,
        "count",
    );
    let sq = t.sharded_queries + plain_samples.sharded_queries;
    m.set(
        "dag.pushdown_fused_per_query",
        ratio(before.delta(Counter::DagPushdownFused) as f64, sq as f64),
        "count",
    );
    m.set(
        "cluster.messages_per_query",
        ratio(t.messages as f64, t.sharded_queries as f64),
        "count",
    );
    m.set(
        "cluster.rows_shipped_per_query",
        ratio(t.rows_shipped as f64, t.sharded_queries as f64),
        "count",
    );
    let sql = before.delta(Counter::QueriesRun) as f64;
    m.set(
        "exec.rows_visited_per_query",
        ratio(before.delta(Counter::ScanRowsVisited) as f64, sql),
        "count",
    );
    m.set(
        "exec.full_scan_share",
        ratio(before.delta(Counter::PlanFullScan) as f64, sql),
        "ratio",
    );
    m.set(
        "exec.vectorized_share",
        ratio(before.delta(Counter::VectorizedScans) as f64, sql),
        "ratio",
    );
    let extract = tr.durations_us("input.extract");
    m.set("input.extract_us_p50", median(&extract), "us");
    m.set(
        "input.extract_mb_per_s",
        ratio(
            c.input_bytes as f64 / 1e6,
            extract.iter().sum::<f64>() / 1e6,
        ),
        "MB/s",
    );
    m.set(
        "experiment.dedup_us_p50",
        median(&tr.durations_us("experiment.dedup")),
        "us",
    );
    let add_run = tr.durations_us("experiment.add_run");
    m.set("experiment.add_run_us_p50", median(&add_run), "us");
    m.set("experiment.add_run_us_p99", quantile(&add_run, 0.99), "us");
    m.set("mem.bytes_per_row", bytes_per_row(plain.engine()), "B");

    // Traced rotations against the untraced ones they alternate with.
    let root_ms = trace::self_times(m, &[tr], "analyze.rotation");
    let untraced_p50 = median(&plain_samples.rotation_ms);
    trace::reconcile(m, &mut report.gates, median(&root_ms), untraced_p50);
    m.set(
        "tail.op_ms",
        quantile(&plain_samples.rotation_ms, OP_TAIL),
        "ms",
    );
    m.set(
        "tail.query_ms",
        quantile(&plain_samples.query_ms, QUERY_TAIL),
        "ms",
    );
    m.set(
        "samples.op",
        plain_samples.rotation_ms.len() as f64,
        "count",
    );
    m.set(
        "samples.query",
        plain_samples.query_ms.len() as f64,
        "count",
    );
    trace::write_spans(args, &[tr])?;
    Ok(report)
}

fn span_name(class: &str) -> &'static str {
    match class {
        "fig7" => "query.fig7",
        "sweep" => "query.sweep",
        "sweep_serial" => "query.sweep_serial",
        "chain8" => "query.chain8",
        _ => "query.fig7_sharded",
    }
}
