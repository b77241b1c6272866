//! Query execution (paper §3.3, §4.2, §4.3).
//!
//! Each element materialises its output vector into its own temporary table
//! (`pb_tmp_<query>_<element>`); only the table name (wrapped in a
//! [`DataVector`] with column metadata) flows between elements. Operators
//! lean on the database's aggregation (GROUP BY) wherever possible — the
//! paper's §4.2 performance argument.
//!
//! [`QueryRunner`] runs the graph wave by wave ([`QueryDag::waves`]); the
//! elements of one wave run concurrently on at most one worker per core.
//! Results do not depend on the width: artifacts, transfer statistics and
//! the order of [`QueryOutcome::timings`] are the same at every width.
//!
//! Operator mode selection is automatic (paper §3.3.2):
//!
//! * input vector stems from a **source** element → *data-set aggregation*:
//!   reduce result values that share an identical set of input parameters;
//! * single input from a non-source element → reduce the whole vector into
//!   a single element;
//! * two or more input vectors → element-wise operation after aligning the
//!   vectors on their common parameters.
//!
//! # Sharded execution (Fig. 3 at data scale)
//!
//! When the experiment database is attached to a cluster
//! ([`ExperimentDb::attach_cluster`]), each run's data table lives on its
//! owning node. The runner then rewrites eligible *source → aggregation*
//! pairs into **aggregation pushdown**: every owning node computes partial
//! aggregates (`count`/`sum`/`min`/`max`, with `avg` decomposed into
//! `sum` + `count`) over its local shard, and only the reduced partials
//! cross the simulated link before being merged on the frontend. Sources
//! that cannot be pushed down (non-decomposable operators like `median`,
//! multiple consumers, run-level values) **fall back** to materialising
//! the remote shards on the frontend row by row. Both paths charge the
//! cluster's [`TransferStats`], reported per query in
//! [`QueryOutcome::transfer`], and both return exactly the rows an
//! unsharded run returns.

use super::spec::{CombinerSpec, ElementKind, OpKind, OutputSpec, QuerySpec, SourceSpec};
use super::{DataVector, QueryDag};
use crate::error::{Error, Result};
use crate::experiment::{ExperimentDb, ExperimentDef, Occurrence};
use crate::output;
use sqldb::aggregate::{Accumulator, AggKind};
use sqldb::cluster::{Cluster, TransferStats};
use sqldb::{Engine, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall-clock cost of one executed element — the measurement behind the
/// §4.3 observation that source elements account for only ~10 % of query
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementTiming {
    /// Element id.
    pub id: String,
    /// Element kind name (`source`, `operator`, …).
    pub kind: &'static str,
    /// Time spent executing the element.
    pub wall: Duration,
    /// Rows in the element's output vector (0 for output elements) — the
    /// volume that would cross the interconnect under a Fig. 3 placement.
    pub rows: usize,
}

/// Everything a query run produces.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Output vectors by element id.
    pub vectors: HashMap<String, DataVector>,
    /// Rendered artifacts by output-element id.
    pub artifacts: HashMap<String, String>,
    /// Per-element timings, ordered by wave and, within a wave, by the
    /// element's position in the spec — the same order at every width.
    pub timings: Vec<ElementTiming>,
    /// Simulated interconnect traffic this query caused (messages, rows
    /// moved, simulated latency) — `Some` only when executed against a
    /// cluster, as the delta of the cluster's [`TransferStats`] across the
    /// run: the [`QueryRunner::on_cluster`] cluster if one is set, else
    /// the cluster the experiment is sharded over.
    pub transfer: Option<TransferStats>,
}

impl QueryOutcome {
    /// Fraction of total element time spent in source elements (§4.3).
    pub fn source_time_fraction(&self) -> f64 {
        let total: Duration = self.timings.iter().map(|t| t.wall).sum();
        if total.is_zero() {
            return 0.0;
        }
        let sources: Duration = self
            .timings
            .iter()
            .filter(|t| t.kind == "source")
            .map(|t| t.wall)
            .sum();
        sources.as_secs_f64() / total.as_secs_f64()
    }
}

/// The query runner: one wave scheduler for every configuration (paper
/// §4.3). [`QueryDag::waves`] groups elements whose inputs are ready; each
/// wave runs on `min(wave size, available cores)` scoped workers that take
/// the next element through an atomic index. A wave of width 1 runs inline
/// on the calling thread, so a chain, or any query on a 1-CPU host, never
/// spawns a thread.
///
/// When the experiment is sharded across a cluster, the runner pushes
/// eligible aggregations down to the data-owning nodes (see the module
/// docs); [`QueryRunner::pushdown`] can force the fallback path instead,
/// which is useful for measuring what the pushdown saves.
/// [`QueryRunner::on_cluster`] places the elements themselves on the nodes
/// of a cluster (Fig. 3).
pub struct QueryRunner<'a> {
    db: &'a ExperimentDb,
    pushdown: bool,
    cluster: Option<&'a Cluster>,
}

/// Another name for [`QueryRunner`], which runs every query
/// wave-parallel; kept for callers that still use it.
pub type ParallelQueryRunner<'a> = QueryRunner<'a>;

/// Per-run placement decisions shared by the workers of every wave.
struct Plan<'d> {
    dag: &'d QueryDag,
    /// `fused[op] = Some(source)`: see [`QueryRunner::plan_pushdown`].
    fused: Vec<Option<usize>>,
    /// Node each element runs on.
    exec_node: Vec<usize>,
    /// Node each element's output vector lives on.
    out_node: Vec<usize>,
}

/// What one element produced.
struct Executed {
    vector: Option<DataVector>,
    artifact: Option<String>,
    timing: ElementTiming,
}

/// Temp tables one run created, with the engine each lives on. They are
/// dropped when the run ends: on success and on every error path.
struct TempTables<'e>(Vec<(&'e Engine, String)>);

impl Drop for TempTables<'_> {
    fn drop(&mut self) {
        for (engine, table) in &self.0 {
            let _ = engine.drop_table(table, true);
        }
    }
}

impl<'a> QueryRunner<'a> {
    /// New runner (aggregation pushdown enabled, no element placement).
    pub fn new(db: &'a ExperimentDb) -> Self {
        QueryRunner {
            db,
            pushdown: true,
            cluster: None,
        }
    }

    /// Enable or disable aggregation pushdown on sharded databases. With
    /// pushdown off, every remote shard is materialised on the frontend
    /// (the fallback path) — results are identical, only the interconnect
    /// traffic differs.
    pub fn pushdown(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Place the elements on the nodes of `cluster` (paper Fig. 3).
    /// Element `i` runs on node `i % n`. Its output vector lands on the
    /// node of its first consumer and is copied to every other consumer's
    /// node; each move is charged to the cluster, whose traffic
    /// [`QueryOutcome::transfer`] then reports. Sources still read the
    /// experiment data through the experiment database.
    pub fn on_cluster(mut self, cluster: &'a Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Engine of node `n` (the experiment's own engine without placement).
    fn engine_of(&self, n: usize) -> &'a Engine {
        match self.cluster {
            Some(c) => &c.node(n).engine,
            None => self.db.engine(),
        }
    }

    /// Which operator elements can fuse with their source input into a
    /// sharded aggregation pushdown: `fused[op_idx] = Some(source_idx)`.
    ///
    /// The rewrite applies when the operator is a decomposable aggregate
    /// (`count`/`sum`/`min`/`max`/`avg`), its only input is a source, the
    /// source feeds nothing else, and the source's values are all
    /// multiple-occurrence (run-level values never touch the data tables,
    /// so there is nothing to push).
    fn plan_pushdown(&self, dag: &QueryDag, def: &ExperimentDef) -> Vec<Option<usize>> {
        let n = dag.spec.elements.len();
        let mut fused: Vec<Option<usize>> = vec![None; n];
        let sharded_over_multiple_nodes = self
            .db
            .sharding()
            .map(|sh| sh.cluster().len() > 1)
            .unwrap_or(false);
        if !self.pushdown || !sharded_over_multiple_nodes {
            return fused;
        }
        for (j, slot) in fused.iter_mut().enumerate() {
            let ElementKind::Operator(o) = &dag.spec.elements[j].kind else {
                continue;
            };
            let Some(agg) = o.op.aggregate() else {
                continue;
            };
            if !matches!(
                agg,
                AggKind::Count | AggKind::Sum | AggKind::Min | AggKind::Max | AggKind::Avg
            ) {
                continue;
            }
            let &[i] = &dag.input_idx[j][..] else {
                continue;
            };
            let ElementKind::Source(s) = &dag.spec.elements[i].kind else {
                continue;
            };
            if dag.consumers[i] != [j] {
                continue;
            }
            let Ok(plan) = plan_source(def, s) else {
                continue;
            };
            if !plan.once_values.is_empty() || plan.multi_values.is_empty() {
                continue;
            }
            *slot = Some(i);
        }
        fused
    }

    /// Execute `spec`. Every temp table the run created is dropped before
    /// this returns, whether it succeeds or fails.
    pub fn run(&self, spec: QuerySpec) -> Result<QueryOutcome> {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        self.run_width(spec, cores)
    }

    /// [`QueryRunner::run`] with at most `width` workers per wave.
    fn run_width(&self, spec: QuerySpec, width: usize) -> Result<QueryOutcome> {
        let dag = QueryDag::build(spec)?;
        let mut dag_span = obs::span("dag");
        dag_span.annotate(|| {
            format!(
                "query={} elements={}",
                dag.spec.name,
                dag.spec.elements.len()
            )
        });
        let n = dag.spec.elements.len();
        let sharding = self.db.sharding();
        let watched = self
            .cluster
            .or_else(|| sharding.as_ref().map(|sh| &**sh.cluster()));
        let stats_before = watched.map(Cluster::stats);
        let exec_node: Vec<usize> = (0..n)
            .map(|i| self.cluster.map_or(0, |c| i % c.len()))
            .collect();
        let out_node = (0..n)
            .map(|i| {
                dag.consumers[i]
                    .first()
                    .map_or(exec_node[i], |&c| exec_node[c])
            })
            .collect();
        let plan = Plan {
            dag: &dag,
            fused: self.plan_pushdown(&dag, &self.db.definition()),
            exec_node,
            out_node,
        };
        let mut temps = TempTables(Vec::new());
        let mut vectors: Vec<Option<DataVector>> = vec![None; n];
        let mut outcome = QueryOutcome::default();

        for wave in dag.waves() {
            for &i in &wave {
                let element = &dag.spec.elements[i];
                if !matches!(element.kind, ElementKind::Output(_)) {
                    let table = temp_table_name(&dag.spec.name, &element.id);
                    temps.0.push((self.engine_of(plan.out_node[i]), table));
                }
            }
            let done = run_wave(&wave, width, |i| self.run_element(&plan, i, &vectors))?;
            for (&i, e) in wave.iter().zip(done) {
                vectors[i] = e.vector;
                if let Some(a) = e.artifact {
                    outcome.artifacts.insert(e.timing.id.clone(), a);
                }
                outcome.timings.push(e.timing);
            }
            // Copy each vector to the nodes of its other consumers.
            let Some(cluster) = self.cluster else {
                continue;
            };
            for &i in &wave {
                let Some(v) = &vectors[i] else { continue };
                let home = plan.out_node[i];
                let mut extra: Vec<usize> = dag.consumers[i]
                    .iter()
                    .map(|&c| plan.exec_node[c])
                    .filter(|&node| node != home)
                    .collect();
                extra.sort_unstable();
                extra.dedup();
                for node in extra {
                    temps.0.push((&cluster.node(node).engine, v.table.clone()));
                    cluster.copy_table(home, &v.table, node, &v.table)?;
                }
            }
        }

        for (i, v) in vectors.into_iter().enumerate() {
            if let Some(v) = v {
                outcome.vectors.insert(dag.spec.elements[i].id.clone(), v);
            }
        }
        if let (Some(c), Some(before)) = (watched, &stats_before) {
            outcome.transfer = Some(c.stats().delta_since(before));
        }
        Ok(outcome)
    }

    /// Execute element `i` on its node; its inputs are in `vectors`.
    fn run_element(
        &self,
        plan: &Plan,
        i: usize,
        vectors: &[Option<DataVector>],
    ) -> Result<Executed> {
        let dag = plan.dag;
        let element = &dag.spec.elements[i];
        obs::incr(obs::Counter::DagElements);
        let mut el_span = obs::span("element");
        let started = Instant::now();
        let table = temp_table_name(&dag.spec.name, &element.id);
        let in_engine = self.engine_of(plan.exec_node[i]);
        let out_engine = self.engine_of(plan.out_node[i]);
        let input = |k: usize| {
            vectors[dag.input_idx[i][k]]
                .as_ref()
                .expect("inputs ran in earlier waves")
        };
        let source_fused = plan.fused.contains(&Some(i));
        let mut artifact = None;
        let vector = match &element.kind {
            // A fused source executes inside its consuming aggregation
            // operator, on the data-owning nodes.
            ElementKind::Source(_) if source_fused => None,
            ElementKind::Source(s) => Some(run_source(self.db, out_engine, s, &table)?),
            ElementKind::Operator(o) => Some(match plan.fused[i] {
                Some(si) => {
                    obs::incr(obs::Counter::DagPushdownFused);
                    let ElementKind::Source(s) = &dag.spec.elements[si].kind else {
                        unreachable!("fusion plan only names sources")
                    };
                    let agg = o.op.aggregate().expect("fused operators aggregate");
                    run_pushdown_aggregate(self.db, agg, s, out_engine, &table)?
                }
                None => {
                    let inputs: Vec<(&DataVector, bool)> = dag.input_idx[i]
                        .iter()
                        .enumerate()
                        .map(|(k, &j)| {
                            let kind = &dag.spec.elements[j].kind;
                            (input(k), matches!(kind, ElementKind::Source(_)))
                        })
                        .collect();
                    run_operator(in_engine, out_engine, &o.op, &inputs, &table)?
                }
            }),
            ElementKind::Combiner(c) => Some(run_combiner(
                in_engine,
                out_engine,
                c,
                input(0),
                input(1),
                &table,
            )?),
            ElementKind::Output(o) => {
                let inputs: Vec<&DataVector> = (0..dag.input_idx[i].len()).map(input).collect();
                let text = run_output(in_engine, o, &inputs)?;
                if let Some(path) = &o.filename {
                    std::fs::write(path, &text)?;
                }
                artifact = Some(text);
                None
            }
        };
        let rows = vector
            .as_ref()
            .map_or(0, |v| out_engine.row_count(&v.table).unwrap_or(0));
        if let Some(c) = self.cluster {
            if vector.is_some() && plan.exec_node[i] != plan.out_node[i] {
                // Fig. 3: the vector was written to its consumer's node.
                c.charge_transfer(rows);
            }
        }
        el_span.annotate(|| {
            let decision = match &element.kind {
                ElementKind::Source(_) if source_fused => " fused-into-consumer",
                ElementKind::Operator(_) if plan.fused[i].is_some() => " pushdown=fused",
                _ => "",
            };
            format!(
                "id={} kind={}{} rows={rows}",
                element.id,
                element.kind.name(),
                decision
            )
        });
        obs::record_duration(obs::Hist::ElementNs, started.elapsed());
        Ok(Executed {
            vector,
            artifact,
            timing: ElementTiming {
                id: element.id.clone(),
                kind: element.kind.name(),
                wall: started.elapsed(),
                rows,
            },
        })
    }
}

/// Run `f` on every element of `wave` with `min(wave.len(), width)`
/// workers, each taking the next element through an atomic index. Results
/// come back in wave order, and the first error in wave order wins. A
/// single worker runs inline on the calling thread; spawned workers open
/// their spans under the caller's current span.
fn run_wave<T: Send>(
    wave: &[usize],
    width: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let workers = width.min(wave.len());
    if workers <= 1 {
        return wave.iter().map(|&i| f(i)).collect();
    }
    // The index publishes no data (results come back through `join`), so
    // `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let parent = obs::current_span();
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _parent = obs::enter(parent);
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = wave.get(k) else { break done };
                        done.push((k, f(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut results = Vec::with_capacity(wave.len());
    for done in joined {
        results.extend(done.map_err(|_| Error::Query("query worker thread panicked".into()))?);
    }
    results.sort_by_key(|&(k, _)| k);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Temp-table name for one element of one query.
pub(crate) fn temp_table_name(query: &str, element: &str) -> String {
    format!("pb_tmp_{query}_{element}")
}

/// Render a [`Value`] as an SQL literal.
pub(crate) fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Timestamp(t) => t.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.is_finite() {
                format!("{f:?}")
            } else {
                "NULL".to_string()
            }
        }
    }
}

/// The once/multiple classification of everything a source element
/// references: WHERE clauses split by occurrence, plus the carry and value
/// columns split the same way. Shared by the plain source path
/// ([`run_source`]) and the sharded aggregation pushdown.
pub(crate) struct SourcePlan {
    /// Restrictions on run-level (once-occurrence) columns, incl. run filters.
    pub once_where: Vec<String>,
    /// Restrictions on data-set (multiple-occurrence) columns.
    pub multi_where: Vec<String>,
    /// Carried parameters that are run-constant.
    pub once_carry: Vec<String>,
    /// Carried parameters that vary within a run.
    pub multi_carry: Vec<String>,
    /// Requested values that are run-constant.
    pub once_values: Vec<String>,
    /// Requested values living in the per-run data tables.
    pub multi_values: Vec<String>,
}

impl SourcePlan {
    /// `SELECT run_id, <once cols> FROM pb_runs [WHERE …] ORDER BY run_id`,
    /// returning the selected column list alongside the SQL.
    fn runs_query(&self) -> (Vec<String>, String) {
        let mut run_cols = vec!["run_id".to_string()];
        run_cols.extend(self.once_carry.iter().cloned());
        run_cols.extend(self.once_values.iter().cloned());
        let mut sql = format!("SELECT {} FROM pb_runs", run_cols.join(", "));
        if !self.once_where.is_empty() {
            sql.push_str(&format!(" WHERE {}", self.once_where.join(" AND ")));
        }
        sql.push_str(" ORDER BY run_id");
        (run_cols, sql)
    }
}

/// Classify a source spec against the experiment definition (see
/// [`SourcePlan`]).
pub(crate) fn plan_source(def: &ExperimentDef, spec: &SourceSpec) -> Result<SourcePlan> {
    // Sort every referenced variable into once/multiple occurrence.
    let occurrence_of = |name: &str| -> Result<Occurrence> {
        def.variable(name)
            .map(|v| v.occurrence)
            .ok_or_else(|| Error::Query(format!("source references unknown variable '{name}'")))
    };
    let mut once_where = Vec::new();
    let mut multi_where = Vec::new();
    for f in &spec.filters {
        let var = def
            .variable(&f.parameter)
            .ok_or_else(|| Error::Query(format!("unknown filter parameter '{}'", f.parameter)))?;
        let clause = if f.op == super::spec::FilterOp::In {
            let lits: Result<Vec<String>> = f
                .value
                .split(',')
                .map(|raw| Ok(sql_literal(&var.parse_content(raw.trim())?)))
                .collect();
            format!("{} IN ({})", f.parameter, lits?.join(", "))
        } else {
            let lit = sql_literal(&var.parse_content(&f.value)?);
            format!("{} {} {}", f.parameter, f.op.sql(), lit)
        };
        match var.occurrence {
            Occurrence::Once => once_where.push(clause),
            Occurrence::Multiple => multi_where.push(clause),
        }
    }
    if let Some(from) = spec.run_filter.from {
        once_where.push(format!("created >= {from}"));
    }
    if let Some(to) = spec.run_filter.to {
        once_where.push(format!("created <= {to}"));
    }
    if !spec.run_filter.ids.is_empty() {
        let ids: Vec<String> = spec.run_filter.ids.iter().map(i64::to_string).collect();
        once_where.push(format!("run_id IN ({})", ids.join(", ")));
    }

    let mut once_carry = Vec::new();
    let mut multi_carry = Vec::new();
    for c in &spec.carry {
        match occurrence_of(c)? {
            Occurrence::Once => once_carry.push(c.clone()),
            Occurrence::Multiple => multi_carry.push(c.clone()),
        }
    }
    let mut once_values = Vec::new();
    let mut multi_values = Vec::new();
    for v in &spec.values {
        match occurrence_of(v)? {
            Occurrence::Once => once_values.push(v.clone()),
            Occurrence::Multiple => multi_values.push(v.clone()),
        }
    }
    Ok(SourcePlan {
        once_where,
        multi_where,
        once_carry,
        multi_carry,
        once_values,
        multi_values,
    })
}

/// Column labels from the experiment definition (`synopsis [unit]`).
fn source_labels(def: &ExperimentDef, cols: &[String]) -> HashMap<String, String> {
    let mut labels = HashMap::new();
    for c in cols {
        if let Some(var) = def.variable(c) {
            let unit = var.unit.to_string();
            let base = if var.synopsis.is_empty() {
                var.name.clone()
            } else {
                var.synopsis.clone()
            };
            labels.insert(
                c.clone(),
                if unit.is_empty() {
                    base
                } else {
                    format!("{base} [{unit}]")
                },
            );
        }
    }
    labels
}

/// Execute a source element (paper §3.3.1): retrieve data tuples matching
/// the parameter and run restrictions from the experiment database
/// `db`, materialising the output vector into `table` on `out_engine`.
///
/// On a sharded experiment each run's data query executes on the run's
/// owning node and the matching rows travel to the frontend (charged) —
/// this is the fallback materialization path for everything the
/// aggregation pushdown cannot handle.
pub(crate) fn run_source(
    db: &ExperimentDb,
    out_engine: &Engine,
    spec: &SourceSpec,
    table: &str,
) -> Result<DataVector> {
    let def = db.definition();
    let plan = plan_source(&def, spec)?;

    // 1. Select matching runs (shared read access on pb_runs).
    let (run_cols, sql) = plan.runs_query();
    let runs = db.engine().query(&sql)?;

    // 2. Per run, select the matching data sets and attach the run-level
    //    columns.
    let params: Vec<String> = plan
        .once_carry
        .iter()
        .chain(&plan.multi_carry)
        .cloned()
        .collect();
    let values: Vec<String> = plan
        .once_values
        .iter()
        .chain(&plan.multi_values)
        .cloned()
        .collect();
    let out_cols: Vec<String> = params.iter().chain(&values).cloned().collect();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    for run_row in runs.rows() {
        let run_id = run_row[0].as_i64().expect("run_id is INTEGER");
        let once_vals: HashMap<&str, &Value> = run_cols
            .iter()
            .skip(1)
            .zip(run_row.iter().skip(1))
            .map(|(n, v)| (n.as_str(), v))
            .collect();

        if plan.multi_carry.is_empty() && plan.multi_values.is_empty() {
            // Purely run-level data: one tuple per run.
            let row: Vec<Value> = out_cols
                .iter()
                .map(|c| (*once_vals[c.as_str()]).clone())
                .collect();
            rows.push(row);
            continue;
        }

        let data_table = crate::experiment::rundata_table_name(run_id);
        let mut dcols: Vec<String> = plan.multi_carry.clone();
        dcols.extend(plan.multi_values.iter().cloned());
        let mut dsql = format!("SELECT {} FROM {}", dcols.join(", "), data_table);
        if !plan.multi_where.is_empty() {
            dsql.push_str(&format!(" WHERE {}", plan.multi_where.join(" AND ")));
        }
        // One shard fragment materialised on the frontend per run — the
        // fallback path the aggregation pushdown avoids.
        if db.sharding().is_some() {
            obs::incr(obs::Counter::DagShardsMaterialized);
        }
        let data = db.query_run_data(run_id, &dsql)?;
        for drow in data.rows() {
            let dmap: HashMap<&str, &Value> = dcols
                .iter()
                .zip(drow.iter())
                .map(|(n, v)| (n.as_str(), v))
                .collect();
            let row: Vec<Value> = out_cols
                .iter()
                .map(|c| {
                    once_vals
                        .get(c.as_str())
                        .map(|v| (*v).clone())
                        .or_else(|| dmap.get(c.as_str()).map(|v| (*v).clone()))
                        .expect("column is carry or value")
                })
                .collect();
            rows.push(row);
        }
    }

    // 3. Materialise the vector, with labels from the definition.
    let labels = source_labels(&def, &out_cols);
    materialize(out_engine, table, &out_cols, rows)?;
    Ok(DataVector {
        table: table.to_string(),
        params,
        values,
        labels,
    })
}

/// Per-value partial-aggregate state while merging pushed-down results on
/// the frontend (the AVG → SUM/COUNT decomposition lives here).
enum Partial {
    /// `count`: partial counts sum up as integers.
    Count(i64),
    /// `avg`: merged as Σsum / Σcount of the per-node partials.
    Avg { sum: f64, cnt: i64 },
    /// `sum`/`min`/`max`: partials re-fed into the engine's own
    /// [`Accumulator`] (sum of sums, min of mins, max of maxes).
    Acc(Accumulator),
}

impl Partial {
    fn new(agg: AggKind) -> Partial {
        match agg {
            AggKind::Count => Partial::Count(0),
            AggKind::Avg => Partial::Avg { sum: 0.0, cnt: 0 },
            other => Partial::Acc(Accumulator::new(other)),
        }
    }

    fn finish(self) -> Result<Value> {
        Ok(match self {
            Partial::Count(n) => Value::Int(n),
            Partial::Avg { sum, cnt } => {
                if cnt > 0 {
                    Value::Float(sum / cnt as f64)
                } else {
                    Value::Null
                }
            }
            Partial::Acc(a) => a.finish().map_err(Error::Query)?,
        })
    }
}

/// Execute a fused *source → aggregation* pair with pushdown (module docs):
/// each run's owning node computes partial aggregates over its local
/// `pb_rundata_<id>` shard, only the partials cross the simulated link, and
/// the frontend merges them into exactly the vector the unsharded
/// `source + aggregate` pair would produce (same columns, labels and rows).
fn run_pushdown_aggregate(
    db: &ExperimentDb,
    agg: AggKind,
    spec: &SourceSpec,
    out_engine: &Engine,
    table: &str,
) -> Result<DataVector> {
    let def = db.definition();
    let plan = plan_source(&def, spec)?;
    debug_assert!(plan.once_values.is_empty() && !plan.multi_values.is_empty());

    // 1. Matching runs from the frontend's run index.
    // Columns: run_id + once_carry (no once values by eligibility).
    let (_, sql) = plan.runs_query();
    let runs = db.engine().query(&sql)?;

    let params: Vec<String> = plan
        .once_carry
        .iter()
        .chain(&plan.multi_carry)
        .cloned()
        .collect();
    let values: Vec<String> = plan.multi_values.clone();
    // Same mode selection as run_operator_single: parameters present →
    // data-set aggregation (GROUP BY all parameters); none → reduce the
    // whole vector into a single element.
    let grouped = !params.is_empty();

    // 2. Partial-aggregate SELECT list: group columns, a row counter (so
    //    runs contributing nothing are skipped), then per value either the
    //    aggregate itself or — for avg — its SUM/COUNT decomposition.
    let mut sel: Vec<String> = plan.multi_carry.clone();
    sel.push("count(*) AS pb_rows".to_string());
    let pb_rows_idx = plan.multi_carry.len();
    let mut value_cols: Vec<(usize, Option<usize>)> = Vec::with_capacity(values.len());
    for v in &values {
        match agg {
            AggKind::Avg => {
                value_cols.push((sel.len(), Some(sel.len() + 1)));
                sel.push(format!("sum({v}) AS pb_sum_{v}"));
                sel.push(format!("count({v}) AS pb_cnt_{v}"));
            }
            other => {
                value_cols.push((sel.len(), None));
                sel.push(format!("{}({v}) AS pb_agg_{v}", other.name()));
            }
        }
    }

    // 3. One partial query per run, executed where the shard lives; merge
    //    partials on the frontend keyed by the full parameter tuple.
    struct Group {
        key_vals: Vec<Value>,
        parts: Vec<Partial>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Group> = HashMap::new();
    for run_row in runs.rows() {
        let run_id = run_row[0].as_i64().expect("run_id is INTEGER");
        let data_table = crate::experiment::rundata_table_name(run_id);
        let mut psql = format!("SELECT {} FROM {}", sel.join(", "), data_table);
        if !plan.multi_where.is_empty() {
            psql.push_str(&format!(" WHERE {}", plan.multi_where.join(" AND ")));
        }
        if !plan.multi_carry.is_empty() {
            psql.push_str(&format!(" GROUP BY {}", plan.multi_carry.join(", ")));
        }
        let partials = db.query_run_data(run_id, &psql)?;
        for prow in partials.rows() {
            if prow[pb_rows_idx].as_i64() == Some(0) {
                // No data sets matched in this run (only possible without a
                // GROUP BY): the unsharded source contributes no rows.
                continue;
            }
            // Key and key values: once-carries from the run row, then the
            // group columns of the partial row — the params order.
            let mut key_vals: Vec<Value> = run_row[1..].to_vec();
            key_vals.extend(prow[..plan.multi_carry.len()].iter().cloned());
            let key = key_vals
                .iter()
                .map(canon_key)
                .collect::<Vec<_>>()
                .join("\u{1}");
            let g = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Group {
                    key_vals,
                    parts: values.iter().map(|_| Partial::new(agg)).collect(),
                }
            });
            for (part, &(c0, c1)) in g.parts.iter_mut().zip(&value_cols) {
                match part {
                    Partial::Count(n) => *n += prow[c0].as_i64().unwrap_or(0),
                    Partial::Avg { sum, cnt } => {
                        if let Some(s) = prow[c0].as_f64() {
                            *sum += s;
                        }
                        *cnt += prow[c1.expect("avg has a count column")]
                            .as_i64()
                            .unwrap_or(0);
                    }
                    Partial::Acc(a) => a.update(&prow[c0]),
                }
            }
        }
    }

    let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(order.len());
    for key in order {
        let g = groups.remove(&key).expect("group recorded in order");
        let mut row = g.key_vals;
        for part in g.parts {
            row.push(part.finish()?);
        }
        out_rows.push(row);
    }
    if !grouped && out_rows.is_empty() {
        // Full reduction over an empty vector still yields one row, like
        // `SELECT agg(c) FROM t` does: NULL, or 0 for count.
        let empty: Result<Vec<Value>> = values.iter().map(|_| Partial::new(agg).finish()).collect();
        out_rows.push(empty?);
    }

    // 4. Materialise on the frontend with the labels the unsharded
    //    source → aggregate pair would carry.
    let out_cols: Vec<String> = if grouped {
        params.iter().chain(&values).cloned().collect()
    } else {
        values.clone()
    };
    let mut labels = source_labels(&def, &out_cols);
    for c in &values {
        let base = labels.get(c).cloned().unwrap_or_else(|| c.clone());
        labels.insert(c.clone(), format!("{}({base})", agg.name()));
    }
    materialize(out_engine, table, &out_cols, out_rows)?;
    Ok(DataVector {
        table: table.to_string(),
        params: if grouped { params } else { Vec::new() },
        values,
        labels,
    })
}

/// Create `table` on `engine` holding `rows` under `columns`.
pub(crate) fn materialize(
    engine: &Engine,
    table: &str,
    columns: &[String],
    rows: Vec<Vec<Value>>,
) -> Result<()> {
    use sqldb::{Column, DataType, Schema};
    let mut cols = Vec::with_capacity(columns.len());
    for (i, name) in columns.iter().enumerate() {
        let dtype = rows
            .iter()
            .find_map(|r| r.get(i).and_then(Value::data_type))
            .unwrap_or(DataType::Float);
        cols.push(Column::new(name, dtype));
    }
    engine.drop_table(table, true)?;
    engine.create_table_opts(table, Schema::new(cols)?, true, false)?;
    engine.insert_rows(table, rows)?;
    Ok(())
}

/// Read a vector's rows from wherever its temp table lives.
pub(crate) fn read_vector(
    engine: &Engine,
    v: &DataVector,
) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
    let (schema, rows) = engine.read_snapshot(&v.table)?;
    Ok((schema.names(), rows))
}

/// Execute an operator element. `in_engine` holds the input tables,
/// `out_engine` receives the output table (they differ in cluster mode).
pub(crate) fn run_operator(
    in_engine: &Engine,
    out_engine: &Engine,
    op: &OpKind,
    inputs: &[(&DataVector, bool)],
    table: &str,
) -> Result<DataVector> {
    match inputs {
        [] => Err(Error::Query("operator without inputs".into())),
        [(v, from_source)] => {
            run_operator_single(in_engine, out_engine, op, v, *from_source, table)
        }
        multiple => run_operator_elementwise(in_engine, out_engine, op, multiple, table),
    }
}

/// Single-input operator: data-set aggregation (source input), full
/// reduction (non-source input), or row-wise transform (eval/scale/offset).
fn run_operator_single(
    in_engine: &Engine,
    out_engine: &Engine,
    op: &OpKind,
    v: &DataVector,
    from_source: bool,
    table: &str,
) -> Result<DataVector> {
    if let Some(agg) = op.aggregate() {
        let grouped = from_source && !v.params.is_empty();
        return aggregate_vector(in_engine, out_engine, agg, v, grouped, table);
    }
    // Row-wise transforms keep the vector shape.
    let (cols, rows) = read_vector(in_engine, v)?;
    let value_idx: Vec<usize> = v
        .values
        .iter()
        .map(|name| cols.iter().position(|c| c == name).expect("vector columns"))
        .collect();
    let mut out_rows = rows;
    let mut out_values = v.values.clone();
    match op {
        OpKind::Scale(f) => {
            for row in &mut out_rows {
                for &i in &value_idx {
                    if let Some(x) = row[i].as_f64() {
                        row[i] = Value::Float(x * f);
                    }
                }
            }
        }
        OpKind::Offset(b) => {
            for row in &mut out_rows {
                for &i in &value_idx {
                    if let Some(x) = row[i].as_f64() {
                        row[i] = Value::Float(x + b);
                    }
                }
            }
        }
        OpKind::Eval(expr) => {
            // New value column computed from any numeric columns.
            let mut rows2 = Vec::with_capacity(out_rows.len());
            for row in &out_rows {
                let mut ctx = exprcalc::Context::new();
                for (c, val) in cols.iter().zip(row.iter()) {
                    if let Some(x) = val.as_f64() {
                        ctx.set(c, x);
                    }
                }
                let y = expr.eval(&ctx).map_err(crate::error::Error::from)?;
                let mut r = row.clone();
                r.push(Value::Float(y));
                rows2.push(r);
            }
            out_rows = rows2;
            out_values.push("eval".to_string());
        }
        other => {
            return Err(Error::Query(format!(
                "operator '{}' cannot take a single input",
                other.name()
            )))
        }
    }
    let mut out_cols = cols;
    if out_values.len() > v.values.len() {
        out_cols.push("eval".to_string());
    }
    materialize(out_engine, table, &out_cols, out_rows)?;
    let mut labels = v.labels.clone();
    if let OpKind::Eval(expr) = op {
        labels.insert("eval".into(), expr.source().to_string());
    }
    Ok(DataVector {
        table: table.to_string(),
        params: v.params.clone(),
        values: out_values,
        labels,
    })
}

/// Aggregate `v` in the database: per data set (GROUP BY all parameters,
/// mode 1 of §3.3.2 — the in-database operator path the paper's §4.2
/// advocates) when `grouped`, else the whole vector into one element
/// (mode 2).
fn aggregate_vector(
    in_engine: &Engine,
    out_engine: &Engine,
    agg: AggKind,
    v: &DataVector,
    grouped: bool,
    table: &str,
) -> Result<DataVector> {
    let params: &[String] = if grouped { &v.params } else { &[] };
    let mut sel = params.to_vec();
    sel.extend(
        v.values
            .iter()
            .map(|c| format!("{}({c}) AS {c}", agg.name())),
    );
    let mut sql = format!("SELECT {} FROM {}", sel.join(", "), v.table);
    if grouped {
        sql.push_str(&format!(" GROUP BY {}", params.join(", ")));
    }
    let rs = in_engine.query(&sql)?;
    let cols: Vec<String> = rs.column_names().to_vec();
    materialize(out_engine, table, &cols, rs.into_rows())?;
    let mut labels = if grouped {
        v.labels.clone()
    } else {
        HashMap::new()
    };
    for c in &v.values {
        labels.insert(c.clone(), format!("{}({})", agg.name(), v.label(c)));
    }
    Ok(DataVector {
        table: table.to_string(),
        params: params.to_vec(),
        values: v.values.clone(),
        labels,
    })
}

/// Element-wise operation across ≥2 vectors aligned on common parameters
/// (mode 3 of §3.3.2).
fn run_operator_elementwise(
    in_engine: &Engine,
    out_engine: &Engine,
    op: &OpKind,
    inputs: &[(&DataVector, bool)],
    table: &str,
) -> Result<DataVector> {
    // Load every input up front so broadcast eligibility is known before
    // the alignment key is chosen.
    let loaded: Vec<(Vec<String>, Vec<Vec<Value>>)> = inputs
        .iter()
        .map(|(v, _)| read_vector(in_engine, v))
        .collect::<Result<_>>()?;

    // Broadcast rule: a vector with no parameters and a single tuple is
    // applied against every key (e.g. comparing a sweep to one global
    // reference number).
    let broadcast: Vec<Option<Vec<Value>>> = inputs
        .iter()
        .zip(&loaded)
        .map(|((v, _), (cols, rows))| {
            if v.params.is_empty() && rows.len() == 1 {
                let vidx: Vec<usize> = v
                    .values
                    .iter()
                    .filter_map(|name| cols.iter().position(|c| c == name))
                    .collect();
                Some(vidx.iter().map(|&i| rows[0][i].clone()).collect())
            } else {
                None
            }
        })
        .collect();

    // Alignment key: parameters common to every NON-broadcast input (the
    // broadcast inputs join every key by definition).
    let aligned: Vec<usize> = (0..inputs.len())
        .filter(|&k| broadcast[k].is_none())
        .collect();
    let common: Vec<String> = match aligned.first() {
        None => Vec::new(), // all inputs broadcast: one global tuple
        Some(&k0) => inputs[k0]
            .0
            .params
            .iter()
            .filter(|p| aligned.iter().all(|&k| inputs[k].0.params.contains(p)))
            .cloned()
            .collect(),
    };

    // Without an alignment key, multi-row vectors cannot be paired
    // element-wise; silently matching arbitrary rows would fabricate data.
    if common.is_empty() {
        for &k in &aligned {
            if loaded[k].1.len() > 1 {
                return Err(Error::Query(format!(
                    "cannot align vectors element-wise: input '{}' has {} rows but the \
                     inputs share no parameters (aggregate it first)",
                    inputs[k].0.table,
                    loaded[k].1.len()
                )));
            }
        }
    }

    // Key every non-broadcast input by its common-parameter tuple.
    // key → (parameter tuple, value tuple)
    type KeyedVector = HashMap<String, (Vec<Value>, Vec<Value>)>;
    let mut keyed: Vec<KeyedVector> = Vec::new();
    for ((v, _), (cols, rows)) in inputs.iter().zip(&loaded) {
        let pidx: Vec<usize> = common
            .iter()
            .filter_map(|p| cols.iter().position(|c| c == p))
            .collect();
        let vidx: Vec<usize> = v
            .values
            .iter()
            .filter_map(|name| cols.iter().position(|c| c == name))
            .collect();
        let mut map = HashMap::new();
        for row in rows {
            let key = pidx
                .iter()
                .map(|&i| canon_key(&row[i]))
                .collect::<Vec<_>>()
                .join("\u{1}");
            let pvals: Vec<Value> = pidx.iter().map(|&i| row[i].clone()).collect();
            let vvals: Vec<Value> = vidx.iter().map(|&i| row[i].clone()).collect();
            // Duplicate keys: last one wins (operators normally follow an
            // aggregation step, which makes keys unique).
            map.insert(key, (pvals, vvals));
        }
        keyed.push(map);
    }

    // The driver supplies the keys (and parameter tuples): the first
    // non-broadcast input, or input 0 when everything broadcasts.
    let driver = aligned.first().copied().unwrap_or(0);
    let first = inputs[0].0;

    let out_value_name = match op {
        OpKind::Eval(_) => "eval".to_string(),
        other => other.name().to_string(),
    };
    let mut out_rows = Vec::new();
    'keys: for (key, (pvals, driver_vals)) in &keyed[driver] {
        // Gather the aligned first value of every input.
        let mut operands: Vec<f64> = Vec::with_capacity(inputs.len());
        let mut named: exprcalc::Context = exprcalc::Context::new();
        for (slot, ((v, _), map)) in inputs.iter().zip(&keyed).enumerate() {
            let vals = if slot == driver {
                driver_vals.clone()
            } else if let Some(b) = &broadcast[slot] {
                b.clone()
            } else {
                match map.get(key) {
                    Some((_, vals)) => vals.clone(),
                    None => continue 'keys, // inner-join semantics
                }
            };
            let x = vals
                .first()
                .and_then(Value::as_f64)
                .ok_or_else(|| Error::Query("element-wise operator needs numeric values".into()))?;
            operands.push(x);
            // For eval: expose every value column, suffixed by position when
            // names collide across inputs.
            for (name, val) in v.values.iter().zip(&vals) {
                if let Some(f) = val.as_f64() {
                    let unique = inputs
                        .iter()
                        .enumerate()
                        .filter(|(k, (w, _))| *k != slot && w.values.contains(name))
                        .count()
                        == 0;
                    if unique {
                        named.set(name, f);
                    }
                    named.set(&format!("{name}_{}", slot + 1), f);
                }
            }
        }
        // Parameters are numeric context too (chunk sizes etc.).
        for (p, val) in common.iter().zip(pvals) {
            if let Some(f) = val.as_f64() {
                named.set(p, f);
            }
        }

        let y = apply_elementwise(op, &operands, &named)?;
        let mut row = pvals.clone();
        row.push(Value::Float(y));
        out_rows.push(row);
    }

    let mut out_cols = common.clone();
    out_cols.push(out_value_name.clone());
    materialize(out_engine, table, &out_cols, out_rows)?;

    let mut labels: HashMap<String, String> = HashMap::new();
    for p in &common {
        labels.insert(p.clone(), first.label(p));
    }
    let lname = first
        .values
        .first()
        .map(|c| first.label(c))
        .unwrap_or_default();
    let rname = inputs
        .get(1)
        .and_then(|(v, _)| v.values.first().map(|c| v.label(c)))
        .unwrap_or_default();
    let label = match op {
        OpKind::Diff => format!("{lname} - {rname}"),
        OpKind::Div => format!("{lname} / {rname}"),
        OpKind::PercentOf => format!("{lname} as % of {rname}"),
        OpKind::Above => format!("{lname} relative to {rname} [%]"),
        OpKind::Below => format!("{lname} below {rname} [%]"),
        OpKind::Eval(e) => e.source().to_string(),
        other => format!("{}({lname}, …)", other.name()),
    };
    labels.insert(out_value_name.clone(), label);

    Ok(DataVector {
        table: table.to_string(),
        params: common,
        values: vec![out_value_name],
        labels,
    })
}

fn apply_elementwise(op: &OpKind, xs: &[f64], named: &exprcalc::Context) -> Result<f64> {
    let binary = |f: fn(f64, f64) -> f64| -> Result<f64> {
        if xs.len() != 2 {
            return Err(Error::Query(format!(
                "operator '{}' needs exactly two inputs",
                op.name()
            )));
        }
        Ok(f(xs[0], xs[1]))
    };
    match op {
        OpKind::Diff => binary(|a, b| a - b),
        OpKind::Div => binary(|a, b| a / b),
        OpKind::PercentOf => binary(|a, b| a / b * 100.0),
        OpKind::Above => binary(|a, b| (a / b - 1.0) * 100.0),
        OpKind::Below => binary(|a, b| (1.0 - a / b) * 100.0),
        OpKind::Min => Ok(xs.iter().copied().fold(f64::INFINITY, f64::min)),
        OpKind::Max => Ok(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        OpKind::Sum => Ok(xs.iter().sum()),
        OpKind::Prod => Ok(xs.iter().product()),
        OpKind::Avg => Ok(xs.iter().sum::<f64>() / xs.len() as f64),
        OpKind::Median => {
            let mut v: Vec<f64> = xs.to_vec();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            Ok(if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            })
        }
        OpKind::Scale(f) => Ok(xs[0] * f),
        OpKind::Offset(b) => Ok(xs[0] + b),
        OpKind::Eval(e) => Ok(e.eval(named)?),
        other => Err(Error::Query(format!(
            "operator '{}' is not element-wise",
            other.name()
        ))),
    }
}

fn canon_key(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("t:{s}"),
        Value::Null => "null".to_string(),
        other => format!("n:{}", other.as_f64().unwrap_or(f64::NAN)),
    }
}

/// Execute a combiner element (paper §3.3.3): align two vectors on their
/// shared parameters; all result values of both pass through, duplicate
/// parameters are removed, colliding value names are suffixed.
pub(crate) fn run_combiner(
    in_engine: &Engine,
    out_engine: &Engine,
    spec: &CombinerSpec,
    left: &DataVector,
    right: &DataVector,
    table: &str,
) -> Result<DataVector> {
    let common: Vec<String> = left
        .params
        .iter()
        .filter(|p| right.params.contains(p))
        .cloned()
        .collect();

    let (lcols, lrows) = read_vector(in_engine, left)?;
    let (rcols, rrows) = read_vector(in_engine, right)?;

    let idx = |cols: &[String], name: &str| cols.iter().position(|c| c == name);
    let lkey: Vec<usize> = common
        .iter()
        .map(|p| idx(&lcols, p).expect("common"))
        .collect();
    let rkey: Vec<usize> = common
        .iter()
        .map(|p| idx(&rcols, p).expect("common"))
        .collect();

    // Rename colliding value columns.
    let rename = |name: &str, from_left: bool| -> String {
        let collides =
            left.values.contains(&name.to_string()) && right.values.contains(&name.to_string());
        if collides {
            format!(
                "{name}{}",
                if from_left {
                    &spec.suffix_left
                } else {
                    &spec.suffix_right
                }
            )
        } else {
            name.to_string()
        }
    };

    // Output layout: common params, left-only params, right-only params,
    // left values, right values.
    let mut out_params = common.clone();
    let lonly: Vec<String> = left
        .params
        .iter()
        .filter(|p| !common.contains(p))
        .cloned()
        .collect();
    let ronly: Vec<String> = right
        .params
        .iter()
        .filter(|p| !common.contains(p))
        .cloned()
        .collect();
    out_params.extend(lonly.iter().cloned());
    out_params.extend(ronly.iter().cloned());
    let lvals_out: Vec<String> = left.values.iter().map(|v| rename(v, true)).collect();
    let rvals_out: Vec<String> = right.values.iter().map(|v| rename(v, false)).collect();
    let mut out_cols = out_params.clone();
    out_cols.extend(lvals_out.iter().cloned());
    out_cols.extend(rvals_out.iter().cloned());

    // Hash-join right side by common key.
    let mut rmap: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
    for row in &rrows {
        let key = rkey
            .iter()
            .map(|&i| canon_key(&row[i]))
            .collect::<Vec<_>>()
            .join("\u{1}");
        rmap.entry(key).or_default().push(row);
    }

    let mut out_rows = Vec::new();
    for lrow in &lrows {
        let key = lkey
            .iter()
            .map(|&i| canon_key(&lrow[i]))
            .collect::<Vec<_>>()
            .join("\u{1}");
        let Some(matches) = rmap.get(&key) else {
            continue;
        };
        for rrow in matches {
            let mut row: Vec<Value> = Vec::with_capacity(out_cols.len());
            for p in &common {
                row.push(lrow[idx(&lcols, p).expect("common")].clone());
            }
            for p in &lonly {
                row.push(lrow[idx(&lcols, p).expect("lonly")].clone());
            }
            for p in &ronly {
                row.push(rrow[idx(&rcols, p).expect("ronly")].clone());
            }
            for v in &left.values {
                row.push(lrow[idx(&lcols, v).expect("lval")].clone());
            }
            for v in &right.values {
                row.push(rrow[idx(&rcols, v).expect("rval")].clone());
            }
            out_rows.push(row);
        }
    }

    materialize(out_engine, table, &out_cols, out_rows)?;

    let mut labels = HashMap::new();
    for p in &out_params {
        let l = left.labels.get(p).or_else(|| right.labels.get(p));
        if let Some(l) = l {
            labels.insert(p.clone(), l.clone());
        }
    }
    for (orig, renamed) in left.values.iter().zip(&lvals_out) {
        let mut label = left.label(orig);
        if renamed != orig {
            label.push_str(&format!(" [{}]", spec.suffix_left.trim_start_matches('_')));
        }
        labels.insert(renamed.clone(), label);
    }
    for (orig, renamed) in right.values.iter().zip(&rvals_out) {
        let mut label = right.label(orig);
        if renamed != orig {
            label.push_str(&format!(" [{}]", spec.suffix_right.trim_start_matches('_')));
        }
        labels.insert(renamed.clone(), label);
    }
    let mut out_values = lvals_out;
    out_values.extend(rvals_out);
    Ok(DataVector {
        table: table.to_string(),
        params: out_params,
        values: out_values,
        labels,
    })
}

/// Execute an output element: render every input vector in the requested
/// format (paper §3.3.4).
pub(crate) fn run_output(
    in_engine: &Engine,
    spec: &OutputSpec,
    inputs: &[&DataVector],
) -> Result<String> {
    let mut parts = Vec::with_capacity(inputs.len());
    for v in inputs {
        let (cols, mut rows) = read_vector(in_engine, v)?;
        // Deterministic presentation: sort by parameter columns.
        let pidx: Vec<usize> = v
            .params
            .iter()
            .filter_map(|p| cols.iter().position(|c| c == p))
            .collect();
        rows.sort_by(|a, b| {
            for &i in &pidx {
                let ord = a[i].total_cmp(&b[i]);
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        parts.push(output::render(spec, v, &cols, &rows)?);
    }
    Ok(parts.join("\n"))
}

#[cfg(test)]
mod wave_tests;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiment::{ExperimentDef, Meta, VarKind, Variable};
    use crate::query::spec::query_from_str;
    use sqldb::DataType;
    use std::sync::Arc;

    /// Small experiment: technique × chunk, bandwidth values, 2 runs per
    /// configuration with controlled numbers.
    pub(crate) fn seeded_db() -> ExperimentDb {
        let mut def = ExperimentDef::new(
            Meta {
                name: "t".into(),
                ..Meta::default()
            },
            "u",
        );
        def.add_variable(Variable::new("technique", VarKind::Parameter, DataType::Text).once())
            .unwrap();
        def.add_variable(Variable::new("chunk", VarKind::Parameter, DataType::Int))
            .unwrap();
        def.add_variable(Variable::new("bw", VarKind::ResultValue, DataType::Float))
            .unwrap();
        let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();

        // old: bw = chunk/100 + rep   new: bw = chunk/50 + rep (better)
        for technique in ["old", "new"] {
            for rep in 0..2 {
                let once: HashMap<String, Value> =
                    [("technique".to_string(), Value::Text(technique.into()))].into();
                let datasets: Vec<HashMap<String, Value>> = [100i64, 200, 400]
                    .iter()
                    .map(|&chunk| {
                        let factor = if technique == "old" { 100.0 } else { 50.0 };
                        [
                            ("chunk".to_string(), Value::Int(chunk)),
                            (
                                "bw".to_string(),
                                Value::Float(chunk as f64 / factor + rep as f64),
                            ),
                        ]
                        .into()
                    })
                    .collect();
                db.add_run(&once, &datasets, 1000 + rep).unwrap();
            }
        }
        db
    }

    #[test]
    fn source_retrieves_filtered_tuples() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["s"];
        assert_eq!(v.params, vec!["chunk"]);
        assert_eq!(v.values, vec!["bw"]);
        // 2 runs × 3 chunks.
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().count(), 1 + 6);
    }

    #[test]
    fn dataset_aggregation_mode() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="max" input="s"/>
               <output id="o" input="m" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // Aggregated over runs: 3 rows (one per chunk), max of rep 0/1 = +1.
        let csv = &out.artifacts["o"];
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[1].starts_with("100,"));
        assert!(lines[1].contains("2")); // 100/100 + 1
    }

    #[test]
    fn full_reduction_mode() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="max" input="s"/>
               <operator id="g" type="max" input="m"/>
               <output id="o" input="g" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["g"];
        assert!(v.params.is_empty());
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().count(), 2); // header + single reduced row
        assert!(csv.lines().nth(1).unwrap().starts_with("5")); // 400/100+1
    }

    /// Fig. 7 shape: two source → max chains joined by `above`.
    pub(crate) const FIG7ISH: &str = r#"<query name="q">
      <source id="s_old">
        <parameter name="technique" value="old"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <source id="s_new">
        <parameter name="technique" value="new"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <operator id="max_old" type="max" input="s_old"/>
      <operator id="max_new" type="max" input="s_new"/>
      <operator id="rel" type="above" input="max_new,max_old"/>
      <output id="o" input="rel" format="csv"/>
    </query>"#;

    /// A chain: every wave holds one element.
    pub(crate) const CHAIN: &str = r#"<query name="q"><source id="s">
         <parameter name="technique" value="old"/>
         <parameter name="chunk" carry="true"/>
         <value name="bw"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <operator id="x" type="scale" input="a" arg="2"/>
       <operator id="y" type="offset" input="x" arg="-1"/>
       <output id="o" input="y" format="csv"/></query>"#;

    /// Two averaged sources merged by a combiner.
    pub(crate) const COMBINER: &str = r#"<query name="q">
      <source id="s_old">
        <parameter name="technique" value="old"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <source id="s_new">
        <parameter name="technique" value="new"/>
        <parameter name="chunk" carry="true"/>
        <value name="bw"/>
      </source>
      <operator id="m1" type="avg" input="s_old"/>
      <operator id="m2" type="avg" input="s_new"/>
      <combiner id="c" input="m1,m2" suffixes="_old,_new"/>
      <output id="o" input="c" format="csv"/>
    </query>"#;

    #[test]
    fn fig7_pipeline_relative_difference() {
        let db = seeded_db();
        let out = QueryRunner::new(&db)
            .run(query_from_str(FIG7ISH).unwrap())
            .unwrap();
        let v = &out.vectors["rel"];
        assert_eq!(v.params, vec!["chunk"]);
        let (cols, rows) = {
            let csv = &out.artifacts["o"];
            let mut lines = csv.lines();
            let cols: Vec<String> = lines
                .next()
                .unwrap()
                .split(',')
                .map(str::to_string)
                .collect();
            let rows: Vec<Vec<String>> = lines
                .map(|l| l.split(',').map(str::to_string).collect())
                .collect();
            (cols, rows)
        };
        assert_eq!(cols, vec!["chunk", "above"]);
        assert_eq!(rows.len(), 3);
        // chunk=400: old max = 5, new max = 9 → (9/5-1)*100 = 80%
        let r400 = rows.iter().find(|r| r[0] == "400").unwrap();
        let pct: f64 = r400[1].parse().unwrap();
        assert!((pct - 80.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn eval_operator_single_input() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="avg" input="s"/>
               <operator id="e" type="eval" input="m" arg="bw * 8"/>
               <output id="o" input="e" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let v = &out.vectors["e"];
        assert!(v.values.contains(&"eval".to_string()));
        // avg over reps of chunk 100 = (1.0 + 2.0)/2 = 1.5; ×8 = 12
        let csv = &out.artifacts["o"];
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        assert!(line.ends_with("12") || line.contains("12"), "{line}");
    }

    #[test]
    fn scale_and_offset() {
        let db = seeded_db();
        let out = QueryRunner::new(&db)
            .run(query_from_str(CHAIN).unwrap())
            .unwrap();
        let csv = &out.artifacts["o"];
        // chunk 100: avg 1.5 → ×2 = 3 → -1 = 2
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        let val: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((val - 2.0).abs() < 1e-12);
    }

    #[test]
    fn combiner_merges_vectors() {
        let db = seeded_db();
        let out = QueryRunner::new(&db)
            .run(query_from_str(COMBINER).unwrap())
            .unwrap();
        let v = &out.vectors["c"];
        assert_eq!(v.params, vec!["chunk"]);
        assert_eq!(v.values, vec!["bw_old", "bw_new"]);
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().next().unwrap(), "chunk,bw_old,bw_new");
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn timings_cover_all_elements() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="a" type="avg" input="s"/>
               <output id="o" input="a" format="ascii"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        assert_eq!(out.timings.len(), 3);
        let frac = out.source_time_fraction();
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn temp_tables_cleaned_up() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="clean"><source id="s">
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="ascii"/></query>"#,
        )
        .unwrap();
        QueryRunner::new(&db).run(q).unwrap();
        assert!(db.engine().temp_table_names().is_empty());
        assert!(!db.engine().has_table("pb_tmp_clean_s"));
    }

    #[test]
    fn run_id_filter() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <run ids="1"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 3); // one run only
    }

    #[test]
    fn time_window_filter() {
        let db = seeded_db();
        // Runs were created at 1000 and 1001; restrict to created >= 1001.
        let mut q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        if let ElementKind::Source(s) = &mut q.elements[0].kind {
            s.run_filter.from = Some(1001);
        }
        let out = QueryRunner::new(&db).run(q).unwrap();
        // 2 techniques × 1 run × 3 chunks
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 6);
    }

    #[test]
    fn in_filter() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" op="in" value="old,new"/>
                 <parameter name="chunk" op="ge" value="200" carry="true"/>
                 <value name="bw"/>
               </source>
               <output id="o" input="s" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // 4 runs × 2 chunks (200, 400)
        assert_eq!(out.artifacts["o"].lines().count(), 1 + 8);
    }

    #[test]
    fn elementwise_without_shared_params_needs_aggregation() {
        let db = seeded_db();
        // Two raw multi-row source vectors aligned only on... nothing:
        // one side is reduced, the other is not, and the carries differ.
        let q = query_from_str(
            r#"<query name="q">
              <source id="a">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="b">
                <parameter name="technique" value="new"/>
                <value name="bw"/>
              </source>
              <operator id="d" type="diff" input="a,b"/>
              <output id="o" input="d" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let err = QueryRunner::new(&db).run(q).unwrap_err();
        assert!(err.to_string().contains("aggregate it first"), "{err}");
    }

    #[test]
    fn broadcast_against_global_reference() {
        let db = seeded_db();
        // Reduce one side to a single global number, then compare the whole
        // sweep against it (percentof with a broadcast input).
        let q = query_from_str(
            r#"<query name="q">
              <source id="sweep">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="per_chunk" type="max" input="sweep"/>
              <source id="refsrc">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="agg" type="max" input="refsrc"/>
              <operator id="best" type="max" input="agg"/>
              <operator id="pct" type="percentof" input="per_chunk,best"/>
              <output id="o" input="pct" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let csv = &out.artifacts["o"];
        // Global max is 5 (chunk 400, rep 1). percentof: chunk 400 → 100%.
        let line = csv.lines().find(|l| l.starts_with("400,")).unwrap();
        let pct: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((pct - 100.0).abs() < 1e-9);
        // chunk 100 → max 2 → 40% of 5.
        let line = csv.lines().find(|l| l.starts_with("100,")).unwrap();
        let pct: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((pct - 40.0).abs() < 1e-9);
    }

    #[test]
    fn combiner_without_shared_params_cross_joins_single_rows() {
        let db = seeded_db();
        // Combine two fully-reduced single-row vectors: the only sensible
        // alignment is the cross product of the 1×1 rows.
        let q = query_from_str(
            r#"<query name="q">
              <source id="a">
                <parameter name="technique" value="old"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <source id="b">
                <parameter name="technique" value="new"/>
                <parameter name="chunk" carry="true"/>
                <value name="bw"/>
              </source>
              <operator id="ra" type="avg" input="a"/>
              <operator id="ga" type="max" input="ra"/>
              <operator id="rb" type="avg" input="b"/>
              <operator id="gb" type="max" input="rb"/>
              <combiner id="c" input="ga,gb" suffixes="_old,_new"/>
              <output id="o" input="c" format="csv"/>
            </query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        let csv = &out.artifacts["o"];
        assert_eq!(csv.lines().next().unwrap(), "bw_old,bw_new");
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn median_operator_dataset_aggregation() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s">
                 <parameter name="technique" value="old"/>
                 <parameter name="chunk" carry="true"/>
                 <value name="bw"/>
               </source>
               <operator id="m" type="median" input="s"/>
               <output id="o" input="m" format="csv"/></query>"#,
        )
        .unwrap();
        let out = QueryRunner::new(&db).run(q).unwrap();
        // chunk 100: values 1.0 and 2.0 over the two reps → median 1.5.
        let line = out.artifacts["o"]
            .lines()
            .find(|l| l.starts_with("100,"))
            .unwrap();
        let m: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
        assert!((m - 1.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_variable_in_source_errors() {
        let db = seeded_db();
        let q = query_from_str(
            r#"<query name="q"><source id="s"><value name="zzz"/></source>
               <output id="o" input="s"/></query>"#,
        )
        .unwrap();
        assert!(QueryRunner::new(&db).run(q).is_err());
    }

    /// The seeded experiment, attached to an `n`-node latency-free cluster
    /// so its run data is spread across the simulated nodes.
    pub(crate) fn sharded_db(nodes: usize) -> ExperimentDb {
        let db = seeded_db();
        let cluster = Arc::new(sqldb::cluster::Cluster::with_frontend(
            db.engine().clone(),
            nodes,
            sqldb::cluster::LatencyModel::none(),
        ));
        db.attach_cluster(cluster).unwrap();
        db
    }

    const PUSHABLE_QUERY: &str = r#"<query name="q"><source id="s">
         <parameter name="technique" carry="true"/>
         <parameter name="chunk" carry="true"/>
         <value name="bw"/>
       </source>
       <operator id="a" type="avg" input="s"/>
       <output id="o" input="a" format="csv"/></query>"#;

    #[test]
    fn pushdown_matches_unsharded_results() {
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        for nodes in [1usize, 2, 4] {
            let db = sharded_db(nodes);
            let out = QueryRunner::new(&db)
                .run(query_from_str(PUSHABLE_QUERY).unwrap())
                .unwrap();
            assert_eq!(out.artifacts["o"], want.artifacts["o"], "{nodes} nodes");
            let t = out.transfer.expect("sharded queries record transfer stats");
            if nodes > 1 {
                // Partials only: far fewer rows than the 12 source tuples.
                assert!(t.rows < 12, "pushed {} rows over the link", t.rows);
            }
        }
    }

    #[test]
    fn pushdown_off_falls_back_to_materialization_with_same_results() {
        // Full reduction: each remote run ships one partial row under
        // pushdown versus its three raw data rows under materialization.
        let q = r#"<query name="q"><source id="s">
             <value name="bw"/>
           </source>
           <operator id="a" type="avg" input="s"/>
           <output id="o" input="a" format="csv"/></query>"#;
        let db = sharded_db(4);
        let pushed = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let fetched = QueryRunner::new(&db)
            .pushdown(false)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(pushed.artifacts["o"], fetched.artifacts["o"]);
        let tp = pushed.transfer.unwrap();
        let tf = fetched.transfer.unwrap();
        assert!(
            tp.rows < tf.rows,
            "pushdown moved {} rows, fallback {}",
            tp.rows,
            tf.rows
        );
    }

    #[test]
    fn pushdown_reduce_all_over_empty_selection_yields_one_row() {
        let q = r#"<query name="q"><source id="s">
             <parameter name="chunk" op="gt" value="100000"/>
             <value name="bw"/>
           </source>
           <operator id="c" type="count" input="s"/>
           <output id="o" input="c" format="csv"/></query>"#;
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let db = sharded_db(3);
        let out = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
        assert_eq!(out.artifacts["o"].lines().count(), 2); // header + count 0
    }

    #[test]
    fn non_decomposable_aggregate_uses_fallback() {
        let q = r#"<query name="q"><source id="s">
             <parameter name="technique" value="old"/>
             <parameter name="chunk" carry="true"/>
             <value name="bw"/>
           </source>
           <operator id="m" type="median" input="s"/>
           <output id="o" input="m" format="csv"/></query>"#;
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(q).unwrap())
            .unwrap();
        let db = sharded_db(4);
        let out = QueryRunner::new(&db)
            .run(query_from_str(q).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
    }

    #[test]
    fn detached_db_answers_queries_from_the_frontend_again() {
        let db = sharded_db(4);
        db.detach_cluster().unwrap();
        let out = QueryRunner::new(&db)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        assert!(out.transfer.is_none());
        let plain = seeded_db();
        let want = QueryRunner::new(&plain)
            .run(query_from_str(PUSHABLE_QUERY).unwrap())
            .unwrap();
        assert_eq!(out.artifacts["o"], want.artifacts["o"]);
    }
}
