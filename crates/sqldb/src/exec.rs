//! SELECT execution, split into a plan and the execution of that plan.
//!
//! [`plan`] makes every execution decision for one statement exactly once
//! and returns a [`Plan`]:
//!
//! * **Source** — the single row of a table-less SELECT, one pinned table
//!   version read through its [`AccessPlan`] (secondary-index point,
//!   IN-list or range probes, see [`plan_access`]; otherwise a full scan),
//!   or a chain of hash equi-joins.
//! * **Filter** — vectorized [`VecAtom`]s over a columnar table's typed
//!   vectors when every WHERE conjunct lowers to one, otherwise a
//!   [`CompiledExpr`] with pre-resolved column indices.
//! * **Body** — streaming aggregation (grouped by dictionary code for a
//!   single TEXT key), general aggregation over expressions, a pure-column
//!   projection read from the column store, or an expression projection.
//! * **Finalize** — DISTINCT, ORDER BY and LIMIT.
//!
//! [`run_select`] executes that plan; [`run_explain`] renders the same
//! value and, under ANALYZE, executes it once, annotating every node with
//! its rows out and the wall time of its passes.
//!
//! Execution holds no engine lock: tables are pinned `Arc<Table>` versions
//! (see [`Catalog`]) and only matching, projected rows are materialised.
//! Above a calibrated row threshold (see [`scan_tuning`]) a single-table
//! row scan splits into per-thread segments whose partial results
//! concatenate or merge (via [`Accumulator::merge`]) in segment order,
//! preserving sequential output order.
//!
//! [`run_select_reference`] keeps the unoptimized pipeline — snapshot +
//! interpreted evaluation + nested-loop joins — as the oracle for the
//! equivalence tests and the baseline for the `microbench` binary.

use crate::aggregate::{Accumulator, AggKind};
use crate::column::{ColumnStore, ColumnVec, NullBitmap};
use crate::compile::{compile, CompiledExpr};
use crate::engine::{Engine, ResultSet};
use crate::error::DbError;
use crate::expr::{binary_values, eval, truthy, LikePattern, RowCtx};
use crate::schema::{Column, Schema};
use crate::snapshot::Snapshot;
use crate::sql::{JoinClause, SelectItem, SelectStmt, SqlExpr};
use crate::table::{Row, Table};
use crate::value::{DataType, Value, ValueKey};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Tuning values for the parallel segmented scan, fixed once per process.
///
/// Float aggregates (sum/avg/stddev) may differ from the sequential
/// result in the last ulp above the threshold because the summation order
/// changes.
struct ScanTuning {
    /// Row count above which single-table scans run as parallel segments.
    threshold: usize,
    /// Upper bound on scan worker threads.
    max_threads: usize,
}

/// The process-wide scan tuning: environment overrides
/// (`PERFBASE_PARALLEL_THRESHOLD`, `PERFBASE_SCAN_THREADS`) when set,
/// otherwise a one-shot calibration replacing the historical fixed
/// threshold of 8192 rows and 8-thread cap. The measured per-row cost and
/// the derived values are published as `scan.*` gauges.
fn scan_tuning() -> &'static ScanTuning {
    static TUNING: OnceLock<ScanTuning> = OnceLock::new();
    TUNING.get_or_init(|| {
        let env_usize = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
        };
        let threshold = env_usize("PERFBASE_PARALLEL_THRESHOLD").unwrap_or_else(|| {
            let per_row_ns = measure_per_row_cost_ns();
            let spawn_ns = measure_spawn_cost_ns();
            obs::set(obs::Counter::ScanPerRowNanos, per_row_ns);
            derive_threshold(spawn_ns, per_row_ns)
        });
        let max_threads = env_usize("PERFBASE_SCAN_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        obs::set(obs::Counter::ParallelThresholdRows, threshold as u64);
        obs::set(obs::Counter::ScanThreadCap, max_threads as u64);
        ScanTuning {
            threshold,
            max_threads,
        }
    })
}

/// Threshold from measured costs: parallelism pays off once the scan work
/// dwarfs the price of standing up the workers; the 4x factor buys
/// headroom for partial-result merging, and the clamp keeps a noisy
/// measurement from producing a degenerate threshold.
fn derive_threshold(spawn_ns: u64, per_row_ns: u64) -> usize {
    ((4 * spawn_ns) / per_row_ns.max(1)).clamp(1024, 65_536) as usize
}

/// Median per-row cost of a filter-shaped pass (compare + branch +
/// accumulate) over an in-cache segment, in nanoseconds. Deliberately a
/// lower bound: real predicates cost more per row, which only lowers the
/// true break-even point below the derived threshold.
fn measure_per_row_cost_ns() -> u64 {
    const ROWS: u64 = 64 * 1024;
    let data: Vec<u64> = (0..ROWS).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let mut samples = [0u64; 5];
    for s in &mut samples {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &v in &data {
            if v % 7 != 0 {
                acc = acc.wrapping_add(v);
            }
        }
        std::hint::black_box(acc);
        *s = (t0.elapsed().as_nanos() as u64 / ROWS).max(1);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median cost of spawning and joining one worker thread, in nanoseconds.
fn measure_spawn_cost_ns() -> u64 {
    let mut samples = [0u64; 5];
    for s in &mut samples {
        let t0 = Instant::now();
        std::thread::spawn(|| std::hint::black_box(0u64))
            .join()
            .expect("calibration thread");
        *s = t0.elapsed().as_nanos() as u64;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Where a SELECT resolves table names: the live engine, each table
/// pinned at first touch (read-committed, statement-level per-table
/// atomicity), or a pinned [`Snapshot`], every table resolved to the
/// version frozen at one epoch (snapshot isolation). Either way the scan
/// itself runs over a pinned `Arc<Table>` with no engine lock held, so
/// long analytical queries never block writers.
#[derive(Clone, Copy)]
pub(crate) enum Catalog<'a> {
    /// Resolve tables from the live engine catalog.
    Live(&'a Engine),
    /// Resolve tables from a pinned snapshot.
    At(&'a Snapshot),
}

impl Catalog<'_> {
    /// Pin the version of `name` this catalog view resolves to.
    fn pin(&self, name: &str) -> Result<std::sync::Arc<Table>, DbError> {
        match self {
            Catalog::Live(engine) => engine.pin_table(name),
            Catalog::At(snapshot) => snapshot.table(name),
        }
    }
}

/// Execute a SELECT against a catalog view (optimized pipeline): plan it,
/// then run the plan.
pub(crate) fn run_select(cat: Catalog<'_>, sel: &SelectStmt) -> Result<ResultSet, DbError> {
    Ok(execute(&plan(cat, sel)?)?.0)
}

/// Execute a SELECT through the reference pipeline: table snapshots,
/// interpreted per-row evaluation, nested-loop joins. Semantically
/// equivalent to [`run_select`]; kept as the equivalence-test oracle and
/// microbench baseline.
pub(crate) fn run_select_reference(
    cat: Catalog<'_>,
    sel: &SelectStmt,
) -> Result<ResultSet, DbError> {
    let (schema, mut rows) = match &sel.from {
        None => (Schema::default(), vec![Vec::new()]),
        Some(base) if sel.joins.is_empty() => {
            let t = cat.pin(base)?;
            (t.schema.clone(), t.rows().to_vec())
        }
        Some(base) => join_input_nested_loop(cat, base, &sel.joins)?,
    };

    if let Some(w) = &sel.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            let v = eval(
                w,
                &RowCtx {
                    schema: &schema,
                    row: &r,
                },
            )?;
            if truthy(&v) {
                kept.push(r);
            }
        }
        rows = kept;
    }

    let columns = output_names(sel, &schema);
    let out_rows = if is_aggregation(sel) {
        aggregate_project(sel, &schema, &rows)?
    } else {
        let mut out = Vec::with_capacity(rows.len());
        for r in &rows {
            let ctx = RowCtx {
                schema: &schema,
                row: r,
            };
            let mut projected = Vec::with_capacity(columns.len());
            for item in &sel.items {
                match item {
                    SelectItem::Star => projected.extend(r.iter().cloned()),
                    SelectItem::Expr { expr, .. } => projected.push(eval(expr, &ctx)?),
                }
            }
            out.push(projected);
        }
        out
    };

    finalize(sel, columns, out_rows, &mut Profile::default())
}

/// Does the statement have an aggregation shape (aggregate call or
/// GROUP BY)?
fn is_aggregation(sel: &SelectStmt) -> bool {
    !sel.group_by.is_empty()
        || sel.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
}

/// The physical plan of one SELECT. [`plan`] makes every execution
/// decision exactly once; [`execute`] runs the plan and [`render`] prints
/// it, so EXPLAIN always describes the path the executor takes.
struct Plan<'s> {
    sel: &'s SelectStmt,
    source: Source,
    filter: Filter,
    body: Body,
}

/// Where the rows entering the filter come from.
enum Source {
    /// Table-less SELECT: one empty row.
    Values,
    /// One pinned table version, read through its access plan.
    Table {
        table: Arc<Table>,
        access: AccessPlan,
    },
    /// A chain of hash equi-joins.
    Join(JoinChain),
}

/// The pinned tables of a join chain, each step's key columns resolved
/// against the qualified (`table.column`) schema accumulated before it.
struct JoinChain {
    base: Arc<Table>,
    /// `(joined table, accumulated key column, joined key column)`.
    steps: Vec<(Arc<Table>, usize, usize)>,
    /// Qualified schema of the joined relation.
    schema: Schema,
}

/// How the WHERE clause runs.
enum Filter {
    /// Column-at-a-time conjuncts covering the whole clause, over a
    /// columnar table's typed vectors.
    Vectorized(Vec<VecAtom>),
    /// A compiled row predicate; `None` without a WHERE clause.
    Rows(Option<CompiledExpr>),
}

/// What turns the filtered rows into output rows.
enum Body {
    /// Single-pass streaming aggregation for `g…, agg(col)… GROUP BY g…`.
    FastAggregate {
        items: Vec<FastItem>,
        keys: Vec<usize>,
    },
    /// Streaming aggregation grouped by the dictionary codes of a single
    /// TEXT key (after a vectorized filter only).
    DictAggregate { items: Vec<FastItem>, key: usize },
    /// Group the filtered rows, then evaluate expressions over aggregates.
    GeneralAggregate,
    /// Plain columns (`*` expanded) read from the column store (after a
    /// vectorized filter only).
    Columns(Vec<usize>),
    /// Compiled expression projection.
    Exprs(Vec<CompiledItem>),
}

/// The schema a table-less SELECT evaluates against.
static NO_COLUMNS: Schema = Schema {
    columns: Vec::new(),
};

impl Source {
    /// The schema the filter and body evaluate against.
    fn schema(&self) -> &Schema {
        match self {
            Source::Values => &NO_COLUMNS,
            Source::Table { table, .. } => &table.schema,
            Source::Join(chain) => &chain.schema,
        }
    }
}

/// Plan a SELECT: pin its tables, choose the access path, lower the WHERE
/// clause and pick the body.
fn plan<'s>(cat: Catalog<'_>, sel: &'s SelectStmt) -> Result<Plan<'s>, DbError> {
    let source = match &sel.from {
        None => Source::Values,
        Some(base) if sel.joins.is_empty() => {
            let table = cat.pin(base)?;
            let t_plan = Instant::now();
            let access = plan_access(sel.where_clause.as_ref(), &table);
            obs::record_duration(obs::Hist::PlanNs, t_plan.elapsed());
            Source::Table { table, access }
        }
        Some(base) => Source::Join(plan_joins(cat, base, &sel.joins)?),
    };
    let schema = source.schema();
    // A columnar table runs vectorized when every WHERE conjunct lowers to
    // a VecAtom; otherwise the row path serves it (over the row cache).
    let store = match &source {
        Source::Table { table, .. } => table.column_store(),
        _ => None,
    };
    let atoms = store.and_then(|st| compile_vec_filter(sel.where_clause.as_ref(), schema, st));
    let store = store.filter(|_| atoms.is_some());
    let filter = match atoms {
        Some(atoms) => Filter::Vectorized(atoms),
        None => Filter::Rows(sel.where_clause.as_ref().map(|w| compile(w, schema))),
    };
    let body = if is_aggregation(sel) {
        let keys: Option<Vec<usize>> = sel.group_by.iter().map(|g| schema.index_of(g)).collect();
        match keys.and_then(|keys| Some((plan_fast(sel, schema, &keys)?, keys))) {
            Some((items, keys)) => match (store, keys.as_slice()) {
                (Some(st), &[key]) if matches!(st.col(key), ColumnVec::Text(_)) => {
                    Body::DictAggregate { items, key }
                }
                _ => Body::FastAggregate { items, keys },
            },
            // Expressions over aggregates, unresolved keys, …
            None => Body::GeneralAggregate,
        }
    } else {
        match store.and_then(|_| pure_column_projection(sel, schema)) {
            Some(cols) => Body::Columns(cols),
            None => Body::Exprs(compile_items(sel, schema)),
        }
    };
    Ok(Plan {
        sel,
        source,
        filter,
        body,
    })
}

/// Rows out and wall time of one executed plan node: the summed time of
/// the passes it took part in. Nodes fused into one pass share its time.
#[derive(Debug, Clone, Copy, Default)]
struct NodeStats {
    rows: usize,
    time: Duration,
}

/// What one execution of a plan saw at its node boundaries — the EXPLAIN
/// ANALYZE annotations. Rows are counted locally and time is read once
/// per pass, never per row.
#[derive(Debug, Default)]
struct Profile {
    source: NodeStats,
    /// One entry per join step, in join order.
    joins: Vec<NodeStats>,
    filter: NodeStats,
    body: NodeStats,
    distinct: NodeStats,
    sort: NodeStats,
    limit: NodeStats,
}

/// Close the pass that began at `started`: every node it covered is
/// charged its wall time.
fn end_pass<const N: usize>(started: Instant, nodes: [&mut NodeStats; N]) {
    let time = started.elapsed();
    for n in nodes {
        n.time += time;
    }
}

/// Run a plan: the result set and what each node produced.
fn execute(plan: &Plan<'_>) -> Result<(ResultSet, Profile), DbError> {
    let mut prof = Profile::default();
    let out_rows = match (&plan.source, &plan.filter) {
        (Source::Table { table, access }, filter) => {
            let ids = access.candidates.as_deref();
            prof.source.rows = ids.map_or(table.len(), <[usize]>::len);
            match filter {
                Filter::Vectorized(atoms) => {
                    let store = table
                        .column_store()
                        .expect("vectorized plan over a row table");
                    run_vectorized(plan, store, atoms, ids, &mut prof)?
                }
                Filter::Rows(f) => {
                    if table.is_columnar() {
                        obs::incr(obs::Counter::VectorizedFallbacks);
                    }
                    run_table_rows(plan, table.rows(), ids, f.as_ref(), &mut prof)?
                }
            }
        }
        (Source::Values, Filter::Rows(f)) => {
            prof.source.rows = 1;
            run_relation(plan, vec![Vec::new()], f.as_ref(), &mut prof)?
        }
        (Source::Join(chain), Filter::Rows(f)) => {
            let rows = hash_join(chain, &mut prof);
            run_relation(plan, rows, f.as_ref(), &mut prof)?
        }
        (_, Filter::Vectorized(_)) => unreachable!("vectorized plan without a table"),
    };
    // General aggregation groups the selected rows in a pass of its own.
    let out_rows = match plan.body {
        Body::GeneralAggregate => {
            let started = Instant::now();
            let out = aggregate_project(plan.sel, plan.source.schema(), &out_rows)?;
            prof.body.rows = out.len();
            end_pass(started, [&mut prof.body]);
            out
        }
        _ => out_rows,
    };
    let columns = output_names(plan.sel, plan.source.schema());
    let rs = finalize(plan.sel, columns, out_rows, &mut prof)?;
    Ok((rs, prof))
}

/// Vectorized selection over the column store (one pass), then the body
/// over the selected positions (a second pass).
fn run_vectorized(
    plan: &Plan<'_>,
    store: &ColumnStore,
    atoms: &[VecAtom],
    ids: Option<&[usize]>,
    prof: &mut Profile,
) -> Result<Vec<Row>, DbError> {
    obs::incr(obs::Counter::VectorizedScans);
    let started = Instant::now();
    let sv = vectorized_selection(store, atoms, ids);
    prof.filter.rows = sv.len();
    end_pass(started, [&mut prof.source, &mut prof.filter]);

    let started = Instant::now();
    let out = match &plan.body {
        Body::DictAggregate { items, key } => dict_grouped_agg(store, &sv, items, *key)?,
        Body::FastAggregate { items, keys } => {
            let mut agg = FastAgg::new(items, keys);
            for &p in &sv {
                agg.update(|i| store.value(p, i));
            }
            agg.finish()?
        }
        // Materialise only the selected rows for the grouping pass.
        Body::GeneralAggregate => sv.iter().map(|&p| store.materialize_row(p)).collect(),
        Body::Columns(cols) => sv
            .iter()
            .map(|&p| cols.iter().map(|&c| store.value(p, c)).collect())
            .collect(),
        // Errors surface for selected rows only, exactly like the row path.
        Body::Exprs(items) => sv
            .iter()
            .map(|&p| project_row(&store.materialize_row(p), items))
            .collect::<Result<_, _>>()?,
    };
    prof.body.rows = out.len();
    end_pass(started, [&mut prof.body]);
    Ok(out)
}

/// Row-path scan of a pinned table — its index candidates, or every row
/// in parallel segments above the threshold — with the filter fused into
/// the body's pass.
fn run_table_rows(
    plan: &Plan<'_>,
    rows: &[Row],
    ids: Option<&[usize]>,
    filter: Option<&CompiledExpr>,
    prof: &mut Profile,
) -> Result<Vec<Row>, DbError> {
    let started = Instant::now();
    let out = match &plan.body {
        Body::FastAggregate { items, keys } => {
            let agg = match ids {
                Some(ids) => fast_agg_rows(ids.iter().map(|&i| &rows[i]), filter, items, keys)?,
                None => fast_agg_scan(rows, filter, items, keys)?,
            };
            prof.filter.rows = agg.rows_in;
            agg.finish()?
        }
        Body::Exprs(items) => filter_project(rows, ids, filter, items)?,
        Body::GeneralAggregate => filter_project(rows, ids, filter, &[CompiledItem::Star])?,
        Body::DictAggregate { .. } | Body::Columns(_) => {
            unreachable!("column-store body without a vectorized filter")
        }
    };
    if !matches!(plan.body, Body::FastAggregate { .. }) {
        prof.filter.rows = out.len();
    }
    prof.body.rows = out.len();
    end_pass(
        started,
        [&mut prof.source, &mut prof.filter, &mut prof.body],
    );
    Ok(out)
}

/// Filter, then body, over a materialised relation (join output or the
/// VALUES row): one sequential pass each.
fn run_relation(
    plan: &Plan<'_>,
    rows: Vec<Row>,
    filter: Option<&CompiledExpr>,
    prof: &mut Profile,
) -> Result<Vec<Row>, DbError> {
    let started = Instant::now();
    let rows = match filter {
        Some(f) => {
            let mut kept = Vec::with_capacity(rows.len());
            for r in rows {
                if f.matches(&r)? {
                    kept.push(r);
                }
            }
            kept
        }
        None => rows,
    };
    prof.filter.rows = rows.len();
    end_pass(started, [&mut prof.filter]);

    let started = Instant::now();
    let out = match &plan.body {
        Body::FastAggregate { items, keys } => fast_agg_rows(&rows, None, items, keys)?.finish()?,
        Body::Exprs(items) => project_segment(&rows, None, items)?,
        Body::GeneralAggregate => rows,
        Body::DictAggregate { .. } | Body::Columns(_) => {
            unreachable!("column-store body without a vectorized filter")
        }
    };
    prof.body.rows = out.len();
    end_pass(started, [&mut prof.body]);
    Ok(out)
}

/// One compiled projection item.
#[derive(Debug, Clone)]
enum CompiledItem {
    /// `*` — pass the whole row through.
    Star,
    /// A compiled expression.
    Expr(CompiledExpr),
}

fn compile_items(sel: &SelectStmt, schema: &Schema) -> Vec<CompiledItem> {
    sel.items
        .iter()
        .map(|item| match item {
            SelectItem::Star => CompiledItem::Star,
            SelectItem::Expr { expr, .. } => CompiledItem::Expr(compile(expr, schema)),
        })
        .collect()
}

fn passes(filter: Option<&CompiledExpr>, row: &[Value]) -> Result<bool, DbError> {
    match filter {
        Some(f) => f.matches(row),
        None => Ok(true),
    }
}

fn project_row(r: &Row, items: &[CompiledItem]) -> Result<Row, DbError> {
    let mut projected = Vec::with_capacity(items.len());
    for item in items {
        match item {
            CompiledItem::Star => projected.extend(r.iter().cloned()),
            CompiledItem::Expr(e) => projected.push(e.eval(r)?),
        }
    }
    Ok(projected)
}

fn project_segment<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    filter: Option<&CompiledExpr>,
    items: &[CompiledItem],
) -> Result<Vec<Row>, DbError> {
    let mut out = Vec::new();
    for r in rows {
        if !passes(filter, r)? {
            continue;
        }
        out.push(project_row(r, items)?);
    }
    Ok(out)
}

/// Filter + project a table's index candidates (already in row order), or
/// all of its rows when there are none.
fn filter_project(
    rows: &[Row],
    ids: Option<&[usize]>,
    filter: Option<&CompiledExpr>,
    items: &[CompiledItem],
) -> Result<Vec<Row>, DbError> {
    let Some(ids) = ids else {
        return project_scan(rows, filter, items);
    };
    let out = project_segment(ids.iter().map(|&i| &rows[i]), filter, items)?;
    obs::add(obs::Counter::ResidualChecks, ids.len() as u64);
    obs::add(obs::Counter::ResidualDrops, (ids.len() - out.len()) as u64);
    Ok(out)
}

/// How many scan segments to use for `n` rows.
fn scan_threads(n: usize) -> usize {
    let tuning = scan_tuning();
    if n < tuning.threshold {
        return 1;
    }
    // Cap segments so each stays at least half a threshold's worth of rows:
    // right at the threshold two workers split the scan, and the full
    // thread budget only engages once the input is large enough to feed it.
    let useful = n.div_ceil((tuning.threshold / 2).max(1));
    tuning.max_threads.min(useful).max(1)
}

/// Run `work` over a full table scan — in parallel segments above the
/// threshold — and return its results in segment order, so that
/// concatenating or merging them reproduces the sequential scan (and the
/// first failing segment gives the first error in row order).
fn segmented<T: Send>(
    rows: &[Row],
    work: impl Fn(&[Row]) -> Result<T, DbError> + Sync,
) -> Result<Vec<T>, DbError> {
    obs::add(obs::Counter::ScanRowsVisited, rows.len() as u64);
    let threads = scan_threads(rows.len());
    if threads <= 1 {
        obs::incr(obs::Counter::SerialScans);
        return Ok(vec![work(rows)?]);
    }
    obs::incr(obs::Counter::ParallelScans);
    let chunk = rows.len().div_ceil(threads);
    let work = &work;
    let partials: Vec<Result<T, DbError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk)
            .map(|seg| scope.spawn(move || work(seg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    partials.into_iter().collect()
}

/// Filter + project a full table scan; segment outputs concatenate.
fn project_scan(
    rows: &[Row],
    filter: Option<&CompiledExpr>,
    items: &[CompiledItem],
) -> Result<Vec<Row>, DbError> {
    let mut parts = segmented(rows, |seg| project_segment(seg, filter, items))?.into_iter();
    let mut out = parts.next().unwrap_or_default();
    for p in parts {
        out.extend(p);
    }
    Ok(out)
}

/// Streaming aggregation over a row sequence, filtered on the way.
fn fast_agg_rows<'r, 'p>(
    rows: impl IntoIterator<Item = &'r Row>,
    filter: Option<&CompiledExpr>,
    items: &'p [FastItem],
    keys: &'p [usize],
) -> Result<FastAgg<'p>, DbError> {
    let mut agg = FastAgg::new(items, keys);
    for row in rows {
        if passes(filter, row)? {
            agg.update(|i| &row[i]);
        }
    }
    Ok(agg)
}

/// Streaming aggregation over a full scan; segment partials merge in
/// segment order, so group order matches the sequential first-seen order.
fn fast_agg_scan<'p>(
    rows: &[Row],
    filter: Option<&CompiledExpr>,
    items: &'p [FastItem],
    keys: &'p [usize],
) -> Result<FastAgg<'p>, DbError> {
    let mut parts = segmented(rows, |seg| fast_agg_rows(seg, filter, items, keys))?.into_iter();
    let mut agg = parts.next().expect("at least one segment");
    for p in parts {
        agg.merge(p);
    }
    Ok(agg)
}

// ---------------------------------------------------------------------------
// Vectorized execution over columnar tables
// ---------------------------------------------------------------------------
//
// Columnar tables (`crate::column`) get a column-at-a-time operator path:
// the WHERE clause is lowered into [`VecAtom`]s that evaluate one column
// vector at a time into a selection vector of row positions; dictionary
// predicates compare u32 codes against a precomputed per-entry truth table
// instead of strings. Aggregation then runs batched over the selected
// positions ([`run_vectorized`]), grouping single TEXT keys directly by
// dictionary code ([`dict_grouped_agg`]).
//
// The path is deliberately sequential: it reuses [`Accumulator`] in row
// order, so results are byte-identical to the row path (same Welford
// update order, same first-seen group order, same tie-breaking) — the
// property the equivalence corpus asserts.

/// Engine-exact comparison of two f64 images — the numeric arm of
/// `Value::total_cmp` (NaN sorts last, two NaNs are equal).
#[inline]
fn num_cmp(x: f64, y: f64) -> Ordering {
    match x.partial_cmp(&y) {
        Some(o) => o,
        None => x.is_nan().cmp(&y.is_nan()),
    }
}

/// Normalized f64 bits with [`ValueKey`]'s equivalence classes
/// (`-0.0` → `0.0`, canonical NaN).
#[inline]
fn norm_bits(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let f = if f.is_nan() { f64::NAN } else { f };
    f.to_bits()
}

/// Comparison operator of a vectorizable conjunct.
#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn of(op: &str) -> Option<CmpOp> {
        Some(match op {
            "=" => CmpOp::Eq,
            "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }

    #[inline]
    fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// One vectorized WHERE conjunct. Every variant replicates the row
/// evaluator's semantics exactly; in particular, comparisons with a NULL
/// cell are false for every operator.
#[derive(Debug)]
enum VecAtom {
    /// `col <op> lit` where both sides compare through their f64 image.
    NumCmp { col: usize, op: CmpOp, rhs: f64 },
    /// Payload-independent comparison (NULL literal, or a cross-type
    /// compare decided by type rank): NULL cells are false, every non-NULL
    /// cell yields `result`.
    ConstCmp { col: usize, result: bool },
    /// Per-dictionary-code truth table over a TEXT column — comparisons,
    /// IN lists and LIKE all precompute one bool per distinct string and
    /// evaluate on u32 codes. `null_pass` is the NULL-cell result
    /// (true for NOT LIKE).
    DictPass {
        col: usize,
        pass: Vec<bool>,
        null_pass: bool,
    },
    /// `col [NOT] IN (lits)` over a non-TEXT column: membership in a
    /// normalized f64-bits set (elements that can never equal a numeric
    /// cell are dropped at compile time).
    NumIn {
        col: usize,
        set: HashSet<u64>,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
}

impl VecAtom {
    /// Does row `pos` pass this conjunct?
    #[inline]
    fn test(&self, store: &ColumnStore, pos: usize) -> bool {
        match self {
            VecAtom::NumCmp { col, op, rhs } => {
                let c = store.col(*col);
                !c.nulls().is_null(pos) && op.holds(num_cmp(c.f64_at(pos), *rhs))
            }
            VecAtom::ConstCmp { col, result } => *result && !store.col(*col).nulls().is_null(pos),
            VecAtom::DictPass {
                col,
                pass,
                null_pass,
            } => {
                let ColumnVec::Text(d) = store.col(*col) else {
                    unreachable!("DictPass compiled for a non-TEXT column");
                };
                if d.nulls.is_null(pos) {
                    *null_pass
                } else {
                    pass[d.codes[pos] as usize]
                }
            }
            VecAtom::NumIn { col, set, negated } => {
                let c = store.col(*col);
                !c.nulls().is_null(pos) && (set.contains(&norm_bits(c.f64_at(pos))) != *negated)
            }
            VecAtom::IsNull { col, negated } => store.col(*col).nulls().is_null(pos) != *negated,
        }
    }

    /// Column-at-a-time pass over the full table: append every passing
    /// position to `out`. The hot shapes (numeric compare, dictionary
    /// truth table) run with the column-type match hoisted out of the row
    /// loop; the rest fall back to per-row [`VecAtom::test`].
    fn fill(&self, store: &ColumnStore, out: &mut Vec<usize>) {
        // `IS NULL` over a column with no NULLs selects nothing.
        if let VecAtom::IsNull {
            col,
            negated: false,
        } = self
        {
            if store.col(*col).nulls().null_count() == 0 {
                return;
            }
        }
        out.reserve(store.len());
        match self {
            VecAtom::NumCmp { col, op, rhs } => match store.col(*col) {
                ColumnVec::Int { data, nulls } => {
                    for (pos, &x) in data.iter().enumerate() {
                        if !nulls.is_null(pos) && op.holds(num_cmp(x as f64, *rhs)) {
                            out.push(pos);
                        }
                    }
                }
                ColumnVec::Float { data, nulls } => {
                    for (pos, &x) in data.iter().enumerate() {
                        if !nulls.is_null(pos) && op.holds(num_cmp(x, *rhs)) {
                            out.push(pos);
                        }
                    }
                }
                _ => self.fill_generic(store, out),
            },
            VecAtom::DictPass {
                col,
                pass,
                null_pass,
            } => {
                let ColumnVec::Text(d) = store.col(*col) else {
                    unreachable!("DictPass compiled for a non-TEXT column");
                };
                for (pos, &c) in d.codes.iter().enumerate() {
                    let ok = if d.nulls.is_null(pos) {
                        *null_pass
                    } else {
                        pass[c as usize]
                    };
                    if ok {
                        out.push(pos);
                    }
                }
            }
            _ => self.fill_generic(store, out),
        }
    }

    fn fill_generic(&self, store: &ColumnStore, out: &mut Vec<usize>) {
        for pos in 0..store.len() {
            if self.test(store, pos) {
                out.push(pos);
            }
        }
    }
}

/// A non-NULL representative of `dtype`, for compile-time evaluation of
/// payload-independent (type-rank) comparisons.
fn representative(dtype: DataType) -> Value {
    match dtype {
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Bool => Value::Bool(false),
        DataType::Timestamp => Value::Timestamp(0),
        DataType::Text => Value::Text(String::new()),
    }
}

/// Lower a WHERE clause into vectorized conjuncts. `None` means some
/// conjunct doesn't vectorize and the caller must take the row path; when
/// `Some`, the atoms cover the entire clause (no residual filter).
fn compile_vec_filter(
    where_clause: Option<&SqlExpr>,
    schema: &Schema,
    store: &ColumnStore,
) -> Option<Vec<VecAtom>> {
    let Some(w) = where_clause else {
        return Some(Vec::new());
    };
    let mut conjuncts = Vec::new();
    split_conjuncts(w, &mut conjuncts);
    conjuncts
        .iter()
        .map(|c| compile_vec_atom(c, schema, store))
        .collect()
}

fn compile_vec_atom(e: &SqlExpr, schema: &Schema, store: &ColumnStore) -> Option<VecAtom> {
    match e {
        SqlExpr::Binary(op, l, r) if CmpOp::of(op).is_some() => {
            let (name, lit, op) = col_cmp_lit(op, l, r)?;
            let ci = schema.index_of(name)?;
            if let ColumnVec::Text(d) = store.col(ci) {
                // Equality against a string probes the dictionary lookup
                // directly; other shapes compute a truth table per entry
                // through the scalar evaluator — exact for every literal
                // type.
                let pass = if let ("=", Value::Text(s)) = (op, lit) {
                    let mut pass = vec![false; d.dict().len()];
                    if let Some(c) = d.code_of(s) {
                        pass[c as usize] = true;
                    }
                    pass
                } else {
                    d.dict()
                        .iter()
                        .map(|s| {
                            binary_values(op, Value::Text(s.clone()), lit.clone())
                                .ok()
                                .map(|v| truthy(&v))
                        })
                        .collect::<Option<Vec<bool>>>()?
                };
                return Some(VecAtom::DictPass {
                    col: ci,
                    pass,
                    null_pass: false,
                });
            }
            if lit.is_null() {
                // Every comparison against NULL is false.
                return Some(VecAtom::ConstCmp {
                    col: ci,
                    result: false,
                });
            }
            match lit.as_f64() {
                // Non-TEXT cells all carry an f64 image, so the engine
                // compares them numerically (`total_cmp`).
                Some(f) => Some(VecAtom::NumCmp {
                    col: ci,
                    op: CmpOp::of(op)?,
                    rhs: f,
                }),
                // Non-numeric literal (TEXT) vs a numeric column: type-rank
                // ordering makes the result constant over non-NULL cells.
                None => {
                    let rep = representative(schema.columns[ci].dtype);
                    let v = binary_values(op, rep, lit.clone()).ok()?;
                    Some(VecAtom::ConstCmp {
                        col: ci,
                        result: truthy(&v),
                    })
                }
            }
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let SqlExpr::Col(name) = &**expr else {
                return None;
            };
            let ci = schema.index_of(name)?;
            let lits = list
                .iter()
                .map(|e| match e {
                    SqlExpr::Lit(v) => Some(v),
                    _ => None,
                })
                .collect::<Option<Vec<&Value>>>()?;
            if let ColumnVec::Text(d) = store.col(ci) {
                let pass = d
                    .dict()
                    .iter()
                    .map(|s| {
                        let cell = Value::Text(s.clone());
                        lits.iter().any(|l| cell.sql_eq(l)) != *negated
                    })
                    .collect();
                return Some(VecAtom::DictPass {
                    col: ci,
                    pass,
                    null_pass: false,
                });
            }
            let mut set = HashSet::with_capacity(lits.len());
            for l in &lits {
                if !l.is_null() {
                    if let Some(f) = l.as_f64() {
                        set.insert(norm_bits(f));
                    }
                }
            }
            Some(VecAtom::NumIn {
                col: ci,
                set,
                negated: *negated,
            })
        }
        SqlExpr::IsNull { expr, negated } => {
            let SqlExpr::Col(name) = &**expr else {
                return None;
            };
            Some(VecAtom::IsNull {
                col: schema.index_of(name)?,
                negated: *negated,
            })
        }
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let SqlExpr::Col(name) = &**expr else {
                return None;
            };
            let ci = schema.index_of(name)?;
            let ColumnVec::Text(d) = store.col(ci) else {
                return None;
            };
            let pat = LikePattern::parse(pattern);
            let pass = d
                .dict()
                .iter()
                .map(|s| pat.matches(s) != *negated)
                .collect();
            // LIKE on NULL evaluates the match as false, so NOT LIKE passes.
            Some(VecAtom::DictPass {
                col: ci,
                pass,
                null_pass: *negated,
            })
        }
        _ => None,
    }
}

/// Evaluate the atom conjunction into a selection vector of row positions
/// (ascending). The first atom fills column-at-a-time; each later atom
/// narrows the survivors. Index candidates, when present, are narrowed
/// directly — the atoms cover the full WHERE clause, so this matches the
/// row path's residual filtering.
fn vectorized_selection(
    store: &ColumnStore,
    atoms: &[VecAtom],
    candidates: Option<&[usize]>,
) -> Vec<usize> {
    match candidates {
        Some(ids) => {
            let out: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&p| atoms.iter().all(|a| a.test(store, p)))
                .collect();
            obs::add(obs::Counter::ResidualChecks, ids.len() as u64);
            obs::add(obs::Counter::ResidualDrops, (ids.len() - out.len()) as u64);
            out
        }
        None => {
            obs::add(obs::Counter::ScanRowsVisited, store.len() as u64);
            match atoms.split_first() {
                None => (0..store.len()).collect(),
                Some((first, rest)) => {
                    let mut sv = Vec::new();
                    first.fill(store, &mut sv);
                    for a in rest {
                        sv.retain(|&p| a.test(store, p));
                    }
                    sv
                }
            }
        }
    }
}

/// GROUP BY over the dictionary codes of the TEXT column `key`: group
/// identity is the u32 code (plus one NULL slot), resolved through a
/// direct code → group table — no hashing, no string clones on the hot
/// path. Group order is first-seen row order and accumulator updates run
/// in row order — identical to [`FastAgg`].
fn dict_grouped_agg(
    store: &ColumnStore,
    sv: &[usize],
    plan: &[FastItem],
    key: usize,
) -> Result<Vec<Row>, DbError> {
    let ColumnVec::Text(d) = store.col(key) else {
        unreachable!("dictionary aggregation planned over a non-TEXT key");
    };
    const NONE: u32 = u32::MAX;
    let mut code_group = vec![NONE; d.dict().len()];
    let mut null_group = NONE;
    let mut keys: Vec<Value> = Vec::new();
    // Pass 1: resolve every selected row to a dense group index once, so
    // the aggregation passes below touch one column at a time.
    let mut gidx: Vec<u32> = Vec::with_capacity(sv.len());
    for &p in sv {
        let gi = if d.nulls.is_null(p) {
            if null_group == NONE {
                null_group = keys.len() as u32;
                keys.push(Value::Null);
            }
            null_group
        } else {
            let c = d.codes[p] as usize;
            if code_group[c] == NONE {
                code_group[c] = keys.len() as u32;
                keys.push(Value::Text(d.dict()[c].clone()));
            }
            code_group[c]
        };
        gidx.push(gi);
    }
    // Pass 2, per aggregate item: the column-type match is hoisted out of
    // the row loop, and each (group, item) accumulator still sees its
    // values in row order — identical results to the row-at-a-time path.
    let mut acc_cols: Vec<Vec<Accumulator>> = Vec::new();
    for it in plan {
        let FastItem::Agg(kind, col) = it else {
            continue;
        };
        let mut accs: Vec<Accumulator> = keys.iter().map(|_| Accumulator::new(*kind)).collect();
        let mut feed = |vals: &mut dyn Iterator<Item = Value>| {
            for (v, &g) in vals.zip(&gidx) {
                accs[g as usize].update(&v);
            }
        };
        match col {
            None => feed(&mut sv.iter().map(|_| Value::Int(1))),
            Some(i) => match store.col(*i) {
                ColumnVec::Int { data, nulls } => feed(&mut cells(sv, data, nulls, Value::Int)),
                ColumnVec::Float { data, nulls } => feed(&mut cells(sv, data, nulls, Value::Float)),
                ColumnVec::Bool { data, nulls } => feed(&mut cells(sv, data, nulls, Value::Bool)),
                ColumnVec::Timestamp { data, nulls } => {
                    feed(&mut cells(sv, data, nulls, Value::Timestamp))
                }
                ColumnVec::Text(_) => feed(&mut sv.iter().map(|&p| store.value(p, *i))),
            },
        }
        acc_cols.push(accs);
    }
    // The single group key fills every key slot the projection has.
    let accs_of = |g: usize| acc_cols.iter().map(move |accs| &accs[g]);
    keys.iter()
        .enumerate()
        .map(|(g, key)| agg_row(plan, |_| key.clone(), accs_of(g)))
        .collect()
}

/// The cells of a typed column vector at positions `sv`, NULL where the
/// bitmap says so.
fn cells<'a, T: Copy>(
    sv: &'a [usize],
    data: &'a [T],
    nulls: &'a NullBitmap,
    wrap: fn(T) -> Value,
) -> impl Iterator<Item = Value> + 'a {
    sv.iter().map(move |&p| {
        if nulls.is_null(p) {
            Value::Null
        } else {
            wrap(data[p])
        }
    })
}

/// When every projection item is `*` or a plain resolvable column, the
/// output can be built straight from the typed vectors: the column
/// indices to read, `*` expanded.
fn pure_column_projection(sel: &SelectStmt, schema: &Schema) -> Option<Vec<usize>> {
    let mut cols = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => cols.extend(0..schema.arity()),
            SelectItem::Expr {
                expr: SqlExpr::Col(name),
                ..
            } => cols.push(schema.index_of(name)?),
            SelectItem::Expr { .. } => return None,
        }
    }
    Some(cols)
}

/// Index probe outcome for a `col <op> <const>` conjunct.
enum Probe {
    /// Probe the index with this key.
    Key(ValueKey),
    /// The comparison can never be true (NULL or cross-type mismatch).
    Never,
}

/// One index-servable access condition extracted from the WHERE clause.
enum IndexCond {
    /// `col = lit` — single key probe (hash or ordered index).
    Eq(ValueKey),
    /// `col IN (lits)` — one probe per distinct key, positions unioned
    /// (hash or ordered index).
    In(Vec<ValueKey>),
    /// Merged range conjuncts (`<`, `<=`, `>`, `>=`, BETWEEN-shaped pairs)
    /// over one column — ordered index only.
    Range(Bound<ValueKey>, Bound<ValueKey>),
}

/// Translate an equality literal into the key class stored for a column of
/// `dtype`, replicating `Value::sql_eq` across types: numeric columns
/// compare by f64 image (so `TRUE` probes a numeric column as `1`), BOOLEAN
/// columns accept `0`/`1` numerics, TEXT only matches text, and NULL
/// matches nothing.
fn probe_key(dtype: DataType, lit: &Value) -> Probe {
    if lit.is_null() {
        return Probe::Never;
    }
    match dtype {
        DataType::Int | DataType::Float | DataType::Timestamp => match lit.as_f64() {
            Some(f) => Probe::Key(ValueKey::Num(norm_bits(f))),
            None => Probe::Never,
        },
        DataType::Bool => match lit {
            Value::Bool(b) => Probe::Key(ValueKey::Bool(*b)),
            Value::Text(_) => Probe::Never,
            other => match other.as_f64() {
                Some(f) => {
                    if f == 1.0 {
                        Probe::Key(ValueKey::Bool(true))
                    } else if f == 0.0 {
                        Probe::Key(ValueKey::Bool(false))
                    } else {
                        Probe::Never
                    }
                }
                None => Probe::Never,
            },
        },
        DataType::Text => match lit {
            Value::Text(s) => Probe::Key(ValueKey::Text(s.clone())),
            _ => Probe::Never,
        },
    }
}

/// A comparison between a column and a literal, normalized to
/// `col <op> lit`: the operator flips when the literal is on the left.
fn col_cmp_lit<'e>(
    op: &'static str,
    l: &'e SqlExpr,
    r: &'e SqlExpr,
) -> Option<(&'e str, &'e Value, &'static str)> {
    match (l, r) {
        (SqlExpr::Col(n), SqlExpr::Lit(v)) => Some((n, v, op)),
        (SqlExpr::Lit(v), SqlExpr::Col(n)) => Some((
            n,
            v,
            match op {
                "<" => ">",
                "<=" => ">=",
                ">" => "<",
                ">=" => "<=",
                other => other,
            },
        )),
        _ => None,
    }
}

/// Split a WHERE clause into its top-level AND conjuncts.
fn split_conjuncts<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
    if let SqlExpr::Binary("AND", l, r) = e {
        split_conjuncts(l, out);
        split_conjuncts(r, out);
    } else {
        out.push(e);
    }
}

/// Can every name in the expression resolve (columns and functions)? The
/// index path is only taken when this holds, so that name errors surface
/// from a scan exactly as they would without an index.
fn names_resolve(e: &SqlExpr, schema: &Schema) -> bool {
    match e {
        SqlExpr::Lit(_) => true,
        SqlExpr::Col(name) => schema.index_of(name).is_some(),
        SqlExpr::Unary(_, x) => names_resolve(x, schema),
        SqlExpr::Binary(_, l, r) => names_resolve(l, schema) && names_resolve(r, schema),
        SqlExpr::Func { name, args, .. } => {
            AggKind::from_name(name).is_none()
                && crate::expr::is_known_scalar(name)
                && args.iter().all(|a| names_resolve(a, schema))
        }
        SqlExpr::InList { expr, list, .. } => {
            names_resolve(expr, schema) && list.iter().all(|e| names_resolve(e, schema))
        }
        SqlExpr::IsNull { expr, .. } | SqlExpr::Like { expr, .. } => names_resolve(expr, schema),
    }
}

/// Borrowing view of an owned bound (`Bound::as_ref` is not yet stable).
fn bound_ref(b: &Bound<ValueKey>) -> Bound<&ValueKey> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// The tighter of two bounds on one side of a range window: the key
/// further `inward` wins (`Greater` for lower bounds, `Less` for upper
/// bounds); on a tie, Excluded.
fn tighter(a: Bound<ValueKey>, b: Bound<ValueKey>, inward: Ordering) -> Bound<ValueKey> {
    let (ka, ea) = match &a {
        Bound::Unbounded => return b,
        Bound::Included(k) => (k, false),
        Bound::Excluded(k) => (k, true),
    };
    let kb = match &b {
        Bound::Unbounded => return a,
        Bound::Included(k) | Bound::Excluded(k) => k,
    };
    match ka.cmp(kb) {
        Ordering::Equal if ea => a,
        Ordering::Equal => b,
        o if o == inward => a,
        _ => b,
    }
}

/// Candidate row positions for an index-assisted lookup. Competing
/// AND-conjuncts are ranked by estimated candidate count and the cheapest
/// access path wins:
///
/// * `col = lit` (any index) — estimate `rows / distinct_keys`, the
///   original distinct-key selectivity proxy.
/// * `col IN (lits)` (any index; probe per element, union the positions,
///   dedup) — estimate `k · rows / distinct_keys`.
/// * range conjuncts `<`, `<=`, `>`, `>=` — including BETWEEN-shaped pairs,
///   which merge into one `(lower, upper)` window per column — served by an
///   *ordered* index only; flat estimate `rows / 3`.
///
/// Literal translation mirrors the evaluator: an equality or IN element
/// whose literal can never match the column type is dropped (an empty
/// remaining probe set falsifies the whole AND chain); a range bound
/// against NULL falsifies the chain (every comparison with NULL is false),
/// while a cross-type range bound merely skips that conjunct — under
/// `type_rank` ordering it is constant-true or constant-false for the
/// whole column, which the residual filter handles.
///
/// Candidates come back in row order and are always a superset of the
/// matching rows; the caller still applies the full WHERE over them.
fn plan_access(where_clause: Option<&SqlExpr>, table: &Table) -> AccessPlan {
    let nrows = table.len() as f64;
    let Some(w) = where_clause else {
        return counted(AccessPlan::full_scan(nrows));
    };
    if !names_resolve(w, &table.schema) {
        return counted(AccessPlan::full_scan(nrows));
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(w, &mut conjuncts);

    let mut best: Option<(f64, usize, IndexCond)> = None; // (est, col, cond)
    let consider =
        |est: f64, ci: usize, cond: IndexCond, best: &mut Option<(f64, usize, IndexCond)>| {
            if best.as_ref().is_none_or(|(e, _, _)| est < *e) {
                *best = Some((est, ci, cond));
            }
        };
    // Range windows accumulate per column across conjuncts, then compete
    // as one merged condition each.
    let mut ranges: Vec<(usize, Bound<ValueKey>, Bound<ValueKey>)> = Vec::new();

    for c in conjuncts {
        match c {
            SqlExpr::Binary(op, l, r) if matches!(*op, "=" | "<" | "<=" | ">" | ">=") => {
                let Some((name, lit, op)) = col_cmp_lit(op, l, r) else {
                    continue;
                };
                let Some(ci) = table.schema.index_of(name) else {
                    continue;
                };
                let Some(distinct) = table.index_distinct_keys(ci) else {
                    continue;
                };
                let probe = probe_key(table.schema.columns[ci].dtype, lit);
                if op == "=" {
                    match probe {
                        // A type-impossible equality falsifies the AND chain.
                        Probe::Never => return counted(AccessPlan::never()),
                        Probe::Key(key) => consider(
                            nrows / distinct.max(1) as f64,
                            ci,
                            IndexCond::Eq(key),
                            &mut best,
                        ),
                    }
                    continue;
                }
                // Range conjunct: ordered indexes only.
                if !table.has_ordered_index_on(ci) {
                    continue;
                }
                let key = match probe {
                    Probe::Key(key) => key,
                    Probe::Never => {
                        if lit.is_null() {
                            // Any comparison against NULL is false.
                            return counted(AccessPlan::never());
                        }
                        // Cross-type bound: constant over the whole column
                        // under type_rank ordering — leave it to the
                        // residual filter.
                        continue;
                    }
                };
                let (lo, hi) = match op {
                    "<" => (Bound::Unbounded, Bound::Excluded(key)),
                    "<=" => (Bound::Unbounded, Bound::Included(key)),
                    ">" => (Bound::Excluded(key), Bound::Unbounded),
                    _ => (Bound::Included(key), Bound::Unbounded),
                };
                match ranges.iter_mut().find(|(c, _, _)| *c == ci) {
                    Some((_, cur_lo, cur_hi)) => {
                        let cur = std::mem::replace(cur_lo, Bound::Unbounded);
                        *cur_lo = tighter(cur, lo, Ordering::Greater);
                        let cur = std::mem::replace(cur_hi, Bound::Unbounded);
                        *cur_hi = tighter(cur, hi, Ordering::Less);
                    }
                    None => ranges.push((ci, lo, hi)),
                }
            }
            SqlExpr::InList {
                expr,
                list,
                negated: false,
            } => {
                let SqlExpr::Col(name) = &**expr else {
                    continue;
                };
                let Some(ci) = table.schema.index_of(name) else {
                    continue;
                };
                let Some(distinct) = table.index_distinct_keys(ci) else {
                    continue;
                };
                if !list.iter().all(|e| matches!(e, SqlExpr::Lit(_))) {
                    continue;
                }
                let dtype = table.schema.columns[ci].dtype;
                let mut keys: Vec<ValueKey> = Vec::with_capacity(list.len());
                for e in list {
                    let SqlExpr::Lit(lit) = e else { unreachable!() };
                    // Elements that can never match are dropped (NULL
                    // elements make `IN` yield NULL, never true).
                    if let Probe::Key(key) = probe_key(dtype, lit) {
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                }
                if keys.is_empty() {
                    // No element can ever match: the IN is constant-false.
                    return counted(AccessPlan::never());
                }
                let est = keys.len() as f64 * nrows / distinct.max(1) as f64;
                consider(est, ci, IndexCond::In(keys), &mut best);
            }
            _ => continue,
        }
    }

    for (ci, lo, hi) in ranges {
        consider(nrows / 3.0, ci, IndexCond::Range(lo, hi), &mut best);
    }

    let Some((est, ci, cond)) = best else {
        return counted(AccessPlan::full_scan(nrows));
    };
    let kind = match &cond {
        IndexCond::Eq(_) => AccessPathKind::PointLookup,
        IndexCond::In(_) => AccessPathKind::InList,
        IndexCond::Range(..) => AccessPathKind::RangeWindow,
    };
    let candidates = match cond {
        IndexCond::Eq(key) => {
            obs::incr(obs::Counter::IndexProbes);
            table.index_lookup(ci, &key).map(<[usize]>::to_vec)
        }
        IndexCond::In(keys) => {
            obs::add(obs::Counter::IndexProbes, keys.len() as u64);
            let mut out = Some(Vec::new());
            for key in &keys {
                out = match (out, table.index_lookup(ci, key)) {
                    (Some(mut acc), Some(ids)) => {
                        acc.extend_from_slice(ids);
                        Some(acc)
                    }
                    _ => None,
                };
            }
            out.map(|mut acc| {
                acc.sort_unstable();
                acc.dedup();
                acc
            })
        }
        IndexCond::Range(lo, hi) => {
            obs::incr(obs::Counter::IndexProbes);
            table.range_lookup(ci, bound_ref(&lo), bound_ref(&hi))
        }
    };
    counted(match candidates {
        Some(c) => AccessPlan {
            kind,
            column: Some(table.schema.columns[ci].name.clone()),
            est_rows: est,
            candidates: Some(c),
        },
        // The index disappeared between estimation and probing (should not
        // happen under the read guard) — degrade to a scan.
        None => AccessPlan::full_scan(nrows),
    })
}

/// Which access path the planner chose for a single-table SELECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessPathKind {
    /// `col = lit` index probe.
    PointLookup,
    /// `col IN (...)` multi-probe, positions unioned.
    InList,
    /// Merged range window over an ordered index.
    RangeWindow,
    /// No usable index condition — visit every row.
    FullScan,
    /// The WHERE clause is provably constant-false; no row can match.
    Never,
}

impl AccessPathKind {
    /// Stable name used in EXPLAIN output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AccessPathKind::PointLookup => "point-lookup",
            AccessPathKind::InList => "in-list",
            AccessPathKind::RangeWindow => "range-window",
            AccessPathKind::FullScan => "full-scan",
            AccessPathKind::Never => "never",
        }
    }
}

/// The planner's access decision for one single-table SELECT: the chosen
/// path, the index column driving it (when any), the optimizer's candidate
/// row estimate, and the candidate positions themselves (`None` = visit
/// every row).
pub(crate) struct AccessPlan {
    /// Chosen access path.
    pub(crate) kind: AccessPathKind,
    /// Index column serving the probe, for index-backed paths.
    pub(crate) column: Option<String>,
    /// Estimated candidate rows (the ranking key among competing paths).
    pub(crate) est_rows: f64,
    /// Candidate row positions; `None` means scan all rows.
    pub(crate) candidates: Option<Vec<usize>>,
}

impl AccessPlan {
    fn full_scan(nrows: f64) -> Self {
        AccessPlan {
            kind: AccessPathKind::FullScan,
            column: None,
            est_rows: nrows,
            candidates: None,
        }
    }

    fn never() -> Self {
        AccessPlan {
            kind: AccessPathKind::Never,
            column: None,
            est_rows: 0.0,
            candidates: Some(Vec::new()),
        }
    }
}

/// Record the planner's decision in the `plan.*` counters and pass the
/// plan through.
fn counted(plan: AccessPlan) -> AccessPlan {
    obs::incr(match plan.kind {
        AccessPathKind::PointLookup => obs::Counter::PlanPointLookup,
        AccessPathKind::InList => obs::Counter::PlanInList,
        AccessPathKind::RangeWindow => obs::Counter::PlanRangeWindow,
        AccessPathKind::FullScan => obs::Counter::PlanFullScan,
        AccessPathKind::Never => obs::Counter::PlanFalsified,
    });
    if let Some(c) = &plan.candidates {
        obs::add(obs::Counter::IndexCandidateRows, c.len() as u64);
    }
    plan
}

/// Candidate row positions for an index-assisted lookup, or `None` when no
/// index applies. Thin view over [`plan_access`] kept for the equivalence
/// tests.
#[cfg(test)]
fn plan_point_lookup(where_clause: Option<&SqlExpr>, table: &Table) -> Option<Vec<usize>> {
    plan_access(where_clause, table).candidates
}

/// Render `EXPLAIN [ANALYZE]` for a SELECT as a one-column result set
/// (column `plan`): the plan's nodes, one per row, top-down from the last
/// operation to the source. ANALYZE executes the plan once, ends every
/// node line with ` time_ms=<wall time of its pass> actual_rows=<rows
/// out>` and appends a trailing `Rows returned` line.
pub(crate) fn run_explain(
    cat: Catalog<'_>,
    sel: &SelectStmt,
    analyze: bool,
) -> Result<ResultSet, DbError> {
    let plan = plan(cat, sel)?;
    let lines = if analyze {
        let (rs, prof) = execute(&plan)?;
        let mut lines = render(&plan, Some(&prof));
        lines.push(format!("Rows returned: {}", rs.len()));
        lines
    } else {
        render(&plan, None)
    };
    let rows: Vec<Row> = lines.into_iter().map(|l| vec![Value::Text(l)]).collect();
    Ok(ResultSet::new(vec!["plan".to_string()], rows))
}

/// The plan's EXPLAIN lines, top-down; with a profile, every node line
/// carries its pass time and rows out.
fn render(plan: &Plan<'_>, prof: Option<&Profile>) -> Vec<String> {
    let sel = plan.sel;
    let node = |text: String, stats: Option<NodeStats>| match stats {
        Some(s) => format!(
            "{text} time_ms={:.3} actual_rows={}",
            s.time.as_secs_f64() * 1e3,
            s.rows
        ),
        None => text,
    };
    let mut lines: Vec<String> = Vec::new();
    if let Some(n) = sel.limit {
        lines.push(node(format!("Limit: {n}"), prof.map(|p| p.limit)));
    }
    if !sel.order_by.is_empty() {
        let keys: Vec<String> = sel
            .order_by
            .iter()
            .map(|k| {
                let name = match k.position {
                    Some(p) => p.to_string(),
                    None => k.column.clone(),
                };
                if k.desc {
                    format!("{name} DESC")
                } else {
                    name
                }
            })
            .collect();
        lines.push(node(
            format!("Sort: {}", keys.join(", ")),
            prof.map(|p| p.sort),
        ));
    }
    if sel.distinct {
        lines.push(node("Distinct".to_string(), prof.map(|p| p.distinct)));
    }
    let items: Vec<String> = sel
        .items
        .iter()
        .map(|it| match it {
            SelectItem::Star => "*".to_string(),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => format!("{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => expr.to_string(),
        })
        .collect();
    let body = match plan.body {
        Body::Columns(_) | Body::Exprs(_) => format!("Project: {}", items.join(", ")),
        _ if sel.group_by.is_empty() => format!("Aggregate: {}", items.join(", ")),
        _ => format!(
            "Aggregate: {} group by {}",
            items.join(", "),
            sel.group_by.join(", ")
        ),
    };
    lines.push(node(body, prof.map(|p| p.body)));
    if let Some(w) = &sel.where_clause {
        lines.push(node(format!("Filter: {w}"), prof.map(|p| p.filter)));
    }
    // Joins apply left-to-right, so in top-down order the last one comes
    // first.
    for (i, j) in sel.joins.iter().enumerate().rev() {
        lines.push(node(
            format!("Join {} ON {} = {}", j.table, j.left_col, j.right_col),
            prof.map(|p| p.joins[i]),
        ));
    }
    let base = sel.from.as_deref().unwrap_or_default();
    let source = match &plan.source {
        Source::Values => "Values: 1 row".to_string(),
        Source::Table { table, access } => {
            let mut scan = format!("Scan {base} access={}", access.kind.name());
            if let Some(col) = &access.column {
                scan.push_str(&format!(" column={col}"));
            }
            // Columnar tables report how much of the query runs
            // column-at-a-time.
            if table.is_columnar() {
                let coverage = match (&plan.filter, &plan.body) {
                    (Filter::Rows(_), _) => "none",
                    (_, Body::GeneralAggregate | Body::Exprs(_)) => "partial",
                    _ => "full",
                };
                scan.push_str(&format!(" layout=columnar vectorized={coverage}"));
            }
            format!("{scan} est_rows={:.1}", access.est_rows)
        }
        // Joined queries materialise the base table; the index planner
        // only serves single-table SELECTs.
        Source::Join(chain) => {
            let layout = chain.base.is_columnar().then_some(" layout=columnar");
            let (layout, nrows) = (layout.unwrap_or_default(), chain.base.len() as f64);
            format!("Scan {base} access=full-scan{layout} est_rows={nrows:.1}")
        }
    };
    lines.push(node(source, prof.map(|p| p.source)));
    lines
}

/// DISTINCT → ORDER BY → LIMIT, shared by both execution paths; each step
/// the statement has is one pass of the profile.
fn finalize(
    sel: &SelectStmt,
    columns: Vec<String>,
    mut out_rows: Vec<Row>,
    prof: &mut Profile,
) -> Result<ResultSet, DbError> {
    if sel.distinct {
        let started = Instant::now();
        let mut seen: HashSet<Vec<ValueKey>> = HashSet::with_capacity(out_rows.len());
        out_rows.retain(|r| seen.insert(r.iter().map(ValueKey::of).collect()));
        prof.distinct.rows = out_rows.len();
        end_pass(started, [&mut prof.distinct]);
    }
    if !sel.order_by.is_empty() {
        let started = Instant::now();
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for k in &sel.order_by {
            let idx = match k.position {
                Some(p) => {
                    if p == 0 || p > columns.len() {
                        return Err(DbError::Execution(format!(
                            "ORDER BY position {p} out of range"
                        )));
                    }
                    p - 1
                }
                None => resolve_output_column(&columns, &k.column)
                    .ok_or_else(|| DbError::NoSuchColumn(k.column.clone()))?,
            };
            keys.push((idx, k.desc));
        }
        out_rows.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            Ordering::Equal
        });
        prof.sort.rows = out_rows.len();
        end_pass(started, [&mut prof.sort]);
    }
    if let Some(n) = sel.limit {
        let started = Instant::now();
        out_rows.truncate(n);
        prof.limit.rows = out_rows.len();
        end_pass(started, [&mut prof.limit]);
    }
    Ok(ResultSet::new(columns, out_rows))
}

/// Resolve an ORDER BY name against output column names: exact match first,
/// then match on the unqualified suffix (`mbps` ↔ `bw.mbps`).
fn resolve_output_column(columns: &[String], name: &str) -> Option<usize> {
    if let Some(i) = columns.iter().position(|c| c == name) {
        return Some(i);
    }
    columns.iter().position(|c| {
        c.rsplit('.').next() == Some(name) || name.rsplit('.').next() == Some(c.as_str())
    })
}

/// Which accumulated/joined columns implement a join clause: the ON
/// columns in either order.
fn resolve_join_keys(
    schema: &Schema,
    jschema: &Schema,
    j: &JoinClause,
) -> Result<(usize, usize), DbError> {
    let keys = |acc: &str, new: &str| Some((schema.index_of(acc)?, jschema.index_of(new)?));
    keys(&j.left_col, &j.right_col)
        .or_else(|| keys(&j.right_col, &j.left_col))
        .ok_or_else(|| {
            DbError::NoSuchColumn(format!(
                "join keys {} / {} not found",
                j.left_col, j.right_col
            ))
        })
}

/// Pin every table of a join chain and resolve each step's key columns,
/// in the chain's order (so the first missing table or key is the error).
fn plan_joins(cat: Catalog<'_>, base: &str, joins: &[JoinClause]) -> Result<JoinChain, DbError> {
    let base_table = cat.pin(base)?;
    let mut schema = qualify(&base_table.schema, base)?;
    let mut steps = Vec::with_capacity(joins.len());
    for j in joins {
        let table = cat.pin(&j.table)?;
        let jschema = qualify(&table.schema, &j.table)?;
        let (ai, ni) = resolve_join_keys(&schema, &jschema, j)?;
        let mut cols = schema.columns;
        cols.extend(jschema.columns);
        schema = Schema::new(cols)?;
        steps.push((table, ai, ni));
    }
    Ok(JoinChain {
        base: base_table,
        steps,
        schema,
    })
}

/// Run a join chain with hash equi-joins, one pass per step. The hash
/// table is built on the smaller input; output order is accumulated-major
/// / joined-minor regardless of build side, matching the nested-loop
/// reference.
fn hash_join(chain: &JoinChain, prof: &mut Profile) -> Vec<Row> {
    let started = Instant::now();
    let mut rows = chain.base.rows().to_vec();
    prof.source.rows = rows.len();
    end_pass(started, [&mut prof.source]);

    for (table, ai, ni) in &chain.steps {
        let started = Instant::now();
        let (ai, ni, jrows) = (*ai, *ni, table.rows());
        // NULL keys never match.
        let key = |r: &Row, c: usize| Some(ValueKey::of(&r[c])).filter(|k| !k.is_null());
        let index = |side: &[Row], c: usize| {
            let mut built: HashMap<ValueKey, Vec<usize>> = HashMap::new();
            for (i, r) in side.iter().enumerate() {
                if let Some(k) = key(r, c) {
                    built.entry(k).or_default().push(i);
                }
            }
            built
        };
        // The joined rows matching each accumulated row, in joined order.
        let (built, buckets);
        let matches: Vec<&[usize]> = if jrows.len() <= rows.len() {
            // Build on the joined side, probe with accumulated rows.
            built = index(jrows, ni);
            rows.iter()
                .map(|r| {
                    key(r, ai)
                        .and_then(|k| built.get(&k))
                        .map_or(&[][..], Vec::as_slice)
                })
                .collect()
        } else {
            // Build on the (smaller) accumulated side; bucket matches per
            // accumulated row.
            let acc = index(&rows, ai);
            let mut b: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
            for (k, r) in jrows.iter().enumerate() {
                for &a in key(r, ni).and_then(|k| acc.get(&k)).into_iter().flatten() {
                    b[a].push(k);
                }
            }
            buckets = b;
            buckets.iter().map(Vec::as_slice).collect()
        };
        let mut out = Vec::new();
        for (r, ks) in rows.iter().zip(matches) {
            for &k in ks {
                let mut joined = r.clone();
                joined.extend(jrows[k].iter().cloned());
                out.push(joined);
            }
        }
        rows = out;
        prof.joins.push(NodeStats {
            rows: rows.len(),
            time: started.elapsed(),
        });
    }
    rows
}

/// Nested-loop join over table snapshots, used by the reference executor.
fn join_input_nested_loop(
    cat: Catalog<'_>,
    base: &str,
    joins: &[JoinClause],
) -> Result<(Schema, Vec<Row>), DbError> {
    let chain = plan_joins(cat, base, joins)?;
    let mut rows = chain.base.rows().to_vec();
    for (table, ai, ni) in &chain.steps {
        let (ai, ni, jrows) = (*ai, *ni, table.rows().to_vec());
        let mut out = Vec::new();
        for r in &rows {
            if r[ai].is_null() {
                continue;
            }
            for jr in &jrows {
                if !jr[ni].is_null() && r[ai].sql_eq(&jr[ni]) {
                    let mut joined = r.clone();
                    joined.extend(jr.iter().cloned());
                    out.push(joined);
                }
            }
        }
        rows = out;
    }
    Ok((chain.schema, rows))
}

fn qualify(schema: &Schema, table: &str) -> Result<Schema, DbError> {
    Schema::new(
        schema
            .columns
            .iter()
            .map(|c| Column {
                name: format!("{table}.{}", c.name),
                dtype: c.dtype,
                nullable: c.nullable,
            })
            .collect(),
    )
}

/// Plan of a fast-path aggregation item.
#[derive(Debug, Clone)]
enum FastItem {
    /// Pass through group-key slot `k`.
    Key(usize),
    /// Accumulate `agg(column i)`; `None` column means `count(*)`.
    Agg(AggKind, Option<usize>),
}

/// Build the fast-path plan for the common `SELECT g…, agg(col)… GROUP BY
/// g…` shape. Returns `None` when any item needs the general expression
/// path.
fn plan_fast(sel: &SelectStmt, schema: &Schema, key_idx: &[usize]) -> Option<Vec<FastItem>> {
    let mut plan = Vec::with_capacity(sel.items.len());
    for item in &sel.items {
        let expr = match item {
            SelectItem::Expr { expr, .. } => expr,
            SelectItem::Star => return None,
        };
        match expr {
            SqlExpr::Col(name) => {
                let i = schema.index_of(name)?;
                let k = key_idx.iter().position(|&ki| ki == i)?;
                plan.push(FastItem::Key(k));
            }
            SqlExpr::Func { name, args, star } => {
                let kind = AggKind::from_name(name)?;
                if *star {
                    plan.push(FastItem::Agg(kind, None));
                } else {
                    match args.as_slice() {
                        [SqlExpr::Col(col)] => {
                            let i = schema.index_of(col)?;
                            plan.push(FastItem::Agg(kind, Some(i)));
                        }
                        // count(<non-null literal>) counts rows; other
                        // aggregates over literals take the general path.
                        [SqlExpr::Lit(l)] if kind == AggKind::Count && !l.is_null() => {
                            plan.push(FastItem::Agg(kind, None))
                        }
                        _ => return None,
                    }
                }
            }
            _ => return None,
        }
    }
    Some(plan)
}

/// Streaming state for the single-pass aggregation: one scan, one
/// accumulator set per group, byte-encoded keys. This is what makes
/// in-database aggregation beat row-at-a-time processing in the frontend
/// (paper §4.2). Partial states from parallel segments combine with
/// [`FastAgg::merge`].
struct FastAgg<'p> {
    plan: &'p [FastItem],
    key_idx: &'p [usize],
    /// Rows fed so far — the filter's rows out.
    rows_in: usize,
    group_of: HashMap<Vec<u8>, usize>,
    keys: Vec<Vec<Value>>,
    key_bytes: Vec<Vec<u8>>,
    accs: Vec<Vec<Accumulator>>,
}

impl<'p> FastAgg<'p> {
    fn new(plan: &'p [FastItem], key_idx: &'p [usize]) -> Self {
        let mut agg = FastAgg {
            plan,
            key_idx,
            rows_in: 0,
            group_of: HashMap::new(),
            keys: Vec::new(),
            key_bytes: Vec::new(),
            accs: Vec::new(),
        };
        if agg.key_idx.is_empty() {
            // One global group, present even for zero input rows.
            agg.keys.push(Vec::new());
            agg.key_bytes.push(Vec::new());
            let fresh = agg.fresh_accs();
            agg.accs.push(fresh);
        }
        agg
    }

    fn fresh_accs(&self) -> Vec<Accumulator> {
        self.plan
            .iter()
            .filter_map(|it| match it {
                FastItem::Agg(kind, _) => Some(Accumulator::new(*kind)),
                FastItem::Key(_) => None,
            })
            .collect()
    }

    /// Feed one row, given as its cell accessor: a borrowed row cell, or a
    /// value read straight from a column store's typed vectors (no full
    /// row materialization).
    fn update<V: Borrow<Value>>(&mut self, cell: impl Fn(usize) -> V) {
        self.rows_in += 1;
        let gi = if self.key_idx.is_empty() {
            0
        } else {
            let mut key = Vec::with_capacity(self.key_idx.len() * 9);
            for &i in self.key_idx {
                encode_value_bytes(cell(i).borrow(), &mut key);
            }
            match self.group_of.get(&key) {
                Some(&gi) => gi,
                None => {
                    let gi = self.keys.len();
                    self.keys.push(
                        self.key_idx
                            .iter()
                            .map(|&i| cell(i).borrow().clone())
                            .collect(),
                    );
                    self.key_bytes.push(key.clone());
                    self.group_of.insert(key, gi);
                    let fresh = self.fresh_accs();
                    self.accs.push(fresh);
                    gi
                }
            }
        };
        let group_accs = &mut self.accs[gi];
        let mut a = 0;
        for it in self.plan {
            if let FastItem::Agg(_, col) = it {
                match col {
                    Some(i) => group_accs[a].update(cell(*i).borrow()),
                    None => group_accs[a].update(&Value::Int(1)),
                }
                a += 1;
            }
        }
    }

    /// Fold a later segment's partial state into this one. New groups
    /// append in the other segment's first-seen order, so merging partials
    /// in segment order reproduces the sequential group order.
    fn merge(&mut self, other: FastAgg) {
        self.rows_in += other.rows_in;
        if self.key_idx.is_empty() {
            for (a, o) in self.accs[0].iter_mut().zip(&other.accs[0]) {
                a.merge(o);
            }
            return;
        }
        for gi2 in 0..other.keys.len() {
            let kb = &other.key_bytes[gi2];
            match self.group_of.get(kb) {
                Some(&gi) => {
                    for (a, o) in self.accs[gi].iter_mut().zip(&other.accs[gi2]) {
                        a.merge(o);
                    }
                }
                None => {
                    let gi = self.keys.len();
                    self.group_of.insert(kb.clone(), gi);
                    self.keys.push(other.keys[gi2].clone());
                    self.key_bytes.push(kb.clone());
                    self.accs.push(other.accs[gi2].clone());
                }
            }
        }
    }

    fn finish(self) -> Result<Vec<Row>, DbError> {
        self.keys
            .iter()
            .zip(&self.accs)
            .map(|(key, accs)| agg_row(self.plan, |k| key[k].clone(), accs))
            .collect()
    }
}

/// One output row of a streaming aggregation: key slot `k` is `key(k)`,
/// and aggregate slots take the group's accumulators in item order.
fn agg_row<'a>(
    plan: &[FastItem],
    key: impl Fn(usize) -> Value,
    accs: impl IntoIterator<Item = &'a Accumulator>,
) -> Result<Row, DbError> {
    let mut accs = accs.into_iter();
    plan.iter()
        .map(|it| match it {
            FastItem::Key(k) => Ok(key(*k)),
            FastItem::Agg(..) => {
                let acc = accs.next().expect("one accumulator per aggregate");
                acc.finish().map_err(DbError::Type)
            }
        })
        .collect()
}

/// General aggregation: group the rows by the GROUP BY key, then evaluate
/// each item with its aggregates substituted per group.
fn aggregate_project(sel: &SelectStmt, schema: &Schema, rows: &[Row]) -> Result<Vec<Row>, DbError> {
    // Group rows by the GROUP BY key.
    let key_idx: Result<Vec<usize>, DbError> = sel
        .group_by
        .iter()
        .map(|g| {
            schema
                .index_of(g)
                .ok_or_else(|| DbError::NoSuchColumn(g.clone()))
        })
        .collect();
    let key_idx = key_idx?;

    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    if key_idx.is_empty() {
        // One global group — present even with zero input rows, so that
        // `SELECT count(*) FROM empty` yields 0.
        groups.push(rows.iter().collect());
    } else {
        for r in rows {
            let key: String = key_idx
                .iter()
                .map(|i| encode_value(&r[*i]))
                .collect::<Vec<_>>()
                .join("\u{1}");
            let gi = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(r);
        }
    }

    let null_row: Row = vec![Value::Null; schema.arity()];
    let mut out = Vec::with_capacity(groups.len());
    for g in &groups {
        let rep: &Row = g.first().copied().unwrap_or(&null_row);
        let ctx = RowCtx { schema, row: rep };
        let mut projected = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            match item {
                SelectItem::Star => projected.extend(rep.iter().cloned()),
                SelectItem::Expr { expr, .. } => {
                    let substituted = substitute_aggregates(expr, schema, g)?;
                    projected.push(eval(&substituted, &ctx)?);
                }
            }
        }
        out.push(projected);
    }
    Ok(out)
}

/// Replace every aggregate call in `expr` with the literal aggregate value
/// computed over `group`, leaving a plain row expression behind.
fn substitute_aggregates(
    expr: &SqlExpr,
    schema: &Schema,
    group: &[&Row],
) -> Result<SqlExpr, DbError> {
    Ok(match expr {
        SqlExpr::Func { name, args, star } => {
            if let Some(kind) = AggKind::from_name(name) {
                if args.len() != 1 {
                    return Err(DbError::Type(format!(
                        "aggregate {name}() expects exactly one argument"
                    )));
                }
                let mut acc = Accumulator::new(kind);
                for r in group {
                    let v = eval(&args[0], &RowCtx { schema, row: r })?;
                    acc.update(&v);
                }
                SqlExpr::Lit(acc.finish().map_err(DbError::Type)?)
            } else {
                let new_args: Result<Vec<SqlExpr>, DbError> = args
                    .iter()
                    .map(|a| substitute_aggregates(a, schema, group))
                    .collect();
                SqlExpr::Func {
                    name: name.clone(),
                    args: new_args?,
                    star: *star,
                }
            }
        }
        SqlExpr::Unary(op, x) => {
            SqlExpr::Unary(*op, Box::new(substitute_aggregates(x, schema, group)?))
        }
        SqlExpr::Binary(op, l, r) => SqlExpr::Binary(
            op,
            Box::new(substitute_aggregates(l, schema, group)?),
            Box::new(substitute_aggregates(r, schema, group)?),
        ),
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => SqlExpr::InList {
            expr: Box::new(substitute_aggregates(expr, schema, group)?),
            list: list
                .iter()
                .map(|e| substitute_aggregates(e, schema, group))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull {
            expr: Box::new(substitute_aggregates(expr, schema, group)?),
            negated: *negated,
        },
        SqlExpr::Like {
            expr,
            pattern,
            negated,
        } => SqlExpr::Like {
            expr: Box::new(substitute_aggregates(expr, schema, group)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        other => other.clone(),
    })
}

fn output_names(sel: &SelectStmt, schema: &Schema) -> Vec<String> {
    let mut names = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => names.extend(schema.names()),
            SelectItem::Expr { expr, alias } => names.push(match alias {
                Some(a) => a.clone(),
                None => expr.to_string_for_order(),
            }),
        }
    }
    names
}

/// Canonical encoding used for grouping in the general expression path.
/// Numeric values encode by their f64 image so `1` and `1.0` collide,
/// matching `Value::sql_eq` (and [`ValueKey`], the hashable equivalent).
pub(crate) fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "\u{0}null".to_string(),
        Value::Text(s) => format!("t:{s}"),
        Value::Bool(b) => format!("b:{b}"),
        other => format!("n:{}", norm_bits(other.as_f64().unwrap_or(f64::NAN))),
    }
}

/// Allocation-light binary encoding with the same equivalence classes as
/// [`encode_value`], used for hot grouping paths.
fn encode_value_bytes(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Text(s) => {
            out.push(2);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
        other => {
            out.push(1);
            out.extend_from_slice(&norm_bits(other.as_f64().unwrap_or(f64::NAN)).to_le_bytes());
        }
    }
}

/// Schema of a result set inferred from its first row — used when a result
/// is materialised into a (temp) table. Columns with no observed value
/// default to FLOAT.
pub fn infer_schema(columns: &[String], rows: &[Row]) -> Result<Schema, DbError> {
    let mut cols = Vec::with_capacity(columns.len());
    for (i, name) in columns.iter().enumerate() {
        let dtype = rows
            .iter()
            .find_map(|r| r.get(i).and_then(Value::data_type))
            .unwrap_or(DataType::Float);
        cols.push(Column::new(name, dtype));
    }
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE t (id INTEGER, grp TEXT, v FLOAT)")
            .unwrap();
        e.execute(
            "INSERT INTO t VALUES (1,'a',10.0),(2,'a',20.0),(3,'b',30.0),(4,'b',50.0),(5,'c',NULL)",
        )
        .unwrap();
        e
    }

    #[test]
    fn star_projection() {
        let rs = db().query("SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.column_names(), &["id", "grp", "v"]);
        assert_eq!(
            rs.rows()[0],
            vec![Value::Int(3), Value::Text("b".into()), Value::Float(30.0)]
        );
    }

    #[test]
    fn expression_projection_with_alias() {
        let rs = db()
            .query("SELECT v * 2 AS dbl, id FROM t WHERE id = 1")
            .unwrap();
        assert_eq!(rs.column_names(), &["dbl", "id"]);
        assert_eq!(rs.rows()[0][0], Value::Float(20.0));
    }

    #[test]
    fn group_by_with_expression_on_aggregate() {
        let rs = db()
            .query("SELECT grp, avg(v) + 1 AS a1 FROM t GROUP BY grp ORDER BY grp")
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(
            rs.rows()[0],
            vec![Value::Text("a".into()), Value::Float(16.0)]
        );
        assert_eq!(
            rs.rows()[1],
            vec![Value::Text("b".into()), Value::Float(41.0)]
        );
        // group 'c' has only a NULL value -> avg NULL -> NULL + 1 = NULL
        assert_eq!(rs.rows()[2], vec![Value::Text("c".into()), Value::Null]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let e = Engine::new();
        e.execute("CREATE TABLE empty (x INTEGER)").unwrap();
        let rs = e.query("SELECT count(*), max(x) FROM empty").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn count_star_vs_count_column() {
        let rs = db().query("SELECT count(*), count(v) FROM t").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(5), Value::Int(4)]);
    }

    #[test]
    fn distinct_dedupes() {
        let rs = db()
            .query("SELECT DISTINCT grp FROM t ORDER BY grp")
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn distinct_treats_int_float_equal() {
        let e = Engine::new();
        e.execute("CREATE TABLE m (k FLOAT)").unwrap();
        e.execute("INSERT INTO m VALUES (1.0), (1), (2)").unwrap();
        let rs = e.query("SELECT DISTINCT k FROM m").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let rs = db()
            .query("SELECT id FROM t ORDER BY id DESC LIMIT 2")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(5));
        assert_eq!(rs.rows()[1][0], Value::Int(4));
    }

    #[test]
    fn order_by_position() {
        let rs = db()
            .query("SELECT grp, v FROM t WHERE v IS NOT NULL ORDER BY 2 DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows()[0][1], Value::Float(50.0));
    }

    #[test]
    fn order_by_aggregate_name() {
        let rs = db()
            .query("SELECT grp, sum(v) FROM t GROUP BY grp ORDER BY sum(v) DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("b".into()));
    }

    #[test]
    fn nulls_sort_first() {
        let rs = db().query("SELECT v FROM t ORDER BY v").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Null);
    }

    #[test]
    fn select_without_from() {
        let e = Engine::new();
        let rs = e.query("SELECT 1 + 2 AS three, 'x' AS tag").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(3), Value::Text("x".into())]);
    }

    #[test]
    fn join_null_keys_never_match() {
        let e = Engine::new();
        e.execute("CREATE TABLE a (k INTEGER)").unwrap();
        e.execute("CREATE TABLE b (k INTEGER)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (NULL)").unwrap();
        e.execute("INSERT INTO b VALUES (1), (NULL)").unwrap();
        let rs = e.query("SELECT a.k FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn join_one_to_many() {
        let e = Engine::new();
        e.execute("CREATE TABLE runs (id INTEGER, host TEXT)")
            .unwrap();
        e.execute("CREATE TABLE vals (run INTEGER, v FLOAT)")
            .unwrap();
        e.execute("INSERT INTO runs VALUES (1,'h1'),(2,'h2')")
            .unwrap();
        e.execute("INSERT INTO vals VALUES (1,1.0),(1,2.0),(2,3.0)")
            .unwrap();
        let rs = e
            .query(
                "SELECT runs.host, sum(vals.v) FROM vals JOIN runs ON vals.run = runs.id \
                 GROUP BY runs.host ORDER BY runs.host",
            )
            .unwrap();
        assert_eq!(
            rs.rows()[0],
            vec![Value::Text("h1".into()), Value::Float(3.0)]
        );
        assert_eq!(
            rs.rows()[1],
            vec![Value::Text("h2".into()), Value::Float(3.0)]
        );
    }

    #[test]
    fn join_build_side_does_not_change_output() {
        // Joined side larger than accumulated side → build flips to the
        // accumulated side; output must stay accumulated-major.
        let e = Engine::new();
        e.execute("CREATE TABLE small (k INTEGER)").unwrap();
        e.execute("CREATE TABLE big (k INTEGER, tag TEXT)").unwrap();
        e.execute("INSERT INTO small VALUES (2), (1)").unwrap();
        e.execute("INSERT INTO big VALUES (1,'x1'),(2,'y1'),(1,'x2'),(3,'z'),(2,'y2'),(9,'w')")
            .unwrap();
        let rs = e
            .query("SELECT small.k, big.tag FROM small JOIN big ON small.k = big.k")
            .unwrap();
        let got: Vec<(i64, String)> = rs
            .rows()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_str().unwrap().to_string()))
            .collect();
        assert_eq!(
            got,
            vec![
                (2, "y1".into()),
                (2, "y2".into()),
                (1, "x1".into()),
                (1, "x2".into())
            ]
        );
        let reference = e
            .query_reference("SELECT small.k, big.tag FROM small JOIN big ON small.k = big.k")
            .unwrap();
        assert_eq!(rs, reference);
    }

    #[test]
    fn grouping_treats_int_float_equal() {
        let e = Engine::new();
        e.execute("CREATE TABLE m (k FLOAT, v INTEGER)").unwrap();
        e.execute("INSERT INTO m VALUES (1.0, 10), (1, 20), (2, 5)")
            .unwrap();
        let rs = e
            .query("SELECT k, count(*) FROM m GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn infer_schema_from_rows() {
        let cols = vec!["a".to_string(), "b".to_string()];
        let rows = vec![
            vec![Value::Null, Value::Text("x".into())],
            vec![Value::Int(1), Value::Text("y".into())],
        ];
        let s = infer_schema(&cols, &rows).unwrap();
        assert_eq!(s.columns[0].dtype, DataType::Int);
        assert_eq!(s.columns[1].dtype, DataType::Text);
    }

    #[test]
    fn derive_threshold_clamps_and_scales() {
        // Cheap rows / expensive spawn → high threshold, clamped at 64k.
        assert_eq!(derive_threshold(1_000_000, 1), 65_536);
        // Expensive rows → low threshold, clamped at 1024.
        assert_eq!(derive_threshold(100, 1_000), 1024);
        // In between: 4 * 20_000 / 5 = 16_000.
        assert_eq!(derive_threshold(20_000, 5), 16_000);
        // A zero per-row measurement must not divide by zero.
        assert_eq!(derive_threshold(10_000, 0), 40_000);
    }

    #[test]
    fn explain_reports_access_path() {
        let e = db();
        e.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        let rs = e.query("EXPLAIN SELECT * FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.column_names(), &["plan"]);
        let text: Vec<String> = rs
            .rows()
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            text,
            vec![
                "Project: *".to_string(),
                "Filter: (id = 3)".to_string(),
                "Scan t access=point-lookup column=id est_rows=1.0".to_string(),
            ]
        );

        let rs = e
            .query("EXPLAIN ANALYZE SELECT * FROM t WHERE id = 3")
            .unwrap();
        let last = rs.rows().last().unwrap()[0].as_str().unwrap().to_string();
        assert_eq!(last, "Rows returned: 1");
        let scan = rs.rows()[rs.len() - 2][0].as_str().unwrap().to_string();
        assert!(scan.ends_with("actual_rows=1"), "{scan}");
    }

    #[test]
    fn unknown_group_column_errors() {
        assert!(matches!(
            db().query("SELECT count(*) FROM t GROUP BY zzz"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn unknown_order_column_errors() {
        assert!(matches!(
            db().query("SELECT id FROM t ORDER BY zzz"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    fn indexed_db() -> Engine {
        let e = db();
        e.execute("CREATE INDEX ix_id ON t (id)").unwrap();
        e
    }

    #[test]
    fn index_point_lookup_matches_scan() {
        let idx = indexed_db();
        let plain = db();
        for q in [
            "SELECT * FROM t WHERE id = 3",
            "SELECT * FROM t WHERE 3 = id",
            "SELECT grp FROM t WHERE id = 4 AND v > 10",
            "SELECT count(*) FROM t WHERE id = 1",
            "SELECT * FROM t WHERE id = 99",
            "SELECT * FROM t WHERE id = NULL",
            "SELECT * FROM t WHERE id = 'x'",
            "SELECT * FROM t WHERE id = 3.0",
            "SELECT * FROM t WHERE id = 3.5",
        ] {
            assert_eq!(idx.query(q).unwrap(), plain.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn index_lookup_on_aggregation() {
        let idx = indexed_db();
        let rs = idx
            .query("SELECT count(*), max(v) FROM t WHERE id = 3")
            .unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(1), Value::Float(30.0)]);
        // No match still yields the global group.
        let rs = idx
            .query("SELECT count(*), max(v) FROM t WHERE id = 42")
            .unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn index_stays_correct_after_mutations() {
        let e = indexed_db();
        e.execute("INSERT INTO t VALUES (3, 'z', 99.0)").unwrap();
        let rs = e.query("SELECT count(*) FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(2));
        e.execute("DELETE FROM t WHERE grp = 'b'").unwrap();
        let rs = e.query("SELECT count(*) FROM t WHERE id = 3").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(1));
        e.execute("UPDATE t SET id = 7 WHERE id = 3").unwrap();
        let rs = e.query("SELECT grp FROM t WHERE id = 7").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Text("z".into()));
    }

    #[test]
    fn most_selective_index_wins() {
        use crate::sql::{self, Stmt};
        // 1000 rows: `flag` has 2 distinct values (500 rows each), `id` has
        // 1000 distinct values (1 row each). Both are indexed; the planner
        // must probe `id`, not the first conjunct's `flag`.
        let e = Engine::new();
        e.execute("CREATE TABLE big (id INTEGER, flag INTEGER, v FLOAT)")
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..1000 {
            rows.push(vec![
                Value::Int(i),
                Value::Int(i % 2),
                Value::Float(i as f64),
            ]);
        }
        e.insert_rows("big", rows).unwrap();
        e.execute("CREATE INDEX ix_flag ON big (flag)").unwrap();
        e.execute("CREATE INDEX ix_id ON big (id)").unwrap();

        let plan = |q: &str| -> Option<Vec<usize>> {
            let Stmt::Select(sel) = sql::parse_statement(q).unwrap() else {
                unreachable!()
            };
            let t = e.table("big").unwrap();
            let guard = t.read();
            plan_point_lookup(sel.where_clause.as_ref(), &guard)
        };

        // flag listed first, id second: still 1 candidate, not 500.
        let c = plan("SELECT v FROM big WHERE flag = 1 AND id = 7").unwrap();
        assert_eq!(
            c,
            vec![7],
            "planner must pick the id index (1000 distinct keys)"
        );
        // Either order.
        let c = plan("SELECT v FROM big WHERE id = 8 AND flag = 0").unwrap();
        assert_eq!(c, vec![8]);
        // Single applicable index still works.
        let c = plan("SELECT v FROM big WHERE flag = 1").unwrap();
        assert_eq!(c.len(), 500);
        // A type-impossible conjunct anywhere falsifies the AND chain.
        let c = plan("SELECT v FROM big WHERE flag = 1 AND id = 'nope'").unwrap();
        assert!(c.is_empty());
        // And the query results agree with a full scan either way.
        let rs = e
            .query("SELECT v FROM big WHERE flag = 1 AND id = 7")
            .unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Float(7.0)]]);
    }

    fn plan_on(e: &Engine, table: &str, q: &str) -> Option<Vec<usize>> {
        use crate::sql::{self, Stmt};
        let Stmt::Select(sel) = sql::parse_statement(q).unwrap() else {
            unreachable!()
        };
        let t = e.table(table).unwrap();
        let guard = t.read();
        plan_point_lookup(sel.where_clause.as_ref(), &guard)
    }

    fn range_db() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE r (id INTEGER, v FLOAT, tag TEXT)")
            .unwrap();
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(vec![
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
                Value::Text(format!("t{}", i % 10)),
            ]);
        }
        e.insert_rows("r", rows).unwrap();
        e.execute("CREATE ORDERED INDEX ix_id ON r (id)").unwrap();
        e
    }

    #[test]
    fn in_list_probes_index() {
        let e = range_db();
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (3, 1, 99, 1, 200)").unwrap();
        assert_eq!(
            c,
            vec![1, 3, 99],
            "positions unioned, deduped, in row order"
        );
        // Unmatchable and NULL elements are dropped from the probe set.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (5, 'x', NULL)").unwrap();
        assert_eq!(c, vec![5]);
        // An all-impossible IN falsifies the AND chain.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN ('x', NULL)").unwrap();
        assert!(c.is_empty());
        // NOT IN and non-literal elements take the scan path.
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id NOT IN (1, 2)").is_none());
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id IN (1, v)").is_none());
        // Results agree with the scan either way.
        let rs = e
            .query("SELECT id FROM r WHERE id IN (3, 1, 99, 200) ORDER BY id")
            .unwrap();
        let reference = e
            .query_reference("SELECT id FROM r WHERE id IN (3, 1, 99, 200) ORDER BY id")
            .unwrap();
        assert_eq!(rs, reference);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn range_conjuncts_use_ordered_index() {
        let e = range_db();
        // Single-sided ranges.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < 3").unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id <= 2").unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 97").unwrap(),
            vec![98, 99]
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id >= 98").unwrap(),
            vec![98, 99]
        );
        // Literal-on-the-left flips the operator.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE 97 < id").unwrap(),
            vec![98, 99]
        );
        // BETWEEN-shaped pair merges into one window.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id >= 10 AND id < 13").unwrap(),
            vec![10, 11, 12]
        );
        // Conflicting bounds collapse to empty without panicking.
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 50 AND id < 10").unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id > 10 AND id < 10").unwrap(),
            Vec::<usize>::new()
        );
        // A NULL bound falsifies the chain; a cross-type bound is left to
        // the residual filter (constant over the column).
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < NULL").unwrap(),
            Vec::<usize>::new()
        );
        assert!(plan_on(&e, "r", "SELECT * FROM r WHERE id < 'x'").is_none());
        // Fractional bounds work on integer columns (key space is f64).
        assert_eq!(
            plan_on(&e, "r", "SELECT * FROM r WHERE id < 2.5").unwrap(),
            vec![0, 1, 2]
        );
        // A hash index never serves ranges.
        let h = Engine::new();
        h.execute("CREATE TABLE r (id INTEGER)").unwrap();
        h.execute("INSERT INTO r VALUES (1), (2)").unwrap();
        h.execute("CREATE INDEX ix ON r (id)").unwrap();
        assert!(plan_on(&h, "r", "SELECT * FROM r WHERE id < 2").is_none());
    }

    #[test]
    fn planner_prefers_cheapest_access_path() {
        let e = range_db();
        // Eq (1 row) beats the range (est rows/3) and the IN (3 rows).
        let c = plan_on(
            &e,
            "r",
            "SELECT * FROM r WHERE id IN (1,2,3) AND id = 2 AND id < 50",
        )
        .unwrap();
        assert_eq!(c, vec![2]);
        // IN with fewer estimated rows beats the range.
        let c = plan_on(&e, "r", "SELECT * FROM r WHERE id IN (1, 2) AND id < 50").unwrap();
        assert_eq!(c, vec![1, 2]);
        // Range query agrees with the reference end to end.
        let q = "SELECT id, v FROM r WHERE id >= 10 AND id < 20 AND v > 5.4 ORDER BY id";
        assert_eq!(e.query(q).unwrap(), e.query_reference(q).unwrap());
    }

    #[test]
    fn unknown_column_errors_despite_index() {
        // names_resolve() must keep the scan's error behavior even when an
        // indexed conjunct would yield zero candidates: a scan evaluates
        // `zzz` on every row before short-circuiting on `id = 99`.
        let e = indexed_db();
        assert!(matches!(
            e.query("SELECT * FROM t WHERE zzz = 1 AND id = 99"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    /// Row-layout and columnar twins over the same data, for byte-identical
    /// result checks across the vectorized path.
    fn twin_dbs() -> (Engine, Engine) {
        let row = Engine::new();
        let col = Engine::new();
        let cols = "(id INTEGER, fs TEXT, bw FLOAT, ok BOOLEAN, at TIMESTAMP)";
        row.execute(&format!("CREATE TABLE runs {cols}")).unwrap();
        col.execute(&format!("CREATE TABLE runs {cols} USING COLUMNAR"))
            .unwrap();
        let mut vals = Vec::new();
        for i in 0..200i64 {
            let fs = match i % 4 {
                0 => "'ufs'".to_string(),
                1 => "'nfs'".to_string(),
                2 => "'pvfs'".to_string(),
                _ => "NULL".to_string(),
            };
            let bw = if i % 7 == 0 {
                "NULL".to_string()
            } else {
                format!("{}.25", i * 3)
            };
            let ok = if i % 2 == 0 { "TRUE" } else { "FALSE" };
            vals.push(format!(
                "({i}, {fs}, {bw}, {ok}, '2026-01-01 00:00:{:02}')",
                i % 60
            ));
        }
        let stmt = format!("INSERT INTO runs VALUES {}", vals.join(", "));
        row.execute(&stmt).unwrap();
        col.execute(&stmt).unwrap();
        (row, col)
    }

    const VEC_CORPUS: &[&str] = &[
        "SELECT * FROM runs WHERE fs = 'ufs'",
        "SELECT id, bw FROM runs WHERE bw > 100.0 AND bw <= 400.0",
        "SELECT id FROM runs WHERE fs <> 'nfs' AND ok = TRUE",
        "SELECT id FROM runs WHERE fs < 'pvfs'",
        "SELECT id FROM runs WHERE fs LIKE 'u%'",
        "SELECT id FROM runs WHERE fs NOT LIKE '%fs'",
        "SELECT id FROM runs WHERE fs IN ('ufs', 'pvfs', 'zfs')",
        "SELECT id FROM runs WHERE id IN (3, 5, 8, 999)",
        "SELECT id FROM runs WHERE id NOT IN (3, 5, 8)",
        "SELECT id FROM runs WHERE bw IS NULL",
        "SELECT id FROM runs WHERE fs IS NOT NULL AND bw IS NOT NULL",
        "SELECT id FROM runs WHERE bw = NULL",
        "SELECT id FROM runs WHERE id = 'nope'",
        "SELECT id FROM runs WHERE fs > 5",
        "SELECT count(*) FROM runs WHERE fs = 'ufs'",
        "SELECT fs, count(*), sum(bw), avg(bw), min(bw), max(bw) FROM runs GROUP BY fs",
        "SELECT fs, avg(bw) FROM runs WHERE bw > 50.0 GROUP BY fs",
        "SELECT ok, count(*) FROM runs GROUP BY ok",
        "SELECT fs, ok, count(*) FROM runs GROUP BY fs, ok",
        "SELECT min(at), max(at) FROM runs WHERE fs = 'nfs'",
        "SELECT avg(bw) * 2 FROM runs WHERE fs = 'ufs'",
        "SELECT id * 2, bw FROM runs WHERE fs = 'pvfs'",
        "SELECT id FROM runs WHERE fs = 'ufs' OR fs = 'nfs'",
        "SELECT id FROM runs WHERE NOT (fs = 'ufs')",
        "SELECT DISTINCT fs FROM runs WHERE bw IS NOT NULL ORDER BY fs",
        "SELECT fs, avg(bw) FROM runs GROUP BY fs ORDER BY 2 DESC LIMIT 2",
    ];

    #[test]
    fn vectorized_path_matches_row_results() {
        let (row, col) = twin_dbs();
        for q in VEC_CORPUS {
            let a = row.query(q).unwrap();
            let b = col.query(q).unwrap();
            assert_eq!(a.column_names(), b.column_names(), "columns differ: {q}");
            assert_eq!(a.rows(), b.rows(), "rows differ: {q}");
        }
    }

    #[test]
    fn vectorized_path_respects_indexes() {
        let (row, col) = twin_dbs();
        for e in [&row, &col] {
            e.execute("CREATE INDEX ix_fs ON runs (fs)").unwrap();
            e.execute("CREATE ORDERED INDEX ox_id ON runs (id)")
                .unwrap();
        }
        for q in [
            "SELECT id, bw FROM runs WHERE fs = 'ufs' AND bw > 60.0",
            "SELECT fs, count(*) FROM runs WHERE id >= 20 AND id < 40 GROUP BY fs",
            "SELECT id FROM runs WHERE id IN (1, 2, 3) AND ok = FALSE",
        ] {
            let a = row.query(q).unwrap();
            let b = col.query(q).unwrap();
            assert_eq!(a.rows(), b.rows(), "rows differ: {q}");
        }
    }

    #[test]
    fn explain_reports_columnar_layout_and_strategy() {
        let (_, col) = twin_dbs();
        let text = |q: &str| {
            col.query(q)
                .unwrap()
                .rows()
                .iter()
                .map(|r| r[0].to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Fast aggregation over a dictionary group key: fully vectorized.
        let t = text("EXPLAIN SELECT fs, avg(bw) FROM runs WHERE bw > 10.0 GROUP BY fs");
        assert!(t.contains("layout=columnar vectorized=full"), "{t}");
        // OR doesn't vectorize: the row path serves the query.
        let t = text("EXPLAIN SELECT id FROM runs WHERE fs = 'ufs' OR fs = 'nfs'");
        assert!(t.contains("layout=columnar vectorized=none"), "{t}");
        // Expression projection: selection vectorizes, projection doesn't.
        let t = text("EXPLAIN SELECT id + 1 FROM runs WHERE fs = 'ufs'");
        assert!(t.contains("layout=columnar vectorized=partial"), "{t}");
        // ANALYZE still ends the scan line with the actual row count.
        let t = text("EXPLAIN ANALYZE SELECT id FROM runs WHERE fs = 'ufs'");
        let scan = t
            .lines()
            .find(|l| l.starts_with("Scan"))
            .expect("scan line");
        assert!(scan.contains(" vectorized=full "), "{scan}");
        assert!(scan.contains(" actual_rows=200"), "{scan}");
        // Row tables are unannotated.
        let (row, _) = twin_dbs();
        let t = row
            .query("EXPLAIN SELECT id FROM runs WHERE fs = 'ufs'")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!t.contains("layout="), "{t}");
    }

    #[test]
    fn dictionary_group_order_is_first_seen() {
        let (row, col) = twin_dbs();
        // No ORDER BY: group order must be first-seen row order on both
        // layouts (dictionary-code grouping included).
        let q = "SELECT fs, count(*) FROM runs GROUP BY fs";
        assert_eq!(row.query(q).unwrap().rows(), col.query(q).unwrap().rows());
    }
}
