//! The engine: catalog of tables plus the SQL entry points.
#![warn(missing_docs)]

use crate::dump;
use crate::error::DbError;
use crate::exec;
use crate::expr::{self, RowCtx};
use crate::schema::{Column, Schema};
use crate::snapshot::Snapshot;
use crate::sql::{self, Stmt};
use crate::sync::{Mutex, RwLock};
use crate::table::{Row, Table, TableMemory};
use crate::txn::Transaction;
use crate::value::Value;
use crate::wal::{RecoveryReport, Wal, WalOptions};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The body of [`Engine::query`] and [`Engine::query_at`]: parse, then
/// run a SELECT (or render its EXPLAIN) against `cat` inside a `query`
/// span, with the statement-class and parse/exec accounting.
fn run_query(cat: exec::Catalog<'_>, sql_text: &str) -> Result<ResultSet, DbError> {
    let parse_started = Instant::now();
    let stmt = sql::parse_statement(sql_text)?;
    obs::incr(obs::Counter::StmtParsed);
    obs::record_duration(obs::Hist::ParseNs, parse_started.elapsed());
    let class = stmt_class(&stmt);
    let (sel, analyze) = match stmt {
        Stmt::Select(sel) => (sel, None),
        Stmt::Explain { analyze, select } => (select, Some(analyze)),
        _ => {
            return Err(DbError::Execution(
                "query() only accepts SELECT statements".into(),
            ))
        }
    };
    let _class_scope = obs::class_scope(class);
    let mut span = obs::span("query");
    span.annotate(|| {
        format!(
            "class={} from={}",
            class.name(),
            sel.from.as_deref().unwrap_or("-")
        )
    });
    obs::incr(obs::Counter::QueriesRun);
    let exec_started = Instant::now();
    let result = match analyze {
        None => exec::run_select(cat, &sel),
        Some(analyze) => exec::run_explain(cat, &sel, analyze),
    };
    obs::record_statement(class, exec_started.elapsed().as_nanos() as u64);
    obs::record_duration(obs::Hist::ExecNs, exec_started.elapsed());
    result
}

/// The body of [`Engine::query_reference`] and
/// [`Engine::query_reference_at`].
fn run_query_reference(cat: exec::Catalog<'_>, sql_text: &str) -> Result<ResultSet, DbError> {
    match sql::parse_statement(sql_text)? {
        Stmt::Select(sel) => exec::run_select_reference(cat, &sel),
        _ => Err(DbError::Execution(
            "query() only accepts SELECT statements".into(),
        )),
    }
}

/// Telemetry class of a parsed statement.
fn stmt_class(stmt: &Stmt) -> obs::StmtClass {
    match stmt {
        Stmt::Select(_) => obs::StmtClass::Select,
        Stmt::Explain { .. } => obs::StmtClass::Explain,
        Stmt::Insert { .. } => obs::StmtClass::Insert,
        Stmt::Update { .. } => obs::StmtClass::Update,
        Stmt::Delete { .. } => obs::StmtClass::Delete,
        Stmt::CreateTable { .. } | Stmt::DropTable { .. } | Stmt::CreateIndex { .. } => {
            obs::StmtClass::Ddl
        }
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => obs::StmtClass::Ddl,
    }
}

/// RAII guard classifying one programmatic (non-SQL-text) mutation: scopes
/// WAL attribution to `class` for its lifetime and records one statement
/// with its wall time on drop. The SQL-text entry points (`execute`,
/// `query`) do this inline instead, after parsing tells them the class.
struct ClassifiedStmt {
    class: obs::StmtClass,
    started: Instant,
    _scope: obs::ClassScope,
}

impl Drop for ClassifiedStmt {
    fn drop(&mut self) {
        obs::record_statement(self.class, self.started.elapsed().as_nanos() as u64);
    }
}

fn classified(class: obs::StmtClass) -> ClassifiedStmt {
    ClassifiedStmt {
        class,
        started: Instant::now(),
        _scope: obs::class_scope(class),
    }
}

/// Result of a SELECT: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl ResultSet {
    /// Construct from parts (used by the executor).
    pub(crate) fn new(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet { columns, rows }
    }

    /// Output column names.
    pub fn column_names(&self) -> &[String] {
        &self.columns
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at (row, named column).
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let i = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(i)
    }

    /// One whole column as a vector.
    pub fn column(&self, name: &str) -> Option<Vec<Value>> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[i].clone()).collect())
    }

    /// Render as tab-separated text: one header line of column names, one
    /// line per row, values in SQL display form. This is the wire format
    /// of the HTTP `/query` endpoint and of `perfbase sql`, shared here so
    /// the two surfaces stay byte-identical.
    pub fn render_tsv(&self) -> String {
        let mut out = self.columns.join("\t");
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push('\t');
                }
                first = false;
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// An in-process database: a catalog of multi-versioned tables.
///
/// The engine is `Sync`, and reads are snapshot-isolated: each catalog
/// slot holds an `Arc<Table>` *version*. Readers pin a version (one `Arc`
/// clone under the slot's read lock, dropped immediately) and scan
/// lock-free; writers mutate in place while nobody pins the current
/// version and copy-on-write otherwise. A long analytical scan therefore
/// never blocks an import and vice versa — which is what lets many
/// analysts query shared experiment data while imports keep landing
/// (paper's "parallel working", §4.3).
///
/// Cross-table consistency comes from the *commit gate*: writers hold it
/// exclusively while applying a statement and bumping the [`epoch`]
/// counter; [`Engine::snapshot`] holds it shared while pinning every
/// table, so a snapshot reflects every statement up to its epoch and
/// nothing after.
///
/// [`epoch`]: Engine::epoch
#[derive(Debug, Default)]
pub struct Engine {
    tables: RwLock<HashMap<String, Arc<RwLock<Arc<Table>>>>>,
    temps: Mutex<HashSet<String>>,
    /// Optional write-ahead log. When attached, every mutating statement on
    /// a non-TEMP table is appended here *before* it is applied; the log
    /// mutex is held across the no-op checks, the append AND the apply, so
    /// the log/skip decision cannot race a concurrent writer and log order
    /// equals apply order (lock order is always wal → commit →
    /// tables/temps → slot, so this cannot deadlock).
    wal: Mutex<Option<Wal>>,
    /// MVCC commit gate: exclusive while a mutation is applied and the
    /// epoch bumped, shared while a snapshot pins the catalog.
    commit: RwLock<()>,
    /// Monotonic commit epoch; bumped once per applied mutation.
    epoch: AtomicU64,
}

/// RAII half of [`Engine::begin_commit`]: holds the commit gate
/// exclusively and bumps the epoch (mirrored to the `mvcc.epoch` gauge)
/// when dropped.
struct CommitGuard<'a> {
    engine: &'a Engine,
    _gate: std::sync::RwLockWriteGuard<'a, ()>,
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        let epoch = self.engine.epoch.fetch_add(1, Ordering::Release) + 1;
        obs::set(obs::Counter::MvccEpoch, epoch);
    }
}

/// Natural string ordering: digit runs compare numerically (after
/// stripping leading zeros), everything else byte-wise, with the raw
/// digit-run length as the deterministic tiebreak (`a7` sorts before
/// `a07`). Used to keep per-table reports in a stable, humanly ordered
/// sequence — plain lexicographic order interleaves `pb_rundata_10`
/// before `pb_rundata_2`.
pub(crate) fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (mut x, mut y) = (a.as_bytes(), b.as_bytes());
    loop {
        match (x.first(), y.first()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(&cx), Some(&cy)) if cx.is_ascii_digit() && cy.is_ascii_digit() => {
                let xe = x
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .unwrap_or(x.len());
                let ye = y
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .unwrap_or(y.len());
                let (xd, yd) = (&x[..xe], &y[..ye]);
                let xt = &xd[xd.iter().take_while(|&&c| c == b'0').count()..];
                let yt = &yd[yd.iter().take_while(|&&c| c == b'0').count()..];
                let ord = xt
                    .len()
                    .cmp(&yt.len())
                    .then_with(|| xt.cmp(yt))
                    .then_with(|| xd.len().cmp(&yd.len()));
                if ord != Ordering::Equal {
                    return ord;
                }
                x = &x[xe..];
                y = &y[ye..];
            }
            (Some(&cx), Some(&cy)) => {
                if cx != cy {
                    return cx.cmp(&cy);
                }
                x = &x[1..];
                y = &y[1..];
            }
        }
    }
}

/// Copy-on-write access to a table version. Mutates in place while no
/// snapshot pins the current `Arc<Table>`; otherwise clones the table once
/// — rows, columnar store, dictionaries, indexes and the lazily
/// materialised row cache all travel with the clone — and mutates the new
/// version, leaving every pinned reader's view frozen.
fn cow(slot: &mut Arc<Table>) -> &mut Table {
    if Arc::strong_count(slot) > 1 {
        obs::incr(obs::Counter::MvccCowClones);
    }
    Arc::make_mut(slot)
}

impl Engine {
    /// Empty database.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Create a table programmatically.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), DbError> {
        self.create_table_opts(name, schema, false, false)
    }

    /// Create a *columnar* table programmatically — the layout flag used by
    /// the `core` import path for append-mostly run-data tables. Equivalent
    /// to `CREATE TABLE name (...) USING COLUMNAR` (and logged to the WAL
    /// as exactly that, so recovery and replication preserve the layout).
    pub fn create_table_columnar(&self, name: &str, schema: Schema) -> Result<(), DbError> {
        self.create_table_layout(name, schema, false, false, true)
    }

    /// Create a table with TEMP / IF NOT EXISTS options.
    pub fn create_table_opts(
        &self,
        name: &str,
        schema: Schema,
        temp: bool,
        if_not_exists: bool,
    ) -> Result<(), DbError> {
        self.create_table_layout(name, schema, temp, if_not_exists, false)
    }

    /// Full-option create: TEMP / IF NOT EXISTS / columnar layout.
    pub fn create_table_layout(
        &self,
        name: &str,
        schema: Schema,
        temp: bool,
        if_not_exists: bool,
        columnar: bool,
    ) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        let mut wal = self.wal.lock();
        match wal.as_mut() {
            Some(w) if !temp => {
                w.append(&dump::render_create_table(
                    name,
                    &schema,
                    if_not_exists,
                    columnar,
                ))?;
                self.create_table_unlogged(name, schema, temp, if_not_exists, columnar)
            }
            Some(_) => self.create_table_unlogged(name, schema, temp, if_not_exists, columnar),
            None => {
                drop(wal);
                self.create_table_unlogged(name, schema, temp, if_not_exists, columnar)
            }
        }
    }

    fn create_table_unlogged(
        &self,
        name: &str,
        schema: Schema,
        temp: bool,
        if_not_exists: bool,
        columnar: bool,
    ) -> Result<(), DbError> {
        let _commit = self.begin_commit();
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            if if_not_exists {
                return Ok(());
            }
            return Err(DbError::TableExists(name.to_string()));
        }
        let table = if columnar {
            Table::new_columnar(schema)
        } else {
            Table::new(schema)
        };
        tables.insert(name.to_string(), Arc::new(RwLock::new(Arc::new(table))));
        if temp {
            self.temps.lock().insert(name.to_string());
        }
        Ok(())
    }

    /// Drop a table. Dropping a TEMP or nonexistent table is never logged:
    /// neither has any durable effect. The no-op check runs under the log
    /// mutex, so a table created concurrently cannot slip in between the
    /// skip decision and the apply.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        let mut wal = self.wal.lock();
        let Some(w) = wal.as_mut() else {
            drop(wal);
            return self.drop_table_unlogged(name, if_exists);
        };
        if !self.is_temp(name) && self.has_table(name) {
            w.append(&format!(
                "DROP TABLE {}{name}",
                if if_exists { "IF EXISTS " } else { "" }
            ))?;
        }
        self.drop_table_unlogged(name, if_exists)
    }

    fn drop_table_unlogged(&self, name: &str, if_exists: bool) -> Result<(), DbError> {
        let _commit = self.begin_commit();
        let removed = self.tables.write().remove(name).is_some();
        self.temps.lock().remove(name);
        if !removed && !if_exists {
            return Err(DbError::NoSuchTable(name.to_string()));
        }
        Ok(())
    }

    /// Does `name` exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Shared handle to a table's catalog slot. The slot holds the table's
    /// current *version*; prefer [`Engine::pin_table`] for reads (it
    /// releases the slot lock immediately) and go through the engine's
    /// statement entry points for writes.
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Arc<Table>>>, DbError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Pin the current version of one table: a single `Arc` clone under
    /// the slot's read lock, which is dropped before returning. The caller
    /// scans the pinned version lock-free; concurrent writers proceed via
    /// copy-on-write and are never blocked by the pin.
    pub fn pin_table(&self, name: &str) -> Result<Arc<Table>, DbError> {
        Ok(self.table(name)?.read().clone())
    }

    /// The current commit epoch. Bumped once per applied mutation; two
    /// reads returning the same epoch observed the same data.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pin a transaction-consistent [`Snapshot`] of the whole catalog:
    /// every table's current version plus the commit epoch, taken while
    /// holding the commit gate shared — so the snapshot can never observe
    /// statement N+1's effect without statement N's. Acquisition waits at
    /// most for the one in-flight statement; scans against the snapshot
    /// hold no engine lock at all.
    pub fn snapshot(&self) -> Snapshot {
        let _gate = self.commit.read();
        let tables = self.tables.read();
        let pinned: HashMap<String, Arc<Table>> = tables
            .iter()
            .map(|(name, slot)| (name.clone(), slot.read().clone()))
            .collect();
        obs::incr(obs::Counter::MvccSnapshotsPinned);
        Snapshot::new(self.epoch.load(Ordering::Acquire), pinned)
    }

    /// Exclusive commit-gate guard; the epoch bumps when it drops.
    fn begin_commit(&self) -> CommitGuard<'_> {
        CommitGuard {
            engine: self,
            _gate: self.commit.write(),
        }
    }

    /// Open an explicit multi-statement write transaction. Statements
    /// executed through the returned [`Transaction`] buffer their effects
    /// against the versions pinned at this call (read-your-own-writes via
    /// [`Transaction::query`]); nothing is visible to other readers, the
    /// WAL, or replicas until [`Transaction::commit`] — which swaps every
    /// touched table under one commit-gate hold with a single epoch tick.
    /// Dropping the transaction without committing rolls it back.
    pub fn begin_txn(self: &Arc<Self>) -> Transaction {
        Transaction::begin(Arc::clone(self))
    }

    /// The commit half of the transaction protocol (the public surface is
    /// [`Transaction::commit`]). Under the WAL mutex and an exclusive
    /// commit-gate hold: run the first-writer-wins conflict check against
    /// the base snapshot's pinned versions, append the buffered statements
    /// to the log as one marker-framed group (one sync-policy application
    /// — the group-commit amortization), swap every touched catalog slot,
    /// and tick the epoch once. A conflict abort leaves the epoch — and
    /// the catalog — untouched.
    pub(crate) fn commit_txn(
        &self,
        base: &Snapshot,
        work: &HashMap<String, Option<Arc<Table>>>,
        log: &[String],
    ) -> Result<(), DbError> {
        if work.is_empty() && log.is_empty() {
            obs::incr(obs::Counter::TxnCommits);
            return Ok(());
        }
        // Lock order: wal → commit → tables (the engine-wide order).
        let mut wal = self.wal.lock();
        // The gate is held manually, not via CommitGuard: a conflict abort
        // must not bump the epoch (nothing changed).
        let gate = self.commit.write();
        {
            let tables = self.tables.read();
            for name in work.keys() {
                let live = tables.get(name);
                let pinned = base.table_version(name);
                let clean = match (live, pinned) {
                    // First-writer-wins: the live slot must still hold the
                    // exact version this transaction built on.
                    (Some(slot), Some(b)) => Arc::ptr_eq(&slot.read(), b),
                    // Created inside the transaction: nobody else may have
                    // created it concurrently.
                    (None, None) => true,
                    (Some(_), None) => false,
                    // Base table dropped concurrently.
                    (None, Some(_)) => false,
                };
                if !clean {
                    obs::incr(obs::Counter::TxnConflicts);
                    return Err(DbError::TxnConflict(format!(
                        "table {name} was modified concurrently"
                    )));
                }
            }
        }
        if let Some(w) = wal.as_mut() {
            match log.len() {
                0 => {}
                // A single durable statement needs no framing: it is
                // atomic on its own, exactly like an autocommit append.
                1 => {
                    w.append(&log[0])?;
                }
                _ => {
                    let mut framed = Vec::with_capacity(log.len() + 2);
                    framed.push(crate::wal::TXN_BEGIN_MARKER.to_string());
                    framed.extend_from_slice(log);
                    framed.push(crate::wal::TXN_COMMIT_MARKER.to_string());
                    w.append_batch(&framed)?;
                }
            }
        }
        {
            let mut tables = self.tables.write();
            for (name, version) in work {
                match version {
                    Some(v) => match tables.get(name) {
                        Some(slot) => *slot.write() = Arc::clone(v),
                        None => {
                            tables.insert(name.clone(), Arc::new(RwLock::new(Arc::clone(v))));
                        }
                    },
                    None => {
                        tables.remove(name);
                    }
                }
            }
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
        obs::set(obs::Counter::MvccEpoch, epoch);
        obs::incr(obs::Counter::TxnCommits);
        drop(gate);
        Ok(())
    }

    /// Insert rows programmatically. The whole batch is validated against
    /// the table's schema *before* it is logged: a bad row anywhere means
    /// zero effects ([`Table::insert_all`] is all-or-nothing), so the WAL
    /// must not carry a frame for it — the frame would be durable noise
    /// that every recovery replays and fails.
    pub fn insert_rows(&self, name: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        let _stmt = classified(obs::StmtClass::Insert);
        let rows = self.pin_table(name)?.validate_rows(rows)?;
        let mut wal = self.wal.lock();
        let Some(w) = wal.as_mut() else {
            drop(wal);
            return self.insert_rows_unlogged(name, rows);
        };
        if !rows.is_empty() && !self.is_temp(name) {
            w.append(&dump::render_insert(name, &rows))?;
        }
        self.insert_rows_unlogged(name, rows)
    }

    fn insert_rows_unlogged(&self, name: &str, rows: Vec<Row>) -> Result<usize, DbError> {
        let _commit = self.begin_commit();
        let t = self.table(name)?;
        let mut slot = t.write();
        let n = cow(&mut slot).insert_all(rows)?;
        Ok(n)
    }

    /// Is `name` a TEMP table?
    pub(crate) fn is_temp(&self, name: &str) -> bool {
        self.temps.lock().contains(name)
    }

    /// Snapshot a table's schema and rows (materialised from the pinned
    /// current version; no lock is held during the copy).
    pub fn read_snapshot(&self, name: &str) -> Result<(Schema, Vec<Row>), DbError> {
        let t = self.pin_table(name)?;
        Ok((t.schema.clone(), t.rows().to_vec()))
    }

    /// Row count of a table.
    pub fn row_count(&self, name: &str) -> Result<usize, DbError> {
        Ok(self.table(name)?.read().len())
    }

    /// All table names (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of TEMP tables (sorted).
    pub fn temp_table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.temps.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Per-table memory accounting in *natural* table-name order: embedded
    /// digit runs compare numerically, so `pb_rundata_2` lists before
    /// `pb_rundata_10` no matter how many runs exist. The ordering is
    /// fully deterministic — `perfbase stats --db` output is stable for
    /// goldens and docs capture. Each entry carries both the actual layout
    /// cost and the estimated cost of the other layout (see
    /// [`TableMemory`]).
    pub fn memory_report(&self) -> Vec<(String, TableMemory)> {
        let handles: Vec<(String, Arc<RwLock<Arc<Table>>>)> = {
            let tables = self.tables.read();
            let mut v: Vec<_> = tables
                .iter()
                .map(|(n, t)| (n.clone(), Arc::clone(t)))
                .collect();
            v.sort_by(|a, b| natural_cmp(&a.0, &b.0));
            v
        };
        handles
            .into_iter()
            .map(|(name, h)| {
                let m = h.read().memory_footprint();
                (name, m)
            })
            .collect()
    }

    /// Recompute the `mem.*` gauges from the current catalog: total row
    /// and columnar layout bytes, dictionary size and the number of
    /// columnar tables. Returns the report used.
    pub fn refresh_memory_gauges(&self) -> Vec<(String, TableMemory)> {
        let report = self.memory_report();
        let mut row_bytes = 0u64;
        let mut col_bytes = 0u64;
        let mut dict_bytes = 0u64;
        let mut dict_entries = 0u64;
        let mut columnar_tables = 0u64;
        for (_, m) in &report {
            row_bytes += m.row_layout_bytes as u64;
            col_bytes += m.columnar_layout_bytes as u64;
            dict_bytes += m.dict_bytes as u64;
            dict_entries += m.dict_entries as u64;
            columnar_tables += u64::from(m.columnar);
        }
        obs::set(obs::Counter::MemRowBytes, row_bytes);
        obs::set(obs::Counter::MemColumnarBytes, col_bytes);
        obs::set(obs::Counter::MemDictBytes, dict_bytes);
        obs::set(obs::Counter::MemDictEntries, dict_entries);
        obs::set(obs::Counter::MemColumnarTables, columnar_tables);
        report
    }

    /// Drop every TEMP table — perfbase does this at the end of a query.
    pub fn drop_temp_tables(&self) {
        let names = self.temp_table_names();
        let _commit = self.begin_commit();
        let mut tables = self.tables.write();
        for n in &names {
            tables.remove(n);
        }
        self.temps.lock().clear();
    }

    /// Execute a non-SELECT statement; returns the number of affected rows
    /// (0 for DDL). With a WAL attached, mutating statements on non-TEMP
    /// tables are logged (raw SQL text) before they are applied. The
    /// log-or-skip predicates are evaluated — and the statement applied —
    /// while holding the log mutex, so the decision cannot be invalidated
    /// by a concurrent writer (a DROP observed as a no-op could otherwise
    /// go unlogged yet succeed against a table created in between, and
    /// recovery would diverge). A failed apply is harmless: the logged
    /// statement fails identically on recovery.
    pub fn execute(&self, sql_text: &str) -> Result<usize, DbError> {
        let parse_started = Instant::now();
        let stmt = sql::parse_statement(sql_text)?;
        obs::incr(obs::Counter::StmtParsed);
        obs::record_duration(obs::Hist::ParseNs, parse_started.elapsed());
        let class = stmt_class(&stmt);
        let _class_scope = obs::class_scope(class);
        let mut span = obs::span("statement");
        span.annotate(|| format!("class={}", class.name()));
        let exec_started = Instant::now();
        let result = self.execute_parsed_logged(sql_text, stmt);
        obs::record_statement(class, exec_started.elapsed().as_nanos() as u64);
        obs::record_duration(obs::Hist::ExecNs, exec_started.elapsed());
        obs::incr(obs::Counter::StmtExecuted);
        result
    }

    /// The WAL-gated half of [`Engine::execute`]: log the statement if it
    /// must be durable, then apply it.
    fn execute_parsed_logged(&self, sql_text: &str, stmt: Stmt) -> Result<usize, DbError> {
        let mut wal = self.wal.lock();
        let Some(w) = wal.as_mut() else {
            drop(wal);
            return self.run_parsed(stmt);
        };
        let durable = match &stmt {
            Stmt::Select(_) | Stmt::Explain { .. } => false,
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => false,
            Stmt::CreateTable { temp, .. } => !*temp,
            Stmt::DropTable { name, .. } => !self.is_temp(name) && self.has_table(name),
            Stmt::Insert { table, .. }
            | Stmt::Update { table, .. }
            | Stmt::Delete { table, .. } => !self.is_temp(table),
            Stmt::CreateIndex {
                table,
                column,
                ordered,
                ..
            } => !self.is_temp(table) && !self.index_creation_is_noop(table, column, *ordered),
        };
        if durable {
            w.append(sql_text)?;
        }
        self.run_parsed(stmt)
    }

    /// Execute an already-parsed non-SELECT statement. Never logs to the
    /// WAL — this is the replay/restore entry point (dump scripts and
    /// recovered frames must not be re-logged).
    pub(crate) fn run_parsed(&self, stmt: Stmt) -> Result<usize, DbError> {
        match stmt {
            Stmt::CreateTable {
                name,
                temp,
                if_not_exists,
                columns,
                columnar,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| Column {
                            name: c.name,
                            dtype: c.dtype,
                            nullable: c.nullable,
                        })
                        .collect(),
                )?;
                self.create_table_unlogged(&name, schema, temp, if_not_exists, columnar)?;
                Ok(0)
            }
            Stmt::DropTable { name, if_exists } => {
                self.drop_table_unlogged(&name, if_exists)?;
                Ok(0)
            }
            Stmt::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(&table, columns, rows),
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => self.run_update(&table, sets, where_clause),
            Stmt::Delete {
                table,
                where_clause,
            } => self.run_delete(&table, where_clause),
            Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
                ordered,
            } => match self.create_index_unlogged(&name, &table, &column, ordered) {
                Ok(()) => Ok(0),
                Err(DbError::Execution(_)) if if_not_exists => Ok(0),
                Err(e) => Err(e),
            },
            Stmt::Select(_) | Stmt::Explain { .. } => Err(DbError::Execution(
                "use query() for SELECT statements".into(),
            )),
            Stmt::Begin | Stmt::Commit | Stmt::Rollback => Err(DbError::Execution(
                "transaction control statements need a transaction context; \
                 use Engine::begin_txn (or a BEGIN/COMMIT-aware front end)"
                    .into(),
            )),
        }
    }

    /// Create a secondary hash index over `table.column`. A second index on
    /// an already-indexed column is a no-op.
    pub fn create_index(&self, name: &str, table: &str, column: &str) -> Result<(), DbError> {
        self.create_index_opts(name, table, column, false)
    }

    /// Create a secondary index over `table.column`; `ordered` selects the
    /// sorted variant that additionally serves `IN` and range probes. An
    /// ordered request over an existing hash index upgrades it in place.
    pub fn create_index_opts(
        &self,
        name: &str,
        table: &str,
        column: &str,
        ordered: bool,
    ) -> Result<(), DbError> {
        let _stmt = classified(obs::StmtClass::Ddl);
        let mut wal = self.wal.lock();
        let Some(w) = wal.as_mut() else {
            drop(wal);
            return self.create_index_unlogged(name, table, column, ordered);
        };
        if !self.is_temp(table) && !self.index_creation_is_noop(table, column, ordered) {
            // Logged with IF NOT EXISTS so a recovery replay over a
            // checkpoint that already materialized the index stays a no-op.
            w.append(&format!(
                "CREATE {}INDEX IF NOT EXISTS {name} ON {table} ({column})",
                if ordered { "ORDERED " } else { "" }
            ))?;
        }
        self.create_index_unlogged(name, table, column, ordered)
    }

    fn create_index_unlogged(
        &self,
        name: &str,
        table: &str,
        column: &str,
        ordered: bool,
    ) -> Result<(), DbError> {
        let _commit = self.begin_commit();
        let t = self.table(table)?;
        let mut slot = t.write();
        cow(&mut slot).create_index(name, column, ordered)
    }

    /// Would `CREATE [ORDERED] INDEX … ON table (column)` change nothing?
    /// True when the column is already covered by an index of sufficient
    /// capability (an ordered request over a hash index is *not* a no-op —
    /// it upgrades the index). Such statements are skipped by the
    /// write-ahead log, so re-ensuring indexes on every open (as the
    /// experiment layer does) never dirties a compacted log.
    fn index_creation_is_noop(&self, table: &str, column: &str, ordered: bool) -> bool {
        let Ok(t) = self.table(table) else {
            return false;
        };
        let guard = t.read();
        match guard.schema.index_of(column) {
            Some(ci) => {
                if ordered {
                    guard.has_ordered_index_on(ci)
                } else {
                    guard.has_index_on(ci)
                }
            }
            None => false,
        }
    }

    /// Run a SELECT (or `EXPLAIN [ANALYZE] SELECT`) and return its rows.
    pub fn query(&self, sql_text: &str) -> Result<ResultSet, DbError> {
        run_query(exec::Catalog::Live(self), sql_text)
    }

    /// Run a SELECT (or `EXPLAIN [ANALYZE] SELECT`) against a pinned
    /// [`Snapshot`] instead of the live catalog: every table resolves to
    /// the version the snapshot pinned, so repeated queries against the
    /// same snapshot return identical results no matter how many writers
    /// commit in between — and hold no engine lock while they run.
    pub fn query_at(&self, snapshot: &Snapshot, sql_text: &str) -> Result<ResultSet, DbError> {
        run_query(exec::Catalog::At(snapshot), sql_text)
    }

    /// [`Engine::query_reference`] at a pinned [`Snapshot`]: the oracle for
    /// the snapshot-isolation equivalence tests (optimized and reference
    /// execution of the same statement at the same epoch must agree).
    pub fn query_reference_at(
        &self,
        snapshot: &Snapshot,
        sql_text: &str,
    ) -> Result<ResultSet, DbError> {
        run_query_reference(exec::Catalog::At(snapshot), sql_text)
    }

    /// Run a SELECT through the unoptimized reference executor: full table
    /// snapshots, interpreted expression evaluation and nested-loop joins.
    /// Exists as the oracle for the equivalence tests and as the baseline
    /// for the `microbench` binary — not for production use.
    pub fn query_reference(&self, sql_text: &str) -> Result<ResultSet, DbError> {
        run_query_reference(exec::Catalog::Live(self), sql_text)
    }

    // ---- durability (write-ahead log) ------------------------------------

    /// Attach a write-ahead log; returns any previously attached log.
    /// Every subsequent mutating statement on a non-TEMP table is appended
    /// to the log before it is applied.
    pub fn attach_wal(&self, wal: Wal) -> Option<Wal> {
        self.wal.lock().replace(wal)
    }

    /// Detach and return the write-ahead log, if any (pending frames are
    /// synced first on a best-effort basis).
    pub fn detach_wal(&self) -> Option<Wal> {
        let mut wal = self.wal.lock().take();
        if let Some(w) = wal.as_mut() {
            let _ = w.sync();
        }
        wal
    }

    /// Is a write-ahead log attached?
    pub fn has_wal(&self) -> bool {
        self.wal.lock().is_some()
    }

    /// Force every logged frame to stable storage (closes the group-commit
    /// window). No-op without a WAL.
    pub fn wal_sync(&self) -> Result<(), DbError> {
        match self.wal.lock().as_mut() {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Frames currently in the attached log segment (0 without a WAL).
    pub fn wal_frames(&self) -> u64 {
        self.wal.lock().as_ref().map_or(0, |w| w.frames())
    }

    /// Install (or clear) a [`crate::wal::FrameTap`] on the attached log — the hook
    /// replication uses to ship committed frames. Returns `false` (and
    /// does nothing) when no WAL is attached.
    pub fn wal_set_tap(&self, tap: Option<Arc<dyn crate::wal::FrameTap>>) -> bool {
        match self.wal.lock().as_mut() {
            Some(w) => {
                w.set_tap(tap);
                true
            }
            None => false,
        }
    }

    /// The attached log's fault-injection hook, if a WAL is attached.
    pub fn wal_failpoint(&self) -> Option<Arc<crate::wal::IoFailpoint>> {
        self.wal.lock().as_ref().map(|w| w.failpoint().clone())
    }

    /// Checkpoint: atomically write the SQL dump to `dump_path`, then
    /// compact the log (every logged frame is now reflected in the dump).
    /// The log mutex is held throughout, so no statement can slip between
    /// the dump and the compaction. Returns the number of frames dropped.
    ///
    /// The dump is stamped with the log's next sequence number, which is
    /// what makes the rename→compact window crash-safe: if the process
    /// dies after the new dump is in place but before the log is
    /// compacted, both files hold every frame — recovery reads the stamp
    /// and skips the frames the dump already reflects instead of
    /// double-applying them.
    pub fn checkpoint(&self, dump_path: &Path) -> Result<u64, DbError> {
        let mut wal = self.wal.lock();
        match wal.as_mut() {
            Some(w) => {
                // Every frame the stamp covers must be durable before the
                // dump claiming to supersede them is published.
                w.sync()?;
                let ckpt_seq = w.next_seq();
                self.save_to_file_with_seq(dump_path, Some(ckpt_seq))
                    .map_err(|e| DbError::Io(format!("checkpoint {}: {e}", dump_path.display())))?;
                w.compact()
            }
            None => {
                self.save_to_file(dump_path)
                    .map_err(|e| DbError::Io(format!("checkpoint {}: {e}", dump_path.display())))?;
                Ok(0)
            }
        }
    }

    /// Replay recovered WAL statements without re-logging them; returns
    /// how many failed (they failed identically in the original run).
    pub(crate) fn replay_unlogged(&self, statements: &[String]) -> u64 {
        let mut errors = 0;
        for text in statements {
            if sql::parse_statement(text)
                .and_then(|s| self.run_parsed(s))
                .is_err()
            {
                errors += 1;
            }
        }
        errors
    }

    /// Replay recovered WAL statements on top of a checkpoint dump that
    /// recorded checkpoint sequence `ckpt_seq`: frames below it are
    /// already reflected in the dump and are skipped, the rest replay
    /// unlogged. Updates `report` with the skip/replay/error split.
    pub(crate) fn recover_replay(
        &self,
        statements: &[String],
        ckpt_seq: u64,
        report: &mut RecoveryReport,
    ) {
        let skip = ckpt_seq
            .saturating_sub(report.start_seq)
            .min(statements.len() as u64) as usize;
        report.frames_skipped = skip as u64;
        // Transaction framing is filtered *after* the checkpoint skip: a
        // checkpoint holds the WAL mutex across dump + compact, and commits
        // append a transaction's frames under one WAL hold, so a checkpoint
        // boundary can never land inside a marker pair.
        let (to_apply, discarded) = crate::wal::filter_txn_frames(&statements[skip..]);
        report.txn_frames_discarded = discarded;
        report.frames_replayed = to_apply.len() as u64;
        report.replay_errors = self.replay_unlogged(&to_apply);
    }

    /// Open a database durably: load the last checkpoint dump from
    /// `dump_path` (if present), replay every valid WAL frame from
    /// `wal_path` (creating the log when missing, truncating any torn
    /// tail), and attach the log for further writes. Frames the dump's
    /// recorded checkpoint sequence already covers are skipped, not
    /// replayed — see [`Engine::checkpoint`]. Statements that fail on
    /// replay are counted, not fatal — they failed identically in the
    /// original run, so the recovered state still matches.
    pub fn open_durable(
        dump_path: &Path,
        wal_path: &Path,
        opts: WalOptions,
    ) -> Result<(Engine, RecoveryReport), DbError> {
        let (engine, ckpt_seq) = if dump_path.exists() {
            let script = std::fs::read_to_string(dump_path).map_err(|e| {
                DbError::Execution(format!("cannot read {}: {e}", dump_path.display()))
            })?;
            let seq = dump::read_checkpoint_seq(&script).unwrap_or(0);
            (Engine::from_sql_dump(&script)?, seq)
        } else {
            (Engine::new(), 0)
        };
        let (wal, statements, mut report) = Wal::open_recover(wal_path, opts)?;
        engine.recover_replay(&statements, ckpt_seq, &mut report);
        engine.attach_wal(wal);
        Ok((engine, report))
    }

    fn run_insert(
        &self,
        table: &str,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<sql::SqlExpr>>,
    ) -> Result<usize, DbError> {
        let _commit = self.begin_commit();
        let t = self.table(table)?;
        let mut slot = t.write();
        apply_insert(cow(&mut slot), columns, rows)
    }

    fn run_update(
        &self,
        table: &str,
        sets: Vec<(String, sql::SqlExpr)>,
        where_clause: Option<sql::SqlExpr>,
    ) -> Result<usize, DbError> {
        let _commit = self.begin_commit();
        let t = self.table(table)?;
        let mut slot = t.write();
        apply_update(cow(&mut slot), sets, where_clause)
    }

    fn run_delete(
        &self,
        table: &str,
        where_clause: Option<sql::SqlExpr>,
    ) -> Result<usize, DbError> {
        let _commit = self.begin_commit();
        let t = self.table(table)?;
        let mut slot = t.write();
        apply_delete(cow(&mut slot), where_clause)
    }
}

/// Apply an INSERT to one table version — shared by the live statement
/// path (through [`cow`]) and the transaction workspace, so both produce
/// byte-identical effects.
pub(crate) fn apply_insert(
    guard: &mut Table,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<sql::SqlExpr>>,
) -> Result<usize, DbError> {
    let schema = guard.schema.clone();
    let empty_schema = Schema::default();
    let empty_row: Vec<Value> = Vec::new();
    let const_ctx = RowCtx {
        schema: &empty_schema,
        row: &empty_row,
    };

    // Materialize every row before applying any: a multi-row INSERT is
    // atomic, so a bad row mid-batch leaves no partial state (and the
    // statement diverges from nothing on WAL replay).
    let mut full_rows = Vec::with_capacity(rows.len());
    for row_exprs in rows {
        let values: Result<Vec<Value>, DbError> = row_exprs
            .iter()
            .map(|e| expr::eval(e, &const_ctx))
            .collect();
        let values = values?;
        let full_row = match &columns {
            None => values,
            Some(cols) => {
                if cols.len() != values.len() {
                    return Err(DbError::Type(format!(
                        "INSERT column list has {} names but {} values",
                        cols.len(),
                        values.len()
                    )));
                }
                let mut full = vec![Value::Null; schema.arity()];
                for (c, v) in cols.iter().zip(values) {
                    let i = schema
                        .index_of(c)
                        .ok_or_else(|| DbError::NoSuchColumn(c.clone()))?;
                    full[i] = v;
                }
                full
            }
        };
        full_rows.push(full_row);
    }
    guard.insert_all(full_rows)
}

/// Apply an UPDATE to one table version; see [`apply_insert`].
pub(crate) fn apply_update(
    guard: &mut Table,
    sets: Vec<(String, sql::SqlExpr)>,
    where_clause: Option<sql::SqlExpr>,
) -> Result<usize, DbError> {
    let schema = guard.schema.clone();
    // Resolve target columns up front.
    let mut targets = Vec::with_capacity(sets.len());
    for (name, e) in &sets {
        let i = schema
            .index_of(name)
            .ok_or_else(|| DbError::NoSuchColumn(name.clone()))?;
        targets.push((i, e));
    }
    let mut err: Option<DbError> = None;
    let n = guard.update_where(|row| {
        if err.is_some() {
            return false;
        }
        let ctx = RowCtx {
            schema: &schema,
            row,
        };
        let hit = match &where_clause {
            None => true,
            Some(w) => match expr::eval(w, &ctx) {
                Ok(v) => expr::truthy(&v),
                Err(e) => {
                    err = Some(e);
                    return false;
                }
            },
        };
        if !hit {
            return false;
        }
        // Evaluate all RHS against the pre-update row, then assign.
        let mut new_vals = Vec::with_capacity(targets.len());
        for (i, e) in &targets {
            match expr::eval(
                e,
                &RowCtx {
                    schema: &schema,
                    row,
                },
            ) {
                Ok(v) => match v.coerce(schema.columns[*i].dtype) {
                    Ok(cv) => new_vals.push((*i, cv)),
                    Err(m) => {
                        err = Some(DbError::Type(m));
                        return false;
                    }
                },
                Err(e) => {
                    err = Some(e);
                    return false;
                }
            }
        }
        for (i, v) in new_vals {
            row[i] = v;
        }
        true
    });
    match err {
        Some(e) => Err(e),
        None => Ok(n),
    }
}

/// Apply a DELETE to one table version; see [`apply_insert`].
pub(crate) fn apply_delete(
    guard: &mut Table,
    where_clause: Option<sql::SqlExpr>,
) -> Result<usize, DbError> {
    let schema = guard.schema.clone();
    let mut err: Option<DbError> = None;
    let n = guard.delete_where(|row| {
        if err.is_some() {
            return false;
        }
        match &where_clause {
            None => true,
            Some(w) => match expr::eval(
                w,
                &RowCtx {
                    schema: &schema,
                    row,
                },
            ) {
                Ok(v) => expr::truthy(&v),
                Err(e) => {
                    err = Some(e);
                    false
                }
            },
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn programmatic_api_roundtrip() {
        let db = Engine::new();
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Float),
        ])
        .unwrap();
        db.create_table("t", schema).unwrap();
        db.insert_rows("t", vec![vec![Value::Int(1), Value::Float(2.0)]])
            .unwrap();
        let (schema, rows) = db.read_snapshot("t").unwrap();
        assert_eq!(schema.arity(), 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(db.row_count("t").unwrap(), 1);
    }

    #[test]
    fn pinned_reads_emit_the_query_span() {
        let db = Engine::new();
        db.execute("CREATE TABLE span_pinned (a INTEGER)").unwrap();
        let snap = db.snapshot();
        let collector = obs::TraceCollector::new();
        obs::set_sink(Some(collector.clone()));
        let rs = db.query_at(&snap, "SELECT count(*) FROM span_pinned");
        obs::set_sink(None);
        rs.unwrap();
        let spans: Vec<String> = collector
            .records()
            .into_iter()
            .filter(|r| r.name == "query" && r.detail.ends_with("from=span_pinned"))
            .map(|r| r.detail)
            .collect();
        assert_eq!(spans, ["class=select from=span_pinned"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE t (a INTEGER)"),
            Err(DbError::TableExists(_))
        ));
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
            .unwrap();
    }

    #[test]
    fn drop_semantics() {
        let db = Engine::new();
        assert!(db.execute("DROP TABLE nope").is_err());
        db.execute("DROP TABLE IF EXISTS nope").unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let rs = db.query("SELECT a, b, c FROM t").unwrap();
        assert_eq!(
            rs.rows()[0],
            vec![Value::Int(7), Value::Null, Value::Float(1.5)]
        );
    }

    #[test]
    fn insert_rejects_unknown_column() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(matches!(
            db.execute("INSERT INTO t (zzz) VALUES (1)"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn update_uses_pre_update_values() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.execute("UPDATE t SET a = b, b = a").unwrap();
        let rs = db.query("SELECT a, b FROM t").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn query_rejects_non_select_and_vice_versa() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(db.query("INSERT INTO t VALUES (1)").is_err());
        assert!(db.execute("SELECT a FROM t").is_err());
    }

    #[test]
    fn resultset_accessors() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let rs = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.get(1, "b"), Some(&Value::Text("y".into())));
        assert_eq!(rs.column("a").unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert!(rs.get(5, "b").is_none());
        assert!(rs.column("zzz").is_none());
    }

    #[test]
    fn wal_logs_and_recovers_all_mutation_paths() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("all_paths.sql");
        let wal = dir.join("all_paths.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.frames_replayed, 0);
        // SQL-text path.
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
            .unwrap();
        db.execute("UPDATE t SET b = 'q' WHERE a = 2").unwrap();
        db.execute("DELETE FROM t WHERE a = 3").unwrap();
        db.execute("CREATE INDEX ix_t_a ON t (a)").unwrap();
        // Programmatic path.
        let schema = Schema::new(vec![Column::not_null("id", crate::DataType::Int)]).unwrap();
        db.create_table("p", schema).unwrap();
        db.insert_rows("p", vec![vec![Value::Int(9)], vec![Value::Int(10)]])
            .unwrap();
        db.create_index("ix_p_id", "p", "id").unwrap();
        db.drop_table("p", false).unwrap();
        // TEMP tables are never logged.
        db.execute("CREATE TEMP TABLE scratch (x INTEGER)").unwrap();
        db.execute("INSERT INTO scratch VALUES (1)").unwrap();
        let frames = db.wal_frames();
        db.wal_sync().unwrap();
        let expected = db.query("SELECT a, b FROM t ORDER BY a").unwrap();
        drop(db);

        // No checkpoint ever happened: the whole state comes from the log.
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.frames_replayed, frames);
        assert_eq!(report.replay_errors, 0);
        assert_eq!(
            db2.query("SELECT a, b FROM t ORDER BY a").unwrap(),
            expected
        );
        assert!(!db2.has_table("p"), "dropped table must stay dropped");
        assert!(!db2.has_table("scratch"), "temp tables are not durable");
        assert!(db2
            .table("t")
            .unwrap()
            .read()
            .index_columns()
            .iter()
            .any(|(n, _, _)| n == "ix_t_a"));
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_dump_plus_tail() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("ckpt.sql");
        let wal = dir.join("ckpt.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let dropped = db.checkpoint(&dump).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(db.wal_frames(), 0);
        // Post-checkpoint writes land in the compacted log.
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        db.wal_sync().unwrap();
        drop(db);

        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(
            report.frames_replayed, 1,
            "only the post-checkpoint tail replays"
        );
        let rs = db2.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn failed_statements_replay_identically() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("failrep.sql");
        let wal = dir.join("failrep.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // Log-before-apply: this statement is logged, then fails to apply.
        assert!(db.execute("INSERT INTO t VALUES (NULL)").is_err());
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.wal_sync().unwrap();
        let expected = db.query("SELECT a FROM t ORDER BY a").unwrap();
        drop(db);

        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(
            report.replay_errors, 1,
            "the failed INSERT fails again on replay"
        );
        assert_eq!(db2.query("SELECT a FROM t ORDER BY a").unwrap(), expected);
    }

    #[test]
    fn rejected_insert_batch_leaves_no_wal_frame() {
        use crate::wal::SyncPolicy;
        let dir = std::env::temp_dir().join("perfbase_engine_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("batchval.sql");
        let wal = dir.join("batchval.wal");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&wal).ok();

        let (db, _) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)").unwrap();
        let before = db.wal_frames();
        // Bad row mid-batch: the programmatic path validates the whole
        // batch before logging, so nothing lands in the table *or* the log
        // (unlike the SQL text path, which logs-before-apply).
        let err = db.insert_rows(
            "t",
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        assert!(err.is_err());
        assert_eq!(db.row_count("t").unwrap(), 0);
        assert_eq!(db.wal_frames(), before, "rejected batch logged a frame");
        // A good batch logs exactly one frame for the whole batch.
        db.insert_rows("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert_eq!(db.wal_frames(), before + 1);
        db.wal_sync().unwrap();
        drop(db);
        let (db2, report) =
            Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(db2.row_count("t").unwrap(), 2);
    }

    #[test]
    fn natural_cmp_orders_digit_runs_numerically() {
        use std::cmp::Ordering;
        assert_eq!(natural_cmp("pb_rundata_2", "pb_rundata_10"), Ordering::Less);
        assert_eq!(
            natural_cmp("pb_rundata_10", "pb_rundata_2"),
            Ordering::Greater
        );
        assert_eq!(natural_cmp("a2b", "a2b"), Ordering::Equal);
        // Equal numeric value: fewer leading zeros sorts first.
        assert_eq!(natural_cmp("t007", "t7"), Ordering::Greater);
        assert_eq!(natural_cmp("t7", "t007"), Ordering::Less);
        // Digits before the run differs.
        assert_eq!(natural_cmp("run9x", "run10a"), Ordering::Less);
        // Pure text falls back to byte order.
        assert_eq!(natural_cmp("alpha", "beta"), Ordering::Less);
        // Prefix relationships.
        assert_eq!(natural_cmp("t1", "t1x"), Ordering::Less);

        let mut names = vec!["t10", "t2", "t1", "plain", "t02"];
        names.sort_by(|a, b| natural_cmp(a, b));
        assert_eq!(names, vec!["plain", "t1", "t2", "t02", "t10"]);
    }

    #[test]
    fn memory_report_is_naturally_ordered_and_deterministic() {
        let db = Engine::new();
        for name in ["pb_rundata_10", "pb_rundata_2", "pb_rundata_1", "alpha"] {
            db.execute(&format!("CREATE TABLE {name} (a INTEGER)"))
                .unwrap();
        }
        let order: Vec<String> = db.memory_report().into_iter().map(|e| e.0).collect();
        assert_eq!(
            order,
            vec!["alpha", "pb_rundata_1", "pb_rundata_2", "pb_rundata_10"]
        );
        // Stable across calls.
        let again: Vec<String> = db.memory_report().into_iter().map(|e| e.0).collect();
        assert_eq!(order, again);
    }

    #[test]
    fn writer_copies_on_write_only_while_pinned() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();

        // Unpinned: the writer mutates the sole version in place.
        let before = db.pin_table("t").unwrap();
        drop(before);
        db.execute("INSERT INTO t VALUES (2)").unwrap();

        // Pinned: the writer must clone; the pin keeps the old version.
        let pinned = db.pin_table("t").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(pinned.len(), 2, "pinned version is frozen");
        assert_eq!(db.row_count("t").unwrap(), 3, "live table moved on");
        // The live slot now holds a different allocation.
        let live = db.pin_table("t").unwrap();
        assert!(!std::sync::Arc::ptr_eq(&pinned, &live));
    }

    #[test]
    fn epoch_advances_once_per_mutation() {
        let db = Engine::new();
        let e0 = db.epoch();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("UPDATE t SET a = 2").unwrap();
        db.execute("DELETE FROM t WHERE a = 2").unwrap();
        assert_eq!(db.epoch(), e0 + 4);
        // Reads do not advance the epoch.
        db.query("SELECT * FROM t").unwrap();
        let _snap = db.snapshot();
        assert_eq!(db.epoch(), e0 + 4);
    }

    #[test]
    fn render_tsv_matches_wire_format() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, NULL, 2.0)")
            .unwrap();
        let rs = db.query("SELECT a, b, c FROM t ORDER BY a").unwrap();
        assert_eq!(rs.render_tsv(), "a\tb\tc\n1\tx\t1.5\n2\tNULL\t2.0\n");
    }

    #[test]
    fn concurrent_readers_do_not_block() {
        use std::thread;
        let db = std::sync::Arc::new(Engine::new());
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = db.clone();
            handles.push(thread::spawn(move || {
                let rs = db.query("SELECT count(*) FROM t").unwrap();
                assert_eq!(rs.rows()[0][0], Value::Int(100));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
