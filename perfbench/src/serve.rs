//! `serve_mixed`: an in-process `pbserver::Server` over a WAL-attached
//! engine, driven over two keep-alive connections.
//!
//! Set-up seeds two 100k-row tables, `runs` (row layout, indexed on
//! `run_index`) and `samples` (`USING COLUMNAR`), checkpoints, and starts
//! the server. Connection A only reads, half the time inside a pinned
//! `/session`; connection B reads, ingests 250-row batches and runs
//! `/begin`–2×`/ingest`–`/commit` transactions (one in four rolls back).
//! Together: about 60% `/query`, 35% `/ingest`, 5% transactions. All
//! writes come from B, so no transaction can conflict.
//!
//! The run measures latency open-loop at a fixed reference rate, every
//! operation timed from when it was due; shuts the server down, reopens
//! the database from dump + WAL and checks every acknowledged write; then
//! measures the saturated throughput of the same mix closed-loop.

use crate::import::wal_options;
use crate::trace::{self, Tracer};
use crate::util::{
    bytes_per_row, class_p50, median, ms, quantile, ratio, Counters, Gates, Report, Rng,
};
use crate::Args;
use obs::Counter;
use pbserver::{Server, ServerConfig};
use sqldb::{Engine, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed rows per table.
const SEED_ROWS: usize = 100_000;
/// Rows per ingest batch; every table count is a multiple of it.
const BATCH: usize = 250;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Reopens of the served database after shutdown (`open_s` is their median).
const REOPENS: usize = 7;
/// Fixed reference rate (operations/s over both connections) at which the
/// latency metrics are reported: about a tenth of the saturated
/// throughput measured when the benchmark was defined, so queueing stays
/// low while the host's speed drifts.
const REF_RATE: f64 = 30.0;
/// Share of the run spent at the reference rate; the saturated phase
/// takes the rest minus the reopen.
const REF_SHARE: f64 = 0.75;
const SATURATED_SHARE: f64 = 0.15;
/// The tail percentile the traced run reports (about 400 queries and 250
/// plain ingests at the reference rate in a 30 s run): p90, since the p95
/// of a few hundred samples moved with every stall of the shared host.
const TAIL: f64 = 0.90;
/// Requests per pinned (or unpinned) window on the reading connection.
const WINDOW: usize = 16;

const COLUMNS: &str =
    "run_index INTEGER, batch INTEGER, fs TEXT, mode TEXT, chunk INTEGER, mbps FLOAT";
const TSV_HEADER: &str = "run_index\tbatch\tfs\tmode\tchunk\tmbps\n";
const TABLES: [&str; 2] = ["runs", "samples"];
const FS: [&str; 4] = ["ufs", "nfs", "pvfs", "xfs"];
const MODES: [&str; 3] = ["write", "rewrite", "read"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Class {
    Point,
    GroupBy,
    Filter,
    /// A plain ingest. Under group commit a writer alternates between
    /// closing the window (paying the fsync) and riding on it, so the two
    /// kinds are classes apart: one pooled median would sit on the gap
    /// between them and jump from run to run.
    Ingest {
        synced: bool,
    },
    Txn,
}

/// One batch destined for one table.
struct Batch {
    table: usize,
    id: u64,
    rows: Vec<Vec<Value>>,
    tsv: String,
}

enum Kind {
    Query {
        class: Class,
        sql: String,
        pinned: bool,
    },
    Ingest(Batch),
    Txn {
        batches: [Batch; 2],
        commit: bool,
    },
}

struct Op {
    due: Duration,
    kind: Kind,
}

impl Op {
    /// The class of this operation; `synced` tells whether the WAL
    /// fsynced while it ran.
    fn class(&self, synced: bool) -> Class {
        match &self.kind {
            Kind::Query { class, .. } => *class,
            Kind::Ingest(_) => Class::Ingest { synced },
            Kind::Txn { .. } => Class::Txn,
        }
    }
}

/// The rows of batch `id` (run indexes above every seed row).
fn batch_rows(seed: u64, id: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(id));
    (0..BATCH)
        .map(|i| {
            vec![
                Value::Int((SEED_ROWS + id as usize * BATCH + i) as i64),
                Value::Int(id as i64),
                Value::Text(FS[rng.below(4) as usize].to_string()),
                Value::Text(MODES[rng.below(3) as usize].to_string()),
                Value::Int(1 << (10 + rng.below(12))),
                Value::Float((rng.below(1_000_000) as f64) / 1000.0),
            ]
        })
        .collect()
}

fn tsv(rows: &[Vec<Value>]) -> String {
    let mut s = String::from(TSV_HEADER);
    for r in rows {
        let cells: Vec<String> = r
            .iter()
            .map(|v| match v {
                Value::Int(i) => i.to_string(),
                Value::Float(f) => format!("{f:.3}"),
                Value::Text(t) => t.clone(),
                other => format!("{other:?}"),
            })
            .collect();
        s.push_str(&cells.join("\t"));
        s.push('\n');
    }
    s
}

fn make_batch(seed: u64, table: usize, id: u64) -> Batch {
    let rows = batch_rows(seed, id);
    let tsv = tsv(&rows);
    Batch {
        table,
        id,
        rows,
        tsv,
    }
}

fn query(rng: &mut Rng, pinned: bool) -> Kind {
    let (class, sql) = match rng.below(10) {
        0..=3 => (
            Class::Point,
            format!(
                "SELECT fs, mode, chunk, mbps FROM runs WHERE run_index = {}",
                rng.below(SEED_ROWS as u64)
            ),
        ),
        4..=6 => (
            Class::GroupBy,
            "SELECT fs, count(*), avg(mbps) FROM samples GROUP BY fs ORDER BY fs".to_string(),
        ),
        _ => (
            Class::Filter,
            "SELECT count(*) FROM samples WHERE mode IN ('write', 'rewrite', 'read')".to_string(),
        ),
    };
    Kind::Query { class, sql, pinned }
}

/// The two connections' schedules for one phase at `rate` requests/s:
/// A reads (pinned windows alternate with unpinned ones), B mixes reads,
/// ingests and transactions. Batch ids continue from `next_batch`.
fn schedule(seed: u64, phase: u64, rate: f64, secs: f64, next_batch: &mut u64) -> [Vec<Op>; 2] {
    let mut rng = Rng::new(seed ^ (phase << 32));
    let per_conn = rate / 2.0;
    let n = (per_conn * secs).round() as usize;
    let gap = Duration::from_secs_f64(1.0 / per_conn);
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    let mut txns = 0u64;
    for i in 0..n {
        let due = gap * i as u32;
        a.push(Op {
            due,
            kind: query(&mut rng, (i / WINDOW) % 2 == 1),
        });
        let kind = match rng.below(10) {
            0..=1 => query(&mut rng, false),
            2..=8 => {
                *next_batch += 1;
                Kind::Ingest(make_batch(seed, rng.below(2) as usize, *next_batch))
            }
            _ => {
                txns += 1;
                let first = *next_batch + 1;
                *next_batch += 2;
                Kind::Txn {
                    batches: [make_batch(seed, 0, first), make_batch(seed, 1, first + 1)],
                    commit: !txns.is_multiple_of(4),
                }
            }
        };
        // B runs half a gap behind A, so the connections interleave.
        b.push(Op {
            due: due + gap / 2,
            kind,
        });
    }
    [a, b]
}

// ---- the two ways of executing a schedule --------------------------------

/// One executed operation.
#[derive(Clone, Copy)]
struct Rec {
    class: Class,
    due: Duration,
    sent: Duration,
    done: Duration,
    ok: bool,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_sub(self.due))
    }
}

/// What one connection (or in-process thread) observed.
#[derive(Default)]
struct ConnResult {
    recs: Vec<Rec>,
    /// Batch ids acknowledged (committed), per table.
    acked: [Vec<u64>; 2],
    /// Batch ids rolled back, per table.
    rolled_back: [Vec<u64>; 2],
    violations: Vec<String>,
    rejected: u64,
    queue_depth_max: u64,
    sessions_max: u64,
}

struct Response {
    status: u16,
    body: String,
}

/// A minimal keep-alive HTTP/1.1 client.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn call(
        &mut self,
        target: &str,
        session: Option<u64>,
        body: &str,
    ) -> std::io::Result<Response> {
        let mut req = format!(
            "POST {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(id) = session {
            req.push_str(&format!("X-Session: {id}\r\n"));
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.writer.write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// Sum of the `count(*)` column (the second) of a TSV result: the table's
/// row count for both the GROUP BY and the IN-filter statement.
fn total_count(tsv_body: &str, class: Class) -> Option<i64> {
    let col = if class == Class::GroupBy { 1 } else { 0 };
    tsv_body
        .lines()
        .skip(1)
        .map(|l| l.split('\t').nth(col).and_then(|c| c.parse::<i64>().ok()))
        .sum()
}

/// Checks shared by both executors on every read: counts are multiples of
/// the batch size; inside a pinned window they repeat; outside, they
/// include every batch this connection already saw acknowledged.
struct ReadChecks {
    window_counts: BTreeMap<Class, i64>,
    own_acked_rows: [i64; 2],
}

impl ReadChecks {
    fn new() -> ReadChecks {
        ReadChecks {
            window_counts: BTreeMap::new(),
            own_acked_rows: [SEED_ROWS as i64; 2],
        }
    }

    fn check(&mut self, class: Class, pinned: bool, count: Option<i64>, out: &mut ConnResult) {
        if matches!(class, Class::Point) {
            return;
        }
        let Some(n) = count else {
            out.violations.push(format!("{class:?}: unreadable count"));
            return;
        };
        if n % BATCH as i64 != 0 {
            out.violations
                .push(format!("{class:?}: count {n} is not a multiple of {BATCH}"));
        }
        // Both counting statements read the columnar table.
        let table = 1;
        if pinned {
            let first = *self.window_counts.entry(class).or_insert(n);
            if first != n {
                out.violations.push(format!(
                    "{class:?}: pinned session read {n}, earlier {first} in the same session"
                ));
            }
        } else if n < self.own_acked_rows[table] {
            out.violations.push(format!(
                "{class:?}: read {n} rows, fewer than the {} acknowledged",
                self.own_acked_rows[table]
            ));
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Drive one connection's schedule over HTTP. Open loop: each operation
/// waits for its due time and is timed from it. Closed loop (`until` set):
/// each operation follows the previous reply at once, until `until`.
/// `tracer` records spans for every other operation (the rest are the
/// untraced baseline).
fn drive_http(
    addr: SocketAddr,
    ops: &[Op],
    start: Instant,
    until: Option<Instant>,
    conn_id: u64,
    mut tracer: Option<&mut Tracer>,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut checks = ReadChecks::new();
    let mut session: Option<u64> = None;
    for (i, op) in ops.iter().enumerate() {
        let due = match until {
            None => {
                sleep_until(start + op.due);
                op.due
            }
            Some(t) if Instant::now() >= t => break,
            Some(_) => start.elapsed(),
        };
        let sent = start.elapsed();
        // Only connection B writes, so the WAL's fsyncs while one of its
        // requests runs are that request's own.
        let fsyncs = obs::get(Counter::WalFsyncs);
        let result = run_http_op(&mut conn, op, &mut session, &mut checks, &mut out);
        let done = start.elapsed();
        let synced = obs::get(Counter::WalFsyncs) > fsyncs;
        let ok = match result {
            Ok(ok) => ok,
            Err(e) => {
                out.violations.push(format!("request failed: {e}"));
                false
            }
        };
        out.queue_depth_max = out.queue_depth_max.max(obs::get(Counter::HttpQueueDepth));
        out.sessions_max = out.sessions_max.max(obs::get(Counter::HttpSessions));
        let rec = Rec {
            class: op.class(synced),
            due,
            sent,
            done,
            ok,
        };
        if let Some(tr) = tracer.as_deref_mut().filter(|_| i % 2 == 1) {
            let rid = (conn_id << 48) | i as u64;
            let at = |d: Duration| start + d;
            tr.span_at("serve.request", rid, at(rec.due), at(rec.done), |tr| {
                tr.record("gen.lag", rid, at(rec.due), at(rec.sent));
                tr.record("http.roundtrip", rid, at(rec.sent), at(rec.done));
            });
        }
        out.recs.push(rec);
    }
    if let Some(id) = session {
        let _ = conn.call("/session/close", Some(id), "");
    }
    out
}

/// Execute one operation over HTTP; `Ok(false)` for a refused or failed
/// request (counted, not fatal).
fn run_http_op(
    conn: &mut Conn,
    op: &Op,
    session: &mut Option<u64>,
    checks: &mut ReadChecks,
    out: &mut ConnResult,
) -> std::io::Result<bool> {
    let ok_status = |r: &Response, what: &str, out: &mut ConnResult| {
        if r.status == 503 {
            out.rejected += 1;
        } else if r.status != 200 {
            out.violations
                .push(format!("{what}: HTTP {} {}", r.status, r.body.trim()));
        }
        r.status == 200
    };
    match &op.kind {
        Kind::Query { class, sql, pinned } => {
            // Open or close the reading connection's pinned session at a
            // window boundary.
            if *pinned && session.is_none() {
                let r = conn.call("/session", None, "")?;
                if !ok_status(&r, "/session", out) {
                    return Ok(false);
                }
                *session = r.body.trim().parse().ok();
                checks.window_counts.clear();
            } else if !*pinned && session.is_some() {
                let id = session.take();
                let r = conn.call("/session/close", id, "")?;
                ok_status(&r, "/session/close", out);
            }
            let r = conn.call("/query", *session, sql)?;
            if !ok_status(&r, "/query", out) {
                return Ok(false);
            }
            if *class == Class::Point && r.body.lines().count() != 2 {
                out.violations
                    .push(format!("point lookup returned {:?}", r.body));
            }
            checks.check(*class, *pinned, total_count(&r.body, *class), out);
            Ok(true)
        }
        Kind::Ingest(b) => {
            let r = conn.call(&format!("/ingest?table={}", TABLES[b.table]), None, &b.tsv)?;
            let ok = ok_status(&r, "/ingest", out);
            if ok {
                out.acked[b.table].push(b.id);
                checks.own_acked_rows[b.table] += BATCH as i64;
            }
            Ok(ok)
        }
        Kind::Txn { batches, commit } => {
            let r = conn.call("/session", None, "")?;
            if !ok_status(&r, "/session", out) {
                return Ok(false);
            }
            let sid = r.body.trim().parse().ok();
            let mut ok = ok_status(&conn.call("/begin", sid, "")?, "/begin", out);
            for b in batches {
                let target = format!("/ingest?table={}", TABLES[b.table]);
                ok = ok && ok_status(&conn.call(&target, sid, &b.tsv)?, "/ingest (txn)", out);
            }
            let end = if *commit { "/commit" } else { "/rollback" };
            ok = ok && ok_status(&conn.call(end, sid, "")?, end, out);
            let r = conn.call("/session/close", sid, "")?;
            ok_status(&r, "/session/close", out);
            for b in batches {
                if ok && *commit {
                    out.acked[b.table].push(b.id);
                    checks.own_acked_rows[b.table] += BATCH as i64;
                } else {
                    out.rolled_back[b.table].push(b.id);
                }
            }
            Ok(ok)
        }
    }
}

/// Drive one schedule in-process through `Engine` (the server-overhead
/// baseline): same statements, same rate, same pinned windows.
fn drive_engine(
    engine: &Arc<Engine>,
    ops: &[Op],
    start: Instant,
    mut tracer: Option<&mut Tracer>,
    conn_id: u64,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut checks = ReadChecks::new();
    let mut snapshot = None;
    for (i, op) in ops.iter().enumerate() {
        sleep_until(start + op.due);
        let sent = start.elapsed();
        let fsyncs = obs::get(Counter::WalFsyncs);
        let t = Instant::now();
        let ok = match &op.kind {
            Kind::Query { class, sql, pinned } => {
                if *pinned && snapshot.is_none() {
                    snapshot = Some(engine.snapshot());
                    checks.window_counts.clear();
                } else if !*pinned {
                    snapshot = None;
                }
                let rs = match &snapshot {
                    Some(s) => engine.query_at(s, sql),
                    None => engine.query(sql),
                };
                match rs {
                    Ok(rs) => {
                        checks.check(
                            *class,
                            *pinned,
                            total_count(&rs.render_tsv(), *class),
                            &mut out,
                        );
                        true
                    }
                    Err(e) => {
                        out.violations.push(format!("query: {e}"));
                        false
                    }
                }
            }
            Kind::Ingest(b) => match engine.insert_rows(TABLES[b.table], b.rows.clone()) {
                Ok(_) => {
                    out.acked[b.table].push(b.id);
                    checks.own_acked_rows[b.table] += BATCH as i64;
                    true
                }
                Err(e) => {
                    out.violations.push(format!("insert: {e}"));
                    false
                }
            },
            Kind::Txn { batches, commit } => {
                let mut txn = engine.begin_txn();
                let mut ok = true;
                for b in batches {
                    ok = ok && txn.insert_rows(TABLES[b.table], b.rows.clone()).is_ok();
                }
                if *commit && ok {
                    ok = txn.commit().is_ok();
                } else {
                    txn.rollback();
                }
                for b in batches {
                    if ok && *commit {
                        out.acked[b.table].push(b.id);
                        checks.own_acked_rows[b.table] += BATCH as i64;
                    } else {
                        out.rolled_back[b.table].push(b.id);
                    }
                }
                ok
            }
        };
        let exec = t.elapsed();
        let done = start.elapsed();
        let synced = obs::get(Counter::WalFsyncs) > fsyncs;
        let rec = Rec {
            class: op.class(synced),
            due: op.due,
            sent,
            done,
            ok,
        };
        if let Some(tr) = tracer.as_deref_mut() {
            let rid = (conn_id << 48) | i as u64;
            let at = |d: Duration| start + d;
            tr.span_at("inproc.request", rid, at(rec.due), at(rec.done), |tr| {
                tr.record("gen.lag", rid, at(rec.due), at(rec.sent));
                tr.record(exec_span(rec.class), rid, at(rec.sent), at(rec.sent) + exec);
            });
        }
        out.recs.push(rec);
    }
    out
}

fn exec_span(c: Class) -> &'static str {
    match c {
        Class::Point => "exec.point",
        Class::GroupBy => "exec.groupby",
        Class::Filter => "exec.filter",
        Class::Ingest { .. } => "exec.ingest",
        Class::Txn => "exec.txn",
    }
}

/// Run both schedules at once, one thread each (never more than two
/// generator threads: the host has two CPUs).
fn run_phase(
    ops: &[Vec<Op>; 2],
    f: impl Fn(&[Op], Instant, Option<&mut Tracer>, u64) -> ConnResult + Sync,
    tracers: Option<&mut [Tracer; 2]>,
) -> [ConnResult; 2] {
    let start = Instant::now() + Duration::from_millis(20);
    let f = &f;
    std::thread::scope(|s| {
        let (ta, tb) = match tracers {
            Some([a, b]) => (Some(a), Some(b)),
            None => (None, None),
        };
        let ha = s.spawn(move || f(&ops[0], start, ta, 0));
        let hb = s.spawn(move || f(&ops[1], start, tb, 1));
        [
            ha.join().expect("generator thread A panicked"),
            hb.join().expect("generator thread B panicked"),
        ]
    })
}

// ---- set-up, verification, metrics ---------------------------------------

struct Served {
    engine: Arc<Engine>,
    dump: PathBuf,
    wal: PathBuf,
    seed_tsv_bytes: u64,
}

/// Seed both tables through a WAL-attached engine and checkpoint.
fn setup(seed: u64, dir: &Path) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let dump = dir.join("served.sql");
    let wal = dir.join("served.sql.wal");
    let (engine, _) =
        Engine::open_durable(&dump, &wal, wal_options()).map_err(|e| e.to_string())?;
    let e = |r: Result<usize, sqldb::DbError>| r.map(|_| ()).map_err(|e| e.to_string());
    e(engine.execute(&format!("CREATE TABLE runs ({COLUMNS})")))?;
    e(engine.execute("CREATE INDEX ix_runs_run_index ON runs (run_index)"))?;
    e(engine.execute(&format!("CREATE TABLE samples ({COLUMNS}) USING COLUMNAR")))?;
    let mut seed_tsv_bytes = 0u64;
    // Seed rows take run indexes 0..SEED_ROWS and negative batch ids, so
    // they never collide with ingested batches.
    for (t, table) in TABLES.iter().enumerate() {
        for b in 0..(SEED_ROWS / BATCH) as u64 {
            let mut rows = batch_rows(seed, (t as u64) << 32 | b);
            for (i, r) in rows.iter_mut().enumerate() {
                r[0] = Value::Int((b as usize * BATCH + i) as i64);
                r[1] = Value::Int(-1 - b as i64);
            }
            seed_tsv_bytes += tsv(&rows).len() as u64;
            e(engine.insert_rows(table, rows))?;
        }
    }
    engine.checkpoint(&dump).map_err(|e| e.to_string())?;
    Ok(Served {
        engine: Arc::new(engine),
        dump,
        wal,
        seed_tsv_bytes,
    })
}

fn start_server(engine: &Arc<Engine>) -> Result<pbserver::ServerHandle, String> {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    Server::start(
        engine.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            max_sessions: 64,
            queue: 128,
            session_ttl: None,
        },
    )
    .map_err(|e| format!("server start: {e}"))
}

/// Every table holds exactly the seed rows plus every acknowledged batch,
/// 250 rows each, and no row of a rolled-back batch.
fn verify_rows(
    engine: &Engine,
    acked: &[Vec<u64>; 2],
    rolled: &[Vec<u64>; 2],
    what: &str,
    gates: &mut Gates,
) {
    for (t, table) in TABLES.iter().enumerate() {
        let rs = match engine.query(&format!(
            "SELECT batch, count(*) FROM {table} WHERE batch >= 0 GROUP BY batch"
        )) {
            Ok(rs) => rs,
            Err(e) => {
                gates.check(false, || format!("{what}: {table}: {e}"));
                continue;
            }
        };
        let found: BTreeMap<i64, i64> = rs
            .rows()
            .iter()
            .filter_map(|r| Some((r[0].as_i64()?, r[1].as_i64()?)))
            .collect();
        let want: BTreeMap<i64, i64> = acked[t].iter().map(|&b| (b as i64, BATCH as i64)).collect();
        gates.check(found == want, || {
            format!(
                "{what}: {table} holds {} ingested batches, {} acknowledged",
                found.len(),
                want.len()
            )
        });
        gates.check(
            rolled[t].iter().all(|b| !found.contains_key(&(*b as i64))),
            || format!("{what}: {table} holds rows of a rolled-back batch"),
        );
        let total = engine.row_count(table).unwrap_or(0);
        let expect = SEED_ROWS + BATCH * acked[t].len();
        gates.check(total == expect, || {
            format!("{what}: {table} has {total} rows, expected {expect}")
        });
    }
}

/// Per-class latencies (ms, from due) and failures of a phase.
struct PhaseStats {
    query_ms: Vec<f64>,
    by_class: BTreeMap<Class, Vec<f64>>,
    lag_ms: Vec<f64>,
    failed: u64,
    attempted: u64,
}

/// Latencies of the plain `/ingest` operations of a phase, by whether
/// they paid an fsync.
fn ingests(st: &PhaseStats) -> impl Iterator<Item = &Vec<f64>> {
    [false, true]
        .into_iter()
        .filter_map(|synced| st.by_class.get(&Class::Ingest { synced }))
}

/// Latencies of every plain `/ingest` of a phase, pooled.
fn ingest_of(st: &PhaseStats) -> Vec<f64> {
    ingests(st).flatten().copied().collect()
}

/// The reported write latency of a phase, `op_p50_ms`: the geometric
/// mean of the synced and the unsynced plain-ingest medians.
fn ingest_p50(st: &PhaseStats) -> f64 {
    class_p50(ingests(st))
}

/// The reported query latency of a phase: the geometric mean of the
/// point, GROUP BY and filter classes' medians.
fn query_p50(st: &PhaseStats) -> f64 {
    class_p50(
        [Class::Point, Class::GroupBy, Class::Filter]
            .iter()
            .filter_map(|c| st.by_class.get(c)),
    )
}

fn phase_stats(res: &[ConnResult; 2]) -> PhaseStats {
    let mut s = PhaseStats {
        query_ms: Vec::new(),
        by_class: BTreeMap::new(),
        lag_ms: Vec::new(),
        failed: 0,
        attempted: 0,
    };
    for r in res {
        for rec in &r.recs {
            s.attempted += 1;
            if !rec.ok {
                s.failed += 1;
                continue;
            }
            let l = rec.latency_ms();
            if matches!(rec.class, Class::Point | Class::GroupBy | Class::Filter) {
                s.query_ms.push(l);
            }
            s.by_class.entry(rec.class).or_default().push(l);
            s.lag_ms.push(ms(rec.sent.saturating_sub(rec.due)));
        }
    }
    s
}

/// TSV bytes of every batch in `ops`, by batch id.
fn record_batch_bytes(ops: &[Vec<Op>; 2], out: &mut BTreeMap<u64, u64>) {
    for op in ops.iter().flatten() {
        match &op.kind {
            Kind::Ingest(b) => {
                out.insert(b.id, b.tsv.len() as u64);
            }
            Kind::Txn { batches, .. } => {
                for b in batches {
                    out.insert(b.id, b.tsv.len() as u64);
                }
            }
            Kind::Query { .. } => {}
        }
    }
}

/// Add a phase's acknowledged and rolled-back batch ids, per table.
fn merge_acks(phase: &[ConnResult; 2], acked: &mut [Vec<u64>; 2], rolled: &mut [Vec<u64>; 2]) {
    for r in phase {
        for t in 0..2 {
            acked[t].extend(&r.acked[t]);
            rolled[t].extend(&r.rolled_back[t]);
        }
    }
}

fn collect_violations(results: &[ConnResult; 2], what: &str, gates: &mut Gates) {
    let n: usize = results.iter().map(|r| r.violations.len()).sum();
    gates.check(n == 0, || {
        let first = results
            .iter()
            .flat_map(|r| r.violations.iter())
            .next()
            .cloned()
            .unwrap_or_default();
        format!("{what}: {n} isolation/response violations, first: {first}")
    });
}

/// Shut the server down, check the rows, reopen from dump + WAL
/// (`REOPENS` times, timed), check again and checkpoint. Returns the open
/// times, the stored bytes and the reopened engine.
fn close_and_reopen(
    served: Served,
    server: pbserver::ServerHandle,
    acked: &[Vec<u64>; 2],
    rolled: &[Vec<u64>; 2],
    gates: &mut Gates,
) -> Result<(Vec<f64>, u64, Served), String> {
    server.stop();
    server.join();
    verify_rows(&served.engine, acked, rolled, "after shutdown", gates);
    served.engine.wal_sync().map_err(|e| e.to_string())?;
    let Served {
        engine,
        dump,
        wal,
        seed_tsv_bytes,
    } = served;
    drop(engine);
    let mut open_s = Vec::new();
    let mut engine = None;
    for _ in 0..REOPENS {
        drop(engine.take());
        let t = Instant::now();
        let (e, _) = Engine::open_durable(&dump, &wal, wal_options()).map_err(|e| e.to_string())?;
        open_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one reopen");
    verify_rows(&engine, acked, rolled, "after reopen", gates);
    engine.checkpoint(&dump).map_err(|e| e.to_string())?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let stored = size(&dump) + size(&wal);
    let served = Served {
        engine: Arc::new(engine),
        dump,
        wal,
        seed_tsv_bytes,
    };
    Ok((open_s, stored, served))
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut served = None;
    for k in 0..SETUPS {
        drop(served.take());
        let t = Instant::now();
        served = Some(setup(args.seed, &args.work.join(format!("setup{k}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("at least one set-up");

    // Reference phase: open loop at the fixed rate.
    let server = start_server(&served.engine)?;
    let addr = server.addr();
    let mut next_batch = 0u64;
    let ops = schedule(
        args.seed,
        0,
        REF_RATE,
        args.seconds * REF_SHARE,
        &mut next_batch,
    );
    let reference = run_phase(
        &ops,
        |o: &[Op], s: Instant, tr: Option<&mut Tracer>, id: u64| {
            drive_http(addr, o, s, None, id, tr)
        },
        None,
    );
    collect_violations(&reference, "reference phase", &mut report.gates);
    let mut batch_bytes = BTreeMap::new();
    record_batch_bytes(&ops, &mut batch_bytes);
    let mut acked = [Vec::new(), Vec::new()];
    let mut rolled = [Vec::new(), Vec::new()];
    merge_acks(&reference, &mut acked, &mut rolled);
    let input_bytes = served.seed_tsv_bytes
        + acked
            .iter()
            .flatten()
            .map(|id| batch_bytes[id])
            .sum::<u64>();

    // Every acknowledged write survives shutdown and reopen (dump + WAL).
    let (open_s, stored, served) =
        close_and_reopen(served, server, &acked, &rolled, &mut report.gates)?;

    // Saturated phase: the same mix, closed loop on both connections.
    let server = start_server(&served.engine)?;
    let addr = server.addr();
    let secs = args.seconds * SATURATED_SHARE;
    // Scheduled at a notional 400/s, above the ~300/s the mix saturates
    // at, so the closed loop rarely runs out of operations; if it does,
    // the phase ends early and the rate is taken over its true length.
    let ops = schedule(args.seed, 1, 400.0, secs, &mut next_batch);
    let began = Instant::now();
    let until = began + Duration::from_secs_f64(secs);
    let saturated = run_phase(
        &ops,
        |o: &[Op], s: Instant, tr: Option<&mut Tracer>, id: u64| {
            drive_http(addr, o, s, Some(until), id, tr)
        },
        None,
    );
    let elapsed = began.elapsed().as_secs_f64();
    collect_violations(&saturated, "saturated phase", &mut report.gates);
    merge_acks(&saturated, &mut acked, &mut rolled);
    server.stop();
    server.join();
    verify_rows(
        &served.engine,
        &acked,
        &rolled,
        "after the saturated phase",
        &mut report.gates,
    );

    let reference_stats = phase_stats(&reference);
    let saturated_stats = phase_stats(&saturated);
    for st in [&reference_stats, &saturated_stats] {
        report.attempted += st.attempted;
        report.failed += st.failed;
    }
    for (class, v) in &reference_stats.by_class {
        eprintln!(
            "  reference {class:?}: n={} p25 {:.3} p50 {:.3} p75 {:.3} ms p{} {:.3} ms (from due)",
            v.len(),
            quantile(v, 0.25),
            median(v),
            quantile(v, 0.75),
            TAIL * 100.0,
            quantile(v, TAIL)
        );
    }
    let throughput = (saturated_stats.attempted - saturated_stats.failed) as f64 / elapsed;
    let m = &mut report.metrics;
    m.set("setup_s", median(&setup_s), "s");
    m.set("open_s", median(&open_s), "s");
    m.set("ops_per_s", throughput, "1/s");
    m.set("op_p50_ms", ingest_p50(&reference_stats), "ms");
    m.set("query_p50_ms", query_p50(&reference_stats), "ms");
    m.set(
        "stored_bytes_per_input_byte",
        stored as f64 / input_bytes as f64,
        "ratio",
    );
    eprintln!(
        "serve_mixed: reference {REF_RATE}/s: {} queries, {} ingests; saturated: {} operations in {elapsed:.1} s",
        reference_stats.query_ms.len(),
        ingest_of(&reference_stats).len(),
        saturated_stats.attempted,
    );
    Ok(report)
}

/// Traced run: the reference-rate schedule over HTTP (spans on every other
/// operation), then the same schedule in-process on a second, identical
/// set-up — the baseline for the server-overhead metrics.
fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut http_tr = [Tracer::new(origin), Tracer::new(origin)];
    let mut proc_tr = [Tracer::new(origin), Tracer::new(origin)];
    let secs = args.seconds * REF_SHARE;
    let mut next_batch = 0u64;
    let ops = schedule(args.seed, 0, REF_RATE, secs, &mut next_batch);

    let served = setup(args.seed, &args.work.join("http"))?;
    let server = start_server(&served.engine)?;
    let addr = server.addr();
    let before = Counters::now();
    let http = run_phase(
        &ops,
        |o: &[Op], s: Instant, tr: Option<&mut Tracer>, id: u64| {
            drive_http(addr, o, s, None, id, tr)
        },
        Some(&mut http_tr),
    );
    let cow = before.delta(Counter::MvccCowClones);
    let commits = before.delta(Counter::TxnCommits);
    let conflicts = before.delta(Counter::TxnConflicts);
    let rejected = before.delta(Counter::HttpRejectedOverload);
    let fsyncs = before.delta(Counter::WalFsyncs);
    let appends = before.delta(Counter::WalAppends);
    let sql = before.delta(Counter::QueriesRun) as f64;
    let rows_visited = before.delta(Counter::ScanRowsVisited) as f64;
    let full = before.delta(Counter::PlanFullScan) as f64;
    let vectorized = before.delta(Counter::VectorizedScans) as f64;
    collect_violations(&http, "traced HTTP phase", &mut report.gates);
    let mut acked = [Vec::new(), Vec::new()];
    let mut rolled = [Vec::new(), Vec::new()];
    merge_acks(&http, &mut acked, &mut rolled);
    let writes_acked = (acked[0].len() + acked[1].len()) as f64;
    let bytes_per_row = bytes_per_row(&served.engine);
    drop(close_and_reopen(
        served,
        server,
        &acked,
        &rolled,
        &mut report.gates,
    )?);

    let local = setup(args.seed, &args.work.join("inproc"))?;
    let engine = local.engine.clone();
    let inproc = run_phase(
        &ops,
        |o: &[Op], s: Instant, tr: Option<&mut Tracer>, id: u64| {
            drive_engine(&engine, o, s, tr, id)
        },
        Some(&mut proc_tr),
    );
    collect_violations(&inproc, "in-process replay", &mut report.gates);
    let mut acked_p = [Vec::new(), Vec::new()];
    let mut rolled_p = [Vec::new(), Vec::new()];
    merge_acks(&inproc, &mut acked_p, &mut rolled_p);
    verify_rows(
        &engine,
        &acked_p,
        &rolled_p,
        "in-process replay",
        &mut report.gates,
    );
    drop(engine);
    drop(local);

    let hs = phase_stats(&http);
    let ps = phase_stats(&inproc);
    report.attempted = hs.attempted + ps.attempted;
    report.failed = hs.failed + ps.failed;
    let m = &mut report.metrics;
    // In-process statement cost, from the exec spans (µs).
    let exec_us = |name: &str| {
        let v: Vec<f64> = proc_tr.iter().flat_map(|t| t.durations_us(name)).collect();
        median(&v)
    };
    m.set("exec.point_us_p50", exec_us("exec.point"), "us");
    m.set("exec.groupby_us_p50", exec_us("exec.groupby"), "us");
    m.set("exec.filter_us_p50", exec_us("exec.filter"), "us");
    m.set(
        "server.query_overhead_ms_p50",
        query_p50(&hs) - query_p50(&ps),
        "ms",
    );
    m.set(
        "server.ingest_overhead_ms_p50",
        ingest_p50(&hs) - ingest_p50(&ps),
        "ms",
    );
    m.set("server.rejected_503", rejected as f64, "count");
    m.set(
        "server.queue_depth_max",
        http.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "mvcc.pinned_snapshots_max",
        http.iter().map(|r| r.sessions_max).max().unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "mvcc.cow_clones_per_write",
        ratio(cow as f64, writes_acked),
        "ratio",
    );
    m.set("txn.commits", commits as f64, "count");
    m.set(
        "txn.conflict_ratio",
        ratio(conflicts as f64, (commits + conflicts) as f64),
        "ratio",
    );
    m.set(
        "wal.fsyncs_per_write",
        ratio(fsyncs as f64, appends as f64),
        "ratio",
    );
    m.set(
        "exec.rows_visited_per_query",
        ratio(rows_visited, sql),
        "count",
    );
    m.set("exec.full_scan_share", ratio(full, sql), "ratio");
    m.set("exec.vectorized_share", ratio(vectorized, sql), "ratio");
    m.set("gen.lag_ms_p99", quantile(&hs.lag_ms, 0.99), "ms");
    m.set("mem.bytes_per_row", bytes_per_row, "B");

    // Self time per layer: the in-process replay gives `exec`, the traced
    // HTTP requests every other layer (and overwrite the replay's `gen`).
    trace::self_times(m, &[&proc_tr[0], &proc_tr[1]], "inproc.request");
    trace::self_times(m, &[&http_tr[0], &http_tr[1]], "serve.request");
    // Traced (odd) and untraced (even) operations of the same phase,
    // compared per class (a pooled median would jump between classes);
    // the median of the class ratios resists the rare, slow classes.
    let mut halves: BTreeMap<(Class, bool), Vec<f64>> = BTreeMap::new();
    for r in &http {
        for (i, rec) in r.recs.iter().enumerate() {
            halves
                .entry((rec.class, i % 2 == 1))
                .or_default()
                .push(rec.latency_ms());
        }
    }
    let ratios: Vec<f64> = halves
        .iter()
        .filter(|((_, is_traced), _)| !is_traced)
        .filter_map(|((class, _), untraced)| {
            let traced = halves.get(&(*class, true))?;
            Some(ratio(median(traced), median(untraced)))
        })
        .collect();
    trace::reconcile(m, &mut report.gates, median(&ratios), 1.0);
    let ingest = ingest_of(&hs);
    m.set("tail.op_ms", quantile(&ingest, TAIL), "ms");
    m.set("tail.query_ms", quantile(&hs.query_ms, TAIL), "ms");
    m.set("samples.op", ingest.len() as f64, "count");
    m.set("samples.query", hs.query_ms.len() as f64, "count");
    let all: Vec<&Tracer> = http_tr.iter().chain(&proc_tr).collect();
    trace::write_spans(args, &all)?;
    Ok(report)
}
