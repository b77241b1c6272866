//! Per-analyst sessions: pinned [`Snapshot`]s plus per-session
//! transaction state.
//!
//! `POST /session` pins the current catalog snapshot and returns an id;
//! subsequent `/query` requests carrying `X-Session: <id>` run against
//! that frozen epoch — **repeatable reads** across many requests, no
//! matter how many imports commit in between. A session may also hold an
//! open multi-statement write transaction (`POST /begin` … `/commit` /
//! `/rollback`): while one is open, the session's queries and ingests
//! route through it (read-your-own-writes). Sessions are capped (the
//! server's `--max-sessions`); a full table answers 503 so a leaky client
//! cannot pin unbounded table versions. `DELETE /session` (or
//! `POST /session/close`) releases the pin — dropping a session with an
//! open transaction rolls the transaction back, so an analyst who
//! disconnects mid-transaction leaves the catalog untouched. With
//! `--session-ttl` the server additionally sweeps sessions idle longer
//! than the TTL (same rollback guarantee).

use sqldb::sync::Mutex;
use sqldb::{Snapshot, Transaction};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

/// One analyst session: the pinned read snapshot, the open transaction
/// (if any), and the idle clock.
pub struct Session {
    snapshot: Arc<Snapshot>,
    txn: Mutex<Option<Transaction>>,
    last_used: Mutex<Instant>,
}

impl Session {
    fn new(snapshot: Snapshot) -> Session {
        Session {
            snapshot: Arc::new(snapshot),
            txn: Mutex::new(None),
            last_used: Mutex::new(Instant::now()),
        }
    }

    /// The snapshot pinned when the session opened.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.clone()
    }

    /// The session's transaction slot: `None` when no transaction is
    /// open. Holding the guard serialises this session's requests against
    /// each other (a transaction is single-writer by construction).
    pub fn txn(&self) -> MutexGuard<'_, Option<Transaction>> {
        self.txn.lock()
    }

    /// Reset the idle clock (every request carrying the session does).
    pub fn touch(&self) {
        *self.last_used.lock() = Instant::now();
    }

    /// Time since the last request touched this session.
    pub fn idle_for(&self) -> Duration {
        self.last_used.lock().elapsed()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("epoch", &self.snapshot.epoch())
            .finish_non_exhaustive()
    }
}

/// Registry of live sessions, keyed by the id handed to the client.
pub struct SessionTable {
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl SessionTable {
    /// Empty table holding at most `capacity` sessions.
    pub fn new(capacity: usize) -> SessionTable {
        SessionTable {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            capacity: capacity.max(1),
        }
    }

    /// Register a pinned snapshot; `None` when the table is full (503).
    pub fn open(&self, snapshot: Snapshot) -> Option<u64> {
        let mut s = self.sessions.lock();
        if s.len() >= self.capacity {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        s.insert(id, Arc::new(Session::new(snapshot)));
        obs::set(obs::Counter::HttpSessions, s.len() as u64);
        Some(id)
    }

    /// The session, if it exists; touches its idle clock.
    pub fn session(&self, id: u64) -> Option<Arc<Session>> {
        let sess = self.sessions.lock().get(&id).cloned();
        if let Some(s) = &sess {
            s.touch();
        }
        sess
    }

    /// The snapshot a session pinned, if the session exists.
    pub fn get(&self, id: u64) -> Option<Arc<Snapshot>> {
        self.session(id).map(|s| s.snapshot())
    }

    /// Release a session; reports whether it existed. An open transaction
    /// rolls back when the last reference to the session drops.
    pub fn close(&self, id: u64) -> bool {
        let mut s = self.sessions.lock();
        let existed = s.remove(&id).is_some();
        obs::set(obs::Counter::HttpSessions, s.len() as u64);
        existed
    }

    /// Drop every session idle longer than `ttl`; returns how many were
    /// expired. Open transactions in expired sessions roll back (via the
    /// session drop), so an abandoned client never holds a half-built
    /// transaction or a pinned snapshot forever.
    pub fn sweep_expired(&self, ttl: Duration) -> usize {
        let mut s = self.sessions.lock();
        let before = s.len();
        s.retain(|_, sess| sess.idle_for() < ttl);
        let expired = before - s.len();
        if expired > 0 {
            obs::add(obs::Counter::HttpSessionsExpired, expired as u64);
            obs::set(obs::Counter::HttpSessions, s.len() as u64);
        }
        expired
    }

    /// `(id, epoch)` of every live session, sorted by id (for `/session`
    /// listing and `/stats`).
    pub fn list(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .sessions
            .lock()
            .iter()
            .map(|(&id, sess)| (id, sess.snapshot.epoch()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::Engine;

    #[test]
    fn open_get_close_roundtrip() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let table = SessionTable::new(4);
        let id = table.open(db.snapshot()).unwrap();
        assert!(table.get(id).is_some());
        assert_eq!(table.list().len(), 1);
        assert!(table.close(id));
        assert!(!table.close(id));
        assert!(table.get(id).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let db = Engine::new();
        let table = SessionTable::new(2);
        assert!(table.open(db.snapshot()).is_some());
        assert!(table.open(db.snapshot()).is_some());
        assert!(table.open(db.snapshot()).is_none(), "third must be refused");
        let (id, _) = table.list()[0];
        table.close(id);
        assert!(table.open(db.snapshot()).is_some());
    }

    #[test]
    fn session_pins_its_epoch() {
        let db = Engine::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let table = SessionTable::new(4);
        let id = table.open(db.snapshot()).unwrap();
        let epoch = table.get(id).unwrap().epoch();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(table.get(id).unwrap().epoch(), epoch);
        assert!(db.epoch() > epoch);
    }

    #[test]
    fn idle_sweep_expires_and_rolls_back() {
        let db = std::sync::Arc::new(Engine::new());
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let table = SessionTable::new(4);
        let fresh = table.open(db.snapshot()).unwrap();
        let stale = table.open(db.snapshot()).unwrap();
        // Park an open transaction in the stale session.
        {
            let sess = table.session(stale).unwrap();
            let mut txn = db.begin_txn();
            txn.execute("INSERT INTO t VALUES (1)").unwrap();
            *sess.txn() = Some(txn);
        }
        std::thread::sleep(Duration::from_millis(30));
        table.session(fresh); // touch: keeps it alive
        let expired = table.sweep_expired(Duration::from_millis(25));
        assert_eq!(expired, 1);
        assert!(table.get(stale).is_none());
        assert!(table.get(fresh).is_some());
        // The swept transaction rolled back: nothing committed.
        assert_eq!(db.row_count("t").unwrap(), 0);
        assert_eq!(db.epoch(), 1, "rollback must not tick the epoch");
    }
}
