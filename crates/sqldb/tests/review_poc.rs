use sqldb::wal::{SyncPolicy, WalOptions};
use sqldb::Engine;
use std::sync::Arc;

#[test]
fn failed_batch_append_poisons_later_autocommit_writes() {
    let dir = std::env::temp_dir().join("perfbase_review_poc");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("poc.sql");
    let wal = dir.join("poc.wal");
    std::fs::remove_file(&dump).ok();
    std::fs::remove_file(&wal).ok();

    let (db, _) =
        Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
    let db = Arc::new(db);
    db.execute("CREATE TABLE t (a INTEGER, s TEXT)").unwrap();

    // Transaction whose second statement exceeds the WAL frame limit:
    // append_batch writes --TXN BEGIN + stmt1, then errors on stmt2.
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO t VALUES (1, 'small')").unwrap();
    let big = "y".repeat(257 * 1024 * 1024);
    txn.execute(&format!("INSERT INTO t VALUES (2, '{big}')"))
        .unwrap();
    assert!(
        txn.commit().is_err(),
        "oversized frame must fail the commit"
    );

    // The engine keeps running; an autocommit write succeeds and is acked.
    db.execute("INSERT INTO t VALUES (3, 'acked')").unwrap();
    assert_eq!(db.row_count("t").unwrap(), 1);
    db.wal_sync().unwrap();
    drop(db);

    // Recovery: the acked autocommit row must survive.
    let (db2, report) =
        Engine::open_durable(&dump, &wal, WalOptions::with_sync(SyncPolicy::Off)).unwrap();
    println!("report: {report:?}");
    assert_eq!(
        db2.row_count("t").unwrap(),
        1,
        "acked autocommit write lost after recovery"
    );
}
