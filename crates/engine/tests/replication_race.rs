//! Regression test for replica queries pinning the vacuum/SSI horizon past
//! their lifetime (including when the querying thread panics).

use std::sync::Mutex;

use pgssi_common::row;
use pgssi_engine::{Database, IsolationLevel, Replica, TableDef};

/// Replica queries allocate a real master txid and register the (old) safe
/// snapshot's CSN in `active_snapshots` — both must be released when the
/// query finishes, even if the querying thread panics, or the vacuum/SSI
/// horizon is pinned forever. The replica's standing feedback pin, in turn,
/// must hold exactly as long as the replica serves that snapshot: it
/// advances with catch-up and dies with the replica.
#[test]
fn replica_queries_do_not_permanently_pin_the_vacuum_horizon() {
    let db = Database::open();
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    let replica = Replica::connect(&db); // attach first: shipping starts here
    let mut t = db.begin(IsolationLevel::ReadCommitted);
    t.insert("kv", row![1, 0]).unwrap();
    t.commit().unwrap();
    replica.catch_up();

    // The standing feedback pin protects a derived-but-not-yet-queried safe
    // snapshot: dead versions newer than it survive vacuum even with no
    // query in flight (no window between derivation and query).
    let q = replica.begin_safe_query().expect("safe snapshot shipped");
    for v in 1..4 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    let (pruned_pinned, _) = db.vacuum();
    assert_eq!(
        pruned_pinned, 0,
        "versions the replica query may read must survive vacuum"
    );
    drop(q);
    let (pruned_still_pinned, _) = db.vacuum();
    assert_eq!(
        pruned_still_pinned, 0,
        "the feedback pin must keep protecting the snapshot the replica still serves"
    );
    // Catching up past the updates advances the pin; the old versions die.
    replica.catch_up();
    let (pruned_after, _) = db.vacuum();
    assert!(
        pruned_after > 0,
        "advancing the replica must unpin the old versions (got {pruned_after})"
    );

    // Same through a panicking query thread: Transaction's drop runs during
    // unwind and must release the txid and the snapshot registration.
    replica.catch_up();
    let txid_cell = std::sync::Arc::new(Mutex::new(None));
    let cell = std::sync::Arc::clone(&txid_cell);
    let replica_ref = &replica;
    let panicked = std::thread::scope(|s| {
        s.spawn(move || {
            let mut q = replica_ref.begin_safe_query().expect("safe snapshot");
            *cell.lock().unwrap() = Some(q.txid());
            let _ = q.get("kv", &row![1]);
            panic!("simulated client crash mid-query");
        })
        .join()
    });
    assert!(panicked.is_err(), "query thread must have panicked");
    let qtxid = txid_cell.lock().unwrap().expect("txid recorded");
    assert!(
        !matches!(
            db.txn_manager().status(qtxid),
            pgssi_storage::TxnStatus::InProgress
        ),
        "panicked replica query still holds its master txid"
    );
    for v in 4..7 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    replica.catch_up(); // advance the feedback pin past the updates
    let (pruned_post_panic, _) = db.vacuum();
    assert!(
        pruned_post_panic > 0,
        "panicked replica query must not pin the vacuum horizon"
    );

    // A departed replica releases its feedback pin without a final catch-up.
    for v in 7..10 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        w.update("kv", &row![1], row![1, v]).unwrap();
        w.commit().unwrap();
    }
    drop(replica);
    let (pruned_post_drop, _) = db.vacuum();
    assert!(
        pruned_post_drop > 0,
        "dropping the replica must release its feedback pin (got {pruned_post_drop})"
    );
}
