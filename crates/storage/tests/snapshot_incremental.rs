//! Racing stress for the incrementally-maintained snapshot cache: while
//! writer threads begin/commit/abort across every allocation shard, a checker
//! repeatedly takes `(maintained, rebuilt)` pairs under one `finish` critical
//! section and asserts the copy-on-write snapshot is **observationally
//! identical** to a from-scratch shard walk taken at the same instant — same
//! commit frontier, same in-progress verdict for every transaction id.
//!
//! The one permitted divergence is writeless-finished ids: `commit_readonly`
//! / `abort_readonly` deliberately skip the cache refresh (their ids appear
//! in no tuple header, so "still in progress" and "finished" are
//! observationally the same — see the module docs in `txn.rs`), so the mixed
//! test excludes exactly the ids it finished writelessly.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pgssi_common::TxnId;
use pgssi_storage::{TxnConfig, TxnManager};

fn assert_equivalent(
    maintained: &pgssi_common::Snapshot,
    rebuilt: &pgssi_common::Snapshot,
    writeless: &HashSet<TxnId>,
    round: u64,
) {
    assert_eq!(
        maintained.csn, rebuilt.csn,
        "round {round}: maintained snapshot lags the commit frontier"
    );
    assert!(
        maintained.xmax <= rebuilt.xmax,
        "round {round}: maintained xmax ran ahead of the frontier"
    );
    // Check every id up to (and just past) the fresh frontier. Above the
    // maintained xmax both sides classify in-progress by construction.
    for id in TxnId::FIRST_NORMAL.0..rebuilt.xmax.0 + 2 {
        let t = TxnId(id);
        if writeless.contains(&t) {
            continue; // documented don't-care: writeless-finished ids
        }
        assert_eq!(
            maintained.is_in_progress(t),
            rebuilt.is_in_progress(t),
            "round {round}: txid {id} classified differently (maintained xmax {:?}, \
             rebuilt xmax {:?})",
            maintained.xmax,
            rebuilt.xmax,
        );
    }
}

/// Writing-only churn: strict observational equality on every pair.
#[test]
fn racing_writing_finishes_keep_snapshot_equal_to_rebuild() {
    let tm = Arc::new(TxnManager::with_config(&TxnConfig {
        id_shards: 4,
        txid_block: 8,
    }));
    let _ = tm.snapshot(); // prime the cache
    let stop = Arc::new(AtomicBool::new(false));
    let none: HashSet<TxnId> = HashSet::new();

    std::thread::scope(|scope| {
        for shard in 0..4usize {
            let tm = Arc::clone(&tm);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut open: Vec<TxnId> = Vec::new();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    open.push(tm.begin_on_shard(shard));
                    if open.len() > 3 {
                        let victim = open.remove((n as usize) % open.len());
                        if n.is_multiple_of(3) {
                            tm.abort(&[victim]);
                        } else {
                            tm.commit(&[victim]);
                        }
                    }
                }
                for t in open {
                    tm.commit(&[t]);
                }
            });
        }
        for _ in 0..2 {
            let tm = Arc::clone(&tm);
            let stop = Arc::clone(&stop);
            let none = &none;
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let (maintained, rebuilt) = tm.snapshot_and_rebuild();
                    assert_equivalent(&maintained, &rebuilt, none, round);
                }
                assert!(round > 0);
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    // Steady state never walked the shards beyond the single cold start.
    assert_eq!(tm.stats.snapshot_full_rebuilds.get(), 1);
    assert!(tm.stats.snapshot_incremental.get() > 0);

    // Quiesced: the final maintained snapshot sees no one in progress.
    let (maintained, rebuilt) = tm.snapshot_and_rebuild();
    assert_equivalent(&maintained, &rebuilt, &none, u64::MAX);
    for id in TxnId::FIRST_NORMAL.0..rebuilt.xmax.0 {
        // Every issued id finished; only reserved-but-unissued ids remain.
        let t = TxnId(id);
        if !maintained.is_in_progress(t) {
            assert!(!rebuilt.is_in_progress(t));
        }
    }
}

/// Mixed churn with writeless finishes: equality must hold for everything
/// except the ids the drivers finished via the readonly paths.
#[test]
fn racing_mixed_finishes_equal_modulo_writeless_ids() {
    let tm = Arc::new(TxnManager::with_config(&TxnConfig {
        id_shards: 3,
        txid_block: 4,
    }));
    let _ = tm.snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let writeless: Arc<Mutex<HashSet<TxnId>>> = Arc::new(Mutex::new(HashSet::new()));

    std::thread::scope(|scope| {
        for shard in 0..3usize {
            let tm = Arc::clone(&tm);
            let stop = Arc::clone(&stop);
            let writeless = Arc::clone(&writeless);
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    let t = tm.begin_on_shard(shard);
                    match n % 4 {
                        0 => {
                            // Record BEFORE finishing: the checker must never
                            // see a writeless-finished id it can't excuse.
                            writeless.lock().unwrap().insert(t);
                            tm.commit_readonly(&[t]);
                        }
                        1 => {
                            writeless.lock().unwrap().insert(t);
                            tm.abort_readonly(&[t]);
                        }
                        2 => {
                            tm.commit(&[t]);
                        }
                        _ => {
                            tm.abort(&[t]);
                        }
                    }
                }
            });
        }
        {
            let tm = Arc::clone(&tm);
            let stop = Arc::clone(&stop);
            let writeless = Arc::clone(&writeless);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    // Excuse-set first: anything added after this clone is
                    // also too new to have diverged the pair taken below...
                    // except a finish racing between the clone and the pair.
                    // Taking the pair FIRST and the excuse set SECOND closes
                    // it the other way: the set can only have grown, which
                    // over-excuses (never under-excuses) — so pair first.
                    let (maintained, rebuilt) = tm.snapshot_and_rebuild();
                    let excuse = writeless.lock().unwrap().clone();
                    assert_equivalent(&maintained, &rebuilt, &excuse, round);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(250));
        stop.store(true, Ordering::Relaxed);
    });

    assert!(tm.stats.snapshot_incremental.get() > 0);
    assert_eq!(tm.stats.snapshot_full_rebuilds.get(), 1);
}
