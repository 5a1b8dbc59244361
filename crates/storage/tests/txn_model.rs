//! Model-based and concurrency tests for the sharded transaction manager.
//!
//! The txid-block + epoch-cached-snapshot rework must be *behavior
//! preserving*: sharded allocation and snapshot caching may change which ids
//! get handed out and how fast, never what any snapshot *means*. Three
//! checks enforce that:
//!
//! 1. a proptest model test drives randomized begin / commit / abort /
//!    snapshot sequences (begins spread over explicit shards) against
//!    `RefTm`, a reimplementation of the seed's lock-everything manager,
//!    asserting that every observable agrees under an id bijection —
//!    per-transaction in-progress classification in every snapshot, commit
//!    CSNs, clog statuses, active counts, and the snapshot frontier;
//! 2. a racing begin/commit/snapshot stress test asserts the paper-§4.1
//!    mutual-consistency invariant on every concurrently taken snapshot: a
//!    transaction whose commit completed before the snapshot call must have
//!    `csn < snapshot.csn` *and* read as finished, while anything in `xip`
//!    must not have committed below the frontier;
//! 3. a cache-equivalence check that cached (hit) snapshots classify
//!    transactions exactly like freshly rebuilt ones.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pgssi_common::{CommitSeqNo, Snapshot, TxnId};
use pgssi_storage::{CommitLog, TxnConfig, TxnManager, TxnStatus};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference model: the seed-era single-mutex manager.
// ---------------------------------------------------------------------------

struct RefState {
    next_txid: u64,
    next_csn: u64,
    active: BTreeSet<TxnId>,
}

/// Lock-everything reimplementation of the pre-sharding `TxnManager`: one
/// mutex orders begins, snapshots, and finishes; `xip` is exactly the active
/// set and `xmax` is the next unassigned id.
struct RefTm {
    clog: CommitLog,
    state: Mutex<RefState>,
}

impl RefTm {
    fn new() -> RefTm {
        RefTm {
            clog: CommitLog::new(),
            state: Mutex::new(RefState {
                next_txid: TxnId::FIRST_NORMAL.0,
                next_csn: CommitSeqNo::FIRST.0,
                active: BTreeSet::new(),
            }),
        }
    }

    fn begin(&self) -> TxnId {
        let mut st = self.state.lock().unwrap();
        let txid = TxnId(st.next_txid);
        st.next_txid += 1;
        st.active.insert(txid);
        drop(st);
        self.clog.register(txid);
        txid
    }

    fn snapshot(&self) -> Snapshot {
        let st = self.state.lock().unwrap();
        let xmax = TxnId(st.next_txid);
        Snapshot {
            xmin: st.active.iter().next().copied().unwrap_or(xmax),
            xmax,
            xip: st.active.iter().copied().collect(),
            csn: CommitSeqNo(st.next_csn),
        }
    }

    fn commit(&self, xid: TxnId) -> CommitSeqNo {
        let mut st = self.state.lock().unwrap();
        let csn = CommitSeqNo(st.next_csn);
        st.next_csn += 1;
        st.active.remove(&xid);
        self.clog.set_committed(xid, csn);
        csn
    }

    fn abort(&self, xid: TxnId) {
        let mut st = self.state.lock().unwrap();
        st.active.remove(&xid);
        self.clog.set_aborted(xid);
    }
}

// ---------------------------------------------------------------------------
// Proptest: randomized op sequences, observables must agree.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Begin on the given (real-manager) shard.
    Begin(usize),
    /// Commit the i-th oldest open transaction, if any.
    Commit(usize),
    /// Abort the i-th oldest open transaction, if any.
    Abort(usize),
    /// Take snapshots from both managers and compare them.
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4).prop_map(Op::Begin),
        2 => (0usize..8).prop_map(Op::Commit),
        1 => (0usize..8).prop_map(Op::Abort),
        3 => Just(Op::Snapshot),
    ]
}

/// Compare both managers' snapshots over every id pair ever created plus the
/// unborn successor ids, under the model↔real id bijection. (The proptest
/// shim's `prop_assert!` is a plain assertion, so this helper asserts
/// directly; the `proptest!` wrapper prints the generated inputs on panic.)
fn assert_snapshots_agree(pairs: &[(TxnId, TxnId)], model: &Snapshot, real: &Snapshot) {
    assert_eq!(model.csn, real.csn, "frontier must match");
    for &(m, r) in pairs {
        assert_eq!(
            model.is_in_progress(m),
            real.is_in_progress(r),
            "in-progress classification diverged for model {m:?} / real {r:?}"
        );
        // Ids that were never begun (reserved or unborn) must read in-progress
        // in both, whatever allocation scheme produced them. Probe just past
        // the largest issued id on each side.
        assert!(model.is_in_progress(TxnId(model.xmax.0)));
        assert!(real.is_in_progress(TxnId(real.xmax.0)));
    }
    // Structural invariants of the real snapshot: sorted unique xip within
    // [xmin, xmax) — the binary_search contract.
    assert!(real.xip.windows(2).all(|w| w[0] < w[1]));
    if let (Some(first), Some(last)) = (real.xip.first(), real.xip.last()) {
        assert!(*first >= real.xmin);
        assert!(*last < real.xmax);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_manager_matches_lock_everything_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        shards in 1usize..5,
        block in 1u64..9,
    ) {
        let model = RefTm::new();
        let real = TxnManager::with_config(&TxnConfig { id_shards: shards, txid_block: block });
        // (model id, real id) for every transaction ever begun; open ones too.
        let mut pairs: Vec<(TxnId, TxnId)> = Vec::new();
        let mut open: Vec<(TxnId, TxnId)> = Vec::new();

        for op in ops {
            match op {
                Op::Begin(shard) => {
                    let pair = (model.begin(), real.begin_on_shard(shard));
                    pairs.push(pair);
                    open.push(pair);
                }
                Op::Commit(i) => {
                    if open.is_empty() { continue; }
                    let (m, r) = open.remove(i % open.len());
                    let mc = model.commit(m);
                    let rc = real.commit(&[r]);
                    prop_assert_eq!(mc, rc, "commit CSNs must match");
                }
                Op::Abort(i) => {
                    if open.is_empty() { continue; }
                    let (m, r) = open.remove(i % open.len());
                    model.abort(m);
                    real.abort(&[r]);
                }
                Op::Snapshot => {
                    assert_snapshots_agree(&pairs, &model.snapshot(), &real.snapshot());
                }
            }
            // Clog statuses and activity must agree continuously, not just at
            // snapshot points.
            for &(m, r) in &pairs {
                let (ms, rs) = (model.clog.status(m), real.status(r));
                prop_assert_eq!(ms, rs, "clog status diverged");
                prop_assert_eq!(
                    matches!(ms, TxnStatus::InProgress),
                    real.is_active(r),
                    "is_active diverged"
                );
            }
            prop_assert_eq!(open.len(), real.active_count());
        }
        assert_snapshots_agree(&pairs, &model.snapshot(), &real.snapshot());
    }
}

// ---------------------------------------------------------------------------
// Racing begin/commit/snapshot stress: §4.1 mutual consistency.
// ---------------------------------------------------------------------------

/// Worker threads begin and finish transactions while snapshot threads take
/// snapshots and check, for every commit that fully completed before the
/// snapshot call, that the snapshot both orders it below its frontier and
/// classifies it as finished — and conversely that nothing in `xip` has a
/// commit CSN below the frontier. This is the invariant the SSI core's
/// "committed before snapshot" tests (paper §4.1) stand on.
#[test]
fn racing_begin_commit_snapshot_preserves_mutual_consistency() {
    let tm = Arc::new(TxnManager::with_config(&TxnConfig {
        id_shards: 4,
        txid_block: 8,
    }));
    // Commits that have completed, observable before any later snapshot call.
    let committed: Arc<Mutex<Vec<(TxnId, CommitSeqNo)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for shard in 0..4usize {
            let tm = Arc::clone(&tm);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = tm.begin_on_shard(shard);
                    if n % 5 == 4 {
                        tm.abort(&[t]);
                    } else {
                        let csn = tm.commit(&[t]);
                        // Publish *after* the commit returns: any snapshot
                        // call that starts after this push must see it.
                        committed.lock().unwrap().push((t, csn));
                    }
                    n += 1;
                }
            });
        }
        for _ in 0..2 {
            let tm = Arc::clone(&tm);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last_csn = CommitSeqNo(0);
                while !stop.load(Ordering::Relaxed) {
                    let done: Vec<(TxnId, CommitSeqNo)> = committed.lock().unwrap().clone();
                    let snap = tm.snapshot();
                    // Frontier monotonicity per observer.
                    assert!(snap.csn >= last_csn, "snapshot frontier went backwards");
                    last_csn = snap.csn;
                    // Structure: sorted unique xip inside the window.
                    assert!(snap.xip.windows(2).all(|w| w[0] < w[1]));
                    assert!(snap.xip.iter().all(|x| *x >= snap.xmin && *x < snap.xmax));
                    for (t, csn) in done {
                        assert!(
                            snap.committed_before(csn),
                            "{t:?} committed (csn {csn:?}) before snapshot (frontier \
                             {:?}) but is not below the frontier",
                            snap.csn
                        );
                        assert!(
                            !snap.is_in_progress(t),
                            "{t:?} committed before the snapshot but reads in-progress"
                        );
                    }
                    // Converse: nothing in xip committed below the frontier.
                    for &x in &snap.xip {
                        if let TxnStatus::Committed(c) = tm.status(x) {
                            assert!(
                                c >= snap.csn,
                                "{x:?} is in xip but committed at {c:?} < frontier {:?}",
                                snap.csn
                            );
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });
    // The run must have gone through the incremental maintenance path (one
    // cold full rebuild at most, then copy-on-write refreshes per finish).
    assert!(tm.stats.snapshot_incremental.get() > 0);
    assert!(tm.stats.snapshot_full_rebuilds.get() <= 1);
}

/// Cached (hit) snapshots must classify every transaction exactly like a
/// freshly rebuilt snapshot as long as no finish intervened — begins in
/// between are the interesting case, since they do NOT invalidate the cache.
#[test]
fn cached_snapshot_equals_rebuilt_snapshot_across_begins() {
    let tm = TxnManager::with_config(&TxnConfig {
        id_shards: 3,
        txid_block: 4,
    });
    let a = tm.begin_on_shard(0);
    let cached = tm.snapshot(); // rebuild
    let mut newcomers = Vec::new();
    for i in 0..20 {
        newcomers.push(tm.begin_on_shard(i % 3));
    }
    let hit = tm.snapshot(); // no finish intervened: served from cache
    assert_eq!(cached, hit, "cache hit must be byte-identical");
    assert!(hit.is_in_progress(a));
    for t in newcomers {
        assert!(
            hit.is_in_progress(t),
            "{t:?} began after the cached snapshot; it must read in-progress"
        );
    }
    // After a finish, the rebuilt snapshot agrees with a reference rebuild.
    tm.commit(&[a]);
    let s1 = tm.snapshot();
    let s2 = tm.snapshot();
    assert_eq!(s1, s2);
    assert!(!s1.is_in_progress(a));
}
