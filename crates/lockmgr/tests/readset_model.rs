//! Model-based and concurrency tests for read-set batching.
//!
//! Batching must be *verdict-preserving*: holding reads in a transaction-local
//! pending set and publishing them in batches may change how often partition
//! mutexes are taken, never what a writer's [`ConflictCheck`] reports. Two
//! checks enforce that here:
//!
//! 1. a proptest drives randomized read / write-probe / promote / release /
//!    commit / split / DDL sequences through three managers configured with
//!    `read_batch ∈ {1, 4, 64}` over the same op stream, asserting identical
//!    conflicting-holder verdicts at every probe and identical held sets at
//!    the end. The `read_batch = 1` arm is the eager reference — it never
//!    populates a pending set, and `siread_model.rs` pins that configuration
//!    to a naive single-map reimplementation of the pre-partitioning
//!    semantics, so agreement here is transitively agreement with the
//!    single-map model;
//! 2. a barrier-synchronized stress test races writer probes against readers
//!    whose read sets are entirely unpublished, proving the presence filter's
//!    no-false-negative guarantee end to end: once a read happens-before a
//!    probe, the probe reports the reader, every time, even though the read
//!    never touched a partition mutex on its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use pgssi_common::{CommitSeqNo, LockTarget, PageNo, RelId, SlotNo, SsiConfig};
use pgssi_lockmgr::siread::{ConflictCheck, SireadLockManager};
use pgssi_lockmgr::OwnerId;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Randomized op sequences.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Register(OwnerId),
    /// A read: SIREAD acquisition (pending under batching, resident eagerly).
    Read(OwnerId, LockTarget),
    /// A write probe: `conflicting_holders` over the target's check chain.
    /// Under batching this runs the filter-then-force-publish path.
    WriteProbe(LockTarget, OwnerId),
    /// Flush one owner's pending batch (the first-own-write / 2PC hook).
    Publish(OwnerId),
    ReleaseTarget(OwnerId, LockTarget),
    ReleaseOwner(OwnerId),
    /// Commit: fold the owner into per-target summarized CSNs (§6.2).
    Commit(OwnerId, u64),
    DropOldBefore(u64),
    PageSplit(RelId, PageNo, PageNo),
    PromoteRelation(RelId, RelId),
}

fn target_strategy() -> impl Strategy<Value = LockTarget> {
    (0u32..2, 0u32..4, 0u16..4, 0u8..3).prop_map(|(rel, page, slot, gran)| {
        let rel = RelId(rel + 1);
        match gran {
            0 => LockTarget::Relation(rel),
            1 => LockTarget::Page(rel, page),
            _ => LockTarget::Tuple(rel, page, slot as SlotNo),
        }
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1u64..5).prop_map(Op::Register),
        10 => (1u64..5, target_strategy()).prop_map(|(o, t)| Op::Read(o, t)),
        7 => (target_strategy(), 0u64..6).prop_map(|(t, x)| Op::WriteProbe(t, x)),
        2 => (1u64..5).prop_map(Op::Publish),
        2 => (1u64..5, target_strategy()).prop_map(|(o, t)| Op::ReleaseTarget(o, t)),
        1 => (1u64..5).prop_map(Op::ReleaseOwner),
        2 => (1u64..5, 1u64..20).prop_map(|(o, c)| Op::Commit(o, c)),
        1 => (1u64..20).prop_map(Op::DropOldBefore),
        1 => (0u32..2, 0u32..4, 0u32..4).prop_map(|(r, a, b)| Op::PageSplit(RelId(r + 1), a, b)),
        1 => (0u32..2, 0u32..2).prop_map(|(r, s)| Op::PromoteRelation(RelId(r + 1), RelId(s + 1))),
    ]
}

/// Promotions fire quickly so batched-vs-eager equivalence is exercised on
/// the promotion paths too; the owner-wide cap never fires (its
/// busiest-relation tie-break is unspecified across configurations).
fn model_config(read_batch: usize) -> SsiConfig {
    SsiConfig {
        read_batch,
        promote_tuple_threshold: 2,
        promote_page_threshold: 2,
        max_predicate_locks_per_txn: 10_000,
        ..SsiConfig::default()
    }
}

fn sorted_check(mut c: ConflictCheck) -> ConflictCheck {
    c.owners.sort_unstable();
    c
}

/// Batch sizes under test: eager reference, mid-sequence spills, and a batch
/// larger than any generated sequence (everything stays pending until a
/// probe, publish, or commit forces it out).
const BATCHES: [usize; 3] = [1, 4, 64];

fn apply_and_compare(ops: &[Op]) {
    let mgrs: Vec<SireadLockManager> = BATCHES
        .iter()
        .map(|&rb| SireadLockManager::new(model_config(rb)))
        .collect();
    let (eager, batched) = mgrs.split_first().expect("three managers");
    for op in ops {
        match *op {
            Op::Register(o) => mgrs.iter().for_each(|m| m.register_owner(o)),
            Op::Read(o, t) => mgrs.iter().for_each(|m| m.acquire(o, t)),
            Op::WriteProbe(t, exclude) => {
                let chain = t.check_chain();
                let want = sorted_check(eager.conflicting_holders(&chain, exclude));
                for (m, rb) in batched.iter().zip(&BATCHES[1..]) {
                    let got = sorted_check(m.conflicting_holders(&chain, exclude));
                    assert_eq!(
                        got, want,
                        "probe {t:?} exclude {exclude} diverged at read_batch {rb}"
                    );
                }
            }
            Op::Publish(o) => mgrs.iter().for_each(|m| {
                m.publish_pending(o);
            }),
            Op::ReleaseTarget(o, t) => mgrs.iter().for_each(|m| m.release_target(o, t)),
            Op::ReleaseOwner(o) => mgrs.iter().for_each(|m| m.release_owner(o)),
            Op::Commit(o, c) => mgrs
                .iter()
                .for_each(|m| m.consolidate_owner(o, CommitSeqNo(c))),
            Op::DropOldBefore(c) => mgrs
                .iter()
                .for_each(|m| m.drop_old_committed_before(CommitSeqNo(c))),
            Op::PageSplit(r, a, b) => mgrs.iter().for_each(|m| m.on_page_split(r, a, b)),
            Op::PromoteRelation(r, s) => mgrs.iter().for_each(|m| m.promote_relation(r, s)),
        }
    }
    // Final sweep: every tuple chain in the domain must report identically
    // from every batch size, and per-owner held sets (published ∪ pending)
    // must agree — batching may only move locks between the two, never
    // change what is held.
    for rel in 1..=2u32 {
        for page in 0..4u32 {
            for slot in 0..4u16 {
                let chain = LockTarget::Tuple(RelId(rel), page, slot).check_chain();
                for exclude in 0..6u64 {
                    let want = sorted_check(eager.conflicting_holders(&chain, exclude));
                    for (m, rb) in batched.iter().zip(&BATCHES[1..]) {
                        let got = sorted_check(m.conflicting_holders(&chain, exclude));
                        assert_eq!(got, want, "final sweep diverged at read_batch {rb}");
                    }
                }
            }
        }
    }
    for o in 1..5u64 {
        let mut want = eager.held_targets(o);
        want.sort_unstable();
        for (m, rb) in batched.iter().zip(&BATCHES[1..]) {
            let mut got = m.held_targets(o);
            got.sort_unstable();
            assert_eq!(got, want, "owner {o} held-set diverged at read_batch {rb}");
        }
    }
    // Retiring every owner must drain each manager's filter and table alike.
    for m in &mgrs {
        for o in 1..5u64 {
            m.release_owner(o);
        }
        m.drop_old_committed_before(CommitSeqNo(u64::MAX));
        assert_eq!(m.total_lock_count(), 0, "table leaked");
        assert_eq!(m.filter_pending_total(), 0, "filter leaked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_verdicts_match_the_eager_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        apply_and_compare(&ops);
    }
}

// ---------------------------------------------------------------------------
// Concurrency stress: the filter path under real races.
// ---------------------------------------------------------------------------

/// Writers race probes against readers whose read sets are entirely pending
/// (batch far larger than the per-round read count, so nothing self-spills).
/// Each round, readers acquire their tuples, everyone crosses a barrier (the
/// stand-in for the page-latch release/acquire pairing the engine provides),
/// and every writer probe must then report every reader — the filter may
/// only err toward a spurious force-publish walk, never toward a miss.
#[test]
fn writers_never_miss_unpublished_readers() {
    const READERS: usize = 4;
    const WRITERS: usize = 3;
    const ROUNDS: usize = 120;
    let config = SsiConfig {
        read_batch: 1024,
        ..SsiConfig::default()
    };
    let mgr = SireadLockManager::new(config);
    let start = Barrier::new(READERS + WRITERS);
    let probed = Barrier::new(READERS + WRITERS);
    let misses = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let mgr = &mgr;
            let (start, probed) = (&start, &probed);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let owner = (round * READERS + r + 1) as OwnerId;
                    mgr.register_owner(owner);
                    // A private tuple plus a shared one every reader touches,
                    // spread over pages so probes cross partitions.
                    mgr.acquire(
                        owner,
                        LockTarget::Tuple(RelId(1), r as PageNo, (round % 8) as SlotNo),
                    );
                    mgr.acquire(owner, LockTarget::Tuple(RelId(2), 0, 0));
                    start.wait(); // reads happen-before the writers' probes
                    probed.wait(); // probes happen-before the commit/release
                    if round % 2 == 0 {
                        mgr.consolidate_owner(owner, CommitSeqNo(round as u64 + 1));
                    } else {
                        mgr.release_owner(owner);
                    }
                }
            });
        }
        for w in 0..WRITERS {
            let mgr = &mgr;
            let (start, probed) = (&start, &probed);
            let misses = &misses;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    start.wait();
                    // Writer identity outside every reader owner range.
                    let me = (ROUNDS * READERS + w + 1) as OwnerId;
                    for r in 0..READERS {
                        let reader = (round * READERS + r + 1) as OwnerId;
                        let chain = LockTarget::Tuple(RelId(1), r as PageNo, (round % 8) as SlotNo)
                            .check_chain();
                        let check = mgr.conflicting_holders(&chain, me);
                        if !check.owners.contains(&reader) {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let shared = LockTarget::Tuple(RelId(2), 0, 0).check_chain();
                    let check = mgr.conflicting_holders(&shared, me);
                    for r in 0..READERS {
                        let reader = (round * READERS + r + 1) as OwnerId;
                        if !check.owners.contains(&reader) {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    probed.wait();
                }
            });
        }
    });

    assert_eq!(
        misses.load(Ordering::Relaxed),
        0,
        "a writer probe missed a reader whose read happened-before it"
    );
    // The probes above resolved through the filter: pending sets existed only
    // until the first overlapping probe forced them out.
    assert!(
        mgr.forced_publishes.get() > 0,
        "stress never hit the filter"
    );
    // Every owner retired: the table and the filter must both be empty.
    mgr.drop_old_committed_before(CommitSeqNo(ROUNDS as u64 + 2));
    assert_eq!(mgr.total_lock_count(), 0, "locks leaked under concurrency");
    assert_eq!(
        mgr.filter_pending_total(),
        0,
        "filter leaked under concurrency"
    );
}
