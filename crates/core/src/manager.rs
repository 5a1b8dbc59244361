//! The SSI runtime: conflict flagging, dangerous-structure detection, safe-retry
//! victim selection, read-only optimizations, cleanup, and summarization.
//!
//! This is the Rust analog of PostgreSQL's `predicate.c` — minus its single
//! `SerializableXactHashLock`. PostgreSQL guards the whole transaction graph
//! with one lightweight lock and the paper (§7, §8.3) calls it out as a
//! contention point; here the graph is decentralized the way Wang & Johnson's
//! SSN keeps per-transaction summary state:
//!
//! * the **record registry** (`SxactId → record`, `TxnId → record`) is one
//!   leaf mutex over both maps, held only for a lookup, insert or removal;
//! * each record's conflict-edge state has **its own lock** ([`Sxact::lock`]),
//!   and scalar facts third parties need (phase, commit/prepare CSN, wrote,
//!   read-only safety, doomed) are lock-free atomics on the record;
//! * a small **commit-order mutex** guards only begin/commit/abort *membership*
//!   (the active set and the committed-in-order queue) and the §6.1 horizon
//!   computation. The hot conflict paths (`on_read`, `on_write`,
//!   `on_mvcc_events`) never touch it.
//!
//! ## Lock-ordering invariant
//!
//! The hierarchy, outermost first:
//!
//! 1. the **commit-order mutex** (`order`): begin/commit/abort/recover and the
//!    safety condvar. Never taken by conflict flagging.
//! 2. **per-record edge locks**: at most two held at once, always acquired in
//!    ascending [`SxactId`] order ([`crate::sxact::lock_pair`]). Holding the
//!    order mutex, records may be locked **one at a time** (commit's CSN fold,
//!    read-only tracking, cleanup's peer fix-ups); never hold one record's
//!    lock while acquiring another outside `lock_pair`.
//! 3. the **registry mutex**: leaf-level — lookups clone the `Arc` and
//!    release the registry before any record lock is taken; insertion/removal
//!    may run under the order mutex or a record lock.
//! 4. the SIREAD lock manager and the serial table sit strictly below all of
//!    the above (either may be called with graph locks held; neither calls
//!    back in). The transaction manager's locks (via the `begin`/`commit`
//!    closures) are also below the order mutex and record locks.
//!
//! Dangerous-structure checks run under the **two endpoint locks** of the edge
//! being flagged (PostgreSQL's §3.1 two-edge test needs no global view): the
//! pivot's edge sets and earliest-out-conflict bound are read under its held
//! lock, and third-party T1/T3 facts are read from their records' atomic tier.
//! A stale atomic read always errs conservatively — an unseen commit reads as
//! "uncommitted", which can only *widen* the set of structures judged
//! dangerous — and every fact is re-validated by the counterpart's own later
//! check (each edge's last flagger re-runs both pivot checks; every committer
//! re-runs them at `precommit` under its own lock). Victims that are not an
//! endpoint of the held pair are doomed *after* the pair is released via
//! [`Sxact::doom_if_abortable`], which re-checks abortability under the
//! victim's lock — if the victim prepared first, the acting transaction aborts
//! instead (always safe, §5.4).
//!
//! ## Removal protocol (abort, §6.1 cleanup, §6.2 summarization)
//!
//! Records are removed in a fixed order so concurrent flaggers never lose
//! conflict information: (1) publish anything that must outlive the record
//! (§6.2 folds the commit CSN into the SIREAD table via `consolidate_owner`
//! and writes the serial-table entry *first*); (2) set the `gone` tombstone
//! under the record's lock — from here flaggers fall back to the
//! vanished-record paths, which are guaranteed to see the folded csn; (3) fix
//! up peers' edge sets (degrading edges to summary flags for §6.2); (4) remove
//! the registry entries. A peer's edge set therefore only names ids that are
//! still resolvable, and a failed lookup means the record was provably
//! irrelevant (cleaned) or its information had already been folded.
//!
//! §6.2's O(degree) summarization walk runs *outside* the commit-order mutex:
//! commit only pops the over-limit records from the committed queue under the
//! mutex and degrades their edges afterwards, so huge conflict fan-out cannot
//! stall concurrent begins/commits.
//!
//! ## Where conflicts come from (paper §5.2)
//!
//! * **Write then read**: MVCC visibility checks already see the writer's xid in
//!   the tuple header; the storage layer reports [`VisEvent`]s which the engine
//!   forwards to [`SsiManager::on_mvcc_events`].
//! * **Read then write**: writers call [`SsiManager::on_write`], which probes the
//!   SIREAD table coarse-to-fine and flags an edge for every holder.
//!
//! ## When aborts happen (paper §3.3.1, §4.1, §5.4)
//!
//! Every flagged edge and every pre-commit runs the dangerous-structure check
//! `T1 –rw→ T2 –rw→ T3`, filtered by the commit-ordering optimization (`T3` must
//! have committed first) and the read-only rule (read-only `T1` requires `T3` to
//! have committed before `T1`'s snapshot — Theorem 3). Victims follow the safe
//! retry rules: nothing is aborted until `T3` commits; prefer the pivot `T2`;
//! never abort a prepared transaction.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pgssi_common::sim::{self, Site, WakeReason};
use pgssi_common::stats::{Counter, Histogram, TraceTag, Tracer};
use pgssi_common::{CommitSeqNo, Error, LockTarget, Result, SerializationKind, SsiConfig, TxnId};
use pgssi_lockmgr::siread::SireadLockManager;
use pgssi_storage::clog::{CommitLog, TxnStatus};
use pgssi_storage::visibility::VisEvent;

use crate::serial::SerialTable;
use crate::sxact::{lock_pair, Phase, Sxact, SxactId, SxactMut};
use crate::twophase::PreparedSsi;

/// Shared handle to a serializable-transaction record.
type SxRef = Arc<Sxact>;

/// §8.4 commit metadata: everything a WAL follower needs to decide snapshot
/// safety locally, captured **inside the commit-order mutex** at the instant
/// the commit order is decided. That placement is what makes the digest
/// authoritative: serializable `begin`s take their snapshots under the same
/// mutex, so the `concurrent_rw` set is exactly the set of serializable
/// read/write transactions whose fate decides the safety of any snapshot
/// taken in the same critical section — no begin can slip between the
/// membership read and the snapshot (the same argument
/// [`SsiManager::commit_checked`] relies on for the pivot re-check).
#[derive(Clone, Debug)]
pub struct CommitDigest {
    /// The committing transaction's top-level xid.
    pub txid: TxnId,
    /// Its commit sequence number.
    pub commit_csn: CommitSeqNo,
    /// Whether the committer ran under SSI (false for SI/RC/2PL commits
    /// observed via [`SsiManager::observe_commit`]).
    pub serializable: bool,
    /// Declared `READ ONLY` (never shipped; can make no snapshot unsafe).
    pub declared_read_only: bool,
    /// Performed at least one write.
    pub wrote: bool,
    /// Had at least one rw-antidependency in at commit (`T –rw→ me`),
    /// including summarized ones.
    pub had_in_conflict: bool,
    /// Had at least one rw-antidependency out at commit (`me –rw→ T`),
    /// including summarized ones.
    pub had_out_conflict: bool,
    /// Earliest commit CSN among committed out-conflict targets at commit
    /// time (`CommitSeqNo::MAX` = none). A snapshot `S` concurrent with this
    /// transaction is made unsafe by this commit iff the transaction wrote
    /// and this bound is `< S.csn` (§4.2). Later folds into the live record
    /// can only add CSNs greater than this commit's own, which are `≥` every
    /// candidate snapshot's csn taken at or before it — so the value shipped
    /// here is final for every snapshot a follower will ever judge with it.
    pub earliest_out_conflict_commit: CommitSeqNo,
    /// Serializable read/write transactions (active or prepared, declared
    /// read-only excluded) in flight at this commit — the transactions
    /// concurrent with a snapshot taken in the same commit-order section.
    pub concurrent_rw: Vec<TxnId>,
}

impl CommitDigest {
    /// Does this commit make a snapshot with frontier `snapshot_csn`, taken
    /// while this transaction was in flight, unsafe for serializable
    /// read-only use (§4.2)? A writeless commit never does — no reader can
    /// have an rw-antidependency out to a transaction that wrote nothing.
    pub fn makes_unsafe(&self, snapshot_csn: CommitSeqNo) -> bool {
        self.wrote
            && self.earliest_out_conflict_commit != CommitSeqNo::MAX
            && self.earliest_out_conflict_commit.is_valid()
            && self.earliest_out_conflict_commit < snapshot_csn
    }
}

/// Whether a read-only transaction's snapshot has been proven safe (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyState {
    /// Proven safe: SIREAD locks dropped, no abort risk.
    Safe,
    /// Proven unsafe: continues under full SSI tracking.
    Unsafe,
    /// Concurrent read/write transactions are still running.
    Pending,
}

/// Event counters exposed for benchmarks and tests.
#[derive(Default)]
pub struct SsiStats {
    /// rw-antidependency edges flagged.
    pub conflicts_flagged: Counter,
    /// Dangerous structures that met the abort conditions.
    pub dangerous_structures: Counter,
    /// Serialization failures returned to the acting transaction.
    pub aborts_self: Counter,
    /// Other transactions marked for death (doomed).
    pub doomed_set: Counter,
    /// Aborts due to conflicts against summarized state (§6.2).
    pub summary_aborts: Counter,
    /// Read-only transactions that began on an immediately safe snapshot.
    pub safe_immediate: Counter,
    /// Read-only transactions whose snapshot was later proven safe.
    pub safe_established: Counter,
    /// Read-only transactions whose snapshot was proven unsafe.
    pub unsafe_snapshots: Counter,
    /// Committed transactions summarized under memory pressure.
    pub summarized: Counter,
    /// Committed transactions freed by horizon cleanup (§6.1).
    pub cleaned: Counter,
    /// Time (ns) a successful commit spends inside the commit-order critical
    /// section — from reaching for the order mutex (so acquisition waits are
    /// included) to releasing it. Begins and aborts serialize on the same
    /// mutex; this histogram is the direct measure of that bottleneck.
    pub commit_order_ns: Histogram,
}

/// Record registry: `SxactId → record` and `TxnId → record` (subtransaction
/// aliases included), both behind one leaf mutex — the scope of PostgreSQL's
/// `SerializableXactHashLock`. Conflict state lives on the records, not here.
#[derive(Default)]
struct Registry(Mutex<RegistryMaps>);

#[derive(Default)]
struct RegistryMaps {
    by_id: HashMap<u64, SxRef>,
    by_txid: HashMap<TxnId, SxRef>,
}

impl Registry {
    fn get(&self, id: SxactId) -> Option<SxRef> {
        self.0.lock().by_id.get(&id.0).cloned()
    }

    fn get_txid(&self, txid: TxnId) -> Option<SxRef> {
        self.0.lock().by_txid.get(&txid).cloned()
    }

    fn insert(&self, rec: &SxRef) {
        let mut maps = self.0.lock();
        maps.by_id.insert(rec.id.0, Arc::clone(rec));
        maps.by_txid.insert(rec.txid, Arc::clone(rec));
    }

    fn insert_txid(&self, txid: TxnId, rec: &SxRef) {
        self.0.lock().by_txid.insert(txid, Arc::clone(rec));
    }

    fn remove(&self, id: SxactId, txid: TxnId, aliases: &[TxnId]) {
        let mut maps = self.0.lock();
        maps.by_id.remove(&id.0);
        maps.by_txid.remove(&txid);
        for a in aliases {
            maps.by_txid.remove(a);
        }
    }

    fn record_count(&self) -> usize {
        self.0.lock().by_id.len()
    }
}

/// Membership state guarded by the commit-order mutex: who is active/prepared,
/// and the committed records retained in commit order (front = oldest).
struct CommitOrder {
    active: HashMap<SxactId, SxRef>,
    committed: VecDeque<SxRef>,
}

/// SIREAD-table mutations decided under graph locks but executed after they
/// are released, so whole-table work never extends a critical section.
/// Everything collected here *removes* locks, and removing a SIREAD lock late
/// is conservative: the worst case is a spurious rw-conflict flag, never a
/// missed one. (§6.2 consolidation instead runs *before* the record becomes
/// unresolvable — see the module docs' removal protocol.)
#[derive(Default)]
struct DeferredLockOps {
    /// Owners whose SIREAD locks should be released wholesale.
    release_owners: Vec<u64>,
    /// Run the §6.1 summarized-lock sweep up to this horizon.
    drop_summarized_before: Option<CommitSeqNo>,
}

impl DeferredLockOps {
    fn run(self, siread: &SireadLockManager) {
        for o in self.release_owners {
            siread.release_owner(o);
        }
        if let Some(h) = self.drop_summarized_before {
            siread.drop_old_committed_before(h);
        }
    }
}

/// Cheap env-gated tracing for debugging conflict detection (`PGSSI_TRACE=1`).
macro_rules! trace {
    ($($arg:tt)*) => {
        if *TRACE {
            eprintln!($($arg)*);
        }
    };
}

static TRACE: std::sync::LazyLock<bool> =
    std::sync::LazyLock::new(|| std::env::var_os("PGSSI_TRACE").is_some());

/// The serializable-transaction manager (PostgreSQL's `predicate.c` state).
pub struct SsiManager {
    config: SsiConfig,
    siread: SireadLockManager,
    serial: SerialTable,
    reg: Registry,
    /// Next record id; 0 is the dummy old-committed owner.
    next_id: AtomicU64,
    order: Mutex<CommitOrder>,
    safety_cv: Condvar,
    /// Test-only gate: emulate the historical pivot-precommit race by
    /// skipping the order-mutex-authoritative `pivot_commit_check` re-run at
    /// commit (restoring the precommit-only logic this repo shipped before
    /// the race was fixed). The deterministic-simulation regression tests
    /// flip this on to prove the harness finds the bug on pinned seeds;
    /// nothing in production code sets it.
    emulate_pivot_race: std::sync::atomic::AtomicBool,
    /// Event counters.
    pub stats: SsiStats,
    /// Per-transaction lifecycle tracer (disabled ring unless the engine
    /// passes an enabled one through [`SsiManager::with_tracer`]).
    tracer: Arc<Tracer>,
}

impl SsiManager {
    /// New manager with the given configuration and a disabled tracer.
    pub fn new(config: SsiConfig) -> SsiManager {
        SsiManager::with_tracer(config, Arc::new(Tracer::disabled()))
    }

    /// New manager recording lifecycle events into `tracer`. The engine owns
    /// the tracer (it survives simulated crash recovery) and shares it here.
    pub fn with_tracer(config: SsiConfig, tracer: Arc<Tracer>) -> SsiManager {
        SsiManager {
            siread: SireadLockManager::new(config.clone()),
            serial: SerialTable::new(config.serial_ram_pages),
            reg: Registry::default(),
            config,
            next_id: AtomicU64::new(1),
            order: Mutex::new(CommitOrder {
                active: HashMap::new(),
                committed: VecDeque::new(),
            }),
            safety_cv: Condvar::new(),
            emulate_pivot_race: std::sync::atomic::AtomicBool::new(false),
            stats: SsiStats::default(),
            tracer,
        }
    }

    /// Enable/disable the pivot-race emulation (see the field docs). Test
    /// hook for the simulation regression suite; defaults to off.
    pub fn set_emulate_pivot_race(&self, on: bool) {
        self.emulate_pivot_race.store(on, Ordering::Relaxed);
    }

    /// The active configuration.
    pub fn config(&self) -> &SsiConfig {
        &self.config
    }

    /// Acquire the commit-order mutex.
    ///
    /// Under the simulator this is a yield point followed by a
    /// `try_lock`-with-yield spin instead of a kernel block: yield points
    /// exist *inside* order-holding critical sections (the durable-WAL append
    /// in the engine's commit closure runs under this mutex), so a sim thread
    /// must never block in the kernel on a mutex whose holder is parked — it
    /// would hold the run token forever. Real mode takes the plain lock.
    fn lock_order(&self) -> MutexGuard<'_, CommitOrder> {
        if sim::is_sim_thread() {
            sim::yield_point(Site::CommitOrder);
            loop {
                if let Some(g) = self.order.try_lock() {
                    return g;
                }
                sim::yield_point(Site::LockSpin);
            }
        }
        self.order.lock()
    }

    /// The SIREAD lock manager (diagnostics and tests).
    pub fn siread(&self) -> &SireadLockManager {
        &self.siread
    }

    /// The serial overflow table (diagnostics and tests).
    pub fn serial(&self) -> &SerialTable {
        &self.serial
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Register a serializable transaction. `acquire_snapshot` runs **under
    /// the commit-order mutex** and must take the transaction's MVCC snapshot;
    /// commits and aborts also hold that mutex, so no commit (and in
    /// particular no horizon cleanup or summarization trigger, §6) can slip
    /// between the snapshot and the registration — otherwise a concurrent
    /// committed transaction's record could be freed while this transaction
    /// still needs its conflict data.
    ///
    /// For declared read-only transactions (with the read-only optimization
    /// enabled), records the set of concurrent read/write serializable
    /// transactions whose commits decide snapshot safety (§4.2). If there are
    /// none, the snapshot is immediately safe and the transaction runs with no
    /// SSI overhead at all.
    pub fn begin(
        &self,
        txid: TxnId,
        acquire_snapshot: impl FnOnce() -> CommitSeqNo,
        declared_read_only: bool,
        deferrable: bool,
    ) -> SxactId {
        let mut order = self.lock_order();
        let snapshot_csn = acquire_snapshot();
        let id = SxactId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let rec = Arc::new(Sxact::new(
            id,
            txid,
            snapshot_csn,
            declared_read_only,
            deferrable,
        ));
        if declared_read_only && self.config.enable_read_only_opt {
            let rw: Vec<SxRef> = order
                .active
                .values()
                .filter(|a| !a.declared_read_only)
                .cloned()
                .collect();
            if rw.is_empty() {
                rec.set_ro_safe();
                self.stats.safe_immediate.bump();
            } else {
                for w in &rw {
                    w.lock().ro_trackers.insert(id);
                }
                rec.lock().possible_unsafe = rw.iter().map(|w| w.id).collect();
            }
        }
        let needs_locks = !rec.ro_safe();
        order.active.insert(id, Arc::clone(&rec));
        self.reg.insert(&rec);
        drop(order);
        self.tracer.record(txid.0, TraceTag::Begin, 0);
        if needs_locks {
            // Registered after the order mutex is dropped: this transaction's
            // own thread is the only one that will acquire locks for it, and
            // it cannot do so before `begin` returns. A concurrent
            // safe-snapshot release racing ahead of the registration just
            // removes an empty owner (or no owner at all) — both harmless.
            self.siread.register_owner(id.0);
        }
        id
    }

    /// Register a subtransaction id (savepoint, §7.3) as an alias of `sx`:
    /// MVCC conflict events naming the subxid resolve to the parent's record.
    pub fn register_subxid(&self, sx: SxactId, subxid: TxnId) {
        let Some(rec) = self.reg.get(sx) else { return };
        let mut g = rec.lock();
        if g.gone {
            return;
        }
        g.alias_txids.push(subxid);
        // Registered while the record's lock is held (the registry mutex is
        // leaf-level): a racing removal either sees the alias in the list (it
        // drains aliases under this same lock) or has already set `gone`.
        self.reg.insert_txid(subxid, &rec);
    }

    /// Return [`Error::SerializationFailure`] if another transaction marked this
    /// one for death (§5.4). The engine calls this at every operation and aborts
    /// the transaction on error. Lock-free.
    pub fn check_doomed(&self, sx: SxactId) -> Result<()> {
        match self.reg.get(sx) {
            Some(x) if x.is_doomed() => Err(Error::serialization(
                SerializationKind::Doomed,
                format!("{:?} was chosen as a serialization-failure victim", x.txid),
            )),
            _ => Ok(()),
        }
    }

    /// Take SIREAD locks for a read (relation/page/tuple targets as appropriate
    /// for the access path). No-op for transactions on safe snapshots.
    ///
    /// The safety flag is an atomic on the record, so this path takes no graph
    /// lock at all beyond the registry lookup: if a concurrent
    /// safe-snapshot determination releases this owner between the check and
    /// the acquisitions (§4.2), the lock manager drops acquisitions for
    /// released owners, so the transaction still ends holding nothing.
    pub fn on_read(&self, sx: SxactId, targets: &[LockTarget]) {
        let Some(rec) = self.reg.get(sx) else { return };
        if rec.ro_safe() {
            return;
        }
        for t in targets {
            self.siread.acquire(sx.0, *t);
        }
    }

    /// [`SsiManager::on_read`] for transactions *not* declared read-only: they
    /// can never become RO-safe, so even the registry lookup is unnecessary —
    /// only the SIREAD table is touched. This is the hot path for every read
    /// in a read/write serializable transaction.
    pub fn on_read_rw(&self, sx: SxactId, targets: &[LockTarget]) {
        for t in targets {
            self.siread.acquire(sx.0, *t);
        }
    }

    /// Process write-before-read conflicts discovered by MVCC visibility checks
    /// (§5.2): each event names a writer whose update this reader did not see.
    pub fn on_mvcc_events(&self, sx: SxactId, events: &[VisEvent], clog: &CommitLog) -> Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        // Decode and dedup the events, and pre-probe the commit log, before
        // taking any record lock — pure computation has no business inside one.
        let mut writers: Vec<TxnId> = Vec::with_capacity(events.len());
        {
            let mut seen: HashSet<TxnId> = HashSet::with_capacity(events.len());
            for ev in events {
                let w = ev.writer();
                if seen.insert(w) {
                    writers.push(w);
                }
            }
        }
        let statuses: Vec<TxnStatus> = writers.iter().map(|w| clog.status(*w)).collect();
        let Some(me) = self.reg.get(sx) else {
            return Ok(());
        };
        if me.ro_safe() {
            return Ok(()); // safe snapshot: no tracking, no abort risk (§4.2)
        }
        if me.is_doomed() {
            return Err(Error::serialization(
                SerializationKind::Doomed,
                "doomed transaction continued reading",
            ));
        }
        let my_snapshot = me.snapshot_csn;
        for (w, pre_status) in writers.into_iter().zip(statuses) {
            let mut vanished = false;
            if let Some(wrec) = self.reg.get_txid(w) {
                if wrec.id == sx {
                    continue;
                }
                let mut dooms: Vec<SxRef> = Vec::new();
                let res = {
                    let (mut mg, mut wg) = lock_pair(&me, &wrec);
                    if wg.gone {
                        // Removed between lookup and lock: fall through to the
                        // summarized/clog path, which is guaranteed to see any
                        // folded state (removal publishes it first).
                        vanished = true;
                        Ok(())
                    } else if wrec.phase() == Phase::Aborted || wrec.is_doomed() {
                        trace!("mvcc event {sx:?} -> writer {w:?} skipped (aborted/doomed)");
                        Ok(())
                    } else if wrec.commit_csn().is_some_and(|wc| wc < my_snapshot) {
                        // A writer that committed before our snapshot is not
                        // concurrent; its lingering record is not a conflict.
                        trace!("mvcc event {sx:?} -> writer {w:?} skipped (pre-snapshot)");
                        Ok(())
                    } else {
                        self.flag_conflict_locked(&me, &mut mg, &wrec, &mut wg, sx, &mut dooms)
                    }
                };
                self.finish_checks(res, dooms)?;
                if !vanished {
                    continue;
                }
            }
            // No (live) record: the writer committed long ago, was summarized,
            // or was not serializable. Only a concurrent committed serializable
            // writer matters. The pre-probed status is authoritative when it
            // says Committed/Aborted (both final); an InProgress reading is
            // stale if the writer committed *and was summarized* between the
            // probe and this point, so it is re-read here (the serial-table
            // entry is published before the record becomes unresolvable).
            let status = match pre_status {
                TxnStatus::InProgress => clog.status(w),
                s => s,
            };
            let TxnStatus::Committed(wcsn) = status else {
                continue;
            };
            if wcsn < my_snapshot {
                continue;
            }
            let Some(e) = self.serial.lookup(w) else {
                continue; // non-serializable writer
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let mut mg = me.lock();
                self.conflict_out_to_summarized(&me, &mut mg, wcsn, e, &mut dooms)
            };
            self.finish_checks(res, dooms)?;
        }
        Ok(())
    }

    /// Edge to a summarized committed writer `W` (`me –rw→ W`), with `e` = W's
    /// earliest out-conflict commit from the serial table (§6.2). Runs with
    /// `me`'s lock held (`mg`).
    fn conflict_out_to_summarized(
        &self,
        me: &SxRef,
        mg: &mut SxactMut,
        w_commit: CommitSeqNo,
        e: CommitSeqNo,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        self.stats.conflicts_flagged.bump();
        mg.summary_conflict_out = true;
        mg.earliest_out_conflict_commit = mg.earliest_out_conflict_commit.min(w_commit);
        // Structure A': t1 = me, t2 = W (committed), t3 from the serial table.
        // Conservative conditions (slightly stricter than PostgreSQL's
        // `e < my snapshot`; see DESIGN.md): t3 committed first (e < W's commit)
        // and, if the read-only rule applies to me, e < my snapshot.
        if e != CommitSeqNo::MAX && e.is_valid() {
            let commit_order_ok = e < w_commit;
            let ro_ok =
                !(self.config.enable_read_only_opt && me.is_read_only()) || e < me.snapshot_csn;
            if commit_order_ok && ro_ok {
                // t2 and t3 both committed: the only possible victim is me (§5.4
                // rule 3 — and retrying is safe, since both are committed).
                self.stats.dangerous_structures.bump();
                self.stats.summary_aborts.bump();
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::SummaryConflict,
                    "conflict out to an old pivot (summarized transaction)",
                ));
            }
        }
        // Structure B: t2 = me (pivot), t3 = W committed at w_commit.
        self.check_pivot_in_with_t3(me, mg, Some(w_commit), me.id, dooms)
    }

    /// Process a write: check SIREAD locks coarse-to-fine for read-before-write
    /// conflicts (§5.2.1). `written_tuple` enables the write-lock-drop
    /// optimization — a transaction that writes a tuple may drop its own SIREAD
    /// lock on it, except inside a subtransaction (§7.3).
    pub fn on_write(
        &self,
        sx: SxactId,
        chain: &[LockTarget],
        written_tuple: Option<LockTarget>,
        in_subtransaction: bool,
    ) -> Result<()> {
        let Some(me) = self.reg.get(sx) else {
            return Ok(());
        };
        if me.is_doomed() {
            return Err(Error::serialization(
                SerializationKind::Doomed,
                "doomed transaction attempted a write",
            ));
        }
        // First own write: publish the accumulated read-set batch. A writing
        // transaction's reads are probed by every peer writer, so keeping
        // them pending would just trade this one spill for repeated
        // filter-hit walks on the peers' probes.
        if !me.wrote() {
            let published = self.siread.publish_pending(sx.0);
            self.tracer.record(me.txid.0, TraceTag::FirstWrite, 0);
            if published > 0 {
                self.tracer
                    .record(me.txid.0, TraceTag::Publish, published as u64);
            }
        }
        me.set_wrote();
        // Probe the (partitioned) SIREAD table before any record lock: the
        // probe touches at most two partitions, so concurrent writers on
        // disjoint data don't serialize here.
        let check = self.siread.conflicting_holders(chain, sx.0);
        trace!(
            "on_write {:?} chain={:?} holders={:?}",
            sx,
            chain,
            check.owners
        );
        let my_snapshot = me.snapshot_csn;
        let mut vanished_holder = false;
        for holder in check.owners {
            let hid = SxactId(holder);
            if hid == sx {
                continue;
            }
            let Some(h) = self.reg.get(hid) else {
                // The record vanished between the pre-lock probe and here:
                // cleaned (committed before every active snapshot — provably
                // no conflict), aborted, or §6.2-summarized. Only the last
                // still matters; the summarized-csn re-read below catches it.
                vanished_holder = true;
                continue;
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let (mut hg, mut mg) = lock_pair(&h, &me);
                if hg.gone {
                    vanished_holder = true;
                    Ok(())
                } else if h.phase() == Phase::Aborted || h.is_doomed() {
                    Ok(())
                } else if h.commit_csn().is_some_and(|hc| hc < my_snapshot) {
                    // Reader committed before our snapshot: not concurrent.
                    Ok(())
                } else {
                    self.flag_conflict_locked(&h, &mut hg, &me, &mut mg, sx, &mut dooms)
                }
            };
            self.finish_checks(res, dooms)?;
        }
        let mut summarized_csn = check.old_committed_csn;
        if vanished_holder {
            // A probed holder was summarized (or cleaned) after the probe.
            // Summarization folds its csn into the lock table *before* the
            // record becomes unresolvable (removal protocol, module docs), so
            // re-reading the table here is guaranteed to see the folded csn.
            summarized_csn = summarized_csn.max(self.siread.summarized_csn(chain));
        }
        if let Some(c) = summarized_csn {
            if c >= my_snapshot {
                // A summarized reader was concurrent with us: T1 exists but its
                // identity is lost (§6.2). Flag it and check the pivot structure
                // with t1 = "some transaction that committed at or before c".
                self.stats.conflicts_flagged.bump();
                let res = {
                    let mut mg = me.lock();
                    mg.summary_conflict_in = true;
                    let e = mg.earliest_out_conflict_commit;
                    // t3 must have committed before t1 (bounded above by c)
                    // and before me (uncommitted → unbounded).
                    if e != CommitSeqNo::MAX && e < c {
                        self.stats.dangerous_structures.bump();
                        self.stats.summary_aborts.bump();
                        self.stats.aborts_self.bump();
                        Err(Error::serialization(
                            SerializationKind::SummaryConflict,
                            "identified as pivot against a summarized reader",
                        ))
                    } else {
                        Ok(())
                    }
                };
                res?;
            }
        }
        let allow_drop = !in_subtransaction && !me.ro_safe();
        if allow_drop {
            if let Some(t) = written_tuple {
                self.siread.release_target(sx.0, t);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Conflict flagging and dangerous-structure checks
    // ------------------------------------------------------------------

    /// Record `reader –rw→ writer` and run the failure checks. Runs with both
    /// endpoints' locks held (`rg`/`wg`); `acting` is the transaction
    /// performing the current operation. If it must die, an error is returned;
    /// pivot victims are doomed in place (under their held lock), and
    /// third-party T1 victims are pushed into `dooms` for the caller to claim
    /// after the pair is released.
    fn flag_conflict_locked(
        &self,
        reader: &SxRef,
        rg: &mut SxactMut,
        writer: &SxRef,
        wg: &mut SxactMut,
        acting: SxactId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        if reader.id == writer.id {
            return Ok(());
        }
        let new_edge = !rg.out_conflicts.contains(&writer.id);
        if new_edge {
            rg.out_conflicts.insert(writer.id);
            if let Some(wc) = writer.commit_csn() {
                rg.earliest_out_conflict_commit = rg.earliest_out_conflict_commit.min(wc);
            }
            wg.in_conflicts.insert(reader.id);
            self.stats.conflicts_flagged.bump();
            // Two halves of one rw-antidependency edge, from each endpoint's
            // point of view (a pivot shows one ConflictIn and one ConflictOut).
            self.tracer
                .record(reader.txid.0, TraceTag::ConflictOut, writer.txid.0);
            self.tracer
                .record(writer.txid.0, TraceTag::ConflictIn, reader.txid.0);
            trace!(
                "edge {:?}(txid {:?}) -rw-> {:?}(txid {:?}) acting={:?}",
                reader.id,
                reader.txid,
                writer.id,
                writer.txid,
                acting
            );
        }
        // Structure A: writer is the pivot (t1 = reader, t2 = writer, t3 = some
        // committed out-conflict of the writer).
        self.check_pivot_out(reader, writer, wg, acting, dooms)?;
        // Structure B: reader is the pivot (t1 ∈ reader's in-conflicts,
        // t2 = reader, t3 = writer). The writer's lock is held, so its
        // commit-or-prepare CSN is exact.
        let t3_csn = writer.commit_or_prepare_csn();
        self.check_pivot_in_with_t3(reader, rg, t3_csn, acting, dooms)?;
        Ok(())
    }

    /// Structure A: is `t2` a pivot with a committed out-conflict, completing a
    /// dangerous structure with the (new) in-edge from `t1`? Both locks held.
    fn check_pivot_out(
        &self,
        t1: &SxRef,
        t2: &SxRef,
        t2g: &SxactMut,
        acting: SxactId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let e = t2g.earliest_out_conflict_commit;
        // T3 must be the first of the three to commit (§3.3.1). The
        // comparisons are non-strict because T1 and T3 may be the *same*
        // transaction (2-cycles like write skew): then e == t1's CSN and
        // the structure is still dangerous. Prepared-but-uncommitted
        // transactions count as "not committed yet" (bound = ∞): their
        // prepare CSN is only a lower bound on the eventual commit.
        let t1_bound = t1.commit_csn().unwrap_or(CommitSeqNo::MAX);
        let t2_bound = t2.commit_csn().unwrap_or(CommitSeqNo::MAX);
        let dangerous = e != CommitSeqNo::MAX && e <= t1_bound && e <= t2_bound;
        if !dangerous {
            return Ok(());
        }
        // Read-only rule (Theorem 3): a read-only T1 is only part of an anomaly
        // if T3 committed before T1's snapshot.
        if self.config.enable_read_only_opt
            && t1.is_read_only()
            && !(e != CommitSeqNo::MAX && e < t1.snapshot_csn)
        {
            return Ok(());
        }
        self.stats.dangerous_structures.bump();
        self.resolve_failure(Some(t1), t2, acting, dooms)
    }

    /// Structure B: is `t2` a pivot whose out-edge reaches a committed `t3`?
    /// Iterates `t2`'s in-conflicts (plus the summarized-in flag) as T1
    /// candidates, reading each candidate's facts from its atomic tier
    /// (conservative when stale). `t3_csn` is `None` while T3 is uncommitted.
    /// Runs with `t2`'s lock held; T1 may legitimately be T3 itself (2-cycles
    /// like write skew) — the in-edge from t3 still completes the cycle, so no
    /// candidate is excluded.
    fn check_pivot_in_with_t3(
        &self,
        t2: &SxRef,
        t2g: &SxactMut,
        t3_csn: Option<CommitSeqNo>,
        acting: SxactId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let Some(c) = t3_csn else {
            // Nothing to do until T3 commits (safe-retry rule 1, §5.4); the
            // pre-commit check on T3 handles it.
            return Ok(());
        };
        if t2.commit_csn().is_some_and(|t2_commit| c > t2_commit) {
            return Ok(()); // T2 committed before T3: T3 is not first
        }
        // BTreeSet iteration: candidates are visited in ascending id order, so
        // victim choice is deterministic.
        let mut candidates: Vec<Option<SxRef>> = t2g
            .in_conflicts
            .iter()
            .filter_map(|x| self.reg.get(*x))
            .map(Some)
            .collect();
        if t2g.summary_conflict_in {
            candidates.push(None); // summarized T1: commit time unknown, not RO
        }
        for t1 in candidates {
            let dangerous = match &t1 {
                Some(t1x) => {
                    if t1x.phase() == Phase::Aborted {
                        // Mid-removal aborted peer still listed: never part of
                        // a cycle (under one global lock this was unobservable).
                        continue;
                    }
                    // Non-strict: T1 may be T3 itself (2-cycles). Prepared
                    // counts as uncommitted (see check_pivot_out).
                    let t1_bound = t1x.commit_csn().unwrap_or(CommitSeqNo::MAX);
                    let commit_order_ok = c <= t1_bound;
                    let ro_ok = !(self.config.enable_read_only_opt && t1x.is_read_only())
                        || c < t1x.snapshot_csn;
                    commit_order_ok && ro_ok
                }
                // Summarized T1: conservatively dangerous (identity and commit
                // time lost; cannot apply either optimization).
                None => true,
            };
            if dangerous {
                self.stats.dangerous_structures.bump();
                self.resolve_failure(t1.as_ref(), t2, acting, dooms)?;
            }
        }
        Ok(())
    }

    /// Safe-retry victim selection (§5.4): prefer the pivot `t2`; fall back to
    /// `t1`; if neither can be aborted (committed or prepared), the acting
    /// transaction dies. Runs with `t2`'s lock held (its doom is applied in
    /// place); a T1 victim is *deferred* into `dooms` — the caller claims it
    /// via [`Sxact::doom_if_abortable`] after releasing its pair, and aborts
    /// the acting transaction if the victim prepared first.
    fn resolve_failure(
        &self,
        t1: Option<&SxRef>,
        t2: &SxRef,
        acting: SxactId,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        if t2.is_abortable() {
            if t2.id == acting {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::PivotAbort,
                    "this transaction is the pivot of a dangerous structure",
                ));
            }
            t2.doom();
            self.stats.doomed_set.bump();
            self.tracer.record(t2.txid.0, TraceTag::Doom, 0);
            return Ok(());
        }
        if let Some(t1x) = t1 {
            if t1x.is_abortable() {
                if t1x.id == acting {
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "pivot already committed/prepared; aborting the reader",
                    ));
                }
                dooms.push(Arc::clone(t1x));
                return Ok(());
            }
        }
        self.stats.aborts_self.bump();
        Err(Error::serialization(
            SerializationKind::NonPivotAbort,
            "all other participants committed or prepared; aborting self",
        ))
    }

    /// Claim deferred third-party victims (no locks held). A victim that
    /// prepared before it could be doomed forces the acting transaction to
    /// abort instead (§5.4/§7.1: never abort a prepared transaction).
    fn apply_dooms(&self, dooms: Vec<SxRef>) -> Result<()> {
        for v in dooms {
            if v.doom_if_abortable() {
                self.stats.doomed_set.bump();
                self.tracer.record(v.txid.0, TraceTag::Doom, 0);
            } else {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::NonPivotAbort,
                    "victim prepared before it could be doomed; aborting self",
                ));
            }
        }
        Ok(())
    }

    /// Propagate `res`, claiming deferred dooms either way (when the acting
    /// transaction is already dying, victims of *other* structures found in
    /// the same call are still claimed best-effort, as the one-lock
    /// implementation did in place).
    fn finish_checks(&self, res: Result<()>, dooms: Vec<SxRef>) -> Result<()> {
        if res.is_err() {
            let _ = self.apply_dooms(dooms);
            return res;
        }
        self.apply_dooms(dooms)
    }

    // ------------------------------------------------------------------
    // Commit and abort
    // ------------------------------------------------------------------

    /// Pre-commit serialization check (§5.4): if this transaction is the T3 of a
    /// dangerous structure of uncommitted transactions, it is about to become
    /// the first committer, so the pivot must be aborted now (or, failing that,
    /// this transaction). Also re-checks this transaction as a pivot. On success
    /// the transaction becomes *prepared*: it can no longer be chosen as a
    /// victim (mirroring PostgreSQL's marking during commit processing and
    /// PREPARE TRANSACTION, §7.1). `frontier` is the current commit-sequence
    /// frontier, recorded as a conservative bound on the eventual commit CSN.
    ///
    /// The prepared phase is entered *first* (tentatively, under this record's
    /// lock) and reverted on failure: an edge flagged into this transaction
    /// after that point observes the prepare CSN and runs the T3 checks
    /// itself, while every edge flagged before it is visible to the
    /// in-conflict clone below — so no structure can slip through the gap
    /// between this check and the phase transition.
    pub fn precommit(&self, sx: SxactId, frontier: CommitSeqNo) -> Result<()> {
        let me = self.reg.get(sx).expect("precommit on unknown record");
        let t2s: Vec<SxactId> = {
            let g = me.lock();
            if me.is_doomed() {
                self.stats.aborts_self.bump();
                return Err(Error::serialization(
                    SerializationKind::Doomed,
                    "doomed transaction reached commit",
                ));
            }
            me.set_phase(Phase::Prepared);
            me.set_prepare_csn(Some(frontier));
            g.in_conflicts.iter().copied().collect()
        };
        match self.precommit_checks(&me, sx, t2s) {
            Ok(()) => {
                let g = me.lock();
                trace!(
                    "precommit ok {:?}(txid {:?}) in={:?} out={:?} e={:?}",
                    sx,
                    me.txid,
                    g.in_conflicts,
                    g.out_conflicts,
                    g.earliest_out_conflict_commit
                );
                drop(g);
                self.tracer.record(me.txid.0, TraceTag::Prepare, 0);
                Ok(())
            }
            Err(e) => {
                // Revert the tentative prepare; the engine aborts us next.
                let _g = me.lock();
                me.set_phase(Phase::Active);
                me.set_prepare_csn(None);
                Err(e)
            }
        }
    }

    fn precommit_checks(&self, me: &SxRef, sx: SxactId, t2s: Vec<SxactId>) -> Result<()> {
        // Role T3: structures t1 → t2 → me where neither t1 nor t2 committed.
        for t2id in t2s {
            let Some(t2) = self.reg.get(t2id) else {
                continue;
            };
            let mut dooms: Vec<SxRef> = Vec::new();
            let res = {
                let t2g = t2.lock();
                if t2g.gone || t2.is_committed() || t2.is_doomed() || t2.phase() == Phase::Aborted {
                    Ok(())
                } else {
                    self.precommit_check_t2(me, sx, &t2, &t2g, &mut dooms)
                }
            };
            self.finish_checks(res, dooms)?;
        }
        // Role T2 (early detection; the authoritative run happens again at
        // commit under the order mutex — see `pivot_commit_check`).
        self.pivot_commit_check(me)
    }

    /// Role-T2 dangerous-pivot validation: my own in-edge + committed
    /// out-conflict pair (read from my folded `earliest_out_conflict_commit`
    /// under my lock). Called twice: once from `precommit` (cheap early
    /// abort), and once from [`SsiManager::commit_checked`] **under the
    /// commit-order mutex**, where it is authoritative — every earlier
    /// committer folded its CSN into my bound inside its own order-mutex
    /// section, so acquiring the mutex happens-after all of them. Without the
    /// commit-time run, a pivot's precommit could interleave between a T3's
    /// CSN assignment and its fold, miss the conflict, and commit a dangerous
    /// structure (the one-big-mutex implementation made {assign, fold} atomic
    /// with every check, closing this by construction).
    fn pivot_commit_check(&self, me: &SxRef) -> Result<()> {
        let g = me.lock();
        let e = g.earliest_out_conflict_commit;
        if e != CommitSeqNo::MAX {
            let mut candidates: Vec<Option<SxRef>> = g
                .in_conflicts
                .iter()
                .filter_map(|x| self.reg.get(*x))
                .map(Some)
                .collect();
            if g.summary_conflict_in {
                candidates.push(None);
            }
            for t1 in candidates {
                let dangerous = match &t1 {
                    Some(t1x) => {
                        if t1x.phase() == Phase::Aborted {
                            continue;
                        }
                        // Non-strict: T1 may be T3 itself (2-cycles).
                        let t1_bound = t1x.commit_csn().unwrap_or(CommitSeqNo::MAX);
                        let co = e <= t1_bound;
                        let ro = !(self.config.enable_read_only_opt && t1x.is_read_only())
                            || e < t1x.snapshot_csn;
                        co && ro
                    }
                    None => true,
                };
                if dangerous {
                    self.stats.dangerous_structures.bump();
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::PivotAbort,
                        "pivot with committed out-conflict detected at commit",
                    ));
                }
            }
        }
        Ok(())
    }

    /// One pivot candidate of the committing T3 (`me`): `t2`'s lock is held.
    fn precommit_check_t2(
        &self,
        _me: &SxRef,
        sx: SxactId,
        t2: &SxRef,
        t2g: &SxactMut,
        dooms: &mut Vec<SxRef>,
    ) -> Result<()> {
        let mut candidates: Vec<Option<SxRef>> = t2g
            .in_conflicts
            .iter()
            .filter_map(|x| self.reg.get(*x))
            .map(Some)
            .collect();
        if t2g.summary_conflict_in {
            candidates.push(None);
        }
        let dangerous_t1s: Vec<Option<SxRef>> = candidates
            .into_iter()
            .filter(|t1| match t1 {
                Some(t1x) => {
                    // T1 already committed → I would not be the first
                    // committer of the structure; an aborted T1 is no T1.
                    if t1x.is_committed() || t1x.phase() == Phase::Aborted {
                        return false;
                    }
                    // Read-only rule: I am committing *now*, after T1's
                    // snapshot, so a read-only T1 cannot complete a cycle.
                    !(self.config.enable_read_only_opt && t1x.is_read_only())
                }
                None => true, // summarized T1: conservative
            })
            .collect();
        if dangerous_t1s.is_empty() {
            return Ok(());
        }
        self.stats.dangerous_structures.bump();
        // Preferred victim: the pivot — one abort kills every structure
        // through it (§5.4 rule 2). Its lock is held: the doom is exact.
        if t2.is_abortable() {
            t2.doom();
            self.stats.doomed_set.bump();
            self.tracer.record(t2.txid.0, TraceTag::Doom, 0);
            return Ok(());
        }
        // Pivot is prepared (§7.1): each dangerous T1 must die instead —
        // and if one of them is me, I am the victim.
        for t1 in dangerous_t1s {
            match t1 {
                Some(t1x) if t1x.id == sx => {
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "pivot is prepared; committing T3 is also its T1",
                    ));
                }
                Some(t1x) if t1x.is_abortable() => dooms.push(t1x),
                _ => {
                    // Summarized or unabortable T1 with an unabortable
                    // pivot: only I can yield.
                    self.stats.aborts_self.bump();
                    return Err(Error::serialization(
                        SerializationKind::NonPivotAbort,
                        "dangerous structure with no abortable participant but me",
                    ));
                }
            }
        }
        Ok(())
    }

    /// [`SsiManager::commit`] plus the authoritative dangerous-pivot
    /// re-validation under the commit-order mutex (see
    /// [`SsiManager::pivot_commit_check`]): if a concurrent T3 committed
    /// between this transaction's precommit and now, the fold of its CSN into
    /// our bound is guaranteed visible here, and the commit fails *before*
    /// `assign_csn` runs — nothing is published and the engine simply aborts
    /// us instead. This is the normal single-phase commit entry point; the
    /// two-phase path uses the unchecked [`SsiManager::commit`], because
    /// `COMMIT PREPARED` must not fail (§7.1 — a prepared pivot's structures
    /// are instead broken by aborting their T1s at *their* operations).
    pub fn commit_checked(
        &self,
        sx: SxactId,
        assign_csn: impl FnOnce() -> CommitSeqNo,
    ) -> Result<CommitSeqNo> {
        self.commit_inner(sx, assign_csn, true, |_| {})
    }

    /// [`SsiManager::commit_checked`] with a `publish` hook that receives the
    /// §8.4 [`CommitDigest`] **inside the commit-order critical section**,
    /// after the commit CSN is assigned. Replication uses it to append the
    /// commit record (and capture the post-commit snapshot) atomically with
    /// the digest: because serializable begins, commits, and aborts all
    /// serialize on the same mutex, the shipped stream order matches the
    /// decided commit order, and every transaction a digest names as
    /// concurrent is guaranteed to resolve *later* in the stream.
    pub fn commit_checked_with(
        &self,
        sx: SxactId,
        assign_csn: impl FnOnce() -> CommitSeqNo,
        publish: impl FnOnce(CommitDigest),
    ) -> Result<CommitSeqNo> {
        self.commit_inner(sx, assign_csn, true, publish)
    }

    /// Finalize a commit unconditionally (the `COMMIT PREPARED` path — the
    /// §5.4 checks ran at `prepare`, and a prepared transaction can no longer
    /// be chosen as a victim).
    pub fn commit(&self, sx: SxactId, assign_csn: impl FnOnce() -> CommitSeqNo) -> CommitSeqNo {
        self.commit_inner(sx, assign_csn, false, |_| {})
            .expect("unchecked commit cannot fail")
    }

    /// [`SsiManager::commit`] with the §8.4 publish hook (see
    /// [`SsiManager::commit_checked_with`]).
    pub fn commit_with(
        &self,
        sx: SxactId,
        assign_csn: impl FnOnce() -> CommitSeqNo,
        publish: impl FnOnce(CommitDigest),
    ) -> CommitSeqNo {
        self.commit_inner(sx, assign_csn, false, publish)
            .expect("unchecked commit cannot fail")
    }

    /// Capture a [`CommitDigest`] for a commit that did *not* run under SSI
    /// (SI / READ COMMITTED / 2PL writers). The digest carries no conflict
    /// facts, but the `concurrent_rw` membership — and anything `publish`
    /// captures alongside it, such as the post-commit snapshot and the WAL
    /// append — must still be read under the commit-order mutex, or a
    /// serializable begin could slip between the membership read and the
    /// snapshot (the check-then-snapshot race this API exists to close).
    pub fn observe_commit(
        &self,
        txid: TxnId,
        commit_csn: CommitSeqNo,
        publish: impl FnOnce(CommitDigest),
    ) {
        let order = self.lock_order();
        let digest = CommitDigest {
            txid,
            commit_csn,
            serializable: false,
            declared_read_only: false,
            wrote: true,
            had_in_conflict: false,
            had_out_conflict: false,
            earliest_out_conflict_commit: CommitSeqNo::MAX,
            concurrent_rw: Self::concurrent_rw(&order),
        };
        publish(digest);
        drop(order);
    }

    /// Run `f` inside a commit-order critical section without touching any
    /// state. Replication uses this as an attach barrier: a WAL consumer
    /// registering itself here is totally ordered against every commit/abort
    /// publish section, so "every record published after my attach" is a
    /// well-defined set.
    pub fn commit_order_barrier<T>(&self, f: impl FnOnce() -> T) -> T {
        let _order = self.lock_order();
        f()
    }

    /// Serializable read/write (non-declared-read-only) transactions currently
    /// active or prepared. Callers hold the commit-order mutex.
    fn concurrent_rw(order: &CommitOrder) -> Vec<TxnId> {
        let mut rw: Vec<TxnId> = order
            .active
            .values()
            .filter(|a| !a.declared_read_only)
            .map(|a| a.txid)
            .collect();
        rw.sort_unstable();
        rw
    }

    /// Finalize a commit. `assign_csn` runs under the commit-order mutex *and*
    /// this record's lock (it should perform the actual transaction-manager
    /// commit), so that no conflict can be flagged against this record between
    /// the commit becoming visible and the record learning the commit CSN —
    /// flaggers serialize on the record's lock.
    fn commit_inner(
        &self,
        sx: SxactId,
        assign_csn: impl FnOnce() -> CommitSeqNo,
        enforce_pivot_check: bool,
        publish: impl FnOnce(CommitDigest),
    ) -> Result<CommitSeqNo> {
        let mut ops = DeferredLockOps::default();
        let section = self.stats.commit_order_ns.start();
        let mut order = self.lock_order();
        let me = self.reg.get(sx).expect("commit on unknown record");
        if enforce_pivot_check && !self.emulate_pivot_race.load(Ordering::Relaxed) {
            // Order-mutex-authoritative: every earlier commit's CSN fold
            // happened inside its own order section. Failing here is clean —
            // the transaction manager has not committed yet, and the engine
            // rolls us back like any precommit failure.
            self.pivot_commit_check(&me)?;
        }
        let csn;
        let (in_sources, summary_in): (Vec<SxactId>, bool) = {
            let g = me.lock();
            csn = assign_csn();
            debug_assert!(
                me.phase() == Phase::Prepared,
                "commit without precommit/prepare"
            );
            me.set_phase(Phase::Committed);
            me.set_commit_csn(csn);
            (
                g.in_conflicts.iter().copied().collect(),
                g.summary_conflict_in,
            )
        };
        order.active.remove(&sx);
        // The commit CSN is now visible (the transaction-manager commit ran
        // inside the record-lock block above) but the in-sources' bounds are
        // not yet folded: exactly the window the commit-time pivot re-check
        // exists to close. Yield so seeded schedules can land a peer's
        // precommit inside it; the emulation gate widens it so the historical
        // miss reproduces on practical seed counts.
        sim::yield_point(Site::CsnFold);
        if self.emulate_pivot_race.load(Ordering::Relaxed) {
            for _ in 0..16 {
                sim::yield_point(Site::CsnFold);
            }
        }
        // Our commit fixes the CSN of every in-source's out-conflict to us.
        // (An edge flagged after the clone above sees our commit CSN itself,
        // because its flagger serializes on our lock; min() is idempotent.)
        for &s in &in_sources {
            if let Some(sx2) = self.reg.get(s) {
                let mut sg = sx2.lock();
                sg.earliest_out_conflict_commit = sg.earliest_out_conflict_commit.min(csn);
            }
        }
        // Read-only safety resolution (§4.2): each read-only transaction watching
        // us now learns whether we committed with a conflict out to something
        // before its snapshot.
        let (trackers, my_earliest, had_out) = {
            let mut g = me.lock();
            let t: Vec<SxactId> = std::mem::take(&mut g.ro_trackers).into_iter().collect();
            let had_out = !g.out_conflicts.is_empty()
                || g.summary_conflict_out
                || g.earliest_out_conflict_commit != CommitSeqNo::MAX;
            (t, g.earliest_out_conflict_commit, had_out)
        };
        // §8.4 digest: the same facts `resolve_ro_tracking` feeds the master's
        // own safe-snapshot tracking, exported for WAL followers. Built (and
        // published) inside the commit-order section so the concurrent set is
        // exact for any snapshot the hook captures alongside it.
        let digest = CommitDigest {
            txid: me.txid,
            commit_csn: csn,
            serializable: true,
            declared_read_only: me.declared_read_only,
            wrote: me.wrote(),
            had_in_conflict: !in_sources.is_empty() || summary_in,
            had_out_conflict: had_out,
            earliest_out_conflict_commit: my_earliest,
            concurrent_rw: Self::concurrent_rw(&order),
        };
        publish(digest);
        for r in trackers {
            self.resolve_ro_tracking(r, sx, Some(my_earliest), &mut ops);
        }
        // If we were a read-only transaction still being tracked, unhook.
        let watched: Vec<SxactId> = std::mem::take(&mut me.lock().possible_unsafe)
            .into_iter()
            .collect();
        for w in watched {
            if let Some(wx) = self.reg.get(w) {
                wx.lock().ro_trackers.remove(&sx);
            }
        }
        trace!("commit {:?} csn={:?}", sx, csn);
        order.committed.push_back(Arc::clone(&me));
        self.cleanup_locked(&mut order, &mut ops);
        let excess = self.pop_excess_committed(&mut order);
        drop(order);
        self.stats.commit_order_ns.record_elapsed(section);
        self.tracer.record(me.txid.0, TraceTag::Commit, 0);
        // The O(degree) summarization walks and whole-table SIREAD work run
        // after the commit-order mutex is released.
        for rec in excess {
            self.summarize_record(&rec);
        }
        ops.run(&self.siread);
        self.safety_cv.notify_all();
        sim::notify(Site::SafetyWait, self.safety_key());
        Ok(csn)
    }

    /// Abort: remove the record and its edges, release its SIREAD locks, and
    /// resolve read-only tracking (an aborted writer cannot make a snapshot
    /// unsafe).
    pub fn abort(&self, sx: SxactId) {
        self.abort_with(sx, |_| {});
    }

    /// [`SsiManager::abort`] with a publish hook: `publish(txid)` runs inside
    /// the commit-order critical section, after the record leaves the active
    /// set, and only for read/write (non-declared-read-only) transactions —
    /// the ones WAL followers may be waiting on. Running it under the mutex
    /// keeps the shipped stream in commit order: no commit record can name
    /// this transaction as concurrent *after* its abort is published.
    pub fn abort_with(&self, sx: SxactId, publish: impl FnOnce(TxnId)) {
        let mut ops = DeferredLockOps::default();
        let mut order = self.lock_order();
        let Some(me) = self.reg.get(sx) else {
            return;
        };
        let (outs, ins, poss, trackers, aliases) = {
            let mut g = me.lock();
            if g.gone {
                return;
            }
            me.set_phase(Phase::Aborted);
            g.gone = true;
            (
                std::mem::take(&mut g.out_conflicts),
                std::mem::take(&mut g.in_conflicts),
                std::mem::take(&mut g.possible_unsafe),
                std::mem::take(&mut g.ro_trackers),
                std::mem::take(&mut g.alias_txids),
            )
        };
        order.active.remove(&sx);
        self.tracer.record(me.txid.0, TraceTag::Abort, 0);
        if !me.declared_read_only {
            publish(me.txid);
        }
        for o in &outs {
            if let Some(ox) = self.reg.get(*o) {
                ox.lock().in_conflicts.remove(&sx);
            }
        }
        for i in &ins {
            if let Some(ix) = self.reg.get(*i) {
                ix.lock().out_conflicts.remove(&sx);
            }
        }
        for w in &poss {
            if let Some(wx) = self.reg.get(*w) {
                wx.lock().ro_trackers.remove(&sx);
            }
        }
        for r in trackers {
            self.resolve_ro_tracking(r, sx, None, &mut ops);
        }
        self.reg.remove(sx, me.txid, &aliases);
        self.cleanup_locked(&mut order, &mut ops);
        drop(order);
        self.siread.release_owner(sx.0);
        ops.run(&self.siread);
        self.safety_cv.notify_all();
        sim::notify(Site::SafetyWait, self.safety_key());
    }

    /// A read/write transaction `w` finished; update read-only transaction `r`'s
    /// safety bookkeeping. `w_earliest` is `Some(earliest out-conflict CSN)` if
    /// `w` committed, `None` if it aborted. Called with the commit-order mutex
    /// held; SIREAD releases for newly-safe snapshots are deferred into `ops`.
    fn resolve_ro_tracking(
        &self,
        r: SxactId,
        w: SxactId,
        w_earliest: Option<CommitSeqNo>,
        ops: &mut DeferredLockOps,
    ) {
        let Some(rx) = self.reg.get(r) else { return };
        let made_unsafe = match w_earliest {
            Some(e) => e != CommitSeqNo::MAX && e < rx.snapshot_csn,
            None => false,
        };
        let mut unhook: Vec<SxactId> = Vec::new();
        {
            let mut g = rx.lock();
            if g.gone {
                return;
            }
            g.possible_unsafe.remove(&w);
            if made_unsafe {
                if !rx.ro_unsafe() {
                    rx.set_ro_unsafe();
                    self.stats.unsafe_snapshots.bump();
                }
                unhook = std::mem::take(&mut g.possible_unsafe).into_iter().collect();
            } else if g.possible_unsafe.is_empty() && !rx.ro_unsafe() && !rx.ro_safe() {
                rx.set_ro_safe();
                self.stats.safe_established.bump();
                // Safe: drop SIREAD locks (deferred past the graph locks); no
                // further SSI overhead (§4.2).
                ops.release_owners.push(r.0);
            }
        }
        // Peer unhooking happens after `r`'s lock is released (one record lock
        // at a time outside lock_pair — see the module docs).
        for other in unhook {
            if let Some(ox) = self.reg.get(other) {
                ox.lock().ro_trackers.remove(&r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Safe snapshots and deferrable transactions (§4.2–4.3)
    // ------------------------------------------------------------------

    /// Current safety state of a read-only transaction's snapshot. Lock-free.
    pub fn snapshot_safety(&self, sx: SxactId) -> SafetyState {
        match self.reg.get(sx) {
            Some(x) if x.ro_safe() => SafetyState::Safe,
            Some(x) if x.ro_unsafe() => SafetyState::Unsafe,
            Some(_) => SafetyState::Pending,
            None => SafetyState::Unsafe,
        }
    }

    /// Block until the snapshot is proven safe or unsafe (deferrable
    /// transactions, §4.3), or until `timeout` elapses (returns `Pending`).
    /// The wait parks on the commit-order mutex — safety flags flip under it.
    pub fn wait_for_safety(&self, sx: SxactId, timeout: Duration) -> SafetyState {
        let deadline = sim::now() + timeout;
        let mut order = self.lock_order();
        loop {
            let state = self.snapshot_safety(sx);
            if state != SafetyState::Pending {
                return state;
            }
            if sim::is_sim_thread() {
                // Sim park: release the order mutex, hand the token to the
                // scheduler, re-acquire (try-lock spin) on wake.
                drop(order);
                let r = sim::block(Site::SafetyWait, self.safety_key(), Some(deadline));
                order = self.lock_order();
                if r == WakeReason::TimedOut {
                    let state = self.snapshot_safety(sx);
                    if state != SafetyState::Pending {
                        return state;
                    }
                    return SafetyState::Pending;
                }
            } else if self.safety_cv.wait_until(&mut order, deadline).timed_out() {
                return SafetyState::Pending;
            }
        }
    }

    /// Scheduler wakeup key for safety waits (runtime matching only).
    #[inline]
    fn safety_key(&self) -> usize {
        std::ptr::addr_of!(self.safety_cv) as usize
    }

    // ------------------------------------------------------------------
    // Two-phase commit (§7.1)
    // ------------------------------------------------------------------

    /// PREPARE TRANSACTION: run the pre-commit check, then persist the SSI state
    /// that must survive a crash (the SIREAD locks; the dependency graph is
    /// deliberately not persisted — recovery assumes conflicts both ways).
    ///
    /// `cross_shard` marks one branch of a cross-shard transaction: from the
    /// instant its conflict facts are captured, the prepared record is
    /// treated as committed-with-conflicts-both-ways (§7.1 conservatism). Its
    /// sibling branches' edges live on other shards where this shard cannot
    /// see them, so every edge formed against the branch after the capture
    /// must assume the invisible half of a dangerous structure exists.
    /// Setting the summary flags makes the existing prepared-pivot machinery
    /// (`precommit_check_t2`, pivot checks) fire on any new in- or out-edge,
    /// aborting the acting transaction instead of the unabortable prepared
    /// one. Capture and marking share one critical section on the record,
    /// which every edge flag also takes: an edge lands either in the captured
    /// facts the coordinator judges, or against the marked record — never in
    /// between, where neither would see it.
    pub fn prepare(
        &self,
        sx: SxactId,
        frontier: CommitSeqNo,
        cross_shard: bool,
    ) -> Result<PreparedSsi> {
        self.precommit(sx, frontier)?;
        let me = self.reg.get(sx).expect("prepare on unknown record");
        // A prepared transaction outlives its session (possibly across a
        // crash): publish any pending read-set batch so the persisted lock
        // list and the shared table both carry the complete read set.
        self.siread.publish_pending(sx.0);
        // Prepare-time conflict facts: the same projection a CommitDigest
        // carries at commit, captured here so a cross-shard coordinator can
        // judge a distributed dangerous structure from its branches' records
        // (the local pivot check above only sees this shard's edges).
        let (had_in_conflict, had_out_conflict, earliest_out_conflict_commit) = {
            let mut g = me.lock();
            let facts = (
                !g.in_conflicts.is_empty() || g.summary_conflict_in,
                !g.out_conflicts.is_empty()
                    || g.summary_conflict_out
                    || g.earliest_out_conflict_commit != CommitSeqNo::MAX,
                g.earliest_out_conflict_commit,
            );
            if cross_shard {
                let bound = me.prepare_csn().unwrap_or(CommitSeqNo::MAX);
                g.summary_conflict_in = true;
                g.summary_conflict_out = true;
                g.earliest_out_conflict_commit = g.earliest_out_conflict_commit.min(bound);
            }
            facts
        };
        Ok(PreparedSsi {
            txid: me.txid,
            snapshot_csn: me.snapshot_csn,
            prepare_csn: me.prepare_csn().unwrap_or(frontier),
            siread_locks: self.siread.held_targets(sx.0),
            wrote: me.wrote(),
            had_in_conflict,
            had_out_conflict,
            earliest_out_conflict_commit,
        })
    }

    /// Rebuild a prepared transaction after a crash. Its dependency edges are
    /// unknown, so it is conservatively assumed to have rw-antidependencies both
    /// in and out (§7.1); the recorded earliest out-conflict bound is its prepare
    /// CSN (anything later cannot have committed first).
    pub fn recover_prepared(&self, rec: &PreparedSsi) -> SxactId {
        let mut order = self.lock_order();
        let id = SxactId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let sx = Arc::new(Sxact::new(id, rec.txid, rec.snapshot_csn, false, false));
        sx.set_phase(Phase::Prepared);
        sx.set_prepare_csn(Some(rec.prepare_csn));
        if rec.wrote {
            sx.set_wrote();
        }
        {
            let mut g = sx.lock();
            g.summary_conflict_in = true;
            g.summary_conflict_out = true;
            g.earliest_out_conflict_commit = rec.prepare_csn;
        }
        order.active.insert(id, Arc::clone(&sx));
        self.reg.insert(&sx);
        drop(order);
        self.siread.register_owner(id.0);
        for t in &rec.siread_locks {
            self.siread.acquire(id.0, *t);
        }
        // Recovered locks go straight to the table: the prepared transaction
        // has no session accumulating further reads.
        self.siread.publish_pending(id.0);
        id
    }

    // ------------------------------------------------------------------
    // Memory management (§6)
    // ------------------------------------------------------------------

    /// Free committed records older than every active transaction's snapshot
    /// (§6.1): no active transaction can be concurrent with them, so neither
    /// their locks nor their edges can matter again. Runs under the
    /// commit-order mutex; the SIREAD releases and the summarized-lock sweep
    /// are deferred into `ops` (delaying a release is conservative — a record
    /// freed here committed before every active snapshot, so a probe that
    /// still sees its owner id finds no record and correctly treats it as no
    /// conflict).
    fn cleanup_locked(&self, order: &mut CommitOrder, ops: &mut DeferredLockOps) {
        let horizon = order
            .active
            .values()
            .map(|a| a.snapshot_csn)
            .min()
            .unwrap_or(CommitSeqNo::MAX);
        while let Some(front) = order.committed.front() {
            let done = front.commit_csn().map(|c| c < horizon).unwrap_or(true);
            if !done {
                break;
            }
            let rec = order.committed.pop_front().expect("front checked above");
            self.drop_committed_record(&rec, ops);
            self.stats.cleaned.bump();
        }
        ops.drop_summarized_before = Some(horizon);
        // §6.1: when only read-only transactions remain active, no committed
        // transaction's SIREAD locks can ever be needed again (no one can write).
        let any_rw_active = order.active.values().any(|a| !a.declared_read_only);
        if !any_rw_active {
            ops.release_owners
                .extend(order.committed.iter().map(|c| c.id.0));
        }
    }

    /// §6.1 removal (no information outlives the record). Follows the removal
    /// protocol: tombstone under the record's lock, peer fix-ups, then the
    /// registry entries.
    fn drop_committed_record(&self, rec: &SxRef, ops: &mut DeferredLockOps) {
        let (outs, ins, aliases) = {
            let mut g = rec.lock();
            if g.gone {
                return;
            }
            g.gone = true;
            (
                std::mem::take(&mut g.out_conflicts),
                std::mem::take(&mut g.in_conflicts),
                std::mem::take(&mut g.alias_txids),
            )
        };
        for o in &outs {
            if let Some(ox) = self.reg.get(*o) {
                ox.lock().in_conflicts.remove(&rec.id);
            }
        }
        for i in &ins {
            if let Some(ix) = self.reg.get(*i) {
                ix.lock().out_conflicts.remove(&rec.id);
                // Its commit CSN was already folded into the peer's
                // earliest_out_conflict_commit at commit time.
            }
        }
        self.reg.remove(rec.id, rec.txid, &aliases);
        ops.release_owners.push(rec.id.0);
    }

    /// Pop the oldest committed records beyond `max_committed_sxacts` (§6.2)
    /// under the commit-order mutex; the caller summarizes them after
    /// releasing it.
    fn pop_excess_committed(&self, order: &mut CommitOrder) -> Vec<SxRef> {
        let mut excess = Vec::new();
        while order.committed.len() > self.config.max_committed_sxacts {
            let Some(oldest) = order.committed.pop_front() else {
                break;
            };
            excess.push(oldest);
        }
        excess
    }

    /// Summarize one committed record (§6.2): locks consolidate onto the dummy
    /// owner, the earliest out-conflict CSN goes to the serial table, and
    /// edges degrade to summary flags on the surviving peers. Runs with **no**
    /// commit-order mutex held — this is the O(degree) walk that used to
    /// extend the global critical section. Ordering per the removal protocol:
    /// csn fold and serial entry first, then the tombstone, peers, registry.
    fn summarize_record(&self, rec: &SxRef) {
        let commit_csn = rec.commit_csn().expect("summarizing an uncommitted record");
        // The summarized csn must be visible in the lock table before any
        // writer can observe the record's absence, or a real conflict with a
        // still-concurrent summarized reader would be skipped.
        self.siread.consolidate_owner(rec.id.0, commit_csn);
        let (outs, ins, poss, aliases) = {
            let mut g = rec.lock();
            if g.gone {
                return;
            }
            // Serial entries (top-level xid and each subxact alias, whose
            // writes carry the subxid in tuple headers) are published before
            // the tombstone, so the on_mvcc vanished path always finds them.
            self.serial.record(rec.txid, g.earliest_out_conflict_commit);
            for a in &g.alias_txids {
                self.serial.record(*a, g.earliest_out_conflict_commit);
            }
            g.gone = true;
            (
                std::mem::take(&mut g.out_conflicts),
                std::mem::take(&mut g.in_conflicts),
                std::mem::take(&mut g.possible_unsafe),
                std::mem::take(&mut g.alias_txids),
            )
        };
        for o in &outs {
            if let Some(ox) = self.reg.get(*o) {
                let mut og = ox.lock();
                og.in_conflicts.remove(&rec.id);
                og.summary_conflict_in = true;
            }
        }
        for i in &ins {
            if let Some(ix) = self.reg.get(*i) {
                let mut ig = ix.lock();
                ig.out_conflicts.remove(&rec.id);
                ig.summary_conflict_out = true;
            }
        }
        for w in &poss {
            if let Some(wx) = self.reg.get(*w) {
                wx.lock().ro_trackers.remove(&rec.id);
            }
        }
        self.reg.remove(rec.id, rec.txid, &aliases);
        self.stats.summarized.bump();
    }

    // ------------------------------------------------------------------
    // Introspection (tests, benchmarks)
    // ------------------------------------------------------------------

    /// Number of active (and prepared) serializable transactions.
    pub fn active_count(&self) -> usize {
        self.lock_order().active.len()
    }

    /// Number of committed records currently retained.
    pub fn committed_retained(&self) -> usize {
        self.lock_order().committed.len()
    }

    /// Total transaction records (bounded-memory assertions).
    pub fn record_count(&self) -> usize {
        self.reg.record_count()
    }

    /// Whether the given transaction id currently has a serializable record.
    pub fn is_tracked(&self, txid: TxnId) -> bool {
        self.reg.get_txid(txid).is_some()
    }

    /// The record's doomed flag (tests).
    pub fn is_doomed(&self, sx: SxactId) -> bool {
        self.reg.get(sx).map(|x| x.is_doomed()).unwrap_or(false)
    }

    /// Shared handle to the record's doomed flag: the owning session polls it
    /// per operation without taking any graph lock.
    pub fn doomed_handle(
        &self,
        sx: SxactId,
    ) -> Option<std::sync::Arc<std::sync::atomic::AtomicBool>> {
        self.reg.get(sx).map(|x| x.doomed.clone())
    }
}
