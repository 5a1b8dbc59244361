//! `range-conflict`: SSI's own machinery under real overlap, with every
//! engine count fixed by the seed.
//!
//! One thread keeps 8 serializable transactions open and advances
//! them round-robin, one call per turn, so their lifetimes overlap without
//! any thread scheduling. 75% are readers of a 64-row primary-key range,
//! half of them declared READ ONLY; 25% are writers that read a range and
//! then insert or delete one key. A writer claims its key when it is
//! planned and holds it until it commits, so no two open writers share a
//! key and nothing blocks. The table holds 131,072 rows, so that its load
//! takes long enough to time, but every transaction stays within its first
//! 4,096 rows: the hot part fits in cache and the ranges overlap often.
//! `Database::vacuum` runs every `VACUUM_EVERY` commits.
//!
//! It exercises B+-tree gap and page SIREAD locks with tuple→page promotion,
//! rw-conflict flagging, dangerous-structure aborts and the read-only
//! safe-snapshot path. A transaction's latency is the time of its own calls,
//! not the wall time across other slots' turns.
//!
//! Check: a final scan equals a model that replays the committed writers in
//! commit order.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::{Duration, Instant};

use pgssi_common::{Key, Value};
use pgssi_engine::{BeginOptions, Database, IsolationLevel, TableDef, Transaction};

use crate::measure::{engine, load, Failure, Outcome, Round, Stop, MAX_ATTEMPTS};
use crate::rng::Rng;
use crate::trace::{Call, Tracer};

pub const ROWS: i64 = 131_072;
/// Rows the transactions touch: the first ones of the table.
pub const HOT_ROWS: i64 = 4096;
/// Rows sit at even keys, so every odd key is a gap a writer can fill.
/// Transactions draw their keys from `0..KEY_SPACE`, the hot rows' keys.
pub const KEY_SPACE: i64 = 2 * HOT_ROWS;
/// Key width of a range read: 64 rows at the initial density.
pub const RANGE: i64 = 128;
pub const SLOTS: usize = 8;
pub const TXNS: u64 = 20_000;
pub const WRITER_PCT: u64 = 25;
/// Share of readers declared READ ONLY, %.
pub const READ_ONLY_PCT: u64 = 50;
pub const VACUUM_EVERY: u64 = 4096;
const TABLE: &str = "r";

#[derive(Clone, Copy, Debug, Hash)]
enum Op {
    Insert(i64),
    Delete,
}

#[derive(Clone, Copy, Debug, Hash)]
struct Plan {
    lo: i64,
    read_only: bool,
    write: Option<(i64, Op)>,
}

#[derive(Default)]
struct Slot {
    plan: Option<Plan>,
    txn: Option<Transaction>,
    /// Next call: 0 begin, 1 range, 2 write, 3 commit.
    step: u8,
    /// Time spent in this attempt's own calls.
    own: Duration,
    id: u64,
    tries: u64,
}

/// Engine counts of a round; with a fixed seed they repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    pub commits: u64,
    pub aborts: u64,
    pub conflicts: u64,
    pub dangerous: u64,
    pub promotions: u64,
    pub safe_snapshots: u64,
    /// Hash of every planned transaction, in plan order.
    pub schedule: u64,
}

fn key(k: i64) -> Key {
    vec![Value::Int(k)]
}

/// One round on a fresh database, `txns` logical transactions.
pub fn round(seed: u64, txns: u64, traced: bool) -> Outcome<(Round, Counts)> {
    let mut round = Round::default();
    let started = Instant::now();
    let (db, mut rng, mut model) = setup(seed)?;
    round.setup = started.elapsed();

    let base = db.stats_report();
    let mut tracer = Tracer::new(Instant::now(), traced);
    let mut claimed = vec![false; KEY_SPACE as usize];
    let mut slots: Vec<Slot> = (0..SLOTS).map(|_| Slot::default()).collect();
    let (mut planned, mut done, mut next_id, mut since_vacuum) = (0u64, 0u64, 0u64, 0u64);
    let mut schedule = std::collections::hash_map::DefaultHasher::new();
    let work_start = Instant::now();
    for turn in 0.. {
        if done == txns {
            break;
        }
        let slot = &mut slots[turn % SLOTS];
        if slot.plan.is_none() {
            if planned == txns {
                continue;
            }
            let plan = plan(&mut rng, &model, &mut claimed);
            std::hash::Hash::hash(&plan, &mut schedule);
            *slot = Slot {
                plan: Some(plan),
                ..Slot::default()
            };
            planned += 1;
            round.logical += 1;
        }
        let plan = slot.plan.expect("slot has a plan");
        if slot.step == 0 {
            next_id += 1;
            slot.id = next_id;
            slot.tries += 1;
            round.attempts += 1;
            round.read_only += u64::from(plan.read_only);
        }
        let t0 = Instant::now();
        let result = advance(&db, slot, plan, &mut tracer, &mut round.range_rows);
        slot.own += t0.elapsed();
        match result {
            Ok(false) => {}
            Ok(true) => {
                round.commits += 1;
                let own = slot.own.as_nanos() as u64;
                tracer.record(Call::Txn, slot.id, t0, t0 + slot.own);
                match plan.write {
                    Some((k, op)) => {
                        match op {
                            Op::Insert(v) => model.insert(k, v),
                            Op::Delete => model.remove(&k),
                        };
                        claimed[k as usize] = false;
                        round.write_ns.push(own);
                    }
                    None => round.read_ns.push(own),
                }
                slot.plan = None;
                done += 1;
                since_vacuum += 1;
                if since_vacuum == VACUUM_EVERY {
                    since_vacuum = 0;
                    let (pruned, _) = tracer.time(Call::Vacuum, 0, || db.vacuum());
                    round.vacuum_calls += 1;
                    round.vacuum_pruned += pruned as u64;
                }
            }
            Err(Stop::Retry) => {
                tracer.record(Call::Txn, slot.id, t0, t0 + slot.own);
                slot.txn = None;
                slot.step = 0;
                slot.own = Duration::ZERO;
                if slot.tries == MAX_ATTEMPTS {
                    round.failed += 1;
                    if let Some((k, _)) = plan.write {
                        claimed[k as usize] = false;
                    }
                    slot.plan = None;
                    done += 1;
                }
            }
            Err(Stop::Fatal(f)) => return Err(f),
        }
    }
    round.work = work_start.elapsed();
    round.stats = db.stats_report().delta(&base);
    round.spans = tracer.into_spans();

    let mut t = db.begin(IsolationLevel::Serializable);
    let rows = t
        .scan(TABLE)
        .map_err(|e| Failure::new("range-conflict.model", e.to_string()))?;
    t.rollback();
    let got: BTreeMap<i64, i64> = rows
        .iter()
        .map(|r| (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1)))
        .collect();
    if got.len() != rows.len() || got != model {
        let diff = model
            .iter()
            .find(|(k, v)| got.get(k) != Some(v))
            .map(|(k, v)| format!("key {k}: model {v}, table {:?}", got.get(k)))
            .unwrap_or_else(|| "table has rows the model lacks".to_string());
        return Err(Failure::new(
            "range-conflict.model",
            format!(
                "{} rows vs {} in the model; {diff}",
                rows.len(),
                model.len()
            ),
        ));
    }
    let s = &round.stats;
    let counts = Counts {
        commits: s.commits,
        aborts: s.aborts,
        conflicts: s.ssi_conflicts_flagged,
        dangerous: s.ssi_dangerous_structures,
        promotions: s.siread_promotions,
        safe_snapshots: s.ssi_safe_snapshots,
        schedule: std::hash::Hasher::finish(&schedule),
    };
    Ok((round, counts))
}

/// Create and load the table. Returns the database, the generator the
/// schedule continues from, and the model of the loaded rows.
fn setup(seed: u64) -> Outcome<(Database, Rng, BTreeMap<i64, i64>)> {
    let db = Database::open();
    db.create_table(TableDef::new(TABLE, &["k", "v"], vec![0]))
        .map_err(|e| Failure::new("load", e.to_string()))?;
    let mut rng = Rng::new(seed, 0);
    let mut model = BTreeMap::new();
    load(&db, TABLE, ROWS, |i| {
        let v = rng.key(1 << 20);
        model.insert(2 * i, v);
        vec![Value::Int(2 * i), Value::Int(v)]
    })?;
    Ok((db, rng, model))
}

/// Draw the next transaction. A writer claims an unclaimed key: it deletes
/// the key if the committed state holds it and inserts it otherwise. No
/// other writer can touch the key before this one commits, so the choice
/// still holds at the writer's snapshot, retries included.
fn plan(rng: &mut Rng, model: &BTreeMap<i64, i64>, claimed: &mut [bool]) -> Plan {
    let lo = rng.key(KEY_SPACE - RANGE + 1);
    if rng.percent(WRITER_PCT) {
        let k = loop {
            let k = rng.key(KEY_SPACE);
            if !claimed[k as usize] {
                break k;
            }
        };
        claimed[k as usize] = true;
        let op = if model.contains_key(&k) {
            Op::Delete
        } else {
            Op::Insert(rng.key(1 << 20))
        };
        Plan {
            lo,
            read_only: false,
            write: Some((k, op)),
        }
    } else {
        Plan {
            lo,
            read_only: rng.percent(READ_ONLY_PCT),
            write: None,
        }
    }
}

/// Make the slot's next call. Returns whether the transaction committed.
fn advance(
    db: &Database,
    slot: &mut Slot,
    plan: Plan,
    tr: &mut Tracer,
    range_rows: &mut u64,
) -> Result<bool, Stop> {
    let id = slot.id;
    match slot.step {
        0 => {
            let mut opts = BeginOptions::new(IsolationLevel::Serializable);
            if plan.read_only {
                opts = opts.read_only();
            }
            slot.txn = Some(engine(
                tr.time(Call::Begin, id, || db.begin_with(opts)),
                "begin",
            )?);
            slot.step = 1;
        }
        1 => {
            let t = slot.txn.as_mut().expect("open transaction");
            let (lo, hi) = (
                Bound::Included(key(plan.lo)),
                Bound::Excluded(key(plan.lo + RANGE)),
            );
            let rows = engine(
                tr.time(Call::Range, id, || t.range_pk(TABLE, lo, hi)),
                "range_pk",
            )?;
            *range_rows += rows.len() as u64;
            slot.step = if plan.write.is_some() { 2 } else { 3 };
        }
        2 => {
            let t = slot.txn.as_mut().expect("open transaction");
            let (k, op) = plan.write.expect("writer plan");
            match op {
                Op::Insert(v) => engine(
                    tr.time(Call::Write, id, || {
                        t.insert(TABLE, vec![Value::Int(k), Value::Int(v)])
                    }),
                    "insert",
                )?,
                Op::Delete => {
                    if !engine(
                        tr.time(Call::Write, id, || t.delete(TABLE, &key(k))),
                        "delete",
                    )? {
                        return Err(Failure::new(
                            "range-conflict.model",
                            format!("delete of key {k} found no row"),
                        )
                        .into());
                    }
                }
            }
            slot.step = 3;
        }
        _ => {
            let t = slot.txn.take().expect("open transaction");
            let call = if plan.write.is_some() {
                Call::CommitWrite
            } else {
                Call::CommitRead
            };
            engine(tr.time(call, id, || t.commit()), "commit")?;
            return Ok(true);
        }
    }
    Ok(false)
}
