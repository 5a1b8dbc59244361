//! `point-rw`: the short-transaction hot path, and the place where the
//! commit-order section is contended.
//!
//! Two client threads on the embedded API share a fixed number of
//! serializable transactions over one 262,144-row table, larger than the
//! CPU caches, with uniform keys. 90% are read transactions of four point
//! `get`s that are *not* declared READ ONLY, so they take the full SIREAD
//! path; 10% read a row and write it back incremented. No server, no fsync, no range locks.
//!
//! Check: after the work, Σv equals the loaded sum plus the number of
//! committed updates.

use std::sync::Barrier;
use std::time::Instant;

use pgssi_common::{Key, Value};
use pgssi_engine::{Database, IsolationLevel, TableDef, Transaction};

use crate::measure::{engine, load, run_logical, Failure, Outcome, Round, Stop, Tally, Work};
use crate::rng::Rng;
use crate::trace::{Call, Tracer};

pub const ROWS: i64 = 262_144;
pub const CLIENTS: usize = 2;
/// Transactions per round, shared by the clients.
pub const TXNS: u64 = 40_000;
/// Share of transactions that update a row, %.
pub const WRITE_PCT: u64 = 10;
pub const READS_PER_TXN: usize = 4;
const TABLE: &str = "acct";

fn key(k: i64) -> Key {
    vec![Value::Int(k)]
}

fn value_of(row: &[Value]) -> Outcome<i64> {
    row.get(1)
        .and_then(Value::as_int)
        .ok_or_else(|| Failure::new("point-rw.row-shape", format!("bad row {row:?}")))
}

/// One round on a fresh database, `txns` transactions in all.
pub fn round(seed: u64, txns: u64, traced: bool) -> Outcome<Round> {
    let mut round = Round::default();
    let started = Instant::now();
    let db = Database::open();
    db.create_table(TableDef::new(TABLE, &["k", "v"], vec![0]))
        .map_err(|e| Failure::new("load", e.to_string()))?;
    let mut rng = Rng::new(seed, 0);
    let mut loaded_sum = 0;
    load(&db, TABLE, ROWS, |k| {
        let v = rng.key(1000);
        loaded_sum += v;
        vec![Value::Int(k), Value::Int(v)]
    })?;
    round.setup = started.elapsed();

    let base = db.stats_report();
    let queue = Work::new(seed, txns);
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let (outs, work) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (db, queue, barrier) = (&db, &queue, &barrier);
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch, traced);
                    barrier.wait();
                    let out = client(db, queue, c as u64, &mut tracer);
                    out.map(|(tally, updates)| (tally, updates, tracer.into_spans()))
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("point-rw client panicked"))
            .collect();
        (outs, t0.elapsed())
    });
    round.work = work;
    round.stats = db.stats_report().delta(&base);
    let mut updates = 0;
    for out in outs {
        let (tally, n, spans) = out?;
        tally.fold_into(&mut round);
        updates += n;
        round.spans.extend(spans);
    }

    let mut t = db.begin(IsolationLevel::Serializable);
    let rows = t
        .scan(TABLE)
        .map_err(|e| Failure::new("point-rw.sum", e.to_string()))?;
    let sum: i64 = rows.iter().map(|r| value_of(r)).sum::<Outcome<i64>>()?;
    t.rollback();
    if rows.len() as i64 != ROWS || sum != loaded_sum + updates as i64 {
        return Err(Failure::new(
            "point-rw.sum",
            format!(
                "{} rows with Σv {sum}; expected {ROWS} rows with Σv {loaded_sum} + {updates} committed updates",
                rows.len()
            ),
        ));
    }
    Ok(round)
}

/// One client's share of the round's work. Returns its tally and committed
/// updates.
fn client(db: &Database, queue: &Work, client: u64, tracer: &mut Tracer) -> Outcome<(Tally, u64)> {
    let mut tally = Tally::default();
    let mut updates = 0;
    let mut seq = 0u64;
    let mut next_id = || {
        seq += 1;
        (client << 48) | seq
    };
    while let Some(mut rng) = queue.take() {
        if rng.percent(WRITE_PCT) {
            let k = rng.key(ROWS);
            let ok = run_logical(&mut tally, true, &mut next_id, |id| {
                tracer.attempt(id, |tr| {
                    let mut t = tr.time(Call::Begin, id, || db.begin(IsolationLevel::Serializable));
                    let row = engine(tr.time(Call::Get, id, || t.get(TABLE, &key(k))), "get")?;
                    let row = row
                        .ok_or_else(|| Failure::new("point-rw.row-present", format!("key {k}")))?;
                    let v = value_of(&row)?;
                    let hit = engine(
                        tr.time(Call::Write, id, || {
                            t.update(TABLE, &key(k), vec![Value::Int(k), Value::Int(v + 1)])
                        }),
                        "update",
                    )?;
                    if !hit {
                        return Err(Failure::new(
                            "point-rw.row-present",
                            format!("update of key {k}"),
                        )
                        .into());
                    }
                    commit(tr, id, t, Call::CommitWrite)
                })
            })?;
            updates += u64::from(ok);
        } else {
            let keys: [i64; READS_PER_TXN] = std::array::from_fn(|_| rng.key(ROWS));
            run_logical(&mut tally, false, &mut next_id, |id| {
                tracer.attempt(id, |tr| {
                    let mut t = tr.time(Call::Begin, id, || db.begin(IsolationLevel::Serializable));
                    for &k in &keys {
                        let row = engine(tr.time(Call::Get, id, || t.get(TABLE, &key(k))), "get")?;
                        if row.is_none() {
                            return Err(
                                Failure::new("point-rw.row-present", format!("key {k}")).into()
                            );
                        }
                    }
                    commit(tr, id, t, Call::CommitRead)
                })
            })?;
        }
    }
    Ok((tally, updates))
}

fn commit(tr: &mut Tracer, id: u64, t: Transaction, call: Call) -> Result<(), Stop> {
    engine(tr.time(call, id, || t.commit()), "commit")
}
