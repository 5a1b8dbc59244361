//! `wire-durable`: the one workload where server queueing, parsing and
//! dispatch, and WAL append plus the group-commit fsync, block the client.
//!
//! Two client threads each hold one `Server::connect` session against a
//! server with two pool workers. Each request is one protocol line, and a
//! client pipelines the lines of a transaction that do not wait on a result. The
//! database logs to a file-backed WAL with group commit, in a directory
//! under the working directory (a disk-backed file system, not tmpfs). The
//! table holds 65,536 rows. Half the transactions are
//! `BEGIN; 4×GET; COMMIT` and half `BEGIN; GET k; PUT k v+1; COMMIT`.
//!
//! Check: after the server shuts down, `Database::open_durable` on the same
//! directory shows every acknowledged PUT: each row's value is its loaded
//! value plus the number of acknowledged PUTs to it.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use pgssi_common::{EngineConfig, ServerConfig, Value, WalConfig};
use pgssi_engine::{Database, IsolationLevel, TableDef};
use pgssi_server::{Server, SessionHandle, Transport};

use crate::measure::{load, run_logical, Failure, Outcome, Round, Stop, Tally, Work};
use crate::rng::Rng;
use crate::trace::{Call, Tracer};

pub const ROWS: i64 = 65_536;
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Transactions per round, shared by the clients.
pub const TXNS: u64 = 16_000;
pub const WRITE_PCT: u64 = 50;
pub const READS_PER_TXN: usize = 4;
const TABLE: &str = "kv";

/// The flush policy every round runs under, printed with the results.
pub const FLUSH_POLICY: &str = "file WAL, group commit on: COMMIT is acknowledged after an fsync \
     covers its record; a committer that finds no fsync in flight leads one for every record \
     appended so far, the others wait for it";

/// Directory the rounds' WALs live in, under the working directory.
pub const WORK_DIR: &str = ".perfbench_tmp";

/// File-system type of the working directory, from `/proc/self/mounts`, so
/// that every run states whether its WAL sat on a disk or on tmpfs.
pub fn work_fs_type() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, at, fs) = (fields.next()?, fields.next()?, fields.next()?);
            cwd.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        wal: WalConfig::file(dir),
        ..EngineConfig::default()
    }
}

/// Removes the round's WAL directory however the round ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One round on a fresh durable database in a new directory.
pub fn round(seed: u64, txns: u64, traced: bool, n: u64) -> Outcome<Round> {
    let dir = Path::new(WORK_DIR).join(format!("wire-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let guard = DirGuard(dir.clone());
    let io = |e: pgssi_common::Error| Failure::new("load", e.to_string());

    let mut round = Round::default();
    let started = Instant::now();
    let db = Database::open_durable(config(&dir)).map_err(io)?;
    db.create_table(TableDef::new(TABLE, &["k", "v"], vec![0]))
        .map_err(io)?;
    let mut rng = Rng::new(seed, 0);
    let mut loaded = Vec::with_capacity(ROWS as usize);
    load(&db, TABLE, ROWS, |k| {
        loaded.push(rng.key(1000));
        vec![Value::Int(k), Value::Int(loaded[k as usize])]
    })?;
    let server = Server::new(db.clone(), ServerConfig::with_workers(WORKERS));
    round.setup = started.elapsed();

    let base = db.stats_report();
    let queue = Work::new(seed, txns);
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let (outs, work) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, queue, barrier) = (&server, &queue, &barrier);
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch, traced);
                    let session = server.connect();
                    barrier.wait();
                    let out = session
                        .map_err(|e| Failure::new("unexpected-error", format!("connect: {e}")))
                        .and_then(|s| client(&s, queue, c as u64, &mut tracer));
                    out.map(|(tally, acked)| (tally, acked, tracer.into_spans()))
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("wire-durable client panicked"))
            .collect();
        (outs, t0.elapsed())
    });
    round.work = work;
    round.stats = db.stats_report().delta(&base);
    server.shutdown();
    drop(db);
    let mut acked = vec![0i64; ROWS as usize];
    for out in outs {
        let (tally, puts, spans) = out?;
        tally.fold_into(&mut round);
        for k in puts {
            acked[k as usize] += 1;
        }
        round.spans.extend(spans);
    }

    let reopened = Instant::now();
    let db = Database::open_durable(config(&dir))
        .map_err(|e| Failure::new("wire-durable.recovery", e.to_string()))?;
    round.recovery = Some(reopened.elapsed());
    let mut t = db.begin(IsolationLevel::Serializable);
    let rows = t
        .scan(TABLE)
        .map_err(|e| Failure::new("wire-durable.recovery", e.to_string()))?;
    t.rollback();
    let mut seen = 0;
    for r in &rows {
        let (k, v) = (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1));
        let want = usize::try_from(k)
            .ok()
            .and_then(|i| Some(loaded.get(i)? + acked[i]));
        if want != Some(v) {
            return Err(Failure::new(
                "wire-durable.recovery",
                format!("after recovery key {k} holds {v}, acknowledged PUTs give {want:?}"),
            ));
        }
        seen += 1;
    }
    if seen != ROWS {
        return Err(Failure::new(
            "wire-durable.recovery",
            format!("{seen} rows recovered, {ROWS} loaded"),
        ));
    }
    drop(db);
    drop(guard);
    Ok(round)
}

/// Whether a response reports a serialization failure or deadlock.
fn retryable(resp: &str) -> bool {
    resp.starts_with("ERR")
        && (resp.contains("could not serialize") || resp.contains("deadlock detected"))
}

/// Send `lines` as one pipelined batch (one round trip) and check the
/// responses: `OK` for BEGIN, PUT and COMMIT, a `ROW` for GET. After a
/// retryable error the server has rolled the transaction back, so the rest
/// of the batch answers "no transaction open"; the attempt is retried.
/// Returns the value of each GET.
fn batch(
    session: &SessionHandle,
    tr: &mut Tracer,
    call: Call,
    id: u64,
    lines: &[String],
) -> Result<Vec<i64>, Stop> {
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let resps = tr
        .time(call, id, || session.pipeline(&refs))
        .map_err(|e| Failure::new("unexpected-error", format!("{refs:?}: {e}")))?;
    let mut values = Vec::new();
    for (line, resp) in lines.iter().zip(&resps) {
        if retryable(resp) {
            return Err(Stop::Retry);
        }
        if resp.starts_with("ERR") {
            return Err(Failure::new("unexpected-error", format!("{line}: {resp}")).into());
        }
        match line.strip_prefix("GET ") {
            Some(get) => {
                let k = get
                    .rsplit(' ')
                    .next()
                    .and_then(|k| k.parse().ok())
                    .unwrap_or(-1);
                values.push(parse_value(resp, k)?);
            }
            None if resp == "OK" => {}
            None => {
                return Err(Failure::new("wire-durable.response", format!("{line}: {resp}")).into())
            }
        }
    }
    Ok(values)
}

/// One client's share of the round's work, over its session. Returns its
/// tally and the key of every PUT whose COMMIT was acknowledged.
///
/// A client sends each transaction in as few round trips as its data
/// dependencies allow: a read transaction is one batch; a write transaction
/// is `BEGIN; GET` and then `PUT; COMMIT`, since the PUT needs the value read.
fn client(
    session: &SessionHandle,
    queue: &Work,
    client: u64,
    tracer: &mut Tracer,
) -> Outcome<(Tally, Vec<i64>)> {
    let mut tally = Tally::default();
    let mut acked = Vec::new();
    let mut seq = 0u64;
    let mut next_id = || {
        seq += 1;
        (client << 48) | seq
    };
    let begin = "BEGIN SERIALIZABLE".to_string();
    let commit = "COMMIT".to_string();
    while let Some(mut rng) = queue.take() {
        if rng.percent(WRITE_PCT) {
            let k = rng.key(ROWS);
            let fetch = [begin.clone(), format!("GET {TABLE} {k}")];
            let ok = run_logical(&mut tally, true, &mut next_id, |id| {
                tracer.attempt(id, |tr| {
                    let v = batch(session, tr, Call::RtFetch, id, &fetch)?[0];
                    let store = [format!("PUT {TABLE} {k} {}", v + 1), commit.clone()];
                    batch(session, tr, Call::RtStore, id, &store).map(drop)
                })
            })?;
            if ok {
                acked.push(k);
            }
        } else {
            let mut lines = vec![begin.clone()];
            lines.extend((0..READS_PER_TXN).map(|_| format!("GET {TABLE} {}", rng.key(ROWS))));
            lines.push(commit.clone());
            run_logical(&mut tally, false, &mut next_id, |id| {
                tracer.attempt(id, |tr| {
                    batch(session, tr, Call::RtRead, id, &lines).map(drop)
                })
            })?;
        }
    }
    Ok((tally, acked))
}

/// The value column of a `ROW k v` response for key `k`.
fn parse_value(resp: &str, k: i64) -> Result<i64, Stop> {
    let mut it = resp.split_whitespace();
    match (
        it.next(),
        it.next().map(str::parse::<i64>),
        it.next().map(str::parse::<i64>),
    ) {
        (Some("ROW"), Some(Ok(got)), Some(Ok(v))) if got == k => Ok(v),
        _ => Err(Failure::new("wire-durable.response", format!("GET {k}: {resp}")).into()),
    }
}
