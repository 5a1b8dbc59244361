//! The sessioned connection front-end: [`Server`] accepts logical client
//! sessions over in-process duplex channels and executes their protocol
//! requests on the shared [`SessionPool`].
//!
//! A [`SessionHandle`] is the client end of the channel: `send` enqueues a
//! request line and wakes the session; a pool worker drains the inbox — one
//! activation processes *every* queued request, so a client that pipelines a
//! whole transaction (`BEGIN` … `COMMIT` in one batch) never holds row locks
//! across a scheduling boundary — and pushes one response line per request,
//! which `recv` (blocking) or `try_recv` collects.
//!
//! Each session owns at most one open [`Transaction`]; its txid allocation is
//! pinned to a shard derived from the session id, so sessions spread across
//! the transaction manager's txid shards no matter which worker thread runs
//! them.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use pgssi_common::{Error, Result, ServerConfig, TxnId};
use pgssi_engine::{Database, IsolationLevel, ShardedDatabase, ShardedTransaction};

use crate::pool::{Next, SessionId, SessionPool, SessionTask};
use crate::proto::{self, Command};
use crate::transport::Transport;

#[derive(Default)]
pub(crate) struct Channel {
    pub(crate) requests: VecDeque<String>,
    responses: VecDeque<String>,
    pub(crate) closed: bool,
}

/// Client/server halves share this duplex channel. For TCP sessions only the
/// request direction is used (the connection's reader thread is the "client
/// half"); responses go straight to the socket.
pub(crate) struct Duplex {
    pub(crate) chan: Mutex<Channel>,
    response_ready: Condvar,
}

impl Duplex {
    pub(crate) fn new() -> Duplex {
        Duplex {
            chan: Mutex::new(Channel::default()),
            response_ready: Condvar::new(),
        }
    }
}

/// Where a session's response lines go: back onto the duplex channel for
/// in-process clients, or straight down a socket for TCP clients.
pub(crate) enum ResponseSink {
    /// Push onto `Duplex::responses` and signal `response_ready`.
    InProcess,
    /// Write `line\n` to the shared socket writer. Write failures mark the
    /// channel closed so the session retires on its next activation.
    Socket(Arc<Mutex<std::net::TcpStream>>),
}

/// The server: a session pool plus the accept path.
pub struct Server {
    pub(crate) pool: Arc<SessionPool>,
}

impl Server {
    /// Start a server fronting `db` with `cfg.workers` worker threads (a
    /// one-shard cluster; every statement routes to shard 0).
    pub fn new(db: Database, cfg: ServerConfig) -> Server {
        Server {
            pool: Arc::new(SessionPool::new(db, cfg)),
        }
    }

    /// Start a server fronting a sharded cluster. Statements route per
    /// shard — `BEGIN` pins nothing; a session's transaction escalates to
    /// cross-shard 2PC only when its statements actually span shards.
    pub fn new_cluster(db: ShardedDatabase, cfg: ServerConfig) -> Server {
        Server {
            pool: Arc::new(SessionPool::new_cluster(db, cfg)),
        }
    }

    /// The cluster behind the server (one shard for [`Server::new`]).
    pub fn db(&self) -> &ShardedDatabase {
        self.pool.db()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.pool.live_sessions()
    }

    /// Open a logical session; returns the client end of its duplex channel.
    pub fn connect(&self) -> Result<SessionHandle> {
        let duplex = Arc::new(Duplex::new());
        let task = WireTask::new(
            Arc::clone(&duplex),
            Arc::downgrade(&self.pool),
            ResponseSink::InProcess,
        );
        let sid = self.pool.spawn(Box::new(task))?;
        Ok(SessionHandle {
            pool: Arc::clone(&self.pool),
            duplex,
            sid,
        })
    }

    /// Stop the workers and close every live session (open transactions roll
    /// back; clients blocked in `recv` observe `Disconnected`).
    pub fn shutdown(self) {
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool.shutdown(),
            // Live handles keep the pool allocated (its Drop joins the
            // workers), but their sessions close now.
            Err(pool) => pool.close_sessions(),
        }
    }
}

/// Client end of a session's duplex channel. Dropping it closes the session
/// (any open transaction rolls back).
pub struct SessionHandle {
    pool: Arc<SessionPool>,
    duplex: Arc<Duplex>,
    sid: SessionId,
}

impl SessionHandle {
    /// Whether the server side of this session is idle
    /// ([`SessionPool::is_idle`]): nothing queued, running or latched for it.
    pub fn is_idle(&self) -> bool {
        self.pool.is_idle(self.sid)
    }
}

fn disconnected() -> Error {
    Error::Disconnected("session closed".to_string())
}

impl Transport for SessionHandle {
    /// Enqueue one request line (non-blocking) and wake the session.
    fn send(&self, line: &str) -> Result<()> {
        {
            let mut c = self.duplex.chan.lock();
            if c.closed {
                return Err(disconnected());
            }
            c.requests.push_back(line.to_string());
        }
        self.pool.db().session_stats().requests_enqueued.bump();
        self.pool.wake(self.sid);
        Ok(())
    }

    /// Blocking receive of the next response line; fails with
    /// [`Error::Disconnected`] once closed with an empty response queue.
    fn recv(&self) -> Result<String> {
        let mut c = self.duplex.chan.lock();
        loop {
            if let Some(r) = c.responses.pop_front() {
                return Ok(r);
            }
            if c.closed {
                return Err(disconnected());
            }
            self.duplex.response_ready.wait(&mut c);
        }
    }

    /// Non-blocking receive.
    fn try_recv(&self) -> Result<Option<String>> {
        let mut c = self.duplex.chan.lock();
        match c.responses.pop_front() {
            Some(r) => Ok(Some(r)),
            None if c.closed => Err(disconnected()),
            None => Ok(None),
        }
    }

    /// Pipeline a batch (e.g. a whole transaction) and collect every response.
    /// Because the batch is enqueued before the session is woken, one worker
    /// activation executes it back-to-back — the override enqueues under one
    /// lock acquisition where the default method would wake per line.
    fn pipeline(&self, lines: &[&str]) -> Result<Vec<String>> {
        {
            let mut c = self.duplex.chan.lock();
            if c.closed {
                return Err(disconnected());
            }
            for l in lines {
                c.requests.push_back(l.to_string());
            }
        }
        let stats = self.pool.db().session_stats();
        stats.requests_enqueued.add(lines.len() as u64);
        self.pool.wake(self.sid);
        (0..lines.len()).map(|_| self.recv()).collect()
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.duplex.chan.lock().closed = true;
        self.pool.wake(self.sid);
    }
}

/// Server-side session state: drains the inbox on each activation.
pub(crate) struct WireTask {
    duplex: Arc<Duplex>,
    /// Back-reference for transaction-ownership bookkeeping (weak: tasks live
    /// inside the pool's slots, so a strong handle would be a cycle).
    pool: std::sync::Weak<SessionPool>,
    sink: ResponseSink,
    txn: Option<ShardedTransaction>,
    /// Branches the open transaction has registered with the pool's
    /// `(shard, txid)` → session map. Shared with the transaction's enlist
    /// hook: branches register the instant they open (they can block inside
    /// that same statement), and everything deregisters when the
    /// transaction slot empties.
    tracked: Arc<Mutex<Vec<(usize, TxnId)>>>,
    /// Per-session cache of `(pk columns, width)` by table, so hot-path PUTs
    /// don't re-take the catalog and table locks per request. Schemas are
    /// immutable after `create_table`, so the cache never goes stale.
    shapes: HashMap<String, (Vec<usize>, usize)>,
}

impl WireTask {
    pub(crate) fn new(
        duplex: Arc<Duplex>,
        pool: std::sync::Weak<SessionPool>,
        sink: ResponseSink,
    ) -> WireTask {
        WireTask {
            duplex,
            pool,
            sink,
            txn: None,
            tracked: Arc::new(Mutex::new(Vec::new())),
            shapes: HashMap::new(),
        }
    }

    /// Deliver one response line to the client.
    fn respond(&self, response: String) {
        match &self.sink {
            ResponseSink::InProcess => {
                let mut c = self.duplex.chan.lock();
                c.responses.push_back(response);
                drop(c);
                self.duplex.response_ready.notify_all();
            }
            ResponseSink::Socket(writer) => {
                let mut w = writer.lock();
                let failed = w
                    .write_all(response.as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                    .is_err();
                drop(w);
                if failed {
                    // Client gone mid-response: retire the session on its
                    // next loop iteration (open transaction rolls back).
                    self.duplex.chan.lock().closed = true;
                }
            }
        }
    }
    /// Registration happens eagerly in the transaction's enlist hook (set at
    /// BEGIN); this is the matching teardown, run after each request: once
    /// the transaction slot is empty (COMMIT/ABORT/auto-abort), every branch
    /// it registered is forgotten.
    fn untrack_finished_txn(&mut self) {
        if self.txn.is_some() {
            return;
        }
        let pairs: Vec<(usize, TxnId)> = self.tracked.lock().drain(..).collect();
        if pairs.is_empty() {
            return;
        }
        if let Some(pool) = self.pool.upgrade() {
            for (shard, txid) in pairs {
                pool.forget_txn(shard, txid);
            }
        }
    }

    /// Drop and forget the open transaction (rolls back via `Drop`): the
    /// retirement paths, where only the ownership *removal* matters and no
    /// session id is meaningful.
    fn drop_txn(&mut self) {
        self.txn = None;
        self.untrack_finished_txn();
    }
}

impl SessionTask for WireTask {
    /// Panic path: mark the channel closed and wake the client so a blocked
    /// `recv` fails with [`Error::Disconnected`] instead of hanging on a
    /// retired session. TCP clients learn the same thing from the socket
    /// shutting down.
    fn close(&mut self) {
        self.drop_txn();
        self.duplex.chan.lock().closed = true;
        self.duplex.response_ready.notify_all();
        if let ResponseSink::Socket(writer) = &self.sink {
            let _ = writer.lock().shutdown(std::net::Shutdown::Both);
        }
    }

    fn run(&mut self, db: &ShardedDatabase, sid: SessionId) -> Next {
        loop {
            let line = {
                let mut c = self.duplex.chan.lock();
                if c.closed {
                    c.responses.clear();
                    None
                } else {
                    match c.requests.pop_front() {
                        Some(l) => Some(l),
                        None => return Next::Idle,
                    }
                }
            };
            let Some(line) = line else {
                // Channel closed: roll back any open transaction (forgetting
                // its pool ownership) and retire the session.
                self.drop_txn();
                return Next::Stop;
            };
            let response = execute_line(
                db,
                sid,
                &self.pool,
                &mut self.txn,
                &self.tracked,
                &mut self.shapes,
                &line,
            );
            self.untrack_finished_txn();
            if let Some(pool) = self.pool.upgrade() {
                pool.note_activity(
                    sid,
                    self.txn.as_ref().and_then(|t| t.txid()),
                    self.txn.as_ref().map(|t| iso_label(t.isolation())),
                    self.tracked.lock().iter().map(|&(s, _)| s).collect(),
                );
            }
            db.session_stats().requests_executed.bump();
            self.respond(response);
        }
    }
}

fn err(msg: impl std::fmt::Display) -> String {
    // Responses are line-oriented; errors must stay on one line.
    format!("ERR {}", msg.to_string().replace('\n', " "))
}

/// Short isolation label used in `ACTIVITY` rows.
fn iso_label(iso: IsolationLevel) -> &'static str {
    match iso {
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::RepeatableRead => "SI",
        IsolationLevel::Serializable => "SSI",
        IsolationLevel::Serializable2pl => "S2PL",
    }
}

/// Execute one request line against the session's transaction slot.
fn execute_line(
    db: &ShardedDatabase,
    sid: SessionId,
    pool: &std::sync::Weak<SessionPool>,
    txn: &mut Option<ShardedTransaction>,
    tracked: &Arc<Mutex<Vec<(usize, TxnId)>>>,
    shapes: &mut HashMap<String, (Vec<usize>, usize)>,
    line: &str,
) -> String {
    let cmd = match proto::parse(line) {
        Ok(c) => c,
        Err(e) => return err(e),
    };
    // Retryable failures auto-abort the engine transaction; a dead handle must
    // not linger as "open".
    if txn.as_ref().is_some_and(|t| t.is_finished()) {
        *txn = None;
    }
    match cmd {
        Command::Begin(spec) => {
            if txn.is_some() {
                return err("transaction already open");
            }
            match db.begin_with_on_shard(spec.options(), Some(sid)) {
                Ok(mut t) => {
                    // Register branches the moment they open: a branch can
                    // park on a row lock inside the statement that opened
                    // it, and the wait observer must already know the
                    // `(shard, txid)` → session mapping by then.
                    let pool = pool.clone();
                    let tracked = Arc::clone(tracked);
                    t.set_enlist_hook(move |shard, txid| {
                        tracked.lock().push((shard, txid));
                        if let Some(p) = pool.upgrade() {
                            p.note_txn(shard, txid, sid);
                        }
                    });
                    *txn = Some(t);
                    "OK".to_string()
                }
                Err(e) => err(e),
            }
        }
        Command::Commit => match txn.take() {
            Some(t) => match t.commit() {
                Ok(()) => "OK".to_string(),
                Err(e) => err(e),
            },
            None => err("no transaction open"),
        },
        Command::Abort => match txn.take() {
            Some(t) => {
                t.rollback();
                "OK".to_string()
            }
            None => err("no transaction open"),
        },
        Command::Get { table, key } => with_txn(txn, |t| {
            t.get(&table, &key).map(|row| match row {
                Some(r) => format!("ROW {}", proto::format_row(&r)),
                None => "NIL".to_string(),
            })
        }),
        Command::Put { table, row } => with_txn(txn, |t| {
            if !shapes.contains_key(&table) {
                shapes.insert(table.clone(), db.table_shape(&table)?);
            }
            let (pk, width) = &shapes[&table];
            // Validate arity up front: the engine checks row width on insert
            // but not on update, and the pk projection below would panic.
            if row.len() != *width {
                return Err(pgssi_common::Error::Misuse(format!(
                    "PUT row width {} != table width {width}",
                    row.len()
                )));
            }
            let key: pgssi_common::Key = pk.iter().map(|&i| row[i].clone()).collect();
            if t.update(&table, &key, row.clone())? {
                Ok("OK".to_string())
            } else {
                t.insert(&table, row).map(|()| "OK".to_string())
            }
        }),
        Command::Del { table, key } => with_txn(txn, |t| {
            t.delete(&table, &key)
                .map(|hit| format!("OK {}", u8::from(hit)))
        }),
        // Introspection verbs: read engine/pool state, no transaction needed.
        // Responses are single lines like everything else on the wire.
        Command::Stats => {
            let report = db.stats_report().to_string();
            format!("STATS {}", report.lines().collect::<Vec<_>>().join(" ; "))
        }
        Command::Hist { name } => match db.histogram(&name) {
            Some(h) => format!(
                "HIST {name} n={} p50={} p95={} p99={} max={}",
                h.count(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max()
            ),
            None => err(format!(
                "unknown histogram {name:?} (try one of: {})",
                pgssi_engine::LatencyReport::NAMES.join(", ")
            )),
        },
        Command::Activity => {
            let Some(pool) = pool.upgrade() else {
                return err("pool shut down");
            };
            let rows = pool.activity_rows();
            let body = rows
                .iter()
                .map(|(sid, a)| {
                    // Open-ness is keyed on the isolation label, not the
                    // txid: a transaction is open from BEGIN, but its txid
                    // appears only once a statement routes to a shard.
                    let state = match (a.isolation, a.waiting_on) {
                        (Some(_), Some(_)) => "waiting",
                        (Some(_), None) => "active",
                        _ => "idle",
                    };
                    let fmt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
                    // Trailing column: shards the transaction has enlisted,
                    // "+"-joined ("0+2" = cross-shard 2PC over shards 0 and
                    // 2; "-" = none routed yet).
                    let shards = if a.shards.is_empty() {
                        "-".to_string()
                    } else {
                        a.shards
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join("+")
                    };
                    format!(
                        "{sid},{state},{},{},{},{shards}",
                        fmt(a.txid),
                        a.isolation.unwrap_or("-"),
                        fmt(a.waiting_on)
                    )
                })
                .collect::<Vec<_>>()
                .join("|");
            if body.is_empty() {
                format!("ROWS {}", rows.len())
            } else {
                format!("ROWS {} {body}", rows.len())
            }
        }
        Command::Scan { table } => with_txn(txn, |t| {
            let rows = t.scan(&table)?;
            let body = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(proto::format_value)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("|");
            Ok(if body.is_empty() {
                format!("ROWS {}", rows.len())
            } else {
                format!("ROWS {} {body}", rows.len())
            })
        }),
    }
}

/// Run a data command against the open transaction, mapping errors (and the
/// no-transaction case) to `ERR` lines and reaping auto-aborted handles.
fn with_txn(
    txn: &mut Option<ShardedTransaction>,
    f: impl FnOnce(&mut ShardedTransaction) -> Result<String>,
) -> String {
    let Some(t) = txn.as_mut() else {
        return err("no transaction open");
    };
    let out = match f(t) {
        Ok(s) => s,
        Err(e) => err(e),
    };
    if t.is_finished() {
        // Retryable error rolled the transaction back under us.
        *txn = None;
    }
    out
}
