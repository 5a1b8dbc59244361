//! What one round of a workload produces, how it fails, and the statistics
//! and host probes the report is built from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pgssi_common::stats::HistSnapshot;
use pgssi_common::Error;
use pgssi_engine::StatsReport;

use crate::rng::Rng;
use crate::trace::Span;

/// A correctness check that did not hold, or an error the workload does not
/// expect. The run exits nonzero and names `check`.
#[derive(Debug)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

impl Failure {
    pub fn new(check: &'static str, detail: impl Into<String>) -> Failure {
        Failure {
            check,
            detail: detail.into(),
        }
    }
}

pub type Outcome<T> = Result<T, Failure>;

/// Why a transaction attempt stopped before committing.
pub enum Stop {
    /// Serialization failure or deadlock: roll back and run it again.
    Retry,
    Fatal(Failure),
}

impl From<Failure> for Stop {
    fn from(f: Failure) -> Stop {
        Stop::Fatal(f)
    }
}

/// Map an engine result: retryable errors retry the attempt, any other error
/// fails the run under the `unexpected-error` check.
pub fn engine<T>(r: Result<T, Error>, call: &str) -> Result<T, Stop> {
    r.map_err(|e| {
        if e.is_retryable() {
            Stop::Retry
        } else {
            Stop::Fatal(Failure::new("unexpected-error", format!("{call}: {e}")))
        }
    })
}

/// A round's transactions, numbered `0..total`, handed to whichever client
/// asks next. Transaction `i` draws its inputs from generator stream `1 + i`
/// (stream 0 makes the load), so the seed fixes the set of transactions
/// whichever client runs each. The clients stay busy until the work is
/// gone, so a round's time is not that of its slowest client.
pub struct Work {
    next: AtomicU64,
    total: u64,
    seed: u64,
}

impl Work {
    pub fn new(seed: u64, total: u64) -> Work {
        Work {
            next: AtomicU64::new(0),
            total,
            seed,
        }
    }

    /// The generator of the next transaction, or `None` once all are taken.
    pub fn take(&self) -> Option<Rng> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then(|| Rng::new(self.seed, 1 + i))
    }
}

/// Attempts a logical transaction may take before it counts as failed.
pub const MAX_ATTEMPTS: u64 = 64;

/// One round: a fresh database, its set-up, a fixed amount of work, and the
/// checks on the result.
#[derive(Default)]
pub struct Round {
    /// Schema creation plus the initial load (and server start).
    pub setup: Duration,
    /// Wall time of the measured work.
    pub work: Duration,
    /// Logical transactions the clients ran (retries not counted).
    pub logical: u64,
    /// Logical transactions that never committed within `MAX_ATTEMPTS`.
    pub failed: u64,
    /// Transaction attempts, retries included.
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Attempts begun READ ONLY.
    pub read_only: u64,
    /// Latency of each committed read transaction, ns.
    pub read_ns: Vec<u64>,
    /// Latency of each committed write transaction, ns.
    pub write_ns: Vec<u64>,
    /// Engine counters over the work phase only.
    pub stats: StatsReport,
    /// Spans, when the round was traced.
    pub spans: Vec<Span>,
    /// Rows returned by range scans.
    pub range_rows: u64,
    /// `Database::vacuum` calls and the versions they pruned.
    pub vacuum_calls: u64,
    pub vacuum_pruned: u64,
    /// Time `Database::open_durable` took to recover the round's WAL.
    pub recovery: Option<Duration>,
}

impl Round {
    /// Committed transactions per second of work.
    pub fn commit_tps(&self) -> f64 {
        self.commits as f64 / self.work.as_secs_f64()
    }
}

/// Per-client tallies, folded into a [`Round`].
#[derive(Default)]
pub struct Tally {
    pub logical: u64,
    pub failed: u64,
    pub attempts: u64,
    pub commits: u64,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
}

impl Tally {
    pub fn fold_into(self, r: &mut Round) {
        r.logical += self.logical;
        r.failed += self.failed;
        r.attempts += self.attempts;
        r.commits += self.commits;
        r.read_ns.extend(self.read_ns);
        r.write_ns.extend(self.write_ns);
    }
}

/// Run one logical transaction: `attempt` until it commits, retrying on
/// serialization failures. `attempt` gets the attempt's sequence number.
/// Returns whether it committed.
pub fn run_logical(
    tally: &mut Tally,
    write: bool,
    mut next_id: impl FnMut() -> u64,
    mut attempt: impl FnMut(u64) -> Result<(), Stop>,
) -> Outcome<bool> {
    tally.logical += 1;
    for _ in 0..MAX_ATTEMPTS {
        tally.attempts += 1;
        let started = Instant::now();
        match attempt(next_id()) {
            Ok(()) => {
                let ns = started.elapsed().as_nanos() as u64;
                tally.commits += 1;
                if write {
                    tally.write_ns.push(ns);
                } else {
                    tally.read_ns.push(ns);
                }
                return Ok(true);
            }
            Err(Stop::Retry) => {}
            Err(Stop::Fatal(f)) => return Err(f),
        }
    }
    tally.failed += 1;
    Ok(false)
}

/// Value at quantile `q` (0–1) of sorted samples, linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Nearest-rank percentile `p` (0–100) of latency samples, in µs.
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    *v as f64 / 1e3
}

/// Mean of an engine histogram, estimated as the average of its 200
/// half-percent quantiles. The histogram reports bucket lower bounds, so the
/// estimate reads up to 12.5% low; it is comparable between runs.
pub fn hist_mean_ns(h: &HistSnapshot) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    (0..200)
        .map(|i| h.percentile((i as f64 + 0.5) / 2.0) as f64)
        .sum::<f64>()
        / 200.0
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed reference kernel: a dependent walk through a 64 MiB table in
/// pseudo-random order, so its time tracks the host's memory latency, which
/// is what drifts on a shared machine. Returns the median of three timings
/// in ms. It never scales an end-to-end metric; it only shows drift.
pub fn ref_kernel_ms() -> f64 {
    const LEN: usize = 1 << 24;
    const STEPS: usize = 1 << 20;
    // next[i] = (a·i + c) mod 2^24 is a full-period LCG, so the walk visits
    // distinct slots and each load depends on the one before.
    let next: Vec<u32> = (0..LEN as u32)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (LEN as u32 - 1))
        .collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut at = 0u32;
            for _ in 0..STEPS {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Rows per committed transaction of an initial load.
pub const LOAD_BATCH: i64 = 1024;

/// Insert rows `0..n` into `table` through the public API, `LOAD_BATCH`
/// rows per committed serializable transaction. `row(i)` makes row `i` as
/// its batch is loaded, so the benchmark never holds the table itself and
/// peak RSS stays the engine's.
pub fn load(
    db: &pgssi_engine::Database,
    table: &str,
    n: i64,
    mut row: impl FnMut(i64) -> pgssi_common::Row,
) -> Outcome<()> {
    let fail = |e: Error| Failure::new("load", format!("{table}: {e}"));
    let mut i = 0;
    while i < n {
        let mut t = db.begin(pgssi_engine::IsolationLevel::Serializable);
        for _ in 0..LOAD_BATCH.min(n - i) {
            t.insert(table, row(i)).map_err(fail)?;
            i += 1;
        }
        t.commit().map_err(fail)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut lat = vec![5_000, 1_000, 3_000, 2_000, 4_000];
        assert_eq!(percentile_us(&mut lat, 50.0), 3.0);
        assert_eq!(percentile_us(&mut lat, 90.0), 5.0);
        assert_eq!(percentile_us(&mut [], 90.0), 0.0);
    }

    #[test]
    fn retries_until_commit_and_counts_failures() {
        let mut tally = Tally::default();
        let mut tries = 0;
        let mut id = 0;
        let ok = run_logical(
            &mut tally,
            true,
            || {
                id += 1;
                id
            },
            |_| {
                tries += 1;
                if tries < 3 {
                    Err(Stop::Retry)
                } else {
                    Ok(())
                }
            },
        );
        assert!(ok.unwrap());
        assert_eq!((tally.logical, tally.attempts, tally.commits), (1, 3, 1));
        assert_eq!(tally.write_ns.len(), 1);
        let gave_up = run_logical(&mut tally, false, || 0, |_| Err(Stop::Retry)).unwrap();
        assert!(!gave_up);
        assert_eq!(tally.failed, 1);
        let fatal = run_logical(
            &mut tally,
            false,
            || 0,
            |_| Err(Failure::new("x", "y").into()),
        );
        assert_eq!(fatal.unwrap_err().check, "x");
    }
}
