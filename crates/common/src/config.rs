//! Runtime configuration.
//!
//! [`SsiConfig`] exposes the memory-bounding and optimization knobs the paper
//! describes: fixed-size predicate-lock and committed-transaction tables (§6),
//! granularity-promotion thresholds (§5.2.1), and a switch for the read-only
//! (§4) optimizations so the benchmarks can run the "SSI (no r/o opt.)" series
//! from Figures 4 and 5. What PostgreSQL fixes is fixed here too: the SIREAD
//! table's 16 partitions, the single transaction-record registry and the
//! §3.3.1 commit-ordering rule are not configurable.

use std::time::Duration;

/// Tuning knobs for the SSI core and the SIREAD lock manager.
#[derive(Clone, Debug)]
pub struct SsiConfig {
    /// Soft cap on SIREAD locks a single transaction may hold before the lock
    /// manager starts promoting its fine-grained locks to coarser granularity
    /// (PostgreSQL: `max_pred_locks_per_transaction`).
    pub max_predicate_locks_per_txn: usize,
    /// If a transaction holds more than this many tuple locks on one heap page, they
    /// are promoted to a single page lock.
    pub promote_tuple_threshold: usize,
    /// If a transaction holds more than this many page locks on one relation, they
    /// are promoted to a single relation lock.
    pub promote_page_threshold: usize,
    /// Read-set batching (perf): a serializable transaction's SIREAD targets
    /// are accumulated in a transaction-local pending set (guarded only by the
    /// owner's own mutex, with a shared no-false-negative presence filter for
    /// writers) and published to the partitioned lock table in batches instead
    /// of eagerly per read. This is the publication batch bound: once the
    /// pending set reaches it, the batch is spilled to the partition table.
    /// `1` (or `0`) restores the eager per-read acquisition path — the
    /// `--read-batch 1` ablation.
    pub read_batch: usize,
    /// Capacity of the committed-transaction table. When exceeded, the oldest
    /// committed transaction is *summarized*: its SIREAD locks are consolidated onto
    /// the dummy "old committed" owner and its conflict-out information moves to the
    /// serial overflow table (paper §6.2).
    pub max_committed_sxacts: usize,
    /// Number of in-RAM pages of the serial overflow table (the SLRU analog). Older
    /// pages are spilled to the simulated disk backing store, giving the table
    /// effectively unlimited capacity with bounded RAM (paper §6.2).
    pub serial_ram_pages: usize,
    /// Apply the read-only snapshot ordering rule (paper §4.1, Theorem 3) and safe
    /// snapshots (§4.2). The Figure 4/5 "SSI (no r/o opt.)" series disables this.
    pub enable_read_only_opt: bool,
    /// How long a deferrable transaction waits between safe-snapshot attempts before
    /// re-sampling (it is woken eagerly on state changes; this bounds the sleep).
    pub deferrable_retry_interval: Duration,
    /// Maximum time to wait on another transaction's row lock or S2PL lock before
    /// giving up with [`crate::Error::LockTimeout`]. Deadlock detection usually
    /// fires far earlier; the timeout is a backstop.
    pub lock_wait_timeout: Duration,
}

impl Default for SsiConfig {
    fn default() -> Self {
        SsiConfig {
            max_predicate_locks_per_txn: 4096,
            promote_tuple_threshold: 16,
            promote_page_threshold: 64,
            // Tuned on the fig_scaling SIBENCH sweep: comfortably above the
            // read footprint of a point-read transaction, so common
            // transactions never spill mid-flight, while still bounding the
            // pending set a writer-side filter hit has to walk.
            read_batch: 32,
            max_committed_sxacts: 1024,
            serial_ram_pages: 8,
            enable_read_only_opt: true,
            deferrable_retry_interval: Duration::from_millis(10),
            lock_wait_timeout: Duration::from_secs(10),
        }
    }
}

impl SsiConfig {
    /// Configuration with the read-only optimizations disabled, used by the
    /// "SSI (no r/o opt.)" benchmark series.
    pub fn without_read_only_opt() -> Self {
        SsiConfig {
            enable_read_only_opt: false,
            ..SsiConfig::default()
        }
    }

    /// Configuration with read-set batching disabled: every read publishes its
    /// SIREAD lock to the partition table eagerly (the pre-batching behavior,
    /// kept for ablation runs and as the reference in model tests).
    pub fn eager_reads() -> Self {
        SsiConfig {
            read_batch: 1,
            ..SsiConfig::default()
        }
    }

    /// A deliberately tiny configuration that forces promotion and summarization on
    /// small workloads; used by memory-pressure tests.
    pub fn tiny() -> Self {
        SsiConfig {
            max_predicate_locks_per_txn: 8,
            promote_tuple_threshold: 2,
            promote_page_threshold: 2,
            max_committed_sxacts: 4,
            serial_ram_pages: 1,
            ..SsiConfig::default()
        }
    }
}

/// Session-layer configuration for `pgssi-server`'s [`SessionPool`] — the
/// thread-pooled front-end that multiplexes many logical client sessions
/// (paper §8 runs hundreds of mostly-idle DBT-2 terminals) onto a small,
/// fixed set of worker threads.
///
/// [`SessionPool`]: https://docs.rs/pgssi-server
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing session activations. Defaults to the machine's
    /// available parallelism, capped at 16.
    pub workers: usize,
    /// Maximum number of concurrently open logical sessions.
    pub max_sessions: usize,
    /// Longest request line (bytes, terminator excluded) the TCP front-end
    /// accepts. A client streaming an endless line would otherwise grow the
    /// reader's buffer without bound; past the cap the connection is closed
    /// (its open transaction rolls back, like any disconnect).
    pub max_request_line: usize,
    /// Idle timeout on a TCP connection's reader: a connection that sends no
    /// bytes for this long is closed. `None` = wait forever (in-process
    /// sessions are never subject to it).
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            max_sessions: 1024,
            max_request_line: 1 << 20,
            idle_timeout: Some(std::time::Duration::from_secs(300)),
        }
    }
}

impl ServerConfig {
    /// Explicit worker count, default session cap.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig {
            workers: workers.max(1),
            ..ServerConfig::default()
        }
    }
}

/// Where the durable write-ahead log lives (DESIGN.md §5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalMode {
    /// In-memory log (the default): redo records are captured behind the same
    /// `WalStore` trait as the file log, but `sync` is free and nothing
    /// survives process exit — today's all-in-memory behavior.
    Memory,
    /// File-backed log under the given directory (`wal.log` + `checkpoint.bin`).
    /// Commits park until their record's sync epoch is fsynced; reopening the
    /// same directory recovers by checkpoint load + WAL replay.
    File {
        /// Directory holding the log and checkpoint files; created on open.
        dir: std::path::PathBuf,
    },
}

/// Durability configuration.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Log placement (in-memory vs file-backed).
    pub mode: WalMode,
    /// Batch fsyncs across concurrent committers (group commit): a commit whose
    /// record is not yet durable elects one leader to fsync everything buffered
    /// so far while the rest park on the sync epoch. `false` is the ablation —
    /// every committer pays its own fsync (`fig_recovery --group-commit 1`).
    pub group_commit: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            mode: WalMode::Memory,
            group_commit: true,
        }
    }
}

impl WalConfig {
    /// File-backed durable log under `dir` with group commit on.
    pub fn file(dir: impl Into<std::path::PathBuf>) -> Self {
        WalConfig {
            mode: WalMode::File { dir: dir.into() },
            group_commit: true,
        }
    }
}

/// Simulated I/O cost model.
///
/// The paper's disk-bound configuration (Figure 5b) exists to show that when I/O
/// dominates, SSI's CPU overhead stops mattering. We reproduce the effect by
/// charging a synthetic latency for buffer-cache misses against a configurable
/// cache size (see DESIGN.md §2 for the substitution rationale).
#[derive(Clone, Debug)]
pub struct IoModel {
    /// Latency charged for a heap-page cache miss. `Duration::ZERO` disables the
    /// model (the "in-memory"/tmpfs configuration).
    pub miss_latency: Duration,
    /// Number of heap pages the simulated buffer cache holds.
    pub cache_pages: usize,
}

impl IoModel {
    /// No I/O cost: the in-memory (tmpfs) configuration from §8.1/§8.2.
    pub fn in_memory() -> IoModel {
        IoModel {
            miss_latency: Duration::ZERO,
            cache_pages: usize::MAX,
        }
    }

    /// Disk-bound configuration: cache misses pay `miss_latency`.
    pub fn disk_bound(miss_latency: Duration, cache_pages: usize) -> IoModel {
        IoModel {
            miss_latency,
            cache_pages,
        }
    }

    /// Whether the model ever charges latency.
    pub fn is_noop(&self) -> bool {
        self.miss_latency.is_zero()
    }
}

impl Default for IoModel {
    fn default() -> Self {
        IoModel::in_memory()
    }
}

/// Observability: latency histograms and the per-transaction event tracer.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Record latency histograms (commit end-to-end plus per-phase timings).
    /// On by default — recording is one relaxed atomic add per sample — and
    /// switched off by the benches' `--no-latency` overhead baseline.
    pub latency: bool,
    /// Retain per-transaction lifecycle events (begin, conflict edges, doom,
    /// commit/abort …) in a fixed-size ring. Off by default: the disabled
    /// tracer allocates nothing and its record path is a single branch.
    pub trace: bool,
    /// Ring capacity (events) when tracing is enabled.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            latency: true,
            trace: false,
            trace_capacity: 4096,
        }
    }
}

/// Top-level engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// SSI / lock-manager tuning.
    pub ssi: SsiConfig,
    /// Simulated I/O model.
    pub io: IoModel,
    /// Durable-WAL placement and group-commit policy.
    pub wal: WalConfig,
    /// Observability: histograms and tracing.
    pub obs: ObsConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_read_only_opt() {
        assert!(SsiConfig::default().enable_read_only_opt);
    }

    #[test]
    fn no_ro_opt_config() {
        let c = SsiConfig::without_read_only_opt();
        assert!(!c.enable_read_only_opt);
    }

    #[test]
    fn tiny_config_is_small() {
        let c = SsiConfig::tiny();
        assert!(c.max_committed_sxacts <= 4);
        assert!(c.promote_tuple_threshold <= 2);
    }

    #[test]
    fn read_batch_default_and_ablation() {
        assert!(SsiConfig::default().read_batch > 1);
        assert_eq!(SsiConfig::eager_reads().read_batch, 1);
    }

    #[test]
    fn server_config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1 && c.workers <= 16);
        assert!(c.max_sessions >= c.workers);
        assert_eq!(ServerConfig::with_workers(0).workers, 1);
        assert_eq!(ServerConfig::with_workers(3).workers, 3);
    }

    #[test]
    fn wal_defaults_to_memory_with_group_commit() {
        let c = WalConfig::default();
        assert_eq!(c.mode, WalMode::Memory);
        assert!(c.group_commit);
        let f = WalConfig::file("/tmp/x");
        assert!(matches!(f.mode, WalMode::File { .. }));
        assert_eq!(EngineConfig::default().wal.mode, WalMode::Memory);
    }

    #[test]
    fn io_model_noop_detection() {
        assert!(IoModel::in_memory().is_noop());
        assert!(!IoModel::disk_bound(Duration::from_micros(50), 100).is_noop());
    }
}
