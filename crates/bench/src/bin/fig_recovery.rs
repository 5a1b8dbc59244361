//! Durability figure: commit throughput with group commit on vs off, and
//! recovery time as a function of WAL length.
//!
//! Two measurements, both against the file-backed WAL (DESIGN.md §5):
//!
//! 1. **Group-commit ablation** — concurrent committers inserting disjoint
//!    keys through `ReadCommitted` transactions, once with batched fsyncs
//!    (one leader syncs for every record buffered so far) and once with
//!    `group_commit: false` (every committer pays its own fsync). The ratio
//!    is the figure; on a real disk it approaches the number of concurrent
//!    committers. `--group-commit 1` / `--group-commit 0` restricts the run
//!    to a single mode.
//!
//! 2. **Recovery vs WAL length** — the log produced by (1) is truncated at
//!    several prefix cuts (byte offsets, deliberately *not* record-aligned,
//!    so most cuts also exercise torn-tail truncation) and reopened with
//!    [`Database::open_durable`]; reported: log bytes, records replayed,
//!    torn bytes dropped, rows visible, and wall-clock open time.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_recovery \
//!     [-- --duration-ms 400 --threads 4 --group-commit 1 --stats]
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pgssi_bench::args::{BenchArgs, Flag, Takes::*};
use pgssi_bench::harness::run_for;
use pgssi_common::{row, EngineConfig, WalConfig};
use pgssi_engine::{Database, IsolationLevel, TableDef};

/// Fresh scratch directory under the system temp dir; callers clean up.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    std::env::temp_dir().join(format!(
        "pgssi_fig_recovery_{tag}_{}_{}_{nanos}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn durable_config(dir: &Path, group_commit: bool, obs: pgssi_common::ObsConfig) -> EngineConfig {
    let mut wal = WalConfig::file(dir);
    wal.group_commit = group_commit;
    EngineConfig {
        wal,
        obs,
        ..EngineConfig::default()
    }
}

/// Timed insert workload against a fresh durable database; returns
/// (commits/s, committed, dir). The directory is left on disk so the
/// recovery sweep can reuse the group-commit log.
fn run_commit_phase(
    args: &BenchArgs,
    group_commit: bool,
    threads: usize,
    duration: std::time::Duration,
) -> (f64, u64, PathBuf) {
    let dir = scratch_dir(if group_commit { "gc" } else { "nogc" });
    let db = Database::open_durable(durable_config(&dir, group_commit, args.obs())).expect("open");
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    // Disjoint keys per (thread, iteration): every commit inserts one fresh
    // row, so recovered row counts equal durable commits.
    let r = run_for(threads, duration, |th, iter| {
        let k = (iter * threads as u64 + th as u64) as i64;
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        let ok = t.insert("kv", row![k, k % 97]).is_ok();
        if ok {
            t.commit().is_ok()
        } else {
            t.rollback();
            false
        }
    });
    let label = if group_commit {
        "group commit on"
    } else {
        "group commit off"
    };
    args.print_stats(label, &db);
    args.print_latency(label, &db);
    drop(db);
    (r.tps(), r.committed, dir)
}

/// Copy `src`'s checkpoint plus the first `cut` bytes of its WAL into a fresh
/// directory, reopen, and report what recovery saw.
fn reopen_at_cut(src: &Path, cut: usize) -> std::io::Result<()> {
    let wal = std::fs::read(src.join("wal.log"))?;
    let cut = cut.min(wal.len());
    let dir = scratch_dir("cut");
    std::fs::create_dir_all(&dir)?;
    if let Ok(ckpt) = std::fs::read(src.join("checkpoint.bin")) {
        std::fs::write(dir.join("checkpoint.bin"), ckpt)?;
    }
    std::fs::write(dir.join("wal.log"), &wal[..cut])?;

    let start = Instant::now();
    let db =
        Database::open_durable(durable_config(&dir, true, Default::default())).expect("reopen");
    let open_time = start.elapsed();
    let report = db.stats_report();
    let rows = match db.begin(IsolationLevel::ReadCommitted).scan("kv") {
        Ok(rows) => rows.len() as u64,
        Err(_) => 0, // cut beheaded the CREATE TABLE record
    };
    println!(
        "{:>12}  {:>10}  {:>10}  {:>10}  {:>12.3?}",
        cut, report.wal_recovered_records, report.wal_torn_bytes, rows, open_time
    );
    drop(db);
    std::fs::remove_dir_all(&dir)
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--duration-ms", Num, "commit time per mode in ms (default 400)"),
    ("--threads", Num, "committer threads (default 4)"),
    ("--group-commit", Num, "run only group commit on (1) or off (0) (default both)"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let duration = args.duration_or(400);
    let threads = args.usize_or("--threads", 4);
    // --group-commit 1 → only the batched mode; 0 → only the ablation.
    let only = args.value("--group-commit");
    let run_gc = only != Some(0);
    let run_nogc = only != Some(1);

    println!("Durable WAL: group-commit ablation + recovery vs log length");
    println!("{threads} committers, {duration:?} per mode, one fresh row per commit\n");

    let mut gc_dir = None;
    let mut gc_tps = None;
    if run_gc {
        let (tps, committed, dir) = run_commit_phase(&args, true, threads, duration);
        println!("  group commit ON : {tps:>9.0} commits/s  ({committed} durable commits)");
        gc_tps = Some(tps);
        gc_dir = Some(dir);
    }
    let mut nogc_dir = None;
    if run_nogc {
        let (tps, committed, dir) = run_commit_phase(&args, false, threads, duration);
        print!("  group commit OFF: {tps:>9.0} commits/s  ({committed} durable commits)");
        match gc_tps {
            Some(gc) => println!("  → batching is {:.2}x", gc / tps.max(1e-9)),
            None => println!(),
        }
        nogc_dir = Some(dir);
    }

    // Recovery sweep over whichever log the commit phase produced.
    if let Some(src) = gc_dir.as_ref().or(nogc_dir.as_ref()) {
        let wal_len = std::fs::metadata(src.join("wal.log"))
            .map(|m| m.len() as usize)
            .unwrap_or(0);
        println!("\nrecovery time vs WAL length (unaligned cuts → torn tails truncate):");
        println!(
            "{:>12}  {:>10}  {:>10}  {:>10}  {:>12}",
            "wal bytes", "records", "torn bytes", "rows", "open time"
        );
        for permille in [250, 500, 750, 1000] {
            let cut = wal_len * permille / 1000;
            if let Err(e) = reopen_at_cut(src, cut) {
                eprintln!("recovery cut at {cut} failed: {e}");
            }
        }
    }

    println!("\nexpected shape: group commit multiplies commits/s by batching fsyncs");
    println!("(the gap grows with committer count and real disk sync latency);");
    println!("recovery time grows linearly with the replayed log suffix, and every");
    println!("unaligned cut drops only the torn final record.");

    for dir in [gc_dir, nogc_dir].into_iter().flatten() {
        let _ = std::fs::remove_dir_all(dir);
    }
}
