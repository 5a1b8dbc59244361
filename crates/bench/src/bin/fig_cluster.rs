//! Cluster scale-out: committed transactions per second on the hash-partitioned
//! sharded engine, sweeping shard count × cross-shard fraction × key skew.
//!
//! Every transaction runs at SERIALIZABLE. A *local* transaction reads and
//! updates one key — it enlists exactly one shard and must ride the
//! single-shard fast path (a plain local commit, never the 2PC coordinator).
//! A *cross* transaction picks two keys the router places on different shards
//! and reads+updates both, forcing PREPARE / COMMIT PREPARED and the
//! conservative prepared-as-committed pivot check at the coordinator.
//!
//! The interesting outputs beyond raw throughput:
//!
//! - `shards N / cross 0%` should sit within noise of the single-database
//!   scaling figure — the routing layer must cost nothing when it never
//!   escalates.
//! - `coordinator-enlistments` must equal cross-shard commits + aborts: local
//!   transactions never touching the coordinator is an invariant, and the
//!   binary prints a FAST-PATH VIOLATION line if the counters disagree.
//! - `spared-by-fact-exchange` vs `cross-shard-aborts` is the measured cost of
//!   the conservative union rule: every spared abort is one a conflict-fact
//!   exchange at PREPARE (precise §3.3.1 ordering) would have avoided.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_cluster \
//!     [-- --duration-ms 400 --shards 1,2,4 --cross-pct 0,20 --skew-pct 0 \
//!         --threads 4 --rows 1024 --stats --json]
//! ```
//!
//! `--json` appends one record per (shards, cross, skew) cell to
//! `BENCH_cluster.json`.

use std::time::Duration;

use pgssi_bench::args::{BenchArgs, Flag, Takes::*};
use pgssi_bench::harness::{append_json_record, run_for, seed_for, RunResult};
use pgssi_common::{row, EngineConfig, Result};
use pgssi_engine::{IsolationLevel, ShardedDatabase, TableDef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Workload {
    rows: i64,
    cross_pct: u64,
    skew_pct: u64,
}

impl Workload {
    fn setup(&self, shards: usize) -> ShardedDatabase {
        let c = ShardedDatabase::new(shards, EngineConfig::default());
        c.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
            .expect("create table");
        let mut t = c.begin(IsolationLevel::ReadCommitted);
        for k in 0..self.rows {
            t.insert("kv", row![k, 0i64]).expect("load");
        }
        t.commit().expect("load commit");
        c
    }

    /// Pick a key: with probability `skew_pct`% from the hot head (1% of the
    /// table, at least one row), otherwise uniform.
    fn pick_key(&self, rng: &mut SmallRng) -> i64 {
        if self.skew_pct > 0 && rng.gen_range(0..100) < self.skew_pct {
            rng.gen_range(0..(self.rows / 100).max(1))
        } else {
            rng.gen_range(0..self.rows)
        }
    }

    /// Read-modify-write one key: guaranteed single shard, must take the
    /// fast path.
    fn local_txn(&self, c: &ShardedDatabase, rng: &mut SmallRng) -> bool {
        let k = self.pick_key(rng);
        let mut txn = c.begin(IsolationLevel::Serializable);
        (|| -> Result<()> {
            let cur = txn.get("kv", &row![k])?.expect("row exists");
            let v = cur[1].as_int().unwrap();
            txn.update("kv", &row![k], row![k, v + 1])?;
            Ok(())
        })()
        .and_then(|()| txn.commit())
        .is_ok()
    }

    /// Read-modify-write two keys the router places on different shards,
    /// forcing 2PC. Falls back to a same-shard pair if probing fails (only
    /// possible when shards == 1).
    fn cross_txn(&self, c: &ShardedDatabase, rng: &mut SmallRng) -> bool {
        let a = self.pick_key(rng);
        let home = c.router().route("kv", &row![a]);
        let mut b = (a + 1) % self.rows.max(1);
        for _ in 0..64 {
            let cand = rng.gen_range(0..self.rows);
            if cand != a && c.router().route("kv", &row![cand]) != home {
                b = cand;
                break;
            }
        }
        let mut txn = c.begin(IsolationLevel::Serializable);
        (|| -> Result<()> {
            for k in [a, b] {
                let cur = txn.get("kv", &row![k])?.expect("row exists");
                let v = cur[1].as_int().unwrap();
                txn.update("kv", &row![k], row![k, v + 1])?;
            }
            Ok(())
        })()
        .and_then(|()| txn.commit())
        .is_ok()
    }

    fn run(&self, c: &ShardedDatabase, threads: usize, duration: Duration, seed: u64) -> RunResult {
        run_for(threads, duration, |th, iter| {
            let mut rng = SmallRng::seed_from_u64(seed_for(seed, th).wrapping_add(iter));
            if rng.gen_range(0..100) < self.cross_pct {
                self.cross_txn(c, &mut rng)
            } else {
                self.local_txn(c, &mut rng)
            }
        })
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--duration-ms", Num, "measured time per cell in ms (default 400)"),
    ("--threads", Num, "client threads (default 4)"),
    ("--rows", Num, "table rows (default 1024)"),
    ("--shards", List, "shard-count sweep (default 1,2,4)"),
    ("--cross-pct", List, "cross-shard percentage sweep (default 0,20)"),
    ("--skew-pct", List, "hot-key skew percentage sweep (default 0)"),
    ("--json", Nothing, "append one record per cell to BENCH_cluster.json"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let duration = args.duration_or(400);
    let threads = args.usize_or("--threads", 4);
    let rows = args.value_or("--rows", 1024) as i64;
    let shards_sweep = args.list("--shards").unwrap_or_else(|| vec![1, 2, 4]);
    let cross_sweep = args.list("--cross-pct").unwrap_or_else(|| vec![0, 20]);
    let skew_sweep = args.list("--skew-pct").unwrap_or_else(|| vec![0]);

    println!("Cluster scale-out: SERIALIZABLE read-modify-write mix, {threads} threads");
    println!(
        "table: {rows} rows; {duration:?} per cell; sweep: shards {shards_sweep:?} × \
         cross-shard% {cross_sweep:?} × skew% {skew_sweep:?}"
    );
    println!(
        "\n{:>7} {:>7} {:>6}  {:>9} {:>7}  {:>9} {:>9} {:>8} {:>8}",
        "shards", "cross%", "skew%", "txn/s", "fail%", "1shard/s", "2pc/s", "aborts", "spared"
    );

    for &shards in &shards_sweep {
        for &cross_pct in &cross_sweep {
            for &skew_pct in &skew_sweep {
                run_cell(
                    &args,
                    shards as usize,
                    cross_pct,
                    skew_pct,
                    rows,
                    threads,
                    duration,
                );
            }
        }
    }

    println!("\nexpected shape: cross 0% scales with shard count at the same per-shard");
    println!("throughput as one database (the fast path bypasses the coordinator");
    println!("entirely); raising the cross-shard fraction trades throughput for 2PC");
    println!("round trips, and the spared column prices the conservative union rule.");
}

fn run_cell(
    args: &BenchArgs,
    shards: usize,
    cross_pct: u64,
    skew_pct: u64,
    rows: i64,
    threads: usize,
    duration: Duration,
) {
    let w = Workload {
        rows,
        cross_pct,
        skew_pct,
    };
    let c = w.setup(shards);
    // Brief warmup, then a baseline snapshot so the reported window covers
    // only the measured run.
    w.run(&c, threads, duration / 8, 41);
    let baseline = c.stats_report();

    let r = w.run(&c, threads, duration, 42);
    let d = c.stats_report().delta(&baseline);
    let secs = r.elapsed.as_secs_f64();
    println!(
        "{:>7} {:>7} {:>6}  {:>9.0} {:>6.1}%  {:>9.0} {:>9.0} {:>8} {:>8}",
        shards,
        cross_pct,
        skew_pct,
        r.tps(),
        r.failure_rate() * 100.0,
        d.cluster_single_commits as f64 / secs,
        d.cluster_cross_commits as f64 / secs,
        d.cluster_cross_aborts,
        d.cluster_spared_by_facts,
    );

    // Invariant: local transactions never touch the coordinator, so every
    // enlistment belongs to a transaction that finished as cross-shard.
    let cross_total = d.cluster_cross_commits + d.cluster_cross_aborts;
    if d.cluster_enlistments != cross_total {
        println!(
            "  FAST-PATH VIOLATION: {} coordinator enlistments vs {} cross-shard completions",
            d.cluster_enlistments, cross_total
        );
    }

    if args.json() {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let record = format!(
            "{{\"bench\":\"fig_cluster\",\"unix_ms\":{unix_ms},\"shards\":{shards},\
             \"cross_pct\":{cross_pct},\"skew_pct\":{skew_pct},\"threads\":{threads},\
             \"rows\":{rows},\"duration_ms\":{},\"tps\":{:.1},\"failure_rate\":{:.4},\
             \"single_commits\":{},\"cross_commits\":{},\"cross_aborts\":{},\
             \"enlistments\":{},\"spared_by_facts\":{}}}",
            duration.as_millis(),
            r.tps(),
            r.failure_rate(),
            d.cluster_single_commits,
            d.cluster_cross_commits,
            d.cluster_cross_aborts,
            d.cluster_enlistments,
            d.cluster_spared_by_facts,
        );
        const JSON_PATH: &str = "BENCH_cluster.json";
        match append_json_record(JSON_PATH, &record) {
            Ok(()) => println!("  appended run record to {JSON_PATH}"),
            Err(e) => eprintln!("  failed to append {JSON_PATH}: {e}"),
        }
    }

    if args.flag("--stats") {
        println!("\n[cluster s{shards} x{cross_pct} k{skew_pct}] stats since warmup:");
        println!("{}", c.stats_report().delta(&baseline));
    }
}
