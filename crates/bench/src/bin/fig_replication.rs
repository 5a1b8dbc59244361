//! §8.4 WAL-follower serializability: safe-query staleness and replication
//! lag with the follower deciding snapshot safety locally from shipped
//! commit-order/conflict metadata.
//!
//! Serializable read/write writers keep the master busy while one replica
//! continuously catches up and runs serializable read-only queries on its
//! latest safe snapshot. Reported per run:
//!
//! * **safe snapshots** the follower derived, and how many of them it
//!   derived while serializable read/write transactions were in flight
//!   ("marker waits avoided": the paper's §7.2 shipped-marker protocol could
//!   not have marked those);
//! * **mean safe-query staleness** in commits (master's commit frontier minus
//!   the safe snapshot's csn at query start);
//! * **mean replication lag** in records per catch-up.
//!
//! `BENCH_replication.json` also keeps a run of the paper's §7.2
//! shipped-marker protocol on the default workload, for comparison
//! (DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_replication \
//!     [-- --duration-ms 800 --writers 4 --rows 256 --stats --json]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use pgssi_bench::args::{BenchArgs, Flag, Takes::*};
use pgssi_bench::harness::append_json_record;
use pgssi_common::{row, EngineConfig};
use pgssi_engine::{Database, IsolationLevel, Replica, TableDef};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--duration-ms", Num, "measured time in ms (default 800)"),
    ("--writers", Num, "serializable writer threads (default 4)"),
    ("--rows", Num, "table rows (default 256)"),
    ("--json", Nothing, "append a run record to BENCH_replication.json"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let duration = args.duration_or(800);
    let writers = args.usize_or("--writers", 4);
    let rows = args.value_or("--rows", 256) as i64;

    println!(
        "WAL-follower serializability (§8.4): {writers} serializable writers, {rows} rows, \
         {duration:?}"
    );

    let db = Database::new(EngineConfig {
        obs: args.obs(),
        ..EngineConfig::default()
    });
    db.create_table(TableDef::new("kv", &["k", "v"], vec![0]))
        .unwrap();
    {
        let mut t = db.begin(IsolationLevel::ReadCommitted);
        for k in 0..rows {
            t.insert("kv", row![k, 0]).unwrap();
        }
        t.commit().unwrap();
    }
    let replica = Replica::connect(&db);
    replica.catch_up();

    let stop = AtomicBool::new(false);
    let safe_queries = AtomicU64::new(0);
    let safe_waits = AtomicU64::new(0);
    let staleness_sum = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..writers {
            let db = db.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut x = (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = ((x >> 33) % rows as u64) as i64;
                    let b = ((x >> 13) % rows as u64) as i64;
                    let mut t = db.begin(IsolationLevel::Serializable);
                    let ok = (|| {
                        let cur = t.get("kv", &row![a])?.and_then(|r| r[1].as_int());
                        t.update("kv", &row![b], row![b, cur.unwrap_or(0) + 1])?;
                        Ok::<_, pgssi_common::Error>(())
                    })();
                    match ok {
                        Ok(()) => {
                            let _ = t.commit();
                        }
                        Err(_) => {
                            if !t.is_finished() {
                                t.rollback();
                            }
                        }
                    }
                    iter += 1;
                    // An occasional quiescent moment, kept so runs stay
                    // comparable with the recorded marker-protocol history.
                    if iter.is_multiple_of(64) {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            });
        }
        {
            let db = db.clone();
            let replica = &replica;
            let stop = &stop;
            let (safe_queries, safe_waits, staleness_sum) =
                (&safe_queries, &safe_waits, &staleness_sum);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    replica.catch_up();
                    match replica.begin_safe_query() {
                        Some(mut q) => {
                            let staleness = db
                                .txn_manager()
                                .frontier()
                                .0
                                .saturating_sub(q.snapshot().csn.0);
                            let _ = q.get("kv", &row![0]);
                            q.commit().unwrap();
                            safe_queries.fetch_add(1, Ordering::Relaxed);
                            staleness_sum.fetch_add(staleness, Ordering::Relaxed);
                        }
                        None => {
                            safe_waits.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    replica.catch_up();

    let report = db.stats_report();
    let queries = safe_queries.load(Ordering::Relaxed);
    let waits = safe_waits.load(Ordering::Relaxed);
    let mean_staleness = if queries == 0 {
        f64::NAN
    } else {
        staleness_sum.load(Ordering::Relaxed) as f64 / queries as f64
    };
    println!("\n{:>24}: {}", "commits", report.commits);
    println!("{:>24}: {}", "safe queries served", queries);
    println!("{:>24}: {}", "safe-query waits", waits);
    println!("{:>24}: {}", "safe snapshots", report.repl_safe_local);
    println!(
        "{:>24}: {}",
        "marker waits avoided", report.repl_marker_waits_avoided
    );
    println!(
        "{:>24}: {}",
        "unsafe candidates", report.repl_unsafe_candidates
    );
    println!(
        "{:>24}: {:.2} commits",
        "mean safe staleness", mean_staleness
    );
    println!(
        "{:>24}: {:.2} records ({} records total)",
        "mean replication lag",
        report.repl_mean_lag(),
        report.repl_records
    );

    if args.json() {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        // `null`, not NaN, when no safe query was served: NaN is not JSON.
        let staleness_json = if mean_staleness.is_nan() {
            "null".to_string()
        } else {
            format!("{mean_staleness:.3}")
        };
        let record = format!(
            "{{\"bench\":\"fig_replication\",\"unix_ms\":{unix_ms},\"mode\":\"local\",\
             \"writers\":{writers},\"rows\":{rows},\"duration_ms\":{},\"commits\":{},\
             \"safe_queries\":{queries},\"safe_waits\":{waits},\"safe_snapshots\":{},\
             \"marker_waits_avoided\":{},\
             \"unsafe_candidates\":{},\"mean_staleness\":{staleness_json},\
             \"mean_lag_records\":{:.3},\"wal_records\":{},\
             \"latency\":{{\"commit\":{},\"repl_catchup\":{}}}}}",
            duration.as_millis(),
            report.commits,
            report.repl_safe_local,
            report.repl_marker_waits_avoided,
            report.repl_unsafe_candidates,
            report.repl_mean_lag(),
            report.repl_records,
            pgssi_bench::args::latency_json(&report.latency.commit),
            // Catch-up lag is records-behind, not time: raw percentiles.
            {
                let lag = &report.latency.repl_catchup;
                format!(
                    "{{\"n\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    lag.count(),
                    lag.percentile(50.0),
                    lag.percentile(99.0),
                    lag.max()
                )
            },
        );
        const JSON_PATH: &str = "BENCH_replication.json";
        match append_json_record(JSON_PATH, &record) {
            Ok(()) => println!("appended run record to {JSON_PATH}"),
            Err(e) => eprintln!("failed to append {JSON_PATH}: {e}"),
        }
    }
    args.print_stats("fig_replication", &db);
    args.print_latency("fig_replication", &db);

    println!("\nexpected shape: safe queries never wait, many safe snapshots are derived with");
    println!("serializable writers in flight (marker waits avoided), and staleness stays near");
    println!("the recorded local-decision run rather than the marker run in");
    println!("BENCH_replication.json (38 vs 60 commits at 4 writers, 256 rows, 800 ms).");
}
