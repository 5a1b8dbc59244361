//! Figures 5a/5b: DBT-2++ throughput versus fraction of read-only
//! transactions, normalized to SI — in-memory (5a) and disk-bound (5b)
//! configurations. Also prints the §8.2 headline row (standard 8% read-only
//! mix with serialization-failure rates).
//!
//! With `--sessions N` the standard-mix table re-runs in *session mode*: `N`
//! logical DBT-2 terminals with per-terminal think/keying times
//! (`--think-ms`, `--keying-ms`) multiplexed onto `--workers` pool threads by
//! `pgssi-server` — the paper's many-mostly-idle-clients shape, which shifts
//! the concurrency-vs-throughput curve relative to the saturating
//! thread-per-client harness.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig5_dbt2
//! cargo run --release -p pgssi-bench --bin fig5_dbt2 -- --disk
//! cargo run --release -p pgssi-bench --bin fig5_dbt2 -- \
//!     --sessions 256 --workers 8 --think-ms 10 --keying-ms 5
//! ```

use std::time::Duration;

use pgssi_bench::args::{BenchArgs, Flag, Takes::*};
use pgssi_bench::dbt2::{Dbt2, Dbt2Config};
use pgssi_bench::harness::{print_header, print_normalized_row, Mode};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--disk", Nothing, "run Figure 5b, disk-bound (default: 5a, in-memory)"),
    ("--duration-ms", Num, "measured time per cell in ms (default 1200)"),
    ("--threads", Num, "client threads (default 4)"),
    ("--sessions", Num, "rerun the standard mix with N session terminals"),
    ("--workers", Num, "session-pool workers (default --threads)"),
    ("--think-ms", Num, "per-terminal think time in ms (default 10)"),
    ("--keying-ms", Num, "per-terminal keying time in ms (default 5)"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let duration = args.duration_or(1200);
    let threads = args.usize_or("--threads", 4); // paper: concurrency 4 in-memory
    let disk = args.flag("--disk");

    let (mut base, label, modes): (Dbt2Config, &str, &[Mode]) = if disk {
        (Dbt2Config::disk_bound(), "5b (disk-bound)", &Mode::MAIN)
    } else {
        (Dbt2Config::in_memory(), "5a (in-memory)", &Mode::ALL)
    };
    base.obs = args.obs();

    println!("Figure {label}: DBT-2++ throughput vs read-only fraction, normalized to SI");
    println!(
        "scale: {} warehouses x {} districts x {} customers, {} items; {threads} threads, {duration:?} per cell\n",
        base.warehouses, base.districts, base.customers, base.items
    );
    print_header("%read-only", modes);
    for ro in [0, 20, 40, 60, 80, 100] {
        let config = Dbt2Config {
            read_only_fraction: ro as f64 / 100.0,
            ..base.clone()
        };
        let bench = Dbt2 { config };
        let mut results = Vec::new();
        for &mode in modes {
            results.push((mode, bench.run(mode, threads, duration, 7)));
        }
        print_normalized_row(&format!("{ro}%"), &results);
    }

    // §8.2 headline: the standard TPC-C mix is 8% read-only; the paper reports
    // SSI within 5-7% of SI (in-memory) and failure rates well under 1%.
    println!("\nstandard mix (8% read-only) with serialization-failure rates:");
    let bench = Dbt2 {
        config: Dbt2Config {
            read_only_fraction: 0.08,
            ..base.clone()
        },
    };
    let mut dbs = Vec::new();
    for &mode in modes {
        let db = bench.setup(mode);
        let r = bench.run_on(&db, mode, threads, duration, 7);
        println!(
            "  {:<12} {:>9.0} txn/s   failures: {:>6.3}%",
            mode.label(),
            r.tps(),
            100.0 * r.failure_rate()
        );
        dbs.push((mode, db));
    }
    println!("\npaper's shape: SSI within single-digit % of SI; S2PL below, the gap");
    println!("widening with the read-only fraction; differences compress disk-bound.");

    // Optional session-mode rerun: many think-time terminals on few workers.
    if let Some(sessions) = args.value("--sessions") {
        let sessions = sessions as usize;
        let workers = args.usize_or("--workers", threads);
        let think = Duration::from_millis(args.value_or("--think-ms", 10));
        let keying = Duration::from_millis(args.value_or("--keying-ms", 5));
        println!(
            "\nsession mode: {sessions} terminals on {workers} workers, \
             think {think:?} + keying {keying:?} (8% read-only mix):"
        );
        let bench = Dbt2 {
            config: Dbt2Config {
                read_only_fraction: 0.08,
                think_time: think,
                keying_time: keying,
                ..base.clone()
            },
        };
        for &mode in modes {
            let db = bench.setup(mode);
            let r = bench.run_sessions_on(&db, mode, sessions, workers, duration, 7);
            println!(
                "  {:<12} {:>9.0} txn/s   failures: {:>6.3}%",
                mode.label(),
                r.tps(),
                100.0 * r.failure_rate()
            );
            // These databases carry the session counters; the trailing stats
            // loop below only covers the thread-per-client runs.
            args.print_stats(&format!("{} (sessions)", mode.label()), &db);
            args.print_latency(&format!("{} (sessions)", mode.label()), &db);
        }
        println!("  (throughput is paced by sessions/(think+keying), not worker count,");
        println!("   until the worker pool saturates — the paper's Figure 5 client shape)");
    }

    for (mode, db) in &dbs {
        args.print_stats(mode.label(), db);
        args.print_latency(mode.label(), db);
    }
}
