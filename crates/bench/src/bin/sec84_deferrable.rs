//! §8.4: deferrable-transaction safe-snapshot latency under a DBT-2++ load.
//!
//! The paper ran 1200 probes against the disk-bound configuration: median wait
//! 1.98 s, 90% within 6 s, all within 20 s. Our transactions are microseconds
//! rather than tens of milliseconds, so waits are reported both in wall time
//! and as multiples of the mean read/write transaction duration (the
//! scale-free quantity).
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin sec84_deferrable [-- --probes 200]
//! ```

use std::time::Duration;

use pgssi_bench::args::{BenchArgs, Flag, Takes::*};
use pgssi_bench::dbt2::{Dbt2, Dbt2Config};
use pgssi_bench::deferrable::run_probe_on;
use pgssi_bench::harness::Mode;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--probes", Num, "deferrable probes to run (default 200)"),
    ("--threads", Num, "DBT-2++ load threads (default 8)"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let probes = args.usize_or("--probes", 200);
    let threads = args.usize_or("--threads", 8);

    println!(
        "§8.4: deferrable transactions vs a DBT-2++ load ({threads} threads, {probes} probes)\n"
    );
    let bench = Dbt2 {
        config: Dbt2Config {
            obs: args.obs(),
            ..Dbt2Config::in_memory()
        },
    };
    let db = bench.setup(Mode::Ssi);
    let report = run_probe_on(&bench, &db, threads, probes, Duration::from_millis(2));
    let mean = report.mean_txn.as_secs_f64().max(1e-9);
    let in_units = |d: Duration| d.as_secs_f64() / mean;
    println!(
        "  background load: {} committed; mean rw-txn {:?}",
        report.load_committed, report.mean_txn
    );
    println!(
        "  safe-snapshot wait: median {:?} ({:.1}x mean txn)",
        report.median(),
        in_units(report.median())
    );
    println!(
        "                      p90    {:?} ({:.1}x mean txn)",
        report.p90(),
        in_units(report.p90())
    );
    println!(
        "                      max    {:?} ({:.1}x mean txn)",
        report.max(),
        in_units(report.max())
    );
    let starved = report.waits.len() < probes;
    println!(
        "  probes that obtained a safe snapshot: {}/{} {}",
        report.waits.len(),
        probes,
        if starved {
            "(STARVATION!)"
        } else {
            "(no starvation)"
        }
    );
    println!("\npaper: median 1.98 s, p90 <= 6 s, max <= 20 s on their testbed —");
    println!("bounded waits of a few concurrent-transaction lifetimes, never starving.");
    args.print_stats("SSI", &db);
    args.print_latency("SSI", &db);
}
