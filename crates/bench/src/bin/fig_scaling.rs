//! Throughput scaling: committed transactions per second for SI / SSI / S2PL
//! as the worker-thread count sweeps 1 → 16, on the SIBENCH read-mostly mix
//! (90% four-point-read transactions, 10% single-key updates).
//!
//! This is the repo's self-measured scalability figure. The paper (§7, §8)
//! attributes SSI's residual overhead largely to contention on the lock
//! manager's lightweight locks; the 16-partition SIREAD table, per-record
//! conflict-edge locks and read-set batching keep that contention off single
//! mutexes.
//!
//! `--read-batch` takes a **comma-separated sweep list** and is the read-set
//! batching ablation: `--read-batch 1,64` measures the eager per-read SIREAD
//! path against the batched one on otherwise identical configurations. With
//! `--json`, each point appends one machine-readable run record (a single
//! JSON line with the thread/TPS matrix) to `BENCH_scaling.json` in the
//! working directory.
//!
//! ```sh
//! cargo run --release -p pgssi-bench --bin fig_scaling \
//!     [-- --duration-ms 800 --max-threads 16 --read-batch 1,32 --rows 1024 \
//!         --stats --json]
//! ```

use std::time::Duration;

use pgssi_bench::args::{latency_json, BenchArgs, Flag, Takes::*};
use pgssi_bench::harness::{append_json_record, json_array, Mode};
use pgssi_bench::sibench::Sibench;
use pgssi_common::IoModel;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--duration-ms", Num, "measured time per cell in ms (default 800)"),
    ("--max-threads", Num, "largest thread count of the 1,2,4,.. sweep (default 16)"),
    ("--read-batch", List, "read-set batch size sweep (default 32)"),
    ("--rows", Num, "table rows (default 1024)"),
    ("--json", Nothing, "append one record per point to BENCH_scaling.json"),
];

fn main() {
    let args = BenchArgs::parse(FLAGS);
    let duration = args.duration_or(800);
    let max_threads = args.usize_or("--max-threads", 16);
    let read_batch_sweep = args
        .list("--read-batch")
        .unwrap_or_else(|| vec![pgssi_common::SsiConfig::default().read_batch as u64]);
    let rows = args.value_or("--rows", 1024) as i64;

    let mut threads: Vec<usize> = vec![1, 2, 4, 8, 16];
    threads.retain(|t| *t <= max_threads.max(1));
    if threads.is_empty() {
        threads.push(1);
    }

    let bench = Sibench { table_size: rows };
    println!("Throughput scaling: SIBENCH read-mostly mix (90% 4-point-reads, 10% updates)");
    println!("table: {rows} rows; {duration:?} per cell; sweep: read-batch {read_batch_sweep:?}");

    for &read_batch in &read_batch_sweep {
        run_point(&args, &bench, &threads, duration, rows, read_batch as usize);
    }

    println!("\nexpected shape: SSI tracks SI's scaling curve (the partitioned SIREAD");
    println!("table and per-record conflict locks keep disjoint work on disjoint mutexes);");
    println!("with --read-batch 1 every read takes a partition mutex again.");
}

fn run_point(
    args: &BenchArgs,
    bench: &Sibench,
    threads: &[usize],
    duration: Duration,
    rows: i64,
    read_batch: usize,
) {
    println!("\n── read-batch: {read_batch} ──");
    print!("{:>8}", "threads");
    for mode in Mode::MAIN {
        print!("  {:>9} {:>7}", mode.label(), "x1thr");
    }
    println!("  (committed txn/s | speedup over 1 thread)");

    // One database per mode, reused across the whole thread sweep so the
    // scaling numbers are not polluted by reload noise.
    let dbs: Vec<_> = Mode::MAIN
        .iter()
        .map(|mode| {
            let mut config = mode.config(IoModel::in_memory());
            config.ssi.read_batch = read_batch;
            config.obs = args.obs();
            (*mode, bench.setup_with(config))
        })
        .collect();

    // Warm each database briefly, then snapshot a stats baseline so the
    // figures (and the --stats / --latency reports) cover only the measured
    // window — delta snapshots instead of counter resets.
    let baselines: Vec<_> = dbs
        .iter()
        .map(|(mode, db)| {
            bench.run_read_mostly_on(db, *mode, threads[0], duration / 8, 41);
            db.stats_report()
        })
        .collect();

    let mut base_tps = [0.0f64; Mode::MAIN.len()];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); dbs.len()];
    for &t in threads {
        print!("{t:>8}");
        for (i, (mode, db)) in dbs.iter().enumerate() {
            let r = bench.run_read_mostly_on(db, *mode, t, duration, 42);
            let tps = r.tps();
            if t == threads[0] {
                base_tps[i] = tps;
            }
            series[i].push(tps);
            print!("  {:>9.0} {:>6.2}x", tps, tps / base_tps[i].max(1e-9));
        }
        println!();
    }

    if args.json() {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let modes = dbs
            .iter()
            .zip(&series)
            .map(|((mode, _), tps)| {
                format!(
                    "\"{}\":{}",
                    mode.label(),
                    json_array(tps.iter().map(|t| format!("{t:.1}")))
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        // Commit-latency percentiles per mode, over the measured window only
        // (delta against the post-warmup baseline).
        let latency = dbs
            .iter()
            .zip(&baselines)
            .map(|((mode, db), base)| {
                let h = db.latency_report().delta(&base.latency);
                format!("\"{}\":{}", mode.label(), latency_json(&h.commit))
            })
            .collect::<Vec<_>>()
            .join(",");
        let record = format!(
            "{{\"bench\":\"fig_scaling\",\"unix_ms\":{unix_ms},\
             \"read_batch\":{read_batch},\"rows\":{rows},\
             \"duration_ms\":{},\"threads\":{},\"tps\":{{{modes}}},\
             \"latency\":{{{latency}}}}}",
            duration.as_millis(),
            json_array(threads.iter()),
        );
        const JSON_PATH: &str = "BENCH_scaling.json";
        match append_json_record(JSON_PATH, &record) {
            Ok(()) => println!("appended run record to {JSON_PATH}"),
            Err(e) => eprintln!("failed to append {JSON_PATH}: {e}"),
        }
    }

    for ((mode, db), baseline) in dbs.iter().zip(&baselines) {
        let label = format!("{} rb{read_batch}", mode.label());
        args.print_stats_since(&label, db, baseline);
        args.print_latency(&label, db);
    }
}
