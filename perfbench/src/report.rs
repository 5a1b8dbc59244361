//! Runs a workload's rounds and turns them into the report: human-readable
//! lines, then one JSON object as the last line of standard output.
//!
//! With `--trace 0` every round is untraced and the JSON holds the
//! end-to-end metrics. With `--trace 1` traced and untraced rounds
//! alternate; the JSON holds the per-layer metrics, taken from the traced
//! rounds' spans and the engine's counters and histograms, plus the tracing
//! overhead: traced against untraced work time of the same fixed work.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pgssi_engine::StatsReport;

use crate::cli::{Args, Workload};
use crate::measure::{
    hist_mean_ns, mean, median, peak_rss_mb, percentile_us, ref_kernel_ms, Outcome, Round,
};
use crate::trace::{Call, Summary};
use crate::{point_rw, range_conflict, wire_durable};

/// End-to-end metrics, in report order: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("commit_tps", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("commit_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in report order: (name, unit).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("engine.txn_us", "us"),
    ("engine.unattributed_us", "us"),
    ("engine.begin_us", "us"),
    ("storage.snapshot_hit_pct", "%"),
    ("engine.get_us", "us"),
    ("engine.write_us", "us"),
    ("engine.commit_read_us", "us"),
    ("engine.commit_write_us", "us"),
    ("core.commit_order_us", "us"),
    ("lockmgr.partition_contended_pct", "%"),
    ("engine.range_us", "us"),
    ("engine.range_row_ns", "ns"),
    ("lockmgr.siread_acq_per_txn", "count/txn"),
    ("lockmgr.promotions_per_txn", "count/txn"),
    ("lockmgr.publish_us", "us"),
    ("core.conflicts_per_ktxn", "count/ktxn"),
    ("core.dangerous_per_ktxn", "count/ktxn"),
    ("core.safe_snapshot_pct", "%"),
    ("core.abort_pct", "%"),
    ("engine.vacuum_ms", "ms"),
    ("engine.vacuum_pruned_per_call", "count"),
    ("engine.fsync_wait_us", "us"),
    ("engine.commits_per_sync", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("engine.recovery_ms", "ms"),
    ("server.read_rt_us", "us"),
    ("server.fetch_rt_us", "us"),
    ("server.store_rt_us", "us"),
    ("server.parks_per_request", "count"),
];

/// Rounds a run makes at least, whatever `--seconds` says: enough for a
/// median set-up time, and with tracing, two traced and two untraced.
const MIN_ROUNDS: usize = 3;
const MIN_ROUNDS_TRACED: usize = 4;

fn one_round(args: &Args, traced: bool, n: u64) -> Outcome<Round> {
    match args.workload {
        Workload::PointRw => point_rw::round(args.seed, point_rw::TXNS, traced),
        Workload::RangeConflict => {
            range_conflict::round(args.seed, range_conflict::TXNS, traced).map(|(r, _)| r)
        }
        Workload::WireDurable => wire_durable::round(args.seed, wire_durable::TXNS, traced, n),
    }
}

/// Run the workload and return the JSON result line.
pub fn run(args: &Args) -> Outcome<String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.workload == Workload::WireDurable {
        println!(
            "flush policy: {}; WAL directory {} on {}",
            wire_durable::FLUSH_POLICY,
            wire_durable::WORK_DIR,
            wire_durable::work_fs_type()
        );
    }
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace {
        MIN_ROUNDS_TRACED
    } else {
        MIN_ROUNDS
    };
    let started = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    while rounds.len() < min_rounds || started.elapsed() < budget {
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = one_round(args, traced, rounds.len() as u64)?;
        let [tps, rp50, rp90, wp50, wp90, _] = round_figures(&r);
        println!(
            "round {:>2}{}: setup {:.4} s, work {:.3} s, {} commits of {} attempts, \
             {tps:.0} tps, read p50/p90 {rp50:.2}/{rp90:.2} us, write p50/p90 {wp50:.2}/{wp90:.2} us",
            rounds.len(),
            if traced { " (traced)" } else { "" },
            r.setup.as_secs_f64(),
            r.work.as_secs_f64(),
            r.commits,
            r.attempts,
        );
        rounds.push((r, traced));
    }
    // Read the peak before the reference kernel allocates its table.
    let peak_rss = peak_rss_mb();
    let ref_ms = ref_kernel_ms();
    println!("host.ref_ms {ref_ms:.3} (reference kernel; not used to scale any metric)");

    let attempted: u64 = rounds.iter().map(|(r, _)| r.logical).sum();
    let failed: u64 = rounds.iter().map(|(r, _)| r.failed).sum();
    let untraced: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();

    let metrics = if args.trace {
        per_layer(&rounds, &untraced, &traced, ref_ms)
    } else {
        end_to_end(&untraced, peak_rss)
    };
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        println!("{name:<34} {value:>14.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

type Metric = (&'static str, &'static str, f64);

fn named(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| (name, unit, v))
        .collect()
}

/// The timed figures of one round: commit_tps, read p50 and p90, write p50
/// and p90 (µs), and setup_s.
fn round_figures(r: &Round) -> [f64; 6] {
    let (mut reads, mut writes) = (r.read_ns.clone(), r.write_ns.clone());
    [
        r.commit_tps(),
        percentile_us(&mut reads, 50.0),
        percentile_us(&mut reads, 90.0),
        percentile_us(&mut writes, 50.0),
        percentile_us(&mut writes, 90.0),
        r.setup.as_secs_f64(),
    ]
}

fn end_to_end(rounds: &[&Round], peak_rss: f64) -> Vec<Metric> {
    let figures: Vec<[f64; 6]> = rounds.iter().map(|r| round_figures(r)).collect();
    let column = |i: usize| -> Vec<f64> { figures.iter().map(|f| f[i]).collect() };
    let reads: usize = rounds.iter().map(|r| r.read_ns.len()).sum();
    let writes: usize = rounds.iter().map(|r| r.write_ns.len()).sum();
    let commits: u64 = rounds.iter().map(|r| r.commits).sum();
    let attempts: u64 = rounds.iter().map(|r| r.attempts).sum();
    println!(
        "samples: {} rounds; per round {} read and {} write txns",
        rounds.len(),
        reads / rounds.len(),
        writes / rounds.len(),
    );
    // The host drifts between fast and slow phases that outlast a round, so
    // a run's rounds often fall into two groups. Their median jumps to
    // whichever group is larger; their mean moves in proportion and spread
    // less between runs. Set-up time stays a median of several set-ups.
    named(
        &END_TO_END,
        &[
            mean(&column(0)),
            mean(&column(1)),
            mean(&column(2)),
            mean(&column(3)),
            mean(&column(4)),
            ratio(commits, attempts) * 100.0,
            median(&column(5)),
            peak_rss,
        ],
    )
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn per_layer(
    all: &[(Round, bool)],
    untraced: &[&Round],
    traced: &[&Round],
    ref_ms: f64,
) -> Vec<Metric> {
    // Spans: per round (attempt ids restart each round), then added up.
    let mut sum = Summary::default();
    for r in traced {
        sum.add(&Summary::of(&r.spans));
    }
    let work = |rs: &[&Round]| median(&rs.iter().map(|r| r.work.as_secs_f64()).collect::<Vec<_>>());
    let overhead_pct = (work(traced) / work(untraced) - 1.0) * 100.0;

    // Counters and histograms: every round's work phase.
    let mut s = StatsReport::default();
    let (mut attempts, mut read_only, mut vacuum_calls, mut vacuum_pruned) = (0, 0, 0, 0);
    for (r, _) in all {
        s.absorb(&r.stats);
        attempts += r.attempts;
        read_only += r.read_only;
        vacuum_calls += r.vacuum_calls;
        vacuum_pruned += r.vacuum_pruned;
    }
    let traced_range_rows: u64 = traced.iter().map(|r| r.range_rows).sum();
    let recovery: Vec<f64> = all
        .iter()
        .filter_map(|(r, _)| r.recovery.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let per_txn = |n: u64| ratio(n, attempts);
    named(
        &PER_LAYER,
        &[
            ref_ms,
            overhead_pct,
            sum.mean_us(Call::Txn),
            sum.unattributed_us(),
            sum.mean_us(Call::Begin),
            s.snapshot_cache_hit_rate() * 100.0,
            sum.mean_us(Call::Get),
            sum.mean_us(Call::Write),
            sum.mean_us(Call::CommitRead),
            sum.mean_us(Call::CommitWrite),
            hist_mean_ns(&s.latency.commit_order) / 1e3,
            s.siread_contention_rate() * 100.0,
            sum.mean_us(Call::Range),
            ratio(sum.total_ns(Call::Range), traced_range_rows),
            per_txn(s.siread_acquisitions),
            per_txn(s.siread_promotions),
            hist_mean_ns(&s.latency.siread_publish) / 1e3,
            per_txn(s.ssi_conflicts_flagged) * 1e3,
            per_txn(s.ssi_dangerous_structures) * 1e3,
            ratio(s.ssi_safe_snapshots, read_only) * 100.0,
            per_txn(attempts - s.commits.min(attempts)) * 100.0,
            sum.mean_us(Call::Vacuum) / 1e3,
            ratio(vacuum_pruned, vacuum_calls),
            hist_mean_ns(&s.latency.fsync_wait) / 1e3,
            ratio(s.wal_records, s.wal_syncs),
            ratio(s.wal_bytes, s.wal_records),
            if recovery.is_empty() {
                0.0
            } else {
                median(&recovery)
            },
            sum.mean_us(Call::RtRead),
            sum.mean_us(Call::RtFetch),
            sum.mean_us(Call::RtStore),
            ratio(s.session_worker_parks, s.session_executed),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the report prints are the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
