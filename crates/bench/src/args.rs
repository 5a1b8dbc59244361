//! Shared benchmark CLI: every `src/bin/` figure binary parses the same
//! `--duration-ms N` / `--stats` / `--json` / `--foo 1,4,16` conventions, so
//! the parsing lives here once instead of once per binary.
//!
//! Each binary hands [`BenchArgs::parse`] its table of accepted [`Flag`]s
//! ([`COMMON`] is accepted everywhere). An unknown flag, a missing value or a
//! value that does not parse prints the usage and exits 2, so a typo never
//! runs the default configuration under an ablation's name; `--help` prints
//! the usage and exits 0.

use std::time::Duration;

use pgssi_common::stats::fmt_ns;
use pgssi_common::ObsConfig;
use pgssi_engine::{Database, LatencyReport};

/// What follows a flag on the command line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// One unsigned integer.
    Num,
    /// A comma-separated sweep list of unsigned integers (`1,4,16`).
    List,
}

/// One accepted flag: its name, what follows it, and its usage line.
pub type Flag = (&'static str, Takes, &'static str);

/// Flags every figure binary accepts (read by [`BenchArgs::print_stats`],
/// [`BenchArgs::obs`] and [`BenchArgs::print_latency`]).
#[rustfmt::skip]
pub const COMMON: &[Flag] = &[
    ("--stats", Takes::Nothing, "print the aggregated stats report"),
    ("--latency", Takes::Nothing, "print latency percentile tables"),
    ("--no-latency", Takes::Nothing, "turn latency recording off"),
    ("--trace", Takes::Nothing, "record per-transaction trace events"),
];

fn find(flags: &[Flag], name: &str) -> Option<Takes> {
    flags
        .iter()
        .chain(COMMON)
        .find(|f| f.0 == name)
        .map(|f| f.1)
}

fn metavar(takes: Takes) -> &'static str {
    match takes {
        Takes::Nothing => "",
        Takes::Num => "N",
        Takes::List => "N[,N...]",
    }
}

/// The usage text for binary `bin` accepting `flags` plus [`COMMON`].
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let help = ("--help", Takes::Nothing, "print this usage and exit");
    let mut out = format!("usage: {bin} [FLAG]...\n\nflags:\n");
    for (name, takes, text) in flags.iter().chain(COMMON).chain([&help]) {
        let left = format!("{name} {}", metavar(*takes));
        out.push_str(&format!("  {:<30} {text}\n", left.trim_end()));
    }
    out
}

/// Parsed argv for a figure binary. Construct with [`BenchArgs::parse`] in
/// `main`, then pull typed flags off it.
pub struct BenchArgs {
    argv: Vec<String>,
    flags: &'static [Flag],
}

impl BenchArgs {
    /// Capture and check this process's argv against `flags`: prints the
    /// usage and exits 0 on `--help`, or exits 2 on anything
    /// [`BenchArgs::try_from_vec`] rejects.
    pub fn parse(flags: &'static [Flag]) -> BenchArgs {
        let argv: Vec<String> = std::env::args().collect();
        let bin = argv.first().and_then(|a| a.rsplit('/').next());
        let bin = bin.unwrap_or("bench").to_string();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", usage(&bin, flags));
            std::process::exit(0);
        }
        BenchArgs::try_from_vec(argv, flags).unwrap_or_else(|msg| {
            eprint!("{bin}: {msg}\n\n{}", usage(&bin, flags));
            std::process::exit(2)
        })
    }

    /// Check an explicit argv (`argv[0]` is the program name) against
    /// `flags` plus [`COMMON`]: every flag must be known and followed by a
    /// value that parses.
    pub fn try_from_vec(argv: Vec<String>, flags: &'static [Flag]) -> Result<BenchArgs, String> {
        let mut rest = argv.iter().skip(1);
        while let Some(a) = rest.next() {
            let takes = find(flags, a).ok_or_else(|| format!("unknown flag `{a}`"))?;
            if takes == Takes::Nothing {
                continue;
            }
            let v = rest
                .next()
                .ok_or_else(|| format!("`{a}` needs {}", metavar(takes)))?;
            let ok = match takes {
                Takes::List => v.split(',').all(|x| x.trim().parse::<u64>().is_ok()),
                _ => v.parse::<u64>().is_ok(),
            };
            if !ok {
                return Err(format!("`{a}` takes {}, got `{v}`", metavar(takes)));
            }
        }
        Ok(BenchArgs { argv, flags })
    }

    /// The argument after `name`, if given. Asking for a flag the binary
    /// does not declare, or as the wrong kind, is a bug in the binary: its
    /// table and its code must agree, or the usage would lie.
    fn arg(&self, name: &str, kind: Takes) -> Option<&str> {
        let takes = find(self.flags, name)
            .unwrap_or_else(|| panic!("`{name}` is not in this binary's flag table"));
        assert_eq!(takes, kind, "`{name}` is declared as {takes:?}");
        let i = self.argv.iter().position(|a| a == name)?;
        Some(self.argv.get(i + 1).map_or("", String::as_str))
    }

    /// Parse `--name N`.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.arg(name, Takes::Num)?.parse().ok()
    }

    /// Parse `--name N` with a default.
    pub fn value_or(&self, name: &str, default: u64) -> u64 {
        self.value(name).unwrap_or(default)
    }

    /// Parse `--name N` as a `usize` with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.value(name).map(|v| v as usize).unwrap_or(default)
    }

    /// Parse `--duration-ms N` (the universal run-length knob).
    pub fn duration_or(&self, default_ms: u64) -> Duration {
        Duration::from_millis(self.value_or("--duration-ms", default_ms))
    }

    /// True if the switch `name` appears.
    pub fn flag(&self, name: &str) -> bool {
        self.arg(name, Takes::Nothing).is_some()
    }

    /// Parse `--name 1,4,16,64`-style comma-separated sweep lists (a single
    /// value is a one-element list). `None` if the flag is absent, so
    /// callers can supply their default sweep.
    pub fn list(&self, name: &str) -> Option<Vec<u64>> {
        let raw = self.arg(name, Takes::List)?;
        raw.split(',').map(|v| v.trim().parse().ok()).collect()
    }

    /// True if `--json` was passed (machine-readable trajectory output).
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// Print the database's aggregated [`pgssi_engine::StatsReport`] when the
    /// binary was invoked with `--stats`. Every figure binary calls this after
    /// its final (or per-mode) run.
    pub fn print_stats(&self, label: &str, db: &Database) {
        if self.flag("--stats") {
            println!("\n[{label}] aggregated stats:");
            println!("{}", db.stats_report());
        }
    }

    /// [`BenchArgs::print_stats`], but subtracting a warmup-boundary baseline
    /// snapshot so only the measured window is reported (delta snapshots
    /// replace the old counter-reset idiom — resets raced in-flight bumps).
    pub fn print_stats_since(
        &self,
        label: &str,
        db: &Database,
        baseline: &pgssi_engine::StatsReport,
    ) {
        if self.flag("--stats") {
            println!("\n[{label}] stats since warmup:");
            println!("{}", db.stats_report().delta(baseline));
        }
    }

    /// Latency recording is on by default; `--no-latency` turns the
    /// histograms off for A/B overhead comparisons.
    pub fn latency(&self) -> bool {
        !self.flag("--no-latency")
    }

    /// True if `--trace` was passed (per-transaction event ring).
    pub fn trace(&self) -> bool {
        self.flag("--trace")
    }

    /// Observability config implied by the flags: `--no-latency` disables the
    /// latency histograms, `--trace` enables the per-transaction event ring.
    pub fn obs(&self) -> ObsConfig {
        ObsConfig {
            latency: self.latency(),
            trace: self.trace(),
            ..ObsConfig::default()
        }
    }

    /// Print a percentile table for the run's latency histograms when
    /// `--latency` was passed (recording itself defaults on; the flag only
    /// controls the report). Skips histograms with no samples.
    pub fn print_latency(&self, label: &str, db: &Database) {
        if !self.flag("--latency") {
            return;
        }
        let report = db.latency_report();
        println!("\n[{label}] latency percentiles:");
        println!(
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "n", "p50", "p95", "p99", "max"
        );
        for name in LatencyReport::NAMES {
            let Some(h) = report.get(name) else { continue };
            if h.count() == 0 {
                continue;
            }
            // repl_catchup counts records-behind, not nanoseconds.
            let f = |v: u64| {
                if name == "repl_catchup" {
                    v.to_string()
                } else {
                    fmt_ns(v)
                }
            };
            println!(
                "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                f(h.percentile(50.0)),
                f(h.percentile(95.0)),
                f(h.percentile(99.0)),
                f(h.max())
            );
        }
    }
}

/// JSON fragment for one histogram snapshot: `{"p50_us":…,"p95_us":…,
/// "p99_us":…,"max_us":…,"n":…}` (microseconds, fractional). Used by the
/// figure binaries that emit machine-readable trajectories.
pub fn latency_json(h: &pgssi_common::HistSnapshot) -> String {
    let us = |v: u64| v as f64 / 1000.0;
    format!(
        "{{\"n\":{},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}",
        h.count(),
        us(h.percentile(50.0)),
        us(h.percentile(95.0)),
        us(h.percentile(99.0)),
        us(h.max())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        ("--duration-ms", Takes::Num, "run length"),
        ("--threads", Takes::Num, "threads"),
        ("--read-batch", Takes::List, "read-batch sweep"),
        ("--shards", Takes::List, "shard sweep"),
        ("--json", Takes::Nothing, "append JSON"),
    ];

    fn args(raw: &[&str]) -> BenchArgs {
        try_args(raw).expect("valid argv")
    }

    fn try_args(raw: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_from_vec(raw.iter().map(|s| s.to_string()).collect(), FLAGS)
    }

    fn invalid(raw: &[&str]) -> String {
        match try_args(raw) {
            Err(msg) => msg,
            Ok(_) => panic!("{raw:?} was accepted"),
        }
    }

    #[test]
    fn value_parsing() {
        let a = args(&["x", "--threads", "8", "--duration-ms", "250"]);
        assert_eq!(a.value("--threads"), Some(8));
        assert_eq!(a.value_or("--duration-ms", 99), 250);
        assert_eq!(args(&["x"]).value("--threads"), None);
        assert_eq!(args(&["x"]).value_or("--threads", 7), 7);
        assert_eq!(a.usize_or("--threads", 1), 8);
        assert_eq!(a.duration_or(400), Duration::from_millis(250));
        assert_eq!(args(&["x"]).duration_or(400), Duration::from_millis(400));
    }

    #[test]
    fn list_parses_sweeps_and_single_values() {
        let a = args(&["x", "--read-batch", "1,4,16,64", "--shards", "8"]);
        assert_eq!(a.list("--read-batch"), Some(vec![1, 4, 16, 64]));
        assert_eq!(a.list("--shards"), Some(vec![8]));
        assert_eq!(args(&["x"]).list("--read-batch"), None);
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["x", "--stats", "--json", "--threads", "2"]);
        assert!(a.flag("--stats"));
        assert!(a.json());
        assert!(!a.flag("--trace"), "a switch takes no value");
        assert!(!args(&["x"]).json());
    }

    #[test]
    fn obs_flags() {
        // Recording defaults on; tracing defaults off.
        let a = args(&["x"]);
        assert!(a.latency() && !a.trace());
        let obs = a.obs();
        assert!(obs.latency && !obs.trace);

        let a = args(&["x", "--no-latency", "--trace"]);
        assert!(!a.latency() && a.trace());
        let obs = a.obs();
        assert!(!obs.latency && obs.trace);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(invalid(&["x", "--partitons", "1"]).contains("`--partitons`"));
        assert!(invalid(&["x", "--stats", "--jsno"]).contains("`--jsno`"));
        // A stray positional word is as unknown as a misspelt flag.
        assert!(invalid(&["x", "disk"]).contains("`disk`"));
    }

    #[test]
    fn values_that_do_not_parse_are_rejected() {
        assert!(invalid(&["x", "--threads", "four"]).contains("got `four`"));
        assert!(invalid(&["x", "--threads", "-1"]).contains("got `-1`"));
        assert!(invalid(&["x", "--read-batch", "1,x,16"]).contains("got `1,x,16`"));
        assert!(invalid(&["x", "--read-batch", "1,,16"]).contains("got `1,,16`"));
        assert!(invalid(&["x", "--threads"]).contains("needs N"));
        // The next flag is not a value.
        assert!(invalid(&["x", "--threads", "--stats"]).contains("got `--stats`"));
    }

    #[test]
    fn usage_lists_every_accepted_flag() {
        let text = usage("fig_x", FLAGS);
        assert!(text.starts_with("usage: fig_x "));
        for (name, _, _) in FLAGS.iter().chain(COMMON) {
            assert!(text.contains(name), "usage misses {name}");
        }
        assert!(text.contains("--read-batch N[,N...]"));
        assert!(text.contains("--threads N "));
        assert!(text.contains("--help"));
    }

    #[test]
    #[should_panic(expected = "not in this binary's flag table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        args(&["x"]).value("--rows");
    }

    #[test]
    #[should_panic(expected = "is declared as")]
    fn reading_a_flag_as_the_wrong_kind_is_a_bug() {
        args(&["x"]).value("--read-batch");
    }
}
