//! The command line refuses what it does not know, loudly.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench")
}

#[test]
fn unknown_flags_and_workloads_exit_nonzero_with_usage() {
    for args in [
        &["--workload", "point-rw", "--partitons", "1"][..],
        &["--workload", "tpcc"],
        &[],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: perfbench"), "{args:?}: {err}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--workload"));
}
