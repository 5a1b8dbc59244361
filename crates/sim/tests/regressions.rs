//! Simulation-harness regression suite: pinned seeds for the historical
//! pivot race and the stale-replica REPORT anomaly, determinism and
//! fault-soundness guarantees, and clean sweeps.
//!
//! Seeds pinned here were once failing (or demonstrate a planted bug via an
//! emulation gate) and must stay pinned even after the underlying code moves:
//! the point is that `(scenario, seed)` remains a stable replay artifact.

use pgssi_sim::{run_scenario, scenario, SCENARIOS};

/// Same seed twice → byte-identical schedule. This is the property every
/// other test leans on: a failing seed printed by a sweep replays exactly.
#[test]
fn same_seed_replays_byte_identical() {
    pgssi_sim::runner::quiet_sim_panics();
    for (name, seed) in [
        ("mix", 3u64),
        ("crash", 7),
        ("repl", 5),
        ("cluster", 4),
        ("pivot", 2),
    ] {
        let go = |name: &str| match name {
            "mix" => scenario::mix(seed, 1),
            "crash" => scenario::crash(seed, 1),
            "repl" => scenario::repl(seed, 1, false),
            "cluster" => scenario::cluster(seed, 1),
            _ => scenario::pivot(seed, 1, false),
        };
        let a = go(name);
        let b = go(name);
        assert_eq!(
            a.run.steps, b.run.steps,
            "{name}/{seed}: step counts differ"
        );
        assert_eq!(
            a.run.vnow_ns, b.run.vnow_ns,
            "{name}/{seed}: virtual clocks differ"
        );
        let ta: Vec<String> = a.run.trace.iter().map(|e| e.to_string()).collect();
        let tb: Vec<String> = b.run.trace.iter().map(|e| e.to_string()).collect();
        assert_eq!(ta, tb, "{name}/{seed}: traces differ");
    }
}

/// Different seeds must actually explore different schedules (otherwise the
/// sweep is 64 copies of one interleaving).
#[test]
fn different_seeds_differ() {
    let a = scenario::mix(0, 1);
    let b = scenario::mix(1, 1);
    let ta: Vec<String> = a.run.trace.iter().map(|e| e.to_string()).collect();
    let tb: Vec<String> = b.run.trace.iter().map(|e| e.to_string()).collect();
    assert_ne!(ta, tb, "seeds 0 and 1 produced identical mix schedules");
}

/// PR 4's pivot-precommit race, re-enabled behind its gate: the pivot's
/// precommit lands between a concurrent T3's commit-CSN assignment and the
/// fold of that CSN into the pivot's bound, so skipping the commit-time
/// re-check lets a three-way rw-antidependency cycle commit. Seed 0 is the
/// pinned reproduction; the checker must report a serialization-graph cycle.
#[test]
fn pivot_emulation_reproduces_precommit_race() {
    let out = run_scenario("pivot", 0, 1, true);
    assert!(
        out.violations.iter().any(|v| v.contains("cycle")),
        "emulated pivot race not detected on pinned seed 0: {:?}",
        out.violations
    );
}

/// With the real (gated-off) code, the same choreography must be broken by
/// the order-mutex-authoritative commit-time pivot re-check on every seed.
#[test]
fn pivot_clean_without_emulation() {
    for seed in 0..16 {
        let out = run_scenario("pivot", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "pivot seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// The paper's Figure 2 REPORT across the replication boundary: with
/// `emulate` the replica REPORT runs on a stale snapshot taken right after
/// CLOSE-BATCH commits while NEW-RECEIPT is still in flight, and the history
/// checker must report the `REPORT rw→ NEW-RECEIPT rw→ CLOSE-BATCH wr→
/// REPORT` cycle. Seed 0 is the pinned reproduction.
#[test]
fn repl_stale_queries_report_sg_cycle() {
    let out = run_scenario("repl", 0, 1, true);
    assert!(
        out.violations.iter().any(|v| v.contains("cycle")),
        "stale replica REPORT not detected on pinned seed 0: {:?}",
        out.violations
    );
}

/// The same choreography on safe snapshots: the follower keeps the
/// post-CLOSE-BATCH candidate pending on NEW-RECEIPT and then proves it
/// unsafe, so every replica query stays serializable on every seed.
#[test]
fn repl_clean_without_emulation() {
    for seed in 0..16 {
        let out = run_scenario("repl", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "repl seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// Crash fault-soundness: every crash seed reboots the engine from the
/// surviving bytes and the scenario itself compares recovery against an
/// independent prefix-replay oracle plus the acked ⊆ recovered guarantee.
/// Seed 2 is pinned: its plan fails the first sync, which once fired during
/// scenario *setup* (before the scheduler started) and panicked the harness
/// instead of a simulated thread — fault arming must exclude setup.
#[test]
fn crash_seeds_are_fault_sound() {
    for seed in 0..16 {
        let out = run_scenario("crash", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "crash seed {seed} failed fault soundness: {:?}",
            out.violations
        );
    }
}

/// Mix seeds 1, 10, 11 are pinned: their drop-wakeup plans leave the final
/// finishes writeless, and the snapshot oracle once demanded exact xip
/// equality — stricter than the engine's documented contract, which lets
/// the maintained snapshot keep clog-finalized writeless ids until the next
/// writing finish filters them.
#[test]
fn mix_writeless_finish_seeds_stay_clean() {
    for seed in [1u64, 10, 11] {
        let out = run_scenario("mix", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "mix seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// Cluster seeds 40, 214 and 240 are pinned: each once committed a
/// distributed pivot whose in-edge formed on one shard after that branch's
/// PREPARE had captured its conflict facts but before the branch was marked
/// conservative, so neither the coordinator's union rule nor the marked
/// record saw the edge, and the merged serialization graph had a cycle.
#[test]
fn cluster_prepare_window_seeds_stay_clean() {
    for seed in [40u64, 214, 240] {
        let out = run_scenario("cluster", seed, 1, false);
        assert!(
            out.violations.is_empty(),
            "cluster seed {seed} regressed: {:?}",
            out.violations
        );
    }
}

/// A fresh slice of the default sweep, in-process (the CI sweep runs the
/// binary over 0..64; this keeps `cargo test` self-contained).
#[test]
fn default_sweep_slice_passes() {
    for &name in SCENARIOS {
        for seed in 0..8 {
            let out = run_scenario(name, seed, 1, false);
            assert!(
                out.violations.is_empty(),
                "{name} seed {seed} failed: {:?}\n{}",
                out.violations,
                out.report()
            );
        }
    }
}
