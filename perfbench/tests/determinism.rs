//! range-conflict is single-threaded, so a seed fixes every engine count.

use perfbench::range_conflict::{self, Counts};

fn counts(seed: u64) -> (Counts, u64, u64) {
    let (round, counts) =
        range_conflict::round(seed, 4_000, false).expect("round passes its checks");
    (counts, round.attempts, round.commits)
}

#[test]
fn same_seed_repeats_every_count_and_another_seed_changes_the_schedule() {
    let (a, a_attempts, a_commits) = counts(3);
    let (b, b_attempts, b_commits) = counts(3);
    assert_eq!(a, b);
    // abort_pct repeats because both of its terms do.
    assert_eq!((a_attempts, a_commits), (b_attempts, b_commits));
    // The round exercises the machinery it is meant to measure.
    assert!(
        a.conflicts > 0 && a.promotions > 0 && a.safe_snapshots > 0,
        "{a:?}"
    );
    assert!(a.dangerous > 0 && a.aborts > 0, "{a:?}");
    assert_eq!(a.commits, 4_000);

    let (c, _, _) = counts(4);
    assert_ne!(a.schedule, c.schedule);
    assert_ne!(a, c);
}
