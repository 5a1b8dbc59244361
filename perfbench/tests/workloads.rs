//! Short rounds of the other two workloads, traced, so their correctness
//! checks and span bookkeeping run under `cargo test`.

use perfbench::trace::{Call, Summary};
use perfbench::{point_rw, wire_durable};

#[test]
fn point_rw_round_passes_its_sum_check() {
    let r = point_rw::round(5, 600, true).expect("round passes its checks");
    assert_eq!(r.logical, 600);
    assert_eq!(r.commits as usize, r.read_ns.len() + r.write_ns.len());
    let s = Summary::of(&r.spans);
    assert_eq!(s.count(Call::Txn), r.attempts);
    assert!(s.count(Call::Get) >= 600 && s.count(Call::Begin) == r.attempts);
}

#[test]
fn wire_durable_round_recovers_every_acknowledged_put() {
    let r = wire_durable::round(5, 300, true, 9_000).expect("round passes its checks");
    assert_eq!(r.logical, 300);
    assert!(r.recovery.is_some());
    assert!(r.stats.wal_syncs > 0 && r.stats.wal_records > 0);
    let s = Summary::of(&r.spans);
    assert_eq!(s.count(Call::RtRead) + s.count(Call::RtFetch), r.attempts);
    assert!(s.count(Call::RtStore) > 0);
}
