//! Tier-1 fuzz smoke: the std-only drill properties run in the default
//! gate. Small case counts here — CI's fuzz-smoke job runs the full
//! budget through the CLI.

use drftest::fuzz::{self, DEFAULT_SEED};

#[test]
fn functional_claims_hold_on_the_smoke_budget() {
    let summary = fuzz::fuzz_functional(16, DEFAULT_SEED);
    assert!(summary.ok(), "{summary}");
    // 12 claims × 16 cases.
    assert_eq!(summary.total_cases(), 192);
}

#[test]
fn netlist_contracts_hold_on_the_smoke_budget() {
    let summary = fuzz::fuzz_netlists(32, DEFAULT_SEED);
    assert!(summary.ok(), "{summary}");
    assert_eq!(summary.total_cases(), 32);
}

#[test]
fn fuzz_runs_are_deterministic_per_seed() {
    let a = fuzz::fuzz_functional(4, 99);
    let b = fuzz::fuzz_functional(4, 99);
    assert_eq!(a.ok(), b.ok());
    assert_eq!(a.total_cases(), b.total_cases());

    let na = fuzz::random_netlist(&mut drill::Rng::seeded(1234));
    let nb = fuzz::random_netlist(&mut drill::Rng::seeded(1234));
    let ea: Vec<String> = na.elements().map(|(n, _)| n.to_string()).collect();
    let eb: Vec<String> = nb.elements().map(|(n, _)| n.to_string()).collect();
    assert_eq!(ea, eb);
}

#[test]
fn different_seeds_explore_different_netlists() {
    let a = fuzz::random_netlist(&mut drill::Rng::seeded(1));
    let b = fuzz::random_netlist(&mut drill::Rng::seeded(2));
    // Device counts or node counts almost surely differ; at minimum the
    // topologies must not be byte-for-byte equal renderings.
    let ra: Vec<String> = a.elements().map(|(n, k)| format!("{n}:{k:?}")).collect();
    let rb: Vec<String> = b.elements().map(|(n, k)| format!("{n}:{k:?}")).collect();
    assert_ne!(ra, rb);
}
