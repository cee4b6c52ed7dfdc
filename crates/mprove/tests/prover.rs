//! End-to-end prover checks: the full library matrix has no blind
//! spots, agrees with the paper's claim table, and survives replay
//! and a small exhaustive differential against the simulator.

use march::{engine, CellRef, DataBackground, Fault, SimpleMemory};
use mprove::{check_paper_claims, differential, prove_library, CleanVerdict};

const DWELL: f64 = 1.0e-3;

#[test]
fn library_matrix_is_fully_decided() {
    let matrix = prove_library(DWELL);
    let counts = matrix.counts();
    assert_eq!(
        counts.unknown,
        0,
        "standard classes must all be decided:\n{}",
        matrix.render_text()
    );
    assert_eq!(matrix.tests.len(), 5);
    assert_eq!(matrix.claims.len(), 5 * 44);
    for test in &matrix.tests {
        assert_eq!(
            test.clean,
            CleanVerdict::ProvenClean,
            "{} must never fail a fault-free memory",
            test.name
        );
    }
}

#[test]
fn matrix_matches_paper_claims() {
    let matrix = prove_library(DWELL);
    let problems = check_paper_claims(&matrix);
    assert!(
        problems.is_empty(),
        "paper claims violated:\n{}",
        problems.join("\n")
    );
}

#[test]
fn replays_agree_with_simulator() {
    let matrix = prove_library(DWELL);
    let tests = march::library::all(DWELL);
    let problems = differential::check_replays(&matrix, &tests);
    assert!(
        problems.is_empty(),
        "replay disagreements:\n{}",
        problems.join("\n")
    );
}

#[test]
fn exhaustive_differential_on_small_geometries() {
    let matrix = prove_library(DWELL);
    let tests = march::library::all(DWELL);
    for (words, bits) in [(1, 8), (2, 8)] {
        for test in &tests {
            let problems = differential::exhaustive(test, &matrix, words, bits);
            assert!(
                problems.is_empty(),
                "{} on {}x{} disagrees with the prover:\n{}",
                test.name(),
                words,
                bits,
                problems.join("\n")
            );
        }
    }
}

#[test]
fn first_miscompare_on_a_reused_memory_matches_full_runs() {
    // The exhaustive grader stops at the first miscompare and reuses
    // one memory across the fault list. Both shortcuts must leave every
    // verdict as a full run on a fresh memory gives it. Before each
    // fault, the reused memory runs March m-LZ in full over a wake-up
    // fault, which leaves the latch armed by the final WUP and the
    // words holding the background: if a reset kept either, the next
    // pass would start from the wrong state.
    let (words, bits) = (4, 4);
    let faults = differential::enumerate_faults(words, bits);
    let wake_up = Fault::wake_up_write(CellRef { addr: 0, bit: 0 });
    let mlz = march::library::march_mlz(DWELL);
    let mut reused = SimpleMemory::new(words, bits);
    for test in march::library::all(DWELL) {
        for background in DataBackground::ALL {
            for fault in &faults {
                reused.reset();
                reused.inject(wake_up.clone());
                engine::run_with_background(&mlz, &mut reused, background);
                reused.reset();
                reused.inject(fault.clone());
                let first_miscompare = engine::detects(&test, &mut reused, background);
                let mut fresh = SimpleMemory::new(words, bits);
                fresh.inject(fault.clone());
                let full = engine::run_with_background(&test, &mut fresh, background).detected();
                assert_eq!(
                    first_miscompare,
                    full,
                    "{} / {background}: {fault}",
                    test.name()
                );
            }
        }
    }
}
