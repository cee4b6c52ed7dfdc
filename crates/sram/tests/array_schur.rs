//! Equivalence suite: the block-Schur reduced path and the monolithic
//! sparse/dense path must agree to solver tolerance on full-array
//! retention solves — same node voltages, same retention verdicts —
//! across array sizes and injected defect counts.
//!
//! The Schur path is exact block Gaussian elimination, so the only
//! admissible disagreement is the Newton stopping criterion: each path
//! halts within `vntol + reltol·|x|` of the common fixed point.

use anasim::{solve_array, ArraySolveOptions, SolveScratch};
use process::PvtCondition;
use sram::{ActiveCell, ArraySpec, CellInstance, StoredBit};

/// Distinct injection sites, all inside even the 16-row arrays. A
/// 1 kΩ S–SB bridge at 0.5 V supply collapses the cell's state, so
/// every injected defect must show up in the verdict grid.
const DEFECT_SITES: [(usize, usize); 3] = [(1, 2), (7, 5), (12, 0)];
const BRIDGE_OHMS: f64 = 1.0e3;
const SUPPLY: f64 = 0.5;

fn build_spec(rows: usize, cols: usize, defects: usize) -> ArraySpec {
    let base = CellInstance::symmetric(PvtCondition::nominal());
    let mut spec = ArraySpec::retention(rows, cols, SUPPLY, base);
    for &(r, c) in DEFECT_SITES.iter().take(defects) {
        spec.active
            .push(ActiveCell::bridged(r, c, StoredBit::One, BRIDGE_OHMS));
    }
    spec
}

/// What the Schur path solved and factored, against the monolithic path.
struct Reduction {
    unknowns: usize,
    interface: usize,
    iterations: usize,
    blocks_rebuilt: u64,
    /// Unknowns the monolithic solve factored (`n` per iteration) over
    /// those the Schur path factored (the interface per iteration plus
    /// one 2-unknown cell block per rebuilt macromodel).
    factorized_ratio: f64,
}

/// Solves the same array through both paths and cross-checks voltages,
/// verdict grids, and the Schur counters.
fn assert_paths_agree(rows: usize, cols: usize, defects: usize) -> Reduction {
    let built = build_spec(rows, cols, defects)
        .build()
        .expect("array builds");
    let guess = built.guess();

    let opts = ArraySolveOptions::default();
    assert!(opts.schur, "the reduced path must be the default");
    let mut reduced_scratch = SolveScratch::new();
    let reduced = solve_array(
        &built.netlist,
        &built.partition,
        &opts,
        Some(&guess),
        &mut reduced_scratch,
    )
    .expect("schur path converges");

    let mono_opts = ArraySolveOptions {
        schur: false,
        ..ArraySolveOptions::default()
    };
    let mut mono_scratch = SolveScratch::new();
    let mono = solve_array(
        &built.netlist,
        &built.partition,
        &mono_opts,
        Some(&guess),
        &mut mono_scratch,
    )
    .expect("monolithic path converges");

    // Per-unknown agreement to the Newton acceptance tolerance.
    for (k, (a, b)) in reduced.raw().iter().zip(mono.raw().iter()).enumerate() {
        let tol = opts.newton.vntol + opts.newton.reltol * a.abs().max(b.abs());
        assert!(
            (a - b).abs() <= tol,
            "unknown {k}: schur {a:.9e} vs monolithic {b:.9e}"
        );
    }

    // Identical retention verdicts, and every injected bridge flipped.
    let grid = built.retained(&reduced);
    assert_eq!(grid, built.retained(&mono), "verdict grids diverged");
    for &(r, c) in DEFECT_SITES.iter().take(defects) {
        assert!(!grid[r * cols + c], "bridged cell ({r},{c}) must flip");
    }
    assert_eq!(
        grid.iter().filter(|&&ok| !ok).count(),
        defects,
        "exactly the injected cells lose their data"
    );

    // The reduced path really ran reduced: the interface it factored is
    // the partition's, and macromodels were shared across blocks.
    let counters = reduced_scratch.counters();
    assert_eq!(
        reduced_scratch.schur_interface_unknowns(),
        Some(built.partition.interface_unknowns())
    );
    assert!(counters.schur_blocks_shared > counters.schur_blocks_rebuilt);
    let mono_counters = mono_scratch.counters();
    assert_eq!(mono_counters.schur_blocks_shared, 0);
    assert_eq!(mono_counters.schur_blocks_rebuilt, 0);

    let unknowns = built.netlist.num_unknowns();
    let interface = built.partition.interface_unknowns();
    let factorized_schur =
        interface * reduced.stats.iterations + 2 * counters.schur_blocks_rebuilt as usize;
    Reduction {
        unknowns,
        interface,
        iterations: reduced.stats.iterations,
        blocks_rebuilt: counters.schur_blocks_rebuilt,
        factorized_ratio: (unknowns * mono.stats.iterations) as f64 / factorized_schur as f64,
    }
}

#[test]
fn equivalence_16x8_clean() {
    assert_paths_agree(16, 8, 0);
}

#[test]
fn equivalence_16x8_one_defect() {
    assert_paths_agree(16, 8, 1);
}

#[test]
fn equivalence_16x8_three_defects() {
    assert_paths_agree(16, 8, 3);
}

#[test]
fn equivalence_64x8_clean() {
    assert_paths_agree(64, 8, 0);
}

#[test]
fn equivalence_64x8_one_defect() {
    assert_paths_agree(64, 8, 1);
}

#[test]
fn equivalence_64x8_three_defects() {
    assert_paths_agree(64, 8, 3);
}

/// Full paper-scale column stripe. The monolithic reference assembles
/// an 8 723² dense matrix (~0.6 GB) before gathering into sparse, so
/// this stays out of tier-1; CI runs it in release with
/// `cargo test --release -p sram --test array_schur -- --ignored`.
///
/// The Schur side is deterministic and pinned exactly: a changed
/// partition moves the interface, and a macromodel cache that shares
/// less rebuilds more blocks.
#[test]
#[ignore = "512x8 monolithic reference needs ~0.6 GB and minutes of runtime"]
fn equivalence_512x8_three_defects() {
    let r = assert_paths_agree(512, 8, 3);
    assert_eq!(
        (r.unknowns, r.interface, r.iterations, r.blocks_rebuilt),
        (8_723, 537, 6, 11),
        "(unknowns, interface, Schur iterations, macromodels rebuilt)"
    );
    assert!(
        r.factorized_ratio >= 5.0,
        "factorized-unknowns reduction {:.1}x below 5x",
        r.factorized_ratio
    );
}
