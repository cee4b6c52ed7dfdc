//! ERC-clean netlist fuzzer for the analog solver.
//!
//! Generates random circuits that pass the static ERC lint *by
//! construction* — a resistive spanning tree rooted at ground
//! guarantees reachability and DC return paths, terminal bookkeeping
//! avoids dead-end nodes, and value ranges stay inside the lint's
//! conditioning guidelines — then feeds them to [`anasim`] asserting
//! three contracts:
//!
//! 1. **ERC-clean**: the generator never produces a diagnostic (if it
//!    does, either the generator or the lint rules drifted);
//! 2. **convergence-or-structured-error**: the solver returns
//!    `Ok(Solution)` with finite voltages or a structured
//!    [`anasim::Error`] — it never panics;
//! 3. **scratch bit-identity**: solving in a scratch workspace reused
//!    across arbitrary earlier netlists is bit-identical to a fresh
//!    solve (the PR-5 zero-allocation contract's correctness half).

use std::panic::{catch_unwind, AssertUnwindSafe};

use anasim::mna::AnalysisMode;
use anasim::newton::{solve, solve_with_scratch};
use anasim::{Netlist, NewtonOptions, NodeId, SolveScratch};
use drill::{check, no_shrink, Config, Rng};

use super::FuzzSummary;

/// Devices drawn beyond the spanning tree.
const MAX_EXTRA_DEVICES: usize = 10;

/// A log-uniform resistance in [10 Ω, 1 MΩ] — far below the ERC009
/// conditioning guideline.
fn gen_resistance(rng: &mut Rng) -> f64 {
    10.0_f64.powf(1.0 + 5.0 * rng.next_f64())
}

/// A log-uniform capacitance in [1 fF, 1 nF].
fn gen_capacitance(rng: &mut Rng) -> f64 {
    10.0_f64.powf(-15.0 + 6.0 * rng.next_f64())
}

/// Generates a random ERC-clean netlist from `rng`.
///
/// Topology: `n` internal nodes (2–8), a resistor spanning tree rooted
/// at ground, exactly one supply to ground, then up to
/// `MAX_EXTRA_DEVICES` extra resistors, capacitors and MOSFETs between
/// random distinct nodes.
/// Finally every node whose conduction-terminal count is still 1 gets
/// a capacitor to ground so no dead-end (ERC004) remains.
pub fn random_netlist(rng: &mut Rng) -> Netlist {
    let mut nl = Netlist::new();
    let n = rng.int_in(2, 8);
    let nodes: Vec<NodeId> = (0..n).map(|i| nl.node(&format!("n{i}"))).collect();
    // Conduction terminals per internal node (MOSFET gates, which only
    // sense, intentionally not counted).
    let mut degree = vec![0usize; n];

    // Resistive spanning tree rooted at ground: node i hangs off
    // ground or any earlier node, so every node has a DC path.
    for i in 0..n {
        let parent = if i == 0 {
            Netlist::GND
        } else {
            let k = rng.int_in(0, i);
            if k == 0 {
                Netlist::GND
            } else {
                nodes[k - 1]
            }
        };
        nl.resistor(&format!("rt{i}"), nodes[i], parent, gen_resistance(rng))
            .expect("positive resistance");
        degree[i] += 1;
        if let Some(p) = nodes.iter().position(|&x| x == parent) {
            degree[p] += 1;
        }
    }

    // Exactly one ideal supply, node → ground (a single source can
    // never form an ERC002 loop).
    let supply = rng.int_in(0, n - 1);
    nl.vsource(
        "vdd",
        nodes[supply],
        Netlist::GND,
        0.3 + 1.5 * rng.next_f64(),
    );
    degree[supply] += 1;

    // Extra devices on random distinct nodes (ground allowed on one
    // side, same-node conduction pairs avoided: ERC005).
    let pick_pair = |rng: &mut Rng| -> (usize, usize) {
        let a = rng.int_in(0, n - 1);
        let b = loop {
            // n + 1 choices: the extra one is ground (usize::MAX).
            let b = rng.int_in(0, n);
            if b != a {
                break b;
            }
        };
        (a, b)
    };
    let node_of = |nodes: &[NodeId], i: usize| -> NodeId {
        if i >= nodes.len() {
            Netlist::GND
        } else {
            nodes[i]
        }
    };
    let extras = rng.int_in(0, MAX_EXTRA_DEVICES);
    for d in 0..extras {
        let (a, b) = pick_pair(rng);
        let (pa, pb) = (node_of(&nodes, a), node_of(&nodes, b));
        match rng.below(3) {
            0 => {
                nl.resistor(&format!("rx{d}"), pa, pb, gen_resistance(rng))
                    .expect("positive resistance");
            }
            1 => {
                nl.capacitor(&format!("cx{d}"), pa, pb, gen_capacitance(rng))
                    .expect("positive capacitance");
            }
            _ => {
                let gate = node_of(&nodes, rng.int_in(0, n));
                let params = if rng.coin() {
                    anasim::devices::mosfet::MosParams::nmos(4.0e-4, 0.45)
                } else {
                    anasim::devices::mosfet::MosParams::pmos(4.0e-4, 0.45)
                };
                nl.mosfet(&format!("mx{d}"), pa, gate, pb, params)
                    .expect("valid mosfet");
            }
        }
        for i in [a, b] {
            if i < n {
                degree[i] += 1;
            }
        }
    }

    // Leaf repair: a one-terminal node is an ERC004 dead end.
    for i in 0..n {
        if degree[i] < 2 {
            nl.capacitor(&format!("cleaf{i}"), nodes[i], Netlist::GND, 1.0e-12)
                .expect("positive capacitance");
        }
    }
    nl
}

/// Runs the three contracts against one generated netlist, reusing
/// `scratch` from whatever circuit it solved before.
fn check_contracts(nl: &Netlist, scratch: &mut SolveScratch) -> Result<(), String> {
    // 1. ERC-clean by construction.
    let report = erc::check_netlist(nl);
    if !report.is_empty() {
        return Err(format!(
            "generator produced {} diagnostics: {}",
            report.len(),
            report
                .diagnostics()
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>()
                .join(",")
        ));
    }

    // 2. Convergence or structured error — never a panic.
    let opts = NewtonOptions::default();
    let fresh = catch_unwind(AssertUnwindSafe(|| {
        solve(nl, &opts, None, AnalysisMode::Dc)
    }))
    .map_err(|_| "solver panicked".to_string())?;

    // 3. Scratch reuse is bit-identical to the fresh solve.
    let reused = catch_unwind(AssertUnwindSafe(|| {
        solve_with_scratch(nl, &opts, None, AnalysisMode::Dc, scratch)
    }))
    .map_err(|_| "scratch solver panicked".to_string())?;

    match (fresh, reused) {
        (Ok(a), Ok(b)) => {
            if a.raw() != b.raw() {
                return Err("scratch solve diverged from fresh solve".to_string());
            }
            if let Some(&v) = a.raw().iter().find(|v| !v.is_finite()) {
                return Err(format!("non-finite solution entry {v}"));
            }
            Ok(())
        }
        (Err(ea), Err(eb)) => {
            if ea.to_string() == eb.to_string() {
                Ok(()) // structured, and consistently so
            } else {
                Err(format!("fresh failed with '{ea}' but scratch with '{eb}'"))
            }
        }
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => Err(format!("fresh and scratch solves disagree: {e}")),
    }
}

/// Fuzzes `cases` random ERC-clean netlists derived from `seed`.
pub fn fuzz_netlists(cases: u64, seed: u64) -> FuzzSummary {
    let _span = obs::span("fuzz_netlists");
    // The scratch deliberately survives across cases: structure changes
    // every case, exercising the resize-then-reuse path. RefCell
    // because the property closure is `Fn` (the runner may re-evaluate
    // it during shrinking).
    let scratch = std::cell::RefCell::new(SolveScratch::new());
    let report = check(
        &Config::new("ERC-clean netlists solve cleanly", seed).cases(cases),
        |rng| rng.next_u64(),
        no_shrink,
        |&netlist_seed| {
            let nl = random_netlist(&mut Rng::seeded(netlist_seed));
            check_contracts(&nl, &mut scratch.borrow_mut())
        },
    );
    let summary = FuzzSummary {
        reports: vec![report],
    };
    obs::counter_add("fuzz.netlist.cases", summary.total_cases());
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_netlists_are_erc_clean() {
        let mut rng = Rng::seeded(super::super::DEFAULT_SEED);
        for _ in 0..32 {
            let nl = random_netlist(&mut rng);
            let report = erc::check_netlist(&nl);
            assert!(report.is_empty(), "diagnostics: {}", report.render_text());
        }
    }

    #[test]
    fn small_smoke_run_is_clean() {
        let summary = fuzz_netlists(16, super::super::DEFAULT_SEED);
        assert!(summary.ok(), "{summary}");
        assert_eq!(summary.total_cases(), 16);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_netlist(&mut Rng::seeded(77));
        let b = random_netlist(&mut Rng::seeded(77));
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_devices(), b.num_devices());
        let names_a: Vec<_> = a.elements().map(|(n, _)| n.to_string()).collect();
        let names_b: Vec<_> = b.elements().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_a, names_b);
    }
}
