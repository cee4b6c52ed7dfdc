//! Differential validation of the prover against the concrete
//! simulation in `march::coverage`.
//!
//! Two independent checks:
//!
//! * [`check_replays`] — every Proven-Detected claim's canonical
//!   instance must be detected by the simulator (and the witness must
//!   name a real read of the test), and every Proven-Escaped
//!   counterexample must actually escape when replayed. This validates
//!   the matrix point-wise, including the Escaped side the acceptance
//!   criteria single out.
//! * [`exhaustive`] — enumerate *every* concrete fault a geometry
//!   admits, classify each one back to its fault class, and require
//!   the simulator's verdict to match the prover's for all of them.
//!   This is the placement-quantification check: a single symbolic
//!   verdict claims all N addresses and W bits at once, and this
//!   harness calls the bluff address by address.

use std::collections::HashMap;

use march::background::DataBackground;
use march::coverage;
use march::fault::{CellRef, Fault, FaultKind};
use march::target::SimpleMemory;
use march::test::MarchTest;

use crate::class::FaultClass;
use crate::prove;
use crate::verdict::{Claim, ClaimsMatrix, Verdict};

/// Every concrete fault the fault model admits on a `words × bits`
/// memory: all single-cell faults per cell, all coupling faults per
/// ordered cell pair, all aliases per ordered word pair.
pub fn enumerate_faults(words: usize, bits: usize) -> Vec<Fault> {
    let mut out = Vec::new();
    for addr in 0..words {
        for bit in 0..bits {
            let v = CellRef { addr, bit };
            out.push(Fault::stuck_at(v, false));
            out.push(Fault::stuck_at(v, true));
            out.push(Fault::transition(v, true));
            out.push(Fault::transition(v, false));
            out.push(Fault::retention_loss(v, false));
            out.push(Fault::retention_loss(v, true));
            out.push(Fault::wake_up_write(v));
        }
    }
    for va in 0..words {
        for vb in 0..bits {
            let victim = CellRef { addr: va, bit: vb };
            for aa in 0..words {
                for ab in 0..bits {
                    if (aa, ab) == (va, vb) {
                        continue;
                    }
                    let aggressor = CellRef { addr: aa, bit: ab };
                    out.push(Fault::coupling_inversion(aggressor, victim));
                    for rising in [false, true] {
                        for forces in [false, true] {
                            out.push(Fault::coupling_idempotent(
                                aggressor, victim, rising, forces,
                            ));
                        }
                    }
                    for when in [false, true] {
                        for forces in [false, true] {
                            out.push(Fault::coupling_state(aggressor, victim, when, forces));
                        }
                    }
                }
            }
        }
    }
    for victim in 0..words {
        for target in 0..words {
            if victim != target {
                out.push(Fault::address_alias(victim, target));
            }
        }
    }
    out
}

/// The background passes a solid claim is graded under.
const SOLID: &[DataBackground] = &[DataBackground::Solid];

/// Replays every claim in the matrix through the simulator: canonical
/// instances of Detected claims must fail in simulation with the
/// witness naming a read the test actually performs; Escaped
/// counterexamples must pass cleanly. Returns one problem string per
/// disagreement.
pub fn check_replays(matrix: &ClaimsMatrix, tests: &[MarchTest]) -> Vec<String> {
    let mut problems = Vec::new();
    for claim in &matrix.claims {
        let Some(test) = tests.iter().find(|t| t.name() == claim.test) else {
            problems.push(format!("{}: test not in library", claim.test));
            continue;
        };
        let inst = &claim.instance;
        let scopes: Vec<(&str, &Verdict)> = std::iter::once(("solid", &claim.solid))
            .chain(claim.family.as_ref().map(|f| ("family", f)))
            .collect();
        for (scope, verdict) in scopes {
            match verdict {
                Verdict::Detected { witness, .. } => {
                    let backgrounds = match scope {
                        "solid" => SOLID,
                        _ => &DataBackground::ALL,
                    };
                    let mut memory = SimpleMemory::new(inst.words, inst.bits);
                    let detected =
                        coverage::detects_alone(test, &mut memory, &inst.fault, backgrounds);
                    if !detected {
                        problems.push(format!(
                            "{} / {} ({scope}): Proven-Detected but the simulator misses {}",
                            claim.test, claim.class, inst.fault
                        ));
                    }
                    let real_read = test.flat_ops().any(|(ei, oi, op)| {
                        ei == witness.element && oi == witness.op_index && op == witness.op
                    });
                    if !(real_read && witness.op.is_read()) {
                        problems.push(format!(
                            "{} / {} ({scope}): witness ({}, {}) {} is not a read the test performs",
                            claim.test, claim.class, witness.element, witness.op_index, witness.op
                        ));
                    }
                }
                Verdict::Escaped { counterexample, .. } => {
                    if counterexample.replay_detects(test) {
                        problems.push(format!(
                            "{} / {} ({scope}): Proven-Escaped but the simulator detects the \
                             counterexample {}",
                            claim.test, claim.class, counterexample.fault
                        ));
                    }
                }
                Verdict::Unknown { .. } => {}
            }
        }
    }
    problems
}

/// Grades every enumerable fault on a `words × bits` memory and
/// requires the simulator's outcome to match the prover's verdict for
/// the fault's class — solid claims against the solid background,
/// family claims (intra-word coupling) against the full background
/// family. Returns one problem string per mismatch.
///
/// Every fault runs through one reused memory (reset to power-on
/// before each pass) and stops at its first miscompare; each class's
/// claim is looked up once per call.
pub fn exhaustive(
    test: &MarchTest,
    matrix: &ClaimsMatrix,
    words: usize,
    bits: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut memory = SimpleMemory::new(words, bits);
    let mut claims: HashMap<FaultClass, Option<&Claim>> = HashMap::new();
    for fault in enumerate_faults(words, bits) {
        let Some(class) = FaultClass::classify(&fault) else {
            continue;
        };
        let claim = *claims
            .entry(class.clone())
            .or_insert_with(|| matrix.claim(test.name(), &class.code()));
        let Some(claim) = claim else {
            problems.push(format!(
                "{} / {}: {} has no claim in the matrix",
                test.name(),
                class.code(),
                fault
            ));
            continue;
        };
        if !matches!(claim.solid, Verdict::Unknown { .. }) {
            let simulated = coverage::detects_alone(test, &mut memory, &fault, SOLID);
            if simulated != claim.solid.is_detected() {
                problems.push(format!(
                    "{} / {}: solid simulation of {} says {} but the prover says {}",
                    test.name(),
                    class.code(),
                    fault,
                    if simulated { "detected" } else { "escaped" },
                    claim.solid.code()
                ));
            }
        }
        // The family claim is universal over placements, so check the
        // prover's *per-placement* prediction at this exact bit pair
        // and address parity, not just the aggregate verdict.
        if class.is_intra() && claim.family.is_some() {
            let aggressor = match &fault.kind {
                FaultKind::CouplingInversion { aggressor } => *aggressor,
                FaultKind::CouplingIdempotent { aggressor, .. } => *aggressor,
                FaultKind::CouplingState { aggressor, .. } => *aggressor,
                _ => unreachable!("intra-word classes are coupling faults"),
            };
            let predicted = prove::family_instance_detected(
                test,
                &class,
                aggressor.bit,
                fault.victim.bit,
                fault.victim.addr % 2,
                bits,
            );
            if let Some(predicted) = predicted {
                let simulated =
                    coverage::detects_alone(test, &mut memory, &fault, &DataBackground::ALL);
                if simulated != predicted {
                    problems.push(format!(
                        "{} / {}: family simulation of {} says {} but the prover predicts {}",
                        test.name(),
                        class.code(),
                        fault,
                        if simulated { "detected" } else { "escaped" },
                        if predicted { "detected" } else { "escaped" },
                    ));
                }
            }
        }
    }
    problems
}
