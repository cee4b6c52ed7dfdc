//! Fault-coverage grading of March tests.

use crate::background::DataBackground;
use crate::engine::detects;
use crate::fault::{CellRef, Fault};
use crate::target::SimpleMemory;
use crate::test::MarchTest;

/// Coverage of one test over a fault list.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Name of the graded test.
    pub test_name: String,
    /// Number of faults detected.
    pub detected: usize,
    /// Total faults graded.
    pub total: usize,
    /// The faults that escaped.
    pub escapes: Vec<Fault>,
}

impl CoverageReport {
    /// Detection fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }

    /// Coverage as a percentage.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

/// Grades `test` against each fault injected alone into a
/// `words × word_bits` memory at its power-on state.
pub fn grade(test: &MarchTest, words: usize, word_bits: usize, faults: &[Fault]) -> CoverageReport {
    grade_with_backgrounds(test, words, word_bits, faults, &[DataBackground::Solid])
}

/// Grades `test` repeated once per background in `backgrounds`; a
/// fault counts as detected when *any* pass catches it (the
/// word-oriented production flow).
pub fn grade_with_backgrounds(
    test: &MarchTest,
    words: usize,
    word_bits: usize,
    faults: &[Fault],
    backgrounds: &[DataBackground],
) -> CoverageReport {
    let mut memory = SimpleMemory::new(words, word_bits);
    let mut detected = 0;
    let mut escapes = Vec::new();
    for fault in faults {
        if detects_alone(test, &mut memory, fault, backgrounds) {
            detected += 1;
        } else {
            escapes.push(fault.clone());
        }
    }
    CoverageReport {
        test_name: test.name().to_string(),
        detected,
        total: faults.len(),
        escapes,
    }
}

/// Whether any pass of `test`, one per background in `backgrounds`,
/// detects `fault` injected alone into `memory`. Each pass starts from
/// the power-on state ([`SimpleMemory::reset`]), so one memory grades a
/// whole fault list exactly as a fresh memory per pass would.
pub fn detects_alone(
    test: &MarchTest,
    memory: &mut SimpleMemory,
    fault: &Fault,
    backgrounds: &[DataBackground],
) -> bool {
    backgrounds.iter().any(|&bg| {
        memory.reset();
        memory.inject(fault.clone());
        detects(test, memory, bg)
    })
}

/// A standard fault list over a small memory: every SAF/TF/DRF on a
/// sample of cells plus coupling faults between neighbours. Used by the
/// comparison examples.
pub fn standard_fault_list(words: usize, word_bits: usize) -> Vec<Fault> {
    let mut faults = Vec::new();
    let sample: Vec<CellRef> = (0..words.min(8))
        .map(|a| CellRef {
            addr: a * words / 8.min(words),
            bit: a % word_bits,
        })
        .collect();
    for &cell in &sample {
        faults.push(Fault::stuck_at(cell, false));
        faults.push(Fault::stuck_at(cell, true));
        faults.push(Fault::transition(cell, false));
        faults.push(Fault::transition(cell, true));
        faults.push(Fault::retention_loss(cell, false));
        faults.push(Fault::retention_loss(cell, true));
        faults.push(Fault::wake_up_write(cell));
    }
    for pair in sample.windows(2) {
        faults.push(Fault::coupling_inversion(pair[0], pair[1]));
        faults.push(Fault::coupling_idempotent(pair[0], pair[1], true, false));
        faults.push(Fault::coupling_idempotent(pair[1], pair[0], false, true));
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn march_ss_covers_all_static_faults() {
        let faults: Vec<Fault> = standard_fault_list(32, 8)
            .into_iter()
            .filter(|f| !f.kind.needs_deep_sleep())
            .collect();
        let report = grade(&library::march_ss(), 32, 8, &faults);
        assert_eq!(
            report.detected, report.total,
            "March SS escapes: {:?}",
            report.escapes
        );
        assert_eq!(report.fraction(), 1.0);
    }

    #[test]
    fn march_mlz_catches_every_retention_fault() {
        let faults: Vec<Fault> = standard_fault_list(32, 8)
            .into_iter()
            .filter(|f| f.kind.needs_deep_sleep())
            .collect();
        assert!(!faults.is_empty());
        let report = grade(&library::march_mlz(1e-3), 32, 8, &faults);
        assert_eq!(report.detected, report.total);
    }

    #[test]
    fn baselines_miss_all_retention_faults() {
        let faults: Vec<Fault> = standard_fault_list(32, 8)
            .into_iter()
            .filter(|f| f.kind.needs_deep_sleep())
            .collect();
        for test in [
            library::mats_plus(),
            library::march_cminus(),
            library::march_ss(),
        ] {
            let report = grade(&test, 32, 8, &faults);
            assert_eq!(report.detected, 0, "{} should miss DRFs", test.name());
            assert_eq!(report.percent(), 0.0);
        }
    }

    #[test]
    fn mats_plus_misses_some_coupling() {
        let faults: Vec<Fault> = standard_fault_list(32, 8)
            .into_iter()
            .filter(|f| f.kind.aggressor().is_some())
            .collect();
        let mats = grade(&library::mats_plus(), 32, 8, &faults);
        let ss = grade(&library::march_ss(), 32, 8, &faults);
        assert!(ss.fraction() >= mats.fraction());
    }

    #[test]
    fn background_union_grading() {
        // The intra-word CFst dictionary closes only under the full
        // background family.
        let mut faults = Vec::new();
        for a in 0..4usize {
            for v in 0..4usize {
                if a != v {
                    faults.push(Fault::coupling_state(
                        CellRef { addr: 3, bit: a },
                        CellRef { addr: 3, bit: v },
                        true,
                        true,
                    ));
                }
            }
        }
        let single = grade(&library::march_cminus(), 16, 8, &faults);
        assert!(single.detected < single.total);
        let family = grade_with_backgrounds(
            &library::march_cminus(),
            16,
            8,
            &faults,
            &DataBackground::ALL,
        );
        assert_eq!(family.detected, family.total);
    }

    #[test]
    fn empty_fault_list_is_full_coverage() {
        let report = grade(&library::mats_plus(), 8, 8, &[]);
        assert_eq!(report.fraction(), 1.0);
        assert_eq!(report.total, 0);
    }
}
