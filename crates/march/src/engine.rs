//! The March test engine: applies a test to a target and records
//! miscompares.

use std::ops::ControlFlow;

use crate::background::DataBackground;
use crate::element::MarchElement;
use crate::op::Op;
use crate::target::TestTarget;
use crate::test::MarchTest;

/// One miscompare observed during test application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// Index of the element during which the miscompare occurred.
    pub element: usize,
    /// Failing address.
    pub addr: usize,
    /// Expected word.
    pub expected: u64,
    /// Observed word.
    pub observed: u64,
}

impl FailureRecord {
    /// Bit mask of the failing cells.
    pub fn failing_bits(&self) -> u64 {
        self.expected ^ self.observed
    }
}

/// Outcome and accounting of one test application.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Every miscompare, in order of occurrence.
    pub failures: Vec<FailureRecord>,
    /// Read operations executed.
    pub reads: usize,
    /// Write operations executed.
    pub writes: usize,
    /// Deep-sleep episodes entered.
    pub ds_entries: usize,
}

impl TestOutcome {
    /// Whether the test flagged the device as faulty.
    pub fn detected(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Total operations (complexity actually executed, with DSM/WUP
    /// counted as 1 like the paper).
    pub fn operations(&self) -> usize {
        self.reads + self.writes + 2 * self.ds_entries
    }
}

/// Applies `test` to `target`, comparing every read against the March
/// background it expects (solid data background).
///
/// ```
/// use march::{engine, library, SimpleMemory};
/// let mut memory = SimpleMemory::new(16, 8);
/// let outcome = engine::run(&library::march_mlz(1e-3), &mut memory);
/// assert!(!outcome.detected()); // clean memory passes
/// assert_eq!(outcome.operations(), 5 * 16 + 4);
/// ```
pub fn run<T: TestTarget + ?Sized>(test: &MarchTest, target: &mut T) -> TestOutcome {
    run_with_background(test, target, DataBackground::Solid)
}

/// Applies `test` with an explicit data background: `w1` writes the
/// background pattern of the address, `w0` its complement, and reads
/// expect accordingly. Word-oriented coverage of intra-word coupling
/// depends on this choice.
pub fn run_with_background<T: TestTarget + ?Sized>(
    test: &MarchTest,
    target: &mut T,
    background: DataBackground,
) -> TestOutcome {
    let mut failures = Vec::new();
    let tally = walk(test, target, background, |failure| {
        failures.push(failure);
        ControlFlow::Continue(())
    });
    TestOutcome {
        failures,
        reads: tally.reads,
        writes: tally.writes,
        ds_entries: tally.ds_entries,
    }
}

/// Whether `test` under `background` flags `target` as faulty. Stops
/// at the first miscompare, so it executes only the operations the
/// verdict needs; the verdict always equals
/// `run_with_background(..).detected()` on the same starting state.
///
/// ```
/// use march::{engine, library, DataBackground, SimpleMemory};
/// use march::fault::{CellRef, Fault};
/// let mut memory = SimpleMemory::new(16, 8);
/// memory.inject(Fault::retention_loss(CellRef { addr: 3, bit: 1 }, true));
/// assert!(engine::detects(&library::march_mlz(1e-3), &mut memory, DataBackground::Solid));
/// ```
pub fn detects<T: TestTarget + ?Sized>(
    test: &MarchTest,
    target: &mut T,
    background: DataBackground,
) -> bool {
    let mut detected = false;
    walk(test, target, background, |_| {
        detected = true;
        ControlFlow::Break(())
    });
    detected
}

/// Operations one walk executed.
struct Tally {
    reads: usize,
    writes: usize,
    ds_entries: usize,
}

/// Applies `test` to `target`, handing every miscompare to
/// `on_miscompare` and stopping as soon as it breaks. Counts the reads
/// and writes actually executed into `march.ops`.
fn walk<T: TestTarget + ?Sized>(
    test: &MarchTest,
    target: &mut T,
    background: DataBackground,
    mut on_miscompare: impl FnMut(FailureRecord) -> ControlFlow<()>,
) -> Tally {
    let words = target.word_count();
    let bits = target.word_bits();
    let ones = target.ones();
    let mut tally = Tally {
        reads: 0,
        writes: 0,
        ds_entries: 0,
    };
    'test: for (idx, element) in test.elements().iter().enumerate() {
        match element {
            MarchElement::Sweep { order, ops } => {
                for addr in order.addresses(words) {
                    let pattern = background.pattern(addr, bits);
                    let inverse = !pattern & ones;
                    for &op in ops {
                        match op {
                            Op::W0 => {
                                target.write(addr, inverse);
                                tally.writes += 1;
                            }
                            Op::W1 => {
                                target.write(addr, pattern);
                                tally.writes += 1;
                            }
                            Op::R0 | Op::R1 => {
                                let expected = if op == Op::R1 { pattern } else { inverse };
                                let observed = target.read(addr);
                                tally.reads += 1;
                                if observed != expected {
                                    let failure = FailureRecord {
                                        element: idx,
                                        addr,
                                        expected,
                                        observed,
                                    };
                                    if on_miscompare(failure).is_break() {
                                        break 'test;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            MarchElement::DeepSleep { dwell } => {
                target.deep_sleep(*dwell);
                tally.ds_entries += 1;
            }
            MarchElement::WakeUp => target.wake_up(),
        }
    }
    obs::counter_add("march.ops", (tally.reads + tally.writes) as u64);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CellRef, Fault};
    use crate::library;
    use crate::target::SimpleMemory;

    #[test]
    fn clean_memory_passes_everything() {
        for test in [
            library::march_mlz(1e-3),
            library::mats_plus(),
            library::march_cminus(),
            library::march_ss(),
        ] {
            let mut m = SimpleMemory::new(64, 8);
            let outcome = run(&test, &mut m);
            assert!(!outcome.detected(), "{} false-failed", test.name());
        }
    }

    #[test]
    fn operation_accounting_matches_complexity() {
        let test = library::march_mlz(1e-3);
        let mut m = SimpleMemory::new(64, 8);
        let outcome = run(&test, &mut m);
        assert_eq!(outcome.operations(), test.complexity(64));
        assert_eq!(outcome.ds_entries, 2);
    }

    #[test]
    fn march_mlz_detects_retention_loss_of_one() {
        let test = library::march_mlz(1e-3);
        let mut m = SimpleMemory::new(64, 8);
        m.inject(Fault::retention_loss(CellRef { addr: 10, bit: 3 }, true));
        let outcome = run(&test, &mut m);
        assert!(outcome.detected());
        // Detected by the r1 after the first DSM (element 3).
        let f = outcome.failures[0];
        assert_eq!(f.element, 3);
        assert_eq!(f.addr, 10);
        assert_eq!(f.failing_bits(), 1 << 3);
    }

    #[test]
    fn march_mlz_detects_retention_loss_of_zero() {
        let test = library::march_mlz(1e-3);
        let mut m = SimpleMemory::new(64, 8);
        m.inject(Fault::retention_loss(CellRef { addr: 5, bit: 0 }, false));
        let outcome = run(&test, &mut m);
        assert!(outcome.detected());
        // Detected by the final r0 (element 6) after the second DSM.
        assert_eq!(outcome.failures[0].element, 6);
    }

    #[test]
    fn march_mlz_detects_wake_up_write_fault() {
        // The peripheral power-gating fault: the first post-WUP write
        // is lost. ME4's w0 is exactly that write; its r0 observes the
        // stale '1'.
        let test = library::march_mlz(1e-3);
        let mut m = SimpleMemory::new(64, 8);
        m.inject(Fault::wake_up_write(CellRef { addr: 9, bit: 6 }));
        let outcome = run(&test, &mut m);
        assert!(outcome.detected());
        let f = outcome.failures[0];
        assert_eq!(f.element, 3, "caught by ME4");
        assert_eq!(f.addr, 9);
    }

    #[test]
    fn classic_tests_miss_wake_up_write_fault() {
        for test in [library::mats_plus(), library::march_ss()] {
            let mut m = SimpleMemory::new(64, 8);
            m.inject(Fault::wake_up_write(CellRef { addr: 9, bit: 6 }));
            assert!(!run(&test, &mut m).detected(), "{}", test.name());
        }
    }

    #[test]
    fn mats_plus_misses_retention_faults() {
        // No DSM in MATS+: a pure retention fault is invisible.
        let test = library::mats_plus();
        let mut m = SimpleMemory::new(64, 8);
        m.inject(Fault::retention_loss(CellRef { addr: 10, bit: 3 }, true));
        let outcome = run(&test, &mut m);
        assert!(!outcome.detected());
    }

    #[test]
    fn stuck_at_detected_by_all_library_tests() {
        for test in [
            library::march_mlz(1e-3),
            library::mats_plus(),
            library::march_cminus(),
            library::march_ss(),
        ] {
            for value in [false, true] {
                let mut m = SimpleMemory::new(32, 8);
                m.inject(Fault::stuck_at(CellRef { addr: 7, bit: 1 }, value));
                let outcome = run(&test, &mut m);
                assert!(
                    outcome.detected(),
                    "{} missed SAF{}",
                    test.name(),
                    u8::from(value)
                );
            }
        }
    }

    #[test]
    fn transition_faults_detected_by_march_cminus() {
        for rising in [false, true] {
            let mut m = SimpleMemory::new(32, 8);
            m.inject(Fault::transition(CellRef { addr: 3, bit: 2 }, rising));
            let outcome = run(&library::march_cminus(), &mut m);
            assert!(outcome.detected(), "TF rising={rising} missed");
        }
    }

    #[test]
    fn coupling_inversion_detected_by_march_cminus() {
        let mut m = SimpleMemory::new(32, 8);
        m.inject(Fault::coupling_inversion(
            CellRef { addr: 2, bit: 0 },
            CellRef { addr: 9, bit: 0 },
        ));
        let outcome = run(&library::march_cminus(), &mut m);
        assert!(outcome.detected());
    }
}
