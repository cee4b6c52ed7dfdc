//! Test flows: sequences of March m-LZ applications under chosen
//! (V_DD, Vref) conditions — the subject of the paper's Table III.

use std::fmt;

use march::{engine, library, TestOutcome};
use process::{ProcessCorner, PvtCondition};
use regulator::{Defect, FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap};
use sram::drv::{drv_ds, DrvOptions};
use sram::{
    ArrayGeometry, ArrayLoad, CellInstance, CellPopulation, DsConditions, SramDevice, StoredBit,
    TableRetention,
};

use crate::case_study::CaseStudy;
use crate::sram_target::SramTarget;

/// One execution of March m-LZ under fixed test conditions (a row of
/// Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowIteration {
    /// Supply during the iteration, volts.
    pub vdd: f64,
    /// Selected reference tap.
    pub tap: VrefTap,
    /// Deep-sleep dwell per DSM, seconds.
    pub ds_time: f64,
}

impl FlowIteration {
    /// Expected (fault-free) `Vreg`.
    pub fn expected_vreg(&self) -> f64 {
        self.tap.fraction() * self.vdd
    }
}

impl fmt::Display for FlowIteration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VDD={:.1}V, Vref={}, Vreg={:.3}V, DS time={:.0}ms",
            self.vdd,
            self.tap,
            self.expected_vreg(),
            self.ds_time * 1e3
        )
    }
}

/// A named sequence of flow iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct TestFlow {
    name: String,
    iterations: Vec<FlowIteration>,
}

impl TestFlow {
    /// Creates a flow.
    pub fn new(name: &str, iterations: Vec<FlowIteration>) -> Self {
        TestFlow {
            name: name.to_string(),
            iterations,
        }
    }

    /// The flow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The iterations in order.
    pub fn iterations(&self) -> &[FlowIteration] {
        &self.iterations
    }

    /// The unoptimized exhaustive flow: all 12 (V_DD, Vref)
    /// combinations.
    pub fn exhaustive(ds_time: f64) -> Self {
        let mut iterations = Vec::with_capacity(12);
        for &vdd in &[1.0, 1.1, 1.2] {
            for tap in VrefTap::ALL {
                iterations.push(FlowIteration { vdd, tap, ds_time });
            }
        }
        TestFlow::new("exhaustive 12-combination flow", iterations)
    }

    /// The paper's optimized flow (Table III): three iterations with
    /// `Vreg` pinned just above the worst-case retention voltage.
    pub fn paper_optimized(ds_time: f64) -> Self {
        TestFlow::new(
            "optimized flow (Table III)",
            vec![
                FlowIteration {
                    vdd: 1.0,
                    tap: VrefTap::V74,
                    ds_time,
                },
                FlowIteration {
                    vdd: 1.1,
                    tap: VrefTap::V70,
                    ds_time,
                },
                FlowIteration {
                    vdd: 1.2,
                    tap: VrefTap::V64,
                    ds_time,
                },
            ],
        )
    }

    /// Total test complexity (March m-LZ is 5N+4 per iteration).
    pub fn complexity(&self, words: usize) -> usize {
        self.iterations.len() * (5 * words + 4)
    }

    /// Fractional test-time reduction versus `other`
    /// (`1 − self/other`); the paper reports 75 % versus the exhaustive
    /// flow.
    pub fn time_reduction_vs(&self, other: &TestFlow) -> f64 {
        1.0 - self.iterations.len() as f64 / other.iterations.len() as f64
    }

    /// Wall-clock tester time of the flow in seconds: per iteration,
    /// `(5N+2)` read/write cycles at `cycle_time` plus the two DS
    /// dwells. On the paper's 4K×64 block with a 10 ns cycle, the
    /// dwells dominate (2 ms vs ≈0.2 ms of cycles), so the 75 %
    /// iteration-count reduction is also a ≈75 % wall-clock reduction.
    pub fn duration_seconds(&self, words: usize, cycle_time: f64) -> f64 {
        self.iterations
            .iter()
            .map(|it| (5 * words + 2) as f64 * cycle_time + 2.0 * it.ds_time)
            .sum()
    }
}

impl fmt::Display for TestFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (i, it) in self.iterations.iter().enumerate() {
            writeln!(f, "  iteration {}: {}", i + 1, it)?;
        }
        Ok(())
    }
}

/// Process corner of the test insertion, for the flow runs and Table
/// III's coverage matrix: `fs`, the dominant worst case of Table II.
pub(crate) const TEST_CORNER: ProcessCorner = ProcessCorner::FastNSlowP;

/// Test temperature, °C: the paper recommends testing hot.
pub(crate) const TEST_TEMP_C: f64 = 125.0;

/// Result of one flow iteration against a defective device.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// The conditions applied.
    pub iteration: FlowIteration,
    /// The rail voltage the defective regulator actually delivered.
    pub vddcc: f64,
    /// March m-LZ outcome.
    pub outcome: TestOutcome,
}

/// Result of a full flow run.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// Per-iteration results, in order.
    pub iterations: Vec<IterationResult>,
}

impl FlowRun {
    /// Whether any iteration detected the defect.
    pub fn detected(&self) -> bool {
        self.iterations.iter().any(|r| r.outcome.detected())
    }

    /// Index of the first detecting iteration.
    pub fn first_detection(&self) -> Option<usize> {
        self.iterations.iter().position(|r| r.outcome.detected())
    }
}

/// Runs a test flow end-to-end against a device whose regulator
/// carries `defect` at `ohms`, with `cs`-patterned cells placed in the
/// array: per iteration, the regulator is solved electrically to find
/// the actual deep-sleep rail voltage, the behavioural SRAM is
/// configured with the measured retention voltages, and March m-LZ is
/// applied.
///
/// The die is `fs` at 125 °C (the supply varies per iteration) and the
/// regulator is [`RegulatorDesign::lp40nm`]. The behavioural memory is
/// [`ArrayGeometry::small`] rather than the paper's 4K×64 block, which
/// keeps each March m-LZ run fast; the regulator still carries the full
/// array's load, sampled at five points. The retention voltages come
/// from coarse (≈4 mV) DRV searches.
///
/// # Errors
///
/// Propagates electrical solver failures.
pub fn run_flow_against_defect(
    flow: &TestFlow,
    defect: Defect,
    ohms: f64,
    cs: &CaseStudy,
) -> Result<FlowRun, anasim::Error> {
    let design = RegulatorDesign::lp40nm();
    let geometry = ArrayGeometry::small();
    let drv = DrvOptions::coarse();
    let mut results = Vec::with_capacity(flow.iterations().len());
    for &iteration in flow.iterations() {
        let pvt = PvtCondition::new(TEST_CORNER, iteration.vdd, TEST_TEMP_C);
        // Retention voltages at this condition.
        let stressed = CellInstance::with_pattern(cs.pattern(), pvt);
        let special_drv = drv_ds(&stressed, cs.weak_bit, &drv)?.drv;
        let symmetric = CellInstance::symmetric(pvt);
        let symmetric_drv = drv_ds(&symmetric, StoredBit::One, &drv)?.drv;
        // Defective regulator under the full array load.
        let load = ArrayLoad::build(
            &symmetric,
            &[CellPopulation {
                pattern: cs.pattern(),
                count: cs.cell_count(),
                stored: cs.weak_bit,
            }],
            256 * 1024,
            1.3,
            5,
        )?;
        let vddcc = if defect.is_transient_mechanism() {
            regulator::activation_transient(
                &design,
                pvt,
                iteration.tap,
                defect,
                ohms,
                &load,
                iteration.ds_time.min(1.0e-3),
                20.0e-6,
            )?
            .min_vddcc()
        } else {
            let mut circuit = RegulatorCircuit::new(&design, pvt, iteration.tap, FeedMode::Static)?;
            circuit.inject(defect, ohms);
            circuit.solve(&load)?.vddcc
        };
        // Behavioural device with the measured retention thresholds.
        let mut device = SramDevice::new(
            geometry,
            DsConditions { vreg: vddcc },
            Box::new(TableRetention {
                symmetric_drv,
                special_drv,
            }),
        );
        let count = cs.cell_count().min(geometry.cells());
        device
            .array_mut()
            .place_pattern_strided(cs.pattern(), count, 8);
        let mut target = SramTarget::new(device);
        let outcome = engine::run(&library::march_mlz(iteration.ds_time), &mut target);
        results.push(IterationResult {
            iteration,
            vddcc,
            outcome,
        });
    }
    Ok(FlowRun {
        iterations: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_shapes() {
        let ex = TestFlow::exhaustive(1e-3);
        assert_eq!(ex.iterations().len(), 12);
        let opt = TestFlow::paper_optimized(1e-3);
        assert_eq!(opt.iterations().len(), 3);
        assert!((opt.time_reduction_vs(&ex) - 0.75).abs() < 1e-12);
        assert_eq!(opt.complexity(4096), 3 * (5 * 4096 + 4));
    }

    #[test]
    fn wall_clock_reduction_matches_iteration_reduction() {
        let opt = TestFlow::paper_optimized(1e-3);
        let exh = TestFlow::exhaustive(1e-3);
        let words = 4096;
        let cycle = 10.0e-9;
        let t_opt = opt.duration_seconds(words, cycle);
        let t_exh = exh.duration_seconds(words, cycle);
        // Identical per-iteration cost: the wall-clock ratio equals the
        // iteration ratio exactly.
        assert!(((1.0 - t_opt / t_exh) - 0.75).abs() < 1e-12);
        // And the dwells dominate the cycles on the paper's block.
        let cycles_per_iter = (5 * words + 2) as f64 * cycle;
        assert!(cycles_per_iter < 2.0e-3 / 5.0);
        // Sanity on magnitude: the optimized flow is a few ms.
        assert!((6.0e-3..8.0e-3).contains(&t_opt), "{t_opt}");
    }

    #[test]
    fn table3_vreg_values_match_paper() {
        // Table III: Vreg = 0.740, 0.770, 0.768 V.
        let flow = TestFlow::paper_optimized(1e-3);
        let vregs: Vec<f64> = flow
            .iterations()
            .iter()
            .map(|i| i.expected_vreg())
            .collect();
        assert!((vregs[0] - 0.740).abs() < 1e-9);
        assert!((vregs[1] - 0.770).abs() < 1e-9);
        assert!((vregs[2] - 0.768).abs() < 1e-9);
        // Every iteration keeps Vreg at or above the worst-case DRV.
        for v in vregs {
            assert!(v >= crate::case_study::WORST_CASE_DRV);
        }
    }

    #[test]
    fn iterations_match_tap_rule() {
        use crate::defect_analysis::tap_for_vdd;
        for it in TestFlow::paper_optimized(1e-3).iterations() {
            assert_eq!(it.tap, tap_for_vdd(it.vdd));
        }
    }

    #[test]
    fn display_formats() {
        let flow = TestFlow::paper_optimized(1e-3);
        let s = flow.to_string();
        assert!(s.contains("iteration 1"));
        assert!(s.contains("0.740V"));
        assert!(s.contains("DS time=1ms"));
    }

    #[test]
    fn end_to_end_df16_detected_by_optimized_flow() {
        let cs = CaseStudy::new(1, StoredBit::One);
        let run = run_flow_against_defect(
            &TestFlow::paper_optimized(1e-3),
            Defect::new(16),
            200.0e3, // hefty open in the output stage
            &cs,
        )
        .unwrap();
        assert!(run.detected(), "Df16 @ 200k must be caught");
        assert!(run.first_detection().is_some());
        // The delivered rail is visibly depressed.
        assert!(run.iterations[0].vddcc < 0.72);
    }

    #[test]
    fn end_to_end_healthy_value_passes() {
        let cs = CaseStudy::new(1, StoredBit::One);
        let run = run_flow_against_defect(
            &TestFlow::paper_optimized(1e-3),
            Defect::new(18), // negligible sense-line defect
            100.0e6,
            &cs,
        )
        .unwrap();
        assert!(!run.detected(), "negligible defect must pass");
    }
}
