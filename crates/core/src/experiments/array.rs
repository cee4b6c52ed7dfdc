//! Full-array retention map: solves the row×col core-cell array
//! electrically through the hierarchical block-Schur reduction and
//! grades every cell's verdict.
//!
//! Each grid point — a (scenario, supply) pair — is one full-array
//! Newton solve, fanned across workers through the campaign runner
//! ([`run_grid`]). Per the executor's determinism contract the
//! rendered report is byte-identical for every `--jobs` value: every
//! number in a row comes from that point's own solve and its own
//! [`SolveScratch`] counters, folded in grid order.

use std::fmt;

use anasim::{solve_array, ArraySolveOptions, SolveScratch};
use process::PvtCondition;
use sram::{ActiveCell, ArraySpec, CellInstance, StoredBit};

use crate::campaign::{publish_coverage, run_grid, GridPoint};
use crate::report::TextTable;

/// One injected-defect scenario: a label plus the cells that differ
/// from the healthy background.
#[derive(Debug, Clone)]
pub struct ArrayScenario {
    /// Report label, e.g. `clean` or `3 bridges`.
    pub name: String,
    /// Defective / overridden cells.
    pub active: Vec<ActiveCell>,
}

impl ArrayScenario {
    /// A defect-free array.
    pub fn clean() -> Self {
        ArrayScenario {
            name: "clean".to_string(),
            active: Vec::new(),
        }
    }

    /// `count` bridged cells (1 kΩ S–SB shorts) at fixed distinct
    /// sites — hard defects that collapse the cell at low supply.
    pub fn bridges(count: usize) -> Self {
        const SITES: [(usize, usize); 3] = [(1, 2), (7, 5), (12, 0)];
        ArrayScenario {
            name: format!("{count} bridge{}", if count == 1 { "" } else { "s" }),
            active: SITES[..count]
                .iter()
                .map(|&(r, c)| ActiveCell::bridged(r, c, StoredBit::One, 1.0e3))
                .collect(),
        }
    }
}

/// Options for the full-array retention experiment.
#[derive(Debug, Clone)]
pub struct ArrayRetentionOptions {
    /// Word lines.
    pub rows: usize,
    /// Bit-line pairs.
    pub cols: usize,
    /// Supplies to solve at, volts.
    pub supplies: Vec<f64>,
    /// Defect scenarios; the grid is scenarios × supplies.
    pub scenarios: Vec<ArrayScenario>,
    /// Solver path selection (Schur reduction on by default).
    pub solve: ArraySolveOptions,
    /// Worker threads (`0` = available parallelism, `1` = sequential);
    /// the report is byte-identical for every value.
    pub jobs: usize,
}

impl ArrayRetentionOptions {
    /// The paper's 4096×64 array (4K words of 64 bits).
    pub fn paper() -> Self {
        ArrayRetentionOptions {
            rows: 4096,
            cols: 64,
            supplies: vec![1.1, 0.5],
            scenarios: vec![
                ArrayScenario::clean(),
                ArrayScenario::bridges(1),
                ArrayScenario::bridges(3),
            ],
            solve: ArraySolveOptions::default(),
            jobs: 0,
        }
    }

    /// Fast 64×8 configuration for smokes and CI.
    pub fn quick() -> Self {
        ArrayRetentionOptions {
            rows: 64,
            cols: 8,
            ..Self::paper()
        }
    }
}

/// One solved grid point.
#[derive(Debug, Clone)]
pub struct ArrayRetentionRow {
    /// Scenario label.
    pub scenario: String,
    /// Supply, volts.
    pub supply: f64,
    /// Total MNA unknowns of the array system.
    pub unknowns: usize,
    /// Unknowns in the reduced interface system (equals `unknowns`
    /// when the monolithic fallback ran).
    pub interface_unknowns: usize,
    /// Cells still holding their bit.
    pub retained: usize,
    /// Cells in the array.
    pub cells: usize,
    /// Row-major positions of the cells that lost their data.
    pub flipped: Vec<(usize, usize)>,
    /// Lumped-rail droop below the supply, volts.
    pub rail_droop: f64,
    /// Schur block lookups served from the macromodel cache.
    pub blocks_shared: u64,
    /// Schur macromodels factored fresh.
    pub blocks_rebuilt: u64,
}

/// The full retention map.
#[derive(Debug, Clone)]
pub struct ArrayRetentionReport {
    /// Geometry echo.
    pub rows: usize,
    /// Geometry echo.
    pub cols: usize,
    /// One row per (scenario, supply) grid point, in grid order.
    pub points: Vec<ArrayRetentionRow>,
}

impl fmt::Display for ArrayRetentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}x{} array retention map ({} cells per solve)",
            self.rows,
            self.cols,
            self.rows * self.cols
        )?;
        let mut t = TextTable::new([
            "scenario",
            "supply (V)",
            "unknowns",
            "interface",
            "retained",
            "flipped cells",
            "rail droop (V)",
            "macromodels hit/built",
        ]);
        for p in &self.points {
            let flipped = if p.flipped.is_empty() {
                "-".to_string()
            } else {
                p.flipped
                    .iter()
                    .map(|(r, c)| format!("({r},{c})"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            t.push_row([
                p.scenario.clone(),
                format!("{:.3}", p.supply),
                p.unknowns.to_string(),
                p.interface_unknowns.to_string(),
                format!("{}/{}", p.retained, p.cells),
                flipped,
                format!("{:.3e}", p.rail_droop),
                format!("{}/{}", p.blocks_shared, p.blocks_rebuilt),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the full-array retention experiment.
///
/// # Errors
///
/// Propagates netlist-construction and solver failures, and a panic
/// as [`anasim::Error::Panicked`]. Every point runs first; then the
/// lowest-index fatal error, or else the first failed point's error,
/// aborts the run.
pub fn run(options: &ArrayRetentionOptions) -> Result<ArrayRetentionReport, anasim::Error> {
    let _span = obs::span("array");
    let run_start = std::time::Instant::now();
    let base = CellInstance::symmetric(PvtCondition::nominal());
    let mut points = Vec::new();
    for scenario in &options.scenarios {
        for &supply in &options.supplies {
            points.push((scenario.clone(), supply));
        }
    }
    let settled = run_grid(
        options.jobs,
        &points,
        |_, (scenario, supply)| {
            GridPoint::new(
                format!("{} @ {supply:.3} V", scenario.name),
                None,
                None,
                None,
            )
        },
        |(scenario, supply)| {
            let mut spec = ArraySpec::retention(options.rows, options.cols, *supply, base);
            spec.active = scenario.active.clone();
            let built = {
                let _span = obs::span("array_build");
                spec.build()?
            };
            // A fresh scratch per point: the counters below are this
            // solve's alone, and workers share no mutable state.
            let mut scratch = SolveScratch::new();
            let sol = {
                let _span = obs::span("array_solve");
                solve_array(
                    &built.netlist,
                    &built.partition,
                    &options.solve,
                    Some(&built.guess()),
                    &mut scratch,
                )?
            };
            let grid = built.retained(&sol);
            let flipped: Vec<(usize, usize)> = grid
                .iter()
                .enumerate()
                .filter(|(_, &ok)| !ok)
                .map(|(i, _)| (i / options.cols, i % options.cols))
                .collect();
            let counters = scratch.counters();
            let row = ArrayRetentionRow {
                scenario: scenario.name.clone(),
                supply: *supply,
                unknowns: built.netlist.num_unknowns(),
                interface_unknowns: scratch
                    .schur_interface_unknowns()
                    .unwrap_or_else(|| built.netlist.num_unknowns()),
                retained: grid.iter().filter(|&&ok| ok).count(),
                cells: grid.len(),
                flipped,
                rail_droop: *supply - sol.voltage(built.vdd_rail),
                blocks_shared: counters.schur_blocks_shared,
                blocks_rebuilt: counters.schur_blocks_rebuilt,
            };
            scratch.flush_obs_counters();
            Ok(row)
        },
        |_, _| {},
    )?;
    let mut coverage = settled.coverage;
    coverage.elapsed_s = run_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    if let Some(failure) = settled.failures.into_iter().next() {
        return Err(failure.error);
    }
    Ok(ArrayRetentionReport {
        rows: options.rows,
        cols: options.cols,
        points: settled.results.into_iter().flatten().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ArrayRetentionOptions {
        ArrayRetentionOptions {
            rows: 16,
            cols: 8,
            supplies: vec![0.5],
            scenarios: vec![
                ArrayScenario::clean(),
                ArrayScenario::bridges(1),
                ArrayScenario::bridges(3),
            ],
            solve: ArraySolveOptions::default(),
            jobs: 1,
        }
    }

    #[test]
    fn each_point_records_its_build_and_solve() {
        // One `array_build` and one `array_solve` span per point, on
        // whichever thread ran it, and one interface-size sample per
        // partitioned solve: the size is not summed over the points.
        let _obs = crate::campaign::tests::obs_lock();
        let span_count = |snapshot: &obs::Snapshot, leaf: &str| -> u64 {
            snapshot
                .spans
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .map(|(_, stat)| stat.count)
                .sum()
        };
        const SIZES: &str = "schur.interface_unknowns";
        let samples =
            |snapshot: &obs::Snapshot| snapshot.histograms.get(SIZES).map_or(0, |h| h.count());
        for jobs in [1, 2] {
            let before = obs::snapshot();
            let report = run(&ArrayRetentionOptions { jobs, ..tiny() }).expect("tiny map solves");
            let after = obs::snapshot();
            let points = report.points.len() as u64;
            for leaf in ["array_build", "array_solve"] {
                assert_eq!(
                    span_count(&after, leaf) - span_count(&before, leaf),
                    points,
                    "{leaf} at --jobs {jobs}"
                );
            }
            assert_eq!(samples(&after) - samples(&before), points);
            let largest = report.points.iter().map(|p| p.interface_unknowns).max();
            assert_eq!(
                after.histograms[SIZES].max(),
                largest.expect("points") as f64
            );
            assert!(!after.counters.contains_key(SIZES), "sizes are not counted");
        }
    }

    #[test]
    fn retention_map_counts_exactly_the_injected_defects() {
        // Every test running a map holds the lock, for
        // `each_point_records_its_build_and_solve`, which counts what
        // array runs publish.
        let _obs = crate::campaign::tests::obs_lock();
        let report = run(&tiny()).expect("tiny map solves");
        assert_eq!(report.points.len(), 3);
        for (point, expected) in report.points.iter().zip([0usize, 1, 3]) {
            assert_eq!(point.cells - point.retained, expected, "{}", point.scenario);
            assert_eq!(point.flipped.len(), expected);
            // The reduced path ran: the interface is far smaller than
            // the system, and macromodels were shared across blocks.
            assert!(point.interface_unknowns * 5 < point.unknowns);
            assert!(point.blocks_shared > point.blocks_rebuilt);
        }
        let text = report.to_string();
        assert!(text.contains("16x8 array retention map"));
        assert!(text.contains("(1,2)"), "flipped cells listed:\n{text}");
    }

    #[test]
    fn presets_pin_the_paper_and_smoke_geometries() {
        let paper = ArrayRetentionOptions::paper();
        assert_eq!((paper.rows, paper.cols), (4096, 64));
        let quick = ArrayRetentionOptions::quick();
        assert_eq!((quick.rows, quick.cols), (64, 8));
        // Every preset's bridge sites lie inside its array.
        for opts in [&paper, &quick] {
            for cell in opts.scenarios.iter().flat_map(|s| &s.active) {
                assert!(cell.row < opts.rows && cell.col < opts.cols);
            }
        }
    }

    #[test]
    fn report_is_byte_identical_across_job_counts() {
        let _obs = crate::campaign::tests::obs_lock();
        let sequential = run(&tiny()).expect("jobs=1 solves");
        let parallel = run(&ArrayRetentionOptions { jobs: 2, ..tiny() }).expect("jobs=2 solves");
        assert_eq!(
            sequential.to_string(),
            parallel.to_string(),
            "the retention map must not depend on --jobs"
        );
    }
}
