//! Table I regeneration: worst-case deep-sleep retention voltages of
//! the five case studies.

use std::fmt;

use process::{ProcessCorner, PvtCondition};
use sram::drv::{drv_ds, DrvOptions};
use sram::{CellInstance, StoredBit};

use crate::campaign::{
    completeness_footer, publish_coverage, run_grid, Coverage, GridPoint, PointFailure,
};
use crate::case_study::CaseStudy;
use crate::drv_analysis::DRV_SEARCH_VDD;
use crate::report::{format_mv, TextTable};

/// Options for the Table I experiment.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// Corners in the max.
    pub corners: Vec<ProcessCorner>,
    /// Temperatures in the max, °C.
    pub temperatures: Vec<f64>,
    /// DRV search tuning.
    pub drv: DrvOptions,
    /// Worker threads the (case-study × corner × temp) grid fans
    /// across (`0` = available parallelism, `1` = sequential); the
    /// report is byte-identical for every value.
    pub jobs: usize,
}

impl Table1Options {
    /// The paper's grid.
    pub fn paper() -> Self {
        Table1Options {
            corners: ProcessCorner::ALL.to_vec(),
            temperatures: vec![-30.0, 25.0, 125.0],
            drv: DrvOptions::default(),
            jobs: 0,
        }
    }

    /// Fast configuration for tests: the dominant worst-case corners
    /// only.
    pub fn quick() -> Self {
        Table1Options {
            corners: vec![ProcessCorner::FastNSlowP, ProcessCorner::SlowNFastP],
            temperatures: vec![125.0],
            drv: DrvOptions::coarse(),
            ..Self::paper()
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The case study (a `-1` variant; `-0` rows are mirrors).
    pub case_study: CaseStudy,
    /// Measured worst-case `DRV_DS1`, volts.
    pub drv_ds1: f64,
    /// Measured worst-case `DRV_DS0`, volts.
    pub drv_ds0: f64,
    /// The grid point maximizing `DRV_DS1`.
    pub worst_pvt: PvtCondition,
    /// The paper's value for `DRV_DS`, volts.
    pub paper_drv: f64,
}

impl Table1Row {
    /// `DRV_DS = max(DRV_DS1, DRV_DS0)`.
    pub fn drv_ds(&self) -> f64 {
        self.drv_ds1.max(self.drv_ds0)
    }
}

/// The regenerated table, possibly partial: grid points unsolved after
/// the rescue ladder are listed in `failures` and excluded from the
/// per-row maxima.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// Rows for CS1…CS5 (`-1` variants).
    pub rows: Vec<Table1Row>,
    /// Grid points left unsolved this run.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting over the (CS × corner × temp)
    /// grid.
    pub coverage: Coverage,
}

impl Table1Report {
    /// Paper-shape checks: the DRV ordering CS1 > CS2 = CS5 > CS3 >
    /// CS4, and DRV set by the stressed lobe.
    pub fn ordering_holds(&self) -> bool {
        let by_number = |n: u8| {
            self.rows
                .iter()
                .find(|r| r.case_study.number == n)
                .map(|r| r.drv_ds())
        };
        match (by_number(1), by_number(2), by_number(3), by_number(4)) {
            (Some(c1), Some(c2), Some(c3), Some(c4)) => c1 > c2 && c2 > c3 && c3 > c4,
            _ => true, // partial runs can't check
        }
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new([
            "Case study",
            "#cells",
            "DRV_DS0 (mV)",
            "DRV_DS1 (mV)",
            "DRV_DS (mV)",
            "paper (mV)",
            "worst PVT",
        ]);
        for row in &self.rows {
            t.push_row([
                row.case_study.to_string(),
                row.case_study.cell_count().to_string(),
                format_mv(row.drv_ds0),
                format_mv(row.drv_ds1),
                format_mv(row.drv_ds()),
                format_mv(row.paper_drv),
                row.worst_pvt.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        if !self.coverage.is_complete() {
            write!(
                f,
                "\n{}",
                completeness_footer(&self.coverage, &self.failures)
            )?;
        }
        Ok(())
    }
}

/// Runs the Table I experiment over the five `-1` case studies.
///
/// Each grid point runs in isolation: points unsolved after the rescue
/// ladder are recorded in the report's `failures`/`coverage` and left
/// out of the maxima rather than aborting the run.
///
/// # Errors
///
/// Propagates non-retryable failures (invalid setups).
pub fn run(options: &Table1Options) -> Result<Table1Report, anasim::Error> {
    let _span = obs::span("table1");
    let run_start = std::time::Instant::now();
    // Flatten the (cs × corner × temp) grid so every point is one
    // independently stealable work item; the per-row maxima fold below
    // walks the results in grid order, so first-wins tie-breaking (and
    // hence `worst_pvt`) is identical for any job count.
    let cases = CaseStudy::ones();
    let mut points: Vec<(CaseStudy, PvtCondition)> = Vec::new();
    for &cs in &cases {
        for &corner in &options.corners {
            for &temp in &options.temperatures {
                points.push((cs, PvtCondition::new(corner, DRV_SEARCH_VDD, temp)));
            }
        }
    }
    let per_row = options.corners.len() * options.temperatures.len();
    let settled = run_grid(
        options.jobs,
        &points,
        |_, &(cs, pvt)| {
            GridPoint::new(
                format!("cs{} @ {pvt}", cs.number),
                None,
                Some(cs.number),
                Some(pvt),
            )
        },
        |&(cs, pvt)| {
            let inst = CellInstance::with_pattern(cs.pattern(), pvt);
            let d1 = drv_ds(&inst, StoredBit::One, &options.drv)?.drv;
            Ok((d1, drv_ds(&inst, StoredBit::Zero, &options.drv)?.drv))
        },
        |i, _| {
            if (i + 1).is_multiple_of(per_row) {
                obs::progress(&format!("table1 row CS{} done", cases[i / per_row].number));
            }
        },
    )?;

    let mut rows = Vec::new();
    let mut results = points.iter().zip(&settled.results);
    for &cs in &cases {
        let mut best1 = (0.0f64, PvtCondition::nominal());
        let mut best0 = 0.0f64;
        for (&(_, pvt), point) in results.by_ref().take(per_row) {
            if let Some((d1, d0)) = *point {
                if d1 > best1.0 {
                    best1 = (d1, pvt);
                }
                best0 = best0.max(d0);
            }
        }
        rows.push(Table1Row {
            case_study: cs,
            drv_ds1: best1.0,
            drv_ds0: best0,
            worst_pvt: best1.1,
            paper_drv: cs.paper_drv_mv() / 1.0e3,
        });
    }
    let mut coverage = settled.coverage;
    coverage.elapsed_s = run_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    Ok(Table1Report {
        rows,
        failures: settled.failures,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_reproduces_shape() {
        let report = run(&Table1Options::quick()).unwrap();
        assert_eq!(report.rows.len(), 5);
        assert!(report.ordering_holds(), "{report}");
        assert!(
            report.coverage.is_complete() && report.failures.is_empty(),
            "healthy quick run must be complete: {}",
            report.coverage
        );
        // 5 CS × 2 corners × 1 temp.
        assert_eq!(report.coverage.attempted, 10);
        // CSx-1 rows: the stressed lobe (DS1) sets the DRV; the other
        // lobe stays near the symmetric floor.
        for row in &report.rows {
            if row.case_study.number != 4 {
                assert!(
                    row.drv_ds1 > row.drv_ds0,
                    "{}: {} vs {}",
                    row.case_study,
                    row.drv_ds1,
                    row.drv_ds0
                );
            }
        }
        // CS1 lands near the paper's 730 mV (calibrated).
        let cs1 = &report.rows[0];
        assert!(
            (0.65..0.78).contains(&cs1.drv_ds()),
            "CS1 DRV {} V",
            cs1.drv_ds()
        );
        // Render.
        let text = report.to_string();
        assert!(text.contains("CS1-1"));
        assert!(text.contains("worst PVT"));
    }
}
