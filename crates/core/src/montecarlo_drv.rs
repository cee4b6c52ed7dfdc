//! Monte Carlo retention-voltage statistics.
//!
//! The paper notes that its worst-case pattern "has a low probability
//! of occurrence" and is "a theoretical case study". This module
//! quantifies that: it samples arrays of Gaussian-mismatch cells,
//! estimates the DRV distribution, and reports where the Table I case
//! studies sit relative to it.

use process::{MonteCarlo, PvtCondition, Sigma};
use sram::cell::build_retention_netlist;
use sram::drv::{drv_ds_worst, DrvOptions};
use sram::{CellInstance, CellTransistor, MismatchPattern};

use crate::campaign::{
    completeness_footer, preflight_netlist, publish_coverage, run_grid, Coverage, GridPoint,
    PointFailure,
};

/// RNG seed, so runs are reproducible: the paper's DATE 2013 session
/// date.
const SEED: u64 = 20130318;

/// Options for the Monte Carlo study. Only the mismatch is sampled, so
/// the die stays at the nominal condition (typical corner, 1.1 V,
/// 25 °C); each DRV search is coarse (≈4 mV), fine against a
/// distribution whose reported quantiles lie 50 mV or more apart.
#[derive(Debug, Clone)]
pub struct MonteCarloOptions {
    /// Number of sampled cells.
    pub samples: usize,
    /// Worker threads the samples fan across (`0` = available
    /// parallelism, `1` = sequential). Patterns are drawn from the
    /// seeded RNG *before* the fan-out, in sample order, so the drawn
    /// set — and hence the report — is identical for every value.
    pub jobs: usize,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            samples: 200,
            jobs: 0,
        }
    }
}

/// The sampled distribution, possibly partial: samples the rescue
/// ladder could not solve are dropped from the statistics and listed in
/// `failures` (quantiles over a partial sample set are slightly
/// optimistic, which `coverage` quantifies).
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Worst-of-both-values DRV per sampled cell, volts, ascending.
    pub drvs: Vec<f64>,
    /// The symmetric-cell DRV at the same condition, volts.
    pub symmetric_drv: f64,
    /// Samples left unsolved this run.
    pub failures: Vec<PointFailure>,
    /// Attempted/completed accounting over the sample set.
    pub coverage: Coverage,
}

impl MonteCarloReport {
    /// Distribution quantile (`q` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or the sample set is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        assert!(!self.drvs.is_empty(), "no samples");
        let idx = ((self.drvs.len() - 1) as f64 * q).round() as usize;
        self.drvs[idx]
    }

    /// Fraction of sampled cells whose DRV exceeds `level` volts.
    pub fn exceedance(&self, level: f64) -> f64 {
        let n = self.drvs.iter().filter(|&&d| d > level).count();
        n as f64 / self.drvs.len() as f64
    }

    /// Sample maximum.
    pub fn max(&self) -> f64 {
        *self.drvs.last().expect("non-empty")
    }
}

impl std::fmt::Display for MonteCarloReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} sampled cells; symmetric DRV = {:.0} mV",
            self.drvs.len(),
            self.symmetric_drv * 1e3
        )?;
        for q in [0.5, 0.9, 0.99, 1.0] {
            writeln!(
                f,
                "  q{:<4}: {:>5.0} mV",
                (q * 100.0) as u32,
                self.quantile(q) * 1e3
            )?;
        }
        writeln!(
            f,
            "  cells above the worst-case design point (730 mV): {:.1}%",
            self.exceedance(0.730) * 100.0
        )?;
        if !self.coverage.is_complete() {
            writeln!(f, "{}", completeness_footer(&self.coverage, &self.failures))?;
        }
        Ok(())
    }
}

/// Samples `options.samples` random cells (each transistor's ΔVth drawn
/// from the standard normal, in σ units) and measures each cell's
/// worst-of-both-values retention voltage.
///
/// Samples run in isolation: one the rescue ladder cannot solve is
/// dropped (recorded in the report's `failures`/`coverage`) and the
/// run continues.
///
/// # Errors
///
/// Propagates non-retryable failures, and any failure on the symmetric
/// baseline — without it the report has no reference point.
pub fn monte_carlo_drv(options: &MonteCarloOptions) -> Result<MonteCarloReport, anasim::Error> {
    let _span = obs::span("monte_carlo_drv");
    let run_start = std::time::Instant::now();
    let pvt = PvtCondition::nominal();
    let drv = DrvOptions::coarse();
    // The RNG is a sequential stream: draw every sample's pattern up
    // front, in sample order, so the drawn set does not depend on how
    // the solves are scheduled across workers.
    let mut mc = MonteCarlo::seeded(SEED);
    let patterns: Vec<MismatchPattern> = (0..options.samples)
        .map(|_| {
            let mut pattern = MismatchPattern::symmetric();
            for t in CellTransistor::ALL {
                pattern = pattern.with(t, mc.sample_sigma());
            }
            pattern
        })
        .collect();
    let settled = run_grid(
        options.jobs,
        &patterns,
        |sample, _| GridPoint::new(format!("mc{sample} @ {pvt}"), None, None, Some(pvt)),
        |&pattern| {
            let inst = CellInstance::with_pattern(pattern, pvt);
            preflight_netlist(&build_retention_netlist(&inst, pvt.vdd)?.0)?;
            drv_ds_worst(&inst, &drv)
        },
        |_, _| {},
    )?;
    let mut drvs: Vec<f64> = settled.results.into_iter().flatten().collect();
    drvs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let symmetric_drv = drv_ds_worst(
        &CellInstance::with_pattern(MismatchPattern::symmetric(), pvt).clone(),
        &drv,
    )?;
    let mut coverage = settled.coverage;
    coverage.elapsed_s = run_start.elapsed().as_secs_f64();
    publish_coverage(&coverage);
    obs::progress(&format!("monte-carlo done ({coverage})"));
    Ok(MonteCarloReport {
        drvs,
        symmetric_drv,
        failures: settled.failures,
        coverage,
    })
}

/// σ-units "distance" of a pattern from symmetric (root sum of
/// squares) — used to report how improbable a case study is.
pub fn pattern_norm_sigma(pattern: &MismatchPattern) -> f64 {
    CellTransistor::ALL
        .iter()
        .map(|&t| {
            let s: Sigma = pattern.sigma(t);
            s.value() * s.value()
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::CaseStudy;
    use sram::StoredBit;

    fn small_run() -> MonteCarloReport {
        monte_carlo_drv(&MonteCarloOptions {
            samples: 40,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn distribution_is_sane() {
        let report = small_run();
        assert_eq!(report.drvs.len(), 40);
        assert!(
            report.coverage.is_complete() && report.failures.is_empty(),
            "healthy run must be complete: {}",
            report.coverage
        );
        // Quantiles are monotone.
        assert!(report.quantile(0.5) <= report.quantile(0.9));
        assert!(report.quantile(0.9) <= report.quantile(1.0));
        // Random cells are worse than the symmetric cell on median.
        assert!(report.quantile(0.5) >= report.symmetric_drv * 0.8);
    }

    #[test]
    fn worst_case_design_point_is_a_tail_event() {
        // No 40-sample run should contain a 730 mV cell: the paper's
        // CS1 is "a theoretical case study".
        let report = small_run();
        assert_eq!(report.exceedance(0.730), 0.0, "max {}", report.max());
        // Yet ordinary sampled cells commonly exceed the symmetric
        // floor considerably.
        assert!(report.max() > report.symmetric_drv);
    }

    #[test]
    fn cs1_is_far_out_in_sigma_norm() {
        let cs1 = CaseStudy::new(1, StoredBit::One);
        let norm = pattern_norm_sigma(&cs1.pattern());
        // Six transistors at 6σ each: ||·|| = 6·sqrt(6) ≈ 14.7σ.
        assert!((norm - 14.7).abs() < 0.1, "norm {norm}");
        let cs4 = CaseStudy::new(4, StoredBit::One);
        assert!(pattern_norm_sigma(&cs4.pattern()) < 0.2);
    }

    #[test]
    fn report_renders() {
        let text = small_run().to_string();
        assert!(text.contains("q50"));
        assert!(text.contains("730 mV"));
    }
}
