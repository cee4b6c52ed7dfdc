//! Characterization of the *other* defect category — the paper's
//! stated future work.
//!
//! §IV.B closes with: *"Defects that cause increased static power
//! consumption in DS mode will be studied in detail in our next
//! work."* This module is that study for the reproduced design: for
//! every category-1 defect it finds the minimum resistance at which
//! deep-sleep static power exceeds a budget factor over the fault-free
//! value — the power-side analogue of Table II.

use process::{ProcessCorner, PvtCondition};
use regulator::characterize::SEARCH_MIN_OHMS;
use regulator::{Defect, FeedMode, RegulatorCircuit, RegulatorDesign, OPEN_THRESHOLD_OHMS};
use sram::{ArrayLoad, CellInstance, StaticPowerModel};

use crate::defect_analysis::tap_for_vdd;

/// The characterized die: typical corner at the nominal 1.1 V and
/// 125 °C. Power defects are characterized hot, where static power
/// matters.
const PVT: PvtCondition = PvtCondition::new(ProcessCorner::Typical, 1.1, 125.0);

/// A defect is power-faulty when DS static power exceeds the fault-free
/// value by this factor: halfway to the ≈2× a full open costs, where
/// `Vreg` regulates to about `VDD`.
const BUDGET_FACTOR: f64 = 1.5;

/// Bisection refinements of the minimum over-budget resistance.
const REFINE_ITERS: usize = 8;

/// One row of the power-defect table.
#[derive(Debug, Clone, Copy)]
pub struct PowerDefectRow {
    /// The characterized defect.
    pub defect: Defect,
    /// Minimum resistance at which DS power exceeds the budget, or
    /// `None` if even a full open stays within budget.
    pub min_ohms: Option<f64>,
    /// Rail voltage with a full open injected.
    pub vddcc_at_open: f64,
    /// DS power with a full open, watts.
    pub power_at_open: f64,
    /// Fault-free DS power, watts.
    pub healthy_power: f64,
}

/// The campaign result.
#[derive(Debug, Clone)]
pub struct PowerDefectReport {
    /// One row per characterized defect.
    pub rows: Vec<PowerDefectRow>,
    /// The condition used.
    pub pvt: PvtCondition,
    /// The budget factor used.
    pub budget_factor: f64,
}

impl std::fmt::Display for PowerDefectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "category-1 defects at {} (power budget: {:.2}x fault-free DS power)",
            self.pvt, self.budget_factor
        )?;
        let mut t = crate::report::TextTable::new([
            "Defect",
            "min res. for over-budget power",
            "Vddcc at open (V)",
            "DS power at open / healthy",
        ]);
        for row in &self.rows {
            t.push_row([
                row.defect.to_string(),
                crate::report::format_min_resistance(row.min_ohms),
                format!("{:.3}", row.vddcc_at_open),
                format!(
                    "{:.2} uW / {:.2} uW",
                    row.power_at_open * 1e6,
                    row.healthy_power * 1e6
                ),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the campaign over `defects` (the CLI passes the nine
/// category-1 sites): for each, the minimum resistance between
/// [`SEARCH_MIN_OHMS`] and [`OPEN_THRESHOLD_OHMS`] at which DS static
/// power exceeds the budget.
///
/// # Errors
///
/// Propagates solver failures.
pub fn power_defect_table(defects: &[Defect]) -> Result<PowerDefectReport, anasim::Error> {
    let pvt = PVT;
    let tap = tap_for_vdd(pvt.vdd);
    let base = CellInstance::symmetric(pvt);
    let power = StaticPowerModel::lp40nm();
    let load = ArrayLoad::build(&base, &[], power.total_cells, 1.3, 7)?;

    let mut circuit =
        RegulatorCircuit::new(&RegulatorDesign::lp40nm(), pvt, tap, FeedMode::Static)?;
    let healthy_vddcc = circuit.solve(&load)?.vddcc;
    let healthy_power = power.deep_sleep_power(&base, healthy_vddcc)?;
    let budget = healthy_power * BUDGET_FACTOR;

    let power_at = |circuit: &mut RegulatorCircuit,
                    defect: Defect,
                    ohms: f64|
     -> Result<(f64, f64), anasim::Error> {
        circuit.inject(defect, ohms);
        let vddcc = circuit.solve(&load)?.vddcc;
        Ok((power.deep_sleep_power(&base, vddcc)?, vddcc))
    };

    let mut rows = Vec::new();
    for &defect in defects {
        circuit.clear_defects();
        let (p_open, v_open) = power_at(&mut circuit, defect, OPEN_THRESHOLD_OHMS)?;
        let min_ohms = if p_open <= budget {
            None
        } else {
            // Log bisection between a healthy-ish resistance and a full open.
            let mut lo = SEARCH_MIN_OHMS;
            let mut hi = OPEN_THRESHOLD_OHMS;
            for _ in 0..REFINE_ITERS {
                let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp();
                circuit.clear_defects();
                let (p, _) = power_at(&mut circuit, defect, mid)?;
                if p > budget {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some(hi)
        };
        rows.push(PowerDefectRow {
            defect,
            min_ohms,
            vddcc_at_open: v_open,
            power_at_open: p_open,
            healthy_power,
        });
    }
    Ok(PowerDefectReport {
        rows,
        pvt,
        budget_factor: BUDGET_FACTOR,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category1_defects_raise_power_at_full_open() {
        let report =
            power_defect_table(&[Defect::new(13), Defect::new(20), Defect::new(6)]).unwrap();
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(
                row.power_at_open > row.healthy_power,
                "{}: open power {} <= healthy {}",
                row.defect,
                row.power_at_open,
                row.healthy_power
            );
            assert!(row.vddcc_at_open > 0.77, "{}", row.defect);
        }
        // The rendered report mentions the budget.
        let text = report.to_string();
        assert!(text.contains("budget"));
    }

    #[test]
    fn bisection_brackets_the_budget_crossing() {
        let report = power_defect_table(&[Defect::new(20)]).unwrap();
        let row = &report.rows[0];
        if let Some(r) = row.min_ohms {
            assert!(
                (SEARCH_MIN_OHMS..=OPEN_THRESHOLD_OHMS).contains(&r),
                "min resistance {r} out of bounds"
            );
        } else {
            // Acceptable only if even the full open stayed in budget.
            assert!(row.power_at_open <= row.healthy_power * BUDGET_FACTOR);
        }
    }
}
