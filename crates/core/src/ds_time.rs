//! Deep-sleep dwell-time analysis (§V's closing discussion).
//!
//! Near the retention voltage a failing cell's internal node
//! "discharges slowly due to leakage": a DRF_DS is detectable only if
//! the SRAM stays in deep-sleep long enough for the flip to complete.
//! This module sweeps the dwell time and reports, for a marginal
//! defect, the shortest DS time at which March m-LZ catches it — the
//! quantitative basis for Table III's "DS time ≥ 1 ms" column.

use process::{ProcessCorner, PvtCondition};
use regulator::{Defect, FeedMode, RegulatorCircuit, RegulatorDesign};
use sram::drv::{drv_ds, DrvOptions};
use sram::retention::{flip_time, retention_outcome};
use sram::{ArrayLoad, CellInstance, CellPopulation, StoredBit};

use crate::case_study::CaseStudy;
use crate::defect_analysis::tap_for_vdd;

/// The swept die: typical corner, nominal 1.1 V, room temperature.
/// Cold is where the dwell binds: the slow leakage there makes the flip
/// take long enough for the DS time to gate detection, while at 125 °C
/// flips complete in nanoseconds.
const PVT: PvtCondition = PvtCondition::new(ProcessCorner::Typical, 1.1, 25.0);

/// The swept defect: Df16, the open in MPreg1's supply, the most
/// critical of Table II's amplifier defects (under 1 kΩ for CS1).
const DEFECT: u8 = 16;

/// Df16's resistance, ohms: 5 MΩ pulls the rail below the stressed
/// cell's retention voltage but leaves it far above ground, so the cell
/// flips in microseconds rather than at once.
const OHMS: f64 = 5.0e6;

/// Swept dwell times, seconds: one per decade from 1 µs to 100 ms,
/// bracketing Table III's 1 ms DS time.
const DWELLS: [f64; 6] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// One dwell-time point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsTimePoint {
    /// Dwell, seconds.
    pub dwell: f64,
    /// Whether the stressed cell flips within this dwell.
    pub detected: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct DsTimeReport {
    /// The rail the defective regulator delivers.
    pub vddcc: f64,
    /// The stressed cell's retention voltage.
    pub drv: f64,
    /// The cell's flip time at that rail, seconds (`None` when the rail
    /// is above DRV — no flip ever).
    pub flip_time: Option<f64>,
    /// Per-dwell outcomes.
    pub points: Vec<DsTimePoint>,
}

impl DsTimeReport {
    /// Shortest swept dwell that detects, if any.
    pub fn minimum_detecting_dwell(&self) -> Option<f64> {
        self.points.iter().find(|p| p.detected).map(|p| p.dwell)
    }
}

impl std::fmt::Display for DsTimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "rail = {:.3} V, stressed-cell DRV = {:.3} V, flip time = {}",
            self.vddcc,
            self.drv,
            match self.flip_time {
                Some(t) => format!("{:.2e} s", t),
                None => "never (rail above DRV)".to_string(),
            }
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  DS time {:>9.1e} s: {}",
                p.dwell,
                if p.detected { "DETECTED" } else { "escapes" }
            )?;
        }
        Ok(())
    }
}

/// Runs the dwell sweep for a marginal Df16 threatening the CS1-1
/// cell, the worst-case retention voltage of Table I: solves the
/// defective regulator once, then evaluates the retention outcome at
/// each dwell. The DRV search is coarse (≈4 mV): the verdict compares
/// the rail with the DRV, and the rail sits well clear of it.
///
/// # Errors
///
/// Propagates solver failures.
pub fn ds_time_sweep() -> Result<DsTimeReport, anasim::Error> {
    let pvt = PVT;
    let cs = CaseStudy::new(1, StoredBit::One);
    let stressed = CellInstance::with_pattern(cs.pattern(), pvt);
    let drv = drv_ds(&stressed, cs.weak_bit, &DrvOptions::coarse())?.drv;
    let base = CellInstance::symmetric(pvt);
    let load = ArrayLoad::build(
        &base,
        &[CellPopulation {
            pattern: cs.pattern(),
            count: cs.cell_count(),
            stored: cs.weak_bit,
        }],
        256 * 1024,
        1.3,
        7,
    )?;
    let mut circuit = RegulatorCircuit::new(
        &RegulatorDesign::lp40nm(),
        pvt,
        tap_for_vdd(pvt.vdd),
        FeedMode::Static,
    )?;
    circuit.inject(Defect::new(DEFECT), OHMS);
    let vddcc = circuit.solve(&load)?.vddcc;

    let t_flip = if vddcc < drv {
        Some(flip_time(&stressed, cs.weak_bit, vddcc, drv))
    } else {
        None
    };
    let points = DWELLS
        .iter()
        .map(|&dwell| DsTimePoint {
            dwell,
            detected: !retention_outcome(&stressed, cs.weak_bit, vddcc, drv, dwell).retained(),
        })
        .collect();
    Ok(DsTimeReport {
        vddcc,
        drv,
        flip_time: t_flip,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwell_gates_detection_for_a_marginal_defect() {
        let report = ds_time_sweep().unwrap();
        assert!(
            report.vddcc < report.drv,
            "defect must be marginal: {report}"
        );
        let flip = report.flip_time.expect("below DRV");
        // Detection is monotone in dwell.
        let mut was_detected = false;
        for p in &report.points {
            assert!(
                !was_detected || p.detected,
                "detection must be monotone in dwell"
            );
            was_detected = p.detected;
            assert_eq!(p.detected, p.dwell >= flip);
        }
        assert!(was_detected, "the longest dwell must detect");
        // The minimum detecting dwell brackets the flip time.
        let min = report.minimum_detecting_dwell().unwrap();
        assert!(min >= flip);
    }

    #[test]
    fn report_renders() {
        let report = ds_time_sweep().unwrap();
        let text = report.to_string();
        assert!(text.contains("flip time"));
        assert!(text.contains("DETECTED") || text.contains("escapes"));
    }
}
