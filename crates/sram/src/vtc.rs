//! Voltage-transfer-curve extraction for the cell's cross-coupled
//! inverters.
//!
//! SNM analysis needs the loop broken: each inverter is placed in its
//! own netlist with its input driven by an ideal source and its output
//! loaded by the corresponding pass transistor (word line and bit lines
//! grounded, as in deep-sleep mode). The two curves are then combined by
//! [`crate::snm`] into the butterfly plot.

use anasim::dc::DcAnalysis;
use anasim::{Netlist, NodeId, SourceId};

use crate::cell::{CellInstance, CellTransistor};

/// Which half of the cell a broken-loop netlist represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellInverter {
    /// `MPcc1`/`MNcc1` driving node S, loaded by pass `MNcc3`; input is
    /// node SB.
    DrivesS,
    /// `MPcc2`/`MNcc2` driving node SB, loaded by pass `MNcc4`; input is
    /// node S.
    DrivesSb,
}

/// A sampled, monotone voltage transfer curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Vtc {
    vin: Vec<f64>,
    vout: Vec<f64>,
}

impl Vtc {
    /// Builds a curve from parallel input/output samples.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or `vin` is not
    /// strictly increasing.
    pub fn new(vin: Vec<f64>, vout: Vec<f64>) -> Self {
        assert_eq!(vin.len(), vout.len(), "sample arrays must be parallel");
        assert!(!vin.is_empty(), "a VTC needs at least one sample");
        assert!(
            vin.windows(2).all(|w| w[1] > w[0]),
            "vin grid must be strictly increasing"
        );
        Vtc { vin, vout }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.vin.len()
    }

    /// Whether the curve has no samples (never true for a constructed
    /// curve).
    pub fn is_empty(&self) -> bool {
        self.vin.is_empty()
    }

    /// Input grid.
    pub fn inputs(&self) -> &[f64] {
        &self.vin
    }

    /// Output samples.
    pub fn outputs(&self) -> &[f64] {
        &self.vout
    }

    /// Linear interpolation of the output at `vin`, clamped to the
    /// sampled range.
    pub fn eval(&self, vin: f64) -> f64 {
        let n = self.vin.len();
        if vin <= self.vin[0] {
            return self.vout[0];
        }
        if vin >= self.vin[n - 1] {
            return self.vout[n - 1];
        }
        // Binary search for the bracketing segment.
        let mut lo = 0;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.vin[mid] <= vin {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = (vin - self.vin[lo]) / (self.vin[hi] - self.vin[lo]);
        self.vout[lo] + t * (self.vout[hi] - self.vout[lo])
    }

    /// Maximum absolute small-signal gain |dVout/dVin| over the curve.
    pub fn max_gain(&self) -> f64 {
        self.vin
            .windows(2)
            .zip(self.vout.windows(2))
            .map(|(vi, vo)| ((vo[1] - vo[0]) / (vi[1] - vi[0])).abs())
            .fold(0.0, f64::max)
    }
}

/// A reusable broken-loop inverter circuit. The supply and input are
/// table-backed sources, so the same netlist serves every point of a
/// DRV bisection.
#[derive(Debug)]
pub struct InverterCircuit {
    netlist: Netlist,
    vin: SourceId,
    supply: SourceId,
    out: NodeId,
}

impl InverterCircuit {
    /// Builds the broken-loop netlist for one inverter of `instance` in
    /// deep-sleep (retention) configuration.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures (invalid model cards).
    pub fn new(instance: &CellInstance, inverter: CellInverter) -> Result<Self, anasim::Error> {
        let mut nl = Netlist::new();
        let vddc = nl.node("vddc");
        let input = nl.node("in");
        let out = nl.node("out");
        let wl = nl.node("wl");
        let bl = nl.node("bl");
        let supply = nl.vsource("VDDC", vddc, Netlist::GND, 0.0);
        let vin = nl.vsource("VIN", input, Netlist::GND, 0.0);
        nl.vsource("VWL", wl, Netlist::GND, 0.0);
        nl.vsource("VBL", bl, Netlist::GND, 0.0);
        let (pu, pd, pass) = match inverter {
            CellInverter::DrivesS => (
                instance.card(CellTransistor::MPcc1),
                instance.card(CellTransistor::MNcc1),
                instance.card(CellTransistor::MNcc3),
            ),
            CellInverter::DrivesSb => (
                instance.card(CellTransistor::MPcc2),
                instance.card(CellTransistor::MNcc2),
                instance.card(CellTransistor::MNcc4),
            ),
        };
        nl.mosfet("MPU", out, input, vddc, pu)?;
        nl.mosfet("MPD", out, input, Netlist::GND, pd)?;
        nl.mosfet("MPASS", bl, wl, out, pass)?;
        Ok(InverterCircuit {
            netlist: nl,
            vin,
            supply,
            out,
        })
    }

    /// Extracts the VTC at the given supply with `points` samples over
    /// `[0, supply]`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or `supply` is not positive.
    pub fn vtc(&mut self, supply: f64, points: usize) -> Result<Vtc, anasim::Error> {
        assert!(points >= 2, "a sweep needs at least two points");
        assert!(
            supply.is_finite() && supply > 0.0,
            "supply must be positive, got {supply}"
        );
        self.netlist.set_source(self.supply, supply);
        let grid: Vec<f64> = (0..points)
            .map(|i| supply * i as f64 / (points - 1) as f64)
            .collect();
        let sols = DcAnalysis::new().sweep_source(&mut self.netlist, self.vin, &grid)?;
        let vout = sols.iter().map(|s| s.voltage(self.out)).collect();
        Ok(Vtc::new(grid, vout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use process::PvtCondition;

    fn symmetric_instance() -> CellInstance {
        CellInstance::symmetric(PvtCondition::nominal())
    }

    #[test]
    fn vtc_swings_rail_to_rail_at_nominal() {
        let mut inv = InverterCircuit::new(&symmetric_instance(), CellInverter::DrivesS).unwrap();
        let vtc = inv.vtc(1.1, 41).unwrap();
        assert!(
            vtc.outputs()[0] > 1.0,
            "V(out) at vin=0: {}",
            vtc.outputs()[0]
        );
        assert!(
            *vtc.outputs().last().unwrap() < 0.1,
            "V(out) at vin=vdd: {}",
            vtc.outputs().last().unwrap()
        );
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let mut inv = InverterCircuit::new(&symmetric_instance(), CellInverter::DrivesSb).unwrap();
        let vtc = inv.vtc(1.1, 41).unwrap();
        for pair in vtc.outputs().windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
    }

    #[test]
    fn gain_exceeds_one_at_nominal_supply() {
        let mut inv = InverterCircuit::new(&symmetric_instance(), CellInverter::DrivesS).unwrap();
        let vtc = inv.vtc(1.1, 81).unwrap();
        assert!(vtc.max_gain() > 1.0, "max gain {}", vtc.max_gain());
    }

    #[test]
    fn gain_survives_deep_supply_scaling() {
        // Bistability in subthreshold: gain must still exceed 1 well
        // below Vth, which is what makes sub-100 mV retention possible.
        let mut inv = InverterCircuit::new(&symmetric_instance(), CellInverter::DrivesS).unwrap();
        let vtc = inv.vtc(0.15, 81).unwrap();
        assert!(
            vtc.max_gain() > 1.0,
            "max gain at 150 mV: {}",
            vtc.max_gain()
        );
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let v = Vtc::new(vec![0.0, 1.0, 2.0], vec![2.0, 1.0, 0.0]);
        assert_eq!(v.eval(-1.0), 2.0);
        assert_eq!(v.eval(0.5), 1.5);
        assert_eq!(v.eval(1.5), 0.5);
        assert_eq!(v.eval(3.0), 0.0);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn vtc_rejects_unsorted_grid() {
        let _ = Vtc::new(vec![0.0, 0.0, 1.0], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn reuse_across_supplies() {
        let mut inv = InverterCircuit::new(&symmetric_instance(), CellInverter::DrivesS).unwrap();
        let hi = inv.vtc(1.1, 21).unwrap();
        let lo = inv.vtc(0.4, 21).unwrap();
        assert!(hi.outputs()[0] > lo.outputs()[0]);
        assert!(
            lo.outputs()[0] > 0.35,
            "low-supply high output {}",
            lo.outputs()[0]
        );
    }
}
