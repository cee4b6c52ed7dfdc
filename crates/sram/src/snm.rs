//! Static-noise-margin extraction from the butterfly plot
//! (Seevinck's maximal-square method).
//!
//! Axes convention: `x = V(S)`, `y = V(SB)`. Curve A is the inverter
//! driving SB (`y = VTC_sb(x)`); curve B is the inverter driving S
//! plotted transposed (`x = VTC_s(y)`). The two stable states are the
//! lobes near `(high, low)` — state `S = 1` — and `(low, high)` —
//! state `S = 0`.
//!
//! The side of the largest square inscribed in a lobe equals the
//! largest separation `|Δx|` between the curves measured along 45°
//! lines `y = x + c`: lines with `c < 0` cut the `S = 1` lobe, lines
//! with `c > 0` the `S = 0` lobe.

use crate::cell::CellInstance;
use crate::vtc::{CellInverter, InverterCircuit, Vtc};

/// Both lobes of the butterfly, in volts. A collapsed lobe reports 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ButterflySnm {
    /// Noise margin of the state storing logic '1' (the paper's
    /// SNM_DS1 when measured in deep-sleep configuration).
    pub snm1: f64,
    /// Noise margin of the state storing logic '0' (SNM_DS0).
    pub snm0: f64,
}

impl ButterflySnm {
    /// The cell-level SNM: the weaker of the two lobes.
    pub fn min(&self) -> f64 {
        self.snm1.min(self.snm0)
    }

    /// Whether both states are stable.
    pub fn is_bistable(&self) -> bool {
        self.snm1 > 0.0 && self.snm0 > 0.0
    }
}

/// Number of 45°-line offsets scanned per lobe.
const OFFSET_STEPS: usize = 96;

/// Root of a strictly-decreasing sampled function `f(grid[i]) = fs[i]`,
/// by scanning for the sign change and interpolating linearly.
fn falling_root(grid: &[f64], fs: &[f64]) -> Option<f64> {
    for i in 1..grid.len() {
        if fs[i - 1] >= 0.0 && fs[i] < 0.0 {
            let t = fs[i - 1] / (fs[i - 1] - fs[i]);
            return Some(grid[i - 1] + t * (grid[i] - grid[i - 1]));
        }
    }
    None
}

/// Computes both lobes from the two transfer curves.
///
/// `vtc_sb` is the curve of the inverter driving SB (input S); `vtc_s`
/// of the inverter driving S (input SB). Both must be sampled over the
/// same `[0, supply]` range.
pub fn snm_from_vtcs(vtc_s: &Vtc, vtc_sb: &Vtc) -> ButterflySnm {
    let supply = *vtc_sb.inputs().last().expect("vtc is never empty");
    let grid = vtc_sb.inputs();

    // Pre-sample curve B's defining function over the same grid.
    let eval_a = |x: f64| vtc_sb.eval(x);
    let eval_b = |y: f64| vtc_s.eval(y);

    let mut best1 = 0.0f64;
    let mut best0 = 0.0f64;
    for k in 1..OFFSET_STEPS {
        let c = -supply + 2.0 * supply * k as f64 / OFFSET_STEPS as f64;
        if c == 0.0 {
            continue;
        }
        // Intersection with curve A: f(x) = VTC_sb(x) − x − c.
        let fa: Vec<f64> = grid.iter().map(|&x| eval_a(x) - x - c).collect();
        let Some(x1) = falling_root(grid, &fa) else {
            continue;
        };
        // Intersection with curve B: g(y) = VTC_s(y) − y + c, then
        // x2 = y2 − c.
        let gb: Vec<f64> = grid.iter().map(|&y| eval_b(y) - y + c).collect();
        let Some(y2) = falling_root(grid, &gb) else {
            continue;
        };
        let x2 = y2 - c;
        if c < 0.0 {
            best1 = best1.max(x2 - x1);
        } else {
            best0 = best0.max(x1 - x2);
        }
    }
    ButterflySnm {
        snm1: best1.max(0.0),
        snm0: best0.max(0.0),
    }
}

/// Measures the deep-sleep SNM of a cell at the given core supply by
/// extracting both inverter VTCs (each with `points` samples) and
/// running the maximal-square analysis.
///
/// # Errors
///
/// Propagates netlist or solver failures.
pub fn snm_ds(
    instance: &CellInstance,
    supply: f64,
    points: usize,
) -> Result<ButterflySnm, anasim::Error> {
    let _span = obs::span("snm_ds");
    let mut inv_s = InverterCircuit::new(instance, CellInverter::DrivesS)?;
    let mut inv_sb = InverterCircuit::new(instance, CellInverter::DrivesSb)?;
    let vtc_s = inv_s.vtc(supply, points)?;
    let vtc_sb = inv_sb.vtc(supply, points)?;
    Ok(snm_from_vtcs(&vtc_s, &vtc_sb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellTransistor, MismatchPattern};
    use crate::vtc::Vtc;
    use process::{PvtCondition, Sigma};

    /// Ideal step inverter: output = vdd for vin < vdd/2, else 0.
    fn ideal_vtc(vdd: f64, n: usize) -> Vtc {
        let grid: Vec<f64> = (0..n).map(|i| vdd * i as f64 / (n - 1) as f64).collect();
        let out = grid
            .iter()
            .map(|&v| if v < vdd / 2.0 { vdd } else { 0.0 })
            .collect();
        Vtc::new(grid, out)
    }

    #[test]
    fn ideal_inverters_give_half_vdd_snm() {
        let vdd = 1.0;
        let vtc = ideal_vtc(vdd, 401);
        let snm = snm_from_vtcs(&vtc, &vtc);
        assert!(
            (snm.snm1 - vdd / 2.0).abs() < 0.02,
            "snm1 = {} expected ~0.5",
            snm.snm1
        );
        assert!((snm.snm0 - vdd / 2.0).abs() < 0.02, "snm0 = {}", snm.snm0);
    }

    #[test]
    fn unity_gain_curve_has_zero_snm() {
        // VTC = vdd − vin: the butterfly degenerates to a line.
        let vdd = 1.0;
        let grid: Vec<f64> = (0..101).map(|i| vdd * i as f64 / 100.0).collect();
        let out: Vec<f64> = grid.iter().map(|&v| vdd - v).collect();
        let vtc = Vtc::new(grid, out);
        let snm = snm_from_vtcs(&vtc, &vtc);
        assert!(snm.snm1 < 0.01, "snm1 = {}", snm.snm1);
        assert!(snm.snm0 < 0.01, "snm0 = {}", snm.snm0);
        assert!(!snm.is_bistable() || snm.min() < 0.01);
    }

    #[test]
    fn symmetric_cell_lobes_are_equal() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let snm = snm_ds(&inst, 1.1, 61).unwrap();
        assert!(snm.is_bistable());
        assert!(
            (snm.snm1 - snm.snm0).abs() < 0.01,
            "asymmetric lobes for symmetric cell: {snm:?}"
        );
        // A healthy 6T cell at nominal supply holds 150–450 mV of SNM.
        assert!(
            (0.15..0.52).contains(&snm.snm1),
            "snm1 = {} out of plausible range (0.15-0.52)",
            snm.snm1
        );
    }

    #[test]
    fn snm_shrinks_with_supply() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let hi = snm_ds(&inst, 1.1, 61).unwrap();
        let mid = snm_ds(&inst, 0.6, 61).unwrap();
        let lo = snm_ds(&inst, 0.25, 61).unwrap();
        assert!(hi.min() > mid.min());
        assert!(mid.min() > lo.min());
        assert!(lo.min() > 0.0, "still bistable at 250 mV: {lo:?}");
    }

    #[test]
    fn mismatch_degrades_one_lobe() {
        // Weakening the inverter that drives '1' (negative sigma on
        // MPcc1/MNcc1, positive on the opposite inverter) hurts SNM1
        // far more than SNM0 — the paper's observation 1.
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc1, Sigma(-3.0))
            .with(CellTransistor::MNcc1, Sigma(-3.0));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let snm = snm_ds(&inst, 0.5, 61).unwrap();
        let sym = snm_ds(&CellInstance::symmetric(PvtCondition::nominal()), 0.5, 61).unwrap();
        assert!(snm.snm1 < sym.snm1, "snm1 {} !< {}", snm.snm1, sym.snm1);
        assert!(
            snm.snm1 < snm.snm0,
            "stressed lobe should be the weak one: {snm:?}"
        );
    }

    #[test]
    fn mirrored_pattern_swaps_lobes() {
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc2, Sigma(3.0))
            .with(CellTransistor::MNcc2, Sigma(3.0));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let mirrored = CellInstance::with_pattern(pattern.mirrored(), PvtCondition::nominal());
        let a = snm_ds(&inst, 0.5, 61).unwrap();
        let b = snm_ds(&mirrored, 0.5, 61).unwrap();
        assert!((a.snm1 - b.snm0).abs() < 0.01, "{a:?} vs {b:?}");
        assert!((a.snm0 - b.snm1).abs() < 0.01);
    }

    #[test]
    fn butterfly_accessors() {
        let s = ButterflySnm {
            snm1: 0.2,
            snm0: 0.1,
        };
        assert_eq!(s.min(), 0.1);
        assert!(s.is_bistable());
        let dead = ButterflySnm {
            snm1: 0.0,
            snm0: 0.3,
        };
        assert!(!dead.is_bistable());
    }
}
