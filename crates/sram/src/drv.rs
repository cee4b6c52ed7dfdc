//! Data-retention-voltage search.
//!
//! `DRV_DS1` (`DRV_DS0`) is the lowest deep-sleep core supply at which
//! the cell still retains a stored '1' ('0') — equivalently, the supply
//! at which `SNM_DS1` (`SNM_DS0`) reaches zero (paper §III). The search
//! is a bisection on the supply axis: SNM grows monotonically with
//! supply, so the zero crossing is unique.

use crate::cell::CellInstance;
use crate::snm::ButterflySnm;
use crate::vtc::{CellInverter, InverterCircuit};

/// Which logic value the cell is holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredBit {
    /// Node S high.
    One,
    /// Node S low.
    Zero,
}

impl StoredBit {
    /// Both values.
    pub const BOTH: [StoredBit; 2] = [StoredBit::One, StoredBit::Zero];

    fn lobe(self, snm: &ButterflySnm) -> f64 {
        match self {
            StoredBit::One => snm.snm1,
            StoredBit::Zero => snm.snm0,
        }
    }
}

/// The retention verdict's threshold, volts: a butterfly lobe at or
/// below 0.1 mV counts as collapsed. The small positive floor absorbs
/// interpolation noise of the sampled VTCs near the bifurcation.
pub const SNM_FLOOR: f64 = 1.0e-4;

/// Tuning of the DRV bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrvOptions {
    /// Bisection tolerance on the supply axis, volts.
    pub tolerance: f64,
    /// VTC samples per sweep.
    pub vtc_points: usize,
}

impl Default for DrvOptions {
    fn default() -> Self {
        DrvOptions {
            tolerance: 1.0e-3,
            vtc_points: 61,
        }
    }
}

impl DrvOptions {
    /// Coarse options for quick tests (≈4 mV resolution).
    pub fn coarse() -> Self {
        DrvOptions {
            tolerance: 4.0e-3,
            vtc_points: 41,
        }
    }
}

/// Result of a DRV search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrvResult {
    /// The retention voltage in volts.
    pub drv: f64,
    /// SNM measured at the upper search bound (diagnostic).
    pub snm_at_max: f64,
    /// Number of SNM evaluations spent.
    pub evaluations: usize,
}

/// Finds the deep-sleep data-retention voltage for one stored value.
///
/// Returns the lowest supply (within tolerance) at which the relevant
/// butterfly lobe stays above [`SNM_FLOOR`]. The search runs up to the
/// instance's PVT supply; if the cell is unstable even there, that
/// bound itself is returned (DRV is *at least* that).
///
/// ```no_run
/// use process::PvtCondition;
/// use sram::{CellInstance, DrvOptions, StoredBit};
///
/// # fn main() -> Result<(), anasim::Error> {
/// let cell = CellInstance::symmetric(PvtCondition::nominal());
/// let r = sram::drv_ds(&cell, StoredBit::One, &DrvOptions::default())?;
/// assert!(r.drv < 0.2); // a healthy symmetric cell retains far below Vreg
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates solver failures.
pub fn drv_ds(
    instance: &CellInstance,
    bit: StoredBit,
    opts: &DrvOptions,
) -> Result<DrvResult, anasim::Error> {
    let _span = obs::span("drv_ds");
    let hi_bound = instance.pvt.vdd;
    let mut inv_s = InverterCircuit::new(instance, CellInverter::DrivesS)?;
    let mut inv_sb = InverterCircuit::new(instance, CellInverter::DrivesSb)?;
    let mut evaluations = 0usize;
    let mut snm_at = |supply: f64, evals: &mut usize| -> Result<f64, anasim::Error> {
        *evals += 1;
        let vtc_s = inv_s.vtc(supply, opts.vtc_points)?;
        let vtc_sb = inv_sb.vtc(supply, opts.vtc_points)?;
        Ok(bit.lobe(&crate::snm::snm_from_vtcs(&vtc_s, &vtc_sb)))
    };

    let snm_hi = snm_at(hi_bound, &mut evaluations)?;
    if snm_hi <= SNM_FLOOR {
        obs::hist_record("sram.drv.evaluations", evaluations as f64);
        return Ok(DrvResult {
            drv: hi_bound,
            snm_at_max: snm_hi,
            evaluations,
        });
    }
    let mut lo = 0.002; // effectively zero supply
    let mut hi = hi_bound;
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if snm_at(mid, &mut evaluations)? > SNM_FLOOR {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    obs::hist_record("sram.drv.evaluations", evaluations as f64);
    Ok(DrvResult {
        drv: hi,
        snm_at_max: snm_hi,
        evaluations,
    })
}

/// The cell's overall deep-sleep retention voltage: the worse (higher)
/// of the two stored values, as in the paper's
/// `DRV_DS = max(DRV_DS1, DRV_DS0)`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn drv_ds_worst(instance: &CellInstance, opts: &DrvOptions) -> Result<f64, anasim::Error> {
    let one = drv_ds(instance, StoredBit::One, opts)?;
    let zero = drv_ds(instance, StoredBit::Zero, opts)?;
    Ok(one.drv.max(zero.drv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellTransistor, MismatchPattern};
    use crate::snm::snm_ds;
    use process::{PvtCondition, Sigma};

    #[test]
    fn symmetric_cell_retains_below_100mv() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let r = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        assert!(
            (0.02..0.15).contains(&r.drv),
            "symmetric DRV_DS1 = {} V",
            r.drv
        );
        assert!(r.snm_at_max > 0.1);
        assert!(r.evaluations > 2);
    }

    #[test]
    fn reported_drv_brackets_the_collapse_floor() {
        // The lobe is open above the floor at the reported DRV and
        // collapsed one tolerance below it.
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc1, Sigma(-3.0))
            .with(CellTransistor::MNcc1, Sigma(-3.0));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let opts = DrvOptions::coarse();
        let r = drv_ds(&inst, StoredBit::One, &opts).unwrap();
        let lobe_at = |supply: f64| snm_ds(&inst, supply, opts.vtc_points).unwrap().snm1;
        assert!(lobe_at(r.drv) > SNM_FLOOR, "lobe at DRV {}", r.drv);
        assert!(lobe_at(r.drv - opts.tolerance) <= SNM_FLOOR);
    }

    #[test]
    fn symmetric_cell_is_symmetric_in_bit() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!(
            (one.drv - zero.drv).abs() < 0.01,
            "DRV1 {} vs DRV0 {}",
            one.drv,
            zero.drv
        );
    }

    #[test]
    fn adversarial_mismatch_raises_drv1_only() {
        // The paper's observation 1: negative Vth shift on MPcc1/MNcc1/
        // MNcc3, positive on MPcc2/MNcc2/MNcc4 raises DRV_DS1.
        let pattern = MismatchPattern::from_sigmas([
            Sigma(-3.0),
            Sigma(-3.0),
            Sigma(3.0),
            Sigma(3.0),
            Sigma(-3.0),
            Sigma(3.0),
        ]);
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!(
            one.drv > zero.drv + 0.05,
            "DRV1 {} should far exceed DRV0 {}",
            one.drv,
            zero.drv
        );
        let sym = drv_ds(
            &CellInstance::symmetric(PvtCondition::nominal()),
            StoredBit::One,
            &DrvOptions::coarse(),
        )
        .unwrap();
        assert!(one.drv > sym.drv + 0.1);
    }

    #[test]
    fn worst_takes_max() {
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc1, Sigma(-3.0))
            .with(CellTransistor::MNcc1, Sigma(-3.0));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let worst = drv_ds_worst(&inst, &DrvOptions::coarse()).unwrap();
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!((worst - one.drv.max(zero.drv)).abs() < 1e-12);
    }

    #[test]
    fn drv_monotone_in_mismatch_strength() {
        let drv_for = |sig: f64| {
            let pattern = MismatchPattern::symmetric()
                .with(CellTransistor::MPcc1, Sigma(-sig))
                .with(CellTransistor::MNcc1, Sigma(-sig))
                .with(CellTransistor::MPcc2, Sigma(sig))
                .with(CellTransistor::MNcc2, Sigma(sig));
            let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
            drv_ds(&inst, StoredBit::One, &DrvOptions::coarse())
                .unwrap()
                .drv
        };
        let d0 = drv_for(0.0);
        let d2 = drv_for(2.0);
        let d4 = drv_for(4.0);
        assert!(d0 < d2 && d2 < d4, "{d0} < {d2} < {d4}");
    }
}
