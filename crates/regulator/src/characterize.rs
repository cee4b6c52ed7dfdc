//! Defect characterization: minimum resistance causing a DRF_DS, and
//! measured category classification — the machinery behind the paper's
//! Table II.

use process::PvtCondition;
use sram::drv::StoredBit;
use sram::retention::retention_outcome;
use sram::{ArrayLoad, CellInstance};

use crate::defect::{Defect, DefectCategory};
use crate::solve::{activation_transient, simulate_activation};
use crate::topology::{FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap, OPEN_THRESHOLD_OHMS};

/// Smallest resistance a minimum-resistance search injects, ohms: a
/// decade below the smallest value in the paper's Table II (Df16 on
/// CS1, 976.56 Ω), so every scan starts from a passing point. The scan
/// runs up to [`OPEN_THRESHOLD_OHMS`], the paper's `> 500M`.
pub const SEARCH_MIN_OHMS: f64 = 100.0;

/// Tuning of the characterization sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizeOptions {
    /// Coarse scan density (points per decade of resistance).
    pub points_per_decade: usize,
    /// Bisection refinements after the coarse scan.
    pub refine_iters: usize,
    /// Deep-sleep dwell time used by the retention criterion, seconds.
    pub ds_time: f64,
    /// Time step for the Df8/Df11 activation transients, seconds.
    pub transient_dt: f64,
    /// Window simulated for activation transients, seconds.
    pub transient_window: f64,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        CharacterizeOptions {
            points_per_decade: 2,
            refine_iters: 8,
            ds_time: 1.0e-3,
            transient_dt: 4.0e-6,
            transient_window: 1.0e-3,
        }
    }
}

impl CharacterizeOptions {
    /// Fast options for tests: coarser grid, shorter transients.
    pub fn coarse() -> Self {
        CharacterizeOptions {
            points_per_decade: 1,
            refine_iters: 5,
            transient_dt: 10.0e-6,
            transient_window: 0.5e-3,
            ..Self::default()
        }
    }
}

/// The retention-fault criterion for one stressed-cell population: the
/// paper's DRF_DS definition specialised to the case study under test.
#[derive(Debug, Clone, Copy)]
pub struct DrfCriterion<'a> {
    /// The stressed cell (pattern + PVT) whose retention is at risk.
    pub stressed: &'a CellInstance,
    /// The value that cell struggles to hold.
    pub stored: StoredBit,
    /// Its retention voltage at this PVT (from `sram::drv`).
    pub drv: f64,
}

impl DrfCriterion<'_> {
    /// Whether a steady rail at `vddcc` for `ds_time` seconds flips the
    /// stressed cell.
    pub fn fails_at(&self, vddcc: f64, ds_time: f64) -> bool {
        !retention_outcome(self.stressed, self.stored, vddcc, self.drv, ds_time).retained()
    }
}

/// Result of a minimum-resistance search for one defect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinResistance {
    /// Smallest resistance that causes a DRF_DS, or `None` when even a
    /// full open does not (the paper's `> 500M` entries).
    pub ohms: Option<f64>,
    /// The rail voltage observed at the failing resistance (diagnostic;
    /// `None` when no failure was found).
    pub vddcc_at_fault: Option<f64>,
    /// `true` when even the defect-free circuit fails the criterion at
    /// this condition — the search is then meaningless (reported with
    /// `ohms = None`) and the condition unusable for testing.
    pub healthy_faulty: bool,
}

/// Whether the defect at `ohms` causes a DRF under the criterion. For
/// DC-mechanism defects this is a loaded DC solve; for Df8/Df11 it runs
/// the activation transient and applies the dwell-time criterion to the
/// time spent below DRV.
///
/// The activation transient ends once the rest of its window can no
/// longer take the rail below DRV (DESIGN §16). The verdict reads only
/// the rail's minimum when it is below DRV and the time spent below
/// DRV, so it equals the full window's.
///
/// Returns `(faulty, observed_vddcc)`. The observed rail is the DC
/// operating point's, or the activation transient's minimum over the
/// simulated part of its window. Below DRV, as at every failing
/// transient probe, that is the full window's minimum bit for bit; at
/// or above DRV it may lie above the full window's minimum.
///
/// # Errors
///
/// Propagates solver failures.
#[allow(clippy::too_many_arguments)]
pub fn drf_at(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    ohms: f64,
    load: &ArrayLoad,
    criterion: &DrfCriterion<'_>,
    opts: &CharacterizeOptions,
) -> Result<(bool, f64), anasim::Error> {
    if defect.is_transient_mechanism() {
        preflight_transient_build(design, pvt, tap, defect)?;
        drf_at_transient(design, pvt, tap, defect, ohms, load, criterion, opts)
    } else {
        let mut circuit = RegulatorCircuit::new(design, pvt, tap, FeedMode::Static)?;
        circuit.preflight()?;
        drf_at_dc(&mut circuit, defect, ohms, load, criterion, opts)
    }
}

/// ERC-checks the netlist an activation transient for `defect` would
/// build. The transient drivers rebuild their circuit per point, so
/// the gate runs once up front on a representative build.
fn preflight_transient_build(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
) -> Result<(), anasim::Error> {
    let feed = if defect.number() == 8 {
        FeedMode::BiasActivation
    } else {
        FeedMode::VrefActivation
    };
    RegulatorCircuit::new(design, pvt, tap, feed)?.preflight()?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn drf_at_transient(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    ohms: f64,
    load: &ArrayLoad,
    criterion: &DrfCriterion<'_>,
    opts: &CharacterizeOptions,
) -> Result<(bool, f64), anasim::Error> {
    let wave = simulate_activation(
        design,
        pvt,
        tap,
        defect,
        ohms,
        load,
        opts.transient_window,
        opts.transient_dt,
        Some(criterion.drv),
    )?;
    let v_min = wave.min_vddcc();
    if v_min >= criterion.drv {
        return Ok((false, v_min));
    }
    let dwell = wave.time_below(criterion.drv);
    let faulty = criterion.fails_at(v_min, dwell);
    Ok((faulty, v_min))
}

/// DC variant reusing an existing circuit, so a resistance sweep warm
/// starts each point from the previous solution (defect-parameter
/// continuation).
fn drf_at_dc(
    circuit: &mut RegulatorCircuit,
    defect: Defect,
    ohms: f64,
    load: &ArrayLoad,
    criterion: &DrfCriterion<'_>,
    opts: &CharacterizeOptions,
) -> Result<(bool, f64), anasim::Error> {
    circuit.inject_keep_warm(defect, ohms);
    let op = circuit.solve(load)?;
    Ok((criterion.fails_at(op.vddcc, opts.ds_time), op.vddcc))
}

/// Solves the healthy (defect-free) DC operating point at one grid
/// condition and returns the converged raw state vector — the
/// campaign-level warm-start seed [`min_resistance_seeded`] accepts.
/// Computed once per (design, corner, temperature, VDD, tap) and
/// shared across every defect search at that condition, it replaces
/// the cold DC guess each search would otherwise start from.
///
/// # Errors
///
/// Propagates solver failures (the caller treats a failed seed as
/// "run cold", not as a campaign failure).
pub fn healthy_seed(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    load: &ArrayLoad,
) -> Result<Vec<f64>, anasim::Error> {
    let _span = obs::span("healthy_seed");
    let mut c = RegulatorCircuit::new(design, pvt, tap, FeedMode::Static)?;
    c.solve(load)?;
    Ok(c.warm_state()
        .expect("a successful solve always stores its converged state")
        .to_vec())
}

/// Finds the minimum resistance at which `defect` causes a DRF_DS under
/// the criterion: coarse log-scale scan for the first failing point,
/// then log-scale bisection against the last passing point. Every
/// solve starts from the cold DC guess; see [`min_resistance_seeded`]
/// for the warm-started variant the campaigns use.
///
/// # Errors
///
/// Propagates solver failures.
pub fn min_resistance(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    load: &ArrayLoad,
    criterion: &DrfCriterion<'_>,
    opts: &CharacterizeOptions,
) -> Result<MinResistance, anasim::Error> {
    min_resistance_seeded(design, pvt, tap, defect, load, criterion, opts, None)
}

/// As [`min_resistance`], but the first DC solve of the search seeds
/// Newton from `seed` — a converged state of the *healthy* circuit at
/// the same grid condition (see [`healthy_seed`]) — instead of the
/// cold DC guess. Subsequent bisection steps then continue
/// warm-starting from their neighbour as before. A `None` or
/// wrong-length seed (different topology) degrades silently to the
/// cold start, and a stale seed is rescued by the solver's
/// cold-restart fallback, so seeding is purely an accelerator: it can
/// never turn a solvable search into a failure.
///
/// Transient-mechanism defects (Df8/Df11) ignore the seed: their
/// drivers rebuild a different feed-mode circuit per point.
///
/// # Errors
///
/// Propagates solver failures.
#[allow(clippy::too_many_arguments)]
pub fn min_resistance_seeded(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    load: &ArrayLoad,
    criterion: &DrfCriterion<'_>,
    opts: &CharacterizeOptions,
    seed: Option<&[f64]>,
) -> Result<MinResistance, anasim::Error> {
    let _span = obs::span("min_resistance");
    // DC defects sweep one reused circuit so every point warm-starts
    // from its neighbour (continuation in the defect parameter);
    // transient defects rebuild per point.
    let mut dc_circuit = if defect.is_transient_mechanism() {
        None
    } else {
        let mut c = RegulatorCircuit::new(design, pvt, tap, FeedMode::Static)?;
        if let Some(state) = seed {
            if c.seed_warm(state) {
                obs::counter_add("characterize.warm_seed.applied", 1);
            } else {
                obs::counter_add("characterize.warm_seed.rejected", 1);
            }
        }
        Some(c)
    };
    // ERC pre-flight before the first solve: a structurally broken
    // netlist is rejected with a named-node diagnostic instead of
    // running the whole rescue ladder.
    match dc_circuit.as_ref() {
        Some(c) => {
            c.preflight()?;
        }
        None => preflight_transient_build(design, pvt, tap, defect)?,
    }
    let mut eval = |ohms: f64| -> Result<(bool, f64), anasim::Error> {
        match dc_circuit.as_mut() {
            Some(circuit) => drf_at_dc(circuit, defect, ohms, load, criterion, opts),
            None => drf_at_transient(design, pvt, tap, defect, ohms, load, criterion, opts),
        }
    };
    search_min_resistance(opts, &mut eval)
}

/// The scan-then-bisect skeleton shared by every minimum-resistance
/// search: healthy sanity probe, coarse log-scale scan for the first
/// failing point, then log-scale bisection against the last passing
/// point. `eval` answers "does the defect at this resistance cause a
/// DRF, and what rail voltage was observed".
fn search_min_resistance(
    opts: &CharacterizeOptions,
    eval: &mut dyn FnMut(f64) -> Result<(bool, f64), anasim::Error>,
) -> Result<MinResistance, anasim::Error> {
    // Sanity: a condition where the healthy circuit already fails the
    // criterion cannot characterize a defect.
    let (healthy_fails, _) = eval(crate::topology::NO_DEFECT_OHMS)?;
    if healthy_fails {
        return Ok(MinResistance {
            ohms: None,
            vddcc_at_fault: None,
            healthy_faulty: true,
        });
    }
    let decades = (OPEN_THRESHOLD_OHMS / SEARCH_MIN_OHMS).log10();
    let steps = (decades * opts.points_per_decade as f64).ceil() as usize;
    let mut last_good = SEARCH_MIN_OHMS / 10.0;
    let mut first_bad: Option<(f64, f64)> = None;
    for k in 0..=steps {
        let r = SEARCH_MIN_OHMS * 10f64.powf(k as f64 / opts.points_per_decade as f64);
        let r = r.min(OPEN_THRESHOLD_OHMS);
        let (faulty, v) = eval(r)?;
        if faulty {
            first_bad = Some((r, v));
            break;
        }
        last_good = r;
        if r >= OPEN_THRESHOLD_OHMS {
            break;
        }
    }
    let Some((mut bad_r, mut bad_v)) = first_bad else {
        return Ok(MinResistance {
            ohms: None,
            vddcc_at_fault: None,
            healthy_faulty: false,
        });
    };
    // Log-scale bisection.
    let mut good_r = last_good;
    for _ in 0..opts.refine_iters {
        let mid = (good_r.ln() + bad_r.ln()).mul_add(0.5, 0.0).exp();
        let (faulty, v) = eval(mid)?;
        if faulty {
            bad_r = mid;
            bad_v = v;
        } else {
            good_r = mid;
        }
    }
    Ok(MinResistance {
        ohms: Some(bad_r),
        vddcc_at_fault: Some(bad_v),
        healthy_faulty: false,
    })
}

/// Classifies a defect's impact at one tap by scanning several
/// resistances (a defect can raise the rail at moderate resistance and
/// collapse it at a full open — the paper's Df2–Df5 "both" behaviour)
/// and comparing the rail against the fault-free value.
///
/// # Errors
///
/// Propagates solver failures.
pub fn classify_at_tap(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    load: &ArrayLoad,
    opts: &CharacterizeOptions,
) -> Result<DefectCategory, anasim::Error> {
    /// Rail moves smaller than this count as "no effect", volts.
    const MARGIN: f64 = 0.01;
    let _span = obs::span("classify_at_tap");
    let healthy = {
        let mut c = RegulatorCircuit::new(design, pvt, tap, FeedMode::Static)?;
        c.solve(load)?.vddcc
    };
    let probe = |ohms: f64| -> Result<f64, anasim::Error> {
        if defect.is_transient_mechanism() {
            Ok(activation_transient(
                design,
                pvt,
                tap,
                defect,
                ohms,
                load,
                opts.transient_window,
                opts.transient_dt,
            )?
            .min_vddcc())
        } else {
            let mut c = RegulatorCircuit::new(design, pvt, tap, FeedMode::Static)?;
            c.inject(defect, ohms);
            Ok(c.solve(load)?.vddcc)
        }
    };
    let mut raises = false;
    let mut lowers = false;
    for ohms in [1.0e4, 1.0e5, 1.0e6, 1.0e7, OPEN_THRESHOLD_OHMS] {
        let v = probe(ohms)?;
        raises |= v > healthy + MARGIN;
        lowers |= v < healthy - MARGIN;
    }
    Ok(match (lowers, raises) {
        (true, true) => DefectCategory::Mixed,
        (true, false) => DefectCategory::RetentionFault,
        (false, true) => DefectCategory::IncreasedPower,
        (false, false) => DefectCategory::Negligible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use process::ProcessCorner;
    use sram::MismatchPattern;
    use sram::{CellTransistor, DrvOptions};

    fn setup() -> (PvtCondition, ArrayLoad, CellInstance, f64) {
        // CS2-like stressed cell at the hot fs corner.
        let pvt = PvtCondition::new(ProcessCorner::FastNSlowP, 1.0, 125.0);
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc1, process::Sigma(-3.0))
            .with(CellTransistor::MNcc1, process::Sigma(-3.0));
        let stressed = CellInstance::with_pattern(pattern, pvt);
        let drv = sram::drv_ds(&stressed, StoredBit::One, &DrvOptions::coarse())
            .unwrap()
            .drv;
        let base = CellInstance::symmetric(pvt);
        let load = ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).unwrap();
        (pvt, load, stressed, drv)
    }

    #[test]
    fn df16_has_finite_min_resistance() {
        let (pvt, load, stressed, drv) = setup();
        let criterion = DrfCriterion {
            stressed: &stressed,
            stored: StoredBit::One,
            drv,
        };
        let opts = CharacterizeOptions::coarse();
        let r = min_resistance(
            &RegulatorDesign::lp40nm(),
            pvt,
            VrefTap::V74,
            Defect::new(16),
            &load,
            &criterion,
            &opts,
        )
        .unwrap();
        let ohms = r.ohms.expect("Df16 must cause DRFs");
        assert!(
            (100.0..100.0e6).contains(&ohms),
            "min resistance {ohms} out of plausible range"
        );
        assert!(r.vddcc_at_fault.unwrap() < drv);
    }

    #[test]
    fn min_resistance_monotone_between_bracketing_points() {
        // The value returned must actually bracket: below it no DRF, at
        // it DRF.
        let (pvt, load, stressed, drv) = setup();
        let criterion = DrfCriterion {
            stressed: &stressed,
            stored: StoredBit::One,
            drv,
        };
        let opts = CharacterizeOptions::coarse();
        let design = RegulatorDesign::lp40nm();
        let r = min_resistance(
            &design,
            pvt,
            VrefTap::V74,
            Defect::new(29),
            &load,
            &criterion,
            &opts,
        )
        .unwrap()
        .ohms
        .expect("Df29 causes DRFs");
        let (below, _) = drf_at(
            &design,
            pvt,
            VrefTap::V74,
            Defect::new(29),
            r / 3.0,
            &load,
            &criterion,
            &opts,
        )
        .unwrap();
        let (at, _) = drf_at(
            &design,
            pvt,
            VrefTap::V74,
            Defect::new(29),
            r,
            &load,
            &criterion,
            &opts,
        )
        .unwrap();
        assert!(!below, "no fault just below the minimum");
        assert!(at, "fault at the minimum");
    }

    #[test]
    fn negligible_defect_reports_none() {
        let (pvt, load, stressed, drv) = setup();
        let criterion = DrfCriterion {
            stressed: &stressed,
            stored: StoredBit::One,
            drv,
        };
        let opts = CharacterizeOptions::coarse();
        let r = min_resistance(
            &RegulatorDesign::lp40nm(),
            pvt,
            VrefTap::V74,
            Defect::new(18),
            &load,
            &criterion,
            &opts,
        )
        .unwrap();
        assert_eq!(r.ohms, None);
    }

    #[test]
    fn classification_matches_expectations_for_clear_cases() {
        let (pvt, load, _, _) = setup();
        let opts = CharacterizeOptions::coarse();
        let design = RegulatorDesign::lp40nm();
        for (n, want) in [
            (16u8, DefectCategory::RetentionFault),
            (29, DefectCategory::RetentionFault),
            (13, DefectCategory::IncreasedPower),
            (20, DefectCategory::IncreasedPower),
            (18, DefectCategory::Negligible),
            (21, DefectCategory::Negligible),
        ] {
            let got =
                classify_at_tap(&design, pvt, VrefTap::V74, Defect::new(n), &load, &opts).unwrap();
            assert_eq!(got, want, "Df{n}");
        }
    }

    #[test]
    fn criterion_respects_ds_time() {
        let (_, _, stressed, drv) = setup();
        let criterion = DrfCriterion {
            stressed: &stressed,
            stored: StoredBit::One,
            drv,
        };
        // Far below DRV at a hot corner: flips within 1 ms.
        assert!(criterion.fails_at(drv - 0.3, 1.0e-3));
        // Above DRV: never.
        assert!(!criterion.fails_at(drv + 0.01, 10.0));
    }
}
