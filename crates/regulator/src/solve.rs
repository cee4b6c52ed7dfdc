//! Time-domain analyses of the regulator: the activation transients
//! that make Df8 and Df11 dangerous.
//!
//! Both defects are invisible at DC — they sit in gate lines that carry
//! no steady-state current. Their damage happens when the SRAM *enters*
//! deep-sleep:
//!
//! * **Df8** delays the charging of `MNreg1`'s gate, so the amplifier
//!   stays dead while the power switches are already open; the array
//!   rail, held up only by its capacitance, discharges through the
//!   leakage load and may cross DRV_DS before the regulator takes over.
//! * **Df11** delays the charging of `MNreg2`'s gate toward `Vref`
//!   (the selector breaks before it makes): with the reference input
//!   low the amplifier drives `MPreg1`'s gate high and the rail sags
//!   until the input line recovers.
//!
//! [`activation_transient`] integrates the whole window. The Table II
//! verdict ([`crate::characterize::drf_at`]) runs the same transient
//! with the criterion's DRV as a floor, and ends it after the first
//! step from which the rail can no longer cross that floor (DESIGN
//! §16): the verdict reads only the samples below DRV, and after that
//! step there are none.

use anasim::newton::NewtonOptions;
use anasim::transient::TransientAnalysis;
use anasim::NodeId;
use process::PvtCondition;
use sram::ArrayLoad;

use crate::defect::Defect;
use crate::topology::{
    FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap, ACTIVATION_EDGE_SECONDS,
};

/// A gate line that moves by at most this much in one step counts as
/// settled, volts. The early end needs both gate lines constant; each
/// charges through its defect toward a fixed source, so a line moving
/// 1 µV per step has a remaining swing far below the 0.1 mV to which
/// the transient solves the rail.
const GATE_SETTLED_VOLTS: f64 = 1.0e-6;

/// Waveform summary of one activation transient.
#[derive(Debug, Clone)]
pub struct ActivationResult {
    times: Vec<f64>,
    vddcc: Vec<f64>,
}

impl ActivationResult {
    /// The sampled `(time, V_DD_CC)` waveform.
    pub fn samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.vddcc.iter().copied())
    }

    /// Minimum rail voltage over the simulated window.
    pub fn min_vddcc(&self) -> f64 {
        self.vddcc.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Rail voltage at the end of the window.
    pub fn final_vddcc(&self) -> f64 {
        *self.vddcc.last().expect("non-empty waveform")
    }

    /// Total time the rail spent below `level`, seconds.
    pub fn time_below(&self, level: f64) -> f64 {
        let mut total = 0.0;
        for k in 1..self.times.len() {
            if self.vddcc[k] < level {
                total += self.times[k] - self.times[k - 1];
            }
        }
        total
    }
}

/// Runs the deep-sleep activation transient with `defect` injected at
/// `ohms`. Must be called with Df8 (bias activation) or Df11 (Vref
/// activation); other defects have DC mechanisms.
///
/// The initial condition models the instant of the ACT→DS switch: the
/// rail still at full V_DD (the power switches just opened), the
/// stepped gate line fully discharged.
///
/// # Errors
///
/// Propagates solver failures.
///
/// # Panics
///
/// Panics if `defect` is not a transient-mechanism defect.
#[allow(clippy::too_many_arguments)]
pub fn activation_transient(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    ohms: f64,
    load: &ArrayLoad,
    t_stop: f64,
    dt: f64,
) -> Result<ActivationResult, anasim::Error> {
    simulate_activation(design, pvt, tap, defect, ohms, load, t_stop, dt, None)
}

/// The activation transient of [`activation_transient`]. Given a
/// retention `floor` (the criterion's DRV), it ends after the first
/// step past the activation edge at which
///
/// 1. neither gate line, `mn1_gate` nor `mn2_gate`, moved by more than
///    `GATE_SETTLED_VOLTS`;
/// 2. the rail is at or above the floor;
/// 3. the rail's linear bound, its value less the step's fall times the
///    steps left, clears the floor by the rail's Newton tolerance.
///
/// From there on the rail obeys one scalar equation whose per-step
/// fall cannot grow, so no later sample lies below the floor (DESIGN
/// §16). Each run that ends before its window counts once in
/// `regulator.activation.ended_early`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_activation(
    design: &RegulatorDesign,
    pvt: PvtCondition,
    tap: VrefTap,
    defect: Defect,
    ohms: f64,
    load: &ArrayLoad,
    t_stop: f64,
    dt: f64,
    floor: Option<f64>,
) -> Result<ActivationResult, anasim::Error> {
    assert!(
        defect.is_transient_mechanism(),
        "{defect} is a DC-mechanism defect"
    );
    let feed = match defect.number() {
        8 => FeedMode::BiasActivation,
        11 => FeedMode::VrefActivation,
        _ => unreachable!(),
    };
    let mut circuit = RegulatorCircuit::new(design, pvt, tap, feed)?;
    circuit.inject(defect, ohms);

    // Linearize the load near the expected output; during the droop the
    // resistor model under-estimates the current reduction, which is
    // conservative (pessimistic) for retention.
    let v_expected = circuit.expected_vreg();
    let i_expected = load.current(v_expected).max(1.0e-12);
    let r_load = (v_expected / i_expected).clamp(1.0, 1.0e13);
    {
        let load_param = circuit.load_param();
        circuit.netlist_mut().set_param(load_param, r_load);
    }

    let nodes = circuit.nodes();
    let nl = circuit.netlist();
    let mut x0 = nl.zero_state();
    // Rail capacitance starts at full V_DD.
    nl.set_guess(&mut x0, nodes.vddcc, pvt.vdd);
    nl.set_guess(&mut x0, nodes.vreg, pvt.vdd);
    // The amplifier output parked high (output device off) before
    // activation.
    nl.set_guess(&mut x0, nodes.out, pvt.vdd);
    // The static gate line starts at its tap value; the stepped one at 0
    // (handled by the Pulse source / initial zero guess).
    match feed {
        FeedMode::BiasActivation => {
            nl.set_guess(&mut x0, nodes.mn2_gate, tap.fraction() * pvt.vdd);
        }
        FeedMode::VrefActivation => {
            nl.set_guess(&mut x0, nodes.mn1_gate, 0.52 * pvt.vdd);
        }
        FeedMode::Static => unreachable!(),
    }

    // Slightly relaxed relative tolerance: mid-activation the amplifier
    // crosses its dead zone, where Newton limit-cycles at the 1e-5
    // level; 1e-4 relative (0.1 mV on a 1 V rail) is ample for the
    // retention criterion.
    let options = NewtonOptions {
        reltol: 1.0e-4,
        ..NewtonOptions::default()
    };
    let unknown = |node: NodeId| node.unknown_index().expect("no regulator line is ground");
    let rail = unknown(nodes.vddcc);
    let gates = [unknown(nodes.mn1_gate), unknown(nodes.mn2_gate)];
    let rail_stays_above = |time: f64, previous: &[f64], accepted: &[f64]| {
        let Some(floor) = floor else {
            return false;
        };
        let v = accepted[rail];
        let fall = (previous[rail] - v).max(0.0);
        // Rounding can only overcount the steps left.
        let steps_left = ((t_stop - time) / dt).ceil();
        let tolerance = options.vntol + options.reltol * v.abs();
        time > ACTIVATION_EDGE_SECONDS
            && gates
                .iter()
                .all(|&g| (accepted[g] - previous[g]).abs() <= GATE_SETTLED_VOLTS)
            && v >= floor
            && v - fall * steps_left - tolerance >= floor
    };
    let tr = TransientAnalysis::new(dt, t_stop)
        .with_options(options)
        .run_from_until(nl, x0, rail_stays_above)?;
    let times = tr.times().to_vec();
    if times.last().is_some_and(|&end| end < t_stop) {
        obs::counter_add("regulator.activation.ended_early", 1);
    }
    let vddcc = tr.voltage_series(nodes.vddcc);
    Ok(ActivationResult { times, vddcc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram::CellInstance;

    fn hot_pvt() -> PvtCondition {
        PvtCondition::new(process::ProcessCorner::Typical, 1.1, 125.0)
    }

    fn load_at(pvt: PvtCondition) -> ArrayLoad {
        let base = CellInstance::symmetric(pvt);
        ArrayLoad::build(&base, &[], 256 * 1024, 1.3, 7).unwrap()
    }

    #[test]
    fn healthy_activation_settles_at_vref() {
        let pvt = hot_pvt();
        let load = load_at(pvt);
        let r = activation_transient(
            &RegulatorDesign::lp40nm(),
            pvt,
            VrefTap::V74,
            Defect::new(8),
            crate::topology::NO_DEFECT_OHMS,
            &load,
            200.0e-6,
            1.0e-6,
        )
        .unwrap();
        let expected = 0.74 * 1.1;
        assert!(
            (r.final_vddcc() - expected).abs() < 0.03,
            "settled at {} vs {expected}",
            r.final_vddcc()
        );
        // The healthy hand-off never droops anywhere near the worst-case
        // retention voltage.
        assert!(r.min_vddcc() > 0.7, "min rail {}", r.min_vddcc());
    }

    #[test]
    fn df8_delay_scales_with_resistance() {
        let pvt = hot_pvt();
        let load = load_at(pvt);
        let run = |ohms: f64| {
            activation_transient(
                &RegulatorDesign::lp40nm(),
                pvt,
                VrefTap::V74,
                Defect::new(8),
                ohms,
                &load,
                400.0e-6,
                2.0e-6,
            )
            .unwrap()
        };
        let mild = run(1.0e6);
        let severe = run(500.0e6);
        assert!(
            severe.min_vddcc() < mild.min_vddcc() - 0.05,
            "severe {} vs mild {}",
            severe.min_vddcc(),
            mild.min_vddcc()
        );
        assert!(severe.time_below(0.73) > mild.time_below(0.73));
    }

    #[test]
    fn df11_undershoot_recovers() {
        let pvt = hot_pvt();
        let load = load_at(pvt);
        let r = activation_transient(
            &RegulatorDesign::lp40nm(),
            pvt,
            VrefTap::V74,
            Defect::new(11),
            2.0e8, // RC ≈ 10 µs against the 400 µs window
            &load,
            400.0e-6,
            2.0e-6,
        )
        .unwrap();
        // The rail sags while the reference input charges, then
        // recovers: a transient undershoot, exactly the paper's account.
        assert!(r.min_vddcc() < r.final_vddcc() - 0.02);
        assert!(
            (r.final_vddcc() - 0.74 * 1.1).abs() < 0.05,
            "final {}",
            r.final_vddcc()
        );
    }

    #[test]
    #[should_panic(expected = "DC-mechanism")]
    fn dc_defects_rejected() {
        let pvt = hot_pvt();
        let load = load_at(pvt);
        let _ = activation_transient(
            &RegulatorDesign::lp40nm(),
            pvt,
            VrefTap::V74,
            Defect::new(16),
            1.0e3,
            &load,
            1.0e-4,
            1.0e-6,
        );
    }
}
