//! Capacitor with a backward-Euler transient companion model.
//!
//! At DC a capacitor contributes only a 1 pS leakage conductance; in
//! transient analysis it stamps the backward-Euler companion model
//! `G = C/dt`, `Ieq = -(C/dt) · V_prev`.
//!
//! Backward Euler was chosen over trapezoidal integration deliberately:
//! the retention waveforms this crate simulates are monotone decays and
//! slow ramps where BE's L-stability (no trapezoidal ringing) matters
//! more than its first-order accuracy.

use crate::mna::{AnalysisMode, StampContext};
use crate::netlist::NodeId;

/// Conductance a capacitor contributes at DC so that nodes connected
/// only through capacitors remain solvable.
const DC_LEAK_CONDUCTANCE: f64 = 1.0e-12;

/// Stamps an ideal capacitor of `farads` between `p` and `n`.
pub(crate) fn stamp(p: NodeId, n: NodeId, farads: f64, ctx: &mut StampContext<'_>) {
    match ctx.mode() {
        AnalysisMode::Dc => {
            ctx.stamp_conductance(p, n, DC_LEAK_CONDUCTANCE);
        }
        AnalysisMode::Transient { dt, .. } => {
            let g = farads / dt;
            let v_prev = ctx.prev_voltage(p) - ctx.prev_voltage(n);
            ctx.stamp_conductance(p, n, g);
            // Companion current source reproducing the history term.
            ctx.stamp_current(p, n, -g * v_prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;
    use crate::transient::TransientAnalysis;

    #[test]
    fn dc_acts_as_open() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, b, 1.0e3).unwrap();
        nl.capacitor("C", b, Netlist::GND, 1.0e-9).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        // No DC path to ground except the leak: node b sits at the
        // source voltage.
        assert!((sol.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rc_decay_matches_analytic() {
        // 1 kΩ / 1 µF discharge from 1 V: tau = 1 ms.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        nl.capacitor("C", a, Netlist::GND, 1.0e-6).unwrap();
        let x0 = vec![1.0]; // start the capacitor charged
        let tr = TransientAnalysis::new(1.0e-6, 2.0e-3)
            .run_from(&nl, x0)
            .unwrap();
        let v_end = tr.voltage_at_end(a);
        let expected = (-2.0f64).exp();
        assert!(
            (v_end - expected).abs() < 5e-3,
            "BE decay {v_end} vs analytic {expected}"
        );
    }

    #[test]
    fn rc_charge_through_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, b, 1.0e3).unwrap();
        nl.capacitor("C", b, Netlist::GND, 1.0e-6).unwrap();
        let x0 = vec![1.0, 0.0, 0.0]; // a = 1 V, b = 0, branch current 0
        let tr = TransientAnalysis::new(1.0e-6, 1.0e-3)
            .run_from(&nl, x0)
            .unwrap();
        let v_end = tr.voltage_at_end(b);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (v_end - expected).abs() < 5e-3,
            "BE charge {v_end} vs analytic {expected}"
        );
    }
}
