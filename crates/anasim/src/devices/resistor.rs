//! Linear resistor.
//!
//! The resistance lives in the netlist's parameter table so sweeps
//! (e.g. the injected defect resistance in the regulator
//! characterization) can move it without rebuilding the circuit.

use crate::mna::StampContext;
use crate::netlist::{NodeId, ParamId};

/// Stamps an ideal linear resistor between `p` and `n` reading its
/// resistance from `resistance`.
pub(crate) fn stamp(p: NodeId, n: NodeId, resistance: ParamId, ctx: &mut StampContext<'_>) {
    let g = 1.0 / ctx.param_value(resistance);
    ctx.stamp_conductance(p, n, g);
}

#[cfg(test)]
mod tests {
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    #[test]
    fn series_divider() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V", a, Netlist::GND, 3.0);
        nl.resistor("R1", a, m, 2.0e3).unwrap();
        nl.resistor("R2", m, Netlist::GND, 1.0e3).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_resistors_halve() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("Rs", a, m, 1.0e3).unwrap();
        nl.resistor("Rp1", m, Netlist::GND, 2.0e3).unwrap();
        nl.resistor("Rp2", m, Netlist::GND, 2.0e3).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        // 1k series with 1k parallel combination: midpoint = 1.0 V.
        assert!((sol.voltage(m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parameter_update_moves_solution() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V", a, Netlist::GND, 1.0);
        let top = nl.resistor("R1", a, m, 1.0e3).unwrap();
        nl.resistor("R2", m, Netlist::GND, 1.0e3).unwrap();
        let mid1 = DcAnalysis::new().operating_point(&nl).unwrap().voltage(m);
        nl.set_param(top, 3.0e3);
        let mid2 = DcAnalysis::new().operating_point(&nl).unwrap().voltage(m);
        assert!((mid1 - 0.5).abs() < 1e-9);
        assert!((mid2 - 0.25).abs() < 1e-9);
    }
}
