//! Smooth voltage-controlled switch.

use crate::devices::{sigmoid, Device, ElementKind};
use crate::mna::StampContext;
use crate::netlist::NodeId;

/// Width in volts of the smooth on/off transition. A finite width keeps
/// the Jacobian continuous so Newton does not chatter across the
/// threshold.
const TRANSITION_WIDTH: f64 = 0.01;

/// A voltage-controlled switch whose conductance interpolates smoothly
/// between `1/r_off` and `1/r_on` as the control voltage crosses the
/// threshold. Used by the SRAM power-mode model for the PMOS power
/// switch network where full transistor fidelity is unnecessary.
#[derive(Debug)]
pub struct Switch {
    p: NodeId,
    n: NodeId,
    ctrl_p: NodeId,
    ctrl_n: NodeId,
    threshold: f64,
    g_on: f64,
    g_off: f64,
}

impl Switch {
    /// Creates a switch; it conducts (`r_on`) when
    /// `V(ctrl_p) − V(ctrl_n) > threshold`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        p: NodeId,
        n: NodeId,
        ctrl_p: NodeId,
        ctrl_n: NodeId,
        threshold: f64,
        r_on: f64,
        r_off: f64,
    ) -> Self {
        Switch {
            p,
            n,
            ctrl_p,
            ctrl_n,
            threshold,
            g_on: 1.0 / r_on,
            g_off: 1.0 / r_off,
        }
    }

    /// Conductance and its derivative with respect to the control
    /// voltage, at control voltage `vc`.
    fn conductance(&self, vc: f64) -> (f64, f64) {
        let u = (vc - self.threshold) / TRANSITION_WIDTH;
        let s = sigmoid(u);
        let g = self.g_off + (self.g_on - self.g_off) * s;
        let dg_dvc = (self.g_on - self.g_off) * s * (1.0 - s) / TRANSITION_WIDTH;
        (g, dg_dvc)
    }
}

impl Device for Switch {
    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n, self.ctrl_p, self.ctrl_n]
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Switch {
            p: self.p,
            n: self.n,
            ctrl_p: self.ctrl_p,
            ctrl_n: self.ctrl_n,
            threshold: self.threshold,
            g_on: self.g_on,
            g_off: self.g_off,
        }
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let vc = ctx.voltage(self.ctrl_p) - ctx.voltage(self.ctrl_n);
        let v = ctx.voltage(self.p) - ctx.voltage(self.n);
        let (g, dg_dvc) = self.conductance(vc);
        // I = g(vc) · v. Linearize in both v and vc:
        // I ≈ I0 + g·Δv + (dg/dvc·v)·Δvc
        let gc = dg_dvc * v;
        ctx.stamp_conductance(self.p, self.n, g);
        // Control-voltage coupling (a VCCS from p to n controlled by vc).
        ctx.mat_node_node(self.p, self.ctrl_p, gc);
        ctx.mat_node_node(self.p, self.ctrl_n, -gc);
        ctx.mat_node_node(self.n, self.ctrl_p, -gc);
        ctx.mat_node_node(self.n, self.ctrl_n, gc);
        // Companion current: I0 − g·v − gc·vc.
        let i0 = g * v;
        let ieq = i0 - g * v - gc * vc;
        ctx.stamp_current(self.p, self.n, ieq);
    }
}

#[cfg(test)]
mod tests {
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    fn divider_with_switch(ctrl_volts: f64) -> f64 {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        let c = nl.node("c");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.vsource("Vc", c, Netlist::GND, ctrl_volts);
        nl.resistor("R", a, m, 1.0e3).unwrap();
        nl.switch("S", m, Netlist::GND, c, Netlist::GND, 0.5, 1.0e3, 1.0e12)
            .unwrap();
        DcAnalysis::new().operating_point(&nl).unwrap().voltage(m)
    }

    #[test]
    fn switch_on_divides() {
        let v = divider_with_switch(1.0);
        assert!((v - 0.5).abs() < 1e-6, "on-state midpoint {v}");
    }

    #[test]
    fn switch_off_blocks() {
        let v = divider_with_switch(0.0);
        assert!((v - 1.0).abs() < 1e-6, "off-state midpoint {v}");
    }

    #[test]
    fn transition_is_monotone() {
        let mut last = divider_with_switch(0.0);
        for step in 1..=20 {
            let vc = step as f64 * 0.05;
            let v = divider_with_switch(vc);
            assert!(v <= last + 1e-9, "non-monotone at vc={vc}: {v} > {last}");
            last = v;
        }
    }
}
