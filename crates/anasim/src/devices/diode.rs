//! Junction diode with exponential I–V and Newton-safe limiting.

use crate::devices::{Device, ElementKind};
use crate::error::Error;
use crate::mna::StampContext;
use crate::netlist::NodeId;
use crate::thermal_voltage;

/// Diode model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current in amperes.
    pub i_sat: f64,
    /// Ideality factor (1.0 for an ideal junction).
    pub ideality: f64,
    /// Junction temperature in degrees Celsius.
    pub temp_c: f64,
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams {
            i_sat: 1.0e-14,
            ideality: 1.0,
            temp_c: 25.0,
        }
    }
}

impl DiodeParams {
    pub(crate) fn validate(&self, name: &str) -> Result<(), Error> {
        if !(self.i_sat.is_finite() && self.i_sat > 0.0) {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("saturation current must be positive, got {}", self.i_sat),
            });
        }
        if !(self.ideality.is_finite() && self.ideality >= 0.5) {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("ideality factor must be >= 0.5, got {}", self.ideality),
            });
        }
        if !self.temp_c.is_finite() || self.temp_c < -273.15 {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("temperature out of range: {}", self.temp_c),
            });
        }
        Ok(())
    }
}

/// A junction diode from anode `p` to cathode `n`:
/// `I = I_sat (e^(V/(n·Vt)) − 1)`.
#[derive(Debug)]
pub struct Diode {
    p: NodeId,
    n: NodeId,
    params: DiodeParams,
}

impl Diode {
    /// Creates a diode with the given parameters.
    pub fn new(p: NodeId, n: NodeId, params: DiodeParams) -> Self {
        Diode { p, n, params }
    }

    /// Evaluates `(current, conductance)` at junction voltage `v`, with
    /// the exponent clamped so Newton excursions cannot overflow.
    pub fn evaluate(&self, v: f64) -> (f64, f64) {
        let vt = self.params.ideality * thermal_voltage(self.params.temp_c);
        // Clamp the exponent to keep the model finite during wild Newton
        // steps; 40·Vt ≈ 1 V of forward bias is far beyond operation.
        let u = (v / vt).min(40.0);
        let e = u.exp();
        let i = self.params.i_sat * (e - 1.0);
        let g = (self.params.i_sat / vt * e).max(1.0e-15);
        (i, g)
    }
}

impl Device for Diode {
    fn nodes(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Diode {
            p: self.p,
            n: self.n,
            params: self.params,
        }
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = ctx.voltage(self.p) - ctx.voltage(self.n);
        let (i, g) = self.evaluate(v);
        ctx.stamp_linearized(self.p, self.n, i, g, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    #[test]
    fn forward_drop_near_0v6() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vsource("V", a, Netlist::GND, 5.0);
        nl.resistor("R", a, d, 1.0e3).unwrap();
        nl.diode("D", d, Netlist::GND, DiodeParams::default())
            .unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let vd = sol.voltage(d);
        assert!((0.55..0.75).contains(&vd), "forward drop {vd}");
    }

    #[test]
    fn reverse_blocks() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let d = nl.node("d");
        nl.vsource("V", a, Netlist::GND, -5.0);
        nl.resistor("R", a, d, 1.0e3).unwrap();
        nl.diode("D", d, Netlist::GND, DiodeParams::default())
            .unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        // Reverse leakage is ~I_sat: essentially the full source voltage
        // appears across the diode.
        assert!((sol.voltage(d) + 5.0).abs() < 1e-3);
    }

    #[test]
    fn conductance_is_derivative() {
        let d = Diode::new(NodeId(1), NodeId(0), DiodeParams::default());
        for &v in &[0.0, 0.3, 0.55, 0.65] {
            let h = 1e-7;
            let (ip, _) = d.evaluate(v + h);
            let (im, _) = d.evaluate(v - h);
            let numeric = (ip - im) / (2.0 * h);
            let (_, g) = d.evaluate(v);
            let rel = (numeric - g).abs() / g.max(1e-15);
            assert!(rel < 1e-4, "derivative mismatch at {v}: {numeric} vs {g}");
        }
        // Deep reverse bias: the analytic conductance is floored at the
        // Newton-safety minimum, so it intentionally exceeds the true
        // (vanishing) derivative.
        let (_, g_rev) = d.evaluate(-0.5);
        assert!(g_rev >= 1.0e-15);
    }

    #[test]
    fn params_validate() {
        let bad = DiodeParams {
            i_sat: -1.0,
            ..DiodeParams::default()
        };
        assert!(bad.validate("D").is_err());
        let bad = DiodeParams {
            ideality: 0.0,
            ..DiodeParams::default()
        };
        assert!(bad.validate("D").is_err());
        let bad = DiodeParams {
            temp_c: f64::NAN,
            ..DiodeParams::default()
        };
        assert!(bad.validate("D").is_err());
        assert!(DiodeParams::default().validate("D").is_ok());
    }
}
