//! Ideal voltage source with optional time-domain waveform.

use crate::mna::{AnalysisMode, StampContext};
use crate::netlist::{NodeId, SourceId};

/// Time-domain shape of a voltage source
/// ([`ElementKind::VoltageSource`](crate::devices::ElementKind::VoltageSource)),
/// held in the netlist beside the source's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant value read from the netlist source table (sweepable).
    Dc,
    /// Trapezoidal pulse, SPICE-style.
    Pulse {
        /// Initial level in volts.
        v0: f64,
        /// Pulsed level in volts.
        v1: f64,
        /// Time the pulse starts, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Time spent at `v1`, seconds.
        width: f64,
    },
}

impl Waveform {
    /// The value the waveform fixes at `t = 0` regardless of the source
    /// table, or `None` when [`Waveform::value_at`] reads the table
    /// there.
    pub fn dc_override(&self) -> Option<f64> {
        match self {
            Waveform::Dc => None,
            Waveform::Pulse { .. } => Some(self.value_at(0.0, 0.0)),
        }
    }

    /// Evaluates the waveform at time `t`; `dc_value` is the source-table
    /// entry used by [`Waveform::Dc`].
    pub fn value_at(&self, t: f64, dc_value: f64) -> f64 {
        match self {
            Waveform::Dc => dc_value,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
            } => {
                let t = t - delay;
                if t <= 0.0 {
                    *v0
                } else if t < *rise {
                    v0 + (v1 - v0) * t / rise
                } else if t < rise + width {
                    *v1
                } else if t < rise + width + fall {
                    v1 + (v0 - v1) * (t - rise - width) / fall
                } else {
                    *v0
                }
            }
        }
    }
}

/// Stamps an ideal voltage source between `p` (positive) and `n`,
/// whose branch-current unknown is the context's branch 0; `source`
/// indexes the netlist's source values (which [`Waveform::Dc`] reads)
/// and waveforms.
pub(crate) fn stamp(p: NodeId, n: NodeId, source: SourceId, ctx: &mut StampContext<'_>) {
    let waveform = ctx.waveform(source);
    let value = match ctx.mode() {
        AnalysisMode::Dc => waveform.value_at(0.0, ctx.source_value(source)),
        AnalysisMode::Transient { time, .. } => {
            // Transient keeps full source amplitude (continuation is a
            // DC-only device).
            waveform.value_at(time, ctx.source_value(source))
        }
    };
    // Branch current flows from p through the source to n.
    ctx.mat_node_branch(p, 0, 1.0);
    ctx.mat_node_branch(n, 0, -1.0);
    ctx.mat_branch_node(0, p, 1.0);
    ctx.mat_branch_node(0, n, -1.0);
    ctx.rhs_branch(0, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcAnalysis;
    use crate::netlist::Netlist;

    #[test]
    fn fixes_node_voltage() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.8);
        nl.resistor("R", a, Netlist::GND, 50.0).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(a) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn branch_current_is_load_current() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("R", a, Netlist::GND, 100.0).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        let i = sol
            .branch_current(&nl, "V")
            .expect("voltage source has a branch");
        // 20 mA flows out of the source into the resistor; the branch
        // current convention is p -> n through the source, so it is
        // negative of the delivered current.
        assert!((i - (-0.02)).abs() < 1e-9);
    }

    #[test]
    fn stacked_sources() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.vsource("V2", b, a, 0.5);
        nl.resistor("R", b, Netlist::GND, 1.0e3).unwrap();
        let sol = DcAnalysis::new().operating_point(&nl).unwrap();
        assert!((sol.voltage(b) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
        };
        assert_eq!(w.value_at(0.0, 9.9), 0.0);
        assert_eq!(w.value_at(1.5, 9.9), 0.5);
        assert_eq!(w.value_at(3.0, 9.9), 1.0);
        assert_eq!(w.value_at(4.5, 9.9), 0.5);
        assert_eq!(w.value_at(10.0, 9.9), 0.0);
    }

    #[test]
    fn dc_waveform_reads_table() {
        let w = Waveform::Dc;
        assert_eq!(w.value_at(123.0, 0.7), 0.7);
    }
}
