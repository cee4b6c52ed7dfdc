//! Lumped device models.
//!
//! Every device implements [`Device`] and contributes its linearized
//! companion model to the MNA system through a
//! [`crate::mna::StampContext`]. Linear devices stamp the
//! same values every iteration; nonlinear devices linearize around the
//! current Newton estimate.

use std::fmt;

use crate::mna::StampContext;
use crate::netlist::{NodeId, ParamId, SourceId};

pub mod capacitor;
pub mod diode;
pub mod isource;
pub mod mosfet;
pub mod resistor;
pub mod switch;
pub mod vsource;

/// Structural description of one device, exposed for static analysis
/// (the `erc` crate) without giving rule code access to the stamping
/// internals. Terminal roles are explicit because connectivity rules
/// treat them differently: a MOSFET gate carries no DC current while
/// its channel does; a current source never provides a DC path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElementKind {
    /// Linear resistor between `p` and `n`; resistance read from the
    /// netlist parameter table.
    Resistor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Handle of the resistance value.
        resistance: ParamId,
    },
    /// Ideal voltage source (`p` positive); value read from the source
    /// table.
    VoltageSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Handle of the programmed voltage.
        source: SourceId,
    },
    /// Ideal current source driving from `from` into `to`.
    CurrentSource {
        /// Terminal the current is pulled from.
        from: NodeId,
        /// Terminal the current is driven into.
        to: NodeId,
        /// Handle of the programmed current.
        source: SourceId,
    },
    /// Capacitor (a tiny leak at DC, `C/dt` companion in transient).
    Capacitor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Capacitance, farads.
        farads: f64,
    },
    /// Junction diode, anode `p`, cathode `n`.
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
    },
    /// MOSFET; the drain–source channel conducts at DC, the gate does
    /// not.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate (no DC current).
        g: NodeId,
        /// Source.
        s: NodeId,
    },
    /// Voltage-controlled switch; `p`–`n` conducts, the control pair
    /// only senses.
    Switch {
        /// Switched terminal.
        p: NodeId,
        /// Switched terminal.
        n: NodeId,
        /// Control sense terminal (positive).
        ctrl_p: NodeId,
        /// Control sense terminal (negative).
        ctrl_n: NodeId,
    },
}

/// A circuit element that can stamp itself into an MNA system.
pub trait Device: fmt::Debug + Send + Sync {
    /// Nodes this device connects to (used for diagnostics).
    fn nodes(&self) -> Vec<NodeId>;

    /// Structural kind and terminal roles, for static analysis.
    fn kind(&self) -> ElementKind;

    /// Number of auxiliary branch-current unknowns this device adds to
    /// the system (voltage sources contribute one; most devices none).
    fn num_branches(&self) -> usize {
        0
    }

    /// Whether the stamp depends on the solution estimate, requiring
    /// Newton iteration.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Stamps the linearized model at the estimate carried by `ctx`.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// `(p, n, farads)` when the device contributes a capacitance to
    /// AC analysis (only [`capacitor::Capacitor`] today).
    fn capacitance(&self) -> Option<(NodeId, NodeId, f64)> {
        None
    }
}

/// Numerically safe softplus `ln(1 + e^x)`, used by the EKV MOSFET and
/// exported for the SRAM crate's analytic checks.
///
/// ```
/// use anasim::devices::softplus;
/// assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
/// assert!((softplus(50.0) - 50.0).abs() < 1e-9); // linear branch
/// assert!(softplus(-50.0) > 0.0); // strictly positive
/// ```
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid `1 / (1 + e^-x)`, the derivative of [`softplus`].
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_limits() {
        assert!(softplus(-100.0).abs() < 1e-12);
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(700.0).is_finite());
        assert!(softplus(-700.0).is_finite());
    }

    #[test]
    fn sigmoid_is_derivative_of_softplus() {
        for &x in &[-5.0, -1.0, 0.0, 0.5, 3.0, 20.0] {
            let h = 1e-6;
            let numeric = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!(
                (numeric - sigmoid(x)).abs() < 1e-6,
                "mismatch at x = {x}: {numeric} vs {}",
                sigmoid(x)
            );
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 1.0, 10.0, 100.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
