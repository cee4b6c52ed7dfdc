//! Lumped device models.
//!
//! Every device implements [`Device`] and contributes its linearized
//! companion model to the MNA system through a
//! [`crate::mna::StampContext`]. Linear devices stamp the
//! same values every iteration; nonlinear devices linearize around the
//! current Newton estimate.

use std::fmt;

use crate::devices::diode::DiodeParams;
use crate::devices::mosfet::MosParams;
use crate::mna::StampContext;
use crate::netlist::{NodeId, ParamId, SourceId};

pub mod capacitor;
pub mod diode;
pub mod isource;
pub mod mosfet;
pub mod resistor;
pub mod switch;
pub mod vsource;

/// Complete description of one device: its terminals with their roles,
/// its model values, and the handles of the netlist table entries it
/// reads. Static analysis (the `erc` crate) reads it without access to
/// the stamping internals, and the block-Schur reduction compares kinds
/// to decide which blocks stamp identically (see [`Device::kind`]).
/// Terminal roles are explicit because connectivity rules treat them
/// differently: a MOSFET gate carries no DC current while its channel
/// does; a current source never provides a DC path.
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
        /// The value a time-varying waveform fixes at `t = 0`, which a
        /// DC analysis stamps in place of the source-table entry;
        /// `None` when the DC stamp reads the table.
        dc_override: Option<f64>,
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
        /// Model parameters.
        params: DiodeParams,
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
        /// Model card.
        params: MosParams,
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
        /// Control voltage at the centre of the on/off transition.
        threshold: f64,
        /// On-state conductance, siemens.
        g_on: f64,
        /// Off-state conductance, siemens.
        g_off: f64,
    },
}

/// A circuit element that can stamp itself into an MNA system.
pub trait Device: fmt::Debug + Send + Sync {
    /// Nodes this device connects to (used for diagnostics).
    fn nodes(&self) -> Vec<NodeId>;

    /// Structural kind, terminal roles and model values.
    ///
    /// Contract: `kind()` determines everything [`Device::stamp`] reads
    /// apart from the [`StampContext`], with one exception: a voltage
    /// source's waveform away from `t = 0`, which only transient
    /// stamps read. Two devices with equal kinds (model values
    /// compared bit for bit) stamp bit-identical DC values at equal
    /// terminal voltages, gmin, source scale and table entries; after
    /// renaming terminals the same holds position by position. Kinds
    /// that read a netlist table (resistance, source value) carry the
    /// table handle instead of the value. The block-Schur macromodel
    /// cache, which is DC-only, relies on this contract to share one
    /// block's evaluation with every block of equal kinds and equal
    /// inputs.
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

    use crate::matrix::DenseMatrix;
    use crate::mna::{assemble, AnalysisMode};
    use crate::netlist::Netlist;

    /// Adds one device of every type on terminals `t`, in a fixed
    /// order, so equal positions get equal table handles.
    type AddDevice = fn(&mut Netlist, [NodeId; 4]);

    fn every_device() -> Vec<(&'static str, AddDevice)> {
        vec![
            ("resistor", |nl, t| {
                nl.resistor("D", t[0], t[1], 4.7e3).unwrap();
            }),
            ("vsource", |nl, t| {
                nl.vsource("D", t[0], t[1], 0.8);
            }),
            ("isource", |nl, t| {
                nl.isource("D", t[0], t[1], 2.0e-6);
            }),
            ("capacitor", |nl, t| {
                nl.capacitor("D", t[0], t[1], 3.0e-15).unwrap()
            }),
            ("diode", |nl, t| {
                nl.diode("D", t[0], t[1], diode::DiodeParams::default())
                    .unwrap()
            }),
            ("mosfet", |nl, t| {
                nl.mosfet("D", t[0], t[1], t[2], mosfet::MosParams::nmos(2.0e-4, 0.55))
                    .unwrap()
            }),
            ("switch", |nl, t| {
                nl.switch("D", t[0], t[1], t[2], t[3], 0.5, 1.0e3, 1.0e9)
                    .unwrap()
            }),
        ]
    }

    /// Builds a netlist holding only `add`'s device on terminals named
    /// `t0..t3`, created after `decoys` other nodes and in `order`.
    /// Returns the netlist, the device's kind, and the unknown index of
    /// each terminal followed by the device's branch rows.
    fn lone(
        add: AddDevice,
        decoys: usize,
        order: [usize; 4],
    ) -> (Netlist, ElementKind, Vec<usize>) {
        let mut nl = Netlist::new();
        for d in 0..decoys {
            nl.node(&format!("decoy{d}"));
        }
        let mut t = [Netlist::GND; 4];
        for i in order {
            t[i] = nl.node(&format!("t{i}"));
        }
        add(&mut nl, t);
        let (_, kind) = nl.elements().next().expect("one device");
        let mut unknowns: Vec<usize> = t.iter().map(|n| n.index() - 1).collect();
        unknowns.extend(nl.num_nodes() - 1..nl.num_unknowns());
        (nl, kind, unknowns)
    }

    /// `kind` with every terminal replaced through `map`.
    fn renamed(kind: ElementKind, map: impl Fn(NodeId) -> NodeId) -> ElementKind {
        match kind {
            ElementKind::Resistor { p, n, resistance } => ElementKind::Resistor {
                p: map(p),
                n: map(n),
                resistance,
            },
            ElementKind::VoltageSource {
                p,
                n,
                source,
                dc_override,
            } => ElementKind::VoltageSource {
                p: map(p),
                n: map(n),
                source,
                dc_override,
            },
            ElementKind::CurrentSource { from, to, source } => ElementKind::CurrentSource {
                from: map(from),
                to: map(to),
                source,
            },
            ElementKind::Capacitor { p, n, farads } => ElementKind::Capacitor {
                p: map(p),
                n: map(n),
                farads,
            },
            ElementKind::Diode { p, n, params } => ElementKind::Diode {
                p: map(p),
                n: map(n),
                params,
            },
            ElementKind::Mosfet { d, g, s, params } => ElementKind::Mosfet {
                d: map(d),
                g: map(g),
                s: map(s),
                params,
            },
            ElementKind::Switch {
                p,
                n,
                ctrl_p,
                ctrl_n,
                threshold,
                g_on,
                g_off,
            } => ElementKind::Switch {
                p: map(p),
                n: map(n),
                ctrl_p: map(ctrl_p),
                ctrl_n: map(ctrl_n),
                threshold,
                g_on,
                g_off,
            },
        }
    }

    #[test]
    fn equal_kinds_after_renaming_stamp_bit_identically() {
        // The block-Schur memo shares one block's evaluation with every
        // block whose devices have equal kinds once terminals are
        // renamed to block-relative positions. That is sound only if
        // kind() pins everything stamp() reads besides the context.
        let volts = [0.83, 0.21, 0.55, 0.07];
        for (name, add) in every_device() {
            let (nl_a, kind_a, at_a) = lone(add, 0, [0, 1, 2, 3]);
            let (nl_b, kind_b, at_b) = lone(add, 3, [3, 1, 0, 2]);
            let to_a = |node: NodeId| {
                let i = at_b.iter().position(|&u| u + 1 == node.index()).unwrap();
                NodeId(at_a[i] + 1)
            };
            assert_eq!(renamed(kind_b, to_a), kind_a, "{name}");
            let stamp = |nl: &Netlist, at: &[usize]| {
                let mut x = nl.zero_state();
                for (&u, &v) in at.iter().zip(&volts) {
                    x[u] = v;
                }
                let mut m = DenseMatrix::zeros(nl.num_unknowns());
                let mut rhs = vec![0.0; nl.num_unknowns()];
                assemble(nl, &x, 0.0, 1.0, AnalysisMode::Dc, &mut m, &mut rhs);
                (m, rhs)
            };
            let (m_a, rhs_a) = stamp(&nl_a, &at_a);
            let (m_b, rhs_b) = stamp(&nl_b, &at_b);
            for (&ra, &rb) in at_a.iter().zip(&at_b) {
                assert_eq!(rhs_a[ra].to_bits(), rhs_b[rb].to_bits(), "{name} rhs");
                for (&ca, &cb) in at_a.iter().zip(&at_b) {
                    assert_eq!(
                        m_a.get(ra, ca).to_bits(),
                        m_b.get(rb, cb).to_bits(),
                        "{name} entry ({ra}, {ca})"
                    );
                }
            }
        }
    }

    #[test]
    fn one_changed_model_value_separates_kinds() {
        let kind_of = |add: &dyn Fn(&mut Netlist, [NodeId; 4])| {
            let mut nl = Netlist::new();
            let t = [nl.node("a"), nl.node("b"), nl.node("c"), nl.node("d")];
            add(&mut nl, t);
            let kind = nl.elements().next().expect("one device").1;
            kind
        };
        let card = mosfet::MosParams::nmos(2.0e-4, 0.55);
        let diode = diode::DiodeParams::default();
        let pulse = |v0: f64| vsource::Waveform::Pulse {
            v0,
            v1: 1.1,
            delay: 1.0e-9,
            rise: 1.0e-9,
            fall: 1.0e-9,
            width: 5.0e-9,
        };
        let pairs: [(&str, ElementKind, ElementKind); 4] = [
            (
                "mosfet vth0",
                kind_of(&|nl, t| nl.mosfet("M", t[0], t[1], t[2], card).unwrap()),
                kind_of(&|nl, t| {
                    nl.mosfet("M", t[0], t[1], t[2], card.with_vth_shift(1.0e-3))
                        .unwrap()
                }),
            ),
            (
                "diode i_sat",
                kind_of(&|nl, t| nl.diode("D", t[0], t[1], diode).unwrap()),
                kind_of(&|nl, t| {
                    let params = diode::DiodeParams {
                        i_sat: 2.0 * diode.i_sat,
                        ..diode
                    };
                    nl.diode("D", t[0], t[1], params).unwrap()
                }),
            ),
            (
                "switch threshold",
                kind_of(&|nl, t| {
                    nl.switch("S", t[0], t[1], t[2], t[3], 0.5, 1.0e3, 1.0e9)
                        .unwrap()
                }),
                kind_of(&|nl, t| {
                    nl.switch("S", t[0], t[1], t[2], t[3], 0.6, 1.0e3, 1.0e9)
                        .unwrap()
                }),
            ),
            (
                "waveform value at t = 0",
                kind_of(&|nl, t| {
                    nl.vsource_waveform("V", t[0], t[1], pulse(0.0)).unwrap();
                }),
                kind_of(&|nl, t| {
                    let v = nl.vsource_waveform("V", t[0], t[1], pulse(0.2)).unwrap();
                    // Same table entry: only the waveform differs.
                    nl.set_source(v, 0.0);
                }),
            ),
        ];
        for (what, base, changed) in pairs {
            assert_ne!(base, changed, "{what} must be visible in kind()");
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 1.0, 10.0, 100.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
