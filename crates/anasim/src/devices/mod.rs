//! Lumped device models.
//!
//! A netlist stores each device as one [`ElementKind`] value: its
//! terminals with their roles, its own model value (a capacitance) and
//! the handles of the netlist table entries it reads (a resistance, a
//! source's value and waveform, a MOSFET model card). Static analysis
//! (the `erc` crate) reads the same value, and the block-Schur reduction
//! compares kinds to decide which blocks stamp identically. One `match`
//! sends each kind to its stamp routine in [`resistor`], [`capacitor`],
//! [`vsource`] or [`mosfet`], which contributes the linearized
//! companion model to the MNA system. Linear devices stamp the same
//! values every iteration; the MOSFET linearizes around the current
//! Newton estimate.

use crate::mna::StampContext;
use crate::netlist::{CardId, NodeId, ParamId, SourceId};

pub mod capacitor;
pub mod mosfet;
pub mod resistor;
pub mod vsource;

/// Complete description of one device, and all a stamp reads besides
/// the analysis state (mode, Newton estimate, continuation factors and
/// the netlist tables). So two devices with equal kinds (model values
/// compared bit for bit) stamp bit-identical values at equal terminal
/// voltages, gmin, source scale and table entries; after renaming
/// terminals the same holds position by position. Kinds that read a
/// netlist table (resistance, source value and waveform, model card)
/// carry the table handle instead of the value, which keeps every kind
/// at 32 bytes. Terminal roles are explicit because connectivity rules
/// treat them differently: a MOSFET gate carries no DC current while
/// its channel does.
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
    /// table unless its waveform, which sits beside the value, fixes it.
    VoltageSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Handle of the programmed voltage and its waveform.
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
    /// MOSFET; the drain–source channel conducts at DC, the gate does
    /// not.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate (no DC current).
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Handle of the model card.
        card: CardId,
    },
}

impl ElementKind {
    /// The terminal nodes, by value (no allocation): the first `count`
    /// entries of the array.
    pub(crate) fn terminals(&self) -> ([NodeId; 3], usize) {
        match *self {
            ElementKind::Resistor { p, n, .. }
            | ElementKind::VoltageSource { p, n, .. }
            | ElementKind::Capacitor { p, n, .. } => ([p, n, crate::Netlist::GND], 2),
            ElementKind::Mosfet { d, g, s, .. } => ([d, g, s], 3),
        }
    }

    /// A small discriminant code per kind for structural fingerprints;
    /// only distinctness matters.
    pub(crate) fn code(&self) -> u64 {
        match self {
            ElementKind::Resistor { .. } => 1,
            ElementKind::VoltageSource { .. } => 2,
            ElementKind::Capacitor { .. } => 4,
            ElementKind::Mosfet { .. } => 6,
        }
    }

    /// Number of auxiliary branch-current unknowns this device adds to
    /// the system (a voltage source contributes one).
    pub(crate) fn num_branches(&self) -> usize {
        match self {
            ElementKind::VoltageSource { .. } => 1,
            _ => 0,
        }
    }

    /// Whether the stamp depends on the solution estimate, requiring
    /// Newton iteration.
    pub(crate) fn is_nonlinear(&self) -> bool {
        matches!(self, ElementKind::Mosfet { .. })
    }

    /// Stamps the linearized model at the estimate carried by `ctx`.
    pub(crate) fn stamp(&self, ctx: &mut StampContext<'_>) {
        match self {
            ElementKind::Resistor { p, n, resistance } => resistor::stamp(*p, *n, *resistance, ctx),
            ElementKind::VoltageSource { p, n, source } => vsource::stamp(*p, *n, *source, ctx),
            ElementKind::Capacitor { p, n, farads } => capacitor::stamp(*p, *n, *farads, ctx),
            ElementKind::Mosfet { d, g, s, card } => mosfet::stamp(*d, *g, *s, *card, ctx),
        }
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

    use crate::matrix::DenseMatrix;
    use crate::mna::{assemble, AnalysisMode};
    use crate::netlist::Netlist;

    /// Adds one device of every kind on terminals `t`, in a fixed
    /// order, so equal positions get equal table handles.
    type AddDevice = fn(&mut Netlist, [NodeId; 3]);

    fn every_device() -> Vec<(&'static str, AddDevice)> {
        vec![
            ("resistor", |nl, t| {
                nl.resistor("D", t[0], t[1], 4.7e3).unwrap();
            }),
            ("vsource", |nl, t| {
                nl.vsource("D", t[0], t[1], 0.8);
            }),
            ("capacitor", |nl, t| {
                nl.capacitor("D", t[0], t[1], 3.0e-15).unwrap()
            }),
            ("mosfet", |nl, t| {
                nl.mosfet("D", t[0], t[1], t[2], mosfet::MosParams::nmos(2.0e-4, 0.55))
                    .unwrap()
            }),
        ]
    }

    /// Builds a netlist holding only `add`'s device on terminals named
    /// `t0..t2`, created after `decoys` other nodes and in `order`.
    /// Returns the netlist, the device's kind, and the unknown index of
    /// each terminal followed by the device's branch rows.
    fn lone(
        add: AddDevice,
        decoys: usize,
        order: [usize; 3],
    ) -> (Netlist, ElementKind, Vec<usize>) {
        let mut nl = Netlist::new();
        for d in 0..decoys {
            nl.node(&format!("decoy{d}"));
        }
        let mut t = [Netlist::GND; 3];
        for i in order {
            t[i] = nl.node(&format!("t{i}"));
        }
        add(&mut nl, t);
        let (_, &kind) = nl.elements().next().expect("one device");
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
            ElementKind::VoltageSource { p, n, source } => ElementKind::VoltageSource {
                p: map(p),
                n: map(n),
                source,
            },
            ElementKind::Capacitor { p, n, farads } => ElementKind::Capacitor {
                p: map(p),
                n: map(n),
                farads,
            },
            ElementKind::Mosfet { d, g, s, card } => ElementKind::Mosfet {
                d: map(d),
                g: map(g),
                s: map(s),
                card,
            },
        }
    }

    #[test]
    fn equal_kinds_after_renaming_stamp_bit_identically() {
        // The block-Schur memo shares one block's evaluation with every
        // block whose devices have equal kinds once terminals are
        // renamed to block-relative positions. That is sound only if a
        // stamp reads its terminals' positions and nothing else of the
        // node numbering.
        let volts = [0.83, 0.21, 0.55, 0.07];
        for (name, add) in every_device() {
            let (nl_a, kind_a, at_a) = lone(add, 0, [0, 1, 2]);
            let (nl_b, kind_b, at_b) = lone(add, 3, [2, 0, 1]);
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
    fn a_device_is_32_bytes() {
        assert_eq!(
            std::mem::size_of::<ElementKind>(),
            32,
            "a full array holds one ElementKind per device, 1.58 M of them at \
             4096x64: model cards and waveforms belong in netlist tables, and \
             a kind carries only terminals, handles and a capacitance"
        );
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 1.0, 10.0, 100.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
