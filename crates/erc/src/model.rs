//! Analyzable circuit model.
//!
//! Rules do not walk [`anasim::Netlist`] directly: the builder API
//! validates its inputs, so netlists cannot express most of the broken
//! circuits the rules exist to catch. Instead rules operate on a
//! [`CircuitModel`] — a plain-data snapshot that
//! [`CircuitModel::from_netlist`] derives from a real netlist and that
//! tests can also construct by hand to exercise the known-bad cases.

use anasim::devices::ElementKind;
use anasim::Netlist;

/// What a terminal pair contributes to DC connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeStrength {
    /// Connected only through a capacitor's 1 pS DC leak — enough to
    /// make the matrix non-singular, not enough to define a meaningful
    /// operating point.
    Weak,
    /// A real DC conduction path: resistor, voltage source, MOSFET
    /// channel (which always stamps its gmin).
    Strong,
}

/// Device category, mirroring [`ElementKind`] without the IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementClass {
    /// Linear resistor.
    Resistor,
    /// Ideal voltage source.
    VoltageSource,
    /// Capacitor.
    Capacitor,
    /// Three-terminal MOSFET (drain, gate, source).
    Mosfet,
}

impl ElementClass {
    /// Lowercase display name used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ElementClass::Resistor => "resistor",
            ElementClass::VoltageSource => "voltage source",
            ElementClass::Capacitor => "capacitor",
            ElementClass::Mosfet => "mosfet",
        }
    }
}

/// One device of a [`CircuitModel`]. `nodes` holds terminal indices in
/// the class's canonical order: resistor/vsource/capacitor `[p, n]`,
/// mosfet `[d, g, s]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Device name; ERC012 reports a name two elements share.
    pub name: String,
    /// Device category.
    pub class: ElementClass,
    /// Terminal node indices (into [`CircuitModel::nodes`]).
    pub nodes: Vec<usize>,
    /// The scalar value when one exists: resistance in ohms, source
    /// value in volts, capacitance in farads.
    pub value: Option<f64>,
    /// Description of a dangling table reference (parameter or source
    /// index outside its table). `None` for well-formed elements.
    pub bad_ref: Option<String>,
}

impl Element {
    /// The DC conduction edge this element contributes, with its
    /// strength. A MOSFET gate only senses.
    pub fn conduction_edges(&self) -> Vec<(usize, usize, EdgeStrength)> {
        match self.class {
            ElementClass::Resistor | ElementClass::VoltageSource => {
                vec![(self.nodes[0], self.nodes[1], EdgeStrength::Strong)]
            }
            // Channel gmin is always stamped, so drain–source is a real
            // (if tiny) DC path even for an off device.
            ElementClass::Mosfet => vec![(self.nodes[0], self.nodes[2], EdgeStrength::Strong)],
            ElementClass::Capacitor => {
                vec![(self.nodes[0], self.nodes[1], EdgeStrength::Weak)]
            }
        }
    }

    /// Terminal indices that carry DC current (everything except a
    /// MOSFET's gate).
    pub fn current_terminals(&self) -> Vec<usize> {
        match self.class {
            ElementClass::Mosfet => vec![self.nodes[0], self.nodes[2]],
            _ => self.nodes.clone(),
        }
    }
}

/// Plain-data snapshot of a circuit for rule checking. Node 0 is
/// ground, as in [`Netlist`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CircuitModel {
    /// Node names indexed by node number; entry 0 is ground.
    pub nodes: Vec<String>,
    /// All devices.
    pub elements: Vec<Element>,
}

impl CircuitModel {
    /// Snapshots a netlist. Parameter and source handles are resolved
    /// to their current values; an out-of-range handle (impossible via
    /// the builder API, but expressible by a foreign ID) becomes a
    /// [`Element::bad_ref`] for ERC007 to report.
    pub fn from_netlist(nl: &Netlist) -> Self {
        let nodes: Vec<String> = nl.node_names().map(str::to_string).collect();
        let elements = nl
            .elements()
            .map(|(name, kind)| {
                let (class, node_ids, value, bad_ref) = match *kind {
                    ElementKind::Resistor { p, n, resistance } => {
                        let (value, bad_ref) = if resistance.index() < nl.num_params() {
                            (Some(nl.param(resistance)), None)
                        } else {
                            (
                                None,
                                Some(format!(
                                    "parameter #{} outside table of {}",
                                    resistance.index(),
                                    nl.num_params()
                                )),
                            )
                        };
                        (
                            ElementClass::Resistor,
                            vec![p.index(), n.index()],
                            value,
                            bad_ref,
                        )
                    }
                    ElementKind::VoltageSource { p, n, source } => {
                        let (value, bad_ref) = resolve_source(nl, source);
                        (
                            ElementClass::VoltageSource,
                            vec![p.index(), n.index()],
                            value,
                            bad_ref,
                        )
                    }
                    ElementKind::Capacitor { p, n, farads } => (
                        ElementClass::Capacitor,
                        vec![p.index(), n.index()],
                        Some(farads),
                        None,
                    ),
                    ElementKind::Mosfet { d, g, s, .. } => (
                        ElementClass::Mosfet,
                        vec![d.index(), g.index(), s.index()],
                        None,
                        None,
                    ),
                };
                Element {
                    name: name.to_string(),
                    class,
                    nodes: node_ids,
                    value,
                    bad_ref,
                }
            })
            .collect();
        CircuitModel { nodes, elements }
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Display name of node `i`, or a synthetic `node#<i>` for an
    /// out-of-range index (which ERC007 reports separately).
    pub fn node_name(&self, i: usize) -> String {
        self.nodes
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("node#{i}"))
    }

    /// Looks up the first element with the given name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// Per-node count of attached device terminals (every terminal
    /// counts, sense-only included). Out-of-range terminal indices are
    /// skipped — ERC007 owns those.
    pub fn terminal_degree(&self) -> Vec<usize> {
        let mut degree = vec![0usize; self.nodes.len()];
        for e in &self.elements {
            for &t in &e.nodes {
                if let Some(slot) = degree.get_mut(t) {
                    *slot += 1;
                }
            }
        }
        degree
    }
}

fn resolve_source(nl: &Netlist, id: anasim::SourceId) -> (Option<f64>, Option<String>) {
    if id.index() < nl.num_sources() {
        (Some(nl.source(id)), None)
    } else {
        (
            None,
            Some(format!(
                "source #{} outside table of {}",
                id.index(),
                nl.num_sources()
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::devices::mosfet::MosParams;

    #[test]
    fn snapshot_of_small_netlist() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, Netlist::GND, 1.8);
        nl.resistor("R", a, b, 2.0e3).expect("valid resistor");
        nl.capacitor("C", b, Netlist::GND, 1.0e-12)
            .expect("valid capacitor");
        let m = CircuitModel::from_netlist(&nl);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.nodes[0], "0");
        assert_eq!(m.elements.len(), 3);
        let r = m.element("R").expect("resistor snapshotted");
        assert_eq!(r.class, ElementClass::Resistor);
        assert_eq!(r.value, Some(2.0e3));
        assert_eq!(r.nodes, vec![a.index(), b.index()]);
        let v = m.element("V").expect("vsource snapshotted");
        assert_eq!(v.value, Some(1.8));
        assert!(m.element("nope").is_none());
    }

    #[test]
    fn conduction_edges_respect_terminal_roles() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.mosfet("M", d, g, Netlist::GND, MosParams::nmos(1e-4, 0.4))
            .expect("valid card");
        let m = CircuitModel::from_netlist(&nl);
        let mos = m.element("M").expect("snapshotted");
        // Channel only: drain-source, strong; the gate carries no
        // current.
        assert_eq!(
            mos.conduction_edges(),
            vec![(d.index(), 0, EdgeStrength::Strong)]
        );
        assert_eq!(mos.current_terminals(), vec![d.index(), 0]);
    }

    #[test]
    fn terminal_degree_counts_every_terminal() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        let m = CircuitModel::from_netlist(&nl);
        let deg = m.terminal_degree();
        assert_eq!(deg[0], 2, "ground touches both devices");
        assert_eq!(deg[a.index()], 2);
    }

    #[test]
    fn weak_edge_for_capacitor() {
        let e = Element {
            name: "C".into(),
            class: ElementClass::Capacitor,
            nodes: vec![1, 0],
            value: Some(1e-12),
            bad_ref: None,
        };
        assert_eq!(e.conduction_edges(), vec![(1, 0, EdgeStrength::Weak)]);
    }

    #[test]
    fn node_name_survives_out_of_range() {
        let m = CircuitModel {
            nodes: vec!["0".into(), "a".into()],
            elements: vec![],
        };
        assert_eq!(m.node_name(1), "a");
        assert_eq!(m.node_name(7), "node#7");
    }
}
