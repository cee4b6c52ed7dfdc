//! Analyzable circuit model.
//!
//! Rules do not walk [`anasim::Netlist`] directly: the builder API
//! validates its inputs, so netlists cannot express most of the broken
//! circuits the rules exist to catch, and the trait-object device list
//! hides terminal roles. Instead rules operate on a [`CircuitModel`] —
//! a plain-data snapshot that [`CircuitModel::from_netlist`] derives
//! from a real netlist and that tests can also construct by hand to
//! exercise the known-bad cases.

use anasim::devices::ElementKind;
use anasim::Netlist;

/// What a terminal pair contributes to DC connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeStrength {
    /// Connected only through a capacitor's 1 pS DC leak — enough to
    /// make the matrix non-singular, not enough to define a meaningful
    /// operating point.
    Weak,
    /// A real DC conduction path: resistor, voltage source, diode,
    /// switch channel, MOSFET channel (which always stamps its gmin).
    Strong,
}

/// Device category, mirroring [`ElementKind`] without the IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementClass {
    /// Linear resistor.
    Resistor,
    /// Ideal voltage source.
    VoltageSource,
    /// Ideal current source.
    CurrentSource,
    /// Capacitor.
    Capacitor,
    /// Junction diode.
    Diode,
    /// Three-terminal MOSFET (drain, gate, source).
    Mosfet,
    /// Voltage-controlled switch (p, n, ctrl_p, ctrl_n).
    Switch,
}

impl ElementClass {
    /// Lowercase display name used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ElementClass::Resistor => "resistor",
            ElementClass::VoltageSource => "voltage source",
            ElementClass::CurrentSource => "current source",
            ElementClass::Capacitor => "capacitor",
            ElementClass::Diode => "diode",
            ElementClass::Mosfet => "mosfet",
            ElementClass::Switch => "switch",
        }
    }
}

/// One device of a [`CircuitModel`]. `nodes` holds terminal indices in
/// the class's canonical order: resistor/vsource/capacitor/diode
/// `[p, n]`, current source `[from, to]`, mosfet `[d, g, s]`, switch
/// `[p, n, ctrl_p, ctrl_n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Device name, unique within the model.
    pub name: String,
    /// Device category.
    pub class: ElementClass,
    /// Terminal node indices (into [`CircuitModel::nodes`]).
    pub nodes: Vec<usize>,
    /// The scalar value when one exists: resistance in ohms, source
    /// value in volts/amps, capacitance in farads.
    pub value: Option<f64>,
    /// Description of a dangling table reference (parameter or source
    /// index outside its table). `None` for well-formed elements.
    pub bad_ref: Option<String>,
}

impl Element {
    /// DC conduction edges this element contributes, with their
    /// strength. Current sources contribute none (an ideal current
    /// source has infinite output impedance); MOSFET gates and switch
    /// control pairs only sense.
    pub fn conduction_edges(&self) -> Vec<(usize, usize, EdgeStrength)> {
        match self.class {
            ElementClass::Resistor | ElementClass::VoltageSource | ElementClass::Diode => {
                vec![(self.nodes[0], self.nodes[1], EdgeStrength::Strong)]
            }
            ElementClass::Switch => vec![(self.nodes[0], self.nodes[1], EdgeStrength::Strong)],
            // Channel gmin is always stamped, so drain–source is a real
            // (if tiny) DC path even for an off device.
            ElementClass::Mosfet => vec![(self.nodes[0], self.nodes[2], EdgeStrength::Strong)],
            ElementClass::Capacitor => {
                vec![(self.nodes[0], self.nodes[1], EdgeStrength::Weak)]
            }
            ElementClass::CurrentSource => vec![],
        }
    }

    /// Terminal indices that carry DC current (everything except MOSFET
    /// gates and switch control pairs). Current-source terminals count:
    /// they inject current even though they provide no path.
    pub fn current_terminals(&self) -> Vec<usize> {
        match self.class {
            ElementClass::Mosfet => vec![self.nodes[0], self.nodes[2]],
            ElementClass::Switch => vec![self.nodes[0], self.nodes[1]],
            _ => self.nodes.clone(),
        }
    }

    /// Sense-only terminals: a MOSFET's gate, a switch's control pair.
    pub fn sense_terminals(&self) -> Vec<usize> {
        match self.class {
            ElementClass::Mosfet => vec![self.nodes[1]],
            ElementClass::Switch => vec![self.nodes[2], self.nodes[3]],
            _ => vec![],
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
                let (class, node_ids, value, bad_ref) = match kind {
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
                    ElementKind::VoltageSource { p, n, source, .. } => {
                        let (value, bad_ref) = resolve_source(nl, source);
                        (
                            ElementClass::VoltageSource,
                            vec![p.index(), n.index()],
                            value,
                            bad_ref,
                        )
                    }
                    ElementKind::CurrentSource { from, to, source } => {
                        let (value, bad_ref) = resolve_source(nl, source);
                        (
                            ElementClass::CurrentSource,
                            vec![from.index(), to.index()],
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
                    ElementKind::Diode { p, n, .. } => {
                        (ElementClass::Diode, vec![p.index(), n.index()], None, None)
                    }
                    ElementKind::Mosfet { d, g, s, .. } => (
                        ElementClass::Mosfet,
                        vec![d.index(), g.index(), s.index()],
                        None,
                        None,
                    ),
                    ElementKind::Switch {
                        p,
                        n,
                        ctrl_p,
                        ctrl_n,
                        ..
                    } => (
                        ElementClass::Switch,
                        vec![p.index(), n.index(), ctrl_p.index(), ctrl_n.index()],
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

    /// Looks up an element by name.
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
        nl.isource("I", Netlist::GND, b, 1.0e-6);
        let m = CircuitModel::from_netlist(&nl);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.nodes[0], "0");
        assert_eq!(m.elements.len(), 4);
        let r = m.element("R").expect("resistor snapshotted");
        assert_eq!(r.class, ElementClass::Resistor);
        assert_eq!(r.value, Some(2.0e3));
        assert_eq!(r.nodes, vec![a.index(), b.index()]);
        let i = m.element("I").expect("isource snapshotted");
        assert_eq!(i.value, Some(1.0e-6));
        assert!(m.element("nope").is_none());
    }

    #[test]
    fn conduction_edges_respect_terminal_roles() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.mosfet("M", d, g, Netlist::GND, MosParams::nmos(1e-4, 0.4))
            .expect("valid card");
        nl.isource("I", Netlist::GND, d, 1e-6);
        let m = CircuitModel::from_netlist(&nl);
        let mos = m.element("M").expect("snapshotted");
        // Channel only: drain-source, strong.
        assert_eq!(
            mos.conduction_edges(),
            vec![(d.index(), 0, EdgeStrength::Strong)]
        );
        assert_eq!(mos.sense_terminals(), vec![g.index()]);
        let i = m.element("I").expect("snapshotted");
        assert!(i.conduction_edges().is_empty(), "isource is no DC path");
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
