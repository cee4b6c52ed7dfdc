//! The rule catalogue.
//!
//! Every rule owns one stable code (`ERC001`…); codes never change
//! meaning so tests, suppression lists, and grep stay valid across
//! releases. Generic rules live here; circuit-family rules (the
//! regulator's `ERC1xx` defect-site checks) implement [`Rule`] in
//! their own crates and run through the same engine.

use std::collections::HashMap;

use crate::connect::{ground_reachable, UnionFind};
use crate::diag::{Diagnostic, Report, Severity};
use crate::model::{CircuitModel, EdgeStrength, Element, ElementClass};

/// Resistances above this (10 TΩ) flirt with the solver's pivot floor
/// and the capacitor leak scale; the paper's own extreme values (the
/// 1 TΩ `Rload`, 10 GΩ junction leaks) stay well below it.
pub const EXTREME_RESISTANCE_OHMS: f64 = 1.0e13;

/// One electrical rule check.
pub trait Rule {
    /// Stable diagnostic code, e.g. `ERC001`.
    fn code(&self) -> &'static str;
    /// Short kebab-case rule name.
    fn name(&self) -> &'static str;
    /// One-line description for the rule catalogue (`lint --rules`).
    fn summary(&self) -> &'static str;
    /// Appends this rule's findings for `model` to `report`.
    fn check(&self, model: &CircuitModel, report: &mut Report);
}

/// Names of the devices with any terminal on `node`, in element order.
fn devices_touching(model: &CircuitModel, node: usize) -> Vec<String> {
    model
        .elements
        .iter()
        .filter(|e| e.nodes.contains(&node))
        .map(|e| e.name.clone())
        .collect()
}

/// ERC001: a node with no DC path to ground, even through capacitor
/// leakage. The MNA matrix is structurally singular at such a node.
pub struct FloatingNode;

impl Rule for FloatingNode {
    fn code(&self) -> &'static str {
        "ERC001"
    }
    fn name(&self) -> &'static str {
        "floating-node"
    }
    fn summary(&self) -> &'static str {
        "node has no DC path to ground (singular MNA matrix)"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let reach = ground_reachable(model, EdgeStrength::Weak, None);
        for (i, ok) in reach.iter().enumerate().skip(1) {
            if !ok {
                let name = model.node_name(i);
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!("node `{name}` has no DC path to ground"),
                    nodes: vec![name],
                    devices: devices_touching(model, i),
                    hint: Some(
                        "connect the node to ground through a resistor, source, or \
                         device channel; a gate terminal provides no DC path"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// ERC002: a loop of ideal voltage sources. The loop equation
/// over-determines the branch currents, so elimination finds no pivot.
pub struct VsourceLoop;

impl Rule for VsourceLoop {
    fn code(&self) -> &'static str {
        "ERC002"
    }
    fn name(&self) -> &'static str {
        "vsource-loop"
    }
    fn summary(&self) -> &'static str {
        "loop of ideal voltage sources over-determines branch currents"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let mut uf = UnionFind::new(model.num_nodes());
        let mut in_loop_graph: Vec<&Element> = Vec::new();
        for e in &model.elements {
            if e.class != ElementClass::VoltageSource {
                continue;
            }
            let (p, n) = (e.nodes[0], e.nodes[1]);
            if p == n || p >= model.num_nodes() || n >= model.num_nodes() {
                continue; // self-loops are ERC008's, bad refs ERC007's
            }
            if !uf.union(p, n) {
                let members: Vec<String> = in_loop_graph
                    .iter()
                    .map(|v| v.name.clone())
                    .chain(std::iter::once(e.name.clone()))
                    .collect();
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!(
                        "voltage source `{}` closes a loop of ideal voltage sources",
                        e.name
                    ),
                    nodes: vec![model.node_name(p), model.node_name(n)],
                    devices: members,
                    hint: Some(
                        "insert a series resistance or merge the sources; two ideal \
                         sources may not fix the same node pair"
                            .into(),
                    ),
                });
            }
            in_loop_graph.push(e);
        }
    }
}

/// ERC004: a dead-end node — exactly one device terminal attaches, so
/// no current can flow through that device. Solvable, but almost
/// always a netlist-entry mistake.
pub struct DanglingTerminal;

impl Rule for DanglingTerminal {
    fn code(&self) -> &'static str {
        "ERC004"
    }
    fn name(&self) -> &'static str {
        "dangling-terminal"
    }
    fn summary(&self) -> &'static str {
        "dead-end node: a single device terminal, so no current flows"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let degree = model.terminal_degree();
        let reach = ground_reachable(model, EdgeStrength::Weak, None);
        for i in 1..model.num_nodes() {
            // Unreachable dead ends are already ERC001 errors.
            if degree[i] == 1 && reach[i] {
                let name = model.node_name(i);
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Warning,
                    message: format!("node `{name}` is a dead end (one device terminal)"),
                    nodes: vec![name],
                    devices: devices_touching(model, i),
                    hint: Some(
                        "no current can flow into a one-terminal node; connect it \
                         or drop the device"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// ERC005: both conduction terminals of a device tie to the same node,
/// shorting it out.
pub struct ShortedDevice;

impl Rule for ShortedDevice {
    fn code(&self) -> &'static str {
        "ERC005"
    }
    fn name(&self) -> &'static str {
        "shorted-device"
    }
    fn summary(&self) -> &'static str {
        "device's conduction terminals tie to one node (device is a no-op)"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for e in &model.elements {
            let pair = match e.class {
                ElementClass::Resistor | ElementClass::Capacitor => (e.nodes[0], e.nodes[1]),
                ElementClass::Mosfet => (e.nodes[0], e.nodes[2]),
                // A self-shorted voltage source with nonzero value is
                // contradictory, not just useless: ERC008 owns it. At
                // exactly zero volts it degrades to a plain short.
                ElementClass::VoltageSource => {
                    if e.value.is_some_and(|v| v != 0.0) {
                        continue;
                    }
                    (e.nodes[0], e.nodes[1])
                }
            };
            if pair.0 == pair.1 {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Warning,
                    message: format!(
                        "both terminals of {} `{}` tie to node `{}`",
                        e.class.label(),
                        e.name,
                        model.node_name(pair.0)
                    ),
                    nodes: vec![model.node_name(pair.0)],
                    devices: vec![e.name.clone()],
                    hint: Some("the device conducts nothing; check the terminal order".into()),
                });
            }
        }
    }
}

/// ERC006: a non-finite or non-positive component value. The netlist
/// builder rejects these, but hand-built or foreign models can carry
/// them.
pub struct InvalidValue;

impl Rule for InvalidValue {
    fn code(&self) -> &'static str {
        "ERC006"
    }
    fn name(&self) -> &'static str {
        "invalid-value"
    }
    fn summary(&self) -> &'static str {
        "component value is NaN, infinite, or non-positive where positivity is required"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for e in &model.elements {
            let Some(v) = e.value else { continue };
            let bad = match e.class {
                ElementClass::Resistor | ElementClass::Capacitor => !v.is_finite() || v <= 0.0,
                ElementClass::VoltageSource => !v.is_finite(),
                ElementClass::Mosfet => false,
            };
            if bad {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!("{} `{}` has invalid value {v}", e.class.label(), e.name),
                    nodes: vec![],
                    devices: vec![e.name.clone()],
                    hint: Some("values must be finite; resistance/capacitance positive".into()),
                });
            }
        }
    }
}

/// ERC007: a terminal or table reference points outside the model —
/// a node index past the node table, or a parameter/source handle past
/// its table.
pub struct InvalidRef;

impl Rule for InvalidRef {
    fn code(&self) -> &'static str {
        "ERC007"
    }
    fn name(&self) -> &'static str {
        "invalid-ref"
    }
    fn summary(&self) -> &'static str {
        "terminal or parameter/source handle points outside its table"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for e in &model.elements {
            for &t in &e.nodes {
                if t >= model.num_nodes() {
                    report.push(Diagnostic {
                        code: self.code(),
                        severity: Severity::Error,
                        message: format!(
                            "{} `{}` references node #{t}, but the model has {} nodes",
                            e.class.label(),
                            e.name,
                            model.num_nodes()
                        ),
                        nodes: vec![],
                        devices: vec![e.name.clone()],
                        hint: Some("node handles must come from the same netlist".into()),
                    });
                }
            }
            if let Some(what) = &e.bad_ref {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!(
                        "{} `{}` carries a dangling table reference: {what}",
                        e.class.label(),
                        e.name
                    ),
                    nodes: vec![],
                    devices: vec![e.name.clone()],
                    hint: Some("parameter/source handles must come from the same netlist".into()),
                });
            }
        }
    }
}

/// ERC008: a topology whose singularity gmin regularization cannot
/// cure — today, a voltage source shorted onto itself while
/// programming a nonzero voltage (`0 = V` is contradictory no matter
/// how much shunt conductance is added).
pub struct GminUncoverable;

impl Rule for GminUncoverable {
    fn code(&self) -> &'static str {
        "ERC008"
    }
    fn name(&self) -> &'static str {
        "gmin-uncoverable"
    }
    fn summary(&self) -> &'static str {
        "contradictory topology that no gmin shunt can regularize"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for e in &model.elements {
            if e.class == ElementClass::VoltageSource
                && e.nodes[0] == e.nodes[1]
                && e.value.is_some_and(|v| v.is_finite() && v != 0.0)
            {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Error,
                    message: format!(
                        "voltage source `{}` programs {} V across a single node `{}`",
                        e.name,
                        e.value.unwrap_or(0.0),
                        model.node_name(e.nodes[0])
                    ),
                    nodes: vec![model.node_name(e.nodes[0])],
                    devices: vec![e.name.clone()],
                    hint: Some(
                        "the branch equation reads 0 = V; no rescue ladder stage can \
                         solve it — fix the terminals"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// ERC009: a resistance so large it approaches the LU pivot floor and
/// the capacitor-leak scale, risking ill-conditioning.
pub struct ExtremeResistance;

impl Rule for ExtremeResistance {
    fn code(&self) -> &'static str {
        "ERC009"
    }
    fn name(&self) -> &'static str {
        "extreme-resistance"
    }
    fn summary(&self) -> &'static str {
        "resistance above 10 TΩ risks ill-conditioned matrices"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        for e in &model.elements {
            if e.class == ElementClass::Resistor {
                if let Some(v) = e.value {
                    if v.is_finite() && v > EXTREME_RESISTANCE_OHMS {
                        report.push(Diagnostic {
                            code: self.code(),
                            severity: Severity::Warning,
                            message: format!(
                                "resistor `{}` is {v:.3e} Ω, above the {EXTREME_RESISTANCE_OHMS:.0e} Ω \
                                 conditioning guideline",
                                e.name
                            ),
                            nodes: vec![],
                            devices: vec![e.name.clone()],
                            hint: Some(
                                "conductance this small competes with the 1 pS capacitor \
                                 leak and the solver's pivot threshold"
                                    .into(),
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// ERC010: a MOSFET gate held only by capacitor leakage (no resistive
/// path to ground). The operating point then hinges on the 1 pS leak —
/// numerically defined, electrically meaningless.
pub struct FloatingGate;

impl Rule for FloatingGate {
    fn code(&self) -> &'static str {
        "ERC010"
    }
    fn name(&self) -> &'static str {
        "floating-gate"
    }
    fn summary(&self) -> &'static str {
        "MOSFET gate has no resistive DC path (bias set by capacitor leak)"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let strong = ground_reachable(model, EdgeStrength::Strong, None);
        let weak = ground_reachable(model, EdgeStrength::Weak, None);
        for e in &model.elements {
            if e.class != ElementClass::Mosfet {
                continue;
            }
            let g = e.nodes[1];
            // A fully unreachable gate is already an ERC001 error.
            if g < model.num_nodes() && weak[g] && !strong[g] {
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Warning,
                    message: format!(
                        "gate of `{}` (node `{}`) is biased only through capacitor leakage",
                        e.name,
                        model.node_name(g)
                    ),
                    nodes: vec![model.node_name(g)],
                    devices: vec![e.name.clone()],
                    hint: Some("drive the gate resistively or from a source".into()),
                });
            }
        }
    }
}

/// ERC011: a node that reaches ground only through capacitor leak
/// edges. Solvable thanks to the 1 pS DC leak, and sometimes
/// intentional (retention nodes!), hence only informational.
pub struct WeakOnlyNode;

impl Rule for WeakOnlyNode {
    fn code(&self) -> &'static str {
        "ERC011"
    }
    fn name(&self) -> &'static str {
        "weak-only-node"
    }
    fn summary(&self) -> &'static str {
        "node reaches ground only through capacitor DC leakage"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let strong = ground_reachable(model, EdgeStrength::Strong, None);
        let weak = ground_reachable(model, EdgeStrength::Weak, None);
        for i in 1..model.num_nodes() {
            if weak[i] && !strong[i] {
                let name = model.node_name(i);
                report.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Info,
                    message: format!("node `{name}` reaches ground only through capacitor leakage"),
                    nodes: vec![name],
                    devices: devices_touching(model, i),
                    hint: None,
                });
            }
        }
    }
}

/// ERC012: two or more devices share a name. The netlist stores device
/// names as labels and does not check them, so a reused name builds and
/// solves, but every report naming the device becomes ambiguous, and a
/// lookup by name (a branch current) finds only the first.
pub struct DuplicateName;

impl Rule for DuplicateName {
    fn code(&self) -> &'static str {
        "ERC012"
    }
    fn name(&self) -> &'static str {
        "duplicate-name"
    }
    fn summary(&self) -> &'static str {
        "several devices share one name (reports and lookups by name are ambiguous)"
    }
    fn check(&self, model: &CircuitModel, report: &mut Report) {
        let mut uses: HashMap<&str, usize> = HashMap::new();
        for e in &model.elements {
            *uses.entry(e.name.as_str()).or_default() += 1;
        }
        // One finding per reused name, in order of its first device.
        for e in &model.elements {
            let Some(count) = uses.remove(e.name.as_str()).filter(|&c| c > 1) else {
                continue;
            };
            report.push(Diagnostic {
                code: self.code(),
                severity: Severity::Error,
                message: format!("device name `{}` is used by {count} devices", e.name),
                nodes: vec![],
                devices: vec![e.name.clone()],
                hint: Some("give every device its own name".into()),
            });
        }
    }
}

/// The full generic rule set, in code order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatingNode),
        Box::new(VsourceLoop),
        Box::new(DanglingTerminal),
        Box::new(ShortedDevice),
        Box::new(InvalidValue),
        Box::new(InvalidRef),
        Box::new(GminUncoverable),
        Box::new(ExtremeResistance),
        Box::new(FloatingGate),
        Box::new(WeakOnlyNode),
        Box::new(DuplicateName),
    ]
}

/// Runs every default rule over a model.
pub fn check_model(model: &CircuitModel) -> Report {
    check_model_with(model, &default_rules())
}

/// Runs an explicit rule set over a model (how circuit-family rules
/// compose with the generic ones).
pub fn check_model_with(model: &CircuitModel, rules: &[Box<dyn Rule>]) -> Report {
    let mut report = Report::new();
    for rule in rules {
        rule.check(model, &mut report);
    }
    report
}

/// Snapshots a netlist and runs every default rule over it.
pub fn check_netlist(nl: &anasim::Netlist) -> Report {
    check_model(&CircuitModel::from_netlist(nl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anasim::devices::mosfet::MosParams;
    use anasim::Netlist;

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.codes()
    }

    fn model(nodes: &[&str], elements: Vec<Element>) -> CircuitModel {
        CircuitModel {
            nodes: nodes.iter().map(|s| s.to_string()).collect(),
            elements,
        }
    }

    fn el(name: &str, class: ElementClass, nodes: &[usize], value: Option<f64>) -> Element {
        Element {
            name: name.into(),
            class,
            nodes: nodes.to_vec(),
            value,
            bad_ref: None,
        }
    }

    #[test]
    fn clean_divider_has_no_findings() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, m, 1.0e3).expect("valid");
        nl.resistor("R2", m, Netlist::GND, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert!(report.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn erc001_fires_on_gate_only_node() {
        // The same topology the Newton solver reports as singular:
        // a node that only a MOSFET gate reaches.
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let c = nl.node("c");
        nl.vsource("V", d, Netlist::GND, 1.0);
        nl.mosfet("M1", d, c, Netlist::GND, MosParams::nmos(1e-4, 0.4))
            .expect("valid card");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC001"]);
        let d = report.first_error().expect("a floating node is an error");
        assert!(d.message.contains("`c`"), "{}", d.message);
        assert_eq!(d.devices, vec!["M1".to_string()]);
    }

    #[test]
    fn erc001_fires_on_declared_but_unused_node() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let _orphan = nl.node("orphan");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC001"]);
        assert!(report.render_text().contains("`orphan`"));
    }

    #[test]
    fn erc002_fires_on_parallel_vsources() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.vsource("V2", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert!(codes_of(&report).contains(&"ERC002"), "{:?}", report);
        let d = &report.diagnostics()[0];
        assert!(d.devices.contains(&"V1".to_string()));
        assert!(d.devices.contains(&"V2".to_string()));
    }

    #[test]
    fn erc002_fires_on_three_source_ring() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.vsource("V2", b, a, 0.5);
        nl.vsource("V3", b, Netlist::GND, 1.5);
        nl.resistor("R", b, Netlist::GND, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert!(codes_of(&report).contains(&"ERC002"), "{:?}", report);
    }

    #[test]
    fn stacked_vsources_are_not_a_loop() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.vsource("V2", b, a, 0.5);
        nl.resistor("R", b, Netlist::GND, 1.0e3).expect("valid");
        assert!(check_netlist(&nl).is_empty());
    }

    #[test]
    fn erc004_fires_on_dead_end_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let stub = nl.node("stub");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        nl.resistor("Rstub", a, stub, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC004"]);
        let d = &report.diagnostics()[0];
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`stub`"), "{}", d.message);
        assert!(d.devices.contains(&"Rstub".to_string()));
    }

    #[test]
    fn erc005_fires_on_self_shorted_resistor() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        nl.resistor("Rshort", a, a, 1.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC005"]);
        assert!(report.render_text().contains("Rshort"));
    }

    #[test]
    fn erc005_fires_on_drain_source_tied_mosfet() {
        let m = model(
            &["0", "a"],
            vec![
                el("V", ElementClass::VoltageSource, &[1, 0], Some(1.0)),
                el("M", ElementClass::Mosfet, &[1, 0, 1], None),
            ],
        );
        let report = check_model(&m);
        assert!(codes_of(&report).contains(&"ERC005"), "{:?}", report);
    }

    #[test]
    fn erc006_fires_on_hand_built_bad_values() {
        let m = model(
            &["0", "a", "b"],
            vec![
                el("V", ElementClass::VoltageSource, &[1, 0], Some(1.0)),
                el("Rneg", ElementClass::Resistor, &[1, 0], Some(-5.0)),
                el("Cnan", ElementClass::Capacitor, &[1, 0], Some(f64::NAN)),
                el(
                    "Vinf",
                    ElementClass::VoltageSource,
                    &[2, 0],
                    Some(f64::INFINITY),
                ),
            ],
        );
        let report = check_model(&m);
        let n = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "ERC006")
            .count();
        assert_eq!(n, 3, "{}", report.render_text());
        assert!(report.has_errors());
    }

    #[test]
    fn erc007_fires_on_out_of_range_terminal_and_bad_ref() {
        let mut bad = el("Rwild", ElementClass::Resistor, &[1, 9], Some(1.0e3));
        bad.bad_ref = Some("parameter #7 outside table of 1".into());
        let m = model(
            &["0", "a"],
            vec![
                el("V", ElementClass::VoltageSource, &[1, 0], Some(1.0)),
                el("R", ElementClass::Resistor, &[1, 0], Some(1.0e3)),
                bad,
            ],
        );
        let report = check_model(&m);
        let n = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "ERC007")
            .count();
        assert_eq!(n, 2, "{}", report.render_text());
    }

    #[test]
    fn erc008_fires_on_self_looped_nonzero_vsource() {
        // Constructible through the real builder: vsource() does not
        // validate terminal distinctness.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("Vgood", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        nl.vsource("Vloop", a, a, 1.0);
        let report = check_netlist(&nl);
        assert!(codes_of(&report).contains(&"ERC008"), "{:?}", report);
        assert!(report.has_errors());
        // Zero-volt self-loop degrades to the ERC005 warning instead.
        let m = model(
            &["0", "a"],
            vec![
                el("V", ElementClass::VoltageSource, &[1, 0], Some(1.0)),
                el("R", ElementClass::Resistor, &[1, 0], Some(1e3)),
                el("Vz", ElementClass::VoltageSource, &[1, 1], Some(0.0)),
            ],
        );
        let r2 = check_model(&m);
        assert!(codes_of(&r2).contains(&"ERC005"), "{:?}", r2);
        assert!(!codes_of(&r2).contains(&"ERC008"), "{:?}", r2);
    }

    #[test]
    fn erc009_fires_above_threshold_only() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        // The paper's own extremes must pass.
        nl.resistor("Rload", a, Netlist::GND, 1.0e12)
            .expect("valid");
        nl.resistor("Rjx", a, Netlist::GND, 1.0e10).expect("valid");
        assert!(check_netlist(&nl).is_empty());
        nl.resistor("Rwild", a, Netlist::GND, 1.0e15)
            .expect("valid");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC009"]);
        assert!(report.render_text().contains("Rwild"));
    }

    #[test]
    fn erc010_and_erc011_fire_on_cap_biased_gate() {
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("V", d, Netlist::GND, 1.0);
        nl.mosfet("M", d, g, Netlist::GND, MosParams::nmos(1e-4, 0.4))
            .expect("valid card");
        nl.capacitor("Cg", g, Netlist::GND, 1e-12).expect("valid");
        let report = check_netlist(&nl);
        let codes = codes_of(&report);
        assert!(codes.contains(&"ERC010"), "{codes:?}");
        assert!(codes.contains(&"ERC011"), "{codes:?}");
        // Both advisory: the netlist still passes pre-flight.
        assert!(!report.has_errors());
        assert!(report.reject_on_error().is_ok());
    }

    #[test]
    fn erc012_fires_once_per_reused_name() {
        // A hand-built model: `R1` names two devices, the rest are
        // distinct. Exactly one error, naming the reused name.
        let m = model(
            &["0", "a", "b"],
            vec![
                el("V1", ElementClass::VoltageSource, &[1, 0], Some(1.0)),
                el("R1", ElementClass::Resistor, &[1, 2], Some(1.0e3)),
                el("R1", ElementClass::Resistor, &[2, 0], Some(1.0e3)),
                el("R2", ElementClass::Resistor, &[2, 0], Some(1.0e3)),
            ],
        );
        let report = check_model(&m);
        assert_eq!(codes_of(&report), vec!["ERC012"]);
        let d = report.first_error().expect("a reused name is an error");
        assert_eq!(d.devices, vec!["R1".to_string()]);
        assert!(
            d.message.contains("`R1` is used by 2 devices"),
            "{}",
            d.message
        );
        // A netlist built with a reused label is rejected in pre-flight.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        nl.resistor("R", a, Netlist::GND, 2.0e3).expect("valid");
        let report = check_netlist(&nl);
        assert_eq!(codes_of(&report), vec!["ERC012"]);
        assert!(report.reject_on_error().is_err());
    }

    #[test]
    fn rule_catalogue_is_complete_and_distinct() {
        let rules = default_rules();
        assert_eq!(rules.len(), 11);
        let mut codes: Vec<&str> = rules.iter().map(|r| r.code()).collect();
        assert!(codes.iter().all(|c| c.starts_with("ERC")));
        codes.dedup();
        assert_eq!(codes.len(), 11, "codes must be unique");
        for r in &rules {
            assert!(!r.name().is_empty());
            assert!(!r.summary().is_empty());
        }
    }
}
