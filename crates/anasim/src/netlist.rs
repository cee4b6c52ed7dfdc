//! Circuit description: nodes, devices, and mutable parameter tables.
//!
//! A [`Netlist`] owns a set of named nodes and a list of devices. Two
//! small indirection tables make repeated analyses cheap:
//!
//! * source values live in a table indexed by [`SourceId`], so a DC sweep
//!   can move a supply without rebuilding the circuit;
//! * scalar device parameters (today: resistances) live in a table
//!   indexed by [`ParamId`], which is how the regulator defect
//!   characterization sweeps a single injected open resistance over nine
//!   decades without reconstructing the amplifier.

use std::fmt;

use crate::devices::capacitor::Capacitor;
use crate::devices::diode::{Diode, DiodeParams};
use crate::devices::isource::CurrentSource;
use crate::devices::mosfet::{MosParams, Mosfet};
use crate::devices::resistor::Resistor;
use crate::devices::switch::Switch;
use crate::devices::vsource::{VoltageSource, Waveform};
use crate::devices::{Device, ElementKind};
use crate::error::Error;
use crate::names::NameTable;

/// Identifies a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// Dense index of this node (ground is 0). Stable for the lifetime
    /// of the netlist; used by static analysis to index per-node tables.
    pub fn index(self) -> usize {
        self.0
    }

    /// Index of this node's voltage in a solution vector, or `None` for
    /// ground (whose voltage is fixed at zero).
    pub(crate) fn unknown_index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to an entry in the netlist's source-value table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

impl SourceId {
    /// Dense index into the source table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to an entry in the netlist's device-parameter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index into the parameter table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A complete circuit: nodes, devices, and their adjustable values.
///
/// Node and device names live in one interned table per namespace
/// (indexed by [`NodeId::index`] and by device insertion order), not in
/// the devices themselves, so building a million-device array netlist
/// costs one allocation per device (its boxed model) and dropping it
/// frees no per-name strings.
#[derive(Debug, Default)]
pub struct Netlist {
    node_names: NameTable,
    devices: Vec<Box<dyn Device>>,
    device_names: NameTable,
    /// First branch-unknown index (counted from 0 among branches) per
    /// device, parallel to `devices`.
    branch_starts: Vec<usize>,
    num_branches: usize,
    sources: Vec<f64>,
    params: Vec<f64>,
}

impl Netlist {
    /// The ground node, present in every netlist.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        let mut node_names = NameTable::default();
        let ground = node_names.insert("0");
        debug_assert_eq!(ground, Ok(Self::GND.0));
        Netlist {
            node_names,
            ..Netlist::default()
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The name `"0"` always refers to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        match self.node_names.insert(name) {
            Ok(id) | Err(id) => NodeId(id),
        }
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names.find(name).map(NodeId)
    }

    /// Name of a node (ground is `"0"`).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this netlist.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node_names.get(node.0)
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of auxiliary branch-current unknowns.
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// Total unknown count of the MNA system.
    pub fn num_unknowns(&self) -> usize {
        self.num_nodes() - 1 + self.num_branches
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if any device requires Newton iteration.
    pub fn is_nonlinear(&self) -> bool {
        self.devices.iter().any(|d| d.is_nonlinear())
    }

    fn register(&mut self, name: &str, device: Box<dyn Device>) -> Result<(), Error> {
        if self.device_names.insert(name).is_err() {
            return Err(Error::DuplicateDevice(name.to_string()));
        }
        self.branch_starts.push(self.num_branches);
        self.num_branches += device.num_branches();
        self.devices.push(device);
        Ok(())
    }

    /// Iterates over `(device, absolute_branch_offset)` pairs. The offset
    /// is the index of the device's first branch unknown within the full
    /// unknown vector.
    pub(crate) fn devices_with_offsets(&self) -> impl Iterator<Item = (&dyn Device, usize)> + '_ {
        let node_unknowns = self.num_nodes() - 1;
        self.devices
            .iter()
            .zip(&self.branch_starts)
            .map(move |(d, &s)| (d.as_ref(), node_unknowns + s))
    }

    /// Device `index` (insertion order) with its absolute branch offset,
    /// as one item of [`Netlist::devices_with_offsets`].
    pub(crate) fn device_with_offset(&self, index: usize) -> (&dyn Device, usize) {
        (
            self.devices[index].as_ref(),
            self.num_nodes() - 1 + self.branch_starts[index],
        )
    }

    /// Returns a zeroed warm-start vector of the right dimension for
    /// this netlist, to be filled in with [`Netlist::set_guess`].
    pub fn zero_state(&self) -> Vec<f64> {
        vec![0.0; self.num_unknowns()]
    }

    /// Writes a voltage guess for `node` into a warm-start vector
    /// (no-op for ground). Used to pick a stable state of bistable
    /// circuits such as an SRAM cell.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension for this netlist.
    pub fn set_guess(&self, x: &mut [f64], node: NodeId, volts: f64) {
        assert_eq!(
            x.len(),
            self.num_unknowns(),
            "guess vector has wrong dimension"
        );
        if let Some(i) = node.unknown_index() {
            x[i] = volts;
        }
    }

    /// Absolute unknown index of the branch current of the named device
    /// (e.g. a voltage source), if it has one.
    pub fn branch_unknown(&self, device_name: &str) -> Option<usize> {
        let idx = self.device_names.find(device_name)?;
        if self.devices[idx].num_branches() == 0 {
            return None;
        }
        Some(self.num_nodes() - 1 + self.branch_starts[idx])
    }

    // ------------------------------------------------------------------
    // Structural introspection (static analysis)
    // ------------------------------------------------------------------

    /// Node names in [`NodeId::index`] order; the first is ground
    /// (`"0"`).
    pub fn node_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.node_names.iter()
    }

    /// Name of the device at insertion index `index` (the position of
    /// its entry in [`Netlist::elements`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`Netlist::num_devices`].
    pub fn device_name(&self, index: usize) -> &str {
        self.device_names.get(index)
    }

    /// Iterates over `(name, kind)` of every device in insertion order.
    pub fn elements(&self) -> impl Iterator<Item = (&str, ElementKind)> + '_ {
        self.device_names
            .iter()
            .zip(&self.devices)
            .map(|(name, d)| (name, d.kind()))
    }

    /// Number of entries in the source-value table.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of entries in the device-parameter table.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Human-readable label of MNA unknown `i`: the node name for a
    /// voltage unknown, or ``branch current of `<device>` `` for an
    /// auxiliary branch. Falls back to `unknown #<i>` when `i` is out of
    /// range (e.g. a label requested for a foreign system).
    pub fn unknown_label(&self, i: usize) -> String {
        let node_unknowns = self.num_nodes() - 1;
        if i < node_unknowns {
            return format!("node `{}`", self.node_names.get(i + 1));
        }
        let branch = i - node_unknowns;
        for (idx, (dev, &start)) in self.devices.iter().zip(&self.branch_starts).enumerate() {
            let n = dev.num_branches();
            if n > 0 && branch >= start && branch < start + n {
                return format!("branch current of `{}`", self.device_name(idx));
            }
        }
        format!("unknown #{i}")
    }

    // ------------------------------------------------------------------
    // Source / parameter tables
    // ------------------------------------------------------------------

    pub(crate) fn alloc_source(&mut self, value: f64) -> SourceId {
        self.sources.push(value);
        SourceId(self.sources.len() - 1)
    }

    pub(crate) fn alloc_param(&mut self, value: f64) -> ParamId {
        self.params.push(value);
        ParamId(self.params.len() - 1)
    }

    /// Updates the value of a voltage or current source.
    pub fn set_source(&mut self, id: SourceId, value: f64) {
        self.sources[id.0] = value;
    }

    /// Reads the value of a voltage or current source.
    pub fn source(&self, id: SourceId) -> f64 {
        self.sources[id.0]
    }

    /// Updates a scalar device parameter (for a resistor: its resistance
    /// in ohms).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite and positive — parameter updates
    /// follow the same validation as the original constructor.
    pub fn set_param(&mut self, id: ParamId, value: f64) {
        assert!(
            value.is_finite() && value > 0.0,
            "parameter value must be finite and positive, got {value}"
        );
        self.params[id.0] = value;
    }

    /// Reads a scalar device parameter.
    pub fn param(&self, id: ParamId) -> f64 {
        self.params[id.0]
    }

    pub(crate) fn sources_slice(&self) -> &[f64] {
        &self.sources
    }

    pub(crate) fn params_slice(&self) -> &[f64] {
        &self.params
    }

    // ------------------------------------------------------------------
    // Device constructors
    // ------------------------------------------------------------------

    /// Adds a resistor between `p` and `n` and returns the handle to its
    /// resistance parameter (see [`Netlist::set_param`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a non-finite or non-positive
    /// resistance and [`Error::DuplicateDevice`] for a reused name.
    pub fn resistor(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ohms: f64,
    ) -> Result<ParamId, Error> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("resistance must be finite and positive, got {ohms}"),
            });
        }
        let param = self.alloc_param(ohms);
        self.register(name, Box::new(Resistor::new(p, n, param)))?;
        Ok(param)
    }

    /// Adds an ideal DC voltage source (positive terminal `p`). Returns
    /// the handle used to change its value with [`Netlist::set_source`].
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, volts: f64) -> SourceId {
        let source = self.alloc_source(volts);
        let dev = VoltageSource::new(p, n, source, Waveform::Dc);
        self.register(name, Box::new(dev))
            .expect("duplicate voltage source name");
        source
    }

    /// Adds a voltage source with an explicit time-domain waveform for
    /// transient analysis. At DC the waveform's value at `t = 0` is used.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateDevice`] for a reused name.
    pub fn vsource_waveform(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        waveform: Waveform,
    ) -> Result<SourceId, Error> {
        let source = self.alloc_source(waveform.value_at(0.0, 0.0));
        let dev = VoltageSource::new(p, n, source, waveform);
        self.register(name, Box::new(dev))?;
        Ok(source)
    }

    /// Adds an ideal current source driving `amps` from `from` through
    /// the source into `to`.
    pub fn isource(&mut self, name: &str, from: NodeId, to: NodeId, amps: f64) -> SourceId {
        let source = self.alloc_source(amps);
        self.register(name, Box::new(CurrentSource::new(from, to, source)))
            .expect("duplicate current source name");
        source
    }

    /// Adds a capacitor. In DC analyses it contributes only a tiny
    /// leakage conductance to keep otherwise-floating nodes solvable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] for a non-finite or non-positive
    /// capacitance.
    pub fn capacitor(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        farads: f64,
    ) -> Result<(), Error> {
        if !(farads.is_finite() && farads > 0.0) {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("capacitance must be finite and positive, got {farads}"),
            });
        }
        self.register(name, Box::new(Capacitor::new(p, n, farads)))
    }

    /// Adds a junction diode (anode `p`, cathode `n`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] if the parameters are out of
    /// range.
    pub fn diode(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        params: DiodeParams,
    ) -> Result<(), Error> {
        params.validate(name)?;
        self.register(name, Box::new(Diode::new(p, n, params)))
    }

    /// Adds a MOSFET with terminals drain/gate/source.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] if the parameters are out of
    /// range.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        params: MosParams,
    ) -> Result<(), Error> {
        params.validate(name)?;
        self.register(name, Box::new(Mosfet::new(drain, gate, source, params)))
    }

    /// Adds a smooth voltage-controlled switch: conductance interpolates
    /// between `1/r_off` and `1/r_on` as the control voltage
    /// `V(ctrl_p) - V(ctrl_n)` crosses `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] if either resistance is
    /// non-positive.
    #[allow(clippy::too_many_arguments)]
    pub fn switch(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ctrl_p: NodeId,
        ctrl_n: NodeId,
        threshold: f64,
        r_on: f64,
        r_off: f64,
    ) -> Result<(), Error> {
        if !(r_on.is_finite() && r_on > 0.0 && r_off.is_finite() && r_off > 0.0) {
            return Err(Error::InvalidValue {
                device: name.to_string(),
                what: format!("switch resistances must be positive, got {r_on}/{r_off}"),
            });
        }
        self.register(
            name,
            Box::new(Switch::new(p, n, ctrl_p, ctrl_n, threshold, r_on, r_off)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_preexists() {
        let nl = Netlist::new();
        assert_eq!(nl.num_nodes(), 1);
        assert_eq!(nl.find_node("0"), Some(Netlist::GND));
        assert!(Netlist::GND.is_ground());
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        assert_eq!(a, a2);
        assert_eq!(nl.num_nodes(), 2);
        assert_eq!(nl.node_name(a), "a");
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GND, 100.0).unwrap();
        assert!(matches!(
            nl.resistor("R1", a, Netlist::GND, 100.0),
            Err(Error::DuplicateDevice(_))
        ));
    }

    #[test]
    fn name_tables_round_trip_through_many_index_growths() {
        // 100k names per namespace force the interned indexes through a
        // dozen doublings; every lookup must still return what was
        // inserted, in both directions.
        const N: usize = 100_000;
        let mut nl = Netlist::new();
        let nodes: Vec<NodeId> = (0..N).map(|i| nl.node(&format!("n{i}"))).collect();
        for (i, &node) in nodes.iter().enumerate() {
            nl.resistor(&format!("R{i}"), node, Netlist::GND, 1.0e3)
                .expect("unique name");
        }
        nl.vsource("V", nodes[0], Netlist::GND, 1.0);
        assert_eq!(nl.num_nodes(), N + 1);
        assert_eq!(nl.num_devices(), N + 1);
        for (i, &node) in nodes.iter().enumerate() {
            let name = format!("n{i}");
            assert_eq!(node.index(), i + 1);
            assert_eq!(nl.find_node(&name), Some(node));
            assert_eq!(nl.node(&name), node, "re-adding a node is idempotent");
            assert_eq!(nl.node_name(node), name);
            assert_eq!(nl.device_name(i), format!("R{i}"));
        }
        assert_eq!(nl.num_nodes(), N + 1);
        assert_eq!(nl.find_node("n100000"), None);
        assert!(nl
            .node_names()
            .eq(std::iter::once("0".to_string()).chain((0..N).map(|i| format!("n{i}")))));
        assert!(nl
            .elements()
            .map(|(name, _)| name)
            .eq((0..N).map(|i| format!("R{i}")).chain(["V".to_string()])));
        // Ground keeps its name and id.
        assert_eq!(nl.find_node("0"), Some(Netlist::GND));
        assert_eq!(nl.node("0"), Netlist::GND);
        assert_eq!(nl.node_name(Netlist::GND), "0");
        // A reused device name is rejected and adds no device.
        for name in ["R0", "R54321", "V"] {
            match nl.resistor(name, nodes[1], Netlist::GND, 1.0) {
                Err(Error::DuplicateDevice(dup)) => assert_eq!(dup, name),
                other => panic!("expected DuplicateDevice for {name}, got {other:?}"),
            }
        }
        assert_eq!(nl.num_devices(), N + 1);
        assert_eq!(nl.branch_unknown("V"), Some(N));
        assert_eq!(nl.branch_unknown("R7"), None);
        assert_eq!(nl.unknown_label(N), "branch current of `V`");
        assert_eq!(nl.unknown_label(41), "node `n41`");
    }

    #[test]
    fn invalid_resistance_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                nl.resistor("Rbad", a, Netlist::GND, bad),
                Err(Error::InvalidValue { .. })
            ));
        }
    }

    #[test]
    fn branch_bookkeeping() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, b, 10.0).unwrap();
        nl.vsource("V2", b, Netlist::GND, 0.5);
        assert_eq!(nl.num_branches(), 2);
        // Two non-ground nodes + two branch currents.
        assert_eq!(nl.num_unknowns(), 4);
        assert_eq!(nl.branch_unknown("V1"), Some(2));
        assert_eq!(nl.branch_unknown("V2"), Some(3));
        assert_eq!(nl.branch_unknown("R1"), None);
        assert_eq!(nl.branch_unknown("Vnope"), None);
    }

    #[test]
    fn source_table_roundtrip() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let v = nl.vsource("V1", a, Netlist::GND, 1.0);
        assert_eq!(nl.source(v), 1.0);
        nl.set_source(v, 2.5);
        assert_eq!(nl.source(v), 2.5);
    }

    #[test]
    fn param_table_roundtrip() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R1", a, Netlist::GND, 100.0).unwrap();
        assert_eq!(nl.param(r), 100.0);
        nl.set_param(r, 1.0e6);
        assert_eq!(nl.param(r), 1.0e6);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn param_update_validates() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R1", a, Netlist::GND, 100.0).unwrap();
        nl.set_param(r, -5.0);
    }

    #[test]
    fn nonlinearity_detection() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GND, 100.0).unwrap();
        assert!(!nl.is_nonlinear());
        nl.diode("D1", a, Netlist::GND, DiodeParams::default())
            .unwrap();
        assert!(nl.is_nonlinear());
    }
}
