//! Circuit description: nodes, devices, and the tables they read.
//!
//! A [`Netlist`] owns a set of named nodes and a list of devices. A
//! device holds its terminals and handles into small tables, which keep
//! it a few words long and make repeated analyses cheap:
//!
//! * source values live in a table indexed by [`SourceId`], so a DC sweep
//!   can move a supply without rebuilding the circuit; each source's
//!   [`Waveform`] sits beside its value;
//! * scalar device parameters (today: resistances) live in a table
//!   indexed by [`ParamId`], which is how the regulator defect
//!   characterization sweeps a single injected open resistance over nine
//!   decades without reconstructing the amplifier;
//! * MOSFET model cards live in a table indexed by [`CardId`] that holds
//!   each distinct card once, so the million transistors of a full array
//!   share the handful of cards they use.
//!
//! Device names are labels: the netlist neither indexes nor checks
//! them, and the ERC rule ERC012 reports a name two devices share.

use std::fmt;

use crate::devices::mosfet::MosParams;
use crate::devices::vsource::Waveform;
use crate::devices::ElementKind;
use crate::error::Error;
use crate::mna::{fnv, STRUCTURAL_FP_SEED};
use crate::names::{Labels, NameTable};

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
    pub fn unknown_index(self) -> Option<usize> {
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

/// Handle to an entry in the netlist's MOSFET model-card table. Within
/// one netlist, two devices hold the same handle exactly when their
/// cards are equal bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CardId(pub(crate) u32);

impl CardId {
    /// Dense index into the card table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A complete circuit: nodes, devices, and their adjustable values.
///
/// Each device is one [`ElementKind`] value in a single vector, node
/// names live in one interned table (indexed by [`NodeId::index`]) and
/// device names in one label store (indexed by device insertion order),
/// so building a million-device array netlist makes no allocation per
/// device, only amortized growth of a few buffers, and dropping it
/// frees no per-device memory.
#[derive(Debug, Default)]
pub struct Netlist {
    node_names: NameTable,
    devices: Vec<ElementKind>,
    device_names: Labels,
    /// Each voltage source's value, in device order: every source
    /// device allocates exactly one entry, and its branch-current
    /// unknown is that entry's index counted after the node unknowns.
    sources: Vec<f64>,
    /// Each source's waveform, parallel to `sources`.
    waveforms: Vec<Waveform>,
    params: Vec<f64>,
    cards: CardTable,
}

/// Marks a free slot of the card index.
const FREE_CARD: u32 = u32::MAX;

/// Index size of the first card.
const MIN_CARD_SLOTS: usize = 16;

/// FNV-1a over a card's words, folded so the high half of the product
/// reaches the probe position.
fn card_hash(words: &[u64; 9]) -> usize {
    let h = words.iter().fold(STRUCTURAL_FP_SEED, |h, &w| fnv(h, w));
    (h ^ (h >> 32)) as usize
}

/// The netlist's MOSFET model cards, each distinct card once, found
/// through an open-addressing index on their hash: interning a device's
/// card costs the same whatever the table holds, and allocates only
/// when the table grows.
#[derive(Debug, Default)]
struct CardTable {
    cards: Vec<MosParams>,
    /// Card ids by hash, linear probing; a power of two in size, at most
    /// half full, and empty until the first card.
    slots: Vec<u32>,
}

impl CardTable {
    /// The handle of the card equal to `card` bit for bit, adding `card`
    /// first if there is none. A card is validated once, when added, so
    /// an invalid card is rejected at every device that uses it.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidValue`] naming `device` for an invalid new card.
    fn intern(&mut self, device: &str, card: &MosParams) -> Result<CardId, Error> {
        if 2 * (self.cards.len() + 1) > self.slots.len() {
            self.grow();
        }
        let words = card.words();
        let mask = self.slots.len() - 1;
        let mut pos = card_hash(&words) & mask;
        loop {
            match self.slots[pos] {
                FREE_CARD => break,
                id if self.cards[id as usize].words() == words => return Ok(CardId(id)),
                _ => pos = (pos + 1) & mask,
            }
        }
        card.validate(device)?;
        let id = u32::try_from(self.cards.len())
            .ok()
            .filter(|&i| i != FREE_CARD)
            .expect("more than u32::MAX - 1 model cards");
        self.cards.push(*card);
        self.slots[pos] = id;
        Ok(CardId(id))
    }

    /// Doubles the index and re-places every card.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(MIN_CARD_SLOTS);
        let mask = size - 1;
        let mut slots = vec![FREE_CARD; size];
        for (id, card) in self.cards.iter().enumerate() {
            let mut pos = card_hash(&card.words()) & mask;
            while slots[pos] != FREE_CARD {
                pos = (pos + 1) & mask;
            }
            slots[pos] = id as u32;
        }
        self.slots = slots;
    }
}

impl Netlist {
    /// The ground node, present in every netlist.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// As [`Netlist::new`], with room for `nodes` nodes besides ground
    /// and `devices` devices: the node-name index, the device labels'
    /// offsets and the device tables are sized up front, so a builder
    /// that knows its counts never re-places a node name on the way. A
    /// capacity hint only: ids, names and lookups are those of a netlist
    /// grown from [`Netlist::new`].
    pub fn with_capacity(nodes: usize, devices: usize) -> Self {
        let mut node_names = NameTable::with_capacity(nodes + 1);
        let ground = node_names.insert("0");
        debug_assert_eq!(ground, Ok(Self::GND.0));
        Netlist {
            node_names,
            devices: Vec::with_capacity(devices),
            device_names: Labels::with_capacity(devices),
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

    /// Number of auxiliary branch-current unknowns: one per voltage
    /// source.
    pub fn num_branches(&self) -> usize {
        self.sources.len()
    }

    /// Total unknown count of the MNA system.
    pub fn num_unknowns(&self) -> usize {
        self.num_nodes() - 1 + self.num_branches()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Returns `true` if any device requires Newton iteration.
    pub fn is_nonlinear(&self) -> bool {
        self.devices.iter().any(|d| d.is_nonlinear())
    }

    /// Appends `device` under the label `name`, which is not checked
    /// against the names already in use.
    fn register(&mut self, name: &str, device: ElementKind) {
        self.device_names.push(name);
        self.devices.push(device);
    }

    /// The index of `device`'s first branch unknown within the full
    /// unknown vector: a voltage source's one branch follows the node
    /// unknowns at its source-table index, and any other device owns the
    /// empty range at the start of the branch block.
    fn branch_offset(&self, device: &ElementKind) -> usize {
        let node_unknowns = self.num_nodes() - 1;
        match device {
            ElementKind::VoltageSource { source, .. } => node_unknowns + source.index(),
            _ => node_unknowns,
        }
    }

    /// Iterates over `(device, absolute_branch_offset)` pairs. The offset
    /// is the index of the device's first branch unknown within the full
    /// unknown vector.
    pub(crate) fn devices_with_offsets(&self) -> impl Iterator<Item = (&ElementKind, usize)> + '_ {
        self.devices.iter().map(|d| (d, self.branch_offset(d)))
    }

    /// Device `index` (insertion order) with its absolute branch offset,
    /// as one item of [`Netlist::devices_with_offsets`].
    pub(crate) fn device_with_offset(&self, index: usize) -> (&ElementKind, usize) {
        let device = &self.devices[index];
        (device, self.branch_offset(device))
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
    /// (e.g. a voltage source), if it has one. Device names carry no
    /// index, so the lookup scans them, in time linear in the device
    /// count; of several devices sharing the name, the first counts.
    pub fn branch_unknown(&self, device_name: &str) -> Option<usize> {
        let idx = self.device_names.iter().position(|n| n == device_name)?;
        let device = &self.devices[idx];
        (device.num_branches() > 0).then(|| self.branch_offset(device))
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
    pub fn elements(&self) -> impl Iterator<Item = (&str, &ElementKind)> + '_ {
        self.device_names.iter().zip(&self.devices)
    }

    /// Number of entries in the source-value table.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of entries in the device-parameter table.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of distinct MOSFET model cards.
    pub fn num_cards(&self) -> usize {
        self.cards.cards.len()
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
        let owner = self.devices.iter().position(|d| {
            matches!(d, ElementKind::VoltageSource { source, .. } if source.index() == i - node_unknowns)
        });
        match owner {
            Some(idx) => format!("branch current of `{}`", self.device_name(idx)),
            None => format!("unknown #{i}"),
        }
    }

    // ------------------------------------------------------------------
    // Source / parameter tables
    // ------------------------------------------------------------------

    fn alloc_source(&mut self, value: f64, waveform: Waveform) -> SourceId {
        self.sources.push(value);
        self.waveforms.push(waveform);
        SourceId(self.sources.len() - 1)
    }

    fn alloc_param(&mut self, value: f64) -> ParamId {
        self.params.push(value);
        ParamId(self.params.len() - 1)
    }

    /// Updates the value of a voltage source.
    pub fn set_source(&mut self, id: SourceId, value: f64) {
        self.sources[id.0] = value;
    }

    /// Reads the value of a voltage source.
    pub fn source(&self, id: SourceId) -> f64 {
        self.sources[id.0]
    }

    /// The waveform of a voltage source.
    pub(crate) fn waveform(&self, id: SourceId) -> &Waveform {
        &self.waveforms[id.0]
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

    pub(crate) fn waveforms_slice(&self) -> &[Waveform] {
        &self.waveforms
    }

    pub(crate) fn cards_slice(&self) -> &[MosParams] {
        &self.cards.cards
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
    /// resistance.
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
        let resistance = self.alloc_param(ohms);
        self.register(name, ElementKind::Resistor { p, n, resistance });
        Ok(resistance)
    }

    /// Adds an ideal DC voltage source (positive terminal `p`). Returns
    /// the handle used to change its value with [`Netlist::set_source`].
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, volts: f64) -> SourceId {
        let source = self.alloc_source(volts, Waveform::Dc);
        self.register(name, ElementKind::VoltageSource { p, n, source });
        source
    }

    /// Adds a voltage source with an explicit time-domain waveform for
    /// transient analysis. At DC the waveform's value at `t = 0` is used.
    pub fn vsource_waveform(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        waveform: Waveform,
    ) -> SourceId {
        let source = self.alloc_source(waveform.value_at(0.0, 0.0), waveform);
        self.register(name, ElementKind::VoltageSource { p, n, source });
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
        self.register(name, ElementKind::Capacitor { p, n, farads });
        Ok(())
    }

    /// Adds a MOSFET with terminals drain/gate/source. Its card joins
    /// the card table unless an equal one is there already.
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
        let card = self.cards.intern(name, &params)?;
        self.register(
            name,
            ElementKind::Mosfet {
                d: drain,
                g: gate,
                s: source,
                card,
            },
        );
        Ok(())
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
    fn reused_device_label_is_kept_for_both_devices() {
        // Device names are labels: the builder accepts a reused one
        // (ERC012 reports it), each device keeps its own copy, and a
        // lookup by name finds the first.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, Netlist::GND, 100.0).unwrap();
        nl.resistor("R1", a, Netlist::GND, 200.0).unwrap();
        nl.vsource("V1", a, Netlist::GND, 2.0);
        assert_eq!(nl.num_devices(), 4);
        assert_eq!(nl.device_name(1), "R1");
        assert_eq!(nl.device_name(2), "R1");
        assert_eq!(nl.device_name(3), "V1");
        assert_eq!(nl.branch_unknown("V1"), Some(1));
        assert_eq!(nl.unknown_label(2), "branch current of `V1`");
    }

    #[test]
    fn equal_cards_share_one_id_and_invalid_cards_never_join() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let card = MosParams::nmos(2.0e-4, 0.55);
        let mut nudged = card;
        nudged.vth0 = f64::from_bits(card.vth0.to_bits() + 1);
        for (name, c) in [("M1", card), ("M2", nudged), ("M3", card), ("M4", nudged)] {
            nl.mosfet(name, a, a, Netlist::GND, c).unwrap();
        }
        let ids: Vec<CardId> = nl
            .elements()
            .map(|(_, kind)| match *kind {
                ElementKind::Mosfet { card, .. } => card,
                _ => unreachable!("only MOSFETs were added"),
            })
            .collect();
        assert_eq!(ids[0], ids[2], "equal cards share one id");
        assert_eq!(ids[1], ids[3]);
        assert_ne!(ids[0], ids[1], "a card one bit apart gets its own id");
        assert_eq!(nl.num_cards(), 2);
        assert_eq!(nl.cards_slice()[ids[1].index()].words(), nudged.words());
        // An invalid card is not added, so each device that uses it is
        // rejected under its own name.
        let bad = MosParams::nmos(-1.0, 0.55);
        for name in ["Mbad", "Mbad2"] {
            match nl.mosfet(name, a, a, Netlist::GND, bad) {
                Err(Error::InvalidValue { device, .. }) => assert_eq!(device, name),
                other => panic!("expected InvalidValue for {name}, got {other:?}"),
            }
        }
        assert_eq!((nl.num_devices(), nl.num_cards()), (4, 2));
    }

    #[test]
    fn card_ids_survive_index_growth() {
        // 1,000 distinct cards grow the card index six times; adding
        // each again finds the id it got first.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let card = |i: usize| MosParams::nmos(2.0e-4, 0.3 + i as f64 * 1.0e-4);
        for round in 0..2 {
            for i in 0..1000 {
                nl.mosfet(&format!("M{round}_{i}"), a, a, Netlist::GND, card(i))
                    .unwrap();
            }
        }
        assert_eq!(nl.num_cards(), 1000);
        let ids: Vec<usize> = nl
            .elements()
            .map(|(_, kind)| match *kind {
                ElementKind::Mosfet { card, .. } => card.index(),
                _ => unreachable!("only MOSFETs were added"),
            })
            .collect();
        assert_eq!(ids[..1000], ids[1000..]);
        assert!(ids[..1000].iter().copied().eq(0..1000));
        assert_eq!(nl.cards_slice()[999].words(), card(999).words());
    }

    #[test]
    fn name_tables_round_trip_through_many_index_growths() {
        // 100k node names force the node index through a dozen
        // doublings, or fill a presized netlist's index to its
        // half-full limit; every lookup must still return what was
        // inserted, in both directions. Device names are unindexed
        // labels, kept in order, repeats included.
        const N: usize = 100_000;
        let grown = round_trip::<N>(Netlist::new());
        let presized = round_trip::<N>(Netlist::with_capacity(N, N + 1));
        assert!(grown.node_names().eq(presized.node_names()));
        assert!(grown.elements().eq(presized.elements()));
        assert_eq!(grown.num_unknowns(), presized.num_unknowns());
    }

    /// Fills `nl` with `N` named nodes and `N + 1` named devices, then
    /// three more devices under reused names, and checks every lookup.
    fn round_trip<const N: usize>(mut nl: Netlist) -> Netlist {
        let nodes: Vec<NodeId> = (0..N).map(|i| nl.node(&format!("n{i}"))).collect();
        for (i, &node) in nodes.iter().enumerate() {
            nl.resistor(&format!("R{i}"), node, Netlist::GND, 1.0e3)
                .expect("valid resistance");
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
        // A reused device name is accepted and labels the new device.
        for (k, name) in ["R0", "R54321", "V"].into_iter().enumerate() {
            nl.resistor(name, nodes[1], Netlist::GND, 1.0)
                .expect("labels may repeat");
            assert_eq!(nl.device_name(N + 1 + k), name);
        }
        assert_eq!(nl.num_devices(), N + 4);
        // The first device of a name is the one found.
        assert_eq!(nl.branch_unknown("V"), Some(N));
        assert_eq!(nl.branch_unknown("R7"), None);
        assert_eq!(nl.unknown_label(N), "branch current of `V`");
        assert_eq!(nl.unknown_label(41), "node `n41`");
        nl
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
        let v1 = nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, b, 10.0).unwrap();
        let v2 = nl.vsource_waveform("V2", b, Netlist::GND, Waveform::Dc);
        assert_eq!(nl.num_branches(), 2);
        // Two non-ground nodes + two branch currents.
        assert_eq!(nl.num_unknowns(), 4);
        assert_eq!(nl.branch_unknown("V1"), Some(2));
        assert_eq!(nl.branch_unknown("V2"), Some(3));
        assert_eq!(nl.branch_unknown("R1"), None);
        assert_eq!(nl.branch_unknown("Vnope"), None);
        // Only sources own branches: one per source-table entry, the
        // entry's index counted after the node unknowns.
        assert_eq!(nl.num_branches(), nl.num_sources());
        for (name, id) in [("V1", v1), ("V2", v2)] {
            let branch = nl.num_nodes() - 1 + id.index();
            assert_eq!(nl.branch_unknown(name), Some(branch));
            assert_eq!(
                nl.unknown_label(branch),
                format!("branch current of `{name}`")
            );
        }
        assert_eq!(nl.unknown_label(4), "unknown #4");
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
        let card = MosParams::nmos(2.0e-4, 0.55);
        nl.mosfet("M1", a, a, Netlist::GND, card).unwrap();
        assert!(nl.is_nonlinear());
    }
}
