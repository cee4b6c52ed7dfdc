//! Modified nodal analysis assembly.
//!
//! Devices do not see the matrix directly; they stamp through a
//! `StampContext`, which hides the ground-elimination bookkeeping and
//! exposes the linearization state (current Newton estimate, source
//! scaling for continuation, previous time point for transient companion
//! models).
//!
//! A system below [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD)
//! unknowns is assembled into a [`DenseMatrix`]. A larger one is never
//! staged densely: its [`StampPlan`] numbers, for every entry a device
//! or gmin can write, the slot of the sparse LU's CSC (compressed sparse
//! column) values that entry lands in, and each stamp adds straight
//! into its slot, in the order the dense assembly would add into the
//! entry, so both hold the same bits.

use crate::devices::mosfet::MosParams;
use crate::devices::vsource::Waveform;
use crate::devices::ElementKind;
use crate::matrix::{DenseMatrix, LuStructure};
use crate::netlist::{CardId, Netlist, NodeId, ParamId, SourceId};
use crate::sparse::CscPattern;

/// Most unknowns one device stamps at: three terminals, or two and a
/// branch row.
const MAX_DEVICE_UNKNOWNS: usize = 4;

/// The unknowns a device stamps at, in the order its slot tables list
/// them: its non-ground terminals, then its branch rows. Every stamp of
/// the device lands on their cross product.
#[inline]
pub(crate) fn device_unknowns(
    kind: &ElementKind,
    branch_offset: usize,
) -> ([usize; MAX_DEVICE_UNKNOWNS], usize) {
    let mut unknowns = [0; MAX_DEVICE_UNKNOWNS];
    let mut count = 0;
    let (terminals, terminal_count) = kind.terminals();
    for i in terminals[..terminal_count]
        .iter()
        .filter_map(|t| t.unknown_index())
        .chain(branch_offset..branch_offset + kind.num_branches())
    {
        unknowns[count] = i;
        count += 1;
    }
    (unknowns, count)
}

/// Which analysis is currently being assembled.
#[derive(Debug, Clone, Copy)]
pub enum AnalysisMode<'a> {
    /// DC operating point (capacitors open, waveforms at `t = 0`).
    Dc,
    /// One backward-Euler transient step ending at `time`, integrating
    /// from the previous solution vector.
    Transient {
        /// Step size in seconds.
        dt: f64,
        /// Absolute time at the end of the step.
        time: f64,
        /// Solution vector of the previous accepted time point.
        prev: &'a [f64],
    },
}

/// Where a stamp's matrix and right-hand-side entries land: the
/// monolithic dense MNA system, the reduced interface system of the
/// block-Schur path, or one block's local system. Devices never see the
/// distinction — they stamp global (row, col) coordinates and the sink
/// routes them.
#[derive(Debug)]
pub(crate) enum MatrixSink<'a> {
    /// The classic dense system; [`MatrixSink::add`] forwards to
    /// [`DenseMatrix::add`] unchanged, keeping this path bit-identical
    /// to pre-partitioned assembly.
    Dense {
        matrix: &'a mut DenseMatrix,
        rhs: &'a mut [f64],
    },
    /// The reduced interface system of the block-Schur path, in
    /// interface numbering. Only interface-only devices stamp here.
    Interface {
        plan: &'a crate::schur::PartitionPlan,
        matrix: &'a mut DenseMatrix,
        rhs: &'a mut [f64],
    },
    /// One block's devices: stamps touching a block unknown go to the
    /// block's local system (block unknowns first, then its boundary),
    /// stamps purely on the boundary are recorded on the tape, in
    /// stamping order.
    Block {
        plan: &'a crate::schur::PartitionPlan,
        block: usize,
        matrix: &'a mut DenseMatrix,
        rhs: &'a mut [f64],
        tape: &'a mut Vec<crate::schur::TapeEntry>,
    },
    /// One device of a system at or above
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD), monolithic
    /// or a reduced interface: its stamps add into CSC value slots.
    Slots(&'a mut SlotStamps<'a>),
}

/// One device's stamps into the CSC value slots of a sparse system: the
/// device's unknowns as [`device_unknowns`] lists them, the
/// right-hand-side row of each, and, row-major over the unknowns, the
/// value slot of each entry.
#[derive(Debug)]
pub(crate) struct SlotStamps<'a> {
    values: &'a mut [f64],
    rhs: &'a mut [f64],
    unknowns: [usize; MAX_DEVICE_UNKNOWNS],
    rhs_rows: [usize; MAX_DEVICE_UNKNOWNS],
    count: usize,
    slots: &'a [u32],
}

impl<'a> SlotStamps<'a> {
    /// The stamps of a device with `unknowns` (of which the first
    /// `count` count) and entry slots `slots`, whose right-hand side
    /// rows are `rhs_row` of each unknown.
    pub(crate) fn new(
        values: &'a mut [f64],
        rhs: &'a mut [f64],
        (unknowns, count): ([usize; MAX_DEVICE_UNKNOWNS], usize),
        rhs_row: impl Fn(usize) -> usize,
        slots: &'a [u32],
    ) -> Self {
        debug_assert_eq!(slots.len(), count * count);
        let mut rhs_rows = [0; MAX_DEVICE_UNKNOWNS];
        for (row, &g) in rhs_rows.iter_mut().zip(&unknowns[..count]) {
            *row = rhs_row(g);
        }
        SlotStamps {
            values,
            rhs,
            unknowns,
            rhs_rows,
            count,
            slots,
        }
    }

    /// Position of global unknown `g` among the device's unknowns.
    #[inline]
    fn position(&self, g: usize) -> usize {
        self.unknowns[..self.count]
            .iter()
            .position(|&u| u == g)
            .expect("a device stamps only at its own unknowns")
    }

    /// Adds a matrix stamp at global `(row, col)` into its slot. Kept
    /// out of line, as `PartitionPlan::stamp_block_entry` is: the dense
    /// arm of the shared sink carries every small-system stamp, and
    /// inlining this next to it would bloat every device's stamping
    /// code.
    #[cold]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        let slot = self.slots[self.position(row) * self.count + self.position(col)];
        self.values[slot as usize] += value;
    }

    /// As [`SlotStamps::add`], for a right-hand-side stamp at global
    /// `row`.
    #[cold]
    fn add_rhs(&mut self, row: usize, value: f64) {
        self.rhs[self.rhs_rows[self.position(row)]] += value;
    }
}

impl MatrixSink<'_> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        match self {
            MatrixSink::Dense { matrix, .. } => matrix.add(row, col, value),
            MatrixSink::Interface { plan, matrix, .. } => {
                matrix.add(plan.iface_index(row), plan.iface_index(col), value)
            }
            MatrixSink::Block {
                plan,
                block,
                matrix,
                tape,
                ..
            } => plan.stamp_block_entry(*block, row, col, value, matrix, tape),
            MatrixSink::Slots(stamps) => stamps.add(row, col, value),
        }
    }

    #[inline]
    fn add_rhs(&mut self, row: usize, value: f64) {
        match self {
            MatrixSink::Dense { rhs, .. } => rhs[row] += value,
            MatrixSink::Interface { plan, rhs, .. } => rhs[plan.iface_index(row)] += value,
            MatrixSink::Block {
                plan,
                block,
                rhs,
                tape,
                ..
            } => plan.stamp_block_rhs(*block, row, value, rhs, tape),
            MatrixSink::Slots(stamps) => stamps.add_rhs(row, value),
        }
    }
}

/// Mutable view through which a device stamps its linearized companion
/// model into the MNA system, reading the netlist's tables.
#[derive(Debug)]
pub(crate) struct StampContext<'a> {
    sink: MatrixSink<'a>,
    x: &'a [f64],
    sources: &'a [f64],
    waveforms: &'a [Waveform],
    params: &'a [f64],
    cards: &'a [MosParams],
    source_scale: f64,
    branch_offset: usize,
    mode: AnalysisMode<'a>,
}

impl<'a> StampContext<'a> {
    /// The context of one device of `netlist` whose first branch
    /// unknown is `branch_offset`, stamping into `sink` at the estimate
    /// `x`.
    fn new(
        netlist: &'a Netlist,
        sink: MatrixSink<'a>,
        x: &'a [f64],
        source_scale: f64,
        branch_offset: usize,
        mode: AnalysisMode<'a>,
    ) -> Self {
        StampContext {
            sink,
            x,
            sources: netlist.sources_slice(),
            waveforms: netlist.waveforms_slice(),
            params: netlist.params_slice(),
            cards: netlist.cards_slice(),
            source_scale,
            branch_offset,
            mode,
        }
    }

    /// Voltage of `node` in the current Newton estimate (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown_index() {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// Voltage of `node` at the previous transient time point (0 for
    /// ground, and 0 in DC mode where no history exists).
    pub fn prev_voltage(&self, node: NodeId) -> f64 {
        match self.mode {
            AnalysisMode::Dc => 0.0,
            AnalysisMode::Transient { prev, .. } => match node.unknown_index() {
                None => 0.0,
                Some(i) => prev[i],
            },
        }
    }

    /// The analysis mode being assembled.
    pub fn mode(&self) -> AnalysisMode<'a> {
        self.mode
    }

    /// Value of a source, scaled by the continuation factor.
    pub fn source_value(&self, id: SourceId) -> f64 {
        self.sources[id.0] * self.source_scale
    }

    /// Waveform of a source.
    pub fn waveform(&self, id: SourceId) -> &'a Waveform {
        &self.waveforms[id.0]
    }

    /// Value of a device parameter.
    pub fn param_value(&self, id: ParamId) -> f64 {
        self.params[id.0]
    }

    /// A MOSFET model card.
    pub fn card(&self, id: CardId) -> &'a MosParams {
        &self.cards[id.index()]
    }

    // -- raw stamps ----------------------------------------------------

    /// Adds `value` at (row of `r`, column of `c`), skipping ground.
    pub fn mat_node_node(&mut self, r: NodeId, c: NodeId, value: f64) {
        if let (Some(ri), Some(ci)) = (r.unknown_index(), c.unknown_index()) {
            self.sink.add(ri, ci, value);
        }
    }

    /// Adds `value` at (row of `r`, column of this device's branch `k`).
    pub fn mat_node_branch(&mut self, r: NodeId, k: usize, value: f64) {
        if let Some(ri) = r.unknown_index() {
            self.sink.add(ri, self.branch_offset + k, value);
        }
    }

    /// Adds `value` at (row of branch `k`, column of `c`).
    pub fn mat_branch_node(&mut self, k: usize, c: NodeId, value: f64) {
        if let Some(ci) = c.unknown_index() {
            self.sink.add(self.branch_offset + k, ci, value);
        }
    }

    /// Adds `value` to the right-hand side at the row of `node`.
    pub fn rhs_node(&mut self, node: NodeId, value: f64) {
        if let Some(i) = node.unknown_index() {
            self.sink.add_rhs(i, value);
        }
    }

    /// Adds `value` to the right-hand side at the row of branch `k`.
    pub fn rhs_branch(&mut self, k: usize, value: f64) {
        self.sink.add_rhs(self.branch_offset + k, value);
    }

    // -- composite stamps ----------------------------------------------

    /// Stamps a two-terminal conductance `g` between `p` and `n`.
    pub fn stamp_conductance(&mut self, p: NodeId, n: NodeId, g: f64) {
        self.mat_node_node(p, p, g);
        self.mat_node_node(n, n, g);
        self.mat_node_node(p, n, -g);
        self.mat_node_node(n, p, -g);
    }

    /// Stamps a constant current of `amps` flowing out of `from` and
    /// into `to` (through the device).
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, amps: f64) {
        self.rhs_node(from, -amps);
        self.rhs_node(to, amps);
    }
}

/// A precomputed assembly plan for one netlist structure.
///
/// Every device stamps only at the cross product of its own unknowns
/// (terminal nodes plus branch rows), and the gmin regularization only
/// at node diagonals — so for a fixed netlist structure the set of
/// matrix entries an assembly can touch is known before the first
/// Newton iteration. Below
/// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns the
/// plan records that touched set as sorted flat (row-major) offsets
/// plus the node-diagonal offsets, letting [`assemble_planned`] clear
/// only the entries the previous iteration wrote instead of the whole
/// n² matrix, and stamp gmin through precomputed offsets. The same set,
/// as row and column bitsets, is the nonzero structure the dense LU
/// kernel factors by ([`LuStructure`]): built here once, it saves every
/// factorization a scan of the matrix.
///
/// At or above the threshold the plan records the set as the sparse
/// LU's CSC pattern instead, and numbers the value slot of every entry
/// each device stamps and of every node's gmin diagonal, so the system
/// is assembled straight into the slots and no dense matrix exists.
///
/// Building the plan walks the device list once; validity against a
/// netlist is re-checked cheaply (and allocation-free) through a
/// structural fingerprint over device kinds, terminals, and branch
/// offsets. Netlist structure only grows, so a plan never silently
/// outlives its netlist shape.
#[derive(Debug, Clone)]
pub struct StampPlan {
    num_nodes: usize,
    num_devices: usize,
    num_branches: usize,
    fingerprint: u64,
    pub(crate) layout: PlanLayout,
}

/// How a planned system is stored, by its order.
#[derive(Debug, Clone)]
pub(crate) enum PlanLayout {
    /// Below [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD): a
    /// dense matrix.
    Dense {
        /// Sorted, deduplicated flat offsets of every matrix entry any
        /// device stamp or the gmin regularization can write.
        touched: Vec<usize>,
        /// Flat offsets of the node diagonals receiving gmin.
        gmin_diags: Vec<usize>,
        /// `touched` as LU bitsets.
        structure: LuStructure,
    },
    /// At or above it: the sparse LU's value slots.
    Sparse(CscSlots),
}

/// Where the stamps of a system at or above
/// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) land: its CSC
/// pattern, then the value slot of every entry its devices stamp — for
/// each device in stamping order, row-major over its
/// [`device_unknowns`] — and of each node's gmin diagonal. Slots are
/// `u32`: a system's entries number far below 2³².
#[derive(Debug, Clone)]
pub(crate) struct CscSlots {
    pub(crate) pattern: CscPattern,
    pub(crate) devices: Vec<u32>,
    pub(crate) gmin: Vec<u32>,
}

impl CscSlots {
    /// The pattern of `entries` (each device's cross product, devices
    /// back to back), the `implicit` entries and the diagonals of the
    /// first `nodes` unknowns, with the slot of every entry of `entries`
    /// and of every such diagonal numbered. `visit` sees each column of
    /// the pattern as [`CscPattern::number_slots`] describes, for
    /// callers numbering the implicit entries.
    pub(crate) fn build<I>(
        n: usize,
        entries: &[(u32, u32)],
        implicit: I,
        nodes: usize,
        visit: impl FnMut(usize, &[u32]),
    ) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let diagonals = (0..nodes as u32).map(|i| (i, i));
        let pattern =
            CscPattern::from_entries(n, entries.iter().copied().chain(implicit).chain(diagonals));
        let (devices, gmin) = pattern.number_slots(entries, nodes, visit);
        CscSlots {
            pattern,
            devices,
            gmin,
        }
    }
}

/// FNV-1a fold step used by the structural fingerprint (and by the
/// Schur macromodel cache, which keys on the same discipline).
#[inline]
pub(crate) fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Seed of [`structural_fingerprint`].
pub(crate) const STRUCTURAL_FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one device (kind, terminals, branch layout) into a running
/// [`structural_fingerprint`].
#[inline]
pub(crate) fn fold_structure(h: u64, kind: &ElementKind, branch_offset: usize) -> u64 {
    let (terminals, count) = kind.terminals();
    let mut h = fnv(h, kind.code());
    for t in &terminals[..count] {
        h = fnv(h, t.index() as u64 + 1);
    }
    h = fnv(h, branch_offset as u64);
    fnv(h, kind.num_branches() as u64)
}

/// FNV fingerprint of a netlist's structure: device kinds, terminals
/// and branch layout, in device order. Values are invisible to it.
/// Allocation-free; one walk over the devices.
pub(crate) fn structural_fingerprint(netlist: &Netlist) -> u64 {
    netlist
        .devices_with_offsets()
        .fold(STRUCTURAL_FP_SEED, |h, (device, branch_offset)| {
            fold_structure(h, device, branch_offset)
        })
}

impl StampPlan {
    /// Builds the plan for the netlist's current structure.
    pub fn build(netlist: &Netlist) -> Self {
        let n = netlist.num_unknowns();
        let node_unknowns = netlist.num_nodes() - 1;
        let entries = netlist
            .devices_with_offsets()
            .flat_map(|(device, branch_offset)| {
                let (unknowns, count) = device_unknowns(device, branch_offset);
                (0..count * count).map(move |k| (unknowns[k / count], unknowns[k % count]))
            });
        let layout = if n < crate::sparse::SPARSE_THRESHOLD {
            // gmin regularization writes every node diagonal, including
            // device-free (orphan) nodes.
            let gmin_diags: Vec<usize> = (0..node_unknowns).map(|i| i * n + i).collect();
            let mut touched: Vec<usize> = entries
                .map(|(r, c)| r * n + c)
                .chain(gmin_diags.iter().copied())
                .collect();
            touched.sort_unstable();
            touched.dedup();
            PlanLayout::Dense {
                structure: LuStructure::from_offsets(n, &touched),
                touched,
                gmin_diags,
            }
        } else {
            let entries: Vec<(u32, u32)> = entries.map(|(r, c)| (r as u32, c as u32)).collect();
            PlanLayout::Sparse(CscSlots::build(
                n,
                &entries,
                std::iter::empty(),
                node_unknowns,
                |_, _| {},
            ))
        };
        StampPlan {
            num_nodes: netlist.num_nodes(),
            num_devices: netlist.num_devices(),
            num_branches: netlist.num_branches(),
            fingerprint: structural_fingerprint(netlist),
            layout,
        }
    }

    /// Whether the plan still describes this netlist's structure.
    /// Allocation-free; intended as a cheap per-solve guard.
    pub fn matches(&self, netlist: &Netlist) -> bool {
        self.num_nodes == netlist.num_nodes()
            && self.num_devices == netlist.num_devices()
            && self.num_branches == netlist.num_branches()
            && self.fingerprint == structural_fingerprint(netlist)
    }

    /// Number of matrix entries assembly can touch (diagnostic: the
    /// planned clear is `touched_entries()` stores vs n² for the full
    /// clear, and a sparse system holds one value slot per entry).
    pub fn touched_entries(&self) -> usize {
        match &self.layout {
            PlanLayout::Dense { touched, .. } => touched.len(),
            PlanLayout::Sparse(slots) => slots.pattern.nnz(),
        }
    }

    /// The structural FNV fingerprint (kinds, terminals, branch
    /// layout). Two netlists differing only in element *values* share
    /// it.
    pub fn structural_fp(&self) -> u64 {
        self.fingerprint
    }

    /// The touched set as the nonzero structure the dense LU kernel
    /// factors planned systems by; `None` at or above
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns,
    /// where the sparse backend factors instead.
    pub fn lu_structure(&self) -> Option<&LuStructure> {
        match &self.layout {
            PlanLayout::Dense { structure, .. } => Some(structure),
            PlanLayout::Sparse(_) => None,
        }
    }
}

/// Assembles the full linearized MNA system `A x_next = b` at the
/// estimate `x`.
#[allow(clippy::too_many_arguments)]
pub fn assemble(
    netlist: &Netlist,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    mode: AnalysisMode<'_>,
    matrix: &mut DenseMatrix,
    rhs: &mut [f64],
) {
    matrix.clear();
    rhs.iter_mut().for_each(|v| *v = 0.0);
    for (device, branch_offset) in netlist.devices_with_offsets() {
        let mut ctx = StampContext::new(
            netlist,
            MatrixSink::Dense {
                matrix,
                rhs: &mut *rhs,
            },
            x,
            source_scale,
            branch_offset,
            mode,
        );
        device.stamp(&mut ctx);
    }
    // gmin stepping: small conductance from every node to ground keeps
    // the Jacobian non-singular far from the solution.
    if gmin > 0.0 {
        let node_unknowns = netlist.num_nodes() - 1;
        for i in 0..node_unknowns {
            matrix.add(i, i, gmin);
        }
    }
}

/// As [`assemble`], but clears only the matrix entries the plan marks
/// as touchable and stamps gmin through precomputed diagonal offsets.
///
/// Requires every entry of `matrix` outside the plan's touched set to
/// already be zero (a freshly zeroed matrix satisfies this, and the
/// planned assembly preserves it), and `plan` to describe `netlist`'s
/// current structure. Produces a system bit-identical to [`assemble`].
///
/// # Panics
///
/// Panics if the plan is for a system of
/// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns or
/// more, which is assembled into sparse value slots instead.
#[allow(clippy::too_many_arguments)]
pub fn assemble_planned(
    netlist: &Netlist,
    plan: &StampPlan,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    mode: AnalysisMode<'_>,
    matrix: &mut DenseMatrix,
    rhs: &mut [f64],
) {
    debug_assert!(plan.matches(netlist), "stamp plan is stale");
    debug_assert_eq!(matrix.order(), netlist.num_unknowns());
    let PlanLayout::Dense {
        touched,
        gmin_diags,
        ..
    } = &plan.layout
    else {
        panic!("a plan at or above SPARSE_THRESHOLD assembles into sparse slots");
    };
    matrix.clear_offsets(touched);
    rhs.iter_mut().for_each(|v| *v = 0.0);
    for (device, branch_offset) in netlist.devices_with_offsets() {
        let mut ctx = StampContext::new(
            netlist,
            MatrixSink::Dense {
                matrix,
                rhs: &mut *rhs,
            },
            x,
            source_scale,
            branch_offset,
            mode,
        );
        device.stamp(&mut ctx);
    }
    if gmin > 0.0 {
        for &k in gmin_diags {
            matrix.add_at_offset(k, gmin);
        }
    }
}

/// As [`assemble_planned`], for a system at or above
/// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD): every stamp
/// adds into its value slot of `values` (zeroed by the caller), gmin
/// last, in the order the dense assembly adds into the slot's entry, so
/// each slot ends holding that entry's bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_slots(
    netlist: &Netlist,
    slots: &CscSlots,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    mode: AnalysisMode<'_>,
    values: &mut [f64],
    rhs: &mut [f64],
) {
    rhs.iter_mut().for_each(|v| *v = 0.0);
    let mut next = 0;
    for (device, branch_offset) in netlist.devices_with_offsets() {
        let unknowns = device_unknowns(device, branch_offset);
        let entries = unknowns.1 * unknowns.1;
        let mut stamps = SlotStamps::new(
            values,
            rhs,
            unknowns,
            |g| g,
            &slots.devices[next..next + entries],
        );
        next += entries;
        let mut ctx = StampContext::new(
            netlist,
            MatrixSink::Slots(&mut stamps),
            x,
            source_scale,
            branch_offset,
            mode,
        );
        device.stamp(&mut ctx);
    }
    if gmin > 0.0 {
        for &k in &slots.gmin {
            values[k as usize] += gmin;
        }
    }
}

/// Stamps the interface-only devices at positions `run` of the
/// partition plan's interface device list into the reduced interface
/// system (`matrix` and `rhs`, in interface numbering) at the DC
/// estimate `x`, accumulating onto what is already there. Each block's
/// devices stamp separately, into the block's own system
/// ([`assemble_block`]), and only when the block's macromodel is not
/// cached.
///
/// Requires `pplan` to have been built against this netlist's current
/// structure (it embeds the validated no-cross-block-device guarantee).
pub(crate) fn assemble_partitioned(
    netlist: &Netlist,
    pplan: &crate::schur::PartitionPlan,
    run: std::ops::Range<usize>,
    x: &[f64],
    source_scale: f64,
    matrix: &mut crate::schur::IfaceMatrix<'_>,
    rhs: &mut [f64],
) {
    for pos in run {
        let (device, branch_offset) = netlist.device_with_offset(pplan.iface_device(pos));
        let mut stamps;
        let sink = match matrix {
            crate::schur::IfaceMatrix::Dense(matrix) => MatrixSink::Interface {
                plan: pplan,
                matrix,
                rhs: &mut *rhs,
            },
            crate::schur::IfaceMatrix::Slots(values) => {
                stamps = SlotStamps::new(
                    values,
                    &mut *rhs,
                    device_unknowns(device, branch_offset),
                    |g| pplan.iface_index(g),
                    pplan.iface_device_slots(pos),
                );
                MatrixSink::Slots(&mut stamps)
            }
        };
        let mut ctx = StampContext::new(
            netlist,
            sink,
            x,
            source_scale,
            branch_offset,
            AnalysisMode::Dc,
        );
        device.stamp(&mut ctx);
    }
}

/// Stamps the devices of block `block` at the DC estimate `x`: entries
/// touching a block unknown into the block's local system (`matrix` of
/// order `len + nb`, zeroed here, and `rhs`, block unknowns first, then
/// the boundary), entries purely on the boundary onto `tape`, with
/// `tape_dev` receiving each device's tape offset (`ndev + 1` offsets).
/// Then gmin on the block's own node diagonals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_block(
    netlist: &Netlist,
    pplan: &crate::schur::PartitionPlan,
    block: usize,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    matrix: &mut DenseMatrix,
    rhs: &mut [f64],
    tape: &mut Vec<crate::schur::TapeEntry>,
    tape_dev: &mut Vec<u32>,
) {
    matrix.clear();
    rhs.iter_mut().for_each(|v| *v = 0.0);
    tape.clear();
    tape_dev.clear();
    tape_dev.push(0);
    for &index in pplan.block_devices(block) {
        let (device, branch_offset) = netlist.device_with_offset(index as usize);
        let mut ctx = StampContext::new(
            netlist,
            MatrixSink::Block {
                plan: pplan,
                block,
                matrix: &mut *matrix,
                rhs: &mut *rhs,
                tape: &mut *tape,
            },
            x,
            source_scale,
            branch_offset,
            AnalysisMode::Dc,
        );
        device.stamp(&mut ctx);
        tape_dev.push(tape.len() as u32);
    }
    if gmin > 0.0 {
        for k in pplan.block_node_locals(block) {
            matrix.add(k, k, gmin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    /// Assemble a divider and check the raw system by hand.
    #[test]
    fn divider_assembly_matches_hand_stamps() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GND, 2.0);
        nl.resistor("R1", a, b, 1.0).unwrap();
        nl.resistor("R2", b, Netlist::GND, 1.0).unwrap();

        let n = nl.num_unknowns();
        assert_eq!(n, 3); // a, b, branch of V1
        let mut m = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let x = vec![0.0; n];
        assemble(&nl, &x, 0.0, 1.0, AnalysisMode::Dc, &mut m, &mut rhs);

        // Node a: G(R1) + branch coupling.
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 2), 1.0);
        // Node b: R1 + R2.
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(1, 0), -1.0);
        // Branch row: V(a) = 2.
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(rhs[2], 2.0);
    }

    #[test]
    fn gmin_lands_on_node_diagonals_only() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GND, 1.0);
        let n = nl.num_unknowns();
        let mut m = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let x = vec![0.0; n];
        assemble(&nl, &x, 1e-3, 1.0, AnalysisMode::Dc, &mut m, &mut rhs);
        assert_eq!(m.get(0, 0), 1e-3); // node diagonal gets gmin
        assert_eq!(m.get(1, 1), 0.0); // branch diagonal does not
    }

    #[test]
    fn planned_assembly_matches_full_assembly_bitwise() {
        use crate::devices::mosfet::MosParams;
        // A netlist exercising every stamp shape: sources (branch
        // rows), resistors, MOSFETs, a capacitor.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let input = nl.node("in");
        let out = nl.node("out");
        let mid = nl.node("mid");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VIN", input, Netlist::GND, 0.55);
        nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
            .unwrap();
        nl.mosfet(
            "MN",
            out,
            input,
            Netlist::GND,
            MosParams::nmos(4.0e-4, 0.45),
        )
        .unwrap();
        nl.resistor("R", out, mid, 10.0e3).unwrap();
        nl.capacitor("C", mid, Netlist::GND, 1.0e-12).unwrap();

        let n = nl.num_unknowns();
        let plan = StampPlan::build(&nl);
        assert!(plan.matches(&nl));
        assert!(plan.touched_entries() < n * n, "plan must beat full clear");

        // Pseudo-random iterate; both paths assembled twice in a row so
        // the planned clear must erase its own previous stamps.
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut full = DenseMatrix::zeros(n);
        let mut full_rhs = vec![0.0; n];
        let mut planned = DenseMatrix::zeros(n);
        let mut planned_rhs = vec![0.0; n];
        for gmin in [0.0, 1.0e-3] {
            for _ in 0..2 {
                assemble(
                    &nl,
                    &x,
                    gmin,
                    0.8,
                    AnalysisMode::Dc,
                    &mut full,
                    &mut full_rhs,
                );
                assemble_planned(
                    &nl,
                    &plan,
                    &x,
                    gmin,
                    0.8,
                    AnalysisMode::Dc,
                    &mut planned,
                    &mut planned_rhs,
                );
                assert_eq!(planned, full, "matrix diverged at gmin={gmin}");
                assert_eq!(planned_rhs, full_rhs, "rhs diverged at gmin={gmin}");
            }
        }
    }

    #[test]
    fn sparse_slots_hold_the_full_assembly_bitwise() {
        use crate::devices::mosfet::MosParams;
        // An inverter chain past SPARSE_THRESHOLD: MOSFETs, two source
        // branches, and an RC tail whose capacitor stamps its transient
        // companion model.
        const STAGES: usize = 130;
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let mut input = nl.node("in");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VIN", input, Netlist::GND, 0.55);
        for i in 0..STAGES {
            let out = nl.node(&format!("out{i}"));
            nl.mosfet(
                &format!("MP{i}"),
                out,
                input,
                vdd,
                MosParams::pmos(4.0e-4, 0.45),
            )
            .unwrap();
            nl.mosfet(
                &format!("MN{i}"),
                out,
                input,
                Netlist::GND,
                MosParams::nmos(4.0e-4, 0.45),
            )
            .unwrap();
            input = out;
        }
        let tail = nl.node("tail");
        nl.resistor("R", input, tail, 10.0e3).unwrap();
        nl.capacitor("C", tail, Netlist::GND, 1.0e-12).unwrap();

        let n = nl.num_unknowns();
        assert!(n >= crate::sparse::SPARSE_THRESHOLD);
        let plan = StampPlan::build(&nl);
        let PlanLayout::Sparse(slots) = &plan.layout else {
            panic!("{n} unknowns planned densely");
        };
        assert!(plan.lu_structure().is_none());
        assert_eq!(plan.touched_entries(), slots.pattern.nnz());
        let offsets = slots.pattern.offsets();
        let held: std::collections::HashSet<usize> = offsets.iter().copied().collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let prev: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mode = AnalysisMode::Transient {
            dt: 1.0e-9,
            time: 2.0e-9,
            prev: &prev,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut values = vec![0.0; slots.pattern.nnz()];
        let mut rhs = vec![0.0; n];
        let mut full = DenseMatrix::zeros(n);
        let mut full_rhs = vec![0.0; n];
        for gmin in [0.0, 1.0e-3] {
            values.iter_mut().for_each(|v| *v = 0.0);
            assemble_slots(&nl, slots, &x, gmin, 0.8, mode, &mut values, &mut rhs);
            assemble(&nl, &x, gmin, 0.8, mode, &mut full, &mut full_rhs);
            for (k, &offset) in offsets.iter().enumerate() {
                let want = full.get(offset / n, offset % n);
                assert_eq!(values[k].to_bits(), want.to_bits(), "slot {k}, gmin={gmin}");
            }
            for offset in 0..n * n {
                let v = full.get(offset / n, offset % n);
                assert!(
                    v == 0.0 || held.contains(&offset),
                    "{v} outside the pattern"
                );
            }
            assert_eq!(bits(&rhs), bits(&full_rhs), "rhs diverged at gmin={gmin}");
        }
    }

    #[test]
    fn stamp_plan_detects_structural_growth() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let v = nl.vsource("V1", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, Netlist::GND, 1.0e3).unwrap();
        let plan = StampPlan::build(&nl);
        assert!(plan.matches(&nl));
        // Value changes keep the plan valid…
        nl.set_source(v, 2.0);
        assert!(plan.matches(&nl));
        // …structural growth invalidates it.
        let b = nl.node("b");
        nl.resistor("R2", a, b, 1.0e3).unwrap();
        assert!(!plan.matches(&nl));
    }

    #[test]
    fn source_scaling_reaches_rhs() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GND, 2.0);
        nl.resistor("R1", a, Netlist::GND, 1.0).unwrap();
        let n = nl.num_unknowns();
        let mut m = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let x = vec![0.0; n];
        assemble(&nl, &x, 0.0, 0.25, AnalysisMode::Dc, &mut m, &mut rhs);
        assert_eq!(rhs[1], 0.5); // 2.0 * 0.25
    }
}
