//! Modified nodal analysis assembly.
//!
//! Devices do not see the matrix directly; they stamp through a
//! `StampContext`, which hides the ground-elimination bookkeeping and
//! exposes the linearization state (current Newton estimate, source
//! scaling for continuation, previous time point for transient companion
//! models).

use crate::devices::ElementKind;
use crate::matrix::{DenseMatrix, LuStructure};
use crate::netlist::{Netlist, NodeId, ParamId, SourceId};

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
        }
    }
}

/// Mutable view through which a device stamps its linearized companion
/// model into the MNA system.
#[derive(Debug)]
pub(crate) struct StampContext<'a> {
    sink: MatrixSink<'a>,
    x: &'a [f64],
    sources: &'a [f64],
    params: &'a [f64],
    source_scale: f64,
    branch_offset: usize,
    mode: AnalysisMode<'a>,
}

impl<'a> StampContext<'a> {
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

    /// Value of a device parameter.
    pub fn param_value(&self, id: ParamId) -> f64 {
        self.params[id.0]
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
/// Newton iteration. The plan records that touched set as sorted flat
/// (row-major) offsets plus the node-diagonal offsets, letting
/// [`assemble_planned`] clear only the entries the previous iteration
/// wrote instead of the whole n² matrix, and stamp gmin through
/// precomputed offsets.
///
/// The same set, as row and column bitsets, is the nonzero structure
/// the dense LU kernel factors by ([`LuStructure`]): built here once,
/// it saves every factorization a scan of the matrix.
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
    /// Sorted, deduplicated flat offsets of every matrix entry any
    /// device stamp or the gmin regularization can write.
    touched: Vec<usize>,
    /// Flat offsets of the node diagonals receiving gmin.
    gmin_diags: Vec<usize>,
    /// `touched` as LU bitsets, for systems the dense kernel factors
    /// (below [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD)).
    structure: Option<LuStructure>,
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
        let mut touched: Vec<usize> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(8);
        for (device, branch_offset) in netlist.devices_with_offsets() {
            slots.clear();
            let (terminals, count) = device.terminals();
            for t in &terminals[..count] {
                if let Some(i) = t.unknown_index() {
                    slots.push(i);
                }
            }
            for k in 0..device.num_branches() {
                slots.push(branch_offset + k);
            }
            for &r in &slots {
                for &c in &slots {
                    touched.push(r * n + c);
                }
            }
        }
        // gmin regularization writes every node diagonal, including
        // device-free (orphan) nodes.
        let gmin_diags: Vec<usize> = (0..node_unknowns).map(|i| i * n + i).collect();
        touched.extend_from_slice(&gmin_diags);
        touched.sort_unstable();
        touched.dedup();
        let structure =
            (n < crate::sparse::SPARSE_THRESHOLD).then(|| LuStructure::from_offsets(n, &touched));
        StampPlan {
            num_nodes: netlist.num_nodes(),
            num_devices: netlist.num_devices(),
            num_branches: netlist.num_branches(),
            fingerprint: structural_fingerprint(netlist),
            touched,
            gmin_diags,
            structure,
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
    /// clear).
    pub fn touched_entries(&self) -> usize {
        self.touched.len()
    }

    /// The structural FNV fingerprint (kinds, terminals, branch
    /// layout). Two netlists differing only in element *values* share
    /// it.
    pub fn structural_fp(&self) -> u64 {
        self.fingerprint
    }

    /// Sorted flat (row-major) offsets of every matrix entry assembly
    /// can write — the sparsity pattern of the assembled system.
    pub(crate) fn touched_offsets(&self) -> &[usize] {
        &self.touched
    }

    /// The touched set as the nonzero structure the dense LU kernel
    /// factors planned systems by; `None` at or above
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns,
    /// where the sparse backend factors instead.
    pub fn lu_structure(&self) -> Option<&LuStructure> {
        self.structure.as_ref()
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
        let mut ctx = StampContext {
            sink: MatrixSink::Dense {
                matrix,
                rhs: &mut *rhs,
            },
            x,
            sources: netlist.sources_slice(),
            params: netlist.params_slice(),
            source_scale,
            branch_offset,
            mode,
        };
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
    matrix.clear_offsets(&plan.touched);
    rhs.iter_mut().for_each(|v| *v = 0.0);
    for (device, branch_offset) in netlist.devices_with_offsets() {
        let mut ctx = StampContext {
            sink: MatrixSink::Dense {
                matrix,
                rhs: &mut *rhs,
            },
            x,
            sources: netlist.sources_slice(),
            params: netlist.params_slice(),
            source_scale,
            branch_offset,
            mode,
        };
        device.stamp(&mut ctx);
    }
    if gmin > 0.0 {
        for &k in &plan.gmin_diags {
            matrix.add_at_offset(k, gmin);
        }
    }
}

/// Stamps interface-only `devices` of a block-Schur partition into the
/// reduced interface system (`matrix` and `rhs` in interface numbering)
/// at the DC estimate `x`, accumulating onto what is already there.
/// Each block's devices stamp separately, into the block's own system
/// ([`assemble_block`]), and only when the block's macromodel is not
/// cached.
///
/// Requires `pplan` to have been built against this netlist's current
/// structure (it embeds the validated no-cross-block-device guarantee).
pub(crate) fn assemble_partitioned(
    netlist: &Netlist,
    pplan: &crate::schur::PartitionPlan,
    devices: &[u32],
    x: &[f64],
    source_scale: f64,
    matrix: &mut DenseMatrix,
    rhs: &mut [f64],
) {
    for &index in devices {
        let (device, branch_offset) = netlist.device_with_offset(index as usize);
        let mut ctx = StampContext {
            sink: MatrixSink::Interface {
                plan: pplan,
                matrix: &mut *matrix,
                rhs: &mut *rhs,
            },
            x,
            sources: netlist.sources_slice(),
            params: netlist.params_slice(),
            source_scale,
            branch_offset,
            mode: AnalysisMode::Dc,
        };
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
        let mut ctx = StampContext {
            sink: MatrixSink::Block {
                plan: pplan,
                block,
                matrix: &mut *matrix,
                rhs: &mut *rhs,
                tape: &mut *tape,
            },
            x,
            sources: netlist.sources_slice(),
            params: netlist.params_slice(),
            source_scale,
            branch_offset,
            mode: AnalysisMode::Dc,
        };
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
