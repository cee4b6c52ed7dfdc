//! Hierarchical block-Schur reduction for repetitive array netlists.
//!
//! An SRAM array is thousands of *identical* subcircuits that differ
//! only in a handful of active or defective cells. The monolithic MNA
//! system of a 512×8 array carries ~10k unknowns, yet almost all of
//! them belong to inactive storage cells whose 2×2 Jacobian blocks are
//! byte-for-byte equal at every Newton iterate. This module exploits
//! that repetition:
//!
//! * A caller-supplied [`Partition`] names contiguous runs of unknowns
//!   as *blocks* (one per inactive cell); everything else — rails,
//!   word/bit lines, source branches, and the active cells — is the
//!   *interface*.
//! * Assembly routes each device stamp into its block's tiny packed
//!   `[B|E|F]` store or the dense interface matrix `C`
//!   ([`crate::mna::assemble_partitioned`]); a device coupling two
//!   distinct blocks is rejected when the partition plan is built, so
//!   the block-arrow structure `A = [[B, E], [F, C]]` with
//!   block-diagonal `B` is guaranteed.
//! * Per iteration, each block is reduced to a Schur *macromodel*
//!   (`B` factored, `B⁻¹E`, and the interface contribution `−F·B⁻¹E`).
//!   Macromodels are content-addressed by an FNV-1a hash of the block's
//!   exact value bytes and verified with a full memcmp before a hit is
//!   trusted — the same discipline as the factorization cache — so the
//!   4090 inactive cells of a 512×8 array typically factor as a couple
//!   of distinct 2×2 blocks, not 4090.
//! * Only the reduced interface system
//!   `(C − Σ F·B⁻¹E) x_I = rhs_I − Σ F·B⁻¹rhs_B` is factored through
//!   the existing dense or sparse LU; block unknowns come back by
//!   per-block back-substitution `x_B = B⁻¹(rhs_B − E·x_I)`.
//!
//! The reduction is exact block Gaussian elimination: the accepted
//! answer satisfies the same per-component Newton convergence criterion
//! as the monolithic path and agrees with it to solver tolerance. All
//! reduction buffers live in [`SolveScratch`] (via [`SchurState`]), so
//! steady-state re-solves with a warm macromodel cache run with zero
//! per-iteration heap allocations.

use crate::error::Error;
use crate::matrix::{DenseMatrix, LuWorkspace};
use crate::mna::{fnv, AnalysisMode};
use crate::netlist::Netlist;
use crate::newton::{NewtonOptions, Solution};
use crate::scratch::{SolveCounters, SolveScratch};
use crate::sparse::SparseLu;

/// Macromodel cache capacity. An array has one value-class per distinct
/// cell linearization — in practice a handful — so 64 slots give ample
/// headroom before the LRU eviction ever runs.
const MACRO_CACHE_SLOTS: usize = 64;

/// FNV-1a seed shared with the stamp-plan fingerprints.
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A caller-declared block structure over a netlist's unknown vector:
/// each block is a contiguous run of unknowns to be eliminated through
/// a shared Schur macromodel; every unknown outside all blocks belongs
/// to the interface system.
///
/// The partition is purely structural (it names index ranges, not
/// values), so one partition serves every solve against the same
/// netlist structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    /// `(start, len)` of each block, ascending and non-overlapping.
    blocks: Vec<(usize, usize)>,
    fingerprint: u64,
}

impl Partition {
    /// Builds a partition over `n` unknowns from `(start, len)` block
    /// ranges.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPartition`] when a block is empty, extends past
    /// `n`, or overlaps (or touches out of order with) another block.
    pub fn new(n: usize, blocks: Vec<(usize, usize)>) -> Result<Self, Error> {
        let mut prev_end = 0usize;
        for (i, &(start, len)) in blocks.iter().enumerate() {
            if len == 0 {
                return Err(Error::InvalidPartition(format!("block {i} is empty")));
            }
            if i > 0 && start < prev_end {
                return Err(Error::InvalidPartition(format!(
                    "block {i} at {start} overlaps or reorders against the previous \
                     block ending at {prev_end}"
                )));
            }
            let end = start.checked_add(len).filter(|&e| e <= n).ok_or_else(|| {
                Error::InvalidPartition(format!(
                    "block {i} ({start}+{len}) extends past the {n} unknowns"
                ))
            })?;
            prev_end = end;
        }
        let mut h = fnv(FNV_SEED, n as u64);
        for &(start, len) in &blocks {
            h = fnv(h, start as u64);
            h = fnv(h, len as u64);
        }
        Ok(Partition {
            n,
            blocks,
            fingerprint: h,
        })
    }

    /// Total unknowns of the partitioned system.
    pub fn num_unknowns(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Unknowns covered by blocks.
    pub fn block_unknowns(&self) -> usize {
        self.blocks.iter().map(|&(_, len)| len).sum()
    }

    /// Unknowns left in the interface system.
    pub fn interface_unknowns(&self) -> usize {
        self.n - self.block_unknowns()
    }

    /// Structural FNV fingerprint of the block layout.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Options for [`solve_array`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySolveOptions {
    /// Route the solve through the block-Schur reduction (the default).
    /// `false` runs the monolithic dense/sparse Newton path instead —
    /// the reference the equivalence suite compares against.
    pub schur: bool,
    /// Newton options shared by both paths.
    pub newton: NewtonOptions,
}

impl Default for ArraySolveOptions {
    fn default() -> Self {
        ArraySolveOptions {
            schur: true,
            newton: NewtonOptions::default(),
        }
    }
}

/// DC-solves a partitioned array netlist, through the block-Schur
/// reduction or the monolithic fallback per
/// [`ArraySolveOptions::schur`].
///
/// # Errors
///
/// As [`crate::newton::solve_with_scratch`]; additionally
/// [`Error::InvalidPartition`] when the partition does not describe
/// this netlist (wrong dimension, or a device couples two blocks).
pub fn solve_array(
    netlist: &Netlist,
    partition: &Partition,
    opts: &ArraySolveOptions,
    x0: Option<&[f64]>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    if opts.schur {
        crate::newton::solve_partitioned_with_scratch(
            netlist,
            &opts.newton,
            x0,
            AnalysisMode::Dc,
            scratch,
            partition,
        )
    } else {
        crate::newton::solve_with_scratch(netlist, &opts.newton, x0, AnalysisMode::Dc, scratch)
    }
}

/// Where one global unknown lives in the partitioned layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Interface unknown (index into the reduced system).
    Iface(u32),
    /// Unknown `local` of block `block`.
    Block { block: u32, local: u32 },
}

/// Per-block layout inside the packed value store: `[B|E|F]` with `B`
/// row-major `len×len`, `E` row-major `len×nb`, `F` row-major `nb×len`,
/// where `nb` is the block's interface-boundary size.
#[derive(Debug, Clone)]
struct BlockPlan {
    /// Global unknown index of the block's first unknown.
    start: usize,
    /// Block order (number of eliminated unknowns).
    len: usize,
    /// Offset of this block's `[B|E|F]` run in the value store.
    val_off: usize,
    /// The block's sorted interface boundary is
    /// `boundaries[bnd_off..bnd_off + nb]` of its [`PartitionPlan`].
    bnd_off: u32,
    nb: u32,
}

impl BlockPlan {
    fn nb(&self) -> usize {
        self.nb as usize
    }

    fn val_len(&self) -> usize {
        self.len * self.len + 2 * self.len * self.nb()
    }
}

/// Position of an interface index in a block boundary. The boundary of
/// one cell is a handful of entries, so a linear scan beats a binary
/// search here.
#[inline]
fn boundary_pos(boundary: &[u32], iface: u32) -> usize {
    boundary
        .iter()
        .position(|&b| b == iface)
        .expect("stamped interface column is on the block boundary")
}

/// The structural side of a partitioned assembly: the global→slot
/// remap, per-block boundary layout, and the interface sparsity
/// pattern. Built once per (netlist structure, partition) pair and
/// validated by fingerprint, mirroring [`StampPlan`](crate::mna::StampPlan)
/// — which the partitioned path never builds.
#[derive(Debug, Clone)]
pub(crate) struct PartitionPlan {
    n: usize,
    ni: usize,
    num_nodes: usize,
    num_devices: usize,
    remap: Vec<Slot>,
    /// Global unknown index of each interface unknown, ascending.
    iface_globals: Vec<usize>,
    blocks: Vec<BlockPlan>,
    /// Every block's sorted boundary, back to back (see
    /// [`BlockPlan::bnd_off`]).
    boundaries: Vec<u32>,
    /// Sorted flat (row-major) offsets of every interface entry device
    /// stamps, macromodel contributions, or gmin can write.
    iface_touched: Vec<usize>,
    /// Combined fingerprint over the netlist structure and the block
    /// layout; doubles as the interface sparse backend's structural
    /// fingerprint.
    fingerprint: u64,
    values_len: usize,
    max_block_len: usize,
}

/// Stable counting sort of `(key, value)` pairs by key (`key < keys`):
/// returns each key's start offset into the returned values, `keys + 1`
/// offsets in all. Walks `pairs` twice, to count and to place, with
/// internal iteration (`for_each`) so chained and nested pair sources
/// compile to plain loops.
fn bucket_by_key<I>(keys: usize, pairs: I) -> (Vec<usize>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    let mut starts = vec![0usize; keys + 1];
    pairs.clone().for_each(|(k, _)| starts[k as usize + 1] += 1);
    for k in 1..=keys {
        starts[k] += starts[k - 1];
    }
    let mut values = vec![0u32; starts[keys]];
    let mut cursor = starts.clone();
    pairs.for_each(|(k, v)| {
        values[cursor[k as usize]] = v;
        cursor[k as usize] += 1;
    });
    (starts, values)
}

impl PartitionPlan {
    fn combined_fp(struct_fp: u64, partition: &Partition) -> u64 {
        fnv(fnv(FNV_SEED, struct_fp), partition.fingerprint)
    }

    /// Builds the partition plan, validating that no device couples two
    /// distinct blocks. Runs in time linear in the device count plus
    /// the interface entries written: boundaries and the interface
    /// pattern are bucketed, never comparison-sorted as a whole.
    pub(crate) fn build(netlist: &Netlist, partition: &Partition) -> Result<Self, Error> {
        let n = netlist.num_unknowns();
        let node_unknowns = netlist.num_nodes() - 1;
        if partition.n != n {
            return Err(Error::InvalidPartition(format!(
                "partition covers {} unknowns, netlist has {n}",
                partition.n
            )));
        }
        let mut remap = vec![Slot::Iface(u32::MAX); n];
        for (bi, &(start, len)) in partition.blocks.iter().enumerate() {
            for local in 0..len {
                remap[start + local] = Slot::Block {
                    block: bi as u32,
                    local: local as u32,
                };
            }
        }
        let mut iface_globals = Vec::with_capacity(n - partition.block_unknowns());
        for (g, slot) in remap.iter_mut().enumerate() {
            if matches!(slot, Slot::Iface(_)) {
                *slot = Slot::Iface(iface_globals.len() as u32);
                iface_globals.push(g);
            }
        }
        let ni = iface_globals.len();

        // Device walk: every stamp lands at the cross product of the
        // device's own unknowns (the same slot enumeration as
        // StampPlan::build). A device touching a block puts its
        // interface unknowns on that block's boundary; its interface
        // entries are a subset of the boundary clique added below. Only
        // interface-only devices contribute entries of their own. The
        // same walk folds the structural fingerprint.
        let mut struct_fp = crate::mna::STRUCTURAL_FP_SEED;
        let mut bound_pairs: Vec<(u32, u32)> = Vec::new();
        let mut device_entries: Vec<(u32, u32)> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(8);
        let mut iface: Vec<u32> = Vec::with_capacity(8);
        for (index, (device, branch_offset)) in netlist.devices_with_offsets().enumerate() {
            let kind = device.kind();
            let branches = device.num_branches();
            struct_fp = crate::mna::fold_structure(struct_fp, &kind, branch_offset, branches);
            slots.clear();
            let (terminals, count) = crate::mna::kind_terminals(&kind);
            for t in terminals.iter().take(count) {
                if let Some(i) = t.unknown_index() {
                    slots.push(i);
                }
            }
            slots.extend(branch_offset..branch_offset + branches);
            let mut touched_block: Option<u32> = None;
            iface.clear();
            for &s in &slots {
                match remap[s] {
                    Slot::Iface(i) => iface.push(i),
                    Slot::Block { block, .. } => match touched_block {
                        None => touched_block = Some(block),
                        Some(b) if b == block => {}
                        Some(b) => {
                            return Err(Error::InvalidPartition(format!(
                                "device `{}` couples block {b} to block {block}; \
                                 blocks must only couple through the interface",
                                netlist.device_name(index)
                            )))
                        }
                    },
                }
            }
            match touched_block {
                Some(b) => bound_pairs.extend(iface.iter().map(|&i| (b, i))),
                None => {
                    for &r in &iface {
                        device_entries.extend(iface.iter().map(|&c| (r, c)));
                    }
                }
            }
        }

        // Block boundaries: bucket the (block, interface) pairs by
        // block, then sort and deduplicate each block's handful.
        let (bnd_start, mut raw) =
            bucket_by_key(partition.blocks.len(), bound_pairs.iter().copied());
        drop(bound_pairs);
        let mut boundaries: Vec<u32> = Vec::with_capacity(raw.len());
        let mut blocks: Vec<BlockPlan> = Vec::with_capacity(partition.blocks.len());
        let mut values_len = 0usize;
        let mut max_block_len = 0usize;
        for (bi, &(start, len)) in partition.blocks.iter().enumerate() {
            let seg = &mut raw[bnd_start[bi]..bnd_start[bi + 1]];
            seg.sort_unstable();
            let bnd_off = boundaries.len();
            for &i in seg.iter() {
                if boundaries.len() == bnd_off || boundaries.last() != Some(&i) {
                    boundaries.push(i);
                }
            }
            let bp = BlockPlan {
                start,
                len,
                val_off: values_len,
                bnd_off: bnd_off as u32,
                nb: (boundaries.len() - bnd_off) as u32,
            };
            values_len += bp.val_len();
            max_block_len = max_block_len.max(len);
            blocks.push(bp);
        }
        drop(raw);

        // Interface pattern: interface-only device entries, each
        // block's dense nb×nb macromodel clique over its boundary, and
        // the gmin diagonal of every interface *node* (branch rows never
        // receive gmin, matching the dense path), bucketed by row with
        // duplicates included…
        let cliques = blocks.iter().flat_map(|bp| {
            let bnd = &boundaries[bp.bnd_off as usize..][..bp.nb()];
            bnd.iter()
                .flat_map(move |&p| bnd.iter().map(move |&q| (p, q)))
        });
        let diagonals = iface_globals
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g < node_unknowns)
            .map(|(i, _)| (i as u32, i as u32));
        let entries = device_entries
            .iter()
            .copied()
            .chain(cliques)
            .chain(diagonals);
        let (mut row_start, mut cols) = bucket_by_key(ni, entries);
        // …then deduplicated row by row in place with generation marks
        // (`mark[c] == r` once row `r` has kept column `c`)…
        let mut mark = vec![u32::MAX; ni];
        let mut kept = 0usize;
        for r in 0..ni {
            let (lo, hi) = (row_start[r], row_start[r + 1]);
            row_start[r] = kept;
            for k in lo..hi {
                let c = cols[k];
                if mark[c as usize] != r as u32 {
                    mark[c as usize] = r as u32;
                    cols[kept] = c;
                    kept += 1;
                }
            }
        }
        row_start[ni] = kept;
        cols.truncate(kept);
        // …and ordered row-major by a two-pass radix sort: bucket by
        // column (rows arrive ascending), then stably back by row, so
        // each row's columns come out ascending.
        let (col_start, rows_by_col) = bucket_by_key(
            ni,
            (0..ni).flat_map(|r| {
                cols[row_start[r]..row_start[r + 1]]
                    .iter()
                    .map(move |&c| (c, r as u32))
            }),
        );
        let (row_start, sorted_cols) = bucket_by_key(
            ni,
            (0..ni).flat_map(|c| {
                rows_by_col[col_start[c]..col_start[c + 1]]
                    .iter()
                    .map(move |&r| (r, c as u32))
            }),
        );
        let mut iface_touched = Vec::with_capacity(kept);
        for r in 0..ni {
            let row = &sorted_cols[row_start[r]..row_start[r + 1]];
            iface_touched.extend(row.iter().map(|&c| r * ni + c as usize));
        }

        Ok(PartitionPlan {
            n,
            ni,
            num_nodes: netlist.num_nodes(),
            num_devices: netlist.num_devices(),
            remap,
            iface_globals,
            blocks,
            boundaries,
            iface_touched,
            fingerprint: Self::combined_fp(struct_fp, partition),
            values_len,
            max_block_len,
        })
    }

    /// Whether this plan still describes the (structure, partition)
    /// pair. Allocation-free, used as the per-solve staleness guard;
    /// keyed on the netlist's structural fingerprint directly, so no
    /// monolithic stamp plan is ever needed.
    pub(crate) fn matches(&self, netlist: &Netlist, partition: &Partition) -> bool {
        self.n == partition.n
            && self.n == netlist.num_unknowns()
            && self.num_nodes == netlist.num_nodes()
            && self.num_devices == netlist.num_devices()
            && self.fingerprint
                == Self::combined_fp(crate::mna::structural_fingerprint(netlist), partition)
    }

    /// Order of the reduced interface system.
    pub(crate) fn interface_unknowns(&self) -> usize {
        self.ni
    }

    /// The sorted interface boundary of `bp`.
    #[inline]
    fn boundary(&self, bp: &BlockPlan) -> &[u32] {
        &self.boundaries[bp.bnd_off as usize..][..bp.nb()]
    }
}

/// The value side of a partitioned assembly: the dense interface matrix
/// plus the packed per-block `[B|E|F]` stores. One global right-hand
/// side continues to live in the scratch — block unknowns are
/// contiguous there, so no rhs remapping is needed.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionedValues {
    pub(crate) iface: DenseMatrix,
    pub(crate) block_vals: Vec<f64>,
}

impl PartitionedValues {
    fn ensure(&mut self, plan: &PartitionPlan) {
        if self.iface.order() != plan.ni {
            self.iface.resize_clear(plan.ni);
        }
        if self.block_vals.len() != plan.values_len {
            self.block_vals.clear();
            self.block_vals.resize(plan.values_len, 0.0);
        }
    }

    /// Clears for reassembly: the interface through its touched-offset
    /// list (preserving the zeros-outside invariant), block stores in
    /// full (they are dense and tiny).
    pub(crate) fn clear(&mut self, plan: &PartitionPlan) {
        self.iface.clear_offsets(&plan.iface_touched);
        self.block_vals.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Routes one stamp to the interface matrix or a block store — the
    /// partitioned counterpart of [`DenseMatrix::add`].
    #[inline]
    pub(crate) fn add(&mut self, plan: &PartitionPlan, row: usize, col: usize, value: f64) {
        match (plan.remap[row], plan.remap[col]) {
            (Slot::Iface(i), Slot::Iface(j)) => self.iface.add(i as usize, j as usize, value),
            (
                Slot::Block { block, local: li },
                Slot::Block {
                    block: bc,
                    local: lj,
                },
            ) => {
                debug_assert_eq!(block, bc, "partition plan rejected cross-block devices");
                let bp = &plan.blocks[block as usize];
                self.block_vals[bp.val_off + li as usize * bp.len + lj as usize] += value;
            }
            (Slot::Block { block, local: li }, Slot::Iface(j)) => {
                let bp = &plan.blocks[block as usize];
                let e_off = bp.val_off + bp.len * bp.len;
                let q = boundary_pos(plan.boundary(bp), j);
                self.block_vals[e_off + li as usize * bp.nb() + q] += value;
            }
            (Slot::Iface(i), Slot::Block { block, local: lj }) => {
                let bp = &plan.blocks[block as usize];
                let f_off = bp.val_off + bp.len * (bp.len + bp.nb());
                let p = boundary_pos(plan.boundary(bp), i);
                self.block_vals[f_off + p * bp.len + lj as usize] += value;
            }
        }
    }

    /// Stamps the gmin regularization onto every node diagonal, routed
    /// through the remap.
    pub(crate) fn add_gmin(&mut self, plan: &PartitionPlan, node_unknowns: usize, gmin: f64) {
        for g in 0..node_unknowns {
            match plan.remap[g] {
                Slot::Iface(i) => self.iface.add(i as usize, i as usize, gmin),
                Slot::Block { block, local } => {
                    let bp = &plan.blocks[block as usize];
                    self.block_vals[bp.val_off + local as usize * (bp.len + 1)] += gmin;
                }
            }
        }
    }
}

/// One cached Schur macromodel: the factored block, `B⁻¹E`
/// (column-major), and the interface contribution `−F·B⁻¹E`
/// (row-major `nb×nb`), keyed by the block's exact value bytes.
#[derive(Debug, Clone, Default)]
struct MacroSlot {
    /// FNV-1a over the block's `[B|E|F]` bytes; 0 while (re)building.
    fp: u64,
    bl: usize,
    nb: usize,
    /// Verbatim copy of the keyed values — the memcmp that makes an
    /// FNV collision harmless, same discipline as the factor cache.
    key: Vec<f64>,
    lu: LuWorkspace,
    binv_e: Vec<f64>,
    contrib: Vec<f64>,
    /// LRU clock of the last hit or build.
    tick: u64,
}

/// Content-addressed macromodel store with LRU eviction. Evicted slots
/// hand their buffers to the replacement, so a warmed cache serves any
/// steady-state mix of value-classes without allocating.
#[derive(Debug, Clone)]
pub(crate) struct MacroCache {
    slots: Vec<MacroSlot>,
    capacity: usize,
    clock: u64,
}

impl Default for MacroCache {
    fn default() -> Self {
        MacroCache {
            slots: Vec::new(),
            capacity: MACRO_CACHE_SLOTS,
            clock: 0,
        }
    }
}

/// Exact-bytes equality on value slices (NaN-safe, matches the hash).
fn bytes_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl MacroCache {
    fn invalidate(&mut self) {
        self.slots.clear();
        self.clock = 0;
    }

    /// Returns the slot index holding the macromodel of `vals`,
    /// building (or rebuilding over the LRU victim) on a miss.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when the block itself has no usable
    /// pivot, with `pivot_row` mapped back to the global unknown.
    fn lookup_or_build(
        &mut self,
        vals: &[f64],
        bp: &BlockPlan,
        b_tmp: &mut DenseMatrix,
        t1: &mut [f64],
        t2: &mut [f64],
        counters: &mut SolveCounters,
    ) -> Result<usize, Error> {
        let bl = bp.len;
        let nb = bp.nb();
        let mut fp = fnv(FNV_SEED, bl as u64);
        fp = fnv(fp, nb as u64);
        for v in vals {
            fp = fnv(fp, v.to_bits());
        }
        self.clock += 1;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.fp == fp && slot.bl == bl && slot.nb == nb && bytes_eq(&slot.key, vals) {
                slot.tick = self.clock;
                counters.schur_blocks_shared += 1;
                return Ok(i);
            }
        }
        counters.schur_blocks_rebuilt += 1;
        let idx = if self.slots.len() < self.capacity {
            self.slots.push(MacroSlot::default());
            self.slots.len() - 1
        } else {
            self.slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.tick)
                .map(|(i, _)| i)
                .expect("cache capacity is nonzero")
        };
        let slot = &mut self.slots[idx];
        // Poison the slot until the build succeeds: a failed factor
        // must not leave a key pointing at stale factors.
        slot.fp = 0;
        slot.key.clear();
        slot.bl = bl;
        slot.nb = nb;
        slot.tick = self.clock;
        b_tmp.resize_clear(bl);
        for r in 0..bl {
            for c in 0..bl {
                b_tmp.set(r, c, vals[r * bl + c]);
            }
        }
        slot.lu.factor_from(b_tmp).map_err(|e| match e {
            Error::SingularMatrix { pivot_row, .. } => Error::SingularMatrix {
                pivot_row: bp.start + pivot_row,
                unknown: None,
            },
            other => other,
        })?;
        let e = &vals[bl * bl..bl * bl + bl * nb];
        slot.binv_e.clear();
        slot.binv_e.resize(bl * nb, 0.0);
        for q in 0..nb {
            for k in 0..bl {
                t1[k] = e[k * nb + q];
            }
            slot.lu.solve_into(&t1[..bl], &mut t2[..bl]);
            slot.binv_e[q * bl..(q + 1) * bl].copy_from_slice(&t2[..bl]);
        }
        let f = &vals[bl * bl + bl * nb..];
        slot.contrib.clear();
        slot.contrib.resize(nb * nb, 0.0);
        for p in 0..nb {
            for q in 0..nb {
                let mut acc = 0.0;
                for k in 0..bl {
                    acc += f[p * bl + k] * slot.binv_e[q * bl + k];
                }
                slot.contrib[p * nb + q] = -acc;
            }
        }
        slot.key.extend_from_slice(vals);
        slot.fp = fp;
        Ok(idx)
    }
}

/// Every buffer the block-Schur path needs, owned by the
/// [`SolveScratch`] so warmed re-solves stay allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchurState {
    pub(crate) plan: Option<PartitionPlan>,
    values: PartitionedValues,
    cache: MacroCache,
    /// Cache slot serving each block this iteration (reduce phase fills
    /// it, back-substitution reads it).
    block_slot: Vec<usize>,
    rhs_i: Vec<f64>,
    x_i: Vec<f64>,
    /// Staging matrix for factoring one block.
    b_tmp: DenseMatrix,
    /// `max_block_len`-sized gather/solve scratch pair.
    t1: Vec<f64>,
    t2: Vec<f64>,
    iface_lu: LuWorkspace,
    iface_sparse: SparseLu,
}

impl SchurState {
    /// (Re)builds the partition plan and sizes every buffer; a no-op
    /// (and allocation-free) when the (structure, partition) pair is
    /// unchanged.
    pub(crate) fn ensure(&mut self, netlist: &Netlist, partition: &Partition) -> Result<(), Error> {
        let stale = match &self.plan {
            Some(p) => !p.matches(netlist, partition),
            None => true,
        };
        if stale {
            let p = PartitionPlan::build(netlist, partition)?;
            // A structural change orphans every cached macromodel.
            self.cache.invalidate();
            self.block_slot.clear();
            self.block_slot.resize(p.blocks.len(), usize::MAX);
            self.rhs_i.clear();
            self.rhs_i.resize(p.ni, 0.0);
            self.x_i.clear();
            self.x_i.resize(p.ni, 0.0);
            self.t1.clear();
            self.t1.resize(p.max_block_len, 0.0);
            self.t2.clear();
            self.t2.resize(p.max_block_len, 0.0);
            self.plan = Some(p);
        }
        let plan = self.plan.as_ref().expect("plan just ensured");
        self.values.ensure(plan);
        Ok(())
    }

    /// Order of the reduced interface system, once a plan is built.
    pub(crate) fn interface_unknowns(&self) -> Option<usize> {
        self.plan.as_ref().map(|p| p.interface_unknowns())
    }

    /// One Newton iteration's linear solve through the reduction:
    /// partitioned assembly at `x`, macromodel lookup per block, the
    /// reduced interface factor/solve, and back-substitution into
    /// `x_new`. Replaces the monolithic assemble/factor/solve triple in
    /// [`crate::newton`]; the surrounding damping and convergence logic
    /// is shared unchanged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        netlist: &Netlist,
        x: &[f64],
        gmin: f64,
        source_scale: f64,
        mode: AnalysisMode<'_>,
        sparse_threshold: usize,
        rhs: &mut [f64],
        x_new: &mut [f64],
        counters: &mut SolveCounters,
    ) -> Result<(), Error> {
        let SchurState {
            plan,
            values,
            cache,
            block_slot,
            rhs_i,
            x_i,
            b_tmp,
            t1,
            t2,
            iface_lu,
            iface_sparse,
        } = self;
        let plan = plan.as_ref().expect("partition plan ensured before stage");
        crate::mna::assemble_partitioned(netlist, plan, values, x, gmin, source_scale, mode, rhs);
        counters.schur_interface_unknowns = plan.ni as u64;
        let PartitionedValues { iface, block_vals } = values;
        // Gather the interface right-hand side, then fold each block's
        // macromodel into matrix and rhs.
        for (ri, &g) in rhs_i.iter_mut().zip(&plan.iface_globals) {
            *ri = rhs[g];
        }
        for (bi, bp) in plan.blocks.iter().enumerate() {
            let bl = bp.len;
            let nb = bp.nb();
            let boundary = plan.boundary(bp);
            let vals = &block_vals[bp.val_off..bp.val_off + bp.val_len()];
            let si = cache.lookup_or_build(vals, bp, b_tmp, t1, t2, counters)?;
            block_slot[bi] = si;
            let slot = &cache.slots[si];
            for p in 0..nb {
                for q in 0..nb {
                    iface.add(
                        boundary[p] as usize,
                        boundary[q] as usize,
                        slot.contrib[p * nb + q],
                    );
                }
            }
            // rhs_I -= F · B⁻¹ rhs_B.
            slot.lu
                .solve_into(&rhs[bp.start..bp.start + bl], &mut t2[..bl]);
            let f = &vals[bl * bl + bl * nb..];
            for p in 0..nb {
                let mut acc = 0.0;
                for k in 0..bl {
                    acc += f[p * bl + k] * t2[k];
                }
                rhs_i[boundary[p] as usize] -= acc;
            }
        }
        // Factor and solve the reduced interface system through the
        // same dense/sparse backend selection as the monolithic path.
        let map_singular = |e: Error| match e {
            Error::SingularMatrix { pivot_row, .. } => Error::SingularMatrix {
                pivot_row: plan
                    .iface_globals
                    .get(pivot_row)
                    .copied()
                    .unwrap_or(pivot_row),
                unknown: None,
            },
            other => other,
        };
        if plan.ni >= sparse_threshold {
            iface_sparse
                .factor(iface, plan.fingerprint, &plan.iface_touched)
                .map_err(map_singular)?;
            iface_sparse.solve_into(rhs_i, x_i);
        } else {
            iface_lu.factor_from(iface).map_err(map_singular)?;
            iface_lu.solve_into(rhs_i, x_i);
        }
        // Scatter the interface solution, then back-substitute each
        // block: x_B = B⁻¹ (rhs_B − E·x_I).
        for (&g, &xi) in plan.iface_globals.iter().zip(x_i.iter()) {
            x_new[g] = xi;
        }
        for (bi, bp) in plan.blocks.iter().enumerate() {
            let bl = bp.len;
            let nb = bp.nb();
            let vals = &block_vals[bp.val_off..bp.val_off + bp.val_len()];
            let e = &vals[bl * bl..bl * bl + bl * nb];
            for k in 0..bl {
                let mut t = rhs[bp.start + k];
                for (q, &b) in plan.boundary(bp).iter().enumerate() {
                    t -= e[k * nb + q] * x_i[b as usize];
                }
                t1[k] = t;
            }
            let slot = &cache.slots[block_slot[bi]];
            slot.lu.solve_into(&t1[..bl], &mut t2[..bl]);
            x_new[bp.start..bp.start + bl].copy_from_slice(&t2[..bl]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mosfet::MosParams;
    use crate::newton::solve_with_scratch;

    /// A rail feeding `cells` identical cross-coupled latches — the
    /// smallest netlist with the repeated-block structure the reduction
    /// targets. Returns the netlist, the per-cell `(a, b)` node pairs,
    /// and the partition eliminating every cell past the first
    /// `active` ones.
    fn latch_chain(
        cells: usize,
        active: usize,
    ) -> (Netlist, Vec<(crate::NodeId, crate::NodeId)>, Partition) {
        let mut nl = Netlist::new();
        let supply = nl.node("vdd_supply");
        let rail = nl.node("vdd_rail");
        nl.vsource("VDD", supply, Netlist::GND, 1.1);
        nl.resistor("Rsup", supply, rail, 5.0).expect("valid");
        let mut nodes = Vec::new();
        let mut blocks = Vec::new();
        for i in 0..cells {
            let a = nl.node(&format!("a{i}"));
            let b = nl.node(&format!("b{i}"));
            if i >= active {
                blocks.push((a.index() - 1, 2));
            }
            nl.mosfet(
                &format!("MPa{i}"),
                a,
                b,
                rail,
                MosParams::pmos(1.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MNa{i}"),
                a,
                b,
                Netlist::GND,
                MosParams::nmos(2.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MPb{i}"),
                b,
                a,
                rail,
                MosParams::pmos(1.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MNb{i}"),
                b,
                a,
                Netlist::GND,
                MosParams::nmos(2.0e-4, 0.55),
            )
            .expect("valid card");
            nodes.push((a, b));
        }
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid partition");
        (nl, nodes, partition)
    }

    fn latch_guess(nl: &Netlist, nodes: &[(crate::NodeId, crate::NodeId)]) -> Vec<f64> {
        let mut x = nl.zero_state();
        nl.set_guess(&mut x, nl.find_node("vdd_supply").unwrap(), 1.1);
        nl.set_guess(&mut x, nl.find_node("vdd_rail").unwrap(), 1.1);
        for &(a, _) in nodes {
            nl.set_guess(&mut x, a, 1.1);
        }
        x
    }

    #[test]
    fn partition_validation_rejects_bad_layouts() {
        assert!(Partition::new(10, vec![(0, 2), (4, 2)]).is_ok());
        assert!(matches!(
            Partition::new(10, vec![(0, 0)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(9, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(0, 3), (2, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(4, 2), (0, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        let p = Partition::new(10, vec![(2, 2), (6, 2)]).expect("valid");
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.block_unknowns(), 4);
        assert_eq!(p.interface_unknowns(), 6);
    }

    #[test]
    fn cross_block_device_is_rejected_at_plan_build() {
        let (mut nl, nodes, _) = latch_chain(3, 0);
        // A bridge between two different cells couples their blocks.
        nl.resistor("Rbridge", nodes[0].0, nodes[1].0, 1.0e4)
            .expect("valid");
        let partition = Partition::new(
            nl.num_unknowns(),
            vec![(nodes[0].0.index() - 1, 2), (nodes[1].0.index() - 1, 2)],
        )
        .expect("valid layout");
        let err = PartitionPlan::build(&nl, &partition).expect_err("must reject");
        assert!(matches!(err, Error::InvalidPartition(_)), "{err}");
        assert!(err.to_string().contains("Rbridge"), "{err}");
    }

    #[test]
    fn schur_matches_monolithic_to_solver_tolerance() {
        let (nl, nodes, partition) = latch_chain(12, 2);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut mono_scratch = SolveScratch::new();
        let mono = solve_with_scratch(
            &nl,
            &opts.newton,
            Some(&guess),
            AnalysisMode::Dc,
            &mut mono_scratch,
        )
        .expect("monolithic solve converges");
        let mut schur_scratch = SolveScratch::new();
        let red = solve_array(&nl, &partition, &opts, Some(&guess), &mut schur_scratch)
            .expect("schur solve converges");
        for (i, (&m, &s)) in mono.raw().iter().zip(red.raw().iter()).enumerate() {
            let tol = opts.newton.vntol + opts.newton.reltol * m.abs().max(s.abs());
            assert!(
                (m - s).abs() <= tol,
                "unknown {i}: monolithic {m} vs schur {s}"
            );
        }
        // 10 inactive latches all share one linearization per iterate:
        // almost every block must come from the cache.
        let c = schur_scratch.counters;
        assert!(c.schur_blocks_shared > c.schur_blocks_rebuilt, "{c:?}");
        assert_eq!(c.schur_interface_unknowns, 7, "{c:?}"); // supply, rail, branch, 2 active cells
    }

    #[test]
    fn warm_resolve_serves_every_block_from_the_cache() {
        let (nl, nodes, partition) = latch_chain(8, 1);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut scratch = SolveScratch::new();
        let mut warm = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
            .expect("cold solve converges")
            .into_raw();
        // Settle to the steady state a resume/bisection campaign sits
        // at: re-solve until the warm start is a bitwise fixed point.
        for _ in 0..4 {
            warm = solve_array(&nl, &partition, &opts, Some(&warm), &mut scratch)
                .expect("warm solve converges")
                .into_raw();
        }
        scratch.counters.take();
        let steady = solve_array(&nl, &partition, &opts, Some(&warm), &mut scratch)
            .expect("steady-state solve converges");
        let c = scratch.counters;
        // Identical inactive cells share one linearization per iterate,
        // so at most one rebuild per iteration — and every block is
        // accounted for, shared or rebuilt.
        assert!(
            c.schur_blocks_rebuilt <= steady.iterations as u64,
            "more rebuilds than value-classes: {c:?}"
        );
        assert_eq!(
            c.schur_blocks_shared + c.schur_blocks_rebuilt,
            (steady.iterations * partition.num_blocks()) as u64,
            "{c:?}"
        );
        assert!(c.schur_blocks_shared > 0, "{c:?}");
    }

    /// The partition plan of the old sort-based construction: every
    /// device's interface cross product, each block's boundary clique
    /// and the interface node diagonals, sorted and deduplicated as a
    /// whole.
    fn reference_pattern(nl: &Netlist, plan: &PartitionPlan) -> (Vec<Vec<u32>>, Vec<usize>) {
        let ni = plan.ni;
        let mut boundaries = vec![Vec::new(); plan.blocks.len()];
        let mut touched = Vec::new();
        for (device, branch_offset) in nl.devices_with_offsets() {
            let (terminals, count) = crate::mna::kind_terminals(&device.kind());
            let slots: Vec<usize> = terminals[..count]
                .iter()
                .filter_map(|t| t.unknown_index())
                .chain(branch_offset..branch_offset + device.num_branches())
                .collect();
            let iface: Vec<u32> = slots
                .iter()
                .filter_map(|&s| match plan.remap[s] {
                    Slot::Iface(i) => Some(i),
                    Slot::Block { .. } => None,
                })
                .collect();
            for &r in &iface {
                touched.extend(iface.iter().map(|&c| r as usize * ni + c as usize));
            }
            if let Some(Slot::Block { block, .. }) = slots
                .iter()
                .map(|&s| plan.remap[s])
                .find(|s| matches!(s, Slot::Block { .. }))
            {
                boundaries[block as usize].extend_from_slice(&iface);
            }
        }
        for b in &mut boundaries {
            b.sort_unstable();
            b.dedup();
            for &p in b.iter() {
                touched.extend(b.iter().map(|&q| p as usize * ni + q as usize));
            }
        }
        for (i, &g) in plan.iface_globals.iter().enumerate() {
            if g < nl.num_nodes() - 1 {
                touched.push(i * ni + i);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        (boundaries, touched)
    }

    #[test]
    fn bucketed_plan_matches_the_sorted_reference() {
        // Active cells, an interface-only resistor and a source branch
        // exercise every entry source the bucketed build merges.
        let (mut nl, nodes, _) = latch_chain(12, 3);
        nl.resistor("Rtie", nodes[0].0, nodes[2].1, 1.0e5)
            .expect("valid");
        let blocks = nodes[3..]
            .iter()
            .map(|&(a, _)| (a.index() - 1, 2))
            .collect();
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid");
        let plan = PartitionPlan::build(&nl, &partition).expect("valid plan");
        let (boundaries, touched) = reference_pattern(&nl, &plan);
        for (bp, want) in plan.blocks.iter().zip(&boundaries) {
            assert_eq!(plan.boundary(bp), want.as_slice());
        }
        assert_eq!(plan.iface_touched, touched);
    }

    #[test]
    fn schur_path_reuses_its_partition_plan_and_never_plans_the_monolith() {
        let (nl, nodes, partition) = latch_chain(8, 1);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut scratch = SolveScratch::new();
        // A rebuilt plan is constructed while its predecessor is still
        // held, so reuse shows as an unchanged pattern buffer.
        let pattern_buffer = |scratch: &SolveScratch| {
            let plan = scratch.schur.plan.as_ref().expect("partition plan built");
            plan.iface_touched.as_ptr()
        };
        solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch).expect("solves");
        assert!(
            scratch.plan().is_none(),
            "the Schur path built a stamp plan"
        );
        let first = pattern_buffer(&scratch);
        solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch).expect("re-solves");
        assert!(
            scratch.plan().is_none(),
            "the Schur path built a stamp plan"
        );
        assert_eq!(pattern_buffer(&scratch), first, "same pair, same plan");
        // A different partition of the same netlist is a new plan.
        let fewer = Partition::new(nl.num_unknowns(), partition.blocks[1..].to_vec())
            .expect("valid partition");
        solve_array(&nl, &fewer, &opts, Some(&guess), &mut scratch).expect("solves");
        assert_ne!(pattern_buffer(&scratch), first, "stale plan reused");
        assert_eq!(scratch.schur_interface_unknowns(), Some(7));
    }

    #[test]
    fn singular_interface_names_the_floating_node_on_the_sparse_backend() {
        // A device-free node in the interface makes the reduced system
        // singular. RCM factors its empty column last, at the position
        // of the source branch; the error must still name the node.
        let (mut nl, nodes, _) = latch_chain(6, 1);
        let floating = nl.node("floating");
        let blocks = nodes[1..]
            .iter()
            .map(|&(a, _)| (a.index() - 1, 2))
            .collect();
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid");
        let opts = ArraySolveOptions {
            newton: NewtonOptions {
                sparse_threshold: 1,
                ..NewtonOptions::plain()
            },
            ..ArraySolveOptions::default()
        };
        let mut scratch = SolveScratch::new();
        let guess = latch_guess(&nl, &nodes);
        let err = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
            .expect_err("floating interface node is singular");
        assert!(
            scratch.schur.iface_sparse.lu_nnz() > 0,
            "sparse backend ran"
        );
        match &err {
            Error::SingularMatrix { pivot_row, unknown } => {
                assert_eq!(*pivot_row, floating.index() - 1, "{err}");
                assert_eq!(unknown.as_deref(), Some("node `floating`"), "{err}");
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }

    #[test]
    fn singular_block_reports_the_global_unknown() {
        // One floating two-node block: no device at all, so its B block
        // is all-zero and the first factor must die at the block start.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        let f1 = nl.node("f1");
        let f2 = nl.node("f2");
        let _ = (f1, f2);
        let partition =
            Partition::new(nl.num_unknowns(), vec![(f1.index() - 1, 2)]).expect("valid");
        let mut scratch = SolveScratch::new();
        let err = solve_array(
            &nl,
            &partition,
            &ArraySolveOptions {
                newton: NewtonOptions::plain(),
                ..ArraySolveOptions::default()
            },
            None,
            &mut scratch,
        )
        .expect_err("floating block is singular");
        match err {
            Error::SingularMatrix { pivot_row, .. } => {
                assert_eq!(pivot_row, f1.index() - 1, "{err}")
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }
}
