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
//! * The partition plan sorts every device into one block's device
//!   list or the interface-only list (a device coupling two distinct
//!   blocks is rejected), so the block-arrow structure
//!   `A = [[B, E], [F, C]]` with block-diagonal `B` is guaranteed. It
//!   also interns block *templates*: blocks whose devices match one by
//!   one — same kind, same terminals relative to the block, bit-identical
//!   model values — share a template id.
//! * Per iteration, each block is served a Schur *macromodel*: `B`
//!   factored, `B⁻¹E`, `−F·B⁻¹E`, `F·B⁻¹r_B`, and the block devices'
//!   own stamps on boundary rows. Macromodels are keyed on what the
//!   block's devices *read* — the template id and the exact bits of the
//!   iterate at the block's unknowns and boundary, gmin and the source
//!   scale — so a hit skips device evaluation entirely, and the 262,141
//!   inactive cells of a 4096×64 array cost a key compare each. Only a
//!   miss stamps the block's devices; its stamped `[B|E|F]` is then
//!   looked up too, so a block whose inputs moved below the devices'
//!   resolution reuses a cached factorization. Hashes filter, and a
//!   full compare proves every hit — the factorization cache's
//!   discipline.
//! * Only the reduced interface system
//!   `(C − Σ F·B⁻¹E) x_I = rhs_I − Σ F·B⁻¹rhs_B` is factored through
//!   the existing dense or sparse LU; block unknowns come back by
//!   per-block back-substitution `x_B = B⁻¹(rhs_B − E·x_I)`. Interface
//!   entries accumulate device stamps in device order and macromodel
//!   terms in block order, as a device-by-device assembly would, so a
//!   solution never depends on what the cache held.
//! * An interface below [`SPARSE_THRESHOLD`] accumulates in a dense
//!   matrix. A larger one never exists densely: the plan numbers the
//!   sparse LU's CSC value slot of every entry an interface-only device
//!   stamps, of every entry of each block's boundary clique (where its
//!   tape replays and its `−F·B⁻¹E` folds), and of every interface
//!   node's gmin diagonal, and each of those sums adds straight into
//!   its slot.
//!
//! The reduction is exact block Gaussian elimination: the accepted
//! answer satisfies the same per-component Newton convergence criterion
//! as the monolithic path and agrees with it to solver tolerance. All
//! reduction buffers live in [`SolveScratch`] (via `SchurState`), so
//! steady-state re-solves with a warm macromodel cache run with zero
//! per-iteration heap allocations.

use std::collections::HashMap;

use crate::devices::ElementKind;
use crate::error::Error;
use crate::matrix::{DenseMatrix, LuStructure, LuWorkspace};
use crate::mna::{device_unknowns, fnv, AnalysisMode, CscSlots};
use crate::netlist::Netlist;
use crate::newton::{NewtonOptions, Solution};
use crate::scratch::{SolveCounters, SolveScratch};
use crate::sparse::{bucket_by_key, CscPattern, SparseLu, SPARSE_THRESHOLD};

/// Macromodel cache capacity. An array presents one input per distinct
/// cell state and boundary — in practice a handful per iteration — so
/// 64 slots give ample headroom before the LRU eviction ever runs.
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

/// Options for [`solve_array`]. Both paths run Newton with
/// [`NewtonOptions::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySolveOptions {
    /// Route the solve through the block-Schur reduction (the default).
    /// `false` runs the monolithic dense/sparse Newton path instead —
    /// the reference the equivalence suite compares against.
    pub schur: bool,
}

impl Default for ArraySolveOptions {
    fn default() -> Self {
        ArraySolveOptions { schur: true }
    }
}

/// DC-solves a partitioned array netlist, through the block-Schur
/// reduction or the monolithic fallback per
/// [`ArraySolveOptions::schur`], in one attempt (no retry). The solve
/// counts in the `anasim.solve.*` metrics and the thread's solver tally
/// as one [`crate::newton::solve_with_retry_in`] attempt does.
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
    let newton = NewtonOptions::default();
    let outcome = if opts.schur {
        crate::newton::solve_partitioned_with_scratch(
            netlist,
            &newton,
            x0,
            AnalysisMode::Dc,
            scratch,
            partition,
        )
    } else {
        crate::newton::solve_with_scratch(netlist, &newton, x0, AnalysisMode::Dc, scratch)
    };
    match &outcome {
        Ok(sol) => crate::newton::record_solved(&sol.stats),
        // A partition that does not fit is rejected before any
        // iteration runs: no solve took place.
        Err(Error::InvalidPartition(_)) => {}
        Err(_) => crate::newton::record_failed(scratch.iterations, 0),
    }
    outcome
}

/// Where one global unknown lives in the partitioned layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Interface unknown (index into the reduced system).
    Iface(u32),
    /// Unknown `local` of block `block`.
    Block { block: u32, local: u32 },
}

/// One block of a [`PartitionPlan`]: its unknowns, its interface
/// boundary, its devices and its template.
#[derive(Debug, Clone)]
struct BlockPlan {
    /// Global unknown index of the block's first unknown.
    start: usize,
    /// Block order (number of eliminated unknowns).
    len: usize,
    /// The block's sorted interface boundary is
    /// `boundaries[bnd_off..bnd_off + nb]` of its [`PartitionPlan`].
    bnd_off: u32,
    nb: u32,
    /// The block's devices, in device order, are
    /// `block_devices[dev_off..dev_off + ndev]` of its plan.
    dev_off: u32,
    ndev: u32,
    /// Blocks sharing a template stamp bit-identical local systems at
    /// bit-identical inputs.
    template: u32,
    /// A sparse interface's value slots of the block's `nb×nb` boundary
    /// clique are `cliques[clique_off..clique_off + nb * nb]` of its
    /// [`SparseIface`], row-major.
    clique_off: u32,
}

impl BlockPlan {
    fn nb(&self) -> usize {
        self.nb as usize
    }
}

/// A stretch of consecutive devices in device order. The reduction
/// walks the plan's runs to accumulate interface stamps in device order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Interface-only devices `iface_devices[from..to]`.
    Iface { from: u32, to: u32 },
    /// Devices `from..to` of block `block`'s device list. A block
    /// without devices gets one empty run, so every block has a run
    /// starting at 0.
    Block { block: u32, from: u32, to: u32 },
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
/// remap, per-block boundaries, device lists and templates, and the
/// interface sparsity pattern. Built once per (netlist structure,
/// partition) pair and validated by fingerprint, mirroring
/// [`StampPlan`](crate::mna::StampPlan) — which the partitioned path
/// never builds.
#[derive(Debug, Clone)]
pub(crate) struct PartitionPlan {
    n: usize,
    ni: usize,
    num_nodes: usize,
    num_devices: usize,
    remap: Vec<Slot>,
    /// Global unknown index of each interface unknown, ascending.
    iface_globals: Vec<usize>,
    /// Interface unknowns that are nodes (and so take gmin): node
    /// unknowns precede branch unknowns globally, so these are the
    /// first `iface_nodes` interface indices.
    iface_nodes: usize,
    blocks: Vec<BlockPlan>,
    /// Every block's sorted boundary, back to back (see
    /// [`BlockPlan::bnd_off`]).
    boundaries: Vec<u32>,
    /// Devices whose every unknown is an interface unknown, in device
    /// order: the only devices stamped on every iteration.
    iface_devices: Vec<u32>,
    /// Every block's devices, back to back (see [`BlockPlan::dev_off`]).
    block_devices: Vec<u32>,
    /// Every device exactly once, as runs in device order.
    schedule: Vec<Run>,
    /// Where the reduced interface system accumulates.
    layout: IfaceLayout,
    /// Combined fingerprint over the netlist structure, its model
    /// values and the block layout; doubles as the interface sparse
    /// backend's structural fingerprint.
    fingerprint: u64,
    max_block_len: usize,
}

/// The reduced interface system's storage, picked by its order. Its
/// pattern holds every entry an interface-only device stamps, each
/// block's dense `nb×nb` macromodel clique over its boundary, and the
/// gmin diagonal of every interface *node* (branch rows never receive
/// gmin, matching the monolithic path).
#[derive(Debug, Clone)]
enum IfaceLayout {
    /// Below [`SPARSE_THRESHOLD`]: a dense staging matrix, cleared
    /// through the flat offsets of the pattern and factored by their LU
    /// structure.
    Dense {
        touched: Vec<usize>,
        structure: LuStructure,
    },
    /// At or above it: the interface sparse LU's value slots.
    Sparse(SparseIface),
}

/// The value slots of a sparse interface system.
#[derive(Debug, Clone)]
struct SparseIface {
    /// The pattern, the interface-only devices' entry slots (device
    /// `iface_devices[i]` from `device_starts[i]`) and the interface
    /// nodes' gmin slots.
    slots: CscSlots,
    device_starts: Vec<u32>,
    /// Every block's boundary clique slots, back to back (see
    /// [`BlockPlan::clique_off`]).
    cliques: Vec<u32>,
}

/// Emits what a DC stamp of `kind` reads beyond its terminals: the
/// capacitance bit for bit, the handle of each table entry it reads,
/// and for a voltage source the value its waveform fixes at `t = 0`
/// (the rest of the waveform is transient-only, and the partitioned
/// path is DC-only). Within one netlist, equal card handles mean cards
/// equal bit for bit, so a template compares handles; the plan
/// fingerprint folds the card values once ([`plan_fingerprint`]).
fn model_words(netlist: &Netlist, kind: &ElementKind, mut emit: impl FnMut(u64)) {
    match *kind {
        ElementKind::Resistor { resistance, .. } => emit(resistance.index() as u64),
        ElementKind::VoltageSource { source, .. } => {
            emit(source.index() as u64);
            match netlist.waveform(source).dc_override() {
                None => emit(0),
                Some(v) => {
                    emit(1);
                    emit(v.to_bits());
                }
            }
        }
        ElementKind::Capacitor { farads, .. } => emit(farads.to_bits()),
        ElementKind::Mosfet { card, .. } => emit(card.index() as u64),
    }
}

/// Folds one device into a [`plan_fingerprint`]: its structure, as
/// [`crate::mna::fold_structure`], then its model words, which the
/// templates compare.
#[inline]
fn fold_device(netlist: &Netlist, h: u64, kind: &ElementKind, branch_offset: usize) -> u64 {
    let mut h = crate::mna::fold_structure(h, kind, branch_offset);
    model_words(netlist, kind, |w| h = fnv(h, w));
    h
}

/// Folds every model card of the netlist, in card order, bit for bit:
/// the values behind the card handles [`fold_device`] folds.
fn fold_cards(netlist: &Netlist) -> u64 {
    netlist
        .cards_slice()
        .iter()
        .flat_map(|card| card.words())
        .fold(crate::mna::STRUCTURAL_FP_SEED, fnv)
}

/// FNV fingerprint of everything a partition plan reads from the
/// netlist: the model cards, then structure and model words in device
/// order. A netlist with the same structure but other model cards gets
/// other templates, so it must not reuse a plan (or the macromodels
/// keyed on its template ids). Allocation-free; one walk over the cards
/// and one over the devices.
fn plan_fingerprint(netlist: &Netlist) -> u64 {
    netlist
        .devices_with_offsets()
        .fold(fold_cards(netlist), |h, (device, offset)| {
            fold_device(netlist, h, device, offset)
        })
}

impl PartitionPlan {
    fn combined_fp(netlist_fp: u64, partition: &Partition) -> u64 {
        fnv(fnv(FNV_SEED, netlist_fp), partition.fingerprint)
    }

    /// Builds the partition plan, validating that no device couples two
    /// distinct blocks. Runs in time linear in the device count plus
    /// the interface entries written: boundaries, device lists, the
    /// interface pattern and its slot numbering are bucketed, never
    /// comparison-sorted or searched as a whole, and templates are
    /// interned through a hash map.
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
        let iface_nodes = iface_globals.partition_point(|&g| g < node_unknowns);

        // Device walk: every stamp lands at the cross product of the
        // device's own unknowns (the same slot enumeration as
        // StampPlan::build). A device touching a block joins that
        // block's device list and puts its interface unknowns on the
        // block's boundary; its interface entries are a subset of the
        // boundary clique added below. Every other device is
        // interface-only and contributes entries of its own. The same
        // walk folds the plan fingerprint (after the cards: structure and
        // model words).
        let mut netlist_fp = fold_cards(netlist);
        let mut bound_pairs: Vec<(u32, u32)> = Vec::new();
        let mut device_pairs: Vec<(u32, u32)> = Vec::new();
        let mut iface_devices: Vec<u32> = Vec::new();
        let mut block_dev_count = vec![0u32; partition.blocks.len()];
        let mut schedule: Vec<Run> = Vec::new();
        let mut device_entries: Vec<(u32, u32)> = Vec::new();
        let mut device_starts: Vec<u32> = Vec::new();
        let mut iface: Vec<u32> = Vec::with_capacity(8);
        for (index, (device, branch_offset)) in netlist.devices_with_offsets().enumerate() {
            netlist_fp = fold_device(netlist, netlist_fp, device, branch_offset);
            let (unknowns, count) = device_unknowns(device, branch_offset);
            let mut touched_block: Option<u32> = None;
            iface.clear();
            for &s in &unknowns[..count] {
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
                Some(b) => {
                    bound_pairs.extend(iface.iter().map(|&i| (b, i)));
                    device_pairs.push((b, index as u32));
                    let pos = block_dev_count[b as usize];
                    block_dev_count[b as usize] += 1;
                    match schedule.last_mut() {
                        Some(Run::Block { block, to, .. }) if *block == b && *to == pos => *to += 1,
                        _ => schedule.push(Run::Block {
                            block: b,
                            from: pos,
                            to: pos + 1,
                        }),
                    }
                }
                None => {
                    let pos = iface_devices.len() as u32;
                    iface_devices.push(index as u32);
                    match schedule.last_mut() {
                        Some(Run::Iface { to, .. }) if *to == pos => *to += 1,
                        _ => schedule.push(Run::Iface {
                            from: pos,
                            to: pos + 1,
                        }),
                    }
                    device_starts.push(device_entries.len() as u32);
                    for &r in &iface {
                        device_entries.extend(iface.iter().map(|&c| (r, c)));
                    }
                }
            }
        }
        schedule.extend(
            (0..partition.blocks.len() as u32)
                .filter(|&b| block_dev_count[b as usize] == 0)
                .map(|block| Run::Block {
                    block,
                    from: 0,
                    to: 0,
                }),
        );
        drop(block_dev_count);
        device_starts.push(device_entries.len() as u32);

        // Block boundaries: bucket the (block, interface) pairs by
        // block, then sort and deduplicate each block's handful. Device
        // lists bucket the same way; the stable bucketing keeps each
        // block's devices in device order.
        let (bnd_start, mut raw) =
            bucket_by_key(partition.blocks.len(), bound_pairs.iter().copied());
        drop(bound_pairs);
        let (dev_start, block_devices) =
            bucket_by_key(partition.blocks.len(), device_pairs.iter().copied());
        drop(device_pairs);
        let mut boundaries: Vec<u32> = Vec::with_capacity(raw.len());
        let mut blocks: Vec<BlockPlan> = Vec::with_capacity(partition.blocks.len());
        let mut max_block_len = 0usize;
        let mut clique_slots = 0usize;
        for (bi, &(start, len)) in partition.blocks.iter().enumerate() {
            let seg = &mut raw[bnd_start[bi]..bnd_start[bi + 1]];
            seg.sort_unstable();
            let bnd_off = boundaries.len();
            for &i in seg.iter() {
                if boundaries.len() == bnd_off || boundaries.last() != Some(&i) {
                    boundaries.push(i);
                }
            }
            let nb = boundaries.len() - bnd_off;
            blocks.push(BlockPlan {
                start,
                len,
                bnd_off: bnd_off as u32,
                nb: nb as u32,
                dev_off: dev_start[bi] as u32,
                ndev: (dev_start[bi + 1] - dev_start[bi]) as u32,
                template: u32::MAX,
                clique_off: u32::try_from(clique_slots).expect("clique slots fit u32"),
            });
            clique_slots += nb * nb;
            max_block_len = max_block_len.max(len);
        }
        drop(raw);

        intern_templates(
            netlist,
            &remap,
            &boundaries,
            &block_devices,
            node_unknowns,
            &mut blocks,
        );

        // Interface pattern: interface-only device entries, each
        // block's boundary clique and the interface node diagonals,
        // merged into the CSC pattern in linear time.
        let cliques = blocks.iter().flat_map(|bp| {
            let bnd = &boundaries[bp.bnd_off as usize..][..bp.nb()];
            bnd.iter()
                .flat_map(move |&p| bnd.iter().map(move |&q| (p, q)))
        });
        let layout = if ni < SPARSE_THRESHOLD {
            let diagonals = (0..iface_nodes as u32).map(|i| (i, i));
            let pattern = CscPattern::from_entries(
                ni,
                device_entries
                    .iter()
                    .copied()
                    .chain(cliques)
                    .chain(diagonals),
            );
            let touched = pattern.offsets();
            IfaceLayout::Dense {
                structure: LuStructure::from_offsets(ni, &touched),
                touched,
            }
        } else {
            // The clique slots are numbered column by column along with
            // the pattern: each block on whose boundary column `c` lies
            // (bucketed by that column) reads the slots of its clique's
            // column `c` off the column's row→slot map.
            let (member_start, members) = bucket_by_key(
                ni,
                blocks.iter().enumerate().flat_map(|(b, bp)| {
                    boundaries[bp.bnd_off as usize..][..bp.nb()]
                        .iter()
                        .map(move |&i| (i, b as u32))
                }),
            );
            let mut clique_table = vec![0u32; clique_slots];
            let slots = CscSlots::build(
                ni,
                &device_entries,
                cliques,
                iface_nodes,
                |c, slot_of_row| {
                    for &b in &members[member_start[c]..member_start[c + 1]] {
                        let bp = &blocks[b as usize];
                        let bnd = &boundaries[bp.bnd_off as usize..][..bp.nb()];
                        let q = boundary_pos(bnd, c as u32);
                        let clique =
                            &mut clique_table[bp.clique_off as usize..][..bnd.len() * bnd.len()];
                        for (slot, &r) in clique[q..].iter_mut().step_by(bnd.len()).zip(bnd) {
                            *slot = slot_of_row[r as usize];
                        }
                    }
                },
            );
            IfaceLayout::Sparse(SparseIface {
                slots,
                device_starts,
                cliques: clique_table,
            })
        };
        drop(device_entries);

        Ok(PartitionPlan {
            n,
            ni,
            num_nodes: netlist.num_nodes(),
            num_devices: netlist.num_devices(),
            remap,
            iface_globals,
            iface_nodes,
            blocks,
            boundaries,
            iface_devices,
            block_devices,
            schedule,
            layout,
            fingerprint: Self::combined_fp(netlist_fp, partition),
            max_block_len,
        })
    }

    /// Whether this plan still describes the (netlist, partition) pair.
    /// Allocation-free, used as the per-solve staleness guard; keyed on
    /// [`plan_fingerprint`] (cards, structure and model words) directly, so
    /// no monolithic stamp plan is ever needed.
    pub(crate) fn matches(&self, netlist: &Netlist, partition: &Partition) -> bool {
        self.n == partition.n
            && self.n == netlist.num_unknowns()
            && self.num_nodes == netlist.num_nodes()
            && self.num_devices == netlist.num_devices()
            && self.fingerprint == Self::combined_fp(plan_fingerprint(netlist), partition)
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

    /// Indices of block `block`'s devices, in device order.
    pub(crate) fn block_devices(&self, block: usize) -> &[u32] {
        let bp = &self.blocks[block];
        &self.block_devices[bp.dev_off as usize..][..bp.ndev as usize]
    }

    /// Local indices of block `block`'s node unknowns (the gmin
    /// diagonals of its local system).
    pub(crate) fn block_node_locals(&self, block: usize) -> std::ops::Range<usize> {
        let bp = &self.blocks[block];
        let node_unknowns = self.num_nodes - 1;
        0..node_unknowns.saturating_sub(bp.start).min(bp.len)
    }

    /// Interface index of global unknown `g`, which an interface-only
    /// device stamped.
    #[inline]
    pub(crate) fn iface_index(&self, g: usize) -> usize {
        match self.remap[g] {
            Slot::Iface(i) => i as usize,
            Slot::Block { .. } => unreachable!("interface-only device stamped a block unknown"),
        }
    }

    /// Global index of the device at position `pos` of the
    /// interface-only device list.
    #[inline]
    pub(crate) fn iface_device(&self, pos: usize) -> usize {
        self.iface_devices[pos] as usize
    }

    /// Value slots of the entries of the device at position `pos` of the
    /// interface-only device list, row-major over its unknowns.
    ///
    /// # Panics
    ///
    /// Panics if the interface is below
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD), where it
    /// has no slots.
    pub(crate) fn iface_device_slots(&self, pos: usize) -> &[u32] {
        let IfaceLayout::Sparse(sparse) = &self.layout else {
            unreachable!("a dense interface has no value slots");
        };
        let starts = &sparse.device_starts;
        &sparse.slots.devices[starts[pos] as usize..starts[pos + 1] as usize]
    }

    /// Routes one matrix stamp of a block device at global `(row, col)`:
    /// into the block's local `matrix` when it touches a block unknown,
    /// onto the boundary `tape` otherwise. Kept out of line: only cache
    /// misses stamp blocks, and inlining this into the shared sink
    /// would bloat every device's stamping code.
    #[cold]
    pub(crate) fn stamp_block_entry(
        &self,
        block: usize,
        row: usize,
        col: usize,
        value: f64,
        matrix: &mut DenseMatrix,
        tape: &mut Vec<TapeEntry>,
    ) {
        let len = self.blocks[block].len;
        let (r, c) = (self.local_index(block, row), self.local_index(block, col));
        if r >= len && c >= len {
            tape.push(TapeEntry {
                p: (r - len) as u32,
                q: (c - len) as u32,
                value,
            });
        } else {
            matrix.add(r, c, value);
        }
    }

    /// As [`PartitionPlan::stamp_block_entry`], for a right-hand-side
    /// stamp at global `row`.
    #[cold]
    pub(crate) fn stamp_block_rhs(
        &self,
        block: usize,
        row: usize,
        value: f64,
        rhs: &mut [f64],
        tape: &mut Vec<TapeEntry>,
    ) {
        let len = self.blocks[block].len;
        let r = self.local_index(block, row);
        if r >= len {
            tape.push(TapeEntry {
                p: (r - len) as u32,
                q: TapeEntry::RHS,
                value,
            });
        } else {
            rhs[r] += value;
        }
    }

    /// Position of global unknown `g` in block `block`'s local system:
    /// its local index for a block unknown, `len` plus its boundary
    /// position for an interface unknown.
    #[inline]
    fn local_index(&self, block: usize, g: usize) -> usize {
        let bp = &self.blocks[block];
        match self.remap[g] {
            Slot::Block { block: b, local } => {
                debug_assert_eq!(
                    b as usize, block,
                    "partition plan rejected cross-block devices"
                );
                local as usize
            }
            Slot::Iface(i) => bp.len + boundary_pos(self.boundary(bp), i),
        }
    }
}

/// Assigns every block its template id, numbering templates densely
/// from 0 in order of first appearance.
///
/// A block's signature is its order, its boundary size, how many of its
/// unknowns are nodes (they take gmin), and every device in device
/// order: kind code, terminals and branch rows as block-relative
/// positions (0 for ground, `1 << 32 | k` for local unknown `k`,
/// `2 << 32 | q` for boundary position `q`), then the model words.
/// Equal signatures stamp bit-identical local systems at bit-identical
/// inputs (see [`ElementKind`]). Signatures are interned through an FNV-keyed map whose
/// candidates are confirmed word by word, so the pass is linear.
fn intern_templates(
    netlist: &Netlist,
    remap: &[Slot],
    boundaries: &[u32],
    block_devices: &[u32],
    node_unknowns: usize,
    blocks: &mut [BlockPlan],
) {
    const NO_TEMPLATE: u32 = u32::MAX;
    let mut sig: Vec<u64> = Vec::new();
    // Each template's signature, back to back, with `sig_start`
    // offsets; `newest` maps a hash to its newest template, and
    // `older` chains templates whose signatures share a hash.
    let mut sigs: Vec<u64> = Vec::new();
    let mut sig_start: Vec<usize> = vec![0];
    let mut newest: HashMap<u64, u32> = HashMap::new();
    let mut older: Vec<u32> = Vec::new();
    let mut last = NO_TEMPLATE;
    for bp in blocks.iter_mut() {
        let boundary = &boundaries[bp.bnd_off as usize..][..bp.nb()];
        let position = |g: usize| match remap[g] {
            Slot::Block { local, .. } => 1 << 32 | u64::from(local),
            Slot::Iface(i) => 2 << 32 | boundary_pos(boundary, i) as u64,
        };
        sig.clear();
        sig.push(bp.len as u64);
        sig.push(bp.nb as u64);
        sig.push(node_unknowns.saturating_sub(bp.start).min(bp.len) as u64);
        for &d in &block_devices[bp.dev_off as usize..][..bp.ndev as usize] {
            let (device, branch_offset) = netlist.device_with_offset(d as usize);
            sig.push(device.code());
            let (terminals, count) = device.terminals();
            sig.extend(
                terminals[..count]
                    .iter()
                    .map(|t| t.unknown_index().map_or(0, position)),
            );
            let branches = device.num_branches();
            sig.push(branches as u64);
            sig.extend((branch_offset..branch_offset + branches).map(position));
            model_words(netlist, device, |w| sig.push(w));
        }
        let signature = |t: u32| &sigs[sig_start[t as usize]..sig_start[t as usize + 1]];
        // Neighbouring blocks usually share a template: try the last
        // one before hashing.
        if last != NO_TEMPLATE && signature(last) == &sig[..] {
            bp.template = last;
            continue;
        }
        let h = sig.iter().fold(FNV_SEED, |h, &w| fnv(h, w));
        let head = newest.get(&h).copied().unwrap_or(NO_TEMPLATE);
        let mut t = head;
        while t != NO_TEMPLATE && signature(t) != &sig[..] {
            t = older[t as usize];
        }
        if t == NO_TEMPLATE {
            t = older.len() as u32;
            older.push(head);
            newest.insert(h, t);
            sigs.extend_from_slice(&sig);
            sig_start.push(sigs.len());
        }
        bp.template = t;
        last = t;
    }
}

/// One stamp a block device made on its boundary: a matrix entry at
/// boundary positions `(p, q)`, or a right-hand-side entry at `p` when
/// `q` is [`TapeEntry::RHS`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeEntry {
    pub(crate) p: u32,
    pub(crate) q: u32,
    pub(crate) value: f64,
}

impl TapeEntry {
    /// `q` of a right-hand-side entry.
    pub(crate) const RHS: u32 = u32::MAX;
}

/// Buffers for stamping one block's devices on a cache miss.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// The block's local matrix: `B`, `E` and `F` at block-unknowns-
    /// first positions (boundary-to-boundary stamps go to the tape).
    local: DenseMatrix,
    /// `r_B`, then room for the boundary rows (which stay zero).
    rhs: Vec<f64>,
    /// Boundary stamps in stamping order, with per-device offsets.
    tape: Vec<TapeEntry>,
    tape_dev: Vec<u32>,
    /// `[B|E|F]` packed row-major — the second-level cache key.
    bef: Vec<f64>,
    /// `B` alone, staged for factoring.
    b: DenseMatrix,
    /// Solve scratch of the block order.
    work: Vec<f64>,
}

impl BlockScratch {
    /// Packs `[B|E|F]` of the stamped local system of a block with `bl`
    /// unknowns and `nb` boundary entries; returns its FNV-1a hash.
    fn pack_bef(&mut self, bl: usize, nb: usize) -> u64 {
        let BlockScratch { local, bef, .. } = self;
        bef.clear();
        for r in 0..bl {
            bef.extend((0..bl).map(|c| local.get(r, c)));
        }
        for r in 0..bl {
            bef.extend((0..nb).map(|q| local.get(r, bl + q)));
        }
        for p in 0..nb {
            bef.extend((0..bl).map(|c| local.get(bl + p, c)));
        }
        bef.iter()
            .fold(fnv(fnv(FNV_SEED, bl as u64), nb as u64), |h, v| {
                fnv(h, v.to_bits())
            })
    }
}

/// One cached block macromodel. The first-level key is the block's
/// template plus the exact bits of everything its devices read; the
/// second-level key is the exact bits of the `[B|E|F]` they stamped.
#[derive(Debug, Clone, Default)]
struct MacroSlot {
    /// FNV-1a over `key`; 0 while (re)building.
    fp: u64,
    /// Template id, the bits of `x` at the block's unknowns and
    /// boundary, gmin and the source scale — the full compare that
    /// makes an FNV collision harmless, same discipline as the factor
    /// cache. Empty while (re)building.
    key: Vec<u64>,
    /// FNV-1a over `bef`.
    bef_fp: u64,
    /// The stamped `[B|E|F]`, row-major `B` (`len×len`), `E`
    /// (`len×nb`), `F` (`nb×len`). Empty while (re)building.
    bef: Vec<f64>,
    bl: usize,
    nb: usize,
    /// `B`, factored.
    lu: LuWorkspace,
    /// `B⁻¹E`, column-major.
    binv_e: Vec<f64>,
    /// The interface term `−F·B⁻¹E`, row-major `nb×nb`.
    neg_fbe: Vec<f64>,
    /// `r_B`, the block rows of the right-hand side.
    r_b: Vec<f64>,
    /// `F·B⁻¹r_B`, subtracted from the interface right-hand side.
    fbr: Vec<f64>,
    /// The block's boundary stamps, replayed into the interface in
    /// device order; device `d` of the block wrote
    /// `tape[tape_dev[d]..tape_dev[d + 1]]`.
    tape: Vec<TapeEntry>,
    tape_dev: Vec<u32>,
    /// LRU clock of the last hit or build.
    tick: u64,
    /// The step that last served a block from this slot. The step
    /// reads the slot again after the lookup, so it is not evicted or
    /// rewritten during that step.
    step: u64,
}

impl MacroSlot {
    /// Reduces `[B|E|F]` of `scratch` into the matrix half: factors `B`,
    /// then `B⁻¹E` and `−F·B⁻¹E`. `start` maps a singular pivot back to
    /// the global unknown.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when `B` has no usable pivot.
    fn reduce_matrix(
        &mut self,
        scratch: &mut BlockScratch,
        (bl, nb, start): (usize, usize, usize),
    ) -> Result<(), Error> {
        let BlockScratch { bef, b, work, .. } = scratch;
        b.resize_clear(bl);
        for r in 0..bl {
            for c in 0..bl {
                b.set(r, c, bef[r * bl + c]);
            }
        }
        self.lu.factor_from(b).map_err(|e| match e {
            Error::SingularMatrix { pivot_row, .. } => Error::SingularMatrix {
                pivot_row: start + pivot_row,
                unknown: None,
            },
            other => other,
        })?;
        let e = &bef[bl * bl..bl * bl + bl * nb];
        self.binv_e.clear();
        self.binv_e.resize(bl * nb, 0.0);
        for q in 0..nb {
            for k in 0..bl {
                work[k] = e[k * nb + q];
            }
            self.lu
                .solve_into(&work[..bl], &mut self.binv_e[q * bl..(q + 1) * bl]);
        }
        let f = &bef[bl * bl + bl * nb..];
        self.neg_fbe.clear();
        self.neg_fbe.resize(nb * nb, 0.0);
        for p in 0..nb {
            for q in 0..nb {
                let mut acc = 0.0;
                for k in 0..bl {
                    acc += f[p * bl + k] * self.binv_e[q * bl + k];
                }
                self.neg_fbe[p * nb + q] = -acc;
            }
        }
        self.bef.clear();
        self.bef.extend_from_slice(bef);
        self.bl = bl;
        self.nb = nb;
        Ok(())
    }

    /// Takes over `src`'s matrix half, reusing this slot's buffers.
    fn copy_matrix_half(&mut self, src: &MacroSlot) {
        self.bef_fp = src.bef_fp;
        self.bef.clear();
        self.bef.extend_from_slice(&src.bef);
        self.bl = src.bl;
        self.nb = src.nb;
        self.lu.copy_from(&src.lu);
        self.binv_e.clear();
        self.binv_e.extend_from_slice(&src.binv_e);
        self.neg_fbe.clear();
        self.neg_fbe.extend_from_slice(&src.neg_fbe);
    }

    /// Takes the input half from the block just stamped into `scratch`:
    /// `r_B`, `F·B⁻¹r_B` through this slot's factors, and the tape.
    fn take_input_half(&mut self, scratch: &mut BlockScratch) {
        let (bl, nb) = (self.bl, self.nb);
        self.r_b.clear();
        self.r_b.extend_from_slice(&scratch.rhs[..bl]);
        let y = &mut scratch.work[..bl];
        self.lu.solve_into(&self.r_b, y);
        let f = &self.bef[bl * bl + bl * nb..];
        self.fbr.clear();
        for p in 0..nb {
            let mut acc = 0.0;
            for k in 0..bl {
                acc += f[p * bl + k] * y[k];
            }
            self.fbr.push(acc);
        }
        self.tape.clear();
        self.tape.extend_from_slice(&scratch.tape);
        self.tape_dev.clear();
        self.tape_dev.extend_from_slice(&scratch.tape_dev);
    }
}

/// The slot `served` names, for writing.
fn pick<'a>(
    slots: &'a mut [MacroSlot],
    spill: &'a mut [MacroSlot],
    served: Served,
) -> &'a mut MacroSlot {
    match served {
        Served::Slot(i) => &mut slots[i as usize],
        Served::Spill(i) => &mut spill[i as usize],
    }
}

/// Mutable `slots[i]` alongside shared `slots[j]`, for `i != j`.
fn pair_mut(slots: &mut [MacroSlot], i: usize, j: usize) -> (&mut MacroSlot, &MacroSlot) {
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = slots.split_at_mut(j);
        (&mut lo[i], &hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(i);
        (&mut hi[0], &lo[j])
    }
}

/// Exact-bits equality on value slices (NaN-safe, signed-zero-aware).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Where a block's macromodel lives for the rest of a step.
#[derive(Debug, Clone, Copy)]
enum Served {
    /// A cache slot (pinned for the step).
    Slot(u32),
    /// A spill slot, for a block built while every cache slot was
    /// pinned.
    Spill(u32),
}

/// Input-keyed macromodel store with LRU eviction over
/// [`MACRO_CACHE_SLOTS`] slots. Evicted slots keep their buffers for the
/// replacement, so a warmed cache serves any steady-state mix of inputs
/// without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct MacroCache {
    slots: Vec<MacroSlot>,
    clock: u64,
    step: u64,
    /// Slot of the most recent hit or build, probed first: neighbouring
    /// blocks usually share an input.
    mru: usize,
    /// Overflow for steps serving more distinct blocks than the cache
    /// holds; the first `spill_used` are live this step.
    spill: Vec<MacroSlot>,
    spill_used: usize,
    /// The current block's first-level key.
    key: Vec<u64>,
    scratch: BlockScratch,
}

impl MacroCache {
    /// Forgets every macromodel but keeps the slot buffers.
    fn invalidate(&mut self) {
        for slot in &mut self.slots {
            slot.fp = 0;
            slot.key.clear();
            slot.bef_fp = 0;
            slot.bef.clear();
            slot.tick = 0;
        }
        self.clock = 0;
    }

    /// Opens a new reduction step: slots served from now on stay
    /// pinned until the next call.
    fn begin_step(&mut self) {
        self.step += 1;
        self.spill_used = 0;
    }

    /// The slot a block was served from this step.
    fn slot(&self, served: Served) -> &MacroSlot {
        match served {
            Served::Slot(i) => &self.slots[i as usize],
            Served::Spill(i) => &self.spill[i as usize],
        }
    }

    /// A slot for a new key: a fresh one while under capacity, else the
    /// least recently used slot not serving this step, poisoned until
    /// its key is published. `None` when every slot serves this step.
    fn claim(&mut self) -> Option<usize> {
        let i = if self.slots.len() < MACRO_CACHE_SLOTS {
            self.slots.push(MacroSlot::default());
            self.slots.len() - 1
        } else {
            let step = self.step;
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.step != step)
                .min_by_key(|(_, s)| s.tick)
                .map(|(i, _)| i)?
        };
        let slot = &mut self.slots[i];
        slot.fp = 0;
        slot.key.clear();
        slot.bef_fp = 0;
        slot.bef.clear();
        Some(i)
    }

    /// A claimed cache slot, or the next spill slot of this step when
    /// every cache slot serves this step.
    fn claim_or_spill(&mut self) -> Served {
        if let Some(i) = self.claim() {
            return Served::Slot(i as u32);
        }
        if self.spill_used == self.spill.len() {
            self.spill.push(MacroSlot::default());
        }
        self.spill_used += 1;
        Served::Spill(self.spill_used as u32 - 1)
    }

    /// Serves block `bi` at the DC estimate `x`: a first-level hit
    /// costs a key gather and compare. On a miss the block's devices
    /// stamp its local system; a slot holding the same `[B|E|F]` then
    /// lends its factors, so only the input half (`r_B`, `F·B⁻¹r_B`,
    /// tape) is new, and otherwise `B` is factored fresh. The result
    /// is keyed in a slot — the matching slot itself unless it already
    /// serves this step — or spilled when every slot serves this step.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when a fresh `B` has no usable pivot.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &mut self,
        netlist: &Netlist,
        plan: &PartitionPlan,
        bi: usize,
        x: &[f64],
        gmin: f64,
        source_scale: f64,
        counters: &mut SolveCounters,
    ) -> Result<Served, Error> {
        let bp = &plan.blocks[bi];
        let (bl, nb) = (bp.len, bp.nb());
        let key = &mut self.key;
        key.clear();
        key.push(u64::from(bp.template));
        key.extend(x[bp.start..bp.start + bl].iter().map(|v| v.to_bits()));
        key.extend(
            plan.boundary(bp)
                .iter()
                .map(|&i| x[plan.iface_globals[i as usize]].to_bits()),
        );
        key.push(gmin.to_bits());
        key.push(source_scale.to_bits());
        let fp = key.iter().fold(FNV_SEED, |h, &w| fnv(h, w));
        self.clock += 1;
        let hit = |s: &MacroSlot| s.fp == fp && s.key == *key;
        let found = if self.slots.get(self.mru).is_some_and(hit) {
            Some(self.mru)
        } else {
            self.slots.iter().position(hit)
        };
        if let Some(i) = found {
            counters.schur_blocks_shared += 1;
            let slot = &mut self.slots[i];
            slot.tick = self.clock;
            slot.step = self.step;
            self.mru = i;
            return Ok(Served::Slot(i as u32));
        }

        let scratch = &mut self.scratch;
        if scratch.local.order() != bl + nb {
            scratch.local.resize_clear(bl + nb);
        }
        scratch.rhs.resize(bl + nb, 0.0);
        crate::mna::assemble_block(
            netlist,
            plan,
            bi,
            x,
            gmin,
            source_scale,
            &mut scratch.local,
            &mut scratch.rhs,
            &mut scratch.tape,
            &mut scratch.tape_dev,
        );
        let bef_fp = scratch.pack_bef(bl, nb);
        let lender = self.slots.iter().position(|s| {
            s.bef_fp == bef_fp && s.bl == bl && s.nb == nb && bits_eq(&s.bef, &scratch.bef)
        });
        let served = match lender {
            Some(j) => {
                counters.schur_blocks_shared += 1;
                if self.slots[j].step == self.step {
                    let served = self.claim_or_spill();
                    let (dst, src) = match served {
                        Served::Slot(i) => pair_mut(&mut self.slots, i as usize, j),
                        Served::Spill(i) => (&mut self.spill[i as usize], &self.slots[j]),
                    };
                    dst.copy_matrix_half(src);
                    served
                } else {
                    // Nothing read the lender this step yet: rekey it
                    // in place.
                    Served::Slot(j as u32)
                }
            }
            None => {
                counters.schur_blocks_rebuilt += 1;
                let served = self.claim_or_spill();
                let dst = pick(&mut self.slots, &mut self.spill, served);
                dst.reduce_matrix(&mut self.scratch, (bl, nb, bp.start))?;
                dst.bef_fp = bef_fp;
                served
            }
        };
        let dst = pick(&mut self.slots, &mut self.spill, served);
        dst.take_input_half(&mut self.scratch);
        dst.tick = self.clock;
        dst.step = self.step;
        if let Served::Slot(i) = served {
            dst.key.clear();
            dst.key.extend_from_slice(&self.key);
            dst.fp = fp;
            self.mru = i as usize;
        }
        Ok(served)
    }
}

/// The reduced interface matrix a reduction step accumulates into.
#[derive(Debug)]
pub(crate) enum IfaceMatrix<'a> {
    /// Below [`SPARSE_THRESHOLD`]: a dense matrix in interface
    /// numbering.
    Dense(&'a mut DenseMatrix),
    /// At or above it: the interface sparse LU's CSC value slots, as the
    /// plan numbers them.
    Slots(&'a mut [f64]),
}

/// Every buffer the block-Schur path needs, owned by the
/// [`SolveScratch`] so warmed re-solves stay allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchurState {
    pub(crate) plan: Option<PartitionPlan>,
    /// The reduced interface matrix of an interface below
    /// [`SPARSE_THRESHOLD`] (empty otherwise: a larger one accumulates
    /// in `iface_sparse`'s value slots); entries outside the plan's
    /// interface pattern stay zero.
    iface: DenseMatrix,
    cache: MacroCache,
    /// Parameter and source tables the cached macromodels were built
    /// under.
    params_seen: Vec<f64>,
    sources_seen: Vec<f64>,
    /// Where each block's macromodel lives this step (the reduce phase
    /// fills it, back-substitution reads it).
    served: Vec<Served>,
    rhs_i: Vec<f64>,
    x_i: Vec<f64>,
    /// `r_B − E·x_I` of one block during back-substitution.
    back: Vec<f64>,
    iface_lu: LuWorkspace,
    iface_sparse: SparseLu,
}

impl SchurState {
    /// (Re)builds the partition plan and sizes every buffer; a no-op
    /// (and allocation-free) when the (structure, partition) pair and
    /// the netlist's parameter and source tables are unchanged.
    pub(crate) fn ensure(&mut self, netlist: &Netlist, partition: &Partition) -> Result<(), Error> {
        let stale = match &self.plan {
            Some(p) => !p.matches(netlist, partition),
            None => true,
        };
        if stale {
            let p = PartitionPlan::build(netlist, partition)?;
            // A structural change orphans every cached macromodel.
            self.cache.invalidate();
            self.served.clear();
            self.served.resize(p.blocks.len(), Served::Slot(0));
            // Full zeroing establishes the zeros-outside-the-pattern
            // invariant for the new pattern; a sparse interface stages
            // nothing densely.
            self.iface.resize_clear(match p.layout {
                IfaceLayout::Dense { .. } => p.ni,
                IfaceLayout::Sparse(_) => 0,
            });
            self.rhs_i.clear();
            self.rhs_i.resize(p.ni, 0.0);
            self.x_i.clear();
            self.x_i.resize(p.ni, 0.0);
            let s = &mut self.cache.scratch;
            for t in [&mut s.work, &mut self.back] {
                t.clear();
                t.resize(p.max_block_len, 0.0);
            }
            self.plan = Some(p);
        }
        // Macromodels hold stamps of the parameter and source values
        // they were built under: a solve starting from different tables
        // must not hit them.
        if !bits_eq(&self.params_seen, netlist.params_slice())
            || !bits_eq(&self.sources_seen, netlist.sources_slice())
        {
            self.cache.invalidate();
            self.params_seen.clear();
            self.params_seen.extend_from_slice(netlist.params_slice());
            self.sources_seen.clear();
            self.sources_seen.extend_from_slice(netlist.sources_slice());
        }
        Ok(())
    }

    /// Order of the largest dense matrix the state holds.
    #[cfg(test)]
    pub(crate) fn largest_dense_order(&self) -> usize {
        let cache = &self.cache;
        let slot_lus = cache.slots.iter().chain(&cache.spill).map(|s| s.lu.order());
        [
            self.iface.order(),
            self.iface_lu.order(),
            cache.scratch.local.order(),
            cache.scratch.b.order(),
        ]
        .into_iter()
        .chain(slot_lus)
        .max()
        .unwrap_or(0)
    }

    /// Order of the reduced interface system, once a plan is built.
    pub(crate) fn interface_unknowns(&self) -> Option<usize> {
        self.plan.as_ref().map(|p| p.interface_unknowns())
    }

    /// One Newton iteration's linear solve through the reduction at the
    /// DC estimate `x`, replacing the monolithic assemble/factor/solve
    /// triple in [`crate::newton`] (the surrounding damping and
    /// convergence logic is shared unchanged):
    ///
    /// 1. In device order, interface-only devices stamp the reduced
    ///    system and each block replays its boundary stamps from the
    ///    macromodel serving it (a block's devices are evaluated only
    ///    when its input misses the cache); then gmin.
    /// 2. Each block folds `−F·B⁻¹E` and `−F·B⁻¹r_B` into the interface.
    /// 3. The reduced interface system is factored and solved.
    /// 4. Each block back-substitutes `x_B = B⁻¹(r_B − E·x_I)`.
    ///
    /// Every sum runs in the order the device-by-device assembly used,
    /// so the result does not depend on what the cache held, nor on
    /// whether the interface accumulates densely or in sparse slots.
    pub(crate) fn step(
        &mut self,
        netlist: &Netlist,
        x: &[f64],
        gmin: f64,
        source_scale: f64,
        x_new: &mut [f64],
        counters: &mut SolveCounters,
    ) -> Result<(), Error> {
        let SchurState {
            plan,
            iface,
            cache,
            served,
            rhs_i,
            x_i,
            back,
            iface_lu,
            iface_sparse,
            ..
        } = self;
        let plan = plan.as_ref().expect("partition plan ensured before stage");
        counters.schur_interface_unknowns = plan.ni as u64;
        let inputs = (x, gmin, source_scale);
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
        match &plan.layout {
            IfaceLayout::Dense { touched, structure } => {
                iface.clear_offsets(touched);
                let mut matrix = IfaceMatrix::Dense(iface);
                accumulate_interface(
                    netlist,
                    plan,
                    cache,
                    served,
                    inputs,
                    &mut matrix,
                    rhs_i,
                    counters,
                )?;
                iface_lu
                    .factor_planned(iface, structure)
                    .map_err(map_singular)?;
                iface_lu.solve_into(rhs_i, x_i);
            }
            IfaceLayout::Sparse(sparse) => {
                let pattern = &sparse.slots.pattern;
                let mut matrix = IfaceMatrix::Slots(iface_sparse.clear_values(pattern.nnz()));
                accumulate_interface(
                    netlist,
                    plan,
                    cache,
                    served,
                    inputs,
                    &mut matrix,
                    rhs_i,
                    counters,
                )?;
                iface_sparse
                    .factor(pattern, plan.fingerprint)
                    .map_err(map_singular)?;
                iface_sparse.solve_into(rhs_i, x_i);
            }
        }
        // Scatter the interface solution, then back-substitute each
        // block: x_B = B⁻¹ (r_B − E·x_I).
        for (&g, &xi) in plan.iface_globals.iter().zip(x_i.iter()) {
            x_new[g] = xi;
        }
        for (bp, &how) in plan.blocks.iter().zip(served.iter()) {
            let slot = cache.slot(how);
            let (bl, nb) = (bp.len, bp.nb());
            let e = &slot.bef[bl * bl..bl * bl + bl * nb];
            for k in 0..bl {
                let mut t = slot.r_b[k];
                for (q, &b) in plan.boundary(bp).iter().enumerate() {
                    t -= e[k * nb + q] * x_i[b as usize];
                }
                back[k] = t;
            }
            slot.lu
                .solve_into(&back[..bl], &mut x_new[bp.start..bp.start + bl]);
        }
        Ok(())
    }
}

/// Steps 1 and 2 of [`SchurState::step`] at the DC estimate `x`, gmin
/// and source scale of `inputs`: accumulates the reduced interface
/// system into `matrix` (cleared by the caller) and `rhs_i`, serving
/// each block from `cache` and noting in `served` where its macromodel
/// lives. A slot target receives, slot by slot, the additions its dense
/// entry would.
///
/// # Errors
///
/// [`Error::SingularMatrix`] when a freshly stamped block has no usable
/// pivot.
#[allow(clippy::too_many_arguments)]
fn accumulate_interface(
    netlist: &Netlist,
    plan: &PartitionPlan,
    cache: &mut MacroCache,
    served: &mut [Served],
    (x, gmin, source_scale): (&[f64], f64, f64),
    matrix: &mut IfaceMatrix<'_>,
    rhs_i: &mut [f64],
    counters: &mut SolveCounters,
) -> Result<(), Error> {
    let (gmin_slots, cliques): (&[u32], &[u32]) = match &plan.layout {
        IfaceLayout::Sparse(sparse) => (&sparse.slots.gmin, &sparse.cliques),
        IfaceLayout::Dense { .. } => (&[], &[]),
    };
    let clique = |bp: &BlockPlan| &cliques[bp.clique_off as usize..][..bp.nb() * bp.nb()];
    rhs_i.iter_mut().for_each(|v| *v = 0.0);
    cache.begin_step();
    for &run in &plan.schedule {
        match run {
            Run::Iface { from, to } => crate::mna::assemble_partitioned(
                netlist,
                plan,
                from as usize..to as usize,
                x,
                source_scale,
                matrix,
                rhs_i,
            ),
            Run::Block { block, from, to } => {
                let bi = block as usize;
                if from == 0 {
                    served[bi] = cache.serve(netlist, plan, bi, x, gmin, source_scale, counters)?;
                }
                let slot = cache.slot(served[bi]);
                let bp = &plan.blocks[bi];
                let boundary = plan.boundary(bp);
                let tape = &slot.tape
                    [slot.tape_dev[from as usize] as usize..slot.tape_dev[to as usize] as usize];
                for e in tape {
                    let (p, q) = (e.p as usize, e.q as usize);
                    if e.q == TapeEntry::RHS {
                        rhs_i[boundary[p] as usize] += e.value;
                        continue;
                    }
                    match matrix {
                        IfaceMatrix::Dense(m) => {
                            m.add(boundary[p] as usize, boundary[q] as usize, e.value)
                        }
                        IfaceMatrix::Slots(values) => {
                            values[clique(bp)[p * bp.nb() + q] as usize] += e.value
                        }
                    }
                }
            }
        }
    }
    if gmin > 0.0 {
        match matrix {
            IfaceMatrix::Dense(m) => {
                for i in 0..plan.iface_nodes {
                    m.add(i, i, gmin);
                }
            }
            IfaceMatrix::Slots(values) => {
                for &k in gmin_slots {
                    values[k as usize] += gmin;
                }
            }
        }
    }
    for (bp, &how) in plan.blocks.iter().zip(served.iter()) {
        let slot = cache.slot(how);
        let boundary = plan.boundary(bp);
        match matrix {
            IfaceMatrix::Dense(m) => {
                let nb = boundary.len();
                for (p, &row) in boundary.iter().enumerate() {
                    for (q, &col) in boundary.iter().enumerate() {
                        m.add(row as usize, col as usize, slot.neg_fbe[p * nb + q]);
                    }
                }
            }
            IfaceMatrix::Slots(values) => {
                for (&k, &v) in clique(bp).iter().zip(&slot.neg_fbe) {
                    values[k as usize] += v;
                }
            }
        }
        for (&row, &v) in boundary.iter().zip(&slot.fbr) {
            rhs_i[row as usize] -= v;
        }
    }
    Ok(())
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
        latch_chain_with(cells, active, |_| {
            (MosParams::pmos(1.0e-4, 0.55), MosParams::nmos(2.0e-4, 0.55))
        })
    }

    /// As [`latch_chain`], with cell `i`'s (PMOS, NMOS) cards from
    /// `cards(i)`.
    fn latch_chain_with(
        cells: usize,
        active: usize,
        cards: impl Fn(usize) -> (MosParams, MosParams),
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
            let (pmos, nmos) = cards(i);
            nl.mosfet(&format!("MPa{i}"), a, b, rail, pmos)
                .expect("valid card");
            nl.mosfet(&format!("MNa{i}"), a, b, Netlist::GND, nmos)
                .expect("valid card");
            nl.mosfet(&format!("MPb{i}"), b, a, rail, pmos)
                .expect("valid card");
            nl.mosfet(&format!("MNb{i}"), b, a, Netlist::GND, nmos)
                .expect("valid card");
            nodes.push((a, b));
        }
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid partition");
        (nl, nodes, partition)
    }

    /// Asserts two solutions agree per unknown within the Newton
    /// acceptance bound `vntol + reltol·|x|`.
    /// Per-unknown agreement to the Newton acceptance tolerance that
    /// [`solve_array`] solves to.
    fn assert_within_tolerance(want: &[f64], got: &[f64]) {
        let opts = NewtonOptions::default();
        for (i, (&m, &s)) in want.iter().zip(got).enumerate() {
            let tol = opts.vntol + opts.reltol * m.abs().max(s.abs());
            assert!((m - s).abs() <= tol, "unknown {i}: {m} vs {s}");
        }
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
            &NewtonOptions::default(),
            Some(&guess),
            AnalysisMode::Dc,
            &mut mono_scratch,
        )
        .expect("monolithic solve converges");
        let mut schur_scratch = SolveScratch::new();
        let red = solve_array(&nl, &partition, &opts, Some(&guess), &mut schur_scratch)
            .expect("schur solve converges");
        assert_within_tolerance(mono.raw(), red.raw());
        // 10 inactive latches all share one linearization per iterate:
        // almost every block must come from the cache.
        let c = schur_scratch.counters;
        assert!(c.schur_blocks_shared > c.schur_blocks_rebuilt, "{c:?}");
        assert_eq!(c.schur_interface_unknowns, 7, "{c:?}"); // supply, rail, branch, 2 active cells
    }

    #[test]
    fn non_finite_supply_fails_on_the_partitioned_path() {
        // The reduced solve shares Newton's acceptance test, so a NaN
        // supply must end in NoConvergence here too, not in NaN rails.
        for volts in [f64::NAN, f64::INFINITY] {
            let (mut nl, nodes, partition) = latch_chain(6, 1);
            nl.set_source(crate::SourceId(0), volts);
            let guess = latch_guess(&nl, &nodes);
            let mut scratch = SolveScratch::new();
            let r = solve_array(
                &nl,
                &partition,
                &ArraySolveOptions::default(),
                Some(&guess),
                &mut scratch,
            );
            assert!(
                matches!(r, Err(Error::NoConvergence { .. })),
                "supply {volts}: {r:?}"
            );
        }
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
            c.schur_blocks_rebuilt <= steady.stats.iterations as u64,
            "more rebuilds than value-classes: {c:?}"
        );
        assert_eq!(
            c.schur_blocks_shared + c.schur_blocks_rebuilt,
            (steady.stats.iterations * partition.num_blocks()) as u64,
            "{c:?}"
        );
        assert!(c.schur_blocks_shared > 0, "{c:?}");
    }

    #[test]
    fn different_cards_get_different_templates() {
        // Odd cells carry a weaker, leakier card: sharing the even
        // cells' macromodels would solve them with the wrong devices.
        let (nl, nodes, partition) = latch_chain_with(12, 2, |i| {
            if i % 2 == 1 {
                (MosParams::pmos(0.3e-4, 0.35), MosParams::nmos(0.5e-4, 0.30))
            } else {
                (MosParams::pmos(1.0e-4, 0.55), MosParams::nmos(2.0e-4, 0.55))
            }
        });
        let plan = PartitionPlan::build(&nl, &partition).expect("valid plan");
        let mut templates: Vec<u32> = plan.blocks.iter().map(|bp| bp.template).collect();
        templates.sort_unstable();
        templates.dedup();
        assert_eq!(templates, [0, 1]);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mono = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            Some(&guess),
            AnalysisMode::Dc,
            &mut SolveScratch::new(),
        )
        .expect("monolithic solve converges");
        let red = solve_array(
            &nl,
            &partition,
            &opts,
            Some(&guess),
            &mut SolveScratch::new(),
        )
        .expect("schur solve converges");
        assert_within_tolerance(mono.raw(), red.raw());
    }

    /// A latch chain with a resistor across every inactive cell, and
    /// the resistors' parameter handles.
    fn leaky_latch_chain(
        cells: usize,
        ohms: f64,
    ) -> (
        Netlist,
        Vec<(crate::NodeId, crate::NodeId)>,
        Partition,
        Vec<crate::netlist::ParamId>,
    ) {
        let (mut nl, nodes, partition) = latch_chain(cells, 1);
        let leaks = nodes[1..]
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                nl.resistor(&format!("Rleak{i}"), a, b, ohms)
                    .expect("valid")
            })
            .collect();
        (nl, nodes, partition, leaks)
    }

    #[test]
    fn changed_parameters_never_hit_macromodels_of_the_old_values() {
        let (mut nl, nodes, partition, leaks) = leaky_latch_chain(8, 1.0e6);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut scratch = SolveScratch::new();
        let before = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
            .expect("solves")
            .into_raw();
        for &r in &leaks {
            nl.set_param(r, 2.0e4);
        }
        // Same scratch, same start: the first iteration's inputs are
        // exactly those the cache was filled with.
        let reused = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
            .expect("re-solves")
            .into_raw();
        let fresh = solve_array(
            &nl,
            &partition,
            &opts,
            Some(&guess),
            &mut SolveScratch::new(),
        )
        .expect("solves fresh")
        .into_raw();
        assert_ne!(before, fresh, "the parameter change must move the solution");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&fresh));
    }

    #[test]
    fn a_netlist_with_other_model_cards_never_hits_the_old_macromodels() {
        // Same structure, same tables, different MOSFET cards: a scratch
        // reused across the two netlists must not serve the first one's
        // macromodels to the second.
        let chain = |vth: f64| {
            latch_chain_with(8, 1, |_| {
                (MosParams::pmos(1.0e-4, vth), MosParams::nmos(2.0e-4, vth))
            })
        };
        let (first, nodes, partition) = chain(0.55);
        let (second, _, _) = chain(0.35);
        let guess = latch_guess(&first, &nodes);
        let opts = ArraySolveOptions::default();
        let mut scratch = SolveScratch::new();
        solve_array(&first, &partition, &opts, Some(&guess), &mut scratch).expect("solves");
        let reused = solve_array(&second, &partition, &opts, Some(&guess), &mut scratch)
            .expect("solves")
            .into_raw();
        let fresh = solve_array(
            &second,
            &partition,
            &opts,
            Some(&guess),
            &mut SolveScratch::new(),
        )
        .expect("solves fresh")
        .into_raw();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&fresh));
    }

    #[test]
    fn more_distinct_blocks_than_cache_slots_still_solve_exactly() {
        // Every block has its own resistor handle, hence its own
        // template: each step serves more distinct keys than the cache
        // holds, so the overflow blocks take the spill path.
        let cells = MACRO_CACHE_SLOTS + 8;
        let (nl, nodes, partition, _) = leaky_latch_chain(cells, 1.0e6);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mono = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            Some(&guess),
            AnalysisMode::Dc,
            &mut SolveScratch::new(),
        )
        .expect("monolithic solve converges");
        let mut scratch = SolveScratch::new();
        let red = solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch)
            .expect("schur solve converges");
        assert_within_tolerance(mono.raw(), red.raw());
        assert!(scratch.schur.cache.spill.len() >= cells - 1 - MACRO_CACHE_SLOTS);
        let c = scratch.counters;
        assert_eq!(
            c.schur_blocks_shared + c.schur_blocks_rebuilt,
            (red.stats.iterations * partition.num_blocks()) as u64,
            "{c:?}"
        );
    }

    #[test]
    fn blocks_split_across_device_order_replay_their_stamps_in_place() {
        // Pull-ups from each inactive cell's `a` node to the rail are
        // added after every cell, so each block's devices form two runs
        // in device order, the second one stamping the boundary.
        let (mut nl, nodes, partition) = latch_chain(8, 2);
        let rail = nl.find_node("vdd_rail").expect("rail");
        for (i, &(a, _)) in nodes.iter().enumerate().skip(2) {
            nl.resistor(&format!("Rpu{i}"), rail, a, 1.0e7)
                .expect("valid");
        }
        let plan = PartitionPlan::build(&nl, &partition).expect("valid plan");
        let second_runs = plan
            .schedule
            .iter()
            .filter(|run| matches!(run, Run::Block { from, .. } if *from > 0))
            .count();
        assert_eq!(second_runs, partition.num_blocks());
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mono = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            Some(&guess),
            AnalysisMode::Dc,
            &mut SolveScratch::new(),
        )
        .expect("monolithic solve converges");
        let red = solve_array(
            &nl,
            &partition,
            &opts,
            Some(&guess),
            &mut SolveScratch::new(),
        )
        .expect("schur solve converges");
        assert_within_tolerance(mono.raw(), red.raw());
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
            let (terminals, count) = device.terminals();
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

    /// The flat (row-major) offset of each entry of the plan's interface
    /// pattern, in slot order for a sparse interface.
    fn interface_offsets(plan: &PartitionPlan) -> Vec<usize> {
        match &plan.layout {
            IfaceLayout::Dense { touched, .. } => touched.clone(),
            IfaceLayout::Sparse(sparse) => sparse.slots.pattern.offsets(),
        }
    }

    #[test]
    fn bucketed_plan_matches_the_sorted_reference() {
        // Active cells, an interface-only resistor and a source branch
        // exercise every entry source the bucketed build merges. Three
        // active cells keep the interface dense; 64 take it past
        // SPARSE_THRESHOLD, where every slot must also name its entry.
        for active in [3, 64] {
            let (mut nl, nodes, _) = latch_chain(active + 9, active);
            nl.resistor("Rtie", nodes[0].0, nodes[2].1, 1.0e5)
                .expect("valid");
            let blocks = nodes[active..]
                .iter()
                .map(|&(a, _)| (a.index() - 1, 2))
                .collect();
            let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid");
            let plan = PartitionPlan::build(&nl, &partition).expect("valid plan");
            let (boundaries, touched) = reference_pattern(&nl, &plan);
            for (bp, want) in plan.blocks.iter().zip(&boundaries) {
                assert_eq!(plan.boundary(bp), want.as_slice());
            }
            let offsets = interface_offsets(&plan);
            let mut sorted = offsets.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, touched);
            let ni = plan.ni;
            let IfaceLayout::Sparse(sparse) = &plan.layout else {
                assert!(ni < SPARSE_THRESHOLD, "{ni} unknowns staged densely");
                continue;
            };
            assert!(ni >= SPARSE_THRESHOLD);
            let at = |slots: &[u32]| {
                slots
                    .iter()
                    .map(|&k| offsets[k as usize])
                    .collect::<Vec<_>>()
            };
            let clique = |ifaces: &[usize]| {
                ifaces
                    .iter()
                    .flat_map(|&r| ifaces.iter().map(move |&c| r * ni + c))
                    .collect::<Vec<_>>()
            };
            for bp in &plan.blocks {
                let bnd: Vec<usize> = plan.boundary(bp).iter().map(|&i| i as usize).collect();
                let slots = &sparse.cliques[bp.clique_off as usize..][..bnd.len() * bnd.len()];
                assert_eq!(at(slots), clique(&bnd));
            }
            for (pos, &d) in plan.iface_devices.iter().enumerate() {
                let (device, branch_offset) = nl.device_with_offset(d as usize);
                let (unknowns, count) = device_unknowns(device, branch_offset);
                let ifaces: Vec<usize> = unknowns[..count]
                    .iter()
                    .map(|&g| plan.iface_index(g))
                    .collect();
                assert_eq!(at(plan.iface_device_slots(pos)), clique(&ifaces));
            }
            let diagonals: Vec<usize> = (0..plan.iface_nodes).map(|i| i * ni + i).collect();
            assert_eq!(at(&sparse.slots.gmin), diagonals);
        }
    }

    #[test]
    fn schur_path_reuses_its_partition_plan_and_never_plans_the_monolith() {
        let (nl, nodes, partition) = latch_chain(8, 1);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut scratch = SolveScratch::new();
        // A rebuilt plan is constructed while its predecessor is still
        // held, so reuse shows as an unchanged remap buffer.
        let plan_buffer = |scratch: &SolveScratch| {
            let plan = scratch.schur.plan.as_ref().expect("partition plan built");
            plan.remap.as_ptr()
        };
        solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch).expect("solves");
        assert!(
            scratch.plan().is_none(),
            "the Schur path built a stamp plan"
        );
        let first = plan_buffer(&scratch);
        solve_array(&nl, &partition, &opts, Some(&guess), &mut scratch).expect("re-solves");
        assert!(
            scratch.plan().is_none(),
            "the Schur path built a stamp plan"
        );
        assert_eq!(plan_buffer(&scratch), first, "same pair, same plan");
        // A different partition of the same netlist is a new plan.
        let fewer = Partition::new(nl.num_unknowns(), partition.blocks[1..].to_vec())
            .expect("valid partition");
        solve_array(&nl, &fewer, &opts, Some(&guess), &mut scratch).expect("solves");
        assert_ne!(plan_buffer(&scratch), first, "stale plan reused");
        assert_eq!(scratch.schur_interface_unknowns(), Some(7));
    }

    #[test]
    fn sparse_interface_slots_hold_the_dense_route_bit_for_bit() {
        // 64 active latches take the interface past SPARSE_THRESHOLD.
        // An interface-only tie, the source branch, and pull-ups that
        // split every block's devices into two runs (the second
        // replaying a boundary stamp) reach every kind of interface sum.
        const ACTIVE: usize = 64;
        let (mut nl, nodes, _) = latch_chain(ACTIVE + 8, ACTIVE);
        nl.resistor("Rtie", nodes[0].0, nodes[2].1, 1.0e5)
            .expect("valid");
        let rail = nl.find_node("vdd_rail").expect("rail");
        for (i, &(a, _)) in nodes.iter().enumerate().skip(ACTIVE) {
            nl.resistor(&format!("Rpu{i}"), rail, a, 1.0e7)
                .expect("valid");
        }
        let blocks = nodes[ACTIVE..]
            .iter()
            .map(|&(a, _)| (a.index() - 1, 2))
            .collect();
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid");
        let mut state = SchurState::default();
        state.ensure(&nl, &partition).expect("valid partition");
        let SchurState {
            plan,
            cache,
            served,
            ..
        } = &mut state;
        let plan = plan.as_ref().expect("plan built");
        let IfaceLayout::Sparse(sparse) = &plan.layout else {
            panic!("{} interface unknowns staged densely", plan.ni);
        };
        let ni = plan.ni;
        let mut x = latch_guess(&nl, &nodes);
        for (i, v) in x.iter_mut().enumerate() {
            *v += 1.0e-3 * (i as f64 * 0.37).sin();
        }
        let mut counters = SolveCounters::default();
        let inputs = (x.as_slice(), 1.0e-6, 0.9);
        // Sparse first: its blocks miss and build their macromodels,
        // which the dense route then reads from the cache.
        let mut values = vec![0.0; sparse.slots.pattern.nnz()];
        let mut rhs_slots = vec![0.0; ni];
        accumulate_interface(
            &nl,
            plan,
            cache,
            served,
            inputs,
            &mut IfaceMatrix::Slots(&mut values),
            &mut rhs_slots,
            &mut counters,
        )
        .expect("blocks factor");
        let mut dense = DenseMatrix::zeros(ni);
        let mut rhs_dense = vec![0.0; ni];
        accumulate_interface(
            &nl,
            plan,
            cache,
            served,
            inputs,
            &mut IfaceMatrix::Dense(&mut dense),
            &mut rhs_dense,
            &mut counters,
        )
        .expect("blocks factor");
        assert!(counters.schur_blocks_rebuilt > 0 && counters.schur_blocks_shared > 0);
        let offsets = sparse.slots.pattern.offsets();
        for (k, &offset) in offsets.iter().enumerate() {
            let want = dense.get(offset / ni, offset % ni);
            assert_eq!(values[k].to_bits(), want.to_bits(), "slot {k}");
        }
        let held: std::collections::HashSet<usize> = offsets.into_iter().collect();
        for offset in 0..ni * ni {
            let v = dense.get(offset / ni, offset % ni);
            assert!(
                v == 0.0 || held.contains(&offset),
                "{v} outside the pattern"
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rhs_slots), bits(&rhs_dense));
    }

    #[test]
    fn sparse_paths_stage_no_dense_matrix() {
        // 64 active latches: the monolith and the reduced interface are
        // both past SPARSE_THRESHOLD, so neither may leave a dense matrix
        // of that order behind in the scratch they share.
        const ACTIVE: usize = 64;
        let (nl, nodes, partition) = latch_chain(ACTIVE + 8, ACTIVE);
        assert!(partition.interface_unknowns() >= SPARSE_THRESHOLD);
        let guess = latch_guess(&nl, &nodes);
        let mut scratch = SolveScratch::new();
        let mono = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            Some(&guess),
            AnalysisMode::Dc,
            &mut scratch,
        )
        .expect("monolithic solve converges");
        let red = solve_array(
            &nl,
            &partition,
            &ArraySolveOptions::default(),
            Some(&guess),
            &mut scratch,
        )
        .expect("schur solve converges");
        assert_within_tolerance(mono.raw(), red.raw());
        assert!(
            scratch.sparse_lu_nnz().is_some(),
            "monolithic sparse LU ran"
        );
        assert!(
            scratch.schur.iface_sparse.lu_nnz() > 0,
            "interface sparse LU ran"
        );
        let largest = scratch.largest_dense_order();
        assert!(largest < SPARSE_THRESHOLD, "a {largest}-order dense matrix");
    }

    #[test]
    fn singular_interface_names_the_source_loop_on_the_sparse_backend() {
        // Two parallel voltage sources put two dependent branches in
        // the interface, so the reduced system is singular on every
        // rung of the rescue ladder. RCM permutes the interface
        // columns; the error must still report the global index of the
        // branch that lost its pivot, and name it. 64 active latches
        // put 128 cell nodes in the interface, so with the rails, the
        // loop node and the source branches the reduced system is past
        // SPARSE_THRESHOLD.
        const ACTIVE: usize = 64;
        let (mut nl, nodes, _) = latch_chain(ACTIVE + 2, ACTIVE);
        let looped = nl.node("loop");
        nl.vsource("Vloop", looped, Netlist::GND, 0.5);
        nl.vsource("Vloop2", looped, Netlist::GND, 0.5);
        let blocks = nodes[ACTIVE..]
            .iter()
            .map(|&(a, _)| (a.index() - 1, 2))
            .collect();
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid");
        let mut scratch = SolveScratch::new();
        let guess = latch_guess(&nl, &nodes);
        let err = solve_array(
            &nl,
            &partition,
            &ArraySolveOptions::default(),
            Some(&guess),
            &mut scratch,
        )
        .expect_err("a voltage-source loop is singular");
        assert!(
            scratch.schur.iface_sparse.lu_nnz() > 0,
            "sparse backend ran"
        );
        let branches = ["Vloop", "Vloop2"].map(|v| nl.branch_unknown(v).expect("source branch"));
        match &err {
            Error::SingularMatrix { pivot_row, unknown } => {
                assert!(branches.contains(pivot_row), "{err}");
                assert_eq!(
                    unknown.as_deref(),
                    Some(nl.unknown_label(*pivot_row).as_str()),
                    "{err}"
                );
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }

    #[test]
    fn singular_block_reports_the_global_unknown() {
        // One floating two-node block: no device at all, so its B block
        // is all-zero and the first factor must die at the block start.
        // A solve's gmin rungs would shunt it, so this drives one
        // reduction step without gmin.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        let f1 = nl.node("f1");
        let _f2 = nl.node("f2");
        let partition =
            Partition::new(nl.num_unknowns(), vec![(f1.index() - 1, 2)]).expect("valid");
        let mut state = SchurState::default();
        state.ensure(&nl, &partition).expect("valid partition");
        let x = nl.zero_state();
        let mut x_new = nl.zero_state();
        let err = state
            .step(&nl, &x, 0.0, 1.0, &mut x_new, &mut SolveCounters::default())
            .expect_err("floating block is singular");
        match err {
            Error::SingularMatrix { pivot_row, .. } => {
                assert_eq!(pivot_row, f1.index() - 1, "{err}")
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }
}
