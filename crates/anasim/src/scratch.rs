//! Reusable solver workspace: every buffer the Newton loop needs,
//! allocated once and recycled across iterations, continuation stages,
//! rescue rungs, retry attempts — and, when the caller threads one
//! through, across whole campaigns of solves.
//!
//! Only a system below
//! [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns, or a
//! block-Schur interface below it, is held in a dense matrix; a larger
//! one lives in its sparse LU's CSC value slots, which assembly writes
//! directly.

use crate::error::Error;
use crate::matrix::{DenseMatrix, LuWorkspace};
use crate::mna::StampPlan;
use crate::netlist::Netlist;
use crate::schur::{Partition, SchurState};
use crate::sparse::SparseLu;

/// Per-solve fast-path accounting, accumulated while the Newton loop
/// runs and flushed to the `obs` counters (`schur.*`) once per
/// retry-ladder solve, keeping the per-iteration hot path free of
/// atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// Schur block lookups served from the macromodel cache: the
    /// block's inputs hit, or its freshly stamped `[B|E|F]` matched a
    /// cached factorization.
    pub schur_blocks_shared: u64,
    /// Schur block lookups whose `B` was factored fresh.
    pub schur_blocks_rebuilt: u64,
    /// Order of the reduced interface system of the most recent
    /// partitioned solve (assigned, not accumulated — deterministic
    /// across retry-ladder attempts).
    pub schur_interface_unknowns: u64,
}

impl SolveCounters {
    pub(crate) fn take(&mut self) -> SolveCounters {
        std::mem::take(self)
    }
}

/// Scratch buffers for [`solve_with_scratch`](crate::newton::solve_with_scratch).
///
/// Holds the MNA system (a dense matrix below
/// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns, the
/// sparse backend's value slots at or above it), right-hand side,
/// iterate vectors, LU workspaces, and the netlist's [`StampPlan`]. A
/// fresh scratch is
/// cheap (`new` allocates nothing); the first solve sizes it to the
/// netlist and every later solve against the same structure runs with
/// zero per-iteration heap allocations. Reusing one scratch across
/// *different* netlists is safe — the stamp plan's structural
/// fingerprint triggers a resize-and-rebuild when the shape changes.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// MNA system matrix of a system below
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns;
    /// entries outside the stamp plan's touched set are kept zero so the
    /// planned clear stays sound. A larger system assembles into the
    /// sparse backend's value slots and leaves this empty.
    pub(crate) matrix: DenseMatrix,
    pub(crate) rhs: Vec<f64>,
    /// Current iterate.
    pub(crate) x: Vec<f64>,
    /// Proposed iterate (the raw linear-solve result).
    pub(crate) x_new: Vec<f64>,
    /// Last applied damped update (oscillation detection).
    pub(crate) prev_update: Vec<f64>,
    /// The caller's starting vector, kept across stages so rescue
    /// rungs can restart from it without re-cloning.
    pub(crate) start: Vec<f64>,
    /// Best converged iterate of the regularized ladder.
    pub(crate) best: Vec<f64>,
    pub(crate) lu: LuWorkspace,
    pub(crate) plan: Option<StampPlan>,
    /// Sparse backend, engaged at
    /// [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) unknowns
    /// and above; it holds the system's value slots.
    pub(crate) sparse: SparseLu,
    /// Block-Schur reduction state (partition plan, macromodel cache,
    /// reduced-system buffers). Empty until the first partitioned solve.
    pub(crate) schur: SchurState,
    /// Fast-path accounting since the last flush.
    pub(crate) counters: SolveCounters,
    /// Newton iterations the current (or most recent) solve has run,
    /// over every continuation stage, converged or not.
    pub(crate) iterations: usize,
}

impl SolveScratch {
    /// Creates an empty scratch; buffers grow on first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nonzero count (L + U including the diagonal) of the sparse LU
    /// factors held from the most recent solve, or `None` when every
    /// solve so far ran on the dense backend: a deterministic fill-in
    /// fingerprint of the sparse path.
    pub fn sparse_lu_nnz(&self) -> Option<usize> {
        match self.sparse.lu_nnz() {
            0 => None,
            n => Some(n),
        }
    }

    /// Sizes every buffer for `netlist` and (re)builds the stamp plan
    /// when the netlist's structure changed since the last call. A
    /// no-op — and allocation-free — when the structure matches.
    pub fn ensure(&mut self, netlist: &Netlist) {
        let n = netlist.num_unknowns();
        let plan_ok = self.plan.as_ref().is_some_and(|p| p.matches(netlist));
        if plan_ok && self.x.len() == n {
            return;
        }
        let plan = StampPlan::build(netlist);
        // Full zeroing re-establishes the planned-clear invariant that
        // untouched entries are zero; a sparse plan stages nothing
        // densely.
        self.matrix
            .resize_clear(if plan.lu_structure().is_some() { n } else { 0 });
        self.plan = Some(plan);
        for buf in [
            &mut self.rhs,
            &mut self.x,
            &mut self.x_new,
            &mut self.prev_update,
            &mut self.start,
            &mut self.best,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }

    /// Sizes every buffer for a *partitioned* solve of `netlist`. The
    /// dense MNA matrix and the monolithic stamp plan are left alone:
    /// the partitioned path assembles into the Schur state's interface
    /// system and per-block local systems, whose partition plan keys its
    /// own staleness on the netlist's structural fingerprint. A 4096×64
    /// array therefore never plans the monolith, and its 4,233-unknown
    /// interface accumulates in sparse value slots. The stamp plan and sparse pattern of
    /// earlier monolithic solves stay valid: each re-checks the
    /// structure it was built for before use.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPartition`] when `partition` does not describe
    /// `netlist` (see [`Partition`]).
    pub(crate) fn ensure_partitioned(
        &mut self,
        netlist: &Netlist,
        partition: &Partition,
    ) -> Result<(), Error> {
        self.schur.ensure(netlist, partition)?;
        let n = netlist.num_unknowns();
        for buf in [
            &mut self.rhs,
            &mut self.x,
            &mut self.x_new,
            &mut self.prev_update,
            &mut self.start,
            &mut self.best,
        ] {
            if buf.len() != n {
                buf.clear();
                buf.resize(n, 0.0);
            }
        }
        Ok(())
    }

    /// Fast-path counter totals since the last flush or `take`.
    pub fn counters(&self) -> SolveCounters {
        self.counters
    }

    /// Order of the reduced interface system of the held partition
    /// plan, or `None` when no partitioned solve has run yet.
    pub fn schur_interface_unknowns(&self) -> Option<usize> {
        self.schur.interface_unknowns()
    }

    /// Flushes the accumulated fast-path counters to the `obs` layer
    /// (`schur.*`). Exposed for callers that drive
    /// [`crate::schur::solve_array`] directly instead of going through
    /// the retry ladder, which flushes per attempt.
    pub fn flush_obs_counters(&mut self) {
        crate::newton::flush_fast_path_counters(self);
    }

    /// Copies the stored start vector into the current iterate.
    pub(crate) fn load_start(&mut self) {
        self.x.copy_from_slice(&self.start);
    }

    /// The stamp plan, for diagnostics. `None` until the first
    /// monolithic solve; block-Schur solves never build one.
    pub fn plan(&self) -> Option<&StampPlan> {
        self.plan.as_ref()
    }

    /// Order of the largest dense matrix the scratch holds.
    #[cfg(test)]
    pub(crate) fn largest_dense_order(&self) -> usize {
        self.matrix
            .order()
            .max(self.lu.order())
            .max(self.schur.largest_dense_order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent_and_tracks_structure() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let mut scratch = SolveScratch::new();
        assert!(scratch.plan().is_none());
        scratch.ensure(&nl);
        let n = nl.num_unknowns();
        assert_eq!(scratch.matrix.order(), n);
        assert_eq!(scratch.x.len(), n);
        // Second call with unchanged structure must keep the plan.
        let touched = scratch.plan().unwrap().touched_entries();
        scratch.ensure(&nl);
        assert_eq!(scratch.plan().unwrap().touched_entries(), touched);
        // Growing the netlist rebuilds the plan and resizes buffers.
        let b = nl.node("b");
        nl.resistor("R2", a, b, 2.0e3).unwrap();
        scratch.ensure(&nl);
        assert_eq!(scratch.x.len(), nl.num_unknowns());
        assert!(scratch.plan().unwrap().matches(&nl));
    }
}
