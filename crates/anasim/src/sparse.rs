//! Sparse LU backend for large MNA systems.
//!
//! The dense core is unbeatable at the suite's regulator sizes (~40
//! unknowns), but full-array electrical simulation needs thousands of
//! unknowns where O(n³) dense elimination is hopeless. This module
//! provides the scale path. A system at or above [`SPARSE_THRESHOLD`]
//! is never staged densely: its plan (the monolithic
//! [`StampPlan`](crate::mna::StampPlan), or the block-Schur partition
//! plan for a reduced interface) fixes the system's CSC (compressed
//! sparse column) pattern and, for every place a stamp can land, the
//! value slot it accumulates into, so assembly writes straight into
//! the factorization's input. Columns are pre-ordered with reverse
//! Cuthill–McKee to contain fill, and a left-looking Gilbert–Peierls LU
//! with row partial pivoting factors the slots in time proportional to
//! the flops of the sparse factors.
//!
//! The backend is selected automatically by the Newton core once the
//! system order reaches [`SPARSE_THRESHOLD`]; below that the dense
//! path runs unchanged.
//! The LU workspace owns every buffer it needs and reuses them across
//! factorizations, honouring the same steady-state zero-allocation
//! contract as [`LuWorkspace`](crate::matrix::LuWorkspace): the
//! ordering and the scratch sizes are rebuilt only when the system
//! structure (order + structural fingerprint) changes, and numeric
//! refactorization reuses the factor arrays' capacity.

use crate::error::Error;
use crate::matrix::REL_PIVOT_TOL;

/// System order at and above which the Newton core factors through the
/// sparse backend instead of dense LU. Chosen where dense O(n³) work
/// clearly dominates the sparse overhead for MNA-like sparsity
/// (a handful of nonzeros per row); the suite's regulator circuits
/// (~40 unknowns) stay dense and bit-identical to previous releases.
pub const SPARSE_THRESHOLD: usize = 128;

/// Stable counting sort of `(key, value)` pairs by key (`key < keys`):
/// returns each key's start offset into the returned values, `keys + 1`
/// offsets in all. Walks `pairs` twice, to count and to place, with
/// internal iteration (`for_each`) so chained and nested pair sources
/// compile to plain loops.
pub(crate) fn bucket_by_key<I>(keys: usize, pairs: I) -> (Vec<usize>, Vec<u32>)
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

/// The nonzero pattern of a system assembled straight into sparse
/// storage, in CSC form: column `c` holds the rows
/// `rows[colptr[c]..colptr[c + 1]]`, ascending, and position `k` of
/// `rows` is the value slot of that entry.
#[derive(Debug, Clone)]
pub(crate) struct CscPattern {
    colptr: Vec<usize>,
    rows: Vec<u32>,
}

impl CscPattern {
    /// The pattern of an `n × n` system holding every `(row, col)` of
    /// `entries`, duplicates allowed. Linear in `n` plus the entries:
    /// they are bucketed by row, deduplicated row by row with generation
    /// marks (`mark[c] == r` once row `r` has kept column `c`), then
    /// counted into columns, which leaves each column's rows ascending.
    pub(crate) fn from_entries<I>(n: usize, entries: I) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let (mut row_start, mut cols) = bucket_by_key(n, entries);
        let mut mark = vec![u32::MAX; n];
        let mut kept = 0usize;
        for r in 0..n {
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
        row_start[n] = kept;
        cols.truncate(kept);
        let (colptr, rows) = bucket_by_key(
            n,
            (0..n).flat_map(|r| {
                cols[row_start[r]..row_start[r + 1]]
                    .iter()
                    .map(move |&c| (c, r as u32))
            }),
        );
        CscPattern { colptr, rows }
    }

    /// System order.
    pub(crate) fn order(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Number of entries (value slots).
    pub(crate) fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Rows of column `c`, ascending; their slots start at
    /// `self.colptr[c]`.
    fn column(&self, c: usize) -> &[u32] {
        &self.rows[self.colptr[c]..self.colptr[c + 1]]
    }

    /// Flat row-major offsets of every entry, column by column, for a
    /// dense matrix staging a system below [`SPARSE_THRESHOLD`].
    pub(crate) fn offsets(&self) -> Vec<usize> {
        let n = self.order();
        (0..n)
            .flat_map(|c| self.column(c).iter().map(move |&r| r as usize * n + c))
            .collect()
    }

    /// Numbers the value slots of the explicit `entries`, in order, and
    /// of the diagonals `(i, i)` for `i < diagonals`, all of which the
    /// pattern must hold, in one pass over the columns with no search:
    /// each column's rows are mapped to their slots (`slot_of_row`),
    /// then the entries bucketed on that column read their slot off the
    /// map. `visit(c, slot_of_row)` runs in the same pass, after column
    /// `c`'s map is set, for callers with implicit entries of their own;
    /// it may read `slot_of_row[r]` for every row `r` of column `c`.
    pub(crate) fn number_slots(
        &self,
        entries: &[(u32, u32)],
        diagonals: usize,
        mut visit: impl FnMut(usize, &[u32]),
    ) -> (Vec<u32>, Vec<u32>) {
        let n = self.order();
        assert!(
            u32::try_from(self.nnz()).is_ok(),
            "more CSC slots than u32 indexes"
        );
        let (start, ids) = bucket_by_key(
            n,
            entries.iter().enumerate().map(|(e, &(_, c))| (c, e as u32)),
        );
        let mut slots = vec![0u32; entries.len()];
        let mut diag = vec![0u32; diagonals];
        let mut slot_of_row = vec![0u32; n];
        for c in 0..n {
            let first = self.colptr[c];
            for (k, &r) in self.column(c).iter().enumerate() {
                slot_of_row[r as usize] = (first + k) as u32;
            }
            for &e in &ids[start[c]..start[c + 1]] {
                slots[e as usize] = slot_of_row[entries[e as usize].0 as usize];
            }
            if c < diagonals {
                diag[c] = slot_of_row[c];
            }
            visit(c, &slot_of_row);
        }
        (slots, diag)
    }
}

const EMPTY: usize = usize::MAX;

/// Reusable sparse LU workspace: the value slots of the system being
/// assembled, the cached ordering, factors, and all numeric scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseLu {
    // -- cached symbolic state (keyed on order + structural fp) -------
    n: usize,
    struct_fp: u64,
    /// RCM column preorder: `q[j]` = original column factored at
    /// position `j`.
    q: Vec<usize>,
    // -- numeric values of the current matrix -------------------------
    /// One value per slot of the system's [`CscPattern`], written by
    /// assembly.
    a_vals: Vec<f64>,
    // -- factors ------------------------------------------------------
    l_colptr: Vec<usize>,
    /// L row indices in *original* row numbering (mapped through
    /// `pinv` during solves).
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    /// U row indices in *pivotal* numbering (strictly above the
    /// diagonal, which is stored separately in `u_diag`).
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// Original row → pivotal position.
    pinv: Vec<usize>,
    factored: bool,
    // -- per-factorization scratch ------------------------------------
    w: Vec<f64>,
    pattern: Vec<usize>,
    mark: Vec<u64>,
    generation: u64,
    dfs_stack: Vec<(usize, usize)>,
    xwork: Vec<f64>,
    // RCM scratch
    degree: Vec<usize>,
    visited: Vec<bool>,
    order: Vec<usize>,
    queue: Vec<usize>,
    neighbors: Vec<usize>,
}

impl SparseLu {
    /// Whether the cached ordering still describes `(n, struct_fp)`.
    fn ordering_valid(&self, n: usize, struct_fp: u64) -> bool {
        self.n == n && self.struct_fp == struct_fp && self.q.len() == n
    }

    /// Number of stored nonzeros in the L and U factors of the last
    /// factorization (diagnostic / fill-in fingerprint).
    pub(crate) fn lu_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.u_diag.len()
    }

    /// Zeroes the value slots for a fresh assembly over a pattern of
    /// `nnz` entries and returns them for stamping. Allocation-free once
    /// the slots have grown to `nnz`.
    pub(crate) fn clear_values(&mut self, nnz: usize) -> &mut [f64] {
        self.a_vals.clear();
        self.a_vals.resize(nnz, 0.0);
        &mut self.a_vals
    }

    /// Computes the RCM column preorder of `pattern` and sizes the
    /// numeric scratch. Called automatically by [`SparseLu::factor`]
    /// when the cached ordering is stale.
    fn analyze(&mut self, pattern: &CscPattern, struct_fp: u64) {
        let n = pattern.order();
        self.n = n;
        self.struct_fp = struct_fp;
        self.build_rcm(pattern);
        // Size the numeric scratch once per pattern.
        self.w.clear();
        self.w.resize(n, 0.0);
        self.mark.clear();
        self.mark.resize(n, 0);
        self.generation = 0;
        self.pinv.clear();
        self.pinv.resize(n, EMPTY);
        self.xwork.clear();
        self.xwork.resize(n, 0.0);
        self.factored = false;
    }

    /// Reverse Cuthill–McKee over the (structurally symmetric) MNA
    /// pattern: BFS from a minimum-degree seed per connected
    /// component, neighbors visited in increasing degree, the whole
    /// order reversed. Bandwidth containment is what keeps
    /// Gilbert–Peierls fill low on ladder/array topologies.
    fn build_rcm(&mut self, pattern: &CscPattern) {
        let n = self.n;
        self.degree.clear();
        self.degree.resize(n, 0);
        for c in 0..n {
            let rows = pattern.column(c);
            self.degree[c] = rows.len() - usize::from(rows.contains(&(c as u32)));
        }
        self.visited.clear();
        self.visited.resize(n, false);
        self.order.clear();
        while self.order.len() < n {
            // Min-degree unvisited seed (ties → lowest index).
            let seed = (0..n)
                .filter(|&i| !self.visited[i])
                .min_by_key(|&i| (self.degree[i], i))
                .expect("an unvisited node exists");
            self.visited[seed] = true;
            self.queue.clear();
            self.queue.push(seed);
            let mut head = 0;
            while head < self.queue.len() {
                let u = self.queue[head];
                head += 1;
                self.order.push(u);
                self.neighbors.clear();
                for &v in pattern.column(u) {
                    let v = v as usize;
                    if v != u && !self.visited[v] {
                        self.visited[v] = true;
                        self.neighbors.push(v);
                    }
                }
                let degree = &self.degree;
                self.neighbors.sort_unstable_by_key(|&v| (degree[v], v));
                self.queue.extend_from_slice(&self.neighbors);
            }
        }
        self.order.reverse();
        self.q.clear();
        self.q.extend_from_slice(&self.order);
    }

    /// Depth-first search of the directed graph of already-computed L
    /// columns from `start`, appending the reach to `self.pattern` in
    /// postorder (reverse-iterate for topological order).
    fn dfs_reach(&mut self, start: usize) {
        let gen = self.generation;
        if self.mark[start] == gen {
            return;
        }
        self.dfs_stack.clear();
        self.dfs_stack.push((start, 0));
        self.mark[start] = gen;
        while let Some(top) = self.dfs_stack.len().checked_sub(1) {
            let (node, mut child) = self.dfs_stack[top];
            let jl = self.pinv[node];
            let (lo, hi) = if jl == EMPTY {
                (0, 0)
            } else {
                (self.l_colptr[jl], self.l_colptr[jl + 1])
            };
            let mut advanced = false;
            while lo + child < hi {
                let next = self.l_rows[lo + child];
                child += 1;
                if self.mark[next] != gen {
                    self.mark[next] = gen;
                    self.dfs_stack[top].1 = child;
                    self.dfs_stack.push((next, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                self.pattern.push(node);
                self.dfs_stack.pop();
            }
        }
    }

    /// Numerically factors the system whose values assembly left in
    /// the slots of `pattern` ([`SparseLu::clear_values`]); the ordering
    /// is rebuilt only when `(n, struct_fp)` changed since the last
    /// call.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when no acceptable pivot exists in
    /// some column (same row-relative rejection rule as the dense
    /// core). Its `pivot_row` is that column's own index — the unknown
    /// it solves for, as the dense core reports — not its position in
    /// the RCM order.
    pub(crate) fn factor(&mut self, pattern: &CscPattern, struct_fp: u64) -> Result<(), Error> {
        let n = pattern.order();
        debug_assert_eq!(
            self.a_vals.len(),
            pattern.nnz(),
            "values of another pattern"
        );
        if !self.ordering_valid(n, struct_fp) {
            self.analyze(pattern, struct_fp);
        }
        // Reset factor state (capacity retained).
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_rows.clear();
        self.u_vals.clear();
        self.u_diag.clear();
        self.pinv.iter_mut().for_each(|p| *p = EMPTY);
        self.factored = false;

        for j in 0..n {
            let col = self.q[j];
            // Symbolic: reach of A(:,col) through existing L columns.
            self.pattern.clear();
            self.generation += 1;
            for &r in pattern.column(col) {
                self.dfs_reach(r as usize);
            }
            // Numeric: sparse lower-triangular solve into w.
            for pi in 0..self.pattern.len() {
                self.w[self.pattern[pi]] = 0.0;
            }
            let first = pattern.colptr[col];
            for (k, &r) in pattern.column(col).iter().enumerate() {
                self.w[r as usize] = self.a_vals[first + k];
            }
            for pi in (0..self.pattern.len()).rev() {
                let i = self.pattern[pi];
                let jl = self.pinv[i];
                if jl == EMPTY {
                    continue;
                }
                let xj = self.w[i];
                if xj == 0.0 {
                    continue;
                }
                for idx in self.l_colptr[jl]..self.l_colptr[jl + 1] {
                    self.w[self.l_rows[idx]] -= xj * self.l_vals[idx];
                }
            }
            // Pivot: largest candidate among not-yet-pivotal rows,
            // rejected relative to the whole column's magnitude.
            let mut pivot_row = EMPTY;
            let mut pivot_abs = 0.0f64;
            let mut col_max = 0.0f64;
            for &i in &self.pattern {
                let a = self.w[i].abs();
                if a > col_max {
                    col_max = a;
                }
                if self.pinv[i] == EMPTY && (a > pivot_abs || (a == pivot_abs && i < pivot_row)) {
                    pivot_abs = a;
                    pivot_row = i;
                }
            }
            // Negated on purpose: a NaN pivot must also reject.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if pivot_row == EMPTY || !(pivot_abs > REL_PIVOT_TOL * col_max) {
                return Err(Error::SingularMatrix {
                    pivot_row: col,
                    unknown: None,
                });
            }
            let pivot_val = self.w[pivot_row];
            self.pinv[pivot_row] = j;
            // Emit U column j (strict upper, pivotal rows) + diagonal.
            for &i in &self.pattern {
                let p = self.pinv[i];
                if p < j {
                    let v = self.w[i];
                    if v != 0.0 {
                        self.u_rows.push(p);
                        self.u_vals.push(v);
                    }
                }
            }
            self.u_diag.push(pivot_val);
            self.u_colptr.push(self.u_rows.len());
            // Emit L column j (non-pivotal rows, scaled; unit diagonal
            // implicit).
            for &i in &self.pattern {
                if self.pinv[i] == EMPTY {
                    let v = self.w[i];
                    if v != 0.0 {
                        self.l_rows.push(i);
                        self.l_vals.push(v / pivot_val);
                    }
                }
            }
            self.l_colptr.push(self.l_rows.len());
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A x = b` with the factors of the last
    /// [`SparseLu::factor`] call.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is held or the lengths mismatch.
    pub(crate) fn solve_into(&mut self, b: &[f64], out: &mut [f64]) {
        assert!(self.factored, "solve_into before a successful factor");
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(out.len(), n);
        // Permute into pivotal coordinates: x[pinv[i]] = b[i].
        for (i, &bi) in b.iter().enumerate() {
            self.xwork[self.pinv[i]] = bi;
        }
        // Forward solve with unit-diagonal L (rows mapped via pinv).
        for j in 0..n {
            let xj = self.xwork[j];
            if xj != 0.0 {
                for idx in self.l_colptr[j]..self.l_colptr[j + 1] {
                    self.xwork[self.pinv[self.l_rows[idx]]] -= self.l_vals[idx] * xj;
                }
            }
        }
        // Back solve with U.
        for j in (0..n).rev() {
            self.xwork[j] /= self.u_diag[j];
            let xj = self.xwork[j];
            if xj != 0.0 {
                for idx in self.u_colptr[j]..self.u_colptr[j + 1] {
                    self.xwork[self.u_rows[idx]] -= self.u_vals[idx] * xj;
                }
            }
        }
        // Undo the column preorder: unknown q[j] solved at position j.
        for j in 0..n {
            out[self.q[j]] = self.xwork[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{DenseMatrix, LuWorkspace};

    /// Assembles `(row, col, value)` entries into `sp`'s value slots over
    /// their own pattern, as a plan-driven assembly would, and returns
    /// the pattern.
    fn assemble(sp: &mut SparseLu, n: usize, entries: &[(usize, usize, f64)]) -> CscPattern {
        let pairs: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        let pattern = CscPattern::from_entries(n, pairs.iter().copied());
        let (slots, _) = pattern.number_slots(&pairs, 0, |_, _| {});
        let vals = sp.clear_values(pattern.nnz());
        for (&slot, &(_, _, v)) in slots.iter().zip(entries) {
            vals[slot as usize] += v;
        }
        pattern
    }

    /// Dense reference + sparse factorization of the same system.
    fn check_roundtrip(n: usize, entries: &[(usize, usize, f64)], b: &[f64]) {
        let mut dense = DenseMatrix::zeros(n);
        for &(r, c, v) in entries {
            dense.add(r, c, v);
        }
        let mut ws = LuWorkspace::new();
        ws.factor_from(&dense).expect("dense reference factors");
        let mut x_ref = vec![0.0; n];
        ws.solve_into(b, &mut x_ref);

        let mut sp = SparseLu::default();
        let pattern = assemble(&mut sp, n, entries);
        sp.factor(&pattern, 0xfeed).expect("sparse factors");
        let mut x = vec![0.0; n];
        sp.solve_into(b, &mut x);
        for i in 0..n {
            assert!(
                (x[i] - x_ref[i]).abs() < 1e-9 * (1.0 + x_ref[i].abs()),
                "component {i}: sparse {} vs dense {}",
                x[i],
                x_ref[i]
            );
        }
    }

    #[test]
    fn pattern_dedups_entries_and_numbers_their_slots() {
        // Entries out of order and repeated: each column lists its rows
        // once and ascending, and every entry, repeat or not, gets the
        // slot of its position.
        let entries = [(2, 0), (0, 0), (1, 2), (2, 0), (0, 2), (1, 1), (0, 0)];
        let pattern = CscPattern::from_entries(3, entries.iter().copied());
        assert_eq!(pattern.colptr, [0, 2, 3, 5]);
        assert_eq!(pattern.rows, [0, 2, 1, 0, 1]);
        assert_eq!(pattern.offsets(), [0, 6, 4, 2, 5]);
        let mut visited = Vec::new();
        let (slots, diag) = pattern.number_slots(&entries, 2, |c, slot_of_row| {
            visited.extend(pattern.column(c).iter().map(|&r| slot_of_row[r as usize]));
        });
        assert_eq!(slots, [1, 0, 4, 1, 3, 2, 0]);
        assert_eq!(diag, [0, 2]);
        assert_eq!(visited, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn solves_small_asymmetric_system() {
        check_roundtrip(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 4.0),
            ],
            &[1.0, 2.0, 3.0],
        );
    }

    #[test]
    fn solves_system_requiring_row_pivoting() {
        // Zero diagonal head forces a row pivot, like a vsource branch
        // row in MNA.
        check_roundtrip(
            3,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 0, 2.0),
                (2, 1, 1.0),
            ],
            &[5.0, 2.0, 1.0],
        );
    }

    #[test]
    fn solves_large_ladder_and_matches_dense() {
        // A 400-unknown resistor-ladder-like tridiagonal system with a
        // few long-range couplings: the shape the RCM ordering is for.
        let n = 400;
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.5 + (i as f64 * 0.1).sin() * 0.25));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0));
                entries.push((i + 1, i, -1.0));
            }
        }
        for i in (0..n - 37).step_by(37) {
            entries.push((i, i + 37, -0.125));
            entries.push((i + 37, i, -0.125));
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        check_roundtrip(n, &entries, &b);
    }

    /// A tridiagonal system with diagonal `diag(i)`.
    fn tridiagonal(n: usize, diag: impl Fn(usize) -> f64) -> Vec<(usize, usize, f64)> {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, diag(i)));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0));
                entries.push((i + 1, i, -1.0));
            }
        }
        entries
    }

    #[test]
    fn refactorization_reuses_pattern_and_stays_correct() {
        let n = 50;
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let mut sp = SparseLu::default();
        let pattern = assemble(&mut sp, n, &tridiagonal(n, |_| 3.0));
        sp.factor(&pattern, 0xabc).unwrap();
        let mut x1 = vec![0.0; n];
        sp.solve_into(&b, &mut x1);
        let nnz1 = sp.lu_nnz();
        // Change values only; the second factor must reuse the cached
        // ordering (same struct_fp) and still agree with dense.
        let entries = tridiagonal(n, |i| 4.0 + (i as f64) * 0.01);
        assemble(&mut sp, n, &entries);
        sp.factor(&pattern, 0xabc).unwrap();
        assert_eq!(sp.lu_nnz(), nnz1, "same pattern, same fill");
        let mut dense = DenseMatrix::zeros(n);
        for &(r, c, v) in &entries {
            dense.add(r, c, v);
        }
        let mut ws = LuWorkspace::new();
        ws.factor_from(&dense).unwrap();
        let mut x_ref = vec![0.0; n];
        ws.solve_into(&b, &mut x_ref);
        let mut x2 = vec![0.0; n];
        sp.solve_into(&b, &mut x2);
        for i in 0..n {
            assert!((x2[i] - x_ref[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_system_is_rejected() {
        // Column 2 holds only a structural zero.
        let mut sp = SparseLu::default();
        let pattern = assemble(&mut sp, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.0)]);
        match sp.factor(&pattern, 1) {
            Err(Error::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn singular_column_is_reported_by_its_own_index() {
        // A path 0–1–2–3–5 plus an empty column 4 (structural diagonal
        // only). RCM seeds the degree-0 column first, so it is factored
        // last, at position 5 — the index of a healthy column. The
        // report must name column 4 itself.
        let n = 6;
        let mut entries: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, i, if i == 4 { 0.0 } else { 2.0 }))
            .collect();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 5)] {
            entries.push((a, b, -1.0));
            entries.push((b, a, -1.0));
        }
        let mut sp = SparseLu::default();
        let pattern = assemble(&mut sp, n, &entries);
        match sp.factor(&pattern, 3) {
            Err(Error::SingularMatrix { pivot_row, .. }) => {
                assert_eq!(sp.q[5], 4, "the empty column is factored last");
                assert_eq!(pivot_row, 4);
            }
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn rcm_orders_a_path_graph_contiguously() {
        // On a pure path the RCM order must be one of the two
        // end-to-end traversals (bandwidth 1).
        let n = 9;
        let mut sp = SparseLu::default();
        let pattern = assemble(&mut sp, n, &tridiagonal(n, |_| 2.0));
        sp.factor(&pattern, 2).unwrap();
        let q = sp.q.clone();
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        assert!(
            q == forward || q == backward,
            "path graph should order end-to-end, got {q:?}"
        );
    }
}
