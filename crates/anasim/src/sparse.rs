//! Sparse LU backend for large MNA systems.
//!
//! The dense core is unbeatable at the suite's regulator sizes (~40
//! unknowns), but full-array electrical simulation needs thousands of
//! unknowns where O(n³) dense elimination is hopeless. This module
//! provides the scale path: the assembled [`DenseMatrix`] is gathered
//! through the [`StampPlan`](crate::mna::StampPlan) touched offsets
//! into compressed-sparse-column form (O(nnz), no dense scan), columns
//! are pre-ordered with reverse Cuthill–McKee to contain fill, and a
//! left-looking Gilbert–Peierls LU with row partial pivoting factors
//! it in time proportional to the flops of the sparse factors.
//!
//! The backend is selected automatically by the Newton core once the
//! system order reaches [`SPARSE_THRESHOLD`]; below that the dense
//! path runs unchanged.
//! [`SparseLu`] owns every buffer it needs and reuses them across
//! factorizations, honouring the same steady-state zero-allocation
//! contract as [`LuWorkspace`](crate::matrix::LuWorkspace): pattern
//! analysis and symbolic structures are rebuilt only when the netlist
//! structure (order + structural fingerprint) changes, and numeric
//! refactorization reuses the factor arrays' capacity.

use crate::error::Error;
use crate::matrix::{DenseMatrix, REL_PIVOT_TOL};

/// System order at and above which the Newton core factors through the
/// sparse backend instead of dense LU. Chosen where dense O(n³) work
/// clearly dominates the sparse overhead for MNA-like sparsity
/// (a handful of nonzeros per row); the suite's regulator circuits
/// (~40 unknowns) stay dense and bit-identical to previous releases.
pub const SPARSE_THRESHOLD: usize = 128;

const EMPTY: usize = usize::MAX;

/// Reusable sparse LU workspace: cached pattern + ordering, factors,
/// and all numeric scratch.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    // -- cached symbolic state (keyed on order + structural fp) -------
    n: usize,
    struct_fp: u64,
    /// CSC pattern of the assembled system: column pointers…
    a_colptr: Vec<usize>,
    /// …row indices…
    a_rows: Vec<usize>,
    /// …and for each touched flat offset (in plan order) the CSC value
    /// slot it lands in, so a numeric refill is one gather pass.
    scatter: Vec<usize>,
    /// RCM column preorder: `q[j]` = original column factored at
    /// position `j`.
    q: Vec<usize>,
    // -- numeric values of the current matrix -------------------------
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
    /// Creates an empty workspace; all buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the cached pattern still describes `(n, struct_fp)`.
    fn pattern_valid(&self, n: usize, struct_fp: u64) -> bool {
        self.n == n && self.struct_fp == struct_fp && !self.a_colptr.is_empty()
    }

    /// Number of stored nonzeros in the L and U factors of the last
    /// factorization (diagnostic / fill-in fingerprint).
    pub fn lu_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.u_diag.len()
    }

    /// Builds the CSC pattern and the RCM column preorder from the
    /// plan's touched offsets. Called automatically by
    /// [`SparseLu::factor`] when the cached pattern is stale.
    fn build_pattern(&mut self, n: usize, struct_fp: u64, touched: &[usize]) {
        self.n = n;
        self.struct_fp = struct_fp;
        // Counting sort of the row-major touched offsets into CSC.
        self.a_colptr.clear();
        self.a_colptr.resize(n + 1, 0);
        for &k in touched {
            self.a_colptr[k % n + 1] += 1;
        }
        for c in 0..n {
            self.a_colptr[c + 1] += self.a_colptr[c];
        }
        let nnz = touched.len();
        self.a_rows.clear();
        self.a_rows.resize(nnz, 0);
        self.scatter.clear();
        self.scatter.resize(nnz, 0);
        let mut cursor: Vec<usize> = self.a_colptr[..n].to_vec();
        for (t, &k) in touched.iter().enumerate() {
            let col = k % n;
            let pos = cursor[col];
            cursor[col] += 1;
            self.a_rows[pos] = k / n;
            self.scatter[t] = pos;
        }
        self.a_vals.clear();
        self.a_vals.resize(nnz, 0.0);
        self.build_rcm();
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
    fn build_rcm(&mut self) {
        let n = self.n;
        self.degree.clear();
        self.degree.resize(n, 0);
        for c in 0..n {
            let deg = (self.a_colptr[c + 1] - self.a_colptr[c]).saturating_sub(usize::from(
                self.a_rows[self.a_colptr[c]..self.a_colptr[c + 1]].contains(&c),
            ));
            self.degree[c] = deg;
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
                for idx in self.a_colptr[u]..self.a_colptr[u + 1] {
                    let v = self.a_rows[idx];
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

    /// Numerically factors the assembled system. The matrix values are
    /// gathered through `touched` (the plan's sorted flat offsets);
    /// the pattern/ordering is rebuilt only when `(n, struct_fp)`
    /// changed since the last call.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when no acceptable pivot exists in
    /// some column (same row-relative rejection rule as the dense
    /// core). Its `pivot_row` is that column's own index — the unknown
    /// it solves for, as the dense core reports — not its position in
    /// the RCM order.
    pub fn factor(
        &mut self,
        matrix: &DenseMatrix,
        struct_fp: u64,
        touched: &[usize],
    ) -> Result<(), Error> {
        let n = matrix.order();
        if !self.pattern_valid(n, struct_fp) {
            self.build_pattern(n, struct_fp, touched);
        }
        // Gather numeric values into the cached CSC slots.
        for (t, &k) in touched.iter().enumerate() {
            self.a_vals[self.scatter[t]] = matrix.get_at_offset(k);
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
            for idx in self.a_colptr[col]..self.a_colptr[col + 1] {
                self.dfs_reach(self.a_rows[idx]);
            }
            // Numeric: sparse lower-triangular solve into w.
            for pi in 0..self.pattern.len() {
                self.w[self.pattern[pi]] = 0.0;
            }
            for idx in self.a_colptr[col]..self.a_colptr[col + 1] {
                self.w[self.a_rows[idx]] = self.a_vals[idx];
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
    pub fn solve_into(&mut self, b: &[f64], out: &mut [f64]) {
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
    use crate::matrix::LuWorkspace;

    /// Dense reference + sparse factorization of the same system,
    /// built from an explicit touched-offset list.
    fn check_roundtrip(n: usize, entries: &[(usize, usize, f64)], b: &[f64]) {
        let mut dense = DenseMatrix::zeros(n);
        let mut touched: Vec<usize> = Vec::new();
        for &(r, c, v) in entries {
            dense.add(r, c, v);
            touched.push(r * n + c);
        }
        touched.sort_unstable();
        touched.dedup();
        let mut ws = LuWorkspace::new();
        ws.factor_from(&dense).expect("dense reference factors");
        let mut x_ref = vec![0.0; n];
        ws.solve_into(b, &mut x_ref);

        let mut sp = SparseLu::new();
        sp.factor(&dense, 0xfeed, &touched).expect("sparse factors");
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

    #[test]
    fn refactorization_reuses_pattern_and_stays_correct() {
        let n = 50;
        let mut dense = DenseMatrix::zeros(n);
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..n {
            dense.add(i, i, 3.0);
            touched.push(i * n + i);
            if i + 1 < n {
                dense.add(i, i + 1, -1.0);
                dense.add(i + 1, i, -1.0);
                touched.push(i * n + i + 1);
                touched.push((i + 1) * n + i);
            }
        }
        touched.sort_unstable();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let mut sp = SparseLu::new();
        sp.factor(&dense, 0xabc, &touched).unwrap();
        let mut x1 = vec![0.0; n];
        sp.solve_into(&b, &mut x1);
        let nnz1 = sp.lu_nnz();
        // Change values only; the second factor must reuse the cached
        // pattern (same struct_fp) and still agree with dense.
        for i in 0..n {
            dense.set(i, i, 4.0 + (i as f64) * 0.01);
        }
        sp.factor(&dense, 0xabc, &touched).unwrap();
        assert_eq!(sp.lu_nnz(), nnz1, "same pattern, same fill");
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
        let n = 3;
        let mut dense = DenseMatrix::zeros(n);
        // Column 2 is all-zero.
        dense.add(0, 0, 1.0);
        dense.add(1, 1, 1.0);
        let touched = vec![0, n + 1, 2 * n + 2];
        let mut sp = SparseLu::new();
        match sp.factor(&dense, 1, &touched) {
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
        let mut dense = DenseMatrix::zeros(n);
        let mut touched: Vec<usize> = Vec::new();
        for i in [0, 1, 2, 3, 5] {
            dense.add(i, i, 2.0);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 5)] {
            dense.add(a, b, -1.0);
            dense.add(b, a, -1.0);
            touched.extend([a * n + b, b * n + a]);
        }
        touched.extend((0..n).map(|i| i * n + i));
        touched.sort_unstable();
        let mut sp = SparseLu::new();
        match sp.factor(&dense, 3, &touched) {
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
        let mut dense = DenseMatrix::zeros(n);
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..n {
            dense.add(i, i, 2.0);
            touched.push(i * n + i);
            if i + 1 < n {
                dense.add(i, i + 1, -1.0);
                dense.add(i + 1, i, -1.0);
                touched.push(i * n + i + 1);
                touched.push((i + 1) * n + i);
            }
        }
        touched.sort_unstable();
        let mut sp = SparseLu::new();
        sp.factor(&dense, 2, &touched).unwrap();
        let q = sp.q.clone();
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        assert!(
            q == forward || q == backward,
            "path graph should order end-to-end, got {q:?}"
        );
    }
}
