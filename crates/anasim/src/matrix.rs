//! Dense matrix and LU factorization with partial pivoting.
//!
//! The MNA systems assembled by this crate are tiny (tens of unknowns),
//! so a dense O(n³) factorization outperforms any sparse scheme and keeps
//! the crate dependency-free.

use crate::error::Error;

/// Relative pivot-rejection threshold of [`factor_in_place`]: a pivot
/// is usable only when it exceeds this fraction of the largest entry
/// remaining in its own row. MNA matrices mix GΩ-leakage (1e-10 S) and
/// mΩ-wire (1e3 S) stamps, so any *absolute* threshold either rejects
/// healthy-but-tiny systems or accepts pivots that are pure
/// cancellation noise against their row — the relative test tracks the
/// matrix scale instead. ~50·ε leaves headroom above rounding noise
/// while staying below the ~1e13 dynamic range of a legitimate row.
pub(crate) const REL_PIVOT_TOL: f64 = 1.0e-14;

/// A dense, row-major, square matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    ///
    /// ```
    /// use anasim::matrix::DenseMatrix;
    /// let m = DenseMatrix::zeros(3);
    /// assert_eq!(m.order(), 3);
    /// assert_eq!(m.get(1, 2), 0.0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "row data must be n*n long");
        DenseMatrix {
            n,
            data: data.to_vec(),
        }
    }

    /// Matrix order (number of rows = columns).
    pub fn order(&self) -> usize {
        self.n
    }

    /// Reads the entry at (`row`, `col`).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Writes the entry at (`row`, `col`).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` into the entry at (`row`, `col`) — the fundamental
    /// MNA stamping primitive.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Resizes to `n × n` and zeroes every entry, reusing the existing
    /// allocation when it is large enough.
    pub fn resize_clear(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
    }

    /// Zeroes only the entries at the given flat (row-major) offsets —
    /// the stamp-plan fast path for matrices whose other entries are
    /// already zero.
    #[inline]
    pub(crate) fn clear_offsets(&mut self, offsets: &[usize]) {
        for &k in offsets {
            self.data[k] = 0.0;
        }
    }

    /// Adds `value` at a precomputed flat (row-major) offset.
    #[inline]
    pub(crate) fn add_at_offset(&mut self, offset: usize, value: f64) {
        debug_assert!(offset < self.data.len());
        self.data[offset] += value;
    }

    /// Reads the entry at a precomputed flat (row-major) offset.
    #[inline]
    pub(crate) fn get_at_offset(&self, offset: usize) -> f64 {
        debug_assert!(offset < self.data.len());
        self.data[offset]
    }

    /// Computes `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Factorizes the matrix in place (Doolittle LU with partial
    /// pivoting), consuming `self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when some column's best pivot
    /// is negligible relative to its own row (see [`REL_PIVOT_TOL`]),
    /// which for MNA systems almost always means a floating node.
    pub fn into_lu(mut self) -> Result<LuFactors, Error> {
        let mut perm: Vec<usize> = (0..self.n).collect();
        factor_in_place(&mut self, &mut perm)?;
        Ok(LuFactors { lu: self, perm })
    }
}

/// The factorization core shared by [`DenseMatrix::into_lu`] and
/// [`LuWorkspace::factor_from`]: Doolittle LU with partial pivoting,
/// overwriting `lu` with the packed factors and `perm` with the row
/// permutation. `perm` must enter as the identity permutation.
fn factor_in_place(lu: &mut DenseMatrix, perm: &mut [usize]) -> Result<(), Error> {
    let n = lu.n;
    debug_assert_eq!(perm.len(), n);
    for k in 0..n {
        // Partial pivoting: bring the largest remaining entry of
        // column k to the diagonal.
        let mut pivot_row = k;
        let mut pivot_val = lu.get(k, k).abs();
        for r in (k + 1)..n {
            let v = lu.get(r, k).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        // Row-max-scaled rejection: the selected pivot must carry a
        // meaningful fraction of its own row's remaining mass. The
        // scan runs over the *pivot row's* active columns (k..n) in
        // its pre-swap position, so no per-factorization scales buffer
        // is needed and the zero-allocation contract holds. Written as
        // a negated `>` so a 0-vs-0 row (all-zero matrix) stays
        // singular at the same `pivot_row` the old absolute test
        // reported.
        let mut row_max = 0.0f64;
        for c in k..n {
            let v = lu.get(pivot_row, c).abs();
            if v > row_max {
                row_max = v;
            }
        }
        // Negated on purpose: a NaN pivot must also reject.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(pivot_val > REL_PIVOT_TOL * row_max) {
            return Err(Error::SingularMatrix {
                pivot_row: k,
                unknown: None,
            });
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            for c in 0..n {
                let a = lu.get(k, c);
                let b = lu.get(pivot_row, c);
                lu.set(k, c, b);
                lu.set(pivot_row, c, a);
            }
        }
        let inv_pivot = 1.0 / lu.get(k, k);
        for r in (k + 1)..n {
            let factor = lu.get(r, k) * inv_pivot;
            lu.set(r, k, factor);
            if factor != 0.0 {
                for c in (k + 1)..n {
                    let v = lu.get(r, c) - factor * lu.get(k, c);
                    lu.set(r, c, v);
                }
            }
        }
    }
    Ok(())
}

/// The substitution core shared by [`LuFactors::solve`] and
/// [`LuWorkspace::solve_into`]: permute `b` into `x`, then forward
/// substitution with unit-diagonal L and back substitution with U.
fn solve_permuted(lu: &DenseMatrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
    let n = lu.n;
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    // Forward substitution with unit-diagonal L.
    for i in 1..n {
        let mut sum = x[i];
        for (j, xj) in x.iter().enumerate().take(i) {
            sum -= lu.get(i, j) * xj;
        }
        x[i] = sum;
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let mut sum = x[i];
        for (j, xj) in x.iter().enumerate().skip(i + 1) {
            sum -= lu.get(i, j) * xj;
        }
        x[i] = sum / lu.get(i, i);
    }
}

/// A reusable in-place LU factorization buffer.
///
/// [`DenseMatrix::into_lu`] consumes its matrix and allocates a fresh
/// permutation per call — fine for one-shot solves, ruinous inside a
/// Newton loop that factors the same-order Jacobian thousands of times.
/// `LuWorkspace` keeps one factor buffer and one permutation alive and
/// refactors into them with zero heap traffic once warmed to an order.
/// The arithmetic is the shared [`factor_in_place`]/[`solve_permuted`]
/// core, so results are bit-identical to the consuming path.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LuWorkspace {
            lu: DenseMatrix {
                n: 0,
                data: Vec::new(),
            },
            perm: Vec::new(),
        }
    }

    /// Copies `a` into the workspace and factors it in place.
    ///
    /// Allocation-free once the workspace has reached `a.order()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] exactly when
    /// [`DenseMatrix::into_lu`] would, with the same `pivot_row`.
    pub fn factor_from(&mut self, a: &DenseMatrix) -> Result<(), Error> {
        self.lu.n = a.n;
        self.lu.data.clear();
        self.lu.data.extend_from_slice(&a.data);
        self.perm.clear();
        self.perm.extend(0..a.n);
        factor_in_place(&mut self.lu, &mut self.perm)
    }

    /// Solves `A x = b` into `x` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from the factored order.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        solve_permuted(&self.lu, &self.perm, b, x);
    }

    /// Order of the last factored matrix (0 before first use).
    pub fn order(&self) -> usize {
        self.lu.n
    }

    /// Copies another workspace's factors into this one, reusing this
    /// workspace's buffers.
    pub(crate) fn copy_from(&mut self, src: &LuWorkspace) {
        self.import_factors(src.lu.n, &src.lu.data, &src.perm);
    }

    /// Installs factors held elsewhere, reusing this workspace's
    /// buffers. Bit-identical to refactoring the same matrix, because
    /// the copied bytes *are* that factorization.
    pub(crate) fn import_factors(&mut self, n: usize, lu: &[f64], perm: &[usize]) {
        debug_assert_eq!(lu.len(), n * n);
        debug_assert_eq!(perm.len(), n);
        self.lu.n = n;
        self.lu.data.clear();
        self.lu.data.extend_from_slice(lu);
        self.perm.clear();
        self.perm.extend_from_slice(perm);
    }
}

/// The result of [`DenseMatrix::into_lu`]: packed L and U factors plus
/// the row permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A x = b` for `x` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored matrix order.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.lu.n];
        solve_permuted(&self.lu, &self.perm, b, &mut x);
        x
    }
}

/// Convenience one-shot solve of `A x = b`.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] if the factorization fails.
pub fn solve_dense(a: DenseMatrix, b: &[f64]) -> Result<Vec<f64>, Error> {
    Ok(a.into_lu()?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_identity() {
        let a = DenseMatrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = solve_dense(a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solves_2x2() {
        let a = DenseMatrix::from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let x = solve_dense(a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_pivoting_needed() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(3, &[0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let b = [5.0, 2.0, 1.0];
        let x = solve_dense(a.clone(), &b).unwrap();
        let back = a.mul_vec(&x);
        assert!(max_abs_diff(&back, &b) < 1e-10);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        match solve_dense(a, &[1.0, 1.0]) {
            Err(Error::SingularMatrix { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn detects_all_zero() {
        let a = DenseMatrix::zeros(3);
        assert!(matches!(
            solve_dense(a, &[0.0; 3]),
            Err(Error::SingularMatrix { pivot_row: 0, .. })
        ));
    }

    #[test]
    fn uniformly_tiny_system_is_not_falsely_singular() {
        // A well-conditioned system scaled down to 1e-20 — every entry
        // sits far below the old absolute 1e-18 pivot floor, yet the
        // system is perfectly solvable. The row-relative test must
        // accept it.
        let s = 1.0e-20;
        let a = DenseMatrix::from_rows(2, &[2.0 * s, 1.0 * s, 1.0 * s, 3.0 * s]);
        let x = solve_dense(a, &[5.0 * s, 10.0 * s]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_lost_in_row_scale_is_rejected() {
        // The best column-0 pivot (1e-17) passed the old absolute
        // threshold but is 22 orders of magnitude below its own row's
        // 1e5 entry — pure noise against the elimination that row
        // participates in. The scaled test reports it singular instead
        // of producing garbage.
        let a = DenseMatrix::from_rows(2, &[1.0e-17, 1.0e5, 0.0, 1.0]);
        match solve_dense(a, &[1.0, 1.0]) {
            Err(Error::SingularMatrix { pivot_row: 0, .. }) => {}
            other => panic!("expected singular at pivot row 0, got {other:?}"),
        }
    }

    #[test]
    fn mixed_scale_mna_like_system_still_factors() {
        // GΩ leakage next to mΩ wiring (1e-10 S vs 1e3 S stamps) is
        // the legitimate dynamic range the relative threshold must not
        // reject: a two-node ladder with one stiff and one leaky
        // branch.
        let g_wire = 1.0e3;
        let g_leak = 1.0e-10;
        let a = DenseMatrix::from_rows(2, &[g_wire + g_leak, -g_wire, -g_wire, g_wire + g_leak]);
        let x = solve_dense(a.clone(), &[1.0e-3, 0.0]).unwrap();
        // The system is ill-conditioned by construction (κ ≈ g/g_leak
        // = 1e13), so the achievable residual is eps·‖A‖·‖x‖, not an
        // absolute 1e-12: assert backward stability, not exactness.
        let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = 1e-13 * g_wire * xmax;
        let back = a.mul_vec(&x);
        assert!((back[0] - 1.0e-3).abs() < bound, "residual {}", back[0]);
        assert!(back[1].abs() < bound);
    }

    #[test]
    fn factor_export_import_round_trips_bitwise() {
        let a = DenseMatrix::from_rows(3, &[0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let mut ws = LuWorkspace::new();
        ws.factor_from(&a).unwrap();
        let mut ws2 = LuWorkspace::new();
        ws2.copy_from(&ws);
        let b = [5.0, 2.0, 1.0];
        let mut x1 = vec![0.0; 3];
        let mut x2 = vec![0.0; 3];
        ws.solve_into(&b, &mut x1);
        ws2.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert_eq!(m.get(0, 0), 2.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn workspace_matches_consuming_path_bitwise() {
        // One workspace reused across orders must reproduce the
        // consuming into_lu path bit for bit — the contract the
        // Newton scratch relies on.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut ws = LuWorkspace::new();
        for n in [3usize, 8, 25, 5, 40, 1] {
            let mut a = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, next());
                }
                a.add(i, i, n as f64);
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let reference = a.clone().into_lu().unwrap().solve(&b);
            ws.factor_from(&a).unwrap();
            assert_eq!(ws.order(), n);
            let mut x = vec![0.0; n];
            ws.solve_into(&b, &mut x);
            assert_eq!(x, reference, "order {n} diverged from into_lu");
        }
    }

    #[test]
    fn workspace_singular_error_matches_consuming_path() {
        // Row 2 is a duplicate of row 0: elimination dies at the same
        // pivot row on both paths.
        let a = DenseMatrix::from_rows(3, &[1.0, 2.0, 3.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0]);
        let consuming = a.clone().into_lu().expect_err("singular");
        let mut ws = LuWorkspace::new();
        let in_place = ws.factor_from(&a).expect_err("singular");
        match (consuming, in_place) {
            (
                Error::SingularMatrix { pivot_row: p1, .. },
                Error::SingularMatrix { pivot_row: p2, .. },
            ) => assert_eq!(p1, p2),
            other => panic!("expected matching singular errors, got {other:?}"),
        }
    }

    #[test]
    fn resize_clear_reuses_allocation() {
        let mut m = DenseMatrix::zeros(4);
        m.set(2, 2, 7.0);
        m.resize_clear(3);
        assert_eq!(m.order(), 3);
        assert_eq!(m.get(2, 2), 0.0);
        m.resize_clear(5);
        assert_eq!(m.order(), 5);
        assert!(m.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn random_systems_roundtrip() {
        // Deterministic pseudo-random fill; verifies A·x == b after solve.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 5, 12, 25] {
            let mut a = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, next());
                }
                // Diagonal dominance keeps the random system comfortably
                // non-singular.
                a.add(i, i, n as f64);
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = solve_dense(a.clone(), &b).unwrap();
            assert!(
                max_abs_diff(&a.mul_vec(&x), &b) < 1e-9,
                "order {n} failed round trip"
            );
        }
    }
}
