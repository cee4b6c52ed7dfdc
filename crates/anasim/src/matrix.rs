//! Dense matrices and an LU factorization that follows the nonzeros.
//!
//! The MNA systems this crate assembles below
//! [`SPARSE_THRESHOLD`](crate::sparse::SPARSE_THRESHOLD) have tens of
//! unknowns but only a few stamped entries per row: the regulator
//! Jacobians of Table II have 41–49 unknowns and 130–155 nonzeros, and
//! a dense elimination there mostly multiplies and compares exact
//! zeros. The matrices are stored densely (row-major `f64`, stamped by
//! flat offset) and factored by Doolittle LU with partial pivoting
//! driven by an [`LuStructure`]: one bitset per row and per column of
//! where the matrix may be nonzero, grown by fill-in as elimination
//! proceeds.
//!
//! * the pivot search and the multipliers visit only the rows in the
//!   pivot column's bitset, and the pivot test's row-max scan only the
//!   pivot row's columns, listing its nonzeros right of the diagonal
//!   (row `k` of U) as it goes;
//! * each lower row with a nonzero multiplier is updated at row `k` of
//!   U only, and lists the columns of its nonzero multipliers (its L
//!   entries) as they are formed; the list moves with its row on a
//!   pivot swap;
//! * both triangular solves walk only the listed entries, in the same
//!   ascending order as a dense loop.
//!
//! The structure comes from the stamp plan on the Newton path
//! ([`StampPlan::lu_structure`](crate::mna::StampPlan::lu_structure)),
//! since a circuit matrix keeps its structure across iterations, and
//! from one scan of the matrix for callers without a plan
//! ([`LuWorkspace::factor_from`]).
//!
//! Pivot choice, the `REL_PIVOT_TOL` rejection and every operation
//! that is kept are those of the dense algorithm, so what is skipped is
//! `a − f·0` in elimination and `s − 0·x` in the solves, and the
//! comparisons of ±0 entries in the pivot search and the row-max scan.
//! The subtractions are exact no-ops unless the accumulator is −0
//! (`−0 − (−0)` is +0) or the other operand is not finite (`∞·0` is
//! NaN); a row where either can happen takes the dense loop, and when
//! `1/pivot` is negative or not finite every lower multiplier is
//! written, because `+0·(1/pivot)` is then −0 or NaN. Factors,
//! permutation, solutions and the `SingularMatrix` pivot row are
//! therefore bit-identical to dense elimination for every input (NaN
//! payloads aside), while the work follows the nonzeros.

use crate::error::Error;

/// Relative pivot-rejection threshold of the LU factorization: a pivot
/// is usable only when it exceeds this fraction of the largest entry
/// remaining in its own row. MNA matrices mix GΩ-leakage (1e-10 S) and
/// mΩ-wire (1e3 S) stamps, so any *absolute* threshold either rejects
/// healthy-but-tiny systems or accepts pivots that are pure
/// cancellation noise against their row — the relative test tracks the
/// matrix scale instead. ~50·ε leaves headroom above rounding noise
/// while staying below the ~1e13 dynamic range of a legitimate row.
pub(crate) const REL_PIVOT_TOL: f64 = 1.0e-14;

/// Bit pattern of −0.0, the one zero a skipped subtraction can change.
const NEG_ZERO_BITS: u64 = 0x8000_0000_0000_0000;

/// A dense, row-major, square matrix of `f64`.
#[derive(Debug, Clone, Default)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
    /// Whether `data` may hold a −0, which factorization must then look
    /// for. Only [`set`](Self::set) and [`from_rows`](Self::from_rows)
    /// can write one: stamping adds into +0, and `x + y` is −0 only when
    /// both are.
    neg_zero: bool,
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.data == other.data
    }
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
            neg_zero: false,
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
            neg_zero: data.iter().any(|v| v.to_bits() == NEG_ZERO_BITS),
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
        self.neg_zero |= value.to_bits() == NEG_ZERO_BITS;
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
        self.neg_zero = false;
    }

    /// Resizes to `n × n` and zeroes every entry, reusing the existing
    /// allocation when it is large enough.
    pub fn resize_clear(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        self.neg_zero = false;
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
}

/// Bits of the last word of an order-`n` bitset that name real indices.
fn last_word_mask(n: usize) -> u64 {
    match n % 64 {
        0 => !0,
        bits => (1u64 << bits) - 1,
    }
}

/// The set bits at or above `from`, ascending, of the `words`-word
/// bitset whose word `i` is `word(i)` (see [`ones`]).
struct Ones<F> {
    word: F,
    index: usize,
    words: usize,
    bits: u64,
}

impl<F: Fn(usize) -> u64> Iterator for Ones<F> {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.index += 1;
            if self.index >= self.words {
                return None;
            }
            self.bits = (self.word)(self.index);
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.index * 64 + bit)
    }
}

/// The set bits at or above `from`, ascending, of the `words`-word
/// bitset whose word `i` is `word(i)`.
#[inline(always)]
fn ones<F: Fn(usize) -> u64>(words: usize, from: usize, word: F) -> Ones<F> {
    let index = from / 64;
    let bits = if index < words {
        word(index) & (!0u64 << (from % 64))
    } else {
        0
    };
    Ones {
        word,
        index,
        words,
        bits,
    }
}

/// Exchanges the `len`-long stripes starting at `i * stride` and
/// `j * stride` of `v` (`i < j`).
fn swap_stripes<T>(v: &mut [T], stride: usize, (i, j): (usize, usize), len: usize) {
    let (upper, lower) = v.split_at_mut(j * stride);
    upper[i * stride..i * stride + len].swap_with_slice(&mut lower[..len]);
}

/// Where an `n × n` matrix may hold nonzeros: one bitset per row (the
/// columns it may be nonzero in) and one per column (its rows), each
/// `⌈n/64⌉` words.
///
/// The LU kernel only needs a superset of the nonzeros — an entry that
/// is in the structure but holds ±0 costs a visit, never a bit of the
/// result. A stamp plan builds one from the slots its devices and gmin
/// can write ([`StampPlan::lu_structure`](crate::mna::StampPlan::lu_structure)),
/// once per netlist structure, because a circuit matrix keeps its
/// structure across Newton iterations.
#[derive(Debug, Clone, Default)]
pub struct LuStructure {
    n: usize,
    words: usize,
    /// Row `r`'s columns are `rows[r * words..(r + 1) * words]`.
    rows: Vec<u64>,
    /// Column `c`'s rows are `cols[c * words..(c + 1) * words]`.
    cols: Vec<u64>,
}

impl LuStructure {
    /// The structure holding exactly the flat (row-major) `offsets` of
    /// an `n × n` matrix.
    pub(crate) fn from_offsets(n: usize, offsets: &[usize]) -> Self {
        let mut s = LuStructure::default();
        s.reset(n);
        for &offset in offsets {
            s.insert(offset / n, offset % n);
        }
        s
    }

    /// The first nonzero entry of `a`, in row-major order, that the
    /// structure leaves out of its row's or its column's bitset; `None`
    /// when every nonzero is covered, which is what the LU kernel
    /// requires of a structure it is handed.
    ///
    /// # Panics
    ///
    /// Panics if `a.order()` differs from the structure's order.
    pub fn first_uncovered(&self, a: &DenseMatrix) -> Option<(usize, usize)> {
        assert_eq!(a.order(), self.n, "structure and matrix orders differ");
        let has = |set: &[u64], i: usize| set[i / 64] >> (i % 64) & 1 == 1;
        let w = self.words;
        (0..self.n)
            .flat_map(|r| (0..self.n).map(move |c| (r, c)))
            .find(|&(r, c)| {
                a.get(r, c) != 0.0 && !(has(&self.rows[r * w..], c) && has(&self.cols[c * w..], r))
            })
    }

    /// Empties the structure and sizes it for order `n`, reusing its
    /// buffers.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        for set in [&mut self.rows, &mut self.cols] {
            set.clear();
            set.resize(n * self.words, 0);
        }
    }

    #[inline]
    fn insert(&mut self, r: usize, c: usize) {
        let w = self.words;
        self.rows[r * w + c / 64] |= 1 << (c % 64);
        self.cols[c * w + r / 64] |= 1 << (r % 64);
    }

    /// Takes over `src`'s bitsets, reusing this structure's buffers.
    fn copy_from(&mut self, src: &LuStructure) {
        self.n = src.n;
        self.words = src.words;
        self.rows.clone_from(&src.rows);
        self.cols.clone_from(&src.cols);
    }

    /// Rebuilds the structure as exactly the nonzeros of `a`, in one
    /// scan.
    fn scan(&mut self, a: &DenseMatrix) {
        self.reset(a.n);
        let w = self.words;
        for (r, row) in a.data.chunks_exact(a.n.max(1)).enumerate() {
            for (i, chunk) in row.chunks(64).enumerate() {
                let word = chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (j, &v)| acc | u64::from(v != 0.0) << j);
                self.rows[r * w + i] = word;
                for j in ones(1, 0, |_| word) {
                    self.cols[(i * 64 + j) * w + r / 64] |= 1 << (r % 64);
                }
            }
        }
    }
}

/// Where the nonzeros of packed LU factors sit: recorded by
/// [`LuWorkspace`]'s elimination as it goes, walked by
/// [`LuWorkspace::solve_into`].
///
/// Each list buffer is sized for the densest factors of its order (n²
/// column slots per triangle), so refactoring at an order the workspace
/// has reached allocates nothing.
#[derive(Debug, Clone, Default)]
struct Pattern {
    /// Row `i`'s L columns, ascending, are
    /// `l_cols[i * n..i * n + l_len[i]]`: the steps at which its
    /// multiplier was nonzero. The stripe moves with its row on a swap.
    l_cols: Vec<u32>,
    l_len: Vec<usize>,
    /// Row `k`'s U columns right of the diagonal, ascending, are
    /// `u_cols[u_ptr[k]..u_ptr[k + 1]]`: its nonzero entries when it
    /// became the pivot row, after which it never changes.
    u_cols: Vec<u32>,
    u_ptr: Vec<usize>,
    /// Rows holding a −0, which elimination updates densely (scratch of
    /// the factorization; the solves never read it).
    dense_rows: Vec<bool>,
}

impl Pattern {
    /// Sizes every buffer for order `n` and empties every L list.
    fn reset(&mut self, n: usize) {
        self.l_cols.resize(n * n, 0);
        self.u_cols.resize(n * n, 0);
        self.l_len.clear();
        self.l_len.resize(n, 0);
        self.u_ptr.resize(n + 1, 0);
        self.dense_rows.resize(n, false);
    }

    fn l_row(&self, n: usize, i: usize) -> &[u32] {
        &self.l_cols[i * n..i * n + self.l_len[i]]
    }

    fn u_row(&self, i: usize) -> &[u32] {
        &self.u_cols[self.u_ptr[i]..self.u_ptr[i + 1]]
    }

    /// Takes over `src`'s lists, reusing this pattern's buffers.
    fn copy_from(&mut self, src: &Pattern) {
        self.l_cols.clone_from(&src.l_cols);
        self.l_len.clone_from(&src.l_len);
        self.u_cols.clone_from(&src.u_cols);
        self.u_ptr.clone_from(&src.u_ptr);
    }
}

/// A reusable in-place LU factorization buffer.
///
/// A Newton loop factors the same-order Jacobian thousands of times, so
/// `LuWorkspace` keeps one factor buffer, one permutation, one nonzero
/// pattern and one working structure alive and refactors into them with
/// zero heap traffic once warmed to an order.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    lu: DenseMatrix,
    perm: Vec<usize>,
    pattern: Pattern,
    /// The structure of the matrix being factored, grown by fill-in and
    /// kept in current row order as elimination proceeds.
    structure: LuStructure,
}

impl LuWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `a` into the workspace and factors it in place, finding
    /// its nonzero structure in one scan of the copy.
    ///
    /// Allocation-free once the workspace has reached `a.order()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when some column's best pivot
    /// is negligible relative to its own row (see `REL_PIVOT_TOL`),
    /// which for MNA systems almost always means a floating node.
    pub fn factor_from(&mut self, a: &DenseMatrix) -> Result<(), Error> {
        self.copy_matrix(a);
        self.structure.scan(&self.lu);
        self.factor()
    }

    /// As [`factor_from`](Self::factor_from), but taking the nonzero
    /// structure from `structure`, which must cover every nonzero of `a`
    /// ([`LuStructure::first_uncovered`]); entries it holds beyond them
    /// cost visits, never bits of the result.
    ///
    /// # Errors
    ///
    /// As [`factor_from`](Self::factor_from).
    pub(crate) fn factor_planned(
        &mut self,
        a: &DenseMatrix,
        structure: &LuStructure,
    ) -> Result<(), Error> {
        debug_assert_eq!(structure.n, a.n, "structure of another order");
        self.copy_matrix(a);
        self.structure.copy_from(structure);
        self.factor()
    }

    fn copy_matrix(&mut self, a: &DenseMatrix) {
        self.lu.n = a.n;
        self.lu.data.clear();
        self.lu.data.extend_from_slice(&a.data);
        self.lu.neg_zero = a.neg_zero;
    }

    /// Doolittle LU with partial pivoting of the matrix held in `lu`,
    /// overwriting it with the packed factors, `perm` with the row
    /// permutation and `pattern` with the factors' nonzero columns.
    ///
    /// The one elimination routine runs at a word count known to the
    /// compiler for orders up to 64, where its bitset loops come down to
    /// single words, and at the structure's own word count above.
    fn factor(&mut self) -> Result<(), Error> {
        match self.structure.words {
            1 => self.eliminate::<1>(),
            _ => self.eliminate::<0>(),
        }
    }

    /// The elimination behind [`factor`](Self::factor), for bitsets of
    /// `W` words (`W = 0`: the structure's word count).
    ///
    /// Every pass reads `structure`'s bitsets, never a whole row or
    /// column: the pivot search and the multipliers visit column k's
    /// rows, the pivot test and row k of U the pivot row's columns. An
    /// entry off the structure is ±0, which neither wins a pivot search
    /// nor raises a row maximum, and `±0 · (1/p)` is itself when `1/p`
    /// is positive and finite, so its row keeps a zero multiplier and
    /// is not updated. Only the exceptions walk everything: a negative
    /// or non-finite `1/p` writes every lower multiplier (`+0·(1/p)` is
    /// −0 or NaN there), and a row holding −0 or with a non-finite
    /// multiplier takes the dense update.
    ///
    /// The dense update needs no bookkeeping of its own. On a −0 row it
    /// changes nothing off row k of U but −0 into +0. A NaN multiplier
    /// fills its row with NaN, which never wins a pivot search, is
    /// rejected as a diagonal and stays NaN through every later update,
    /// so the row may drop out of the column bitsets. An infinite one
    /// needs an infinite `1/p` (an infinite entry wins its pivot search
    /// and is rejected there), after which every lower row is
    /// non-finite and the next diagonal, NaN or ∞ against an infinite
    /// row maximum, is rejected as singular.
    fn eliminate<const W: usize>(&mut self) -> Result<(), Error> {
        let n = self.lu.n;
        self.perm.clear();
        self.perm.extend(0..n);
        self.pattern.reset(n);
        if n == 0 {
            return Ok(());
        }
        let neg_zero = self.lu.neg_zero;
        let a = &mut self.lu.data[..];
        let perm = &mut self.perm[..];
        let Pattern {
            l_cols,
            l_len,
            u_cols,
            u_ptr,
            dense_rows,
        } = &mut self.pattern;
        let LuStructure {
            words, rows, cols, ..
        } = &mut self.structure;
        let w = if W == 0 { *words } else { W };
        debug_assert_eq!(w, *words);
        let last_word = last_word_mask(n);
        // Elimination never creates a −0 (`x − y` is −0 only for
        // `−0 − (+0)`), so rows are checked once, and only when the
        // matrix may hold one at all.
        for (dense, row) in dense_rows.iter_mut().zip(a.chunks_exact(n)) {
            *dense = neg_zero && row.iter().any(|v| v.to_bits() == NEG_ZERO_BITS);
        }
        for k in 0..n {
            // Partial pivoting: the first largest |entry| of column k at
            // or below the diagonal, in current row order, becomes the
            // pivot.
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for r in ones(w, k + 1, |i| cols[k * w + i]) {
                let v = a[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            // Row-max-scaled rejection: the selected pivot must carry a
            // meaningful fraction of its own row's remaining mass. The
            // scan runs over the *pivot row's* active columns (k..n) in
            // its pre-swap position, so no per-factorization scales
            // buffer is needed and the zero-allocation contract holds.
            // The same walk lists the row's nonzeros right of the
            // diagonal: row k of U.
            let prow = &a[pivot_row * n..(pivot_row + 1) * n];
            let mut row_max = 0.0f64;
            if pivot_val > row_max {
                row_max = pivot_val;
            }
            let mut end = u_ptr[k];
            for c in ones(w, k + 1, |i| rows[pivot_row * w + i]) {
                let entry = prow[c];
                u_cols[end] = c as u32;
                end += usize::from(entry != 0.0);
                let v = entry.abs();
                if v > row_max {
                    row_max = v;
                }
            }
            u_ptr[k + 1] = end;
            // Written as a negated `>` so a 0-vs-0 row (all-zero
            // matrix) stays singular at the same `pivot_row` the old
            // absolute test reported, and a NaN pivot rejects too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(pivot_val > REL_PIVOT_TOL * row_max) {
                return Err(Error::SingularMatrix {
                    pivot_row: k,
                    unknown: None,
                });
            }
            if pivot_row != k {
                let pair = (k, pivot_row);
                perm.swap(k, pivot_row);
                swap_stripes(a, n, pair, n);
                // Both rows have L entries only left of column k.
                swap_stripes(l_cols, n, pair, l_len[k].max(l_len[pivot_row]));
                l_len.swap(k, pivot_row);
                dense_rows.swap(k, pivot_row);
                // Each column at or right of k that either row touches
                // exchanges the two rows' bits.
                let (wk, bk) = (k / 64, k % 64);
                let (wp, bp) = (pivot_row / 64, pivot_row % 64);
                let either = |i| rows[k * w + i] | rows[pivot_row * w + i];
                for c in ones(w, k, either) {
                    let col = &mut cols[c * w..(c + 1) * w];
                    let differ = ((col[wk] >> bk) ^ (col[wp] >> bp)) & 1;
                    col[wk] ^= differ << bk;
                    col[wp] ^= differ << bp;
                }
                swap_stripes(rows, w, pair, w);
            }
            let inv_pivot = 1.0 / a[k * n + k];
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let pivot = &upper[k * n..];
            let u_row = &u_cols[u_ptr[k]..u_ptr[k + 1]];
            let (rows_upto, rows_below) = rows.split_at_mut((k + 1) * w);
            let pivot_set = &rows_upto[k * w..];
            // `±0 · (1/p)` is itself only for a positive, finite `1/p`;
            // otherwise every lower row's multiplier is written.
            let every_row = !(inv_pivot > 0.0 && inv_pivot.is_finite());
            let visit = |i: usize| match every_row {
                false => cols[k * w + i],
                true if i + 1 == w => last_word,
                true => !0,
            };
            for r in ones(w, k + 1, visit) {
                let row = &mut lower[(r - k - 1) * n..(r - k) * n];
                let factor = row[k] * inv_pivot;
                row[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                l_cols[r * n + l_len[r]] = k as u32;
                l_len[r] += 1;
                // Off row k of U, `row[c] − factor·(±0)` is an exact
                // no-op unless `row[c]` is −0 or `factor` is not finite.
                if factor.is_finite() && !dense_rows[r] {
                    for &c in u_row {
                        let c = c as usize;
                        row[c] -= factor * pivot[c];
                    }
                } else {
                    for (v, &p) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                        *v -= factor * p;
                    }
                }
                let row_set = &mut rows_below[(r - k - 1) * w..(r - k) * w];
                row_set.iter_mut().zip(pivot_set).for_each(|(s, p)| *s |= p);
            }
            // Fill-in: an updated row took the pivot row's bitset above
            // and lies in column k's, so each U column takes that bitset
            // over (the rows at or above k it adds are never read again).
            let (cols_upto, cols_right) = cols.split_at_mut((k + 1) * w);
            let col_k = &cols_upto[k * w..];
            for &c in u_row {
                let at = (c as usize - k - 1) * w;
                let col = &mut cols_right[at..at + w];
                col.iter_mut().zip(col_k).for_each(|(s, r)| *s |= r);
            }
        }
        Ok(())
    }

    /// Solves `A x = b` into `x` using the stored factors: permute `b`
    /// into `x`, then forward substitution with unit-diagonal L and back
    /// substitution with U, each row walking its listed nonzeros.
    ///
    /// `s − (±0)·x_j` is an exact no-op unless `s` is −0 or `x_j` is
    /// not finite. A sum can only be −0 if it starts so, and every
    /// `x_j` a row reads is already final, so a row whose sum starts at
    /// −0, or that follows a non-finite entry, walks its dense row.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from the factored order.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.lu.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        let a = &self.lu.data;
        // Forward substitution with unit-diagonal L.
        let mut finite = true;
        for i in 0..n {
            let row = &a[i * n..(i + 1) * n];
            let mut sum = x[i];
            if finite && sum.to_bits() != NEG_ZERO_BITS {
                for &j in self.pattern.l_row(n, i) {
                    let j = j as usize;
                    sum -= row[j] * x[j];
                }
            } else {
                for (j, xj) in x.iter().enumerate().take(i) {
                    sum -= row[j] * xj;
                }
            }
            x[i] = sum;
            finite &= sum.is_finite();
        }
        // Back substitution with U.
        let mut finite = true;
        for i in (0..n).rev() {
            let row = &a[i * n..(i + 1) * n];
            let mut sum = x[i];
            if finite && sum.to_bits() != NEG_ZERO_BITS {
                for &j in self.pattern.u_row(i) {
                    let j = j as usize;
                    sum -= row[j] * x[j];
                }
            } else {
                for (j, xj) in x.iter().enumerate().skip(i + 1) {
                    sum -= row[j] * xj;
                }
            }
            x[i] = sum / row[i];
            finite &= x[i].is_finite();
        }
    }

    /// Order of the last factored matrix (0 before first use).
    pub fn order(&self) -> usize {
        self.lu.n
    }

    /// Copies another workspace's factors, permutation and pattern into
    /// this one, reusing this workspace's buffers. Bit-identical to
    /// refactoring the same matrix, because the copied bytes *are* that
    /// factorization.
    pub(crate) fn copy_from(&mut self, src: &LuWorkspace) {
        self.lu.n = src.lu.n;
        self.lu.data.clone_from(&src.lu.data);
        self.perm.clone_from(&src.perm);
        self.pattern.copy_from(&src.pattern);
    }
}

/// Dense partial-pivoting LU as it stood before zero skipping: every
/// multiplier of every lower row updates every column right of the
/// pivot, and every solve row sums over its whole triangle. The
/// bit-identity property in `tests` holds the kernel above to it.
#[cfg(test)]
mod dense_reference {
    use super::{DenseMatrix, REL_PIVOT_TOL};
    use crate::error::Error;

    pub(super) fn factor(lu: &mut DenseMatrix, perm: &mut [usize]) -> Result<(), Error> {
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

    pub(super) fn solve(lu: &DenseMatrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factors `a` in a fresh workspace and solves it for `b`.
    fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, Error> {
        let mut ws = LuWorkspace::new();
        ws.factor_from(a)?;
        let mut x = vec![0.0; a.order()];
        ws.solve_into(b, &mut x);
        Ok(x)
    }

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
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solves_2x2() {
        let a = DenseMatrix::from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_pivoting_needed() {
        // Leading zero forces a row swap.
        let a = DenseMatrix::from_rows(3, &[0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let b = [5.0, 2.0, 1.0];
        let x = solve(&a, &b).unwrap();
        let back = a.mul_vec(&x);
        assert!(max_abs_diff(&back, &b) < 1e-10);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        match solve(&a, &[1.0, 1.0]) {
            Err(Error::SingularMatrix { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn detects_all_zero() {
        let a = DenseMatrix::zeros(3);
        assert!(matches!(
            solve(&a, &[0.0; 3]),
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
        let x = solve(&a, &[5.0 * s, 10.0 * s]).unwrap();
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
        match solve(&a, &[1.0, 1.0]) {
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
        let x = solve(&a, &[1.0e-3, 0.0]).unwrap();
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
    fn copy_from_carries_factors_and_pattern() {
        let a = DenseMatrix::from_rows(3, &[0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]);
        let mut ws = LuWorkspace::new();
        ws.factor_from(&a).unwrap();
        // The target last factored a same-order matrix with an empty
        // pattern, so stale lists would skip every off-diagonal entry.
        let mut ws2 = LuWorkspace::new();
        ws2.factor_from(&DenseMatrix::identity(3)).unwrap();
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
            let x = solve(&a, &b).unwrap();
            assert!(
                max_abs_diff(&a.mul_vec(&x), &b) < 1e-9,
                "order {n} failed round trip"
            );
        }
    }

    /// One linear system: row-major `a` of order `n`, a right-hand side,
    /// and the flat offsets of slots a plan would list beyond the
    /// nonzeros of `a`.
    #[derive(Debug, Clone)]
    struct System {
        n: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        extra: Vec<usize>,
    }

    impl System {
        /// The structure a plan would hand the kernel: every nonzero of
        /// `a` plus the extra slots.
        fn planned_structure(&self) -> LuStructure {
            let mut offsets: Vec<usize> = (0..self.a.len()).filter(|&i| self.a[i] != 0.0).collect();
            offsets.extend_from_slice(&self.extra);
            LuStructure::from_offsets(self.n, &offsets)
        }
    }

    /// A random MNA-shaped system: conductance stamps from GΩ leakage
    /// to mΩ wiring at 5–50 % density, node rows whose diagonal carries
    /// their row's mass, voltage-source branch rows with a zero diagonal
    /// and ±1 couplings, exact +0 and −0 entries (also in `b`), now and
    /// then a copied or zeroed row (rank deficiency) or a non-finite
    /// entry in `a` or `b`, and rows in random order so pivoting must
    /// find each diagonal. Orders run to 48 like the regulator
    /// Jacobians, and one system in five runs to 130, past one and two
    /// bitset words. The extra planned slots are random zero slots of
    /// up to 30 % density, and half the time every diagonal, as
    /// structural zeros and gmin diagonals put them in a stamp plan.
    fn mna_system(rng: &mut drill::Rng) -> System {
        let n = if rng.chance(0.2) {
            rng.int_in(49, 130)
        } else {
            rng.int_in(1, 48)
        };
        let density = 0.05 + 0.45 * rng.next_f64();
        let stamp = |rng: &mut drill::Rng| {
            let g = 10f64.powf(15.0 * rng.next_f64() - 12.0);
            if rng.coin() {
                g
            } else {
                -g
            }
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.chance(density) {
                    a[i * n + j] = stamp(rng);
                }
            }
        }
        for i in 0..n {
            if n > 1 && rng.chance(0.2) {
                let j = (i + 1 + rng.below(n as u64 - 1) as usize) % n;
                let s = if rng.coin() { 1.0 } else { -1.0 };
                a[i * n + i] = 0.0;
                a[i * n + j] = s;
                a[j * n + i] = s;
            } else {
                let mass: f64 = a[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum();
                a[i * n + i] = mass * rng.next_f64() + stamp(rng).abs();
            }
        }
        for v in &mut a {
            if rng.chance(0.03) {
                *v = if rng.coin() { 0.0 } else { -0.0 };
            }
        }
        if n > 1 && rng.chance(0.15) {
            let dst = rng.below(n as u64) as usize;
            let src = rng.below(n as u64) as usize;
            for j in 0..n {
                a[dst * n + j] = if dst == src { 0.0 } else { a[src * n + j] };
            }
        }
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        if rng.chance(0.1) {
            let at = rng.below((n * n) as u64) as usize;
            a[at] = *rng.choose(&non_finite);
        }
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            for c in 0..n {
                a.swap(i * n + c, j * n + c);
            }
        }
        let mut b: Vec<f64> = (0..n)
            .map(|_| match rng.below(4) {
                0 => 0.0,
                1 => -0.0,
                _ => stamp(rng),
            })
            .collect();
        if rng.chance(0.2) {
            b[rng.below(n as u64) as usize] = *rng.choose(&non_finite);
        }
        let extra_density = 0.3 * rng.next_f64();
        let mut extra: Vec<usize> = (0..n * n)
            .filter(|&i| a[i] == 0.0 && rng.chance(extra_density))
            .collect();
        if rng.coin() {
            extra.extend((0..n).map(|i| i * n + i));
        }
        System { n, a, b, extra }
    }

    /// Bits of `v` for comparison; every NaN compares as one, since
    /// IEEE 754 leaves NaN payloads to the hardware.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Factors `a` and solves it for `b` through `ws`, with the given
    /// structure or a scanned one, and holds it to the dense reference:
    /// the same `SingularMatrix` pivot row, or the same bits in factors,
    /// permutation and solution.
    fn matches_dense_reference(
        ws: &mut LuWorkspace,
        a: &DenseMatrix,
        b: &[f64],
        structure: Option<&LuStructure>,
    ) -> Result<(), String> {
        let n = a.order();
        let mut ref_lu = a.clone();
        let mut ref_perm: Vec<usize> = (0..n).collect();
        let reference = dense_reference::factor(&mut ref_lu, &mut ref_perm);
        let in_place = match structure {
            Some(structure) => ws.factor_planned(a, structure),
            None => ws.factor_from(a),
        };
        if let Err(expected) = reference {
            let (expected, got) = (format!("{expected:?}"), format!("{:?}", in_place.err()));
            if got != format!("Some({expected})") {
                return Err(format!("reference failed with {expected}, got {got}"));
            }
            return Ok(());
        }
        in_place.map_err(|e| format!("workspace failed where the reference factors: {e:?}"))?;
        let mut x_ref = vec![0.0; n];
        dense_reference::solve(&ref_lu, &ref_perm, b, &mut x_ref);
        if bits(&ws.lu.data) != bits(&ref_lu.data) {
            return Err("factors differ from the reference".to_string());
        }
        if ws.perm != ref_perm {
            return Err("permutation differs from the reference".to_string());
        }
        let mut x = vec![0.0; n];
        ws.solve_into(b, &mut x);
        if bits(&x) != bits(&x_ref) {
            return Err("solution differs from the reference".to_string());
        }
        Ok(())
    }

    #[test]
    fn negative_zero_entries_factor_like_dense_elimination() {
        // Step 0 updates row 1 with a negative multiplier; its −0 at
        // column 1 sits where the pivot row holds +0, so dense
        // elimination turns it into +0 (`−0 − (−0)`), and pivoting then
        // moves it into L. A −0 written by `from_rows` or by `set` must
        // both take that dense update.
        let rows = [2.0, 0.0, 1.0, -1.0, -0.0, 3.0, 0.0, 1.0, 0.0];
        let mut set_one_by_one = DenseMatrix::zeros(3);
        for (i, &v) in rows.iter().enumerate() {
            set_one_by_one.set(i / 3, i % 3, v);
        }
        for a in [DenseMatrix::from_rows(3, &rows), set_one_by_one] {
            let mut lu = a.clone();
            let mut perm = vec![0, 1, 2];
            dense_reference::factor(&mut lu, &mut perm).expect("nonsingular");
            assert_eq!(lu.get(2, 1).to_bits(), 0, "the −0 ends as +0");
            matches_dense_reference(&mut LuWorkspace::new(), &a, &[1.0, -0.0, 2.0], None)
                .expect("bit-identical");
        }
    }

    #[test]
    fn zero_skipping_kernel_is_bit_identical_to_dense_elimination() {
        // Each case runs 1–4 systems through one workspace, each with a
        // scanned structure and with a planned superset of it, so reuse
        // across orders and structures is covered too.
        let config = drill::Config::new("zero-skipping LU = dense LU", 20_130_318).cases(512);
        drill::check(
            &config,
            |rng| {
                let count = rng.int_in(1, 4);
                (0..count).map(|_| mna_system(rng)).collect::<Vec<_>>()
            },
            |systems: &Vec<System>| {
                (0..systems.len())
                    .filter(|_| systems.len() > 1)
                    .map(|i| {
                        let mut fewer = systems.clone();
                        fewer.remove(i);
                        fewer
                    })
                    .collect()
            },
            |systems| {
                let mut ws = LuWorkspace::new();
                systems.iter().try_for_each(|sys| {
                    let a = DenseMatrix::from_rows(sys.n, &sys.a);
                    let planned = sys.planned_structure();
                    if let Some((r, c)) = planned.first_uncovered(&a) {
                        return Err(format!("planned structure misses ({r}, {c})"));
                    }
                    matches_dense_reference(&mut ws, &a, &sys.b, None)
                        .map_err(|e| format!("scanned structure: {e}"))?;
                    matches_dense_reference(&mut ws, &a, &sys.b, Some(&planned))
                        .map_err(|e| format!("planned structure: {e}"))
                })
            },
        )
        .assert_ok();
    }

    #[test]
    fn mna_generator_reaches_every_input_class() {
        // The bit-identity property is only as strong as its inputs:
        // the first 256 systems must include singular and pivoted
        // factorizations, −0 entries, non-finite entries, orders past
        // one bitset word and planned slots beyond the nonzeros.
        let (mut singular, mut pivoted, mut neg_zero, mut non_finite) = (0, 0, 0, 0);
        let (mut multi_word, mut superset) = (0, 0);
        for index in 0..256 {
            let sys = mna_system(&mut drill::Rng::seeded(drill::case_seed(7, index)));
            multi_word += usize::from(sys.n > 64);
            superset += usize::from(sys.extra.iter().any(|&i| sys.a[i] == 0.0));
            let mut lu = DenseMatrix::from_rows(sys.n, &sys.a);
            let mut perm: Vec<usize> = (0..sys.n).collect();
            match dense_reference::factor(&mut lu, &mut perm) {
                Err(_) => singular += 1,
                Ok(()) if perm.iter().enumerate().any(|(i, &p)| i != p) => pivoted += 1,
                Ok(()) => {}
            }
            if sys.a.iter().any(|v| v.to_bits() == NEG_ZERO_BITS) {
                neg_zero += 1;
            }
            if sys.a.iter().any(|v| !v.is_finite()) {
                non_finite += 1;
            }
        }
        assert!(
            singular > 0
                && pivoted > 0
                && neg_zero > 0
                && non_finite > 0
                && multi_word > 0
                && superset > 0,
            "singular {singular}, pivoted {pivoted}, -0 {neg_zero}, non-finite {non_finite}, \
             order > 64 {multi_word}, superset {superset}"
        );
    }
}
