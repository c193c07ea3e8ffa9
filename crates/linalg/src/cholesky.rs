//! Envelope (skyline) sparse Cholesky factorization.
//!
//! Algorithm 3 of the paper solves `V = L⁻¹E` where `E` has one column
//! per terminal pair — a multi-right-hand-side solve against a single
//! grounded Laplacian. Factoring once and back-substituting per column is
//! far cheaper than running CG per column, which is why SmartGrow /
//! SmartRefine use this factorization by default. Combined with the
//! reverse Cuthill–McKee ordering ([`crate::rcm`]) the fill stays within
//! the matrix envelope (≈ `n·√n` for the grid Laplacians of Algorithm 1),
//! landing at the `q ≈ 1.5–2` end of the paper's §II-H complexity range.
//!
//! The factor is stored as one flat envelope buffer (row offsets into a
//! single `Vec<f64>`), which keeps re-factorization allocation-free: a
//! session that mutates matrix *values* while keeping the sparsity
//! pattern fixed can call [`SparseCholesky::try_refactor`] to reuse the
//! ordering and the symbolic structure and only redo the numeric sweep.

use crate::rcm::reverse_cuthill_mckee;
use crate::sparse::Csr;
use crate::{LinalgError, Scalar};

/// The widest block of right-hand-side columns
/// [`SparseCholesky::substitute_permuted`] eliminates together. Each
/// column keeps its own accumulator, so the per-column arithmetic (and
/// therefore the bits of the result) is independent of how columns are
/// grouped into blocks.
pub const BLOCK: usize = 16;

/// Four-lane dot product. The independent accumulator lanes break the
/// floating-point dependency chain of a naive loop; the lane layout is a
/// function of length alone, so the summation order — and therefore the
/// result bits — is deterministic for given inputs.
#[inline]
fn dot4(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let mid = xs.len() & !3;
    let mut lanes = [0.0f64; 4];
    for (x4, y4) in xs[..mid].chunks_exact(4).zip(ys[..mid].chunks_exact(4)) {
        lanes[0] += x4[0] * y4[0];
        lanes[1] += x4[1] * y4[1];
        lanes[2] += x4[2] * y4[2];
        lanes[3] += x4[3] * y4[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in xs[mid..].iter().zip(&ys[mid..]) {
        tail += x * y;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Rejects non-square and empty matrices.
pub(crate) fn check_square<T: Scalar>(a: &Csr<T>) -> Result<(), LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            got: a.cols(),
        });
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    Ok(())
}

/// First column (in permuted indices) of permuted row `new_row`'s
/// envelope under the ordering `perm[new] = old`, `inv[old] = new`.
fn envelope_first<T: Scalar>(a: &Csr<T>, perm: &[usize], inv: &[usize], new_row: usize) -> usize {
    a.row(perm[new_row])
        .map(|(c, _)| inv[c])
        .filter(|&c| c <= new_row)
        .min()
        .unwrap_or(new_row)
}

/// The envelope structure of `a` under an ordering: `first[i]` is the
/// first column of permuted row `i`'s envelope, and `start[i]` the
/// offset of that row in a flat buffer holding `L[i][first[i]..=i]` for
/// every row (`start` has `n + 1` entries; `start[n]` is the total).
/// Shared by [`SparseCholesky`] and [`crate::ldlt::EnvelopeLdlt`].
pub(crate) fn envelope<T: Scalar>(
    a: &Csr<T>,
    perm: &[usize],
    inv: &[usize],
    first: &mut [usize],
    start: &mut [usize],
) {
    for (new_row, f) in first.iter_mut().enumerate() {
        *f = envelope_first(a, perm, inv, new_row);
    }
    start[0] = 0;
    for (i, &f) in first.iter().enumerate() {
        start[i + 1] = start[i] + (i - f + 1);
    }
}

/// Sparse envelope Cholesky factorization `P·A·Pᵀ = L·Lᵀ` of a symmetric
/// positive-definite matrix, with an RCM fill-reducing permutation.
///
/// # Example
///
/// ```
/// use sprout_linalg::{Triplets, cholesky::SparseCholesky};
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 2.0).unwrap();
/// t.push(0, 1, -1.0).unwrap();
/// t.push(1, 0, -1.0).unwrap();
/// t.push(1, 1, 2.0).unwrap();
/// let chol = SparseCholesky::factor(&t.to_csr()).unwrap();
/// let x = chol.solve(&[1.0, 0.0]).unwrap();
/// assert!((x[0] - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `inv[old] = new`.
    inv: Vec<usize>,
    /// Start column (in permuted indices) of each factor row's envelope.
    first: Vec<usize>,
    /// `start[i]` = offset of permuted row `i` in `vals`; row `i` holds
    /// `L[i][first[i]..=i]`, so its length is `i - first[i] + 1`.
    start: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseCholesky {
    /// Factors a symmetric positive-definite CSR matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — `a` is not square.
    /// * [`LinalgError::Empty`] — zero-dimension input.
    /// * [`LinalgError::SingularMatrix`] — non-positive pivot (not SPD).
    pub fn factor(a: &Csr<f64>) -> Result<Self, LinalgError> {
        check_square(a)?;
        let perm = reverse_cuthill_mckee(a);
        Self::factor_with_ordering(a, perm)
    }

    /// Factors `a` under a caller-supplied fill-reducing ordering
    /// (`perm[new] = old`), skipping the internal RCM computation.
    ///
    /// # Errors
    ///
    /// Same as [`SparseCholesky::factor`], plus
    /// [`LinalgError::DimensionMismatch`] when `perm` is not a
    /// permutation of `0..n`.
    pub fn factor_with_ordering(a: &Csr<f64>, perm: Vec<usize>) -> Result<Self, LinalgError> {
        check_square(a)?;
        let n = a.rows();
        if perm.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: perm.len(),
            });
        }
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n || inv[old] != usize::MAX {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    got: old,
                });
            }
            inv[old] = new;
        }

        let mut chol = SparseCholesky {
            n,
            perm,
            inv,
            first: vec![0; n],
            start: vec![0; n + 1],
            vals: Vec::new(),
        };
        chol.symbolic(a);
        chol.numeric(a)?;
        Ok(chol)
    }

    /// Fully re-factors `a` in place — fresh RCM ordering, symbolic and
    /// numeric sweeps — reusing this factor's buffers and the supplied
    /// RCM workspace. Produces bits identical to
    /// [`SparseCholesky::factor`] while allocating nothing once the
    /// buffers reach steady size; sessions that re-factor on every
    /// membership change keep one factor and one workspace alive.
    ///
    /// # Errors
    ///
    /// Same as [`SparseCholesky::factor`]. On error the factor contents
    /// are invalid and must not be used for solves.
    pub fn refactor_into(
        &mut self,
        a: &Csr<f64>,
        ws: &mut crate::rcm::RcmWorkspace,
    ) -> Result<(), LinalgError> {
        check_square(a)?;
        let n = a.rows();
        crate::rcm::reverse_cuthill_mckee_into(a, ws, &mut self.perm);
        self.inv.clear();
        self.inv.resize(n, 0);
        for (new, &old) in self.perm.iter().enumerate() {
            self.inv[old] = new;
        }
        self.n = n;
        self.first.clear();
        self.first.resize(n, 0);
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.symbolic(a);
        self.numeric(a)
    }

    /// Re-runs the numeric factorization against a matrix whose values
    /// changed but whose sparsity pattern is unchanged, reusing the
    /// stored ordering and symbolic envelope without allocating.
    ///
    /// Returns `Ok(true)` on success. Returns `Ok(false)` — leaving the
    /// existing factor intact — when `a` has a different dimension or a
    /// different pattern (its envelope does not match), in which case the
    /// caller should fall back to a full [`SparseCholesky::factor`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::SingularMatrix`] when the numeric sweep hits a
    /// non-positive pivot; the factor contents are invalid afterwards and
    /// must not be used for solves.
    pub fn try_refactor(&mut self, a: &Csr<f64>) -> Result<bool, LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Ok(false);
        }
        // Pattern check: the envelope implied by `a` under the stored
        // ordering must equal the stored envelope exactly, so that the
        // refactor is bit-identical to a fresh factor with this ordering.
        for new_row in 0..self.n {
            if envelope_first(a, &self.perm, &self.inv, new_row) != self.first[new_row] {
                return Ok(false);
            }
        }
        self.numeric(a)?;
        Ok(true)
    }

    /// Computes `first` and `start` (envelope structure) for the current
    /// ordering and sizes `vals`.
    fn symbolic(&mut self, a: &Csr<f64>) {
        let n = self.n;
        envelope(a, &self.perm, &self.inv, &mut self.first, &mut self.start);
        // No need to zero the envelope: the numeric sweep zero-fills
        // every row before scattering into it, so stale contents from a
        // previous factorization are never observable.
        let need = self.start[n];
        if self.vals.len() < need {
            self.vals.resize(need, 0.0);
        } else {
            self.vals.truncate(need);
        }
    }

    /// Numeric envelope factorization sweep over the symbolic structure.
    fn numeric(&mut self, a: &Csr<f64>) -> Result<(), LinalgError> {
        let n = self.n;
        for i in 0..n {
            let fi = self.first[i];
            let si = self.start[i];
            let (done, rest) = self.vals.split_at_mut(si);
            let row = &mut rest[..i - fi + 1];
            row.fill(0.0);
            // Scatter A's permuted row i entries within the envelope.
            let old_row = self.perm[i];
            for (c, v) in a.row(old_row) {
                let nc = self.inv[c];
                if nc >= fi && nc <= i {
                    row[nc - fi] += v;
                }
            }
            // Eliminate: L[i][j] for j in fi..i.
            for j in fi..i {
                let fj = self.first[j];
                let lo = fi.max(fj);
                let rowj = &done[self.start[j]..self.start[j + 1]];
                let xs = &rowj[lo - fj..j - fj];
                let ys = &row[lo - fi..j - fi];
                let djj = rowj[j - fj];
                row[j - fi] = (row[j - fi] - dot4(xs, ys)) / djj;
            }
            // Diagonal.
            let head = &row[..i - fi];
            let diag = row[i - fi] - dot4(head, head);
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::SingularMatrix { at: i });
            }
            row[i - fi] = diag.sqrt();
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Total stored envelope entries (a measure of fill).
    pub fn envelope_size(&self) -> usize {
        self.vals.len()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let mut y: Vec<f64> = self.perm.iter().map(|&old| b[old]).collect();
        self.substitute_block(&mut y, 1);
        let mut x = vec![0.0; self.n];
        for (&old, &v) in self.perm.iter().zip(&y) {
            x[old] = v;
        }
        Ok(x)
    }

    /// Solves `A·X = B` in place for a block of `width` right-hand sides
    /// that the caller stamped straight into factor order: `y[i*width + c]`
    /// holds column `c` at permuted row `i`, i.e. at original row
    /// [`permutation`](SparseCholesky::permutation)`()[i]`. On return `y`
    /// holds the solutions in the same layout. Each column is
    /// bit-identical to what [`SparseCholesky::solve`] returns for it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `width` is not in
    /// `1..=BLOCK` or `y.len() != width * n`.
    pub fn substitute_permuted(&self, y: &mut [f64], width: usize) -> Result<(), LinalgError> {
        if !(1..=BLOCK).contains(&width) {
            return Err(LinalgError::DimensionMismatch {
                expected: BLOCK,
                got: width,
            });
        }
        if y.len() != width * self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: width * self.n,
                got: y.len(),
            });
        }
        self.substitute_block(y, width);
        Ok(())
    }

    /// Forward + backward substitution on a permuted block `y` of `w`
    /// interleaved columns (`y[i*w + c]`), in place.
    fn substitute_block(&self, y: &mut [f64], w: usize) {
        match w {
            1 => self.substitute_fixed::<1>(y),
            2 => self.substitute_fixed::<2>(y),
            3 => self.substitute_fixed::<3>(y),
            4 => self.substitute_fixed::<4>(y),
            5 => self.substitute_fixed::<5>(y),
            6 => self.substitute_fixed::<6>(y),
            7 => self.substitute_fixed::<7>(y),
            8 => self.substitute_fixed::<8>(y),
            9 => self.substitute_fixed::<9>(y),
            10 => self.substitute_fixed::<10>(y),
            11 => self.substitute_fixed::<11>(y),
            12 => self.substitute_fixed::<12>(y),
            13 => self.substitute_fixed::<13>(y),
            14 => self.substitute_fixed::<14>(y),
            15 => self.substitute_fixed::<15>(y),
            _ => self.substitute_fixed::<16>(y),
        }
    }

    fn substitute_fixed<const W: usize>(&self, y: &mut [f64]) {
        let n = self.n;
        // Forward substitution L·y = Pb. Rows before the first row with
        // any exactly-(+0.0) -free entry would compute exact +0.0 (their
        // inputs and all earlier outputs are +0.0 and every pivot is
        // positive), so they can be skipped bit-identically.
        let skip = (0..n)
            .find(|&i| y[i * W..i * W + W].iter().any(|v| v.to_bits() != 0))
            .unwrap_or(n);
        for i in skip..n {
            let fi = self.first[i];
            let row = &self.vals[self.start[i]..self.start[i + 1]];
            let mut acc = [0.0f64; W];
            acc.copy_from_slice(&y[i * W..i * W + W]);
            for (k, &l) in (fi..i).zip(row.iter()) {
                let yk = &y[k * W..k * W + W];
                for c in 0..W {
                    acc[c] -= l * yk[c];
                }
            }
            let d = row[i - fi];
            for c in 0..W {
                y[i * W + c] = acc[c] / d;
            }
        }
        // Backward substitution Lᵀ·z = y.
        for i in (0..n).rev() {
            let fi = self.first[i];
            let row = &self.vals[self.start[i]..self.start[i + 1]];
            let d = row[i - fi];
            let mut zi = [0.0f64; W];
            for c in 0..W {
                zi[c] = y[i * W + c] / d;
                y[i * W + c] = zi[c];
            }
            for (k, &l) in (fi..i).zip(row.iter()) {
                let yk = &mut y[k * W..k * W + W];
                for c in 0..W {
                    yk[c] -= l * zi[c];
                }
            }
        }
    }

    /// The fill-reducing permutation used (`perm[new] = old`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Inverse permutation (`inv[old] = new`).
    pub fn inverse_permutation(&self) -> &[usize] {
        &self.inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    fn poisson(n: usize) -> Csr<f64> {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
                t.push(i + 1, i, -1.0).unwrap();
            }
        }
        t.to_csr()
    }

    fn grid_laplacian(w: usize, h: usize, ground: usize) -> Csr<f64> {
        let n = w * h;
        let mut t = Triplets::new(n - 1, n - 1);
        let idx = |x: usize, y: usize| y * w + x;
        let map = |i: usize| -> Option<usize> {
            use std::cmp::Ordering;
            match i.cmp(&ground) {
                Ordering::Less => Some(i),
                Ordering::Equal => None,
                Ordering::Greater => Some(i - 1),
            }
        };
        let mut stamp = |a: usize, b: usize, g: f64| {
            let (ma, mb) = (map(a), map(b));
            if let Some(ia) = ma {
                t.push(ia, ia, g).unwrap();
            }
            if let Some(ib) = mb {
                t.push(ib, ib, g).unwrap();
            }
            if let (Some(ia), Some(ib)) = (ma, mb) {
                t.push(ia, ib, -g).unwrap();
                t.push(ib, ia, -g).unwrap();
            }
        };
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    stamp(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < h {
                    stamp(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn factors_and_solves_tridiagonal() {
        let a = poisson(10);
        let chol = SparseCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_grounded_grid_laplacian() {
        let a = grid_laplacian(9, 7, 0);
        let n = a.rows();
        let chol = SparseCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) / 17.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max error {err}");
    }

    #[test]
    fn matches_cg() {
        use crate::cg::{solve_cg, CgOptions};
        let a = grid_laplacian(6, 6, 17);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| if i == 3 { 1.0 } else { 0.0 }).collect();
        let chol = SparseCholesky::factor(&a).unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = solve_cg(&a, &b, CgOptions::default()).unwrap().x;
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-7);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, 2.0).unwrap();
        t.push(1, 0, 2.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        assert!(matches!(
            SparseCholesky::factor(&t.to_csr()),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_singular_laplacian() {
        // Ungrounded Laplacian is singular.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, -1.0).unwrap();
        t.push(1, 0, -1.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        assert!(SparseCholesky::factor(&t.to_csr()).is_err());
    }

    #[test]
    fn blocked_solve_is_bit_identical_at_any_width() {
        // Whether a column rides alone, in a partial block or in a full
        // block of 16 must not change a single bit of its solution.
        let a = grid_laplacian(8, 5, 11);
        let n = a.rows();
        let chol = SparseCholesky::factor(&a).unwrap();
        let cols: Vec<Vec<f64>> = (0..BLOCK)
            .map(|k| {
                (0..n)
                    .map(|i| if i == (k * 5) % n { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let solo: Vec<Vec<f64>> = cols.iter().map(|b| chol.solve(b).unwrap()).collect();
        let perm = chol.permutation();
        for width in [1usize, 4, 9, BLOCK] {
            let mut y = vec![0.0; n * width];
            for (c, b) in cols.iter().take(width).enumerate() {
                for (i, &old) in perm.iter().enumerate() {
                    y[i * width + c] = b[old];
                }
            }
            chol.substitute_permuted(&mut y, width).unwrap();
            for (c, want) in solo.iter().take(width).enumerate() {
                for (i, &old) in perm.iter().enumerate() {
                    assert_eq!(y[i * width + c].to_bits(), want[old].to_bits());
                }
            }
        }
        let mut y = vec![0.0; n * (BLOCK + 1)];
        assert!(chol.substitute_permuted(&mut y, BLOCK + 1).is_err());
        assert!(chol.substitute_permuted(&mut y[..n], 0).is_err());
        assert!(chol.substitute_permuted(&mut y[..n - 1], 1).is_err());
    }

    #[test]
    fn refactor_reuses_structure_bit_identically() {
        let a = grid_laplacian(9, 6, 3);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let perm_before = chol.permutation().to_vec();
        // Same pattern, scaled values.
        let mut t = Triplets::new(a.rows(), a.cols());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                t.push(r, c, v * 2.5).unwrap();
            }
        }
        let b = t.to_csr();
        assert!(chol.try_refactor(&b).unwrap());
        assert_eq!(chol.permutation(), &perm_before[..]);
        let fresh = SparseCholesky::factor_with_ordering(&b, perm_before).unwrap();
        let rhs: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.3).sin()).collect();
        let x1 = chol.solve(&rhs).unwrap();
        let x2 = fresh.solve(&rhs).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn refactor_declines_changed_pattern() {
        let a = poisson(8);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        // A wider-band matrix: extra (0, 4) coupling changes the pattern.
        let mut t = Triplets::new(8, 8);
        for r in 0..8 {
            for (c, v) in a.row(r) {
                t.push(r, c, v).unwrap();
            }
        }
        t.push(0, 4, -0.25).unwrap();
        t.push(4, 0, -0.25).unwrap();
        let wider = t.to_csr();
        assert!(!chol.try_refactor(&wider).unwrap());
        // Old factor still solves the old system.
        let b = a.mul_vec(&[1.0; 8]).unwrap();
        let x = chol.solve(&b).unwrap();
        for v in &x {
            assert!((v - 1.0).abs() < 1e-10);
        }
        // Dimension change also declines.
        assert!(!chol.try_refactor(&poisson(5)).unwrap());
    }

    #[test]
    fn factor_with_ordering_validates_permutation() {
        let a = poisson(4);
        assert!(SparseCholesky::factor_with_ordering(&a, vec![0, 1, 2]).is_err());
        assert!(SparseCholesky::factor_with_ordering(&a, vec![0, 0, 1, 2]).is_err());
        assert!(SparseCholesky::factor_with_ordering(&a, vec![3, 2, 1, 0]).is_ok());
    }

    #[test]
    fn dimension_validation() {
        let a = poisson(4);
        let chol = SparseCholesky::factor(&a).unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
        assert_eq!(chol.dimension(), 4);
        assert!(chol.envelope_size() >= 4);
    }
}
