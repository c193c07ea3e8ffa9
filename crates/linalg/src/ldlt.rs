//! Envelope LDLᵀ factorization for complex-symmetric systems.
//!
//! The 25 MHz admittance matrix of a rail network (Tables II/III of the
//! paper) is complex symmetric, not Hermitian, so Cholesky does not
//! apply. It needs no pivoting either: every branch has `R > 0`, so the
//! real part of the grounded matrix is a connected, grounded, positively
//! weighted Laplacian — positive definite — and every leading minor is
//! nonsingular. [`EnvelopeLdlt`] factors `P·A·Pᵀ = L·D·Lᵀ` (unit lower
//! `L`, diagonal `D`, plain unconjugated transpose) over the reverse
//! Cuthill–McKee ordering and the envelope structure that
//! [`SparseCholesky`](crate::cholesky::SparseCholesky) uses, so one
//! direct solve costs about what a real Cholesky solve of the same
//! network does.

use crate::cholesky::{check_square, envelope};
use crate::rcm::reverse_cuthill_mckee;
use crate::scalar::dot_unconjugated;
use crate::sparse::Csr;
use crate::{LinalgError, Scalar};

/// A pivot whose modulus is at most this share of its row's diagonal
/// entry has vanished to rounding: the matrix is singular (a network
/// component with no path to the reference node).
const PIVOT_RTOL: f64 = 1e-12;

/// Sparse envelope `L·D·Lᵀ` factorization of a symmetric (for complex
/// scalars: complex-symmetric, `A = Aᵀ`) matrix whose leading minors
/// are nonsingular, with an RCM fill-reducing permutation. No pivoting
/// is done.
///
/// # Example
///
/// ```
/// use sprout_linalg::{Complex, Triplets, ldlt::EnvelopeLdlt};
/// let mut t = Triplets::<Complex>::new(2, 2);
/// t.push(0, 0, Complex::new(2.0, 1.0)).unwrap();
/// t.push(0, 1, Complex::new(-1.0, 0.0)).unwrap();
/// t.push(1, 0, Complex::new(-1.0, 0.0)).unwrap();
/// t.push(1, 1, Complex::new(2.0, -1.0)).unwrap();
/// let ldlt = EnvelopeLdlt::factor(&t.to_csr()).unwrap();
/// let x = ldlt.solve(&[Complex::ONE, Complex::ZERO]).unwrap();
/// // det = (2+j)(2-j) - 1 = 4, so x = (2-j, 1)/4.
/// assert!((x[0] - Complex::new(0.5, -0.25)).abs() < 1e-15);
/// assert!((x[1] - Complex::new(0.25, 0.0)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct EnvelopeLdlt<T> {
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// Start column (in permuted indices) of each factor row's envelope.
    first: Vec<usize>,
    /// `start[i]` = offset of permuted row `i` in `vals`; row `i` holds
    /// `L[i][first[i]..i]` followed by `D[i]`.
    start: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> EnvelopeLdlt<T> {
    /// Factors a square symmetric CSR matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — `a` is not square.
    /// * [`LinalgError::Empty`] — zero-dimension input.
    /// * [`LinalgError::SingularMatrix`] — a pivot is not finite or has
    ///   vanished to rounding.
    pub fn factor(a: &Csr<T>) -> Result<Self, LinalgError> {
        check_square(a)?;
        let n = a.rows();
        let perm = reverse_cuthill_mckee(a);
        let mut inv = vec![0; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut first = vec![0; n];
        let mut start = vec![0; n + 1];
        envelope(a, &perm, &inv, &mut first, &mut start);
        let mut vals = vec![T::ZERO; start[n]];
        for i in 0..n {
            let fi = first[i];
            let (done, rest) = vals.split_at_mut(start[i]);
            let row = &mut rest[..i - fi + 1];
            for (c, v) in a.row(perm[i]) {
                let nc = inv[c];
                if nc >= fi && nc <= i {
                    row[nc - fi] += v;
                }
            }
            let scale = row[i - fi].modulus();
            // row[j] becomes t[j] = L[i][j]·D[j] for j in fi..i.
            for j in fi..i {
                let fj = first[j];
                let lo = fi.max(fj);
                let rowj = &done[start[j]..start[j + 1]];
                let s = dot_unconjugated(&row[lo - fi..j - fi], &rowj[lo - fj..j - fj]);
                row[j - fi] -= s;
            }
            // D[i] = A[i][i] - Σ t[k]·L[i][k], scaling each t[k] to L[i][k].
            let mut d = row[i - fi];
            for k in fi..i {
                let t = row[k - fi];
                let l = t / done[start[k + 1] - 1];
                d -= t * l;
                row[k - fi] = l;
            }
            let m = d.modulus();
            if !m.is_finite() || m <= PIVOT_RTOL * scale {
                return Err(LinalgError::SingularMatrix { at: i });
            }
            row[i - fi] = d;
        }
        Ok(EnvelopeLdlt {
            perm,
            first,
            start,
            vals,
        })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let n = self.perm.len();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut y: Vec<T> = self.perm.iter().map(|&old| b[old]).collect();
        // Forward substitution L·y = Pb (unit diagonal).
        for i in 0..n {
            let fi = self.first[i];
            let row = &self.vals[self.start[i]..self.start[i + 1]];
            let (head, tail) = y.split_at_mut(i);
            tail[0] -= dot_unconjugated(&row[..i - fi], &head[fi..]);
        }
        // Diagonal D·z = y.
        for (yi, &end) in y.iter_mut().zip(&self.start[1..]) {
            *yi = *yi / self.vals[end - 1];
        }
        // Backward substitution Lᵀ·x = z, one factor row at a time.
        for i in (0..n).rev() {
            let fi = self.first[i];
            let row = &self.vals[self.start[i]..self.start[i + 1]];
            let xi = y[i];
            for (yk, &l) in y[fi..i].iter_mut().zip(row) {
                *yk -= l * xi;
            }
        }
        let mut x = vec![T::ZERO; n];
        for (&old, &v) in self.perm.iter().zip(&y) {
            x[old] = v;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::sparse::Triplets;

    fn max_err(x: &[Complex], y: &[Complex]) -> f64 {
        x.iter()
            .zip(y)
            .map(|(p, q)| (*p - *q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_complex_symmetric_ladder() {
        // RL ladder admittance-like complex symmetric system.
        let n = 20;
        let mut t = Triplets::<Complex>::new(n, n);
        let y = Complex::new(1.0, 0.5);
        for i in 0..n {
            t.push(i, i, y * 2.0 + Complex::new(0.1, 0.0)).unwrap();
            if i + 1 < n {
                t.push(i, i + 1, -y).unwrap();
                t.push(i + 1, i, -y).unwrap();
            }
        }
        let a = t.to_csr();
        let x_true: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), (i as f64 / 3.0).sin()))
            .collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = EnvelopeLdlt::factor(&a).unwrap().solve(&b).unwrap();
        assert!(max_err(&x, &x_true) < 1e-12);
    }

    #[test]
    fn matches_dense_lu_complex() {
        use crate::dense::DenseMatrix;
        let mut t = Triplets::<Complex>::new(4, 4);
        let entries = [
            (0, 0, Complex::new(3.0, 1.0)),
            (0, 2, Complex::new(-1.0, 0.0)),
            (1, 1, Complex::new(2.0, -0.5)),
            (1, 3, Complex::new(0.0, 1.0)),
            (2, 0, Complex::new(-1.0, 0.0)),
            (2, 2, Complex::new(4.0, 2.0)),
            (3, 1, Complex::new(0.0, 1.0)),
            (3, 3, Complex::new(5.0, 0.0)),
        ];
        let mut d = DenseMatrix::<Complex>::zeros(4, 4);
        for &(r, c, v) in &entries {
            t.push(r, c, v).unwrap();
            d.set(r, c, v);
        }
        let b = vec![
            Complex::ONE,
            Complex::J,
            Complex::new(2.0, -1.0),
            Complex::new(0.5, 0.5),
        ];
        let x1 = EnvelopeLdlt::factor(&t.to_csr())
            .unwrap()
            .solve(&b)
            .unwrap();
        let x2 = d.solve(&b).unwrap();
        assert!(max_err(&x1, &x2) < 1e-14);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let mut t = Triplets::<f64>::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        let ldlt = EnvelopeLdlt::factor(&t.to_csr()).unwrap();
        assert!(ldlt.solve(&[1.0]).is_err());
        assert!(EnvelopeLdlt::factor(&Triplets::<f64>::new(2, 3).to_csr()).is_err());
        assert!(matches!(
            EnvelopeLdlt::factor(&Triplets::<f64>::new(0, 0).to_csr()),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn floating_component_is_singular() {
        // Node 0 is grounded through a leak; nodes 1-4 form a chain with
        // no path to it, whose last pivot cancels only to rounding.
        let ys = [
            Complex::new(1.3, -0.7),
            Complex::new(0.45, 2.2),
            Complex::new(3.1, -1.9),
        ];
        let mut t = Triplets::<Complex>::new(5, 5);
        t.push(0, 0, Complex::new(0.2, 0.1)).unwrap();
        for (k, &y) in ys.iter().enumerate() {
            let (a, b) = (k + 1, k + 2);
            t.push(a, a, y).unwrap();
            t.push(b, b, y).unwrap();
            t.push(a, b, -y).unwrap();
            t.push(b, a, -y).unwrap();
        }
        assert!(matches!(
            EnvelopeLdlt::factor(&t.to_csr()),
            Err(LinalgError::SingularMatrix { .. })
        ));
        // An isolated node (an empty row) is singular too.
        let mut t = Triplets::<Complex>::new(2, 2);
        t.push(0, 0, ys[0]).unwrap();
        assert!(matches!(
            EnvelopeLdlt::factor(&t.to_csr()),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }
}
