//! Dense matrices with LU and Cholesky factorizations.
//!
//! Used for small systems (MNA transient steps, tests against the sparse
//! solvers) where O(n³) is irrelevant.
//!
//! Index-based loops are used deliberately throughout: the factorization
//! kernels read and write the same buffer at computed offsets, where
//! iterator forms obscure the classical algorithm statements.
#![allow(clippy::needless_range_loop)]

use crate::scalar::Scalar;
use crate::LinalgError;

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use sprout_linalg::dense::DenseMatrix;
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let x = a.solve(&[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for ragged rows and
    /// [`LinalgError::Empty`] for no rows.
    pub fn from_rows(rows: &[&[T]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        if r == 0 {
            return Err(LinalgError::Empty);
        }
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    expected: c,
                    got: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the entry at `(r, c)` (MNA stamping).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                let mut acc = T::ZERO;
                for c in 0..self.cols {
                    acc += self.get(r, c) * x[c];
                }
                acc
            })
            .collect())
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — non-square `A` or wrong `b`.
    /// * [`LinalgError::SingularMatrix`] — zero pivot column.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let lu = LuFactors::factor(self)?;
        lu.solve(b)
    }
}

/// LU factorization with partial pivoting, reusable across right-hand
/// sides.
#[derive(Debug, Clone)]
pub struct LuFactors<T = f64> {
    n: usize,
    lu: Vec<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> LuFactors<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — `a` is not square.
    /// * [`LinalgError::SingularMatrix`] — a pivot column is numerically
    ///   zero.
    pub fn factor(a: &DenseMatrix<T>) -> Result<Self, LinalgError> {
        if a.rows != a.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: a.rows,
                got: a.cols,
            });
        }
        let n = a.rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot by modulus.
            let mut best = k;
            let mut best_mag = lu[k * n + k].modulus();
            for r in (k + 1)..n {
                let mag = lu[r * n + k].modulus();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            if best_mag < 1e-300 {
                return Err(LinalgError::SingularMatrix { at: k });
            }
            if best != k {
                for c in 0..n {
                    lu.swap(k * n + c, best * n + c);
                }
                perm.swap(k, best);
            }
            let pivot = lu[k * n + k];
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / pivot;
                lu[r * n + k] = factor;
                for c in (k + 1)..n {
                    let sub = factor * lu[k * n + c];
                    lu[r * n + c] -= sub;
                }
            }
        }
        Ok(LuFactors { n, lu, perm })
    }

    /// Solves with a previously computed factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for the wrong `b` length.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinalgError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`LuFactors::solve`] writing into a caller-owned buffer, which is
    /// cleared and refilled; a time-stepping loop that solves once per
    /// step reuses one buffer and allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for the wrong `b` length.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let n = self.n;
        // Apply the permutation, then forward/backward substitution.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc / self.lu[r * n + r];
        }
        Ok(())
    }
}

/// Dense Cholesky factorization (`A = L·Lᵀ`) for real SPD matrices.
#[derive(Debug, Clone)]
pub struct DenseCholesky {
    n: usize,
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — non-square input.
    /// * [`LinalgError::SingularMatrix`] — a non-positive pivot (matrix is
    ///   not SPD).
    pub fn factor(a: &DenseMatrix<f64>) -> Result<Self, LinalgError> {
        if a.rows != a.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: a.rows,
                got: a.cols,
            });
        }
        let n = a.rows;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::SingularMatrix { at: i });
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(DenseCholesky { n, l })
    }

    /// Solves `A·x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for the wrong `b` length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let n = self.n;
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[i * n + k] * y[k];
            }
            y[i] /= self.l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[k * n + i] * y[k];
            }
            y[i] /= self.l[i * n + i];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::<f64>::zeros(2, 3);
        m.set(1, 2, 5.0);
        m.add(1, 2, 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert!(DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).is_err());
        assert!(DenseMatrix::<f64>::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_solve_is_identity() {
        let eye = DenseMatrix::<f64>::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(eye.solve(&b).unwrap(), b);
    }

    #[test]
    fn lu_solves_general_system() {
        let a = DenseMatrix::from_rows(&[
            &[0.0, 2.0, 1.0][..],
            &[1.0, -2.0, -3.0][..],
            &[-1.0, 1.0, 2.0][..],
        ])
        .unwrap();
        let x_true = vec![1.0, 2.0, -1.0];
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn lu_factors_reusable() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0][..], &[1.0, 3.0][..]]).unwrap();
        let lu = LuFactors::factor(&a).unwrap();
        for rhs in [[1.0, 0.0], [0.0, 1.0], [2.0, 5.0]] {
            let x = lu.solve(&rhs).unwrap();
            let back = a.mul_vec(&x).unwrap();
            assert!((back[0] - rhs[0]).abs() < 1e-12);
            assert!((back[1] - rhs[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_solve_into_is_bitwise_solve() {
        let a = DenseMatrix::from_rows(&[
            &[0.3, 2.0, 1.0, -0.7][..],
            &[1.0, -2.0, -3.0, 0.1][..],
            &[-1.0, 1.0, 2.0, 5.0][..],
            &[0.25, -4.0, 1.5, 2.0][..],
        ])
        .unwrap();
        let lu = LuFactors::factor(&a).unwrap();
        let mut x = vec![9.0; 7]; // stale contents and length
        for k in 0..5 {
            let b: Vec<f64> = (0..4).map(|i| ((i * 7 + k) as f64 * 0.61).sin()).collect();
            lu.solve_into(&b, &mut x).unwrap();
            let want = lu.solve(&b).unwrap();
            assert_eq!(x.len(), want.len());
            for (p, q) in x.iter().zip(&want) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
        assert!(lu.solve_into(&[1.0], &mut x).is_err());
    }

    #[test]
    fn lu_complex_system() {
        // (1+j)·x = 2 → x = 1 - j.
        let a = DenseMatrix::from_rows(&[&[Complex::new(1.0, 1.0)][..]]).unwrap();
        let x = a.solve(&[Complex::from_real(2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn cholesky_matches_lu_on_spd() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 1.0, 0.0][..],
            &[1.0, 5.0, 2.0][..],
            &[0.0, 2.0, 6.0][..],
        ])
        .unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let chol = DenseCholesky::factor(&a).unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = a.solve(&b).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(matches!(
            DenseCholesky::factor(&a),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }
}
