//! Jacobi-preconditioned conjugate gradients for SPD systems.
//!
//! The grounded Laplacian of Algorithm 3 is symmetric positive definite,
//! so CG is the natural iterative solver — its `O(nnz·√κ)` behaviour is
//! the `q ≈ 1.5` end of the complexity range the paper quotes in §II-H.

use crate::scalar::{axpy, dot, norm2};
use crate::solver_trace::ResidualTrace;
use crate::sparse::Csr;
use crate::LinalgError;
use sprout_telemetry as telemetry;

/// Options controlling the CG iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Relative residual target `‖r‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap (0 means `2·n + 50`).
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: 0,
        }
    }
}

/// Outcome of a converged CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `A·x = b` for symmetric positive-definite `A` with Jacobi
/// (diagonal) preconditioning.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] — non-square `A` or wrong `b`.
/// * [`LinalgError::NotConverged`] — iteration cap hit first.
///
/// # Example
///
/// ```
/// use sprout_linalg::{Triplets, cg::{solve_cg, CgOptions}};
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 2.0).unwrap();
/// t.push(0, 1, -1.0).unwrap();
/// t.push(1, 0, -1.0).unwrap();
/// t.push(1, 1, 2.0).unwrap();
/// let sol = solve_cg(&t.to_csr(), &[1.0, 0.0], CgOptions::default()).unwrap();
/// assert!((sol.x[0] - 2.0 / 3.0).abs() < 1e-8);
/// ```
pub fn solve_cg(a: &Csr<f64>, b: &[f64], opts: CgOptions) -> Result<CgSolution, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            got: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let max_iter = if opts.max_iterations == 0 {
        2 * n + 50
    } else {
        opts.max_iterations
    };

    // Jacobi preconditioner (guard against zero diagonals).
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
        .collect();

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    let mut trace = ResidualTrace::start();

    for iter in 0..max_iter {
        a.mul_vec_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            return Err(LinalgError::NotConverged {
                iterations: iter,
                residual: norm2(&r) / b_norm,
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let res = norm2(&r) / b_norm;
        trace.push(res);
        if res <= opts.tolerance {
            telemetry::counter!("cg.solves");
            telemetry::histogram!("cg.iterations", (iter + 1) as u64);
            trace.emit("cg_solve", iter + 1, res);
            return Ok(CgSolution {
                x,
                iterations: iter + 1,
                residual: res,
            });
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let residual = norm2(&r) / b_norm;
    telemetry::counter!("cg.not_converged");
    telemetry::point("cg_not_converged")
        .field("iterations", max_iter)
        .field("residual", residual)
        .emit();
    trace.emit("cg_solve", max_iter, residual);
    Err(LinalgError::NotConverged {
        iterations: max_iter,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    /// 1-D Poisson (tridiagonal SPD) matrix of size n.
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

    #[test]
    fn solves_small_spd() {
        let a = poisson(5);
        let x_true = vec![1.0, -1.0, 2.0, 0.5, 3.0];
        let b = a.mul_vec(&x_true).unwrap();
        let sol = solve_cg(&a, &b, CgOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
        assert!(sol.residual <= 1e-10);
    }

    #[test]
    fn solves_larger_system() {
        let n = 400;
        let a = poisson(n);
        let b = vec![1.0; n];
        let sol = solve_cg(&a, &b, CgOptions::default()).unwrap();
        let back = a.mul_vec(&sol.x).unwrap();
        let err: f64 = back
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "max residual {err}");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson(4);
        let sol = solve_cg(&a, &[0.0; 4], CgOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 4]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn dimension_checks() {
        let a = poisson(3);
        assert!(solve_cg(&a, &[1.0, 2.0], CgOptions::default()).is_err());
    }

    #[test]
    fn iteration_cap_reports_not_converged() {
        let a = poisson(50);
        let b = vec![1.0; 50];
        let opts = CgOptions {
            tolerance: 1e-14,
            max_iterations: 2,
        };
        match solve_cg(&a, &b, opts) {
            Err(LinalgError::NotConverged { iterations, .. }) => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn matches_dense_solution() {
        use crate::dense::DenseMatrix;
        let a = poisson(8);
        let mut d = DenseMatrix::<f64>::zeros(8, 8);
        for r in 0..8 {
            for (c, v) in a.row(r) {
                d.set(r, c, v);
            }
        }
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin() + 1.0).collect();
        let x_cg = solve_cg(&a, &b, CgOptions::default()).unwrap().x;
        let x_dense = d.solve(&b).unwrap();
        for (p, q) in x_cg.iter().zip(&x_dense) {
            assert!((p - q).abs() < 1e-7);
        }
    }
}
