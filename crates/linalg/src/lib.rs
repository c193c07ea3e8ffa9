//! # sprout-linalg
//!
//! Sparse and dense linear algebra for SPROUT's nodal analysis.
//!
//! §II-H of the paper identifies the repeated solution of the grounded
//! Laplacian system `V = L⁻¹E` (Algorithm 3) as the runtime bottleneck —
//! "up to 90 % of the total runtime" — solved with sparse solvers of
//! complexity `O(|V|^q)`, `q ∈ [1.5, 3]`. This crate supplies those
//! solvers from scratch:
//!
//! * [`sparse`] — triplet assembly and CSR storage with generic
//!   matrix–vector products.
//! * [`cg`] — Jacobi-preconditioned conjugate gradients for symmetric
//!   positive-definite systems (grounded Laplacians).
//! * [`cholesky`] — envelope (skyline) Cholesky factorization with
//!   reverse Cuthill–McKee ordering ([`rcm`]); the right tool when one
//!   Laplacian must be solved against many injection columns.
//! * [`ldlt`] — envelope `L·D·Lᵀ` over the same ordering and envelope,
//!   the direct solver for the complex-symmetric AC extraction systems.
//! * [`dense`] — small dense LU / Cholesky for tests and tiny systems.
//! * [`complex`] — a minimal `Complex` scalar (the offline crate set has
//!   no `num-complex`).
//! * [`laplacian`] — weighted-graph Laplacian assembly, grounding, and
//!   effective-resistance computation.
//!
//! # Example
//!
//! ```
//! use sprout_linalg::laplacian::GraphLaplacian;
//!
//! // A path graph 0 - 1 - 2 with unit conductances: R(0,2) = 2.
//! let lap = GraphLaplacian::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
//! let r = lap.effective_resistance(0, 2).unwrap();
//! assert!((r - 2.0).abs() < 1e-9);
//! ```

pub mod cg;
pub mod cholesky;
pub mod complex;
pub mod dense;
pub mod fallback;
pub mod laplacian;
pub mod ldlt;
pub mod rcm;
pub mod scalar;
pub mod solver_trace;
pub mod sparse;

pub use complex::Complex;
pub use scalar::Scalar;
pub use sparse::{Csr, Triplets};

use std::fmt;

/// Errors produced by solvers and matrix construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Matrix dimensions are inconsistent with the operation.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// An index exceeded the matrix dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension it must stay below.
        dimension: usize,
    },
    /// An iterative solver failed to converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// Factorization hit a non-positive pivot (matrix not SPD) or a zero
    /// pivot (singular).
    SingularMatrix {
        /// Pivot position where the breakdown occurred.
        at: usize,
    },
    /// The operation needs a non-empty matrix/graph.
    Empty,
    /// A matrix entry was NaN or infinite.
    NotFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// The system contains components with no conductance path to
    /// ground — singular before any factorization is attempted.
    Disconnected {
        /// Number of floating components detected.
        components: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            LinalgError::IndexOutOfBounds { index, dimension } => {
                write!(f, "index {index} out of bounds for dimension {dimension}")
            }
            LinalgError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::SingularMatrix { at } => {
                write!(
                    f,
                    "matrix is singular or not positive definite at pivot {at}"
                )
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
            LinalgError::NotFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is NaN or infinite")
            }
            LinalgError::Disconnected { components } => write!(
                f,
                "{components} component(s) have no conductance path to ground"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}
