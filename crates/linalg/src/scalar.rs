//! Scalar abstraction letting solvers work over `f64` and [`Complex`].

use crate::complex::Complex;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Field scalar usable by the generic sparse kernels and solvers.
///
/// Implemented for `f64` (DC analysis) and [`Complex`] (AC analysis at
/// 25 MHz per the paper's Tables II/III).
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Embeds a real value.
    fn from_f64(x: f64) -> Self;

    /// Modulus (absolute value) as a real number.
    fn modulus(self) -> f64;

    /// Complex conjugate (identity for reals).
    fn conj(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    fn from_f64(x: f64) -> f64 {
        x
    }

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn conj(self) -> f64 {
        self
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;

    fn from_f64(x: f64) -> Complex {
        Complex::from_real(x)
    }

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn conj(self) -> Complex {
        Complex::conj(self)
    }
}

/// Euclidean norm of a scalar vector.
pub fn norm2<T: Scalar>(v: &[T]) -> f64 {
    v.iter()
        .map(|x| {
            let m = x.modulus();
            m * m
        })
        .sum::<f64>()
        .sqrt()
}

/// Conjugated dot product `⟨a, b⟩ = Σ conj(a_i)·b_i`.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc += x.conj() * y;
    }
    acc
}

/// Unconjugated dot product `Σ a_i·b_i` (the bilinear form of a
/// complex-symmetric factorization).
pub fn dot_unconjugated<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x`.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_scalar_basics() {
        assert_eq!(f64::from_f64(2.5), 2.5);
        assert_eq!((-3.0f64).modulus(), 3.0);
        assert_eq!(Scalar::conj(4.0f64), 4.0);
    }

    #[test]
    fn complex_scalar_basics() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.modulus(), 5.0);
        assert_eq!(Scalar::conj(z), Complex::new(3.0, -4.0));
        assert_eq!(Complex::from_f64(2.0), Complex::from_real(2.0));
    }

    #[test]
    fn vector_kernels_real() {
        let a = [1.0, 2.0, 2.0];
        assert_eq!(norm2(&a), 3.0);
        let b = [3.0, 0.0, 1.0];
        assert_eq!(dot(&a, &b), 5.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &b, &mut y);
        assert_eq!(y, [7.0, 1.0, 3.0]);
    }

    #[test]
    fn conjugated_dot_is_hermitian() {
        let a = [Complex::new(1.0, 1.0)];
        let d = dot(&a, &a);
        assert!((d.re - 2.0).abs() < 1e-12);
        assert!(d.im.abs() < 1e-12);
        // Unconjugated version differs for complex input.
        let u = dot_unconjugated(&a, &a);
        assert!((u.re - 0.0).abs() < 1e-12);
        assert!((u.im - 2.0).abs() < 1e-12);
    }
}
