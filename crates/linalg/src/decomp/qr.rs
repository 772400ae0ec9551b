//! QR decomposition by Householder reflections.
//!
//! `A = Q·R` with `Q` orthogonal (`m×m`) and `R` upper-trapezoidal (`m×n`).
//! The paper lists QRD next to SVD as the decompositions an ELM batch solve
//! would need on-device (§2.1). The Householder step itself (`householder`
//! and `reflect`) is shared with [`crate::solve::lstsq`], which runs it with
//! column pivoting as a rank-revealing complete orthogonal decomposition and
//! never forms `Q` — that is the batch ELM solve. [`Qr`] keeps the explicit
//! factors for full-column-rank least squares and for tests.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// One Householder step on a column segment `x`: overwrites `x` with the
/// reflector vector `v` and returns `(α, τ)` such that
/// `(I − τ·v·vᵀ)·x = α·e₁` for the original `x`, with `|α| = ‖x‖₂`. The sign
/// of `α` is opposite to `x₀`, so forming `v₀ = x₀ − α` never cancels. A zero
/// `x` returns `τ = 0`: the reflector is the identity.
pub(crate) fn householder<T: Scalar>(x: &mut [T]) -> (T, T) {
    let norm = x.iter().fold(T::zero(), |acc, &v| acc + v * v).sqrt();
    if norm <= T::zero() {
        return (T::zero(), T::zero());
    }
    let head = x[0];
    let alpha = if head >= T::zero() { -norm } else { norm };
    x[0] = head - alpha;
    // vᵀv = 2‖x‖(‖x‖ + |x₀|), so τ = 2/vᵀv needs no second pass over v.
    (alpha, T::one() / (norm * (norm + head.abs())))
}

/// Apply the reflector `I − τ·v·vᵀ` from [`householder`] to `y` in place.
pub(crate) fn reflect<T: Scalar>(v: &[T], tau: T, y: &mut [T]) {
    let dot = v
        .iter()
        .zip(y.iter())
        .fold(T::zero(), |acc, (&vi, &yi)| acc + vi * yi);
    let s = tau * dot;
    for (yi, &vi) in y.iter_mut().zip(v) {
        *yi -= s * vi;
    }
}

/// Householder QR factorisation.
#[derive(Clone, Debug)]
pub struct Qr<T: Scalar> {
    q: Matrix<T>,
    r: Matrix<T>,
}

impl<T: Scalar> Qr<T> {
    /// Factorise an `m × n` matrix with `m ≥ n`.
    pub fn decompose(a: &Matrix<T>) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::InvalidData {
                detail: format!("QR requires rows >= cols, got {m}x{n}"),
            });
        }
        // Row j of `rt` is column j of A (and of R), so every reflector runs
        // over contiguous memory.
        let mut rt = a.transpose();
        let mut q = Matrix::<T>::identity(m);

        for k in 0..n.min(m.saturating_sub(1)) {
            let (done, rest) = rt.as_mut_slice().split_at_mut((k + 1) * m);
            let col = &mut done[k * m..];
            let (alpha, tau) = householder(&mut col[k..]);
            if tau == T::zero() {
                continue; // column already zero below the diagonal
            }
            let v = &col[k..];
            // R <- H_k R on the trailing columns.
            for c in rest.chunks_exact_mut(m) {
                reflect(v, tau, &mut c[k..]);
            }
            // Q <- Q H_k: H_k is symmetric, so each row of Q is reflected.
            for row in q.as_mut_slice().chunks_exact_mut(m) {
                reflect(v, tau, &mut row[k..]);
            }
            col[k] = alpha;
            col[k + 1..].fill(T::zero());
        }
        Ok(Self {
            q,
            r: rt.transpose(),
        })
    }

    /// The orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> &Matrix<T> {
        &self.q
    }

    /// The upper-trapezoidal factor `R` (`m × n`).
    pub fn r(&self) -> &Matrix<T> {
        &self.r
    }

    /// Least-squares solve of `A·x = b` (minimising `‖Ax − b‖₂`) for a
    /// full-column-rank `A`. `b` must have `m` rows; the result has `n` rows.
    pub fn solve_least_squares(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let (m, _) = self.q.shape();
        let n = self.r.cols();
        if b.rows() != m {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("rhs has {} rows, expected {m}", b.rows()),
            });
        }
        // x = R⁻¹ · (Qᵀ b) restricted to the first n rows.
        let qtb = self.q.t_matmul(b);
        let mut x = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            for i in (0..n).rev() {
                let mut acc = qtb[(i, c)];
                for j in (i + 1)..n {
                    acc -= self.r[(i, j)] * x[(j, c)];
                }
                let diag = self.r[(i, i)];
                if diag.abs() <= T::epsilon() {
                    return Err(LinalgError::Singular);
                }
                x[(i, c)] = acc / diag;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn q_is_orthogonal_and_qr_reconstructs() {
        let mut rng = SmallRng::seed_from_u64(21);
        for (m, n) in [(3, 3), (5, 3), (8, 8), (10, 2)] {
            let a = uniform_matrix::<f64, _>(m, n, -2.0, 2.0, &mut rng);
            let qr = Qr::decompose(&a).unwrap();
            let qtq = qr.q().t_matmul(qr.q());
            assert!(
                qtq.max_abs_diff(&Matrix::identity(m)) < 1e-10,
                "QᵀQ != I for {m}x{n}"
            );
            let recon = qr.q().matmul(qr.r());
            assert!(recon.max_abs_diff(&a) < 1e-10, "QR != A for {m}x{n}");
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = SmallRng::seed_from_u64(22);
        let a = uniform_matrix::<f64, _>(6, 4, -1.0, 1.0, &mut rng);
        let qr = Qr::decompose(&a).unwrap();
        for i in 0..6 {
            for j in 0..4.min(i) {
                assert_eq!(qr.r()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::<f64>::ones(2, 5);
        assert!(Qr::decompose(&a).is_err());
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let mut rng = SmallRng::seed_from_u64(23);
        let a = uniform_matrix::<f64, _>(20, 5, -1.0, 1.0, &mut rng);
        let b = uniform_matrix::<f64, _>(20, 2, -1.0, 1.0, &mut rng);
        let qr = Qr::decompose(&a).unwrap();
        let x_qr = qr.solve_least_squares(&b).unwrap();
        // Normal equations: (AᵀA) x = Aᵀ b
        let gram = a.t_matmul(&a);
        let rhs = a.t_matmul(&b);
        let x_ne = crate::decomp::Lu::decompose(&gram)
            .unwrap()
            .solve(&rhs)
            .unwrap();
        assert!(x_qr.max_abs_diff(&x_ne) < 1e-8);
    }

    #[test]
    fn least_squares_exact_for_square_systems() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
        let b = Matrix::col_from_slice(&[4.0, 9.0]);
        let qr = Qr::decompose(&a).unwrap();
        let x = qr.solve_least_squares(&b).unwrap();
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_least_squares_fails_cleanly() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let qr = Qr::decompose(&a).unwrap();
        let b = Matrix::<f64>::ones(3, 1);
        assert!(qr.solve_least_squares(&b).is_err());
    }

    #[test]
    fn rhs_shape_check() {
        let a = Matrix::<f64>::identity(3);
        let qr = Qr::decompose(&a).unwrap();
        assert!(qr.solve_least_squares(&Matrix::<f64>::ones(2, 1)).is_err());
    }
}
