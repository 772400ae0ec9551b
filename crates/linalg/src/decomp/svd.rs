//! Singular value decomposition by the one-sided Jacobi method.
//!
//! Produces the thin SVD `A = U·Σ·Vᵀ` with `U` of shape `m×n`, `Σ` diagonal
//! `n×n` (returned as a vector of singular values, descending) and `V` of
//! shape `n×n`, for any `m×n` input (internally transposing when `m < n`).
//!
//! One-sided Jacobi was chosen deliberately: it uses only multiply, add and
//! divide plus a square root per rotation — the same operation set the FPGA
//! core has — and it is simple enough to reason about convergence on
//! fixed-point data. Its one caller is `σ_max(α)` for spectral normalization
//! (Algorithm 1, line 2; [`crate::norms::spectral_norm_exact`]). The
//! pseudo-inverse and the batch ELM solve go through
//! [`crate::solve::lstsq`] instead.
//!
//! The large singular values are accurate, but the small ones only to about
//! `1e-10·σ_max`: on an exactly rank-deficient matrix the zero singular values
//! come out near that level, and their `U` columns are not orthonormal. Do not
//! use this decomposition for rank decisions.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Maximum number of Jacobi sweeps before declaring failure to converge.
pub const MAX_SWEEPS: usize = 60;

/// The thin singular value decomposition of a matrix.
#[derive(Clone, Debug)]
pub struct Svd<T: Scalar> {
    /// Left singular vectors, `m × k` with `k = min(m, n)`.
    pub u: Matrix<T>,
    /// Singular values in non-increasing order, length `k`.
    pub singular_values: Vec<T>,
    /// Right singular vectors, `n × k` (columns are the right vectors).
    pub v: Matrix<T>,
}

impl<T: Scalar> Svd<T> {
    /// Compute the thin SVD of `a` with the default convergence tolerance.
    pub fn decompose(a: &Matrix<T>) -> Result<Self> {
        Self::decompose_with_tol(a, T::epsilon())
    }

    /// Compute the thin SVD with an explicit off-diagonal tolerance.
    pub fn decompose_with_tol(a: &Matrix<T>, tol: T) -> Result<Self> {
        let (m, n) = a.shape();
        if m >= n {
            Self::jacobi_tall(a, tol)
        } else {
            // SVD(Aᵀ) = V Σ Uᵀ, so swap the factors back.
            let svd_t = Self::jacobi_tall(&a.transpose(), tol)?;
            Ok(Self {
                u: svd_t.v,
                singular_values: svd_t.singular_values,
                v: svd_t.u,
            })
        }
    }

    /// One-sided Jacobi on a tall (or square) matrix, `m ≥ n`.
    fn jacobi_tall(a: &Matrix<T>, tol: T) -> Result<Self> {
        let (m, n) = a.shape();
        let mut w = a.clone(); // columns get orthogonalised in place
        let mut v = Matrix::<T>::identity(n);
        let two = T::from_f64(2.0);

        // Columns whose norm falls below this are numerically zero (they carry
        // only rounding noise); rotating them against each other never
        // converges because their relative off-diagonal is O(1) noise.
        let norm_cutoff_sq = {
            let fro = w.frobenius_norm();
            let cutoff = T::epsilon() * fro;
            cutoff * cutoff
        };

        let mut converged = false;
        let mut sweeps = 0usize;
        while !converged && sweeps < MAX_SWEEPS {
            converged = true;
            sweeps += 1;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Accumulate the 2x2 Gram block of columns p and q.
                    let mut app = T::zero();
                    let mut aqq = T::zero();
                    let mut apq = T::zero();
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        app += wp * wp;
                        aqq += wq * wq;
                        apq += wp * wq;
                    }
                    // Converged for this pair when the off-diagonal is tiny
                    // relative to the diagonal, or when either column is
                    // numerically zero.
                    if app <= norm_cutoff_sq || aqq <= norm_cutoff_sq {
                        continue;
                    }
                    let scale = (app * aqq).sqrt();
                    if apq.abs() <= tol * scale || scale <= T::zero() {
                        continue;
                    }
                    converged = false;

                    // Jacobi rotation angle chosen to annihilate the Gram
                    // off-diagonal: with ζ = (app − aqq)/(2·apq), the stable
                    // root of t² + 2ζt − 1 = 0 is t = sign(ζ)/(|ζ| + √(1+ζ²)).
                    let diff = app - aqq;
                    let (c, s) = if diff.abs() <= T::epsilon() * two {
                        // 45° rotation
                        let r = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
                        (r, if apq > T::zero() { r } else { -r })
                    } else {
                        let zeta = diff / (two * apq);
                        let t = {
                            // t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2))
                            let abs_z = zeta.abs();
                            let root = (T::one() + zeta * zeta).sqrt();
                            let t_abs = T::one() / (abs_z + root);
                            if zeta >= T::zero() {
                                t_abs
                            } else {
                                -t_abs
                            }
                        };
                        let c = T::one() / (T::one() + t * t).sqrt();
                        (c, c * t)
                    };

                    // Rotate columns p and q of W and of V.
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        w[(i, p)] = c * wp + s * wq;
                        w[(i, q)] = -s * wp + c * wq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp + s * vq;
                        v[(i, q)] = -s * vp + c * vq;
                    }
                }
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence { iterations: sweeps });
        }

        // Singular values are the column norms of W; U's columns are the
        // normalised columns of W (zero columns keep a zero U column).
        let mut sigma: Vec<T> = Vec::with_capacity(n);
        let mut u = Matrix::<T>::zeros(m, n);
        for j in 0..n {
            let mut norm_sq = T::zero();
            for i in 0..m {
                norm_sq += w[(i, j)] * w[(i, j)];
            }
            let norm = norm_sq.sqrt();
            sigma.push(norm);
            if norm > T::zero() {
                for i in 0..m {
                    u[(i, j)] = w[(i, j)] / norm;
                }
            }
        }

        // Sort singular values (and the corresponding columns) descending.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            sigma[b]
                .partial_cmp(&sigma[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut u_sorted = Matrix::<T>::zeros(m, n);
        let mut v_sorted = Matrix::<T>::zeros(n, n);
        let mut sigma_sorted = Vec::with_capacity(n);
        for (new_j, &old_j) in order.iter().enumerate() {
            sigma_sorted.push(sigma[old_j]);
            for i in 0..m {
                u_sorted[(i, new_j)] = u[(i, old_j)];
            }
            for i in 0..n {
                v_sorted[(i, new_j)] = v[(i, old_j)];
            }
        }

        Ok(Self {
            u: u_sorted,
            singular_values: sigma_sorted,
            v: v_sorted,
        })
    }

    /// The largest singular value (`σ_max`). Zero for an all-zero matrix.
    pub fn sigma_max(&self) -> T {
        self.singular_values
            .first()
            .copied()
            .unwrap_or_else(T::zero)
    }

    /// Reconstruct `U · Σ · Vᵀ` (used by tests and error analysis).
    pub fn reconstruct(&self) -> Matrix<T> {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                us[(i, j)] *= self.singular_values[j];
            }
        }
        us.matmul_t(&self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn diagonal_matrix_has_known_singular_values() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = Svd::decompose(&a).unwrap();
        let sv = &svd.singular_values;
        assert!((sv[0] - 3.0).abs() < 1e-10);
        assert!((sv[1] - 2.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn reconstruction_holds_for_random_matrices() {
        let mut rng = SmallRng::seed_from_u64(31);
        for (m, n) in [(4, 4), (8, 3), (3, 8), (12, 12), (1, 5), (5, 1)] {
            let a = uniform_matrix::<f64, _>(m, n, -3.0, 3.0, &mut rng);
            let svd = Svd::decompose(&a).unwrap();
            assert!(
                svd.reconstruct().max_abs_diff(&a) < 1e-8,
                "reconstruction failed for {m}x{n}"
            );
            // singular values descending and non-negative
            for w in svd.singular_values.windows(2) {
                assert!(w[0] >= w[1]);
            }
            assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
        }
    }

    #[test]
    fn u_and_v_have_orthonormal_columns() {
        let mut rng = SmallRng::seed_from_u64(32);
        let a = uniform_matrix::<f64, _>(10, 6, -1.0, 1.0, &mut rng);
        let svd = Svd::decompose(&a).unwrap();
        let utu = svd.u.t_matmul(&svd.u);
        let vtv = svd.v.t_matmul(&svd.v);
        assert!(utu.max_abs_diff(&Matrix::identity(6)) < 1e-9);
        assert!(vtv.max_abs_diff(&Matrix::identity(6)) < 1e-9);
    }

    #[test]
    fn sigma_max_matches_spectral_norm_of_orthogonal_matrix() {
        let svd = Svd::decompose(&Matrix::<f64>::identity(5)).unwrap();
        assert!((svd.sigma_max() - 1.0).abs() < 1e-12);
        assert!(svd.singular_values.iter().all(|&s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn rank_deficient_matrix_detected() {
        // rank 1: second column is a multiple of the first
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let svd = Svd::decompose(&a).unwrap();
        assert!(svd.singular_values[0] > 1.0);
        assert!(svd.singular_values[1] < 1e-10 * svd.sigma_max());
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn zero_matrix_has_zero_singular_values() {
        let a = Matrix::<f64>::zeros(4, 3);
        let svd = Svd::decompose(&a).unwrap();
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        assert_eq!(svd.sigma_max(), 0.0);
    }

    #[test]
    fn known_2x2_singular_values() {
        // A = [[3, 0], [4, 5]] has singular values sqrt(45/2 ± sqrt(45^2/4 - 225))
        // = {sqrt(45), sqrt(5)} ≈ {6.7082, 2.2361}
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 5.0]]);
        let svd = Svd::decompose(&a).unwrap();
        assert!((svd.singular_values[0] - 45.0_f64.sqrt()).abs() < 1e-9);
        assert!((svd.singular_values[1] - 5.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn f32_svd_converges() {
        let mut rng = SmallRng::seed_from_u64(33);
        let a = uniform_matrix::<f32, _>(6, 4, -1.0, 1.0, &mut rng);
        let svd = Svd::decompose(&a).unwrap();
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-3);
    }
}
