//! High-level solves: linear systems, inverses, and the minimum-norm least
//! squares used by batch ELM training (`β̂ = H⁺·t`, Equation 3).

use crate::decomp::qr::{householder, reflect};
use crate::decomp::{Cholesky, Lu};
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Solve the square system `A·X = B` by LU with partial pivoting.
pub fn solve<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>> {
    Lu::decompose(a)?.solve(b)
}

/// Inverse of a square matrix by LU with partial pivoting.
pub fn inverse<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    Lu::decompose(a)?.inverse()
}

/// Moore–Penrose pseudo-inverse. `A⁺` is the minimum-norm solution of
/// `A·X = I`, so this is [`lstsq`] against the identity; pivots with
/// `|R_kk| ≤ rcond·|R₀₀|` count as zero.
pub fn pseudo_inverse<T: Scalar>(a: &Matrix<T>, rcond: f64) -> Result<Matrix<T>> {
    lstsq(a, &Matrix::identity(a.rows()), rcond)
}

/// Minimum-norm solution of the (possibly rectangular, possibly
/// rank-deficient) least-squares problem `min ‖A·X − B‖_F`, by a complete
/// orthogonal decomposition (Golub & Van Loan, *Matrix Computations*, §5.4;
/// LAPACK `xGELSY`):
///
/// 1. Householder QR with column pivoting, `A·Π = Q·R`. Each reflector is
///    applied to `B` as it is formed; `Q` is never formed.
/// 2. The numerical rank `r` stops at the first pivot with
///    `|R_kk| ≤ rcond·|R₀₀|`.
/// 3. If `r < n`, a second Householder QR, `[R₁₁ R₁₂]ᵀ = Z·[U; 0]`, turns the
///    kept rows into the lower-triangular system `Uᵀ·w = (QᵀB)₀..ᵣ`, and
///    `X = Π·Z·[w; 0]`. Otherwise `X = Π·R⁻¹·QᵀB`.
///
/// A non-finite entry in `A` or `B` is [`LinalgError::InvalidData`]: pivoting
/// on NaN norms would otherwise find rank 0 and return a silent zero.
pub fn lstsq<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, rcond: f64) -> Result<Matrix<T>> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("lstsq: A has {} rows, B has {}", a.rows(), b.rows()),
        });
    }
    if a.iter().chain(b.iter()).any(|v| !v.to_f64().is_finite()) {
        return Err(LinalgError::InvalidData {
            detail: "lstsq: A or B has a non-finite entry".into(),
        });
    }
    let (m, n) = a.shape();
    if m == 0 || n == 0 || b.cols() == 0 {
        return Ok(Matrix::zeros(n, b.cols()));
    }
    let col_norm = |col: &[T]| col.iter().fold(T::zero(), |acc, &v| acc + v * v).sqrt();

    // Row j of `at` is column j of A (row c of `bt` column c of B), so every
    // reflector runs over contiguous memory. After step k, `at[(j, i)]` for
    // i < j holds R_ij and `bt` holds QᵀB.
    let mut at = a.transpose();
    let mut bt = b.transpose();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut diag: Vec<T> = Vec::with_capacity(m.min(n));
    // Trailing column norms, downdated every step and recomputed once
    // cancellation eats half the digits (`norms_ref` holds the norm at the
    // last recompute), as in LAPACK xLAQP2.
    let mut norms: Vec<T> = (0..n).map(|j| col_norm(at.row(j))).collect();
    let mut norms_ref = norms.clone();
    let recompute_below = T::from_f64(f64::EPSILON.sqrt());
    let rcond = T::from_f64(rcond);

    for k in 0..m.min(n) {
        let pivot = (k..n).fold(k, |best, j| if norms[j] > norms[best] { j } else { best });
        if pivot != k {
            let (head, tail) = at.as_mut_slice().split_at_mut(pivot * m);
            head[k * m..(k + 1) * m].swap_with_slice(&mut tail[..m]);
            perm.swap(k, pivot);
            norms.swap(k, pivot);
            norms_ref.swap(k, pivot);
        }
        let (done, rest) = at.as_mut_slice().split_at_mut((k + 1) * m);
        let v = &mut done[k * m + k..];
        let (alpha, tau) = householder(v);
        let cutoff = diag.first().map_or(T::zero(), |&r00: &T| rcond * r00.abs());
        if alpha.abs() <= cutoff {
            break;
        }
        let v = &*v;
        for c in rest.chunks_exact_mut(m) {
            reflect(v, tau, &mut c[k..]);
        }
        for c in bt.as_mut_slice().chunks_exact_mut(m) {
            reflect(v, tau, &mut c[k..]);
        }
        diag.push(alpha);
        for (j, c) in (k + 1..n).zip(rest.chunks_exact(m)) {
            if norms[j] <= T::zero() {
                continue;
            }
            let ratio = c[k].abs() / norms[j];
            let left = (T::one() - ratio * ratio).max_val(T::zero());
            let drift = norms[j] / norms_ref[j];
            if left * drift * drift <= recompute_below {
                norms[j] = col_norm(&c[k + 1..]);
                norms_ref[j] = norms[j];
            } else {
                norms[j] *= left.sqrt();
            }
        }
    }
    let rank = diag.len();

    // z solves [R₁₁ R₁₂]·z = (QᵀB)₀..ᵣ with minimum norm, one rhs per row.
    let mut z = Matrix::<T>::zeros(b.cols(), n);
    if rank == n {
        // Column-oriented back substitution: column j of R is row j of `at`.
        for (zc, qtb) in z.as_mut_slice().chunks_exact_mut(n).zip(bt.row_iter()) {
            zc.copy_from_slice(&qtb[..n]);
            for j in (0..n).rev() {
                zc[j] /= diag[j];
                let zj = zc[j];
                for (zi, &rij) in zc[..j].iter_mut().zip(&at.row(j)[..j]) {
                    *zi -= rij * zj;
                }
            }
        }
    } else {
        // Row i of `tr` is row i of [R₁₁ R₁₂], i.e. column i of its
        // transpose; factor that n × r transpose in place.
        let mut tr = Matrix::<T>::zeros(rank, n);
        for i in 0..rank {
            tr[(i, i)] = diag[i];
            for j in i + 1..n {
                tr[(i, j)] = at[(j, i)];
            }
        }
        let mut u_diag = Vec::with_capacity(rank);
        let mut taus = Vec::with_capacity(rank);
        for i in 0..rank {
            let (done, rest) = tr.as_mut_slice().split_at_mut((i + 1) * n);
            let v = &mut done[i * n + i..];
            let (alpha, tau) = householder(v);
            for c in rest.chunks_exact_mut(n) {
                reflect(v, tau, &mut c[i..]);
            }
            u_diag.push(alpha);
            taus.push(tau);
        }
        // Uᵀ·w = (QᵀB)₀..ᵣ by forward substitution (U_li = tr[(i, l)] for
        // l < i), then z = Z·[w; 0] = H₀·H₁⋯H_{r−1}·[w; 0].
        for (zc, qtb) in z.as_mut_slice().chunks_exact_mut(n).zip(bt.row_iter()) {
            for i in 0..rank {
                let row = tr.row(i);
                let dot = row[..i]
                    .iter()
                    .zip(&zc[..i])
                    .fold(T::zero(), |acc, (&u, &w)| acc + u * w);
                zc[i] = (qtb[i] - dot) / u_diag[i];
            }
            for i in (0..rank).rev() {
                reflect(&tr.row(i)[i..], taus[i], &mut zc[i..]);
            }
        }
    }

    // X = Π·z: z's entry j belongs to column perm[j] of A.
    let mut x = Matrix::<T>::zeros(n, b.cols());
    for (c, zc) in z.row_iter().enumerate() {
        for (j, &zj) in zc.iter().enumerate() {
            x[(perm[j], c)] = zj;
        }
    }
    Ok(x)
}

/// Solve the Tikhonov-regularised least squares `min ‖A·X − B‖² + δ‖X‖²`,
/// i.e. `X = (AᵀA + δI)⁻¹ Aᵀ B` — the ReOS-ELM initial-training formula
/// (Equation 8). With `δ = 0` this degrades to the ordinary normal equations.
pub fn ridge_solve<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, delta: T) -> Result<Matrix<T>> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("ridge_solve: A has {} rows, B has {}", a.rows(), b.rows()),
        });
    }
    let n = a.cols();
    let mut gram = a.t_matmul(a);
    for i in 0..n {
        gram[(i, i)] += delta;
    }
    let rhs = a.t_matmul(b);
    match Cholesky::decompose(&gram) {
        Ok(ch) => ch.solve(&rhs),
        Err(LinalgError::NotPositiveDefinite { .. }) => solve(&gram, &rhs),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Svd;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn solve_and_inverse_agree() {
        let mut rng = SmallRng::seed_from_u64(41);
        let a =
            uniform_matrix::<f64, _>(6, 6, -1.0, 1.0, &mut rng) + Matrix::identity(6).scale(3.0);
        let b = uniform_matrix::<f64, _>(6, 2, -1.0, 1.0, &mut rng);
        let x = solve(&a, &b).unwrap();
        let x2 = inverse(&a).unwrap().matmul(&b);
        assert!(x.max_abs_diff(&x2) < 1e-9);
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn spd_inverse_matches_lu_inverse() {
        let mut rng = SmallRng::seed_from_u64(42);
        let m = uniform_matrix::<f64, _>(5, 5, -1.0, 1.0, &mut rng);
        let spd = m.t_matmul(&m) + Matrix::identity(5).scale(0.1);
        let i1 = Cholesky::decompose(&spd).unwrap().inverse().unwrap();
        let i2 = inverse(&spd).unwrap();
        assert!(i1.max_abs_diff(&i2) < 1e-8);
    }

    #[test]
    fn pseudo_inverse_satisfies_moore_penrose_conditions() {
        let mut rng = SmallRng::seed_from_u64(43);
        for (m, n) in [(6, 3), (3, 6), (5, 5)] {
            let a = uniform_matrix::<f64, _>(m, n, -1.0, 1.0, &mut rng);
            let p = pseudo_inverse(&a, 1e-12).unwrap();
            assert_eq!(p.shape(), (n, m));
            // A A⁺ A = A
            assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-8);
            // A⁺ A A⁺ = A⁺
            assert!(p.matmul(&a).matmul(&p).max_abs_diff(&p) < 1e-8);
            // (A A⁺)ᵀ = A A⁺ and (A⁺ A)ᵀ = A⁺ A
            let aap = a.matmul(&p);
            assert!(aap.transpose().max_abs_diff(&aap) < 1e-8);
            let apa = p.matmul(&a);
            assert!(apa.transpose().max_abs_diff(&apa) < 1e-8);
        }
    }

    #[test]
    fn pseudo_inverse_of_rank_deficient_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let p = pseudo_inverse(&a, 1e-10).unwrap();
        assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn pseudo_inverse_of_invertible_matrix_is_inverse() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]);
        let p = pseudo_inverse(&a, 1e-12).unwrap();
        let inv = inverse(&a).unwrap();
        assert!(p.max_abs_diff(&inv) < 1e-10);
    }

    #[test]
    fn lstsq_recovers_planted_solution() {
        let mut rng = SmallRng::seed_from_u64(44);
        let a = uniform_matrix::<f64, _>(30, 4, -1.0, 1.0, &mut rng);
        let x_true = uniform_matrix::<f64, _>(4, 1, -1.0, 1.0, &mut rng);
        let b = a.matmul(&x_true);
        let x = lstsq(&a, &b, 1e-12).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-8);
        assert!(lstsq(&a, &Matrix::<f64>::ones(3, 1), 1e-12).is_err());
    }

    /// `A⁺·B` through the Jacobi SVD, keeping singular values above
    /// `rcond·σ_max`.
    fn svd_pinv_solve(a: &Matrix<f64>, b: &Matrix<f64>, rcond: f64) -> Matrix<f64> {
        let svd = Svd::decompose(a).unwrap();
        let cutoff = rcond * svd.sigma_max();
        let mut v = svd.v.clone();
        for (j, &s) in svd.singular_values.iter().enumerate() {
            let inv = if s > cutoff { 1.0 / s } else { 0.0 };
            for i in 0..v.rows() {
                v[(i, j)] *= inv;
            }
        }
        v.matmul_t(&svd.u).matmul(b)
    }

    #[test]
    fn lstsq_finds_the_minimum_norm_solution_of_a_rank_deficient_system() {
        // An exactly rank-30 64×64 system, the shape of an ELM refill. The
        // Jacobi SVD reports spurious singular values near 1e-10·σ_max here,
        // so a pseudo-inverse cut at rcond = 1e-10 keeps noise directions
        // (‖x‖∞ ≈ 1e8). The reference cuts at 1e-6, above that noise floor.
        let mut rng = SmallRng::seed_from_u64(46);
        let left = uniform_matrix::<f64, _>(64, 30, -1.0, 1.0, &mut rng);
        let right = uniform_matrix::<f64, _>(30, 64, -1.0, 1.0, &mut rng);
        let a = left.matmul(&right);
        let b = uniform_matrix::<f64, _>(64, 2, -1.0, 1.0, &mut rng);
        let reference = svd_pinv_solve(&a, &b, 1e-6);
        let x = lstsq(&a, &b, 1e-10).unwrap();
        let err = (&x - &reference).frobenius_norm();
        assert!(
            err <= 1e-8 * reference.frobenius_norm(),
            "‖x − x_ref‖ = {err:e}, ‖x‖∞ = {:e}",
            x.max_abs()
        );
    }

    #[test]
    fn lstsq_of_a_zero_matrix_is_zero() {
        let x = lstsq(&Matrix::<f64>::zeros(4, 3), &Matrix::ones(4, 2), 1e-10).unwrap();
        assert_eq!(x, Matrix::zeros(3, 2));
    }

    #[test]
    fn lstsq_rejects_non_finite_input() {
        let mut a = Matrix::<f64>::identity(3);
        a[(1, 2)] = f64::NAN;
        let b = Matrix::<f64>::ones(3, 1);
        let invalid = |r: Result<Matrix<f64>>| matches!(r, Err(LinalgError::InvalidData { .. }));
        assert!(invalid(lstsq(&a, &b, 1e-10)));
        assert!(invalid(pseudo_inverse(&a, 1e-10)));
        let mut b_inf = b.clone();
        b_inf[(0, 0)] = f64::INFINITY;
        assert!(invalid(lstsq(&Matrix::identity(3), &b_inf, 1e-10)));
    }

    #[test]
    fn ridge_solve_matches_closed_form_and_shrinks() {
        let mut rng = SmallRng::seed_from_u64(45);
        let a = uniform_matrix::<f64, _>(20, 5, -1.0, 1.0, &mut rng);
        let b = uniform_matrix::<f64, _>(20, 1, -1.0, 1.0, &mut rng);
        let x0 = ridge_solve(&a, &b, 0.0).unwrap();
        let x_ls = lstsq(&a, &b, 1e-12).unwrap();
        assert!(x0.max_abs_diff(&x_ls) < 1e-7);
        // Heavier regularisation shrinks the solution norm.
        let x_big = ridge_solve(&a, &b, 100.0).unwrap();
        let norm = |m: &Matrix<f64>| m.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert!(norm(&x_big) < norm(&x0));
        assert!(ridge_solve(&a, &Matrix::<f64>::ones(3, 1), 1.0).is_err());
    }
}
