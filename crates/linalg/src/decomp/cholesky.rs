//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! ELM / ReOS-ELM initial training inverts the Gram matrix `H₀ᵀH₀ (+ δI)`,
//! which is symmetric and (with the ReOS-ELM regulariser) positive definite.
//! The Cholesky route is roughly twice as cheap as LU and never needs
//! pivoting, which matches what an FPGA implementation would do.
//!
//! Solves run forward substitution with `L`, then back substitution with
//! `Lᵀ`, on the right-hand side **row by row** (the shared kernel in
//! `triangular.rs`): row `i` subtracts `l_ij · row_j` for ascending `j`,
//! then divides by `l_ii`. Per element that is the same ascending-`j`
//! subtraction chain and the same division as the textbook one-column-at-a-
//! time loop, so the result is bit-identical to it; only the memory order
//! changes. A column sweep strides `8·cols` bytes per step — 8 KiB for the
//! `Ñ = 1024` identity behind `P₀` — while a row sweep is a contiguous axpy.

use super::triangular::{solve_in_place, Triangle};
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// `L·y = b`, then `Lᵀ·x = y`, both read from the lower factor.
const SPD_PASSES: [Triangle; 2] = [Triangle::Lower, Triangle::LowerTransposed];

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky<T: Scalar> {
    l: Matrix<T>,
}

impl<T: Scalar> Cholesky<T> {
    /// Factorise a symmetric positive-definite matrix. The upper triangle of
    /// `a` is ignored (assumed symmetric). Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not positive.
    pub fn decompose(a: &Matrix<T>) -> Result<Self> {
        let mut l = Matrix::default();
        cholesky_into(a, &mut l)?;
        Ok(Self { l })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix<T> {
        &self.l
    }

    /// Solve `A·x = b` using forward then backward substitution — the
    /// one-column case of [`Cholesky::solve`].
    pub fn solve_vec(&self, b: &[T]) -> Result<Vec<T>> {
        self.solve(&Matrix::col_from_slice(b))
            .map(|x| x.as_slice().to_vec())
    }

    /// Solve `A·X = B` for a matrix right-hand side.
    pub fn solve(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let mut out = Matrix::default();
        solve_spd_into(&self.l, b, &mut out)?;
        Ok(out)
    }

    /// Inverse of the factorised matrix: the identity, solved in place.
    /// The forward pass keeps the identity lower triangular, with exact
    /// `+0` above the diagonal when `L` is finite, so after one scan for
    /// that it skips those zeros: about `n³/3` of its `n³/2`
    /// multiply–adds, with every other operation and its order unchanged.
    pub fn inverse(&self) -> Result<Matrix<T>> {
        let mut x = Matrix::identity(self.dim());
        let finite = self.l.iter().all(|v| v.to_f64().is_finite());
        solve_in_place(&self.l, SPD_PASSES, &mut x, finite);
        Ok(x)
    }
}

/// Factorise a symmetric positive-definite matrix into a caller-owned
/// lower-triangular factor `l` (reshaped via [`Matrix::resize_zeroed`],
/// reusing its allocation) — the workspace form behind
/// [`Cholesky::decompose`], and the kernel that lets the OS-ELM batch-B
/// recursion factor its `B × B` innovation matrix with **zero heap
/// allocations** at steady state. The upper triangle of `a` is ignored
/// (assumed symmetric); the arithmetic is bit-for-bit identical to
/// [`Cholesky::decompose`] (which delegates here).
///
/// Entry `(i, j)` is `(a_ij − Σ_{k<j} l_ik·l_jk) / l_jj` (or the square
/// root of the sum on the diagonal), subtracted in ascending `k`: the
/// textbook one-chain-per-entry loop. The factorisation is left-looking
/// over blocks of four rows, so that for each pair of columns left of the
/// block the block's eight chains run together and share every load; each
/// chain keeps its own operands and order, so no bit moves. The error
/// names the same first pivot as the one-chain loop.
pub fn cholesky_into<T: Scalar>(a: &Matrix<T>, l: &mut Matrix<T>) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    l.resize_zeroed(n, n);
    factor(a, l.as_mut_slice())
}

/// Rows of one block of the left-looking factorisation: independent chains
/// hide the latency of the subtraction that a single chain waits on.
const CHOL_ROWS: usize = 4;

/// The factorisation of [`cholesky_into`] into the zeroed row-major `n × n`
/// slice `l`, block of rows by block of rows.
fn factor<T: Scalar>(a: &Matrix<T>, l: &mut [T]) -> Result<()> {
    let n = a.rows();
    for i0 in (0..n).step_by(CHOL_ROWS) {
        let rows = CHOL_ROWS.min(n - i0);
        let (done, block) = l.split_at_mut(i0 * n);
        let block = &mut block[..rows * n];
        if rows == CHOL_ROWS {
            left_of_block::<T, CHOL_ROWS>(a, done, block, i0);
        } else {
            for (r, row) in block.chunks_exact_mut(n).enumerate() {
                left_of_block::<T, 1>(a, done, row, i0 + r);
            }
        }
        // The block's own triangle, entry by entry in row order, so the
        // first pivot that is not positive is the one-chain loop's.
        for i in i0..i0 + rows {
            let (above, row_i) = block.split_at_mut((i - i0) * n);
            let row_i = &mut row_i[..n];
            for j in i0..=i {
                let row_j: &[T] = if j == i {
                    row_i
                } else {
                    &above[(j - i0) * n..(j - i0 + 1) * n]
                };
                let mut sum = a[(i, j)];
                for (&l_ik, &l_jk) in row_i[..j].iter().zip(&row_j[..j]) {
                    sum -= l_ik * l_jk;
                }
                if i == j {
                    // `sum > 0` rather than `!(sum <= 0)`: a NaN pivot is
                    // not positive definite either.
                    if sum > T::zero() {
                        row_i[j] = sum.sqrt();
                    } else {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                } else {
                    row_i[j] = sum / row_j[j];
                }
            }
        }
    }
    Ok(())
}

/// Entries `(i0 + r, j)` for `r < R` and every column `j` of a finished
/// row, where `done` holds the finished rows and `block` the `R` rows
/// being factored (row-major, `n` wide), two columns at a time.
fn left_of_block<T: Scalar, const R: usize>(a: &Matrix<T>, done: &[T], block: &mut [T], i0: usize) {
    let n = a.rows();
    let mut rows = block.chunks_exact_mut(n);
    let mut rows: [&mut [T]; R] =
        std::array::from_fn(|_| rows.next().expect("R rows in the block"));
    let finished = done.len() / n;
    let mut j = 0;
    while j + 2 <= finished {
        columns::<T, R, 2>(a, done, &mut rows, i0, j);
        j += 2;
    }
    if j < finished {
        columns::<T, R, 1>(a, done, &mut rows, i0, j);
    }
}

/// Entries `(i0 + r, j + c)` for `r < R` and `c < C`: the `R·C` chains
/// subtract `l_ik·l_(j+c)k` for `k < j` side by side, sharing every load;
/// then column by column each chain takes its last terms `k = j..j + c`
/// (the entries just finished to its left) and its division. Every chain
/// keeps its own operands and ascending order.
#[inline(always)]
fn columns<T: Scalar, const R: usize, const C: usize>(
    a: &Matrix<T>,
    done: &[T],
    rows: &mut [&mut [T]; R],
    i0: usize,
    j: usize,
) {
    let n = a.rows();
    let l: [&[T]; C] = std::array::from_fn(|c| &done[(j + c) * n..(j + c + 1) * n]);
    let mut sums: [[T; R]; C] =
        std::array::from_fn(|c| std::array::from_fn(|r| a[(i0 + r, j + c)]));
    let heads: [&[T]; R] = std::array::from_fn(|r| &rows[r][..j]);
    let l_heads: [&[T]; C] = l.map(|row| &row[..j]);
    for k in 0..j {
        for (sums_c, l_c) in sums.iter_mut().zip(&l_heads) {
            let l_ck = l_c[k];
            for (sum, head) in sums_c.iter_mut().zip(&heads) {
                *sum -= head[k] * l_ck;
            }
        }
    }
    for (c, (sums_c, l_c)) in sums.into_iter().zip(l).enumerate() {
        for (row, mut sum) in rows.iter_mut().zip(sums_c) {
            for k in j..j + c {
                sum -= row[k] * l_c[k];
            }
            row[j + c] = sum / l_c[j + c];
        }
    }
}

/// Solve `A·X = B` given the lower-triangular Cholesky factor `l` of `A`,
/// writing `X` into a caller-owned matrix (reshaped via
/// [`Matrix::resize_zeroed`], reusing its allocation). Forward then backward
/// substitution runs **in place** on the copied right-hand side, one row at
/// a time, so the steady-state solve performs zero heap allocations below
/// the parallel threshold. [`Cholesky::solve`], [`Cholesky::solve_vec`] and
/// [`Cholesky::inverse`] run the same kernel, so all agree bit for bit.
pub fn solve_spd_into<T: Scalar>(l: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) -> Result<()> {
    let n = l.rows();
    if b.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("rhs has {} rows, expected {n}", b.rows()),
        });
    }
    out.resize_zeroed(n, b.cols());
    out.as_mut_slice().copy_from_slice(b.as_slice());
    solve_in_place(l, SPD_PASSES, out, false);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = uniform_matrix::<f64, _>(n, n, -1.0, 1.0, &mut rng);
        a.t_matmul(&a) + Matrix::identity(n).scale(0.5)
    }

    /// The one-chain-per-entry loop that `cholesky_into` interleaves: the
    /// reference its bits are pinned to.
    fn reference_cholesky(a: &Matrix<f64>) -> Result<Matrix<f64>> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum > 0.0 {
                        l[(i, j)] = sum.sqrt();
                    } else {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    fn assert_factor_matches_the_reference(a: &Matrix<f64>) {
        let mut l = Matrix::default();
        let got = cholesky_into(a, &mut l).map(|()| l);
        match (reference_cholesky(a), got) {
            (Ok(want), Ok(got)) => {
                let same = want
                    .iter()
                    .zip(got.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "n={}: factor bits differ", a.rows());
            }
            (want, got) => assert_eq!(want.err(), got.err(), "n={}", a.rows()),
        }
    }

    #[test]
    fn blocked_factor_matches_the_one_chain_loop_across_block_edges() {
        let sizes = (1..=9).chain(31..=33).chain(63..=65).chain(127..=129);
        for n in sizes {
            assert_factor_matches_the_reference(&spd(n, 500 + n as u64));
        }
    }

    #[test]
    fn blocked_factor_reports_the_one_chain_loops_pivot() {
        for n in [2, 5, 8, 9, 13] {
            // Indefinite: one diagonal entry made negative, at every
            // position of a block and past it.
            for at in 0..n {
                let mut a = spd(n, 900 + n as u64);
                a[(at, at)] = -1.0;
                assert_factor_matches_the_reference(&a);
            }
            // NaN below the diagonal and on it.
            for (i, j) in [(n - 1, 0), (n / 2, n / 2), (n - 1, n - 1)] {
                let mut a = spd(n, 950 + n as u64);
                a[(i, j)] = f64::NAN;
                assert_factor_matches_the_reference(&a);
                let mut l = Matrix::default();
                assert!(matches!(
                    cholesky_into(&a, &mut l),
                    Err(LinalgError::NotPositiveDefinite { .. })
                ));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn blocked_factor_matches_the_one_chain_loop(n in 1usize..40, seed in 0u64..10_000) {
            assert_factor_matches_the_reference(&spd(n, seed));
        }
    }

    #[test]
    fn inverse_skipping_the_zeros_matches_the_full_sweep() {
        for (n, pooled) in [(1, false), (5, false), (33, false), (70, true), (129, true)] {
            let ch = Cholesky::decompose(&spd(n, 700 + n as u64)).unwrap();
            if pooled {
                crate::set_parallel_flop_threshold(1);
                rayon::set_num_threads(4);
            }
            let skipped = ch.inverse().unwrap();
            let full = ch.solve(&Matrix::identity(n)).unwrap();
            rayon::set_num_threads(1);
            crate::set_parallel_flop_threshold(0);
            let same = skipped
                .iter()
                .zip(full.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "n={n} pooled={pooled}");
        }
    }

    #[test]
    fn reconstructs_spd_matrix() {
        for n in [1, 2, 4, 10] {
            let a = spd(n, n as u64);
            let ch = Cholesky::decompose(&a).unwrap();
            let recon = ch.l().matmul(&ch.l().transpose());
            assert!(recon.max_abs_diff(&a) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd(6, 99);
        let b = Matrix::<f64>::ones(6, 2);
        let x_chol = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::decomp::Lu::decompose(&a).unwrap().solve(&b).unwrap();
        assert!(x_chol.max_abs_diff(&x_lu) < 1e-9);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(5, 3);
        let inv = Cholesky::decompose(&a).unwrap().inverse().unwrap();
        assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::<f64>::ones(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_shape_checks() {
        let ch = Cholesky::decompose(&Matrix::<f64>::identity(3)).unwrap();
        assert!(ch.solve_vec(&[1.0]).is_err());
        assert!(ch.solve(&Matrix::<f64>::ones(2, 2)).is_err());
    }

    #[test]
    fn workspace_kernels_match_the_allocating_path_bitwise() {
        for n in [1, 2, 3, 5, 9] {
            let a = spd(n, 100 + n as u64);
            let ch = Cholesky::decompose(&a).unwrap();
            let mut l = Matrix::default();
            cholesky_into(&a, &mut l).unwrap();
            assert_eq!(&l, ch.l(), "n={n}: factors must be bit-identical");

            let b = crate::random::uniform_matrix::<f64, _>(
                n,
                3,
                -1.0,
                1.0,
                &mut SmallRng::seed_from_u64(n as u64),
            );
            let x = ch.solve(&b).unwrap();
            let mut x_ws = Matrix::default();
            solve_spd_into(&l, &b, &mut x_ws).unwrap();
            assert_eq!(x, x_ws, "n={n}: solves must be bit-identical");
            // …and per column they equal the historical solve_vec route.
            for c in 0..3 {
                let col = ch.solve_vec(&b.col(c)).unwrap();
                for r in 0..n {
                    assert_eq!(x_ws[(r, c)], col[r]);
                }
            }
        }
    }

    #[test]
    fn workspace_kernels_reuse_allocations_and_report_errors() {
        let mut l = Matrix::default();
        let mut out = Matrix::default();
        // Shrinking reuses the workspace; errors mirror the allocating path.
        for n in [6, 3, 6] {
            let a = spd(n, 7);
            cholesky_into(&a, &mut l).unwrap();
            solve_spd_into(&l, &Matrix::<f64>::ones(n, 2), &mut out).unwrap();
            assert_eq!(out.shape(), (n, 2));
        }
        assert!(matches!(
            cholesky_into(&Matrix::<f64>::ones(2, 3), &mut l),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -1.0]]);
        assert!(matches!(
            cholesky_into(&a, &mut l),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        cholesky_into(&Matrix::<f64>::identity(3), &mut l).unwrap();
        assert!(matches!(
            solve_spd_into(&l, &Matrix::<f64>::ones(2, 2), &mut out),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn gram_solve_without_regularisation_can_fail_when_rank_deficient() {
        // H has linearly dependent columns, so HᵀH is singular; δ = 0 must fail,
        // a positive δ must succeed. This is exactly why ReOS-ELM adds δI.
        let h = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let gram = |delta: f64| h.t_matmul(&h) + Matrix::identity(2).scale(delta);
        assert!(Cholesky::decompose(&gram(0.0)).is_err());
        assert!(Cholesky::decompose(&gram(0.1)).is_ok());
    }
}
