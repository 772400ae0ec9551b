//! LU decomposition with partial (row) pivoting.
//!
//! `P·A = L·U` where `L` is unit lower-triangular, `U` upper-triangular and
//! `P` a row permutation. Solving, inversion and determinants are derived from
//! the factorisation. This is the general-purpose solver behind
//! [`crate::solve::solve`] and [`crate::solve::inverse`].
//!
//! Solves permute the right-hand side's rows once, then run the unit-lower
//! forward pass and the upper back pass **row by row** (the shared kernel
//! in `triangular.rs`): row `i` subtracts `lu_ij · row_j` for ascending `j`
//! (then divides by `u_ii` in the back pass). Per element that is exactly
//! the ascending-`j` subtraction chain of the one-column-at-a-time loop, so
//! the result is bit-identical to it, without a column copy and a solution
//! vector per right-hand-side column.

use super::triangular::{solve_in_place, Triangle};
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// `L·y = P·b` (unit diagonal), then `U·x = y`, both read from the packed
/// factors.
const LU_PASSES: [Triangle; 2] = [Triangle::UnitLower, Triangle::Upper];

/// The result of an LU factorisation with partial pivoting.
#[derive(Clone, Debug)]
pub struct Lu<T: Scalar> {
    /// Packed LU factors: the strict lower triangle holds `L` (unit diagonal
    /// implied), the upper triangle including the diagonal holds `U`.
    lu: Matrix<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl<T: Scalar> Lu<T> {
    /// Factorise a square matrix. Returns [`LinalgError::Singular`] when a
    /// pivot falls below `T::epsilon()`.
    pub fn decompose(a: &Matrix<T>) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: pick the row with the largest |pivot|.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= T::epsilon() {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let sub = factor * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A·x = b` for a single right-hand side given as a slice — the
    /// one-column case of [`Lu::solve`].
    pub fn solve_vec(&self, b: &[T]) -> Result<Vec<T>> {
        self.solve(&Matrix::col_from_slice(b))
            .map(|x| x.as_slice().to_vec())
    }

    /// Solve `A·X = B` for a matrix right-hand side: permute the rows of `B`
    /// once, then substitute `L` and `U` in place, row by row.
    pub fn solve(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("rhs has {} rows, expected {n}", b.rows()),
            });
        }
        let mut x = b.gather_rows(&self.perm);
        solve_in_place(&self.lu, LU_PASSES, &mut x, false);
        Ok(x)
    }

    /// Inverse of the factorised matrix: `P` (the permuted identity), solved
    /// in place.
    pub fn inverse(&self) -> Result<Matrix<T>> {
        let mut x = self.p();
        solve_in_place(&self.lu, LU_PASSES, &mut x, false);
        Ok(x)
    }

    /// Reconstruct `L` (unit lower triangular).
    pub fn l(&self) -> Matrix<T> {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                T::one()
            } else if i > j {
                self.lu[(i, j)]
            } else {
                T::zero()
            }
        })
    }

    /// Reconstruct `U` (upper triangular).
    pub fn u(&self) -> Matrix<T> {
        let n = self.dim();
        Matrix::from_fn(
            n,
            n,
            |i, j| if i <= j { self.lu[(i, j)] } else { T::zero() },
        )
    }

    /// Reconstruct the permutation matrix `P` such that `P·A = L·U`.
    pub fn p(&self) -> Matrix<T> {
        let n = self.dim();
        let mut p = Matrix::zeros(n, n);
        for (i, &src) in self.perm.iter().enumerate() {
            p[(i, src)] = T::one();
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn factorisation_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ]);
        let lu = Lu::decompose(&a).unwrap();
        let pa = lu.p().matmul(&a);
        let lu_prod = lu.l().matmul(&lu.u());
        assert!(pa.max_abs_diff(&lu_prod) < 1e-12);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let lu = Lu::decompose(&a).unwrap();
        let x = lu.solve_vec(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = SmallRng::seed_from_u64(11);
        for n in [1, 2, 5, 16] {
            let a = uniform_matrix::<f64, _>(n, n, -1.0, 1.0, &mut rng)
                + Matrix::identity(n).scale(2.0);
            let inv = Lu::decompose(&a).unwrap().inverse().unwrap();
            let prod = a.matmul(&inv);
            assert!(
                prod.max_abs_diff(&Matrix::identity(n)) < 1e-8,
                "n={n}: A*A^-1 deviates from I"
            );
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(Lu::decompose(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::ones(2, 3);
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_shape_checks() {
        let a = Matrix::<f64>::identity(3);
        let lu = Lu::decompose(&a).unwrap();
        assert!(lu.solve_vec(&[1.0, 2.0]).is_err());
        assert!(lu.solve(&Matrix::<f64>::ones(2, 2)).is_err());
    }

    #[test]
    fn matrix_rhs_solution() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let lu = Lu::decompose(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn f32_solve_works_with_looser_tolerance() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a =
            uniform_matrix::<f32, _>(8, 8, -1.0, 1.0, &mut rng) + Matrix::identity(8).scale(4.0);
        let inv = Lu::decompose(&a).unwrap().inverse().unwrap();
        assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(8)) < 1e-3);
    }
}
