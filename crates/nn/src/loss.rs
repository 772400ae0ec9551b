//! Loss functions: mean squared error and the Huber loss.
//!
//! The paper's DQN baseline uses the Huber function (Equations 14–15):
//! quadratic inside `|x − y| < 1`, linear outside, averaged over the batch.
//! The ELM/OS-ELM approaches implicitly minimise a squared error (their
//! analytic solve), so MSE is provided for parity and for the supervised
//! examples.

use elmrl_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Loss function selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error `mean((x − y)²)`.
    Mse,
    /// Huber loss with threshold 1 (Equations 14–15 of the paper).
    Huber,
}

impl Loss {
    /// Scalar loss value for predictions `pred` against targets `target`,
    /// averaged over every element.
    pub fn value(self, pred: &Matrix<f64>, target: &Matrix<f64>) -> f64 {
        assert_eq!(pred.shape(), target.shape(), "loss: shape mismatch");
        let n = pred.len() as f64;
        let mut acc = 0.0;
        for (&p, &t) in pred.iter().zip(target.iter()) {
            let d = p - t;
            acc += match self {
                Loss::Mse => d * d,
                Loss::Huber => {
                    if d.abs() < 1.0 {
                        0.5 * d * d
                    } else {
                        d.abs() - 0.5
                    }
                }
            };
        }
        acc / n
    }

    /// Gradient of the loss with respect to `pred`, already divided by the
    /// number of elements (so the optimiser sees the mean gradient), written
    /// into `out` (reshaped in place, reusing its allocation).
    pub fn gradient_into(self, pred: &Matrix<f64>, target: &Matrix<f64>, out: &mut Matrix<f64>) {
        assert_eq!(
            pred.shape(),
            target.shape(),
            "loss gradient: shape mismatch"
        );
        let n = pred.len() as f64;
        out.resize_zeroed(pred.rows(), pred.cols());
        for ((o, &p), &t) in out
            .as_mut_slice()
            .iter_mut()
            .zip(pred.iter())
            .zip(target.iter())
        {
            let d = p - t;
            let g = match self {
                Loss::Mse => 2.0 * d,
                Loss::Huber => {
                    if d.abs() < 1.0 {
                        d
                    } else {
                        d.signum()
                    }
                }
            };
            *o = g / n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_matrices_is_zero() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(Loss::Mse.value(&a, &a), 0.0);
        assert_eq!(Loss::Huber.value(&a, &a), 0.0);
    }

    #[test]
    fn huber_is_quadratic_inside_and_linear_outside() {
        let pred = Matrix::from_rows(&[vec![0.5]]);
        let target = Matrix::from_rows(&[vec![0.0]]);
        // |d| = 0.5 < 1 → 0.5 · d²
        assert!((Loss::Huber.value(&pred, &target) - 0.125).abs() < 1e-12);
        let pred2 = Matrix::from_rows(&[vec![3.0]]);
        // |d| = 3 ≥ 1 → |d| − 0.5
        assert!((Loss::Huber.value(&pred2, &target) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn huber_gradient_is_clipped() {
        let target = Matrix::from_rows(&[vec![0.0, 0.0, 0.0]]);
        let pred = Matrix::from_rows(&[vec![0.5, 5.0, -5.0]]);
        let mut g = Matrix::default();
        Loss::Huber.gradient_into(&pred, &target, &mut g);
        // divided by n = 3
        assert!((g[(0, 0)] - 0.5 / 3.0).abs() < 1e-12);
        assert!((g[(0, 1)] - 1.0 / 3.0).abs() < 1e-12);
        assert!((g[(0, 2)] + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let target = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.2, 0.0]]);
        let pred = Matrix::from_rows(&[vec![0.5, -0.2], vec![0.4, 2.0]]);
        let h = 1e-6;
        for loss in [Loss::Mse, Loss::Huber] {
            let mut g = Matrix::default();
            loss.gradient_into(&pred, &target, &mut g);
            for r in 0..2 {
                for c in 0..2 {
                    let mut plus = pred.clone();
                    plus[(r, c)] += h;
                    let mut minus = pred.clone();
                    minus[(r, c)] -= h;
                    let numeric =
                        (loss.value(&plus, &target) - loss.value(&minus, &target)) / (2.0 * h);
                    assert!(
                        (numeric - g[(r, c)]).abs() < 1e-5,
                        "{loss:?} ({r},{c}): numeric {numeric} vs {}",
                        g[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn mse_penalises_large_errors_more_than_huber() {
        let target = Matrix::from_rows(&[vec![0.0]]);
        let pred = Matrix::from_rows(&[vec![10.0]]);
        assert!(Loss::Mse.value(&pred, &target) > Loss::Huber.value(&pred, &target));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::from_rows(&[vec![1.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let _ = Loss::Mse.value(&a, &b);
    }
}
