//! Activation functions and their derivatives.
//!
//! The paper uses ReLU throughout (`G(x) = x if x ≥ 0 else 0`, §4.1). The DQN
//! baseline and the ELM hidden layer both draw from this enum so that the
//! experiment harness can switch activations in one place.

use elmrl_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Supported element-wise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — the function used by the paper for both the DQN and the
    /// ELM/OS-ELM hidden layer.
    ReLU,
    /// Hyperbolic tangent (1-Lipschitz, mentioned in §2.5).
    Tanh,
    /// Logistic sigmoid, the classical ELM activation.
    Sigmoid,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyReLU,
    /// Identity (no non-linearity) — used for output layers.
    Identity,
}

impl Activation {
    /// Apply the activation to a single value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x >= 0.0 {
                    x
                } else {
                    0.0
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::LeakyReLU => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the *pre-activation* input `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::LeakyReLU => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// Apply element-wise in place (the layers' forward passes).
    pub fn apply_matrix_inplace(self, m: &mut Matrix<f64>) {
        m.map_inplace(|x| self.apply(x));
    }

    /// Multiply `grad` element-wise by the derivative at the matching
    /// pre-activation in `pre`, in place: the `∂L/∂y ⊙ G'(z)` step of
    /// backpropagation.
    pub fn mul_derivative_inplace(self, grad: &mut Matrix<f64>, pre: &Matrix<f64>) {
        assert_eq!(grad.shape(), pre.shape(), "derivative: shape mismatch");
        for (g, &z) in grad.as_mut_slice().iter_mut().zip(pre.iter()) {
            *g *= self.derivative(z);
        }
    }

    /// The Lipschitz constant of the activation (§2.5: ≤ 1 for ReLU and tanh).
    pub fn lipschitz_constant(self) -> f64 {
        match self {
            Activation::ReLU | Activation::Tanh | Activation::Identity | Activation::LeakyReLU => {
                1.0
            }
            Activation::Sigmoid => 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 5] = [
        Activation::ReLU,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::LeakyReLU,
        Activation::Identity,
    ];

    #[test]
    fn relu_matches_paper_definition() {
        let a = Activation::ReLU;
        assert_eq!(a.apply(3.0), 3.0);
        assert_eq!(a.apply(-3.0), 0.0);
        assert_eq!(a.apply(0.0), 0.0);
        assert_eq!(a.derivative(2.0), 1.0);
        assert_eq!(a.derivative(-2.0), 0.0);
    }

    #[test]
    fn sigmoid_and_tanh_ranges() {
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
            let t = Activation::Tanh.apply(x);
            assert!((-1.0..=1.0).contains(&t));
        }
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Tanh.apply(0.0).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            for x in [-2.3, -0.7, 0.4, 1.9] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn lipschitz_constants_bound_slopes() {
        for act in ALL {
            let k = act.lipschitz_constant();
            for x in [-3.0, -0.5, 0.0, 0.5, 3.0] {
                assert!(act.derivative(x).abs() <= k + 1e-12, "{act:?}");
            }
        }
    }

    #[test]
    fn matrix_application() {
        let m = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.5, -0.5]]);
        let mut r = m.clone();
        Activation::ReLU.apply_matrix_inplace(&mut r);
        assert_eq!(r[(0, 0)], 0.0);
        assert_eq!(r[(0, 1)], 2.0);
        let mut g = Matrix::from_rows(&[vec![3.0, 3.0], vec![3.0, 3.0]]);
        Activation::ReLU.mul_derivative_inplace(&mut g, &m);
        assert_eq!(g[(0, 0)], 0.0);
        assert_eq!(g[(0, 1)], 3.0);
        assert_eq!(g[(1, 0)], 3.0);
        assert_eq!(g[(1, 1)], 0.0);
    }
}
