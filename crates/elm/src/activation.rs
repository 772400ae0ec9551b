//! Hidden-layer activation functions usable on both float and fixed point.
//!
//! The paper uses ReLU (§4.1). Because the FPGA datapath has no exponential
//! unit, every activation offered here is piecewise-linear — exactly the set
//! a fixed-point core can evaluate with compare/select logic — and each one
//! reports its Lipschitz constant for the §3.3 stability analysis.

use elmrl_linalg::{Matrix, Scalar};
use serde::{Deserialize, Serialize};

/// Piecewise-linear hidden-layer activations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HiddenActivation {
    /// `max(0, x)` — the paper's choice.
    ReLU,
    /// `max(0.01·x, x)`.
    LeakyReLU,
    /// Hard tanh: clamp to `[-1, 1]`.
    HardTanh,
    /// Hard sigmoid: `clamp(0.25·x + 0.5, 0, 1)`.
    HardSigmoid,
    /// Identity (linear ELM, used in tests and ablations).
    Identity,
}

impl HiddenActivation {
    /// Apply to one scalar.
    #[inline]
    pub fn apply<T: Scalar>(self, x: T) -> T {
        match self {
            HiddenActivation::ReLU => {
                if x >= T::zero() {
                    x
                } else {
                    T::zero()
                }
            }
            HiddenActivation::LeakyReLU => {
                if x >= T::zero() {
                    x
                } else {
                    x * T::from_f64(0.01)
                }
            }
            HiddenActivation::HardTanh => x.clamp_val(-T::one(), T::one()),
            HiddenActivation::HardSigmoid => {
                let y = x * T::from_f64(0.25) + T::from_f64(0.5);
                y.clamp_val(T::zero(), T::one())
            }
            HiddenActivation::Identity => x,
        }
    }

    /// Apply element-wise to a matrix, in place — the allocation-free form
    /// used by the workspace (`*_into`) forward passes.
    pub fn apply_matrix_inplace<T: Scalar>(self, m: &mut Matrix<T>) {
        m.map_inplace(|x| self.apply(x));
    }

    /// Lipschitz constant of the activation (≤ 1 for every variant here,
    /// which is what the §3.3 argument needs).
    pub fn lipschitz_constant(self) -> f64 {
        match self {
            HiddenActivation::ReLU
            | HiddenActivation::LeakyReLU
            | HiddenActivation::HardTanh
            | HiddenActivation::Identity => 1.0,
            HiddenActivation::HardSigmoid => 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_fixed_like_check::*;

    /// A tiny helper module so the same assertions run on f64 "as if" they
    /// were a second scalar backend (the real fixed-point cross-checks live in
    /// the elmrl-fpga tests to avoid a dependency cycle).
    mod elmrl_fixed_like_check {
        pub const ALL: [super::HiddenActivation; 5] = [
            super::HiddenActivation::ReLU,
            super::HiddenActivation::LeakyReLU,
            super::HiddenActivation::HardTanh,
            super::HiddenActivation::HardSigmoid,
            super::HiddenActivation::Identity,
        ];
    }

    #[test]
    fn relu_definition_matches_paper() {
        let a = HiddenActivation::ReLU;
        assert_eq!(a.apply(2.5_f64), 2.5);
        assert_eq!(a.apply(-2.5_f64), 0.0);
        assert_eq!(a.apply(0.0_f64), 0.0);
    }

    #[test]
    fn hard_variants_saturate() {
        assert_eq!(HiddenActivation::HardTanh.apply(5.0_f64), 1.0);
        assert_eq!(HiddenActivation::HardTanh.apply(-5.0_f64), -1.0);
        assert_eq!(HiddenActivation::HardTanh.apply(0.3_f64), 0.3);
        assert_eq!(HiddenActivation::HardSigmoid.apply(10.0_f64), 1.0);
        assert_eq!(HiddenActivation::HardSigmoid.apply(-10.0_f64), 0.0);
        assert_eq!(HiddenActivation::HardSigmoid.apply(0.0_f64), 0.5);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_slope() {
        let y = HiddenActivation::LeakyReLU.apply(-2.0_f64);
        assert!((y + 0.02).abs() < 1e-12);
        assert_eq!(HiddenActivation::LeakyReLU.apply(2.0_f64), 2.0);
    }

    #[test]
    fn lipschitz_constants_bound_empirical_slopes() {
        for act in ALL {
            let k = act.lipschitz_constant();
            let xs: Vec<f64> = (-40..40).map(|i| i as f64 * 0.1).collect();
            for w in xs.windows(2) {
                let slope = (act.apply(w[1]) - act.apply(w[0])) / (w[1] - w[0]);
                assert!(
                    slope.abs() <= k + 1e-9,
                    "{act:?}: slope {slope} exceeds {k}"
                );
            }
        }
    }

    #[test]
    fn matrix_application_is_elementwise() {
        let m = Matrix::from_rows(&[vec![-1.0, 0.5], vec![2.0, -0.25]]);
        let mut r = m.clone();
        HiddenActivation::ReLU.apply_matrix_inplace(&mut r);
        assert_eq!(r[(0, 0)], 0.0);
        assert_eq!(r[(0, 1)], 0.5);
        assert_eq!(r[(1, 0)], 2.0);
        assert_eq!(r[(1, 1)], 0.0);
        let mut i = m.clone();
        HiddenActivation::Identity.apply_matrix_inplace(&mut i);
        assert_eq!(i, m);
    }
}
