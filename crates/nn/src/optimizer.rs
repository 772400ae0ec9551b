//! Gradient-descent optimisers: plain SGD and Adam.
//!
//! The paper's DQN baseline is trained with Adam at learning rate 0.01
//! (§4.1). The optimiser owns its per-parameter state (first/second moment
//! estimates), keyed by a caller-provided slot index so one optimiser
//! instance can serve every layer of a network.

use elmrl_linalg::Matrix;

/// Common interface for parameter-update rules.
pub trait Optimizer {
    /// Apply one update to `param` given its gradient. `slot` identifies the
    /// parameter tensor (layer index × {weights, bias}) so stateful
    /// optimisers can keep per-tensor moments.
    fn update(&mut self, slot: usize, param: &mut Matrix<f64>, grad: &Matrix<f64>);

    /// The configured learning rate.
    fn learning_rate(&self) -> f64;
}

/// Stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Option<Matrix<f64>>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    fn slot_velocity(&mut self, slot: usize, shape: (usize, usize)) -> &mut Matrix<f64> {
        if self.velocity.len() <= slot {
            self.velocity.resize(slot + 1, None);
        }
        self.velocity[slot].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1))
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, slot: usize, param: &mut Matrix<f64>, grad: &Matrix<f64>) {
        assert_eq!(param.shape(), grad.shape(), "sgd: shape mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in param.as_mut_slice().iter_mut().zip(grad.iter()) {
                *p -= self.lr * g;
            }
            return;
        }
        let momentum = self.momentum;
        let lr = self.lr;
        let v = self.slot_velocity(slot, param.shape());
        assert_eq!(
            v.shape(),
            param.shape(),
            "sgd: slot reused with a different shape"
        );
        for ((p, vel), &g) in param
            .as_mut_slice()
            .iter_mut()
            .zip(v.as_mut_slice().iter_mut())
            .zip(grad.iter())
        {
            *vel = momentum * *vel - lr * g;
            *p += *vel;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

/// Per-slot Adam state: (first moment, second moment, step count).
pub type MomentState = (Matrix<f64>, Matrix<f64>, u64);

/// Adam (Kingma & Ba, 2015) with the standard default moment decays.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Lazily initialised per-slot moments.
    state: Vec<Option<MomentState>>,
    /// The last bias corrections computed: `(t, 1 − β₁ᵗ, 1 − β₂ᵗ)`. Every
    /// slot of a network reaches the same `t` in one step, so the `powf`
    /// pair runs once per step instead of once per slot.
    corrections: (u64, f64, f64),
}

impl Adam {
    /// Adam with the paper's defaults: β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyper-parameters.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps,
            state: Vec::new(),
            corrections: (0, 0.0, 0.0),
        }
    }

    /// Reset all moment estimates (used when re-initialising an agent).
    pub fn reset(&mut self) {
        self.state.clear();
    }

    /// Export the per-slot moment estimates for checkpointing. Together with
    /// [`Adam::import_state`] this resumes the optimiser mid-run bit for bit
    /// (the bias-correction step count is part of each slot's state).
    pub fn export_state(&self) -> Vec<Option<MomentState>> {
        self.state.clone()
    }

    /// Restore moment estimates captured by [`Adam::export_state`].
    pub fn import_state(&mut self, state: Vec<Option<MomentState>>) {
        self.state = state;
    }

    /// Slot `slot`'s moments, created at `shape` on first use, with its
    /// step count advanced and that step's bias corrections.
    fn advance(
        &mut self,
        slot: usize,
        shape: (usize, usize),
    ) -> (&mut [f64], &mut [f64], f64, f64) {
        if self.state.len() <= slot {
            self.state.resize(slot + 1, None);
        }
        let (rows, cols) = shape;
        let entry = self.state[slot]
            .get_or_insert_with(|| (Matrix::zeros(rows, cols), Matrix::zeros(rows, cols), 0));
        assert_eq!(
            entry.0.shape(),
            shape,
            "adam: slot reused with a different shape"
        );
        entry.2 += 1;
        if self.corrections.0 != entry.2 {
            let t = entry.2 as f64;
            let bias1 = 1.0 - self.beta1.powf(t);
            let bias2 = 1.0 - self.beta2.powf(t);
            self.corrections = (entry.2, bias1, bias2);
        }
        let (_, bias1, bias2) = self.corrections;
        (entry.0.as_mut_slice(), entry.1.as_mut_slice(), bias1, bias2)
    }
}

impl Optimizer for Adam {
    /// Always inlined, so that its element loop runs under a caller's
    /// [`elmrl_linalg::simd::wide`] dispatch; the loop is a zip without
    /// bounds checks, so its divisions and square roots vectorise.
    #[inline(always)]
    fn update(&mut self, slot: usize, param: &mut Matrix<f64>, grad: &Matrix<f64>) {
        assert_eq!(param.shape(), grad.shape(), "adam: shape mismatch");
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (one_minus_b1, one_minus_b2) = (1.0 - beta1, 1.0 - beta2);
        let (m, v, bias1, bias2) = self.advance(slot, param.shape());
        let params = param.as_mut_slice().iter_mut().zip(grad.as_slice());
        for ((p, &g), (m, v)) in params.zip(m.iter_mut().zip(v.iter_mut())) {
            *m = beta1 * *m + one_minus_b1 * g;
            *v = beta2 * *v + one_minus_b2 * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)² starting from 0 and check convergence.
    fn minimise_quadratic<O: Optimizer>(opt: &mut O, steps: usize) -> f64 {
        let mut x = Matrix::zeros(1, 1);
        for _ in 0..steps {
            let grad = Matrix::from_rows(&[vec![2.0 * (x[(0, 0)] - 3.0)]]);
            opt.update(0, &mut x, &grad);
        }
        x[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimise_quadratic(&mut Sgd::new(0.1), 200);
        assert!((x - 3.0).abs() < 1e-6, "got {x}");
    }

    #[test]
    fn sgd_with_momentum_converges_faster_than_plain() {
        let plain = minimise_quadratic(&mut Sgd::new(0.01), 100);
        let momentum = minimise_quadratic(&mut Sgd::with_momentum(0.01, 0.9), 100);
        assert!((momentum - 3.0).abs() < (plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimise_quadratic(&mut Adam::new(0.1), 500);
        assert!((x - 3.0).abs() < 1e-3, "got {x}");
    }

    #[test]
    fn adam_handles_sparse_like_gradients() {
        // A dimension with rare gradients should still move thanks to the
        // second-moment normalisation.
        let mut opt = Adam::new(0.05);
        let mut x = Matrix::zeros(1, 2);
        for step in 0..400 {
            let g0 = 2.0 * (x[(0, 0)] - 1.0);
            let g1 = if step % 10 == 0 {
                2.0 * (x[(0, 1)] - 1.0)
            } else {
                0.0
            };
            let grad = Matrix::from_rows(&[vec![g0, g1]]);
            opt.update(0, &mut x, &grad);
        }
        assert!((x[(0, 0)] - 1.0).abs() < 1e-2);
        assert!((x[(0, 1)] - 1.0).abs() < 0.2);
    }

    #[test]
    fn separate_slots_have_independent_state() {
        let mut opt = Adam::new(0.1);
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(2, 2);
        let ga = Matrix::from_rows(&[vec![1.0]]);
        let gb = Matrix::<f64>::ones(2, 2);
        opt.update(0, &mut a, &ga);
        opt.update(1, &mut b, &gb);
        // both moved in the negative gradient direction
        assert!(a[(0, 0)] < 0.0);
        assert!(b[(1, 1)] < 0.0);
        opt.reset();
        assert!(opt.state.is_empty());
    }

    #[test]
    fn learning_rate_accessors() {
        assert_eq!(Sgd::new(0.5).learning_rate(), 0.5);
        assert_eq!(Adam::new(0.01).learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_gradient_shape_panics() {
        let mut opt = Sgd::new(0.1);
        let mut p = Matrix::<f64>::zeros(2, 2);
        let g = Matrix::<f64>::zeros(1, 1);
        opt.update(0, &mut p, &g);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn invalid_momentum_rejected() {
        let _ = Sgd::with_momentum(0.1, 1.5);
    }
}
