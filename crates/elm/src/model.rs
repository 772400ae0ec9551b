//! The single-hidden-layer network structure shared by ELM and OS-ELM.
//!
//! In the paper's notation (Figure 1 and Equation 1):
//! `y = G(x·α + b)·β` with `α ∈ R^{n×Ñ}`, `b ∈ R^{Ñ}`, `β ∈ R^{Ñ×m}`.
//! `α` and `b` are random and never trained; only `β` is learned.

use crate::activation::HiddenActivation;
use crate::config::OsElmConfig;
use crate::spectral;
use elmrl_linalg::random::uniform_matrix;
use elmrl_linalg::{Matrix, Scalar};
use rand::Rng;

/// The parameters of a single-hidden-layer ELM network.
#[derive(Clone, Debug)]
pub struct ElmModel<T: Scalar> {
    /// Input weight matrix `α` (`n × Ñ`), random and fixed after init.
    alpha: Matrix<T>,
    /// Hidden bias `b` stored as a `1 × Ñ` row.
    bias: Matrix<T>,
    /// Output weight matrix `β` (`Ñ × m`), the only trained parameter.
    beta: Matrix<T>,
    /// Hidden activation `G`.
    activation: HiddenActivation,
    /// σ_max(α) measured after any normalisation, kept for Lipschitz reports.
    alpha_sigma_max: f64,
}

impl<T: Scalar> ElmModel<T> {
    /// Initialise a model per Algorithm 1 line 1: `α`, `b` uniform in the
    /// configured range, `β = 0`, and (lines 2–3) spectrally normalise `α`
    /// when the config requests it.
    pub fn new<R: Rng + ?Sized>(config: &OsElmConfig, rng: &mut R) -> Self {
        let mut alpha: Matrix<T> = uniform_matrix(
            config.input_dim,
            config.hidden_dim,
            config.init_low,
            config.init_high,
            rng,
        );
        let mut bias: Matrix<T> =
            uniform_matrix(1, config.hidden_dim, config.init_low, config.init_high, rng);
        if config.spectral_normalize_alpha {
            // Normalise the augmented [α; b] so the ReLU activation pattern is
            // preserved while the input layer's Lipschitz factor is capped at 1
            // (see `spectral::normalize_alpha_bias`).
            let (na, nb) = spectral::normalize_alpha_bias(&alpha, &bias);
            alpha = na;
            bias = nb;
        }
        let alpha_sigma_max = spectral::sigma_max_f64(&alpha);
        Self {
            alpha,
            bias,
            beta: Matrix::zeros(config.hidden_dim, config.output_dim),
            activation: config.activation,
            alpha_sigma_max,
        }
    }

    /// Build a model from explicit parameter matrices (used by the FPGA
    /// simulator to mirror a float-trained model into fixed point).
    pub fn from_parts(
        alpha: Matrix<T>,
        bias: Matrix<T>,
        beta: Matrix<T>,
        activation: HiddenActivation,
    ) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a 1×Ñ row vector");
        assert_eq!(alpha.cols(), bias.cols(), "α and bias disagree on Ñ");
        assert_eq!(alpha.cols(), beta.rows(), "α and β disagree on Ñ");
        let alpha_sigma_max = spectral::sigma_max_f64(&alpha);
        Self {
            alpha,
            bias,
            beta,
            activation,
            alpha_sigma_max,
        }
    }

    /// Number of input nodes `n`.
    pub fn input_dim(&self) -> usize {
        self.alpha.rows()
    }

    /// Number of hidden nodes `Ñ`.
    pub fn hidden_dim(&self) -> usize {
        self.alpha.cols()
    }

    /// Number of output nodes `m`.
    pub fn output_dim(&self) -> usize {
        self.beta.cols()
    }

    /// The hidden activation.
    pub fn activation(&self) -> HiddenActivation {
        self.activation
    }

    /// Borrow `α`.
    pub fn alpha(&self) -> &Matrix<T> {
        &self.alpha
    }

    /// Borrow the hidden bias (1×Ñ).
    pub fn bias(&self) -> &Matrix<T> {
        &self.bias
    }

    /// Borrow `β`.
    pub fn beta(&self) -> &Matrix<T> {
        &self.beta
    }

    /// Mutably borrow `β` (the training algorithms update it in place).
    pub fn beta_mut(&mut self) -> &mut Matrix<T> {
        &mut self.beta
    }

    /// Replace `β` entirely.
    pub fn set_beta(&mut self, beta: Matrix<T>) {
        assert_eq!(beta.shape(), self.beta.shape(), "set_beta: shape mismatch");
        self.beta = beta;
    }

    /// σ_max(α) as measured at construction (after normalisation, if any).
    pub fn alpha_sigma_max(&self) -> f64 {
        self.alpha_sigma_max
    }

    /// Hidden-layer matrix `H = G(x·α + b)` for a batch `x` (`k × n`).
    pub fn hidden(&self, x: &Matrix<T>) -> Matrix<T> {
        let mut h = Matrix::zeros(x.rows(), self.hidden_dim());
        self.hidden_into(x, &mut h);
        h
    }

    /// [`ElmModel::hidden`] into a caller-owned matrix (reshaped via
    /// [`Matrix::resize_zeroed`], reusing its allocation) — the form every
    /// hot path uses, from the single-sample step to the Ñ = 1024 `H₀`.
    /// The input product goes through the size dispatch of
    /// [`Matrix::matmul_into`]. Bit-for-bit identical to `hidden`.
    pub fn hidden_into(&self, x: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "hidden: input has {} features, expected {}",
            x.cols(),
            self.input_dim()
        );
        {
            let _span = elmrl_telemetry::hist!("elm.matmul_hidden").span();
            x.matmul_into(&self.alpha, out);
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (c, v) in row.iter_mut().enumerate() {
                    *v += self.bias[(0, c)];
                }
            }
        }
        let _span = elmrl_telemetry::hist!("elm.activation").span();
        self.activation.apply_matrix_inplace(out);
    }

    /// Batch prediction `y = H·β` (`k × m`).
    pub fn predict(&self, x: &Matrix<T>) -> Matrix<T> {
        self.hidden(x).matmul(&self.beta)
    }

    /// Single-sample prediction from a slice.
    pub fn predict_single(&self, x: &[T]) -> Vec<T> {
        let out = self.predict(&Matrix::row_from_slice(x));
        out.row(0).to_vec()
    }

    /// Copy every parameter from another model of identical shape. This is
    /// the Q-learning target-network synchronisation `θ₂ ← θ₁`
    /// (Algorithm 1 line 24).
    pub fn copy_parameters_from(&mut self, other: &ElmModel<T>) {
        assert_eq!(
            self.alpha.shape(),
            other.alpha.shape(),
            "copy: α shape mismatch"
        );
        assert_eq!(
            self.beta.shape(),
            other.beta.shape(),
            "copy: β shape mismatch"
        );
        self.alpha = other.alpha.clone();
        self.bias = other.bias.clone();
        self.beta = other.beta.clone();
        self.activation = other.activation;
        self.alpha_sigma_max = other.alpha_sigma_max;
    }

    /// Convert the model to a different scalar backend via `f64` (e.g. float
    /// → Q20 for the FPGA core).
    pub fn cast<U: Scalar>(&self) -> ElmModel<U> {
        ElmModel {
            alpha: self.alpha.cast(),
            bias: self.bias.cast(),
            beta: self.beta.cast(),
            activation: self.activation,
            alpha_sigma_max: self.alpha_sigma_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config() -> OsElmConfig {
        OsElmConfig::new(3, 16, 2)
    }

    #[test]
    fn dimensions_follow_config() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = ElmModel::<f64>::new(&config(), &mut rng);
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.hidden_dim(), 16);
        assert_eq!(m.output_dim(), 2);
        assert_eq!(m.alpha().shape(), (3, 16));
        assert_eq!(m.bias().shape(), (1, 16));
        assert_eq!(m.beta().shape(), (16, 2));
        assert_eq!(m.activation(), HiddenActivation::ReLU);
    }

    #[test]
    fn alpha_in_unit_range_without_normalization() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = ElmModel::<f64>::new(&config(), &mut rng);
        assert!(m.alpha().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert!(m.bias().iter().all(|&v| (0.0..1.0).contains(&v)));
        assert!(
            m.alpha_sigma_max() > 1.0,
            "raw [0,1] α should have σ_max > 1 here"
        );
    }

    #[test]
    fn spectral_normalization_caps_sigma_max() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = config().with_spectral_normalization(true);
        let m = ElmModel::<f64>::new(&cfg, &mut rng);
        // α alone has σ_max ≤ 1; the augmented [α; b] is normalised to exactly 1.
        assert!(m.alpha_sigma_max() <= 1.0 + 1e-9);
        let augmented = m.alpha().vstack(m.bias()).unwrap();
        let sigma_aug = crate::spectral::sigma_max_f64(&augmented);
        assert!(
            (sigma_aug - 1.0).abs() < 1e-9,
            "σ_max([α; b]) = {sigma_aug}"
        );
        // bias is scaled by the same factor, so it is no longer in [0, 1)·1
        assert!(m.bias().iter().all(|&b| b.abs() <= 1.0));
    }

    #[test]
    fn zero_beta_predicts_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = ElmModel::<f64>::new(&config(), &mut rng);
        let x = Matrix::<f64>::ones(5, 3);
        let y = m.predict(&x);
        assert_eq!(y.shape(), (5, 2));
        assert!(y.iter().all(|&v| v == 0.0));
        assert_eq!(m.predict_single(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn hidden_layer_applies_activation() {
        // With Identity activation and known parameters, H = x·α + b exactly.
        let alpha = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let bias = Matrix::from_rows(&[vec![0.5, -0.5]]);
        let beta = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let m = ElmModel::from_parts(alpha, bias, beta, HiddenActivation::Identity);
        let h = m.hidden(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        assert_eq!(h[(0, 0)], 1.5);
        assert_eq!(h[(0, 1)], 1.5);
        let y = m.predict(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        assert_eq!(y[(0, 0)], 3.0);

        // ReLU clips the negative pre-activation.
        let m_relu = ElmModel::from_parts(
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
            Matrix::from_rows(&[vec![-10.0, 0.0]]),
            Matrix::from_rows(&[vec![1.0], vec![1.0]]),
            HiddenActivation::ReLU,
        );
        let y = m_relu.predict(&Matrix::from_rows(&[vec![1.0, 2.0]]));
        assert_eq!(y[(0, 0)], 2.0);
    }

    #[test]
    fn copy_parameters_synchronises_models() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = ElmModel::<f64>::new(&config(), &mut rng);
        let mut b = ElmModel::<f64>::new(&config(), &mut rng);
        let x = Matrix::<f64>::ones(1, 3);
        b.copy_parameters_from(&a);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.alpha(), b.alpha());
    }

    #[test]
    fn cast_to_f32_and_back_is_close() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut m = ElmModel::<f64>::new(&config(), &mut rng);
        // give β some non-zero content
        m.set_beta(Matrix::from_fn(16, 2, |i, j| (i + j) as f64 * 0.01));
        let m32: ElmModel<f32> = m.cast();
        let x64 = Matrix::<f64>::ones(1, 3);
        let x32 = Matrix::<f32>::ones(1, 3);
        let y64 = m.predict(&x64);
        let y32 = m32.predict(&x32);
        for c in 0..2 {
            assert!((y64[(0, c)] - y32[(0, c)] as f64).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "input has 2 features, expected 3")]
    fn wrong_input_width_panics() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = ElmModel::<f64>::new(&config(), &mut rng);
        let _ = m.predict(&Matrix::<f64>::ones(1, 2));
    }

    #[test]
    #[should_panic(expected = "α and β disagree")]
    fn from_parts_validates_shapes() {
        let _ = ElmModel::from_parts(
            Matrix::<f64>::ones(2, 3),
            Matrix::<f64>::ones(1, 3),
            Matrix::<f64>::ones(4, 1),
            HiddenActivation::ReLU,
        );
    }
}
