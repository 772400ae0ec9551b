//! Configuration shared by the ELM, OS-ELM and ReOS-ELM learners.

use crate::activation::HiddenActivation;
use serde::{Deserialize, Serialize};

/// Configuration of a single-hidden-layer ELM/OS-ELM network.
///
/// In the paper's notation: `n` = [`input_dim`](Self::input_dim),
/// `Ñ` = [`hidden_dim`](Self::hidden_dim), `m` = [`output_dim`](Self::output_dim);
/// `δ` = [`l2_delta`](Self::l2_delta) (Equation 8);
/// [`spectral_normalize_alpha`](Self::spectral_normalize_alpha) enables the
/// Algorithm 1 lines 2–3 normalisation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OsElmConfig {
    /// Number of input-layer nodes (`n`).
    pub input_dim: usize,
    /// Number of hidden-layer nodes (`Ñ`).
    pub hidden_dim: usize,
    /// Number of output-layer nodes (`m`).
    pub output_dim: usize,
    /// Hidden-layer activation `G`.
    pub activation: HiddenActivation,
    /// L2 regularisation strength `δ` of the initial training (0 = plain
    /// OS-ELM, > 0 = ReOS-ELM).
    pub l2_delta: f64,
    /// When true, `δ` is interpreted *relative to the feature scale*: the
    /// initial training multiplies it by the mean squared element of `H₀`.
    /// This keeps a given `δ` meaning "the same fraction of the signal
    /// energy" whether or not spectral normalization has shrunk the hidden
    /// activations (without it, δ = 0.5 next to features of magnitude ~0.1
    /// is a ~100× stronger penalty than the same δ next to features of
    /// magnitude ~1).
    pub relative_l2: bool,
    /// Whether to spectrally normalise the random input weights `α` so that
    /// `σ_max(α) ≤ 1`.
    pub spectral_normalize_alpha: bool,
    /// Range from which `α` and the hidden bias are drawn (the paper uses
    /// `R ∈ [0, 1]`, Algorithm 1 line 1).
    pub init_low: f64,
    /// Upper end of the initialisation range.
    pub init_high: f64,
}

impl OsElmConfig {
    /// Config with the paper's defaults: ReLU, no regularisation, no
    /// normalisation, `α, b ∈ [0, 1]`.
    pub fn new(input_dim: usize, hidden_dim: usize, output_dim: usize) -> Self {
        assert!(
            input_dim > 0 && hidden_dim > 0 && output_dim > 0,
            "dimensions must be positive"
        );
        Self {
            input_dim,
            hidden_dim,
            output_dim,
            activation: HiddenActivation::ReLU,
            l2_delta: 0.0,
            relative_l2: false,
            spectral_normalize_alpha: false,
            init_low: 0.0,
            init_high: 1.0,
        }
    }

    /// Set the hidden activation.
    pub fn with_activation(mut self, activation: HiddenActivation) -> Self {
        self.activation = activation;
        self
    }

    /// Set the ReOS-ELM regularisation parameter `δ`.
    pub fn with_l2_delta(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0, "δ must be non-negative");
        self.l2_delta = delta;
        self
    }

    /// Interpret `δ` relative to the feature scale (see the field docs).
    pub fn with_relative_l2(mut self, relative: bool) -> Self {
        self.relative_l2 = relative;
        self
    }

    /// Enable or disable spectral normalization of `α`.
    pub fn with_spectral_normalization(mut self, enabled: bool) -> Self {
        self.spectral_normalize_alpha = enabled;
        self
    }

    /// Set the uniform initialisation range for `α` and the hidden bias.
    pub fn with_init_range(mut self, low: f64, high: f64) -> Self {
        assert!(low < high, "init range must be non-empty");
        self.init_low = low;
        self.init_high = high;
        self
    }

    /// Number of stored parameters (α, bias, β) — the quantity that drives
    /// the FPGA BRAM requirement in Table 3.
    pub fn parameter_count(&self) -> usize {
        self.input_dim * self.hidden_dim + self.hidden_dim + self.hidden_dim * self.output_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OsElmConfig::new(5, 64, 1);
        assert_eq!(c.activation, HiddenActivation::ReLU);
        assert_eq!(c.l2_delta, 0.0);
        assert!(!c.spectral_normalize_alpha);
        assert_eq!((c.init_low, c.init_high), (0.0, 1.0));
    }

    #[test]
    fn builder_methods_apply() {
        let c = OsElmConfig::new(4, 32, 2)
            .with_activation(HiddenActivation::HardTanh)
            .with_l2_delta(0.5)
            .with_spectral_normalization(true)
            .with_init_range(-1.0, 1.0);
        assert_eq!(c.activation, HiddenActivation::HardTanh);
        assert_eq!(c.l2_delta, 0.5);
        assert!(c.spectral_normalize_alpha);
        assert_eq!((c.init_low, c.init_high), (-1.0, 1.0));
    }

    #[test]
    fn parameter_counts() {
        let c = OsElmConfig::new(5, 64, 1);
        assert_eq!(c.parameter_count(), 5 * 64 + 64 + 64);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = OsElmConfig::new(0, 10, 1);
    }

    #[test]
    #[should_panic(expected = "δ must be non-negative")]
    fn negative_delta_rejected() {
        let _ = OsElmConfig::new(1, 1, 1).with_l2_delta(-1.0);
    }

    #[test]
    #[should_panic(expected = "init range must be non-empty")]
    fn empty_init_range_rejected() {
        let _ = OsElmConfig::new(1, 1, 1).with_init_range(1.0, 1.0);
    }
}
