//! Model persistence: snapshot an [`ElmModel`] into a serialisable form.
//!
//! On-device learning systems need to checkpoint the learned `β` (and the
//! frozen `α`, `b`) so a deployed model survives power cycles; the paper's
//! platform does this over the CPU side of the PYNQ. The snapshot stores all
//! parameters as `f64`, independent of the scalar backend in use, so an FPGA
//! fixed-point model and its float twin serialise identically up to
//! quantisation.

use crate::activation::HiddenActivation;
use crate::config::OsElmConfig;
use crate::model::ElmModel;
use elmrl_linalg::{LinalgError, Matrix, Scalar};
use serde::{Deserialize, Serialize};

/// A backend-independent serialisable snapshot of an ELM/OS-ELM model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Input dimensionality `n`.
    pub input_dim: usize,
    /// Hidden dimensionality `Ñ`.
    pub hidden_dim: usize,
    /// Output dimensionality `m`.
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: HiddenActivation,
    /// `α` in row-major order (`n·Ñ` values).
    pub alpha: Vec<f64>,
    /// Hidden bias (`Ñ` values).
    pub bias: Vec<f64>,
    /// `β` in row-major order (`Ñ·m` values).
    pub beta: Vec<f64>,
}

impl ModelSnapshot {
    /// Capture a snapshot of a model.
    pub fn capture<T: Scalar>(model: &ElmModel<T>) -> Self {
        let to_f64 = |m: &Matrix<T>| m.iter().map(|&v| v.to_f64()).collect::<Vec<f64>>();
        Self {
            input_dim: model.input_dim(),
            hidden_dim: model.hidden_dim(),
            output_dim: model.output_dim(),
            activation: model.activation(),
            alpha: to_f64(model.alpha()),
            bias: to_f64(model.bias()),
            beta: to_f64(model.beta()),
        }
    }

    /// Rebuild a model (in any scalar backend) from the snapshot. A
    /// parameter whose length disagrees with the recorded dimensions, or a
    /// non-finite one (the JSON reader parses `1e999` to +∞), is an
    /// [`LinalgError::InvalidData`] error.
    pub fn restore<T: Scalar>(&self) -> Result<ElmModel<T>, LinalgError> {
        let params = self.alpha.iter().chain(&self.bias).chain(&self.beta);
        check_finite("α, b, β", params)?;
        let from_f64 = |data: &[f64], rows: usize, cols: usize| {
            Matrix::from_vec(rows, cols, data.iter().map(|&v| T::from_f64(v)).collect())
        };
        Ok(ElmModel::from_parts(
            from_f64(&self.alpha, self.input_dim, self.hidden_dim)?,
            from_f64(&self.bias, 1, self.hidden_dim)?,
            from_f64(&self.beta, self.hidden_dim, self.output_dim)?,
            self.activation,
        ))
    }

    /// Check that the recorded dimensions are those of models built from
    /// `config`, so a snapshot from another configuration is refused.
    pub fn check_dims(&self, config: &OsElmConfig) -> Result<(), String> {
        let recorded = (self.input_dim, self.hidden_dim, self.output_dim);
        let expected = (config.input_dim, config.hidden_dim, config.output_dim);
        if recorded == expected {
            Ok(())
        } else {
            Err(format!(
                "snapshot model is (input, hidden, output) = {recorded:?}, \
                 the configuration builds {expected:?}"
            ))
        }
    }

    /// Serialise to a JSON string.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialise from a JSON string.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

/// Largest magnitude a restored word may hold. A cube of the bound, times
/// `Ñ²·|x|²`, stays finite through `h·P·hᵀ`: with `α` and `b` bounded, each
/// hidden activation is at most `(n·|x| + 1)·10⁶⁰` for `n` inputs, so the
/// `Ñ²` terms of `h·P·hᵀ` stay far below f64's `1.8·10³⁰⁸` and the first RLS
/// update after a restore cannot overflow. A finite but huge word — a
/// mantissa digit edited into `e`, `0.2613028314187e223` — would turn that
/// update, and every Q read after it, into NaN.
const MAX_RESTORED_MAGNITUDE: f64 = 1e60;

/// [`LinalgError::InvalidData`] when any of `values` is not finite or lies
/// above [`MAX_RESTORED_MAGNITUDE`] in magnitude.
pub(crate) fn check_finite<'a>(
    what: &str,
    mut values: impl Iterator<Item = &'a f64>,
) -> Result<(), LinalgError> {
    if values.all(|v| v.abs() <= MAX_RESTORED_MAGNITUDE) {
        return Ok(());
    }
    Err(LinalgError::InvalidData {
        detail: format!(
            "snapshot {what} holds a non-finite value or one above {MAX_RESTORED_MAGNITUDE:e} \
             in magnitude"
        ),
    })
}

/// A serialisable snapshot of a complete [`crate::OsElm`] learner: the model
/// parameters plus the recursive-update state (`P`, call counters, δ). All
/// values are stored as `f64` — exact for the `f64` backend, and exact up to
/// the backend's own quantisation elsewhere — so for `OsElm<f64>`
/// `OsElm::from_snapshot(&os.snapshot())` resumes the RLS recursion
/// bit for bit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OsElmSnapshot {
    /// The model parameters (`α`, `b`, `β`, activation, dimensions).
    pub model: ModelSnapshot,
    /// `P` in row-major order (`Ñ·Ñ` values); `None` before initial training.
    pub p: Option<Vec<f64>>,
    /// ReOS-ELM regularisation strength `δ`.
    pub l2_delta: f64,
    /// Whether `δ` scales with the mean squared hidden activation.
    pub relative_l2: bool,
    /// How many times `init_train` has run.
    pub init_train_count: usize,
    /// How many sequential updates have run.
    pub seq_train_count: usize,
}

/// A serialisable snapshot of a batch-trained [`crate::Elm`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ElmSnapshot {
    /// The model parameters.
    pub model: ModelSnapshot,
    /// Ridge regularisation strength used by `train`.
    pub l2_delta: f64,
    /// Whether `train` has run at least once.
    pub trained: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OsElmConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_model() -> ElmModel<f64> {
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = OsElmConfig::new(3, 8, 2).with_init_range(-1.0, 1.0);
        let mut m = ElmModel::<f64>::new(&cfg, &mut rng);
        m.set_beta(Matrix::from_fn(8, 2, |i, j| (i as f64 - j as f64) * 0.1));
        m
    }

    #[test]
    fn capture_restore_round_trip_preserves_predictions() {
        let model = sample_model();
        let snap = ModelSnapshot::capture(&model);
        assert_eq!(snap.input_dim, 3);
        assert_eq!(snap.hidden_dim, 8);
        assert_eq!(snap.output_dim, 2);
        assert_eq!(snap.alpha.len(), 24);
        let restored: ElmModel<f64> = snap.restore().unwrap();
        let x = Matrix::from_rows(&[vec![0.2, -0.4, 0.9]]);
        assert!(model.predict(&x).max_abs_diff(&restored.predict(&x)) < 1e-15);
    }

    #[test]
    fn json_round_trip() {
        let model = sample_model();
        let snap = ModelSnapshot::capture(&model);
        let json = snap.to_json().unwrap();
        assert!(json.contains("\"hidden_dim\":8"));
        let back = ModelSnapshot::from_json(&json).unwrap();
        // The serde_json shim writes shortest-round-trip floats and parses
        // them correctly rounded, so the round trip is bit-exact — the
        // property the checkpoint/resume determinism contract rests on.
        assert_eq!(snap, back);
    }

    #[test]
    fn restore_into_f32_backend() {
        let model = sample_model();
        let snap = ModelSnapshot::capture(&model);
        let restored: ElmModel<f32> = snap.restore().unwrap();
        let x64 = Matrix::from_rows(&[vec![0.1, 0.5, -0.3]]);
        let x32 = Matrix::from_rows(&[vec![0.1_f32, 0.5, -0.3]]);
        let y64 = model.predict(&x64);
        let y32 = restored.predict(&x32);
        for c in 0..2 {
            assert!((y64[(0, c)] - y32[(0, c)] as f64).abs() < 1e-4);
        }
    }

    #[test]
    fn malformed_or_mismatched_snapshots_are_errors() {
        let snap = ModelSnapshot::capture(&sample_model());
        let cfg = OsElmConfig::new(3, 8, 2);
        assert!(snap.check_dims(&cfg).is_ok());
        assert!(snap.check_dims(&OsElmConfig::new(3, 9, 2)).is_err());
        assert!(snap.check_dims(&OsElmConfig::new(4, 8, 2)).is_err());
        let cuts: [fn(&mut ModelSnapshot); 5] = [
            |s| s.alpha.truncate(s.alpha.len() - 1),
            |s| s.bias.truncate(s.bias.len() - 1),
            |s| s.beta.push(0.0),
            |s| s.hidden_dim = 9,
            // n·Ñ overflows usize; it must not wrap onto an empty α.
            |s| {
                s.input_dim = 1 << (usize::BITS - 3);
                s.alpha.clear();
            },
        ];
        for cut in cuts {
            let mut bad = snap.clone();
            cut(&mut bad);
            assert!(bad.restore::<f64>().is_err());
        }
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(ModelSnapshot::from_json("{not json").is_err());
    }
}
