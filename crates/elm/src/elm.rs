//! Batch ELM training (§2.1).
//!
//! ELM solves for the output weights in one shot: `β̂ = H⁺·t` (Equation 3),
//! or the ridge-regularised variant `β̂ = (HᵀH + δI)⁻¹Hᵀt` when `δ > 0`.
//! Retraining requires the whole dataset, which is exactly the limitation
//! (noted at the end of §2.1) that motivates OS-ELM for reinforcement
//! learning.

use crate::config::OsElmConfig;
use crate::model::ElmModel;
use elmrl_linalg::solve::{lstsq, ridge_solve};
use elmrl_linalg::{LinalgError, Matrix, Scalar};
use rand::Rng;

/// A batch-trained Extreme Learning Machine.
#[derive(Clone, Debug)]
pub struct Elm<T: Scalar> {
    model: ElmModel<T>,
    l2_delta: f64,
    trained: bool,
}

impl<T: Scalar> Elm<T> {
    /// Initialise the network (random `α`, `b`; zero `β`).
    pub fn new<R: Rng + ?Sized>(config: &OsElmConfig, rng: &mut R) -> Self {
        Self {
            model: ElmModel::new(config, rng),
            l2_delta: config.l2_delta,
            trained: false,
        }
    }

    /// Wrap an existing model (e.g. to retrain a Q-network's β from scratch).
    pub fn from_model(model: ElmModel<T>, l2_delta: f64) -> Self {
        Self {
            model,
            l2_delta,
            trained: false,
        }
    }

    /// Borrow the underlying model.
    pub fn model(&self) -> &ElmModel<T> {
        &self.model
    }

    /// Whether [`Elm::train`] has been called successfully.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Capture the complete learner state into a serialisable snapshot.
    pub fn snapshot(&self) -> crate::persistence::ElmSnapshot {
        crate::persistence::ElmSnapshot {
            model: crate::persistence::ModelSnapshot::capture(&self.model),
            l2_delta: self.l2_delta,
            trained: self.trained,
        }
    }

    /// Rebuild a learner from an [`Elm::snapshot`] capture; a malformed or
    /// non-finite model snapshot is an error (see
    /// [`crate::ModelSnapshot::restore`]).
    pub fn from_snapshot(snap: &crate::persistence::ElmSnapshot) -> Result<Self, LinalgError> {
        Ok(Self {
            model: snap.model.restore()?,
            l2_delta: snap.l2_delta,
            trained: snap.trained,
        })
    }

    /// One-shot batch training on `x` (`k × n`) against targets `t` (`k × m`):
    /// `β ← H⁺·t` (δ = 0) or the ridge solution (δ > 0). A non-finite entry
    /// in `x` or `t` is an error and leaves `β` as it was.
    pub fn train(&mut self, x: &Matrix<T>, t: &Matrix<T>) -> Result<(), LinalgError> {
        if x.rows() != t.rows() {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("ELM train: {} samples vs {} targets", x.rows(), t.rows()),
            });
        }
        if t.cols() != self.model.output_dim() {
            return Err(LinalgError::ShapeMismatch {
                detail: format!(
                    "ELM train: targets have {} columns, model outputs {}",
                    t.cols(),
                    self.model.output_dim()
                ),
            });
        }
        // ReLU maps NaN to 0, so a non-finite sample would otherwise reach the
        // solve as a silent zero row of H.
        if x.iter().chain(t.iter()).any(|v| !v.to_f64().is_finite()) {
            return Err(LinalgError::InvalidData {
                detail: "ELM train: non-finite sample or target".into(),
            });
        }
        let h = self.model.hidden(x);
        // δ = 0: the minimum-norm least-squares β by a rank-revealing complete
        // orthogonal decomposition. H of a ReLU layer is often far from full
        // rank, and the pivots below 1e-10·|R₀₀| are dropped.
        let beta = if self.l2_delta > 0.0 {
            ridge_solve(&h, t, T::from_f64(self.l2_delta))?
        } else {
            lstsq(&h, t, 1e-10)?
        };
        self.model.set_beta(beta);
        self.trained = true;
        Ok(())
    }

    /// Batch prediction (delegates to the model).
    pub fn predict(&self, x: &Matrix<T>) -> Matrix<T> {
        self.model.predict(x)
    }

    /// Single-sample prediction.
    pub fn predict_single(&self, x: &[T]) -> Vec<T> {
        self.model.predict_single(x)
    }

    /// Mean squared training error on a dataset (diagnostic helper).
    pub fn mse(&self, x: &Matrix<T>, t: &Matrix<T>) -> f64 {
        let pred = self.predict(x);
        let diff = &pred - t;
        let n = diff.len() as f64;
        diff.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::HiddenActivation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A smooth 1-D regression task: y = sin(3x) on [0, 1].
    fn dataset(n: usize) -> (Matrix<f64>, Matrix<f64>) {
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / n as f64);
        let t = Matrix::from_fn(n, 1, |i, _| (3.0 * x[(i, 0)]).sin());
        (x, t)
    }

    #[test]
    fn fits_a_smooth_function() {
        let mut rng = SmallRng::seed_from_u64(1);
        // A wide init range spreads the piecewise-linear kinks of HardTanh
        // over the input interval, giving the random features enough
        // expressive power to interpolate the sine.
        let config = OsElmConfig::new(1, 40, 1)
            .with_activation(HiddenActivation::HardTanh)
            .with_init_range(-4.0, 4.0);
        let mut elm = Elm::<f64>::new(&config, &mut rng);
        let (x, t) = dataset(100);
        assert!(!elm.is_trained());
        elm.train(&x, &t).unwrap();
        assert!(elm.is_trained());
        let mse = elm.mse(&x, &t);
        assert!(mse < 1e-3, "training MSE too high: {mse}");
    }

    #[test]
    fn ridge_variant_trains_when_underdetermined() {
        // Fewer samples than hidden units: the plain minimum-norm solve still
        // works, and the ridge route must also work. The seed is
        // chosen so enough ReLU kinks fall inside the sample interval for the
        // 10×64 hidden matrix to reach full row rank — a prerequisite for the
        // interpolation assertion below.
        let mut rng = SmallRng::seed_from_u64(0);
        let (x, t) = dataset(10);
        let plain = {
            let config = OsElmConfig::new(1, 64, 1).with_init_range(-4.0, 4.0);
            let mut elm = Elm::<f64>::new(&config, &mut rng);
            elm.train(&x, &t).unwrap();
            elm.mse(&x, &t)
        };
        let ridge = {
            let config = OsElmConfig::new(1, 64, 1)
                .with_init_range(-4.0, 4.0)
                .with_l2_delta(0.1);
            let mut elm = Elm::<f64>::new(&config, &mut rng);
            elm.train(&x, &t).unwrap();
            elm.mse(&x, &t)
        };
        // Both interpolate well; ridge trades some training error for a
        // smaller β, so its fit is looser but still reasonable.
        assert!(plain < 1e-6, "plain ELM should interpolate: MSE {plain}");
        assert!(
            ridge < 5e-2,
            "ridge ELM should still fit loosely: MSE {ridge}"
        );
        assert!(
            ridge > plain,
            "regularisation should cost some training error"
        );
    }

    #[test]
    fn ridge_shrinks_beta_norm() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (x, t) = dataset(50);
        let beta_norm = |delta: f64, rng: &mut SmallRng| {
            let config = OsElmConfig::new(1, 32, 1)
                .with_init_range(-1.0, 1.0)
                .with_l2_delta(delta);
            let mut elm = Elm::<f64>::new(&config, rng);
            elm.train(&x, &t).unwrap();
            crate::spectral::beta_frobenius_f64(elm.model().beta())
        };
        let mut rng2 = SmallRng::seed_from_u64(3);
        let small = beta_norm(1e-6, &mut rng);
        let large = beta_norm(10.0, &mut rng2);
        assert!(large < small, "δ=10 should shrink ‖β‖ ({large} vs {small})");
    }

    #[test]
    fn predict_single_matches_batch() {
        let mut rng = SmallRng::seed_from_u64(4);
        let config = OsElmConfig::new(2, 16, 1).with_init_range(-1.0, 1.0);
        let mut elm = Elm::<f64>::new(&config, &mut rng);
        let x = Matrix::from_fn(30, 2, |i, j| ((i + j) % 7) as f64 / 7.0);
        let t = Matrix::from_fn(30, 1, |i, _| x[(i, 0)] + x[(i, 1)]);
        elm.train(&x, &t).unwrap();
        let single = elm.predict_single(&[0.3, 0.4]);
        let batch = elm.predict(&Matrix::from_rows(&[vec![0.3, 0.4]]));
        assert!((single[0] - batch[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn shape_errors_are_reported() {
        let mut rng = SmallRng::seed_from_u64(5);
        let config = OsElmConfig::new(2, 8, 1);
        let mut elm = Elm::<f64>::new(&config, &mut rng);
        // mismatched sample counts
        assert!(elm
            .train(&Matrix::<f64>::ones(4, 2), &Matrix::<f64>::ones(3, 1))
            .is_err());
        // wrong target width
        assert!(elm
            .train(&Matrix::<f64>::ones(4, 2), &Matrix::<f64>::ones(4, 2))
            .is_err());
    }

    #[test]
    fn non_finite_samples_are_rejected_and_leave_beta() {
        let mut rng = SmallRng::seed_from_u64(7);
        let config = OsElmConfig::new(1, 16, 1);
        let mut elm = Elm::<f64>::new(&config, &mut rng);
        let (mut x, mut t) = dataset(20);
        elm.train(&x, &t).unwrap();
        let beta = elm.model().beta().clone();
        x[(3, 0)] = f64::NAN;
        assert!(matches!(
            elm.train(&x, &t),
            Err(LinalgError::InvalidData { .. })
        ));
        x[(3, 0)] = 0.5;
        t[(4, 0)] = f64::INFINITY;
        assert!(elm.train(&x, &t).is_err());
        assert_eq!(elm.model().beta(), &beta);
    }

    #[test]
    fn from_model_preserves_random_weights() {
        let mut rng = SmallRng::seed_from_u64(6);
        let config = OsElmConfig::new(1, 8, 1);
        let base = ElmModel::<f64>::new(&config, &mut rng);
        let alpha_before = base.alpha().clone();
        let mut elm = Elm::from_model(base, 0.0);
        let (x, t) = dataset(20);
        elm.train(&x, &t).unwrap();
        assert_eq!(
            elm.model().alpha(),
            &alpha_before,
            "training must not touch α"
        );
    }
}
