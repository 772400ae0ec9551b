//! Seeded random matrix initialisation.
//!
//! ELM's input weight matrix `α` and hidden bias `b` are drawn once at
//! initialisation and never trained (Algorithm 1, line 1: "using a random
//! value R ∈ [0, 1]"). Keeping all randomness behind explicit `Rng` arguments
//! makes every experiment in the harness reproducible from a single seed.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rand::Rng;

/// A matrix with elements drawn uniformly from `[lo, hi)`.
pub fn uniform_matrix<T: Scalar, R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.gen_range(lo..hi)))
}

/// Xavier/Glorot uniform initialisation for a `fan_in × fan_out` layer:
/// uniform in `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`.
/// Used by the DQN baseline's dense layers.
pub fn xavier_uniform<T: Scalar, R: Rng + ?Sized>(
    fan_in: usize,
    fan_out: usize,
    rng: &mut R,
) -> Matrix<T> {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform_matrix(fan_in, fan_out, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = uniform_matrix::<f64, _>(20, 20, 0.0, 1.0, &mut rng);
        assert!(m.iter().all(|&x| (0.0..1.0).contains(&x)));
        let n = uniform_matrix::<f64, _>(1, 100, -2.0, -1.0, &mut rng);
        assert!(n.iter().all(|&x| (-2.0..-1.0).contains(&x)));
    }

    #[test]
    fn same_seed_same_matrix() {
        let a = uniform_matrix::<f64, _>(5, 5, 0.0, 1.0, &mut SmallRng::seed_from_u64(9));
        let b = uniform_matrix::<f64, _>(5, 5, 0.0, 1.0, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = uniform_matrix::<f64, _>(5, 5, 0.0, 1.0, &mut SmallRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_limit_scales_with_fan() {
        let mut rng = SmallRng::seed_from_u64(3);
        let small_fan = xavier_uniform::<f64, _>(4, 4, &mut rng);
        let large_fan = xavier_uniform::<f64, _>(400, 400, &mut rng);
        assert!(small_fan.max_abs() <= (6.0 / 8.0_f64).sqrt() + 1e-12);
        assert!(large_fan.max_abs() <= (6.0 / 800.0_f64).sqrt() + 1e-12);
        assert!(small_fan.max_abs() > large_fan.max_abs());
    }

    #[test]
    fn works_for_f32_elements() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = uniform_matrix::<f32, _>(3, 3, 0.0, 1.0, &mut rng);
        assert_eq!(m.shape(), (3, 3));
        assert!(m.iter().all(|&x| (0.0..1.0).contains(&x)));
    }
}
