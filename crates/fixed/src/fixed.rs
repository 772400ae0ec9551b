//! The [`Fixed`] Q-format fixed-point type.
//!
//! `Fixed<FRAC>` stores a real number as a signed 32-bit integer with `FRAC`
//! fractional bits (two's complement, so the representable range is
//! `[-2^(31-FRAC), 2^(31-FRAC) - 2^-FRAC]`). All arithmetic **saturates** on
//! overflow instead of wrapping: the HDL core the paper describes clamps its
//! accumulators, and saturation is also the behaviour that keeps Q-learning
//! targets meaningful after the paper's `[-1, 1]` clipping.
//!
//! Multiplication and division go through 64-bit intermediates, exactly as a
//! DSP48-based multiplier followed by a shift would behave.

use elmrl_linalg::Scalar;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A signed 32-bit fixed-point number with `FRAC` fractional bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Fixed<const FRAC: u32> {
    raw: i32,
}

/// 32-bit Q8 (8 fractional bits) — coarse, used only in the precision ablation.
pub type Q8 = Fixed<8>;
/// 32-bit Q16 (16 fractional bits) — precision-ablation point.
pub type Q16 = Fixed<16>;
/// 32-bit Q20 (20 fractional bits) — the format the paper's FPGA core uses.
pub type Q20 = Fixed<20>;
/// 32-bit Q24 (24 fractional bits) — precision-ablation point.
pub type Q24 = Fixed<24>;

impl<const FRAC: u32> Fixed<FRAC> {
    /// Scale factor `2^FRAC` as `f64`.
    pub const SCALE: f64 = (1u64 << FRAC) as f64;
    /// Smallest representable increment (one least-significant bit).
    pub const RESOLUTION: f64 = 1.0 / Self::SCALE;

    /// The maximum representable value.
    pub const MAX: Self = Self { raw: i32::MAX };
    /// The minimum representable value.
    pub const MIN: Self = Self { raw: i32::MIN };
    /// Zero.
    pub const ZERO: Self = Self { raw: 0 };
    /// One.
    pub const ONE: Self = Self { raw: 1i32 << FRAC };

    /// Construct from a raw two's-complement bit pattern.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Self { raw }
    }

    /// The raw two's-complement bit pattern.
    #[inline]
    pub const fn to_raw(self) -> i32 {
        self.raw
    }

    /// Convert from `f64`, rounding to nearest and saturating out-of-range
    /// values (including NaN, which maps to zero — hardware has no NaN).
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Self::ZERO;
        }
        let scaled = (v * Self::SCALE).round();
        if scaled >= i32::MAX as f64 {
            Self::MAX
        } else if scaled <= i32::MIN as f64 {
            Self::MIN
        } else {
            Self { raw: scaled as i32 }
        }
    }

    /// Convert to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / Self::SCALE
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_add(rhs.raw),
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.saturating_sub(rhs.raw),
        }
    }

    /// Saturating multiplication (64-bit intermediate, arithmetic shift).
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        let wide = (self.raw as i64) * (rhs.raw as i64);
        let shifted = wide >> FRAC;
        Self {
            raw: clamp_i64(shifted),
        }
    }

    /// Saturating division (64-bit intermediate). Division by zero saturates
    /// to `MAX`/`MIN` depending on the sign of the dividend (zero / zero → 0),
    /// mirroring a guarded hardware divider rather than panicking.
    #[inline]
    pub fn saturating_div(self, rhs: Self) -> Self {
        if rhs.raw == 0 {
            return if self.raw > 0 {
                Self::MAX
            } else if self.raw < 0 {
                Self::MIN
            } else {
                Self::ZERO
            };
        }
        let wide = ((self.raw as i64) << FRAC) / (rhs.raw as i64);
        Self {
            raw: clamp_i64(wide),
        }
    }

    /// Absolute value (saturating: `|MIN|` becomes `MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        if self.raw == i32::MIN {
            Self::MAX
        } else {
            Self {
                raw: self.raw.abs(),
            }
        }
    }

    /// Non-negative integer-Newton square root; returns zero for negative
    /// inputs (matching the [`Scalar`] contract).
    pub fn sqrt(self) -> Self {
        if self.raw <= 0 {
            return Self::ZERO;
        }
        // Work on the wide value v = raw << FRAC so that sqrt(v) is the raw
        // representation of the square root.
        let v = (self.raw as i64) << FRAC;
        let mut x = v;
        let mut last = 0i64;
        // Newton iterations on integers converge in well under 64 steps.
        for _ in 0..64 {
            if x == last || x == 0 {
                break;
            }
            last = x;
            x = (x + v / x) >> 1;
        }
        Self { raw: clamp_i64(x) }
    }

    /// `true` when the value equals the saturation bound (useful for
    /// diagnosing overflow in the FPGA simulator).
    #[inline]
    pub fn is_saturated(self) -> bool {
        self.raw == i32::MAX || self.raw == i32::MIN
    }

    /// Number of fractional bits in this format.
    #[inline]
    pub const fn frac_bits() -> u32 {
        FRAC
    }

    /// Number of integer (non-sign) bits in this format.
    #[inline]
    pub const fn int_bits() -> u32 {
        31 - FRAC
    }

    /// Largest finite value representable, as `f64`.
    pub fn max_value_f64() -> f64 {
        Self::MAX.to_f64()
    }

    /// Round-trip quantisation of an `f64` through this format.
    pub fn quantize(v: f64) -> f64 {
        Self::from_f64(v).to_f64()
    }
}

#[inline]
fn clamp_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

impl<const FRAC: u32> Add for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const FRAC: u32> Sub for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const FRAC: u32> Mul for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const FRAC: u32> Div for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl<const FRAC: u32> Neg for Fixed<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            raw: self.raw.checked_neg().unwrap_or(i32::MAX),
        }
    }
}

impl<const FRAC: u32> AddAssign for Fixed<FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const FRAC: u32> SubAssign for Fixed<FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const FRAC: u32> MulAssign for Fixed<FRAC> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const FRAC: u32> DivAssign for Fixed<FRAC> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const FRAC: u32> fmt::Debug for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}({})", FRAC, self.to_f64())
    }
}

impl<const FRAC: u32> fmt::Display for Fixed<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<const FRAC: u32> Default for Fixed<FRAC> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const FRAC: u32> From<f64> for Fixed<FRAC> {
    fn from(v: f64) -> Self {
        Self::from_f64(v)
    }
}

impl<const FRAC: u32> From<Fixed<FRAC>> for f64 {
    fn from(v: Fixed<FRAC>) -> f64 {
        v.to_f64()
    }
}

impl<const FRAC: u32> Scalar for Fixed<FRAC> {
    #[inline]
    fn zero() -> Self {
        Self::ZERO
    }
    #[inline]
    fn one() -> Self {
        Self::ONE
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        Fixed::from_f64(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Fixed::to_f64(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Fixed::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Fixed::sqrt(self)
    }
    #[inline]
    fn epsilon() -> Self {
        // A handful of LSBs: pivot/convergence threshold for decompositions.
        Self::from_raw(4)
    }
    #[inline]
    fn is_nan(self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q20_resolution_and_range() {
        assert_eq!(Q20::frac_bits(), 20);
        assert_eq!(Q20::int_bits(), 11);
        assert!((Q20::RESOLUTION - 1.0 / 1048576.0).abs() < 1e-15);
        // max ≈ 2047.99...; the paper's Q-values live well inside this.
        assert!(Q20::max_value_f64() > 2047.0 && Q20::max_value_f64() < 2048.0);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_lsb() {
        for &v in &[0.0, 1.0, -1.0, 0.333333, -123.456, 2000.0, -2000.0] {
            let q = Q20::from_f64(v);
            assert!((q.to_f64() - v).abs() <= Q20::RESOLUTION, "v = {v}");
        }
    }

    #[test]
    fn out_of_range_saturates() {
        assert_eq!(Q20::from_f64(1e9), Q20::MAX);
        assert_eq!(Q20::from_f64(-1e9), Q20::MIN);
        assert_eq!(Q20::from_f64(f64::NAN), Q20::ZERO);
        assert!(Q20::from_f64(1e9).is_saturated());
        assert!(!Q20::from_f64(1.0).is_saturated());
    }

    #[test]
    fn basic_arithmetic() {
        let a = Q20::from_f64(1.5);
        let b = Q20::from_f64(-0.25);
        assert!(((a + b).to_f64() - 1.25).abs() < 1e-5);
        assert!(((a - b).to_f64() - 1.75).abs() < 1e-5);
        assert!(((a * b).to_f64() + 0.375).abs() < 1e-5);
        assert!(((a / b).to_f64() + 6.0).abs() < 1e-4);
        assert!(((-a).to_f64() + 1.5).abs() < 1e-6);
        assert_eq!(a.abs(), a);
        assert_eq!(b.abs().to_f64(), 0.25);
    }

    #[test]
    fn assign_operators() {
        let mut x = Q20::from_f64(2.0);
        x += Q20::from_f64(1.0);
        assert!((x.to_f64() - 3.0).abs() < 1e-5);
        x -= Q20::from_f64(0.5);
        assert!((x.to_f64() - 2.5).abs() < 1e-5);
        x *= Q20::from_f64(2.0);
        assert!((x.to_f64() - 5.0).abs() < 1e-5);
        x /= Q20::from_f64(4.0);
        assert!((x.to_f64() - 1.25).abs() < 1e-5);
    }

    #[test]
    fn overflow_saturates_instead_of_wrapping() {
        let big = Q20::from_f64(2000.0);
        assert_eq!(big + big, Q20::MAX);
        assert_eq!(-big - big, Q20::MIN);
        assert_eq!(big * big, Q20::MAX);
        assert_eq!((-big) * big, Q20::MIN);
    }

    #[test]
    fn division_by_zero_saturates() {
        let one = Q20::ONE;
        assert_eq!(one / Q20::ZERO, Q20::MAX);
        assert_eq!((-one) / Q20::ZERO, Q20::MIN);
        assert_eq!(Q20::ZERO / Q20::ZERO, Q20::ZERO);
    }

    #[test]
    fn sqrt_matches_float_within_resolution() {
        for &v in &[0.25, 1.0, 2.0, 100.0, 1500.0, 1e-4] {
            let got = Q20::from_f64(v).sqrt().to_f64();
            assert!(
                (got - v.sqrt()).abs() < 1e-3,
                "sqrt({v}) = {got}, expected {}",
                v.sqrt()
            );
        }
        assert_eq!(Q20::from_f64(-4.0).sqrt(), Q20::ZERO);
        assert_eq!(Q20::ZERO.sqrt(), Q20::ZERO);
    }

    #[test]
    fn scalar_trait_contract() {
        assert_eq!(<Q20 as Scalar>::zero(), Q20::ZERO);
        assert_eq!(<Q20 as Scalar>::one(), Q20::ONE);
        assert!(!<Q20 as Scalar>::is_nan(Q20::ONE));
        let recip = Scalar::recip(Q20::from_f64(4.0));
        assert!((recip.to_f64() - 0.25).abs() < 1e-5);
        let clamped = Q20::from_f64(5.0).clamp_val(Q20::from_f64(-1.0), Q20::ONE);
        assert_eq!(clamped, Q20::ONE);
    }

    #[test]
    fn different_formats_have_different_resolution() {
        let resolutions = [
            Q8::RESOLUTION,
            Q16::RESOLUTION,
            Q20::RESOLUTION,
            Q24::RESOLUTION,
        ];
        assert!(resolutions.windows(2).all(|w| w[0] > w[1]));
        // Coarser format, larger range:
        assert!(Q8::max_value_f64() > Q20::max_value_f64());
        assert!(Q20::max_value_f64() > Q24::max_value_f64());
    }

    #[test]
    fn matrix_of_fixed_works_through_linalg() {
        use elmrl_linalg::Matrix;
        let a = Matrix::<Q20>::from_rows(&[
            vec![Q20::from_f64(2.0), Q20::from_f64(0.0)],
            vec![Q20::from_f64(0.0), Q20::from_f64(0.5)],
        ]);
        let b = a.matmul(&a);
        assert!((b[(0, 0)].to_f64() - 4.0).abs() < 1e-4);
        assert!((b[(1, 1)].to_f64() - 0.25).abs() < 1e-4);
        let inv = elmrl_linalg::solve::inverse(&a).unwrap();
        assert!((inv[(0, 0)].to_f64() - 0.5).abs() < 1e-4);
        assert!((inv[(1, 1)].to_f64() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn ordering_and_default() {
        assert!(Q20::from_f64(1.0) > Q20::from_f64(0.5));
        assert!(Q20::from_f64(-1.0) < Q20::ZERO);
        assert_eq!(Q20::default(), Q20::ZERO);
        let via_from: Q20 = 1.5f64.into();
        let back: f64 = via_from.into();
        assert!((back - 1.5).abs() < 1e-5);
    }

    #[test]
    fn raw_round_trip() {
        let x = Q20::from_raw(123456);
        assert_eq!(x.to_raw(), 123456);
        assert_eq!(Q20::from_raw(x.to_raw()), x);
    }

    #[test]
    fn quantize_helper() {
        let q = Q20::quantize(0.1234567891);
        assert!((q - 0.1234567891).abs() <= Q20::RESOLUTION);
    }

    #[test]
    fn neg_of_min_saturates() {
        assert_eq!(-Q20::MIN, Q20::MAX);
        assert_eq!(Q20::MIN.abs(), Q20::MAX);
    }
}
