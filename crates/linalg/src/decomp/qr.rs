//! The Householder step of a QR decomposition.
//!
//! The paper lists QRD next to SVD as the decompositions an ELM batch solve
//! would need on-device (§2.1). [`crate::solve::lstsq`] runs this step with
//! column pivoting as a rank-revealing complete orthogonal decomposition and
//! never forms `Q` — that is the batch ELM solve.

use crate::scalar::Scalar;

/// One Householder step on a column segment `x`: overwrites `x` with the
/// reflector vector `v` and returns `(α, τ)` such that
/// `(I − τ·v·vᵀ)·x = α·e₁` for the original `x`, with `|α| = ‖x‖₂`. The sign
/// of `α` is opposite to `x₀`, so forming `v₀ = x₀ − α` never cancels. A zero
/// `x` returns `τ = 0`: the reflector is the identity.
pub(crate) fn householder<T: Scalar>(x: &mut [T]) -> (T, T) {
    let norm = x.iter().fold(T::zero(), |acc, &v| acc + v * v).sqrt();
    if norm <= T::zero() {
        return (T::zero(), T::zero());
    }
    let head = x[0];
    let alpha = if head >= T::zero() { -norm } else { norm };
    x[0] = head - alpha;
    // vᵀv = 2‖x‖(‖x‖ + |x₀|), so τ = 2/vᵀv needs no second pass over v.
    (alpha, T::one() / (norm * (norm + head.abs())))
}

/// Apply the reflector `I − τ·v·vᵀ` from [`householder`] to `y` in place.
pub(crate) fn reflect<T: Scalar>(v: &[T], tau: T, y: &mut [T]) {
    let dot = v
        .iter()
        .zip(y.iter())
        .fold(T::zero(), |acc, (&vi, &yi)| acc + vi * yi);
    let s = tau * dot;
    for (yi, &vi) in y.iter_mut().zip(v) {
        *yi -= s * vi;
    }
}
