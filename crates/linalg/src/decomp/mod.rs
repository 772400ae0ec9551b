//! Matrix decompositions.
//!
//! The paper's algorithms need exactly four factorisations:
//!
//! * **LU** (with partial pivoting) — general linear solves and inverses,
//!   used by OS-ELM's general batch-size-`k` update.
//! * **Cholesky** — the symmetric positive-definite solve in ELM / ReOS-ELM
//!   initial training, `P₀ = (H₀ᵀH₀ + δI)⁻¹`.
//! * **QR** (Householder) — the ELM pseudo-inverse (§2.1 names QRD next to
//!   SVD): only its Householder step is kept, and [`crate::solve::lstsq`]
//!   runs it with column pivoting as the rank-revealing least-squares solve
//!   behind `β̂ = H⁺·t`.
//! * **SVD** (one-sided Jacobi) — the largest singular value `σ_max(α)` used
//!   by spectral normalization (Algorithm 1, line 2).

pub mod cholesky;
pub mod lu;
pub(crate) mod qr;
pub mod svd;
pub(crate) mod triangular;

pub use cholesky::{cholesky_into, solve_spd_into, Cholesky};
pub use lu::Lu;
pub use svd::Svd;
