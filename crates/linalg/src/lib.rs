//! # elmrl-linalg
//!
//! Dense linear algebra substrate for the `elm-rl` workspace.
//!
//! The paper's OS-ELM core is, at its heart, a handful of small dense matrix
//! kernels: matrix-matrix and matrix-vector products, the inverse of a small
//! symmetric matrix, the largest singular value of a weight matrix (for
//! spectral normalization), and a pseudo-inverse for the batch ELM solve.
//! Rather than pulling in an external tensor library, this crate implements
//! exactly those kernels from scratch so that the same code paths can run on
//! `f32`/`f64` *and* on the Q-format fixed-point type used by the FPGA
//! datapath simulator (see `elmrl-fixed`).
//!
//! ## Layout
//!
//! * [`Scalar`] — the numeric trait every kernel is generic over.
//! * [`Matrix`] — a row-major dense matrix.
//! * [`decomp`] — LU, Cholesky, one-sided Jacobi SVD and the Householder
//!   step that [`solve::lstsq`] runs as a pivoted QR.
//! * [`solve`] — linear solves, inverses, minimum-norm least squares and the
//!   Moore–Penrose pseudo-inverse (complete orthogonal decomposition).
//! * [`norms`] — Frobenius/L2/∞ norms and power-iteration spectral norm.
//! * [`random`] — seeded random matrix initialisation used by ELM's `α`.
//! * [`matmul`] — the products, with one size dispatch behind
//!   [`Matrix::matmul_into`] and one pool decision, [`on_pool`].
//! * [`simd`] — run-time AVX2 dispatch for the hot kernels (the blocked GEMM,
//!   `t_matmul`, the triangular passes and the OS-ELM B-chunk P passes);
//!   the workspace's one audited `unsafe`, and bit-identical to the
//!   baseline build.
//!
//! ## Example
//!
//! ```
//! use elmrl_linalg::{Matrix, solve::pseudo_inverse};
//!
//! let h = Matrix::<f64>::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
//! let pinv = pseudo_inverse(&h, 1e-12).unwrap();
//! // Moore–Penrose condition: H · H⁺ · H ≈ H
//! let recon = h.matmul(&pinv).matmul(&h);
//! assert!((&recon - &h).frobenius_norm() < 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod decomp;
pub mod error;
pub mod matmul;
pub mod matrix;
pub mod norms;
pub mod random;
pub mod scalar;
pub mod simd;
pub mod solve;

pub use error::{LinalgError, Result};
pub use matmul::{on_pool, parallel_flop_threshold, set_parallel_flop_threshold};
pub use matrix::Matrix;
pub use scalar::Scalar;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let h = Matrix::<f64>::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let pinv = solve::pseudo_inverse(&h, 1e-12).unwrap();
        let recon = h.matmul(&pinv).matmul(&h);
        assert!((&recon - &h).frobenius_norm() < 1e-9);
    }
}
