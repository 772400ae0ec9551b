//! Property-based tests for the linear algebra substrate.
//!
//! These exercise the algebraic invariants the rest of the workspace relies
//! on: matmul bilinearity, transpose identities, LU/Cholesky/QR/SVD
//! reconstruction, Moore–Penrose conditions and the σ_max ≤ ‖·‖_F relation
//! the paper's L2-for-spectral substitution argument depends on.

use elmrl_linalg::decomp::{Cholesky, Lu, Svd};
use elmrl_linalg::norms::{spectral_norm_exact, spectral_norm_power, spectral_normalize};
use elmrl_linalg::solve::{pseudo_inverse, ridge_solve};
use elmrl_linalg::Matrix;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..7, 1usize..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive((r, c) in small_dims(), seed in 0u64..1000) {
        let m = seeded_matrix(r, c, seed);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let a = seeded_matrix(4, 3, seed);
        let b = seeded_matrix(3, 5, seed.wrapping_add(1));
        let c = seeded_matrix(3, 5, seed.wrapping_add(2));
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..500) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = seeded_matrix(4, 6, seed);
        let b = seeded_matrix(6, 3, seed.wrapping_add(7));
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    #[test]
    fn workspace_kernels_are_bit_identical_to_the_generic_loops(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..200
    ) {
        // Exact equality, not a tolerance: the `*_into` kernels promise the
        // generic loops' float accumulation order, so the hot paths built on
        // them cannot drift from the reference results.
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed.wrapping_add(11));
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&generic_matmul(&a, &b), &out);
        // The prefix form reads only the first k rows of a taller rhs.
        let tall = seeded_matrix(k + 2, n, seed.wrapping_add(17));
        a.matmul_prefix_into(&tall, &mut out);
        prop_assert_eq!(&generic_matmul(&a, &tall.submatrix(0, k, 0, n).unwrap()), &out);
        // Transposed-operand workspace variants against their references.
        let c = seeded_matrix(m, k, seed.wrapping_add(23));
        a.matmul_t_into(&c, &mut out);
        prop_assert_eq!(&a.matmul_t(&c), &out);
        let d = seeded_matrix(m, n, seed.wrapping_add(37));
        a.t_matmul_into(&d, &mut out);
        prop_assert_eq!(&generic_t_matmul(&a, &d), &out);
    }

    #[test]
    fn blocked_engine_is_bit_identical_across_tile_boundaries(
        m in 1usize..19, k_off in 0usize..6, n_off in 0usize..6, seed in 0u64..100
    ) {
        // Shapes straddling every tile edge of the blocked engine: the panel
        // height (PACK_MR), the k-block depth (PACK_KC) and the column-block
        // width (PACK_NC). m sweeps panel remainders, k and n sit right on
        // (and past) the 256-element block boundaries, and the opposite
        // dimension is PACK_MR, the narrowest shape the blocked rule takes.
        // Every case runs on the sequential engine and on pooled row bands.
        use elmrl_linalg::matmul::{PACK_KC, PACK_MR, PACK_NC};
        let k = PACK_KC - 3 + k_off; // 253..=258
        let n = PACK_NC - 3 + n_off;
        let mut out = Matrix::zeros(1, 1);
        let a = special_matrix(m, k, seed);
        let b = special_matrix(k, PACK_MR, seed.wrapping_add(41));
        let c = special_matrix(m, PACK_MR, seed.wrapping_add(43));
        let d = special_matrix(PACK_MR, n, seed.wrapping_add(47));
        // Prefix form: the first k - 1 columns of a against the first k - 1
        // rows of b.
        let a_short = a.submatrix(0, m, 0, k - 1).unwrap();
        let b_short = b.submatrix(0, k - 1, 0, PACK_MR).unwrap();
        for pooled in [false, true] {
            with_gate(pooled, || a.matmul_into(&b, &mut out));
            prop_assert!(same_bits(&out, &generic_matmul(&a, &b)), "{m}x{k} pooled={pooled}");
            with_gate(pooled, || c.matmul_into(&d, &mut out));
            prop_assert!(same_bits(&out, &generic_matmul(&c, &d)), "{m}x{n} pooled={pooled}");
            with_gate(pooled, || a_short.matmul_prefix_into(&b, &mut out));
            let expected = generic_matmul(&a_short, &b_short);
            prop_assert!(same_bits(&out, &expected), "prefix {m}x{k} pooled={pooled}");
        }
    }

    #[test]
    fn auto_dispatch_is_bit_identical_to_naive(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..200
    ) {
        // Every rule of the dispatch: narrow (n ≤ 4), short inner (k ≤ 4),
        // naive (k or n below PACK_MR), blocked, and — with the gate forced
        // open — the pooled bands. Signed zeros and NaNs in the operands
        // show a changed addition order or a dropped `0 + …` start.
        let a = special_matrix(m, k, seed);
        let b = special_matrix(k, n, seed.wrapping_add(29));
        let expected = generic_matmul(&a, &b);
        let mut out = Matrix::zeros(1, 1);
        for pooled in [false, true] {
            with_gate(pooled, || a.matmul_into(&b, &mut out));
            prop_assert!(same_bits(&out, &expected), "{m}x{k}x{n} pooled={pooled}");
        }
    }

    #[test]
    fn narrow_kernels_are_bit_identical_to_the_generic_loops(
        m in 1usize..14, wide in 1usize..20, narrow in 1usize..5, seed in 0u64..300
    ) {
        // The narrow-output (n ≤ 4) branches of `matmul_into`/`t_matmul_into`
        // and the short-inner (k ≤ 4) branch of `matmul_into` against the
        // generic loops they replace.
        // m sweeps below, on and off multiples of the four-row block; the
        // operands carry signed zeros and NaNs, so a changed addition order
        // or a dropped `0 + …` start would show in the bits.
        let mut out = Matrix::zeros(1, 1);
        let a = special_matrix(m, wide, seed);
        let b = special_matrix(wide, narrow, seed.wrapping_add(5));
        a.matmul_into(&b, &mut out);
        prop_assert!(same_bits(&out, &generic_matmul(&a, &b)), "matmul {m}x{wide}x{narrow}");

        let c = special_matrix(m, narrow, seed.wrapping_add(9));
        let d = special_matrix(m, wide, seed.wrapping_add(13));
        d.t_matmul_into(&c, &mut out);
        prop_assert!(same_bits(&out, &generic_t_matmul(&d, &c)), "t_matmul {m}x{wide}x{narrow}");

        let f = special_matrix(narrow, wide, seed.wrapping_add(19));
        c.matmul_into(&f, &mut out);
        prop_assert!(same_bits(&out, &generic_matmul(&c, &f)), "matmul {m}x{narrow}x{wide}");
    }

    #[test]
    fn lu_solves_well_conditioned_systems(n in 1usize..7, seed in 0u64..200) {
        let mut a = seeded_matrix(n, n, seed);
        for i in 0..n { a[(i, i)] += 10.0; } // diagonally dominant => nonsingular
        let x_true = seeded_matrix(n, 2, seed.wrapping_add(5));
        let b = a.matmul(&x_true);
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        prop_assert!(x.max_abs_diff(&x_true) < 1e-7);
    }

    #[test]
    fn cholesky_reconstructs_gram_matrices(r in 2usize..8, c in 1usize..5, seed in 0u64..200) {
        let h = seeded_matrix(r, c, seed);
        let gram = &h.t_matmul(&h) + &Matrix::identity(c).scale(0.5);
        let ch = Cholesky::decompose(&gram).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        prop_assert!(recon.max_abs_diff(&gram) < 1e-9);
    }

    #[test]
    fn cholesky_workspace_kernels_are_bit_identical(n in 1usize..8, rhs in 1usize..5, seed in 0u64..200) {
        // Exact equality, not a tolerance: `cholesky_into`/`solve_spd_into`
        // promise the same arithmetic as `Cholesky::{decompose, solve}`, so
        // the batch-B OS-ELM recursion built on them cannot drift from the
        // allocating reference.
        use elmrl_linalg::decomp::{cholesky_into, solve_spd_into};
        let h = seeded_matrix(n + 2, n, seed);
        let gram = &h.t_matmul(&h) + &Matrix::identity(n).scale(0.5);
        let ch = Cholesky::decompose(&gram).unwrap();
        let mut l = Matrix::zeros(1, 1);
        cholesky_into(&gram, &mut l).unwrap();
        prop_assert_eq!(ch.l(), &l);
        let b = seeded_matrix(n, rhs, seed.wrapping_add(13));
        let mut x = Matrix::zeros(1, 1);
        solve_spd_into(&l, &b, &mut x).unwrap();
        prop_assert_eq!(&ch.solve(&b).unwrap(), &x);
    }

    #[test]
    fn svd_reconstructs((m, n) in small_dims(), seed in 0u64..200) {
        let a = seeded_matrix(m, n, seed);
        let svd = Svd::decompose(&a).unwrap();
        prop_assert!(svd.reconstruct().max_abs_diff(&a) < 1e-7);
        // singular values sorted descending, all non-negative
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] + 1e-12 >= w[1]);
        }
        prop_assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn pseudo_inverse_moore_penrose((m, n) in small_dims(), k in 1usize..7, seed in 0u64..200) {
        // A product of m×k and k×n factors has rank min(k, m, n), so this
        // covers rank-deficient inputs as well as full-rank ones.
        let a = seeded_matrix(m, k, seed).matmul(&seeded_matrix(k, n, seed.wrapping_add(17)));
        let p = pseudo_inverse(&a, 1e-10).unwrap();
        prop_assert!(a.matmul(&p).matmul(&a).max_abs_diff(&a) < 1e-6);
        prop_assert!(p.matmul(&a).matmul(&p).max_abs_diff(&p) < 1e-6);
        // Symmetry of A·A⁺ and A⁺·A pins the minimum-norm solution.
        let aap = a.matmul(&p);
        prop_assert!(aap.transpose().max_abs_diff(&aap) < 1e-6);
        let apa = p.matmul(&a);
        prop_assert!(apa.transpose().max_abs_diff(&apa) < 1e-6);
    }

    #[test]
    fn spectral_norm_le_frobenius((m, n) in small_dims(), seed in 0u64..200) {
        // Relation 13 of the paper: σ_max(A) ≤ ‖A‖_F
        let a = seeded_matrix(m, n, seed);
        prop_assert!(spectral_norm_exact(&a).unwrap() <= a.frobenius_norm() + 1e-9);
    }

    #[test]
    fn power_iteration_agrees_with_svd((m, n) in small_dims(), seed in 0u64..200) {
        let a = seeded_matrix(m, n, seed);
        let exact = spectral_norm_exact(&a).unwrap();
        let power = spectral_norm_power(&a, 1000, 1e-13).unwrap();
        prop_assert!((exact - power).abs() <= 1e-5 * exact.max(1.0));
    }

    #[test]
    fn spectral_normalization_caps_sigma_max((m, n) in small_dims(), seed in 0u64..200) {
        let a = seeded_matrix(m, n, seed);
        let normed = spectral_normalize(&a).unwrap();
        let sigma = spectral_norm_exact(&normed).unwrap();
        // Either the matrix was zero (σ = 0) or σ_max is 1 within tolerance.
        prop_assert!(sigma <= 1.0 + 1e-8);
    }

    #[test]
    fn ridge_regularisation_monotonically_shrinks(seed in 0u64..100) {
        let a = seeded_matrix(12, 4, seed);
        let b = seeded_matrix(12, 1, seed.wrapping_add(9));
        let norm = |m: &Matrix<f64>| m.iter().map(|&v| v * v).sum::<f64>().sqrt();
        let x_small = ridge_solve(&a, &b, 0.01).unwrap();
        let x_large = ridge_solve(&a, &b, 10.0).unwrap();
        prop_assert!(norm(&x_large) <= norm(&x_small) + 1e-9);
    }

    #[test]
    fn vstack_shapes((m, n) in small_dims(), seed in 0u64..50) {
        let a = seeded_matrix(m, n, seed);
        let v = a.vstack(&a).unwrap();
        prop_assert_eq!(v.shape(), (2 * m, n));
        prop_assert_eq!(v.submatrix(m, 2 * m, 0, n).unwrap(), a);
    }
}

/// Deterministic pseudo-random matrix built from a seed without needing a
/// full RNG in the strategy (keeps shrinking well-behaved).
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // map to [-2, 2]
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    })
}

/// [`seeded_matrix`] with about one element in five replaced by `+0.0`,
/// `-0.0` or NaN.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut m = seeded_matrix(rows, cols, seed);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in m.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match (state >> 33) % 15 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 => *v = f64::NAN,
            _ => {}
        }
    }
    m
}

/// Bit-for-bit equality, except that any NaN matches any NaN: the kernels
/// promise the same operations in the same order, but IEEE 754 leaves the
/// payload of a NaN produced from two NaN operands to the hardware.
fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// The generic `i-k-j` loop of `matmul_into`.
fn generic_matmul(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for p in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, p)] * b[(p, j)];
            }
        }
    }
    out
}

/// The generic `p-i-j` loop of `t_matmul_into`: `aᵀ · b`.
fn generic_t_matmul(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for p in 0..a.rows() {
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(p, i)] * b[(p, j)];
            }
        }
    }
    out
}

// Pins for the row-oriented triangular solves and the blocked Gram product.
// The references are the column-at-a-time substitution and the `p-i-j`
// `t_matmul` loop these kernels replaced; every case runs once on the
// sequential kernels and once with the parallel threshold forced to one on a
// four-worker pool, so the pooled bands are held to the same bits.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn triangular_solves_are_bit_identical_to_column_substitution(
        n in 1usize..41, width in 1usize..71, seed in 0u64..1000
    ) {
        use elmrl_linalg::decomp::solve_spd_into;
        // A synthetic lower factor: positive diagonal, off-diagonal entries
        // with ±0 and NaN, zero upper triangle (the kernel reads only the
        // lower triangle, as for a real Cholesky factor).
        let l = {
            let mut l = special_matrix(n, n, seed);
            for i in 0..n {
                for j in i..n {
                    l[(i, j)] = if i == j { 1.0 + l[(i, j)].abs().min(2.0) } else { 0.0 };
                }
            }
            l
        };
        let b = special_matrix(n, width, seed.wrapping_add(3));
        let expected = column_solve_spd(&l, &b);
        let spd = spd_matrix(n, seed);
        let ch = Cholesky::decompose(&spd).unwrap();
        let expected_inv = column_solve_spd(ch.l(), &Matrix::identity(n));
        let dense = seeded_matrix(n, n, seed.wrapping_add(7));
        let lu = Lu::decompose(&(&dense + &Matrix::identity(n).scale(4.0))).unwrap();
        let expected_lu = column_solve_lu(&lu, &b);
        let expected_lu_inv = column_solve_lu(&lu, &Matrix::identity(n));
        for pooled in [false, true] {
            let mut x = Matrix::zeros(1, 1);
            with_gate(pooled, || solve_spd_into(&l, &b, &mut x).unwrap());
            prop_assert!(same_bits(&x, &expected), "solve_spd_into n={n} w={width} pooled={pooled}");
            let inv = with_gate(pooled, || ch.inverse().unwrap());
            prop_assert!(same_bits(&inv, &expected_inv), "Cholesky::inverse n={n} pooled={pooled}");
            let x_lu = with_gate(pooled, || lu.solve(&b).unwrap());
            prop_assert!(same_bits(&x_lu, &expected_lu), "Lu::solve n={n} w={width} pooled={pooled}");
            let inv_lu = with_gate(pooled, || lu.inverse().unwrap());
            prop_assert!(same_bits(&inv_lu, &expected_lu_inv), "Lu::inverse n={n} pooled={pooled}");
        }
        // The one-column wrappers are the same kernels.
        let col = b.col(0);
        let x_vec = ch.solve_vec(&col).unwrap();
        let x_col = column_solve_spd(ch.l(), &Matrix::col_from_slice(&col));
        prop_assert!(same_bits(&Matrix::col_from_slice(&x_vec), &x_col));
        let x_vec = lu.solve_vec(&col).unwrap();
        let x_col = column_solve_lu(&lu, &Matrix::col_from_slice(&col));
        prop_assert!(same_bits(&Matrix::col_from_slice(&x_vec), &x_col));
    }

    #[test]
    fn gram_products_are_bit_identical_to_the_p_i_j_loop(
        k in 1usize..41, m in 1usize..71, n in 1usize..71, seed in 0u64..1000
    ) {
        let h = special_matrix(k, m, seed);
        let g = special_matrix(k, n, seed.wrapping_add(5));
        let expected_gram = generic_t_matmul(&h, &h);
        let expected = generic_t_matmul(&h, &g);
        for pooled in [false, true] {
            let mut out = Matrix::zeros(1, 1);
            with_gate(pooled, || h.t_matmul_into(&h, &mut out));
            prop_assert!(same_bits(&out, &expected_gram), "HᵀH {k}x{m} pooled={pooled}");
            with_gate(pooled, || h.t_matmul_into(&g, &mut out));
            prop_assert!(same_bits(&out, &expected), "Hᵀg {k}x{m}x{n} pooled={pooled}");
        }
    }
}

#[test]
fn large_gram_and_solve_cross_every_tile_and_band_edge() {
    // Shapes past the Gram product's output tiles and the solve's column
    // bands, on the sequential kernels and on the pool.
    use elmrl_linalg::decomp::solve_spd_into;
    for (k, m, n) in [(3, 300, 260), (70, 129, 513), (1, 65, 257)] {
        let h = special_matrix(k, m, 11 + k as u64);
        let g = special_matrix(k, n, 13 + k as u64);
        let expected = generic_t_matmul(&h, &g);
        for pooled in [false, true] {
            let mut out = Matrix::zeros(1, 1);
            with_gate(pooled, || h.t_matmul_into(&g, &mut out));
            assert!(same_bits(&out, &expected), "{k}x{m}x{n} pooled={pooled}");
        }
    }
    let spd = spd_matrix(90, 5);
    let ch = Cholesky::decompose(&spd).unwrap();
    let b = special_matrix(90, 301, 17);
    let expected = column_solve_spd(ch.l(), &b);
    for pooled in [false, true] {
        let mut x = Matrix::zeros(1, 1);
        with_gate(pooled, || solve_spd_into(ch.l(), &b, &mut x).unwrap());
        assert!(same_bits(&x, &expected), "pooled={pooled}");
    }
}

/// Run `f` on the sequential kernels (one thread, default threshold) or with
/// every product routed to a four-worker pool, restoring the defaults.
fn with_gate<R>(pooled: bool, f: impl FnOnce() -> R) -> R {
    use elmrl_linalg::set_parallel_flop_threshold;
    if pooled {
        rayon::set_num_threads(4);
        set_parallel_flop_threshold(1);
    } else {
        rayon::set_num_threads(1);
    }
    let r = f();
    rayon::set_num_threads(1);
    set_parallel_flop_threshold(0);
    r
}

/// `HᵀH + I` for a seeded `H` with more rows than columns.
fn spd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let h = seeded_matrix(n + 3, n, seed);
    &generic_t_matmul(&h, &h) + &Matrix::identity(n)
}

/// The column-at-a-time forward and back substitution that `solve_spd_into`
/// ran before it became row-oriented: `L·Lᵀ·X = B`.
fn column_solve_spd(l: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let n = l.rows();
    let mut out = b.clone();
    for c in 0..b.cols() {
        for i in 0..n {
            let mut acc = out[(i, c)];
            for j in 0..i {
                acc -= l[(i, j)] * out[(j, c)];
            }
            out[(i, c)] = acc / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = out[(i, c)];
            for j in (i + 1)..n {
                acc -= l[(j, i)] * out[(j, c)];
            }
            out[(i, c)] = acc / l[(i, i)];
        }
    }
    out
}

/// The per-column `Lu::solve_vec` loop that `Lu::solve` ran before it became
/// row-oriented: permute, unit-lower forward pass, upper back pass.
fn column_solve_lu(lu: &Lu<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let n = lu.dim();
    let (l, u, p) = (lu.l(), lu.u(), lu.p());
    let perm: Vec<usize> = (0..n)
        .map(|i| (0..n).find(|&j| p[(i, j)] == 1.0).unwrap())
        .collect();
    let mut out = Matrix::zeros(n, b.cols());
    for c in 0..b.cols() {
        let mut y: Vec<f64> = (0..n).map(|i| b[(perm[i], c)]).collect();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= l[(i, j)] * y[j];
            }
            y[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= u[(i, j)] * y[j];
            }
            y[i] = acc / u[(i, i)];
        }
        for (r, v) in y.into_iter().enumerate() {
            out[(r, c)] = v;
        }
    }
    out
}
