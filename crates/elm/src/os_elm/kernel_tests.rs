//! Bit identity of the register-blocked P passes against the loops they
//! replaced. The references below are those loops, one output element at a
//! time: `par_ph` (`P·Hᵀ`), `par_hp_rows` (`H·P`) and `rls_downdate_rows`
//! (downdate, `P_new·Hᵀ` recompute, β row). Operands carry ±0 and NaN, the
//! sizes cross the 4-row block, the lane strips, the `H·P` depth block and
//! the 64-row tile, and every case runs inline on one thread and on a
//! 4-worker pool with the parallel threshold at 1, with the 8-lane strip
//! closed and open. The passes run through `simd::wide`, so on an AVX2 host
//! this is the AVX2 code that is held to the one-element loops.

use super::*;
use elmrl_linalg::set_parallel_flop_threshold;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises the tests that change the process-wide thread settings.
static SETTINGS: Mutex<()> = Mutex::new(());

/// Values in `[-1, 1)` from a seeded LCG, about one entry in eight each
/// replaced by `+0` and `−0`, and one entry NaN — a single NaN already
/// reaches a whole row or column of every product, so more would leave few
/// finite sums to compare.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let mut m = Matrix::from_fn(rows, cols, |_, _| {
        let r = next();
        match (r >> 33) % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
        }
    });
    let at = (next() >> 33) as usize % m.len();
    m.as_mut_slice()[at] = f64::NAN;
    m
}

/// Bit-for-bit equality, except that any NaN matches any NaN: IEEE 754
/// leaves the payload of a NaN produced from two NaN operands to the
/// hardware.
fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// `par_ph`: `ph[r][b] = Σ_c P[r][c]·H[b][c]`, ascending `c`.
fn reference_ph(p: &Matrix<f64>, h: &Matrix<f64>) -> Matrix<f64> {
    let mut ph = Matrix::zeros(p.rows(), h.rows());
    for r in 0..p.rows() {
        let p_row = p.row(r);
        for b in 0..h.rows() {
            let mut acc = 0.0;
            for (&p_rc, &h_c) in p_row.iter().zip(h.row(b)) {
                acc += p_rc * h_c;
            }
            ph[(r, b)] = acc;
        }
    }
    ph
}

/// `par_hp_rows`: `hp[b][c] = Σ_r H[b][r]·P[r][c]`, ascending `r`.
fn reference_hp(p: &Matrix<f64>, h: &Matrix<f64>) -> Matrix<f64> {
    let mut hp = Matrix::zeros(h.rows(), p.cols());
    for b in 0..h.rows() {
        let hp_row = hp.row_mut(b);
        for (r, &h_br) in h.row(b).iter().enumerate() {
            for (v, &p_rc) in hp_row.iter_mut().zip(p.row(r)) {
                *v += h_br * p_rc;
            }
        }
    }
    hp
}

/// `rls_downdate_rows` over every row: `P[r] −= ph[r]·sol`, then
/// `ph[r] ← P_new[r]·Hᵀ`, then `β[r] += ph_new[r]·resid`.
fn reference_downdate(
    p: &mut Matrix<f64>,
    ph: &mut Matrix<f64>,
    beta: &mut Matrix<f64>,
    h: &Matrix<f64>,
    sol: &Matrix<f64>,
    resid: &Matrix<f64>,
) {
    let (k, n) = h.shape();
    let mut tmp = vec![0.0; n];
    for r in 0..n {
        tmp.fill(0.0);
        for b in 0..k {
            let ph_rb = ph[(r, b)];
            for (v, &s_bc) in tmp.iter_mut().zip(sol.row(b)) {
                *v += ph_rb * s_bc;
            }
        }
        for (p_rc, &u) in p.row_mut(r).iter_mut().zip(&tmp) {
            *p_rc -= u;
        }
        for b in 0..k {
            let mut acc = 0.0;
            for (&p_rc, &h_c) in p.row(r).iter().zip(h.row(b)) {
                acc += p_rc * h_c;
            }
            ph[(r, b)] = acc;
        }
        for j in 0..resid.cols() {
            let mut acc = 0.0;
            for b in 0..k {
                acc += ph[(r, b)] * resid[(b, j)];
            }
            beta[(r, j)] += acc;
        }
    }
}

/// The blocked passes on `(P, H, sol, resid, β)` under one thread setting
/// and strip width: `(ph, hp)` after pass 1 and `(P, ph, β)` after pass 2.
type PassOutputs = (
    Matrix<f64>,
    Matrix<f64>,
    Matrix<f64>,
    Matrix<f64>,
    Matrix<f64>,
);

fn blocked_passes(
    mut p: Matrix<f64>,
    h: &Matrix<f64>,
    sol: &Matrix<f64>,
    resid: &Matrix<f64>,
    mut beta: Matrix<f64>,
    pooled: bool,
    lanes8: bool,
) -> PassOutputs {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    let (k, n) = h.shape();
    let (threads, threshold) = if pooled { (4, 1) } else { (1, 0) };
    rayon::set_num_threads(threads);
    set_parallel_flop_threshold(threshold);
    let parallel = on_pool(2 * k * n * n);
    assert_eq!(parallel, pooled);

    let (mut ht, mut ph, mut hp, mut stage) = Default::default();
    ph_hp(
        &p, h, &mut ht, &mut ph, &mut hp, &mut stage, parallel, lanes8,
    );
    let ph_pass1 = ph.clone();
    downdate(
        &mut p, &mut ph, &mut beta, &ht, sol, resid, parallel, lanes8,
    );

    rayon::set_num_threads(1);
    set_parallel_flop_threshold(0);
    (ph_pass1, hp, p, ph, beta)
}

/// Runs the blocked passes inline and pooled on special operands of the
/// given shape and compares every output with the reference loops.
fn assert_matches_the_reference(n: usize, k: usize, m: usize, seed: u64) {
    let p = special_matrix(n, n, seed);
    let h = special_matrix(k, n, seed + 1);
    let sol = special_matrix(k, n, seed + 2);
    let resid = special_matrix(k, m, seed + 3);
    let beta = special_matrix(n, m, seed + 4);

    let ph = reference_ph(&p, &h);
    let hp = reference_hp(&p, &h);
    let (mut p_ref, mut ph_ref, mut beta_ref) = (p.clone(), ph.clone(), beta.clone());
    reference_downdate(&mut p_ref, &mut ph_ref, &mut beta_ref, &h, &sol, &resid);

    for (pooled, lanes8) in [(false, false), (false, true), (true, false), (true, true)] {
        let (ph1, hp1, p2, ph2, beta2) =
            blocked_passes(p.clone(), &h, &sol, &resid, beta.clone(), pooled, lanes8);
        let case = format!("Ñ={n} B={k} m={m} seed={seed} pooled={pooled} lanes8={lanes8}");
        assert!(same_bits(&ph1, &ph), "P·Hᵀ, {case}");
        assert!(same_bits(&hp1, &hp), "H·P, {case}");
        assert!(same_bits(&p2, &p_ref), "downdate, {case}");
        assert!(same_bits(&ph2, &ph_ref), "P_new·Hᵀ, {case}");
        assert!(same_bits(&beta2, &beta_ref), "β, {case}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_passes_match_the_one_element_loops(
        n in 1usize..150,
        k in 1usize..20,
        m in 1usize..4,
        seed in 0u64..100_000,
    ) {
        assert_matches_the_reference(n, k, m, seed);
    }
}

/// Deterministic corners: Ñ on either side of the depth block and the tile
/// (31–33, 63–65, 127–129), B on either side of the 4- and 8-lane strips
/// and of two 8-lane strips.
#[test]
fn blocked_passes_match_at_block_and_tile_edges() {
    for (i, n) in [1, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129]
        .into_iter()
        .enumerate()
    {
        for k in [1, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            assert_matches_the_reference(n, k, 2, 1000 * i as u64 + k as u64);
        }
    }
}
