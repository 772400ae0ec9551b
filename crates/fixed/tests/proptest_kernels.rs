//! Property-based pins of the raw-`i32` integer kernels against the generic
//! `Matrix<Q20>` arithmetic: same raws in, same raws out, **bit for bit** —
//! including operands at and near the `Q20::MAX`/`Q20::MIN` saturation
//! bounds and the `denom` reciprocal of the RLS update (saturating divide,
//! division by zero included).

use elmrl_fixed::kernels::{
    bias_relu_q_into, matmul_q_into, q_add, q_div, q_mul, q_one, q_sub, seq_train_q_into,
    RlsScratch, RlsStats,
};
use elmrl_fixed::Q20;
use elmrl_linalg::Matrix;
use proptest::prelude::*;

/// Raw words biased towards the saturation bounds so mid-sum clipping
/// actually happens: exact `MAX`/`MIN`, near-bound values, moderate
/// magnitudes (|v| < 16.0, the trained core's regime) and fully arbitrary
/// words, mixed per element.
fn raw_any() -> impl Strategy<Value = i32> {
    (0u8..8, i32::MIN..i32::MAX, 0i32..1024).prop_map(|(sel, wide, near)| match sel {
        0 => i32::MAX,
        1 => i32::MIN,
        2 => i32::MAX - near,
        3 => i32::MIN + near,
        4 | 5 => wide % (16 << 20),
        _ => wide,
    })
}

fn to_matrix(rows: usize, cols: usize, raw: &[i32]) -> Matrix<Q20> {
    Matrix::from_fn(rows, cols, |i, j| Q20::from_raw(raw[i * cols + j]))
}

fn raws_of(m: &Matrix<Q20>) -> Vec<i32> {
    m.as_slice().iter().map(|q| q.to_raw()).collect()
}

/// One batch-size-1 RLS update on the generic `Matrix<Q20>` arithmetic: the
/// FPGA core's original `Matrix<Q20>` `seq_train` body (after the hidden
/// stage), verbatim.
fn reference_update(
    h_raw: &[i32],
    target_raw: &[i32],
    p_ref: &mut Matrix<Q20>,
    beta_ref: &mut Matrix<Q20>,
) {
    let (nh, m) = beta_ref.shape();
    let h = to_matrix(1, nh, h_raw);
    let target: Vec<Q20> = target_raw.iter().map(|&r| Q20::from_raw(r)).collect();
    let ph = p_ref.matmul_t(&h);
    let hp = h.matmul(p_ref);
    let mut denom = Q20::ONE;
    for i in 0..nh {
        denom += h[(0, i)] * ph[(i, 0)];
    }
    let inv_denom = Q20::ONE / denom;
    for r in 0..nh {
        let scale = ph[(r, 0)] * inv_denom;
        for c in 0..nh {
            let sub = scale * hp[(0, c)];
            p_ref[(r, c)] -= sub;
        }
    }
    let pred = h.matmul(beta_ref);
    let ph_new = p_ref.matmul_t(&h);
    for r in 0..nh {
        for c in 0..m {
            let add = ph_new[(r, 0)] * (target[c] - pred[(0, c)]);
            beta_ref[(r, c)] += add;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scalar_ops_match_fixed_semantics(a in raw_any(), b in raw_any()) {
        let (fa, fb) = (Q20::from_raw(a), Q20::from_raw(b));
        prop_assert_eq!(q_mul::<20>(a, b), fa.saturating_mul(fb).to_raw());
        prop_assert_eq!(q_add(a, b), fa.saturating_add(fb).to_raw());
        prop_assert_eq!(q_sub(a, b), fa.saturating_sub(fb).to_raw());
        prop_assert_eq!(q_div::<20>(a, b), fa.saturating_div(fb).to_raw());
    }

    #[test]
    fn reciprocal_edge_cases_match(b in raw_any()) {
        // The RLS `denom` reciprocal: 1/denom for every denominator class —
        // the sampled one plus the guarded-divider edge cases each round.
        let one = q_one::<20>();
        for denom in [b, 0, 1, -1, i32::MAX, i32::MIN, one] {
            prop_assert_eq!(
                q_div::<20>(one, denom),
                Q20::ONE.saturating_div(Q20::from_raw(denom)).to_raw()
            );
        }
    }

    #[test]
    fn matmul_kernels_match_generic_matrix_product(
        (m, k, n) in (1usize..6, 1usize..9, 1usize..6),
        a_raw in collection::vec(raw_any(), m * k),
        b_raw in collection::vec(raw_any(), k * n),
    ) {
        let a = to_matrix(m, k, &a_raw);
        let b = to_matrix(k, n, &b_raw);
        let expected = raws_of(&a.matmul(&b));

        let mut out = vec![0i32; m * n];
        matmul_q_into::<20>(m, k, n, &a_raw, &b_raw, &mut out);
        prop_assert_eq!(&out, &expected);
    }

    #[test]
    fn matmul_q_matches_generic_product_at_the_core_shapes(
        rows in 1usize..18, // stacked inputs of one batched predict
        x_raw in collection::vec(raw_any(), rows * 5),
        alpha_raw in collection::vec(raw_any(), 5 * 64),
        beta_raw in collection::vec(raw_any(), 64),
    ) {
        // The FPGA core's two products at the paper's CartPole shape: the
        // hidden projection x·α (rows × 5 × 64) and the output h·β
        // (rows × 64 × 1), each against the generic `Matrix<Q20>` product.
        let mut h = vec![0i32; rows * 64];
        matmul_q_into::<20>(rows, 5, 64, &x_raw, &alpha_raw, &mut h);
        let expected = to_matrix(rows, 5, &x_raw).matmul(&to_matrix(5, 64, &alpha_raw));
        prop_assert_eq!(&h, &raws_of(&expected));
        let mut y = vec![0i32; rows];
        matmul_q_into::<20>(rows, 64, 1, &h, &beta_raw, &mut y);
        let expected = to_matrix(rows, 64, &h).matmul(&to_matrix(64, 1, &beta_raw));
        prop_assert_eq!(&y, &raws_of(&expected));
    }

    #[test]
    fn bias_relu_matches_generic_epilogue(
        (rows, n) in (1usize..5, 1usize..9),
        bias_raw in collection::vec(raw_any(), n),
        data_raw in collection::vec(raw_any(), rows * n),
    ) {
        // Generic path: pre += bias; pre < 0 → 0 (the FpgaCore hidden stage).
        let bias = to_matrix(1, n, &bias_raw);
        let mut pre = to_matrix(rows, n, &data_raw);
        for r in 0..rows {
            for c in 0..n {
                pre[(r, c)] += bias[(0, c)];
                if pre[(r, c)] < Q20::ZERO {
                    pre[(r, c)] = Q20::ZERO;
                }
            }
        }

        let mut data = data_raw.clone();
        bias_relu_q_into(rows, n, &bias_raw, &mut data);
        prop_assert_eq!(data, raws_of(&pre));
    }

    #[test]
    fn fused_rls_update_matches_generic_reference(
        (nh, m) in (1usize..20, 1usize..3),
        h1_sampled in collection::vec(raw_any(), nh),
        h2_sampled in collection::vec(raw_any(), nh),
        (relu_mask1, relu_mask2) in (0u32..65_536, 0u32..65_536),
        p_raw in collection::vec(raw_any(), nh * nh),
        beta_raw in collection::vec(raw_any(), nh * m),
        target_raw in collection::vec(raw_any(), m),
    ) {
        // ReLU output is non-negative with genuine zeros — mask some lanes to
        // zero and fold the rest positive, as the hidden stage would produce.
        let relu = |sampled: Vec<i32>, mask: u32| -> Vec<i32> {
            let mut h = sampled;
            for (i, v) in h.iter_mut().enumerate() {
                if mask & (1 << (i % 16)) != 0 {
                    *v = 0;
                } else if *v == i32::MIN {
                    *v = i32::MAX;
                } else if *v < 0 {
                    *v = -*v;
                }
            }
            h
        };
        let h1_raw = relu(h1_sampled, relu_mask1);
        let h2_raw = relu(h2_sampled, relu_mask2);

        let mut p_ref = to_matrix(nh, nh, &p_raw);
        let mut beta_ref = to_matrix(nh, m, &beta_raw);

        // --- Fused integer kernel on the same raws: two successive updates
        // through one scratch. The first derives the saturation-freedom
        // bound by exact scan; the second consumes the incrementally
        // maintained bound — so both the saturation-free fast loops and the
        // exact saturating loops get exercised against the reference.
        let mut p = p_raw.clone();
        let mut beta = beta_raw.clone();
        let mut ws = RlsScratch::new();
        for h_raw in [&h1_raw, &h2_raw] {
            reference_update(h_raw, &target_raw, &mut p_ref, &mut beta_ref);
            seq_train_q_into::<20>(nh, m, h_raw, &target_raw, &mut p, &mut beta, &mut ws);

            prop_assert_eq!(&p, &raws_of(&p_ref));
            prop_assert_eq!(&beta, &raws_of(&beta_ref));
            // ws.ph holds the post-update P·hᵀ — check it as well.
            let ph_ref = raws_of(&p_ref.matmul_t(&to_matrix(1, nh, h_raw)));
            prop_assert_eq!(&ws.ph, &ph_ref);
        }
    }
}

/// Raw words with |v| < 4.0: the magnitudes of a trained core, where the
/// kernel's saturation-free fast paths run.
fn raw_trained() -> impl Strategy<Value = i32> {
    -(4 << 20) + 1..4 << 20
}

/// The Ñ sizes of the trained-regime arm: inside one 4-row block's reach
/// (1..20) and on either side of 64 (63..68).
fn hidden_width() -> impl Strategy<Value = usize> {
    (0u8..2, 1usize..20, 63usize..68)
        .prop_map(|(sel, small, large)| if sel == 0 { small } else { large })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_rls_update_matches_generic_reference_in_the_trained_regime(
        (nh, m) in (hidden_width(), 1usize..3),
        (density, shift_p, shift_h) in (0u8..3, 0u32..6, 0u32..4),
        p_raw in collection::vec(raw_trained(), nh * nh),
        h_sampled in collection::vec((raw_trained(), 0u8..8), 2 * nh),
        beta_raw in collection::vec(raw_trained(), nh * m),
        target_raw in collection::vec(raw_trained(), m),
    ) {
        // P: symmetric, with a non-negative diagonal and off-diagonal words
        // eight times smaller, like a trained inverse Gram matrix; every word
        // scaled down by 2^shift_p.
        let mut p = vec![0i32; nh * nh];
        for i in 0..nh {
            p[i * nh + i] = p_raw[i * nh + i].abs() >> shift_p;
            for j in 0..i {
                let v = p_raw[i * nh + j] >> (shift_p + 3);
                p[i * nh + j] = v;
                p[j * nh + i] = v;
            }
        }
        // h: ReLU rows, sparse (3/8 nonzero), about 7/8 dense, or fully
        // dense.
        let h: Vec<i32> = h_sampled
            .iter()
            .map(|&(v, sel)| {
                let zero = match density {
                    0 => sel >= 3,
                    1 => sel == 0,
                    _ => false,
                };
                if zero { 0 } else { v.abs() >> shift_h }
            })
            .collect();
        let beta_raw: Vec<i32> = beta_raw.iter().map(|&v| v >> shift_p).collect();

        let mut p_ref = to_matrix(nh, nh, &p);
        let mut beta_ref = to_matrix(nh, m, &beta_raw);
        let mut beta = beta_raw.clone();
        let mut ws = RlsScratch::new();
        for h_raw in h.chunks(nh) {
            reference_update(h_raw, &target_raw, &mut p_ref, &mut beta_ref);
            seq_train_q_into::<20>(nh, m, h_raw, &target_raw, &mut p, &mut beta, &mut ws);

            prop_assert_eq!(&p, &raws_of(&p_ref));
            prop_assert_eq!(&beta, &raws_of(&beta_ref));
            let ph_ref = raws_of(&p_ref.matmul_t(&to_matrix(1, nh, h_raw)));
            prop_assert_eq!(&ws.ph, &ph_ref);
        }
        prop_assert!(ws.stats.fast_blocks > 0, "no fast block ran: {:?}", ws.stats);
    }
}

/// A long run in the trained regime, held to the generic reference word for
/// word after every update. `P₀` and `β₀` come from an f64 `init_train` in
/// the FPGA design's configuration (ReLU, relative δ = 0.5, spectral
/// normalisation, 5 inputs) on 2Ñ samples at Ñ = 66; 3,000 updates take
/// CartPole-range inputs and targets uniform in [−1, 1]. Halfway through,
/// one `P` word is set near `Q20::MAX`, so exact fallbacks fire mid-run; the
/// scratch is replaced there, as `RlsScratch` asks after `P` is written
/// outside the kernel. The `RlsStats` of both halves are pinned.
#[test]
fn long_trained_run_matches_generic_reference_through_a_saturating_word() {
    use elmrl_elm::{HiddenActivation, OsElm, OsElmConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const NH: usize = 66;
    const N: usize = 5;
    const UPDATES: usize = 3000;
    let mut rng = SmallRng::seed_from_u64(27);
    let config = OsElmConfig::new(N, NH, 1)
        .with_activation(HiddenActivation::ReLU)
        .with_l2_delta(0.5)
        .with_relative_l2(true)
        .with_spectral_normalization(true);
    let mut os = OsElm::<f64>::new(&config, &mut rng);
    // Cart position, cart velocity, pole angle, pole velocity, action.
    let sample = |rng: &mut SmallRng| -> Vec<f64> {
        let mut x: Vec<f64> = [2.4, 3.0, 0.21, 3.5]
            .iter()
            .map(|&r| rng.gen_range(-r..r))
            .collect();
        x.push(if rng.gen_bool(0.5) { 1.0 } else { 0.0 });
        x
    };
    let x0: Vec<f64> = (0..2 * NH).flat_map(|_| sample(&mut rng)).collect();
    let t0: Vec<f64> = (0..2 * NH).map(|_| rng.gen_range(-1.0..1.0)).collect();
    os.init_train(
        &Matrix::from_vec(2 * NH, N, x0).unwrap(),
        &Matrix::from_vec(2 * NH, 1, t0).unwrap(),
    )
    .unwrap();
    let quantize = |m: &Matrix<f64>| -> Vec<i32> {
        m.as_slice()
            .iter()
            .map(|&v| Q20::from_f64(v).to_raw())
            .collect()
    };
    let alpha = quantize(os.model().alpha());
    let bias = quantize(os.model().bias());
    let mut beta = quantize(os.model().beta());
    let mut p = quantize(os.p_matrix().unwrap());
    let mut p_ref = to_matrix(NH, NH, &p);
    let mut beta_ref = to_matrix(NH, 1, &beta);

    let mut ws = RlsScratch::new();
    let mut first_half = RlsStats::default();
    let mut h = vec![0i32; NH];
    for k in 0..UPDATES {
        if k == UPDATES / 2 {
            first_half = ws.stats;
            ws = RlsScratch::new();
            let at = 7 * NH + 11;
            p[at] = i32::MAX - 4096;
            p_ref.as_mut_slice()[at] = Q20::from_raw(p[at]);
        }
        let x: Vec<i32> = sample(&mut rng)
            .iter()
            .map(|&v| Q20::from_f64(v).to_raw())
            .collect();
        let t = [Q20::from_f64(rng.gen_range(-1.0..1.0)).to_raw()];
        matmul_q_into::<20>(1, N, NH, &x, &alpha, &mut h);
        bias_relu_q_into(1, NH, &bias, &mut h);

        reference_update(&h, &t, &mut p_ref, &mut beta_ref);
        seq_train_q_into::<20>(NH, 1, &h, &t, &mut p, &mut beta, &mut ws);
        assert_eq!(p, raws_of(&p_ref), "P after update {k}");
        assert_eq!(beta, raws_of(&beta_ref), "β after update {k}");
    }
    // 37 dot blocks an update: 16 four-row and 2 one-row blocks in each
    // pass, plus the `h·P` fold.
    let clean = RlsStats {
        calls: 1500,
        rescans: 47,
        fast_blocks: 55_500,
        fallback_blocks: 0,
    };
    let saturated = RlsStats {
        calls: 1500,
        rescans: 47,
        fast_blocks: 54_390,
        fallback_blocks: 1_110,
    };
    assert_eq!(first_half, clean);
    assert_eq!(ws.stats, saturated);
}

/// The dense sweep's runtime checkpoint, hit on purpose: every row of `P` is
/// +100.0 on columns 0..16 and −100.0 on columns 16..32, and `h` is all
/// 1.0, so each `P·hᵀ` chain passes the limit at its first checkpoint and
/// cancels to zero by its end. The static guards still pass (`P·hᵀ = 0`, so
/// the downdate is by exact zeros), so pass 2 runs the dense sweep, and
/// every row block, the four-row ones and the one-row tail, must fall back
/// to the exact dots.
#[test]
fn dense_sweep_checkpoint_overshoot_falls_back_to_exact_dots() {
    const NH: usize = 33;
    let a = 100 << 20;
    let mut p: Vec<i32> = (0..NH * NH)
        .map(|i| match i % NH {
            0..16 => a,
            16..32 => -a,
            _ => 0,
        })
        .collect();
    let h = vec![q_one::<20>(); NH];
    let target = [q_one::<20>() / 2];
    let mut beta = vec![0i32; NH];
    let mut p_ref = to_matrix(NH, NH, &p);
    let mut beta_ref = to_matrix(NH, 1, &beta);
    let mut ws = RlsScratch::new();
    reference_update(&h, &target, &mut p_ref, &mut beta_ref);
    seq_train_q_into::<20>(NH, 1, &h, &target, &mut p, &mut beta, &mut ws);
    assert_eq!(p, raws_of(&p_ref));
    assert_eq!(beta, raws_of(&beta_ref));
    assert_eq!(ws.ph, raws_of(&p_ref.matmul_t(&to_matrix(1, NH, &h))));
    let stats = RlsStats {
        calls: 1,
        rescans: 1,
        fast_blocks: 0,
        fallback_blocks: 19,
    };
    assert_eq!(ws.stats, stats);
}

/// Deterministic pin of [`matmul_q_into`] at the FPGA core's shapes — the
/// hidden projection `B × n × Ñ` and the output `B × Ñ × 1` at batch sizes 1,
/// 16 and 128, for CartPole (n = 5) and MountainCar (n = 3) inputs — on a
/// word stream that crosses the clamp bounds, so mid-sum saturation fires,
/// against the generic `Matrix<Q20>` product.
#[test]
fn matmul_q_is_bit_identical_to_the_generic_product_on_saturating_words() {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Mostly moderate magnitudes, with an occasional near-bound word so
        // mid-sum saturation fires.
        if state >> 61 == 0 {
            (state >> 32) as i32
        } else {
            ((state >> 32) as i32) % (16 << 20)
        }
    };
    for (m, k, n) in [
        (1, 5, 64),
        (1, 64, 1),
        (16, 5, 64),
        (16, 64, 1),
        (128, 5, 64),
        (128, 64, 1),
        (1, 3, 256),
        (1, 256, 1),
    ] {
        let a: Vec<i32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i32> = (0..k * n).map(|_| next()).collect();
        let mut out = vec![0i32; m * n];
        matmul_q_into::<20>(m, k, n, &a, &b, &mut out);
        let expected = to_matrix(m, k, &a).matmul(&to_matrix(k, n, &b));
        assert_eq!(out, raws_of(&expected), "shape ({m},{k},{n})");
    }
}
