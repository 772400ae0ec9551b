//! Property-based pins of the raw-`i32` integer kernels against the generic
//! `Matrix<Q20>` arithmetic: same raws in, same raws out, **bit for bit** —
//! including operands at and near the `Q20::MAX`/`Q20::MIN` saturation
//! bounds and the `denom` reciprocal of the RLS update (saturating divide,
//! division by zero included).

use elmrl_fixed::kernels::{
    bias_relu_q_into, matmul_packed_q_into, matmul_q_into, q_add, q_div, q_mul, q_one, q_sub,
    seq_train_q_into, RlsScratch,
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

        let mut pack = Vec::new();
        let mut packed = vec![0i32; m * n];
        matmul_packed_q_into::<20>(m, k, n, &a_raw, &b_raw, &mut pack, &mut packed);
        prop_assert_eq!(&packed, &expected);
    }

    #[test]
    fn packed_kernel_handles_panel_remainders(
        m in 1usize..18, // crosses the PACK_MR = 8 panel boundary both ways
        k in 1usize..6,
        a_raw in collection::vec(raw_any(), m * k),
        b_raw in collection::vec(raw_any(), k * 3),
    ) {
        let mut naive = vec![0i32; m * 3];
        matmul_q_into::<20>(m, k, 3, &a_raw, &b_raw, &mut naive);
        let mut pack = Vec::new();
        let mut packed = vec![0i32; m * 3];
        matmul_packed_q_into::<20>(m, k, 3, &a_raw, &b_raw, &mut pack, &mut packed);
        prop_assert_eq!(packed, naive);
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
        let target: Vec<Q20> = target_raw.iter().map(|&r| Q20::from_raw(r)).collect();

        // Generic Matrix<Q20> reference: the pre-PR7 FpgaCore::seq_train
        // body (post-hidden), verbatim.
        let reference_update =
            |h_raw: &[i32], p_ref: &mut Matrix<Q20>, beta_ref: &mut Matrix<Q20>| {
                let h = to_matrix(1, nh, h_raw);
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
            };

        // --- Fused integer kernel on the same raws: two successive updates
        // through one scratch. The first derives the saturation-freedom
        // bound by exact scan; the second consumes the incrementally
        // maintained bound — so both the saturation-free fast loops and the
        // exact saturating loops get exercised against the reference.
        let mut p = p_raw.clone();
        let mut beta = beta_raw.clone();
        let mut ws = RlsScratch::new();
        for h_raw in [&h1_raw, &h2_raw] {
            reference_update(h_raw, &mut p_ref, &mut beta_ref);
            seq_train_q_into::<20>(nh, m, h_raw, &target_raw, &mut p, &mut beta, &mut ws);

            prop_assert_eq!(&p, &raws_of(&p_ref));
            prop_assert_eq!(&beta, &raws_of(&beta_ref));
            // ws.ph holds the post-update P·hᵀ — check it as well.
            let ph_ref = raws_of(&p_ref.matmul_t(&to_matrix(1, nh, h_raw)));
            prop_assert_eq!(&ws.ph, &ph_ref);
        }
    }
}

/// Deterministic pin of the blocked packed kernel at shapes straddling every
/// tile edge — `PACK_MR` panel remainders, `PACK_KC` k-block boundaries and
/// `PACK_NC` column-block boundaries — including saturating operands (the
/// LCG stream crosses the clamp bounds), against the naive integer kernel.
#[test]
fn packed_kernel_is_bit_identical_across_tile_boundaries() {
    use elmrl_fixed::kernels::{PACK_KC, PACK_NC};
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Mostly moderate magnitudes, with an occasional near-bound word so
        // mid-sum saturation fires inside full and partial tiles alike.
        if state >> 61 == 0 {
            (state >> 32) as i32
        } else {
            ((state >> 32) as i32) % (16 << 20)
        }
    };
    for (m, k, n) in [
        (9, PACK_KC - 1, 3),
        (2, PACK_KC, 5),
        (3, PACK_KC + 1, 4),
        (17, 7, PACK_NC + 1),
        (5, PACK_KC + 44, PACK_NC + 3),
    ] {
        let a: Vec<i32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<i32> = (0..k * n).map(|_| next()).collect();
        let mut naive = vec![0i32; m * n];
        matmul_q_into::<20>(m, k, n, &a, &b, &mut naive);
        let mut pack = Vec::new();
        let mut packed = vec![0i32; m * n];
        matmul_packed_q_into::<20>(m, k, n, &a, &b, &mut pack, &mut packed);
        assert_eq!(packed, naive, "shape ({m},{k},{n})");
    }
}
