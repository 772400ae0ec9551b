//! Bit pins for OS-ELM initial training.
//!
//! `init_train` computes `P₀ = (H₀ᵀH₀ + δI)⁻¹` and `β₀ = P₀H₀ᵀt₀`; one
//! `seq_train_batch` then runs the B-chunk RLS update, whose `S·X = H·P`
//! solve shares the triangular kernels. The digests below are FNV-1a hashes
//! of the IEEE-754 bits of `P` and `β` after both steps, recorded from the
//! column-at-a-time substitution and the `p-i-j` Gram loop. Any reordering
//! of a single floating-point operation changes them.
//!
//! A second pair of pins follows a run of `seq_train_batch` chunks of
//! widths 1, 2, 5, 8, 13 and 16 after `init_train`, at Ñ = 250 (not a
//! multiple of the 4-row block, the 8-lane strip or the 64-row tile) and,
//! in release builds only, at Ñ = 1024. These were recorded from the
//! one-row-at-a-time `P·Hᵀ`, `H·P` and downdate loops.
//!
//! Each test runs both thread settings while holding `SETTINGS`: the pool
//! size and the parallel threshold are process-wide, so without the lock
//! concurrently running tests would observe each other's settings.

use elmrl_elm::{HiddenActivation, OsElm, OsElmConfig};
use elmrl_linalg::{set_parallel_flop_threshold, Matrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serialises the tests that change the process-wide thread settings.
static SETTINGS: Mutex<()> = Mutex::new(());

const INPUT_DIM: usize = 8;
const OUTPUT_DIM: usize = 2;
const CHUNK: usize = 16;
/// Chunk widths of the multi-chunk pins, applied in this order.
const CHUNK_RUN: [usize; 6] = [1, 2, 5, 8, 13, 16];

/// `(Ñ, P digest, β digest)` captured before the row-oriented solves.
const PINS: [(usize, u64, u64); 2] = [
    (64, 0xd994_87e9_5de9_7a55, 0x272f_3c7a_2845_c969),
    (256, 0x8d95_8466_ab3a_8aee, 0xde21_01fa_4786_85f8),
];

fn fnv1a(m: &Matrix<f64>) -> u64 {
    m.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Scattered pseudo-random inputs in `[-1, 1)` from a seeded LCG, and a
/// smooth two-output target.
fn dataset(rows: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let x = Matrix::from_fn(rows, INPUT_DIM, |_, _| next());
    let t = Matrix::from_fn(rows, OUTPUT_DIM, |i, j| {
        (x[(i, j)] - 0.5 * x[(i, j + 1)]).sin()
    });
    (x, t)
}

/// `(P, β)` digests after `init_train` on `Ñ` samples plus one
/// `seq_train_batch` per entry of `chunks`, each that many samples wide.
fn digests(hidden: usize, chunks: &[usize]) -> (u64, u64) {
    let cfg = OsElmConfig::new(INPUT_DIM, hidden, OUTPUT_DIM)
        .with_activation(HiddenActivation::ReLU)
        .with_l2_delta(0.05)
        .with_relative_l2(true);
    let mut os = OsElm::<f64>::new(&cfg, &mut SmallRng::seed_from_u64(hidden as u64));
    let total: usize = chunks.iter().sum();
    let (x, t) = dataset(hidden + total, 7 + hidden as u64);
    os.init_train(
        &x.submatrix(0, hidden, 0, INPUT_DIM).unwrap(),
        &t.submatrix(0, hidden, 0, OUTPUT_DIM).unwrap(),
    )
    .unwrap();
    let mut at = hidden;
    for &b in chunks {
        os.seq_train_batch(
            &x.submatrix(at, at + b, 0, INPUT_DIM).unwrap(),
            &t.submatrix(at, at + b, 0, OUTPUT_DIM).unwrap(),
        )
        .unwrap();
        at += b;
    }
    (fnv1a(os.p_matrix().unwrap()), fnv1a(os.model().beta()))
}

/// Checks `digests(hidden, chunks)` against `(P pin, β pin)` at one thread
/// and on a 4-worker pool with every pass forced parallel.
fn assert_pinned_at_both_thread_settings(hidden: usize, chunks: &[usize], pins: (u64, u64)) {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    for (threads, threshold) in [(1, 0), (4, 1)] {
        rayon::set_num_threads(threads);
        set_parallel_flop_threshold(threshold);
        let (p, beta) = digests(hidden, chunks);
        assert_eq!(p, pins.0, "P digest at Ñ={hidden}, {threads} thread(s)");
        assert_eq!(beta, pins.1, "β digest at Ñ={hidden}, {threads} thread(s)");
    }
    rayon::set_num_threads(1);
    set_parallel_flop_threshold(0);
}

#[test]
fn p0_and_first_chunk_match_the_pinned_bits_at_any_thread_count() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    for (threads, threshold) in [(1, 0), (4, 1)] {
        rayon::set_num_threads(threads);
        set_parallel_flop_threshold(threshold);
        for (hidden, p_pin, beta_pin) in PINS {
            let (p, beta) = digests(hidden, &[CHUNK]);
            assert_eq!(p, p_pin, "P digest at Ñ={hidden}, {threads} thread(s)");
            assert_eq!(
                beta, beta_pin,
                "β digest at Ñ={hidden}, {threads} thread(s)"
            );
        }
    }
    rayon::set_num_threads(1);
    set_parallel_flop_threshold(0);
}

#[test]
fn chunk_run_at_250_hidden_matches_the_pinned_bits_at_any_thread_count() {
    assert_pinned_at_both_thread_settings(
        250,
        &CHUNK_RUN,
        (0xee0f_108a_d037_ceec, 0xe936_c3ef_c7a4_2040),
    );
}

/// Release only: debug `init_train` at Ñ = 1024 takes tens of seconds. Run
/// with `cargo test --release -p elmrl-elm --test p0_pin -- --ignored`.
#[test]
#[ignore = "release only; run with --ignored"]
fn chunk_run_at_1024_hidden_matches_the_pinned_bits_at_any_thread_count() {
    assert_pinned_at_both_thread_settings(
        1024,
        &CHUNK_RUN,
        (0x05c3_9969_0aa0_c7e9, 0x5979_e0a0_7f91_928c),
    );
}
