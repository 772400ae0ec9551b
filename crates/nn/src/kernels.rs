//! The dense layers' product kernels, over row-major `f64` slices.
//!
//! Every kernel is `#[inline(always)]`. The DQN training step runs inside
//! one [`elmrl_linalg::simd::wide`] call, and only code inlined into that
//! call is compiled for AVX2. The kernels vectorise across output elements,
//! never across a sum: each output element starts from zero and adds its
//! products in ascending inner order, each formed as `lhs · rhs`. That is
//! the addition sequence of the `elmrl_linalg` matmul kernels, so the
//! results are bit-for-bit theirs.
//!
//! A product is computed one output row at a time, in blocks of [`BLOCK`]
//! columns that stay in registers across the whole inner loop. A two-column
//! Q head (CartPole's, the action count of the benchmarked workload) cannot
//! fill a register that way, so that width gets a narrow kernel first, and
//! the row kernel finishes whatever rows it leaves (so each call site
//! compiles the row kernel once):
//! - `a · b` accumulates [`NARROW_ROWS`] output rows together;
//! - `aᵀ · b` runs its lanes along the output's rows, which are contiguous
//!   columns of `a`, and loads and stores each block transposed.

use std::slice::ChunksExact;

/// Output elements one register block accumulates: four AVX2 registers.
const BLOCK: usize = 16;

/// Output rows the narrow `a · b` kernel accumulates together.
const NARROW_ROWS: usize = 4;

/// `out = a · b` for `a: m × k`, `b: k × n` and `out: m × n`, row-major.
#[inline(always)]
pub(crate) fn matmul(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert!(b.len() == k * n && a.len() * n == out.len() * k);
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let done = if n == 2 {
        narrow_blocks::<2>(a, k, b, out)
    } else {
        0
    };
    matmul_wide(&a[done * k..], k, b, n, &mut out[done * n..]);
}

/// [`matmul`] one output row at a time, for an output of any width and
/// `k > 0`; the fastest form for more than two columns, or for one row.
#[inline(always)]
pub(crate) fn matmul_wide(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    let b_rows = b.chunks_exact(n);
    for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        row_times::<false>(a_row.iter().copied(), b_rows.clone(), o_row);
    }
}

/// `out += aᵀ · b` for `a: r × m`, `b: r × n` and `out: m × n`: the sum runs
/// over the `r` rows the operands share, each element continuing from its
/// value in `out`. So calls on consecutive row ranges of `a` and `b`, from
/// a zeroed `out`, add every element's products in ascending row order from
/// zero — bit for bit the product of the whole matrices.
#[inline(always)]
pub(crate) fn t_matmul_add(a: &[f64], m: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert!(out.len() == m * n && a.len() * n == b.len() * m);
    if m == 0 || n == 0 {
        return;
    }
    let done = if n == 2 {
        t_narrow_blocks::<2>(a, m, b, out)
    } else {
        0
    };
    let b_rows = b.chunks_exact(n);
    for (i, o_row) in (done..).zip(out[done * n..].chunks_exact_mut(n)) {
        let a_col = a.iter().skip(i).step_by(m).copied();
        row_times::<true>(a_col, b_rows.clone(), o_row);
    }
}

/// `out = aᵀ` for `a: rows × cols`, `cols > 0`.
#[inline(always)]
pub(crate) fn transpose(a: &[f64], cols: usize, out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    let rows = a.len() / cols;
    for (p, a_row) in a.chunks_exact(cols).enumerate() {
        for (j, &v) in a_row.iter().enumerate() {
            out[j * rows + p] = v;
        }
    }
}

/// One output row of a product: `o_row[j] = Σ_p lhs_p · b[p][j]`, where
/// `lhs` yields the row's left-hand factors in ascending `p` and `b_rows`
/// the rows of `b`, each `o_row.len()` long. With `ADD` the sums continue
/// from `o_row`'s values, otherwise from zero.
#[inline(always)]
fn row_times<const ADD: bool>(
    lhs: impl Iterator<Item = f64> + Clone,
    b_rows: ChunksExact<'_, f64>,
    o_row: &mut [f64],
) {
    let n = o_row.len();
    let mut blocks = o_row.chunks_exact_mut(BLOCK);
    for (jb, o_block) in (&mut blocks).enumerate() {
        let j0 = jb * BLOCK;
        let mut acc = [0.0; BLOCK];
        if ADD {
            acc.copy_from_slice(o_block);
        }
        for (a_p, b_row) in lhs.clone().zip(b_rows.clone()) {
            for (s, &b_pj) in acc.iter_mut().zip(&b_row[j0..j0 + BLOCK]) {
                *s += a_p * b_pj;
            }
        }
        o_block.copy_from_slice(&acc);
    }
    let tail = blocks.into_remainder();
    let j0 = n - tail.len();
    for (j, o) in (j0..).zip(tail) {
        let mut s = if ADD { *o } else { 0.0 };
        for (a_p, b_row) in lhs.clone().zip(b_rows.clone()) {
            s += a_p * b_row[j];
        }
        *o = s;
    }
}

/// The full [`NARROW_ROWS`]-row blocks of an `N`-column [`matmul`], each
/// block's `NARROW_ROWS · N` sums in registers across the whole inner
/// loop; returns the number of rows done.
#[inline(always)]
fn narrow_blocks<const N: usize>(a: &[f64], k: usize, b: &[f64], out: &mut [f64]) -> usize {
    let a_blocks = a.chunks_exact(k * NARROW_ROWS);
    let o_blocks = out.chunks_exact_mut(N * NARROW_ROWS);
    let mut done = 0;
    for (a_block, o_block) in a_blocks.zip(o_blocks) {
        let rows: [&[f64]; NARROW_ROWS] = std::array::from_fn(|r| &a_block[r * k..(r + 1) * k]);
        let mut acc = [[0.0; N]; NARROW_ROWS];
        for (p, b_row) in b.chunks_exact(N).enumerate() {
            for (s_row, a_row) in acc.iter_mut().zip(&rows) {
                let a_rp = a_row[p];
                for (s, &b_pj) in s_row.iter_mut().zip(b_row) {
                    *s += a_rp * b_pj;
                }
            }
        }
        for (o_row, s_row) in o_block.chunks_exact_mut(N).zip(&acc) {
            o_row.copy_from_slice(s_row);
        }
        done += NARROW_ROWS;
    }
    done
}

/// The full [`BLOCK`]-row blocks of an `N`-column [`t_matmul_add`]: lanes
/// along the output's rows (contiguous columns of `a`), each block loaded
/// and stored transposed; returns the number of output rows done.
#[inline(always)]
fn t_narrow_blocks<const N: usize>(a: &[f64], m: usize, b: &[f64], out: &mut [f64]) -> usize {
    let full = m - m % BLOCK;
    for (i0, o_block) in (0..full)
        .step_by(BLOCK)
        .zip(out.chunks_exact_mut(BLOCK * N))
    {
        let mut acc: [[f64; BLOCK]; N] =
            std::array::from_fn(|j| std::array::from_fn(|i| o_block[i * N + j]));
        for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(N)) {
            let a_seg = &a_row[i0..i0 + BLOCK];
            for (s_col, &b_pj) in acc.iter_mut().zip(b_row) {
                for (s, &a_pi) in s_col.iter_mut().zip(a_seg) {
                    *s += a_pi * b_pj;
                }
            }
        }
        for (i, o_row) in o_block.chunks_exact_mut(N).enumerate() {
            for (o, s_col) in o_row.iter_mut().zip(&acc) {
                *o = s_col[i];
            }
        }
    }
    full
}
