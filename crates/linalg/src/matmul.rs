//! Matrix–matrix multiplication kernels.
//!
//! Every kernel produces **bit-for-bit identical** results: each output
//! element starts from zero and adds its products `lhs · rhs` over the
//! inner dimension in ascending order, so the float addition sequence per
//! element is the same whichever kernel runs (the property the proptest
//! suite pins down). There is one product per job, owned or `_into`, plain
//! or transposed. The `*_into` forms write into a caller-owned output
//! (reshaped via [`Matrix::resize_zeroed`], which reuses its allocation), so
//! steady-state hot loops perform zero matrix heap allocations.
//!
//! **One dispatch.** [`Matrix::matmul_into`] — and through it
//! [`Matrix::matmul`] and [`Matrix::matmul_prefix_into`] — picks its engine
//! from the shape `m × k × n`, checking these rules in order:
//!
//! | Rule | Engine | Shapes that take it |
//! |---|---|---|
//! | `n ≤ 4` | *narrow*: the sums of four output rows live in registers, interleaved into independent add chains | `H·β` (every Q read and RLS prediction) |
//! | `k ≤ 4` | *short inner*: each element sums its `k` terms in a register and is stored once | the Q evaluator's `B × 4 × Ñ` state projection, MountainCar's hidden layer |
//! | `k < PACK_MR` or `n < PACK_MR` | the naive `i-k-j` loop | the CartPole hidden layer `B × 5 × Ñ` |
//! | [`on_pool`]`(m·k·n)` and `m ≥ 2` | row bands of the blocked engine on the work-sharing pool | OS-ELM's `H₀` at Ñ = 1024 |
//! | otherwise | the blocked engine under [`wide`] | `B × 65 × 1024` hidden layers, `S = H·P·Hᵀ` at Ñ = 1024 |
//!
//! The blocked engine walks [`PACK_MR`]-row panels of the left operand with
//! the inner dimension tiled by [`PACK_KC`] and the output columns by
//! [`PACK_NC`], so each rhs row is streamed once per panel instead of once
//! per output row. It reads the panel's rows in place: the transposed panel
//! copy of a Goto–van de Geijn GEMM pays for itself on large, TLB-bound
//! inner dimensions, and this workspace's largest is 1024.
//!
//! **Tiled `t_matmul_into`.** Wider `aᵀ·b` products — above all the Gram
//! matrix `H₀ᵀH₀` of OS-ELM initial training — run the `p-i-j` loop one
//! 32×128 output tile at a time, four `p` per register pass, instead of
//! sweeping the whole output once per `p`; products that [`on_pool`] sends
//! to the pool split into row bands. Narrow outputs (`n ≤ 4`, the initial
//! training's `Hᵀ·T`) take the narrow kernel. Each element still adds its
//! products in ascending `p` from zero, so the tiling and the bands are
//! bit-identical to the plain loop.
//!
//! The FPGA datapath simulator in `elmrl-fpga` does **not** use these kernels;
//! it runs the raw-`i32` kernels of `elmrl-fixed`.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::wide;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row-panel height of the blocked engine: how many output rows share one
/// streamed pass over the rhs. 8 spreads each rhs read over eight
/// accumulator rows (eight independent add chains); 8 was picked over 4 and
/// 16 at n ∈ {64 … 1024} by the GEMM sweep whose 8-row curve is frozen in
/// `BENCH_PR9.json`. Products with fewer inner terms or output columns than
/// this run the naive loop.
pub const PACK_MR: usize = 8;

/// Depth (inner-dimension extent) of one k-block of the blocked engine. 256
/// keeps a panel's k-slice (`PACK_MR × PACK_KC` f64 = 16 KiB) in L1 across
/// the whole j-sweep of that block.
pub const PACK_KC: usize = 256;

/// Width of one output column block. 256 caps the live output tile at
/// `PACK_MR × PACK_NC` f64 = 16 KiB so accumulator rows stay cache-hot
/// while the rhs block (`PACK_KC × PACK_NC` = 512 KiB) streams from L2.
pub const PACK_NC: usize = 256;

/// Default for [`parallel_flop_threshold`]: at or below this many
/// multiply–adds a pass runs inline — fork/join overhead dwarfs the work.
/// 64³ ≈ 262k MACs ≈ the smallest product where a second worker pays for
/// itself on the bench host (see BENCH_PR9.json).
pub const DEFAULT_PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Cached override for the parallel short-circuit threshold; 0 = unset
/// (resolve `ELMRL_PAR_THRESHOLD`, then the default, on first use).
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(0);

/// The product size (in multiply–adds) a pass must exceed before
/// [`on_pool`] sends it to the work-sharing pool.
///
/// Resolution order: the last [`set_parallel_flop_threshold`] call, else the
/// `ELMRL_PAR_THRESHOLD` environment variable, else
/// [`DEFAULT_PARALLEL_FLOP_THRESHOLD`]. Tests lower it to force tiny
/// products through the pooled branches.
pub fn parallel_flop_threshold() -> usize {
    match PAR_THRESHOLD.load(Ordering::Relaxed) {
        0 => {
            let v = std::env::var("ELMRL_PAR_THRESHOLD")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(DEFAULT_PARALLEL_FLOP_THRESHOLD);
            PAR_THRESHOLD.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Override the parallel short-circuit threshold (in multiply–adds) for this
/// process; pass 0 to reset to the environment/default resolution. Changing
/// the threshold only moves work between the sequential and parallel kernels
/// — both produce bit-identical results, so artefacts never depend on it.
pub fn set_parallel_flop_threshold(threshold: usize) {
    PAR_THRESHOLD.store(threshold, Ordering::Relaxed);
}

/// Whether a pass of `madds` multiply–adds goes to the work-sharing pool:
/// the pool must have more than one worker, and the pass must lie strictly
/// above [`parallel_flop_threshold`], so the paper-scale Ñ = 64 Gram product
/// (exactly 64³) stays on the calling thread. The one pool decision of the
/// matmul dispatch, `t_matmul_into`, the triangular solves and the OS-ELM
/// RLS passes.
pub fn on_pool(madds: usize) -> bool {
    rayon::current_num_threads() > 1 && madds > parallel_flop_threshold()
}

/// The blocked engine: `out = a · b` for the `out.len() / n` rows of `a`
/// (row-major, `k` columns) against the `k × n` row-major `b`, into the
/// caller's zeroed `out`. [`PACK_MR`]-row panels of `a` are read in place,
/// the inner dimension is tiled by [`PACK_KC`] and the output columns by
/// [`PACK_NC`]. For every output element the `k` terms are still added in
/// ascending order (k-blocks ascend, `p` ascends within a block), so the
/// result is bit-for-bit identical to the naive loop however the tiles fall.
/// Callers run it through [`blocked_gemm_rows_wide`].
#[inline(always)]
pub(crate) fn blocked_gemm_rows<T: Scalar>(a: &[T], k: usize, b: &[T], n: usize, out: &mut [T]) {
    for (a_panel, o_panel) in a.chunks(PACK_MR * k).zip(out.chunks_mut(PACK_MR * n)) {
        for p0 in (0..k).step_by(PACK_KC) {
            let p_end = (p0 + PACK_KC).min(k);
            for j0 in (0..n).step_by(PACK_NC) {
                let j_end = (j0 + PACK_NC).min(n);
                for p in p0..p_end {
                    let b_row = &b[p * n + j0..p * n + j_end];
                    for (a_row, o_row) in a_panel.chunks_exact(k).zip(o_panel.chunks_exact_mut(n)) {
                        let a_rp = a_row[p];
                        for (o, &b_pj) in o_row[j0..j_end].iter_mut().zip(b_row) {
                            *o += a_rp * b_pj;
                        }
                    }
                }
            }
        }
    }
}

/// [`blocked_gemm_rows`] through [`wide`]: the one call site, so the kernel
/// is compiled once per CPU path however many products use it.
fn blocked_gemm_rows_wide<T: Scalar>(a: &[T], k: usize, b: &[T], n: usize, out: &mut [T]) {
    wide(
        #[inline(always)]
        || blocked_gemm_rows(a, k, b, n, out),
    );
}

/// `a · b` into the caller's zeroed `out` by the naive `i-k-j` loop, whose
/// innermost loop walks both the rhs row and the output row contiguously.
fn naive_matmul<T: Scalar>(a: &[T], k: usize, b: &[T], n: usize, out: &mut [T]) {
    for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&a_ip, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (o, &b_pj) in o_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// Output rows per tile of the generic `t_matmul_into` path.
const T_TILE_ROWS: usize = 32;

/// Output columns per tile of the generic `t_matmul_into` path: a
/// `T_TILE_ROWS × T_TILE_COLS` f64 tile is 32 KiB, an L1's worth.
const T_TILE_COLS: usize = 128;

/// Output rows `i0..i0 + out.len() / n` of `aᵀ · b` (the caller's zeroed
/// row band), one `T_TILE_ROWS × T_TILE_COLS` output tile at a time. Inside
/// a tile `p` runs over the whole inner dimension in ascending order, four
/// at a time: each element adds its four products in a register and is
/// stored once. Every element still gets the `p-i-j` loop's additions in
/// the `p-i-j` loop's order; the tile only keeps the accumulators
/// cache-resident instead of sweeping the whole output once per `p`.
/// Callers run it through [`t_matmul_rows_wide`].
#[inline(always)]
pub(crate) fn t_matmul_rows<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, i0: usize, out: &mut [T]) {
    let (k, n) = (a.rows(), b.cols());
    let rows = out.len() / n;
    for ti in (0..rows).step_by(T_TILE_ROWS) {
        let ti_end = (ti + T_TILE_ROWS).min(rows);
        for tj in (0..n).step_by(T_TILE_COLS) {
            let tile = (i0 + ti..i0 + ti_end, tj..(tj + T_TILE_COLS).min(n));
            let mut p = 0;
            while p + 4 <= k {
                t_tile_step::<T, 4>(a, b, p, tile.clone(), n, &mut out[ti * n..]);
                p += 4;
            }
            for p in p..k {
                t_tile_step::<T, 1>(a, b, p, tile.clone(), n, &mut out[ti * n..]);
            }
        }
    }
}

/// [`t_matmul_rows`] through [`wide`], its one call site.
fn t_matmul_rows_wide<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, i0: usize, out: &mut [T]) {
    wide(
        #[inline(always)]
        || t_matmul_rows(a, b, i0, out),
    );
}

/// Add inner indices `p..p + G` to one output tile: rows `rows` of `aᵀ`
/// (columns of `a`) by columns `cols` of `b`, into `out` (row-major with
/// `n` columns, starting at the tile's first row). Each element adds its
/// `G` products in ascending `p` in a register.
#[inline(always)]
fn t_tile_step<T: Scalar, const G: usize>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    p: usize,
    (rows, cols): (std::ops::Range<usize>, std::ops::Range<usize>),
    n: usize,
    out: &mut [T],
) {
    let a_segs: [&[T]; G] = std::array::from_fn(|g| &a.row(p + g)[rows.clone()]);
    let b_segs: [&[T]; G] = std::array::from_fn(|g| &b.row(p + g)[cols.clone()]);
    for (r, o_row) in out.chunks_mut(n).take(rows.len()).enumerate() {
        let coefs: [T; G] = std::array::from_fn(|g| a_segs[g][r]);
        for (j, o) in o_row[cols.clone()].iter_mut().enumerate() {
            let mut v = *o;
            for g in 0..G {
                v += coefs[g] * b_segs[g][j];
            }
            *o = v;
        }
    }
}

/// Widest output (narrow branches) or deepest inner dimension (short-inner
/// branches) taken off the generic loops.
const NARROW_MAX: usize = 4;

/// Output rows one pass of the narrow kernel accumulates together.
const NARROW_ROWS: usize = 4;

/// `R` output rows `i0..i0 + R` of an `N`-column product whose element
/// `(i, j)` is `Σ_p lhs(i, p) · rhs[p·N + j]` for `p` ascending from zero —
/// the same per-element addition sequence as the generic loops. `R · N`
/// accumulators stay in registers across the whole inner loop.
#[inline(always)]
fn narrow_rows<T: Scalar, const R: usize, const N: usize>(
    i0: usize,
    k: usize,
    lhs: &impl Fn(usize, usize) -> T,
    rhs: &[T],
    out: &mut [T],
) {
    let mut acc = [[T::zero(); N]; R];
    for (p, b_row) in rhs.chunks_exact(N).enumerate().take(k) {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a_rp = lhs(i0 + r, p);
            for (o, &b) in acc_r.iter_mut().zip(b_row) {
                *o += a_rp * b;
            }
        }
    }
    for (o_row, acc_r) in out.chunks_exact_mut(N).zip(&acc) {
        o_row.copy_from_slice(acc_r);
    }
}

/// The `m × N` product of [`narrow_rows`] over all rows: `NARROW_ROWS`-row
/// blocks, then the remainder one row at a time.
fn narrow_product<T: Scalar, const N: usize>(
    m: usize,
    k: usize,
    lhs: impl Fn(usize, usize) -> T,
    rhs: &[T],
    out: &mut [T],
) {
    let full = m - m % NARROW_ROWS;
    for i in (0..full).step_by(NARROW_ROWS) {
        let block = &mut out[i * N..(i + NARROW_ROWS) * N];
        narrow_rows::<T, NARROW_ROWS, N>(i, k, &lhs, rhs, block);
    }
    for i in full..m {
        narrow_rows::<T, 1, N>(i, k, &lhs, rhs, &mut out[i * N..(i + 1) * N]);
    }
}

/// `a · rhs` for an inner dimension `K ≤ NARROW_MAX`, row by row: element
/// `(i, j)` is accumulated in a register from zero over ascending `p` — the
/// generic loop's addition sequence — and stored once, so the output row is
/// written once instead of `K` times.
fn short_inner_matmul<T: Scalar, const K: usize>(a: &[T], rhs: &[T], n: usize, out: &mut [T]) {
    let rows: [&[T]; K] = std::array::from_fn(|p| &rhs[p * n..(p + 1) * n]);
    for (a_row, o_row) in a.chunks_exact(K).zip(out.chunks_exact_mut(n)) {
        for (j, o) in o_row.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (&a_ip, b_row) in a_row.iter().zip(&rows) {
                acc += a_ip * b_row[j];
            }
            *o = acc;
        }
    }
}

/// Call `$kernel::<T, C>` with the compile-time `C` equal to the runtime
/// width or depth `$c ∈ 1..=NARROW_MAX`.
macro_rules! dispatch_const {
    ($kernel:ident, $c:expr, $($arg:expr),*) => {
        match $c {
            1 => $kernel::<T, 1>($($arg),*),
            2 => $kernel::<T, 2>($($arg),*),
            3 => $kernel::<T, 3>($($arg),*),
            4 => $kernel::<T, 4>($($arg),*),
            _ => unreachable!("outside 1..=NARROW_MAX"),
        }
    };
}

/// `a · b[..a.cols()]` — the product with the first `a.cols()` rows of `b` —
/// into `out`: the one size dispatch behind [`Matrix::matmul_into`] and
/// [`Matrix::matmul_prefix_into`], by the rules of the module doc's table.
fn dispatch_matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.resize_zeroed(m, n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (a, b, o) = (a.as_slice(), &b.as_slice()[..k * n], out.as_mut_slice());
    if n <= NARROW_MAX {
        dispatch_const!(narrow_product, n, m, k, |i, p| a[i * k + p], b, o);
    } else if k <= NARROW_MAX {
        dispatch_const!(short_inner_matmul, k, a, b, n, o);
    } else if k < PACK_MR || n < PACK_MR {
        naive_matmul(a, k, b, n, o);
    } else if on_pool(m * k * n) && m >= 2 {
        let rows_per = m
            .div_ceil(rayon::current_num_threads() * 2)
            .next_multiple_of(PACK_MR);
        let bands: Vec<(&[T], &mut [T])> = a
            .chunks(rows_per * k)
            .zip(o.chunks_mut(rows_per * n))
            .collect();
        bands
            .into_par_iter()
            .for_each(|(a, o)| blocked_gemm_rows_wide(a, k, b, n, o));
    } else {
        blocked_gemm_rows_wide(a, k, b, n, o);
    }
}

impl<T: Scalar> Matrix<T> {
    /// Matrix product, through the size dispatch of [`Matrix::matmul_into`].
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). The engine follows from the shape (see the
    /// module doc's table); every engine is bit-for-bit identical to the
    /// naive `i-k-j` loop, so neither the shape nor the thread count can
    /// change a result byte. Allocation-free except on the pooled branch.
    pub fn matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        dispatch_matmul(self, rhs, out);
    }

    /// `self · rhs[..self.cols()]`: the product with the first `self.cols()`
    /// rows of `rhs`, through the same dispatch as [`Matrix::matmul_into`].
    /// This is the batched Q evaluation's state projection: `states` is
    /// `B × d` while the input weights carry `d + 1` rows (the action row is
    /// applied separately), so the full product never exists.
    pub fn matmul_prefix_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert!(
            self.cols() <= rhs.rows(),
            "matmul_prefix: lhs has more columns than rhs has rows ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        dispatch_matmul(self, rhs, out);
    }

    /// `selfᵀ · rhs` without materialising the transpose (a common OS-ELM
    /// pattern, e.g. `Hᵀ·H` and `Hᵀ·t`).
    pub fn t_matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols(), rhs.cols());
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `t_matmul`.
    pub fn t_matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "t_matmul: row counts differ ({} vs {})",
            self.rows(),
            rhs.rows()
        );
        let (k, m, n) = (self.rows(), self.cols(), rhs.cols());
        out.resize_zeroed(m, n);
        if (1..=NARROW_MAX).contains(&n) {
            let (a, b, o) = (self.as_slice(), rhs.as_slice(), out.as_mut_slice());
            dispatch_const!(narrow_product, n, m, k, |i, p| a[p * m + i], b, o);
            return;
        }
        if m == 0 || n == 0 {
            return;
        }
        if !on_pool(k * m * n) || m < 2 {
            t_matmul_rows_wide(self, rhs, 0, out.as_mut_slice());
            return;
        }
        let rows_per = m.div_ceil(rayon::current_num_threads() * 2);
        let bands: Vec<(usize, &mut [T])> = out
            .as_mut_slice()
            .chunks_mut(rows_per * n)
            .enumerate()
            .collect();
        bands.into_par_iter().for_each(|(bi, band)| {
            t_matmul_rows_wide(self, rhs, bi * rows_per, band);
        });
    }

    /// `self · rhsᵀ` without materialising the transpose.
    pub fn matmul_t(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows(), rhs.rows());
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `matmul_t`.
    pub fn matmul_t_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_t: column counts differ ({} vs {})",
            self.cols(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.rows());
        out.resize_zeroed(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let o_row = out.row_mut(i);
            for (j, o) in o_row.iter_mut().enumerate().take(n) {
                let b_row = rhs.row(j);
                let mut acc = T::zero();
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                *o = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn approx_eq(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) -> bool {
        a.shape() == b.shape() && a.max_abs_diff(b) < tol
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]);
        assert_eq!(c, expected);
        // operator form delegates to matmul
        assert_eq!(&a * &b, expected);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = uniform_matrix::<f64, _>(5, 5, -1.0, 1.0, &mut rng);
        let i = Matrix::identity(5);
        assert!(approx_eq(&a.matmul(&i), &a, 1e-12));
        assert!(approx_eq(&i.matmul(&a), &a, 1e-12));
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::<f64>::ones(2, 3);
        let b = Matrix::<f64>::ones(3, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c[(1, 3)], 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::<f64>::ones(2, 3);
        let b = Matrix::<f64>::ones(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transposed_kernels_agree() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = uniform_matrix::<f64, _>(6, 4, -1.0, 1.0, &mut rng);
        let b = uniform_matrix::<f64, _>(6, 5, -1.0, 1.0, &mut rng);
        assert!(approx_eq(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-12));
        let c = uniform_matrix::<f64, _>(7, 4, -1.0, 1.0, &mut rng);
        assert!(approx_eq(&a.matmul_t(&c), &a.matmul(&c.transpose()), 1e-12));
    }

    /// The naive `i-k-j` loop over the first `a.cols()` rows of `b`: the
    /// reference every engine of the dispatch must match bit for bit.
    fn naive(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
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

    #[test]
    fn blocked_engine_is_bit_identical_to_naive() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut out = Matrix::zeros(1, 1);
        // k, n ≥ PACK_MR, with remainders on every tile edge: panel height
        // (PACK_MR = 8), k-blocks (PACK_KC = 256) and column blocks
        // (PACK_NC = 256).
        for (m, k, n) in [
            (1, 8, 8),
            (7, 8, 8),
            (8, 9, 65),
            (9, 64, 9),
            (17, 255, 9),
            (2, 256, 10),
            (3, 257, 8),
            (2, 300, 259),
            (10, 513, 8),
        ] {
            let a = uniform_matrix::<f64, _>(m, k, -2.0, 2.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -2.0, 2.0, &mut rng);
            // Exact equality, not approximate: same accumulation order.
            a.matmul_into(&b, &mut out);
            assert_eq!(naive(&a, &b), out, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prefix_matches_naive_prefix_accumulation() {
        let mut rng = SmallRng::seed_from_u64(80);
        for (m, k_used, extra, n) in [(4, 3, 1, 9), (9, 8, 2, 17), (3, 257, 1, 5)] {
            let a = uniform_matrix::<f64, _>(m, k_used, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k_used + extra, n, -1.0, 1.0, &mut rng);
            let mut out = Matrix::zeros(1, 1);
            a.matmul_prefix_into(&b, &mut out);
            assert_eq!(out, naive(&a, &b), "{m}x{k_used}(+{extra})x{n}");
        }
    }

    #[test]
    fn auto_dispatch_is_bit_identical_across_all_branches() {
        let mut rng = SmallRng::seed_from_u64(81);
        let mut out = Matrix::zeros(1, 1);
        // One shape per rule: narrow, short inner, naive, blocked — and the
        // pooled bands once the threshold is forced down and threads up.
        for (m, k, n) in [(2, 9, 2), (5, 3, 9), (6, 7, 9), (24, 40, 33), (40, 64, 48)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = naive(&a, &b);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, expected, "sequential dispatch {m}x{k}x{n}");

            set_parallel_flop_threshold(1);
            rayon::set_num_threads(4);
            a.matmul_into(&b, &mut out);
            rayon::set_num_threads(1);
            set_parallel_flop_threshold(0);
            assert_eq!(out, expected, "parallel dispatch {m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_match_and_reuse_buffers() {
        let mut rng = SmallRng::seed_from_u64(78);
        let mut out = Matrix::<f64>::zeros(1, 1);
        // Shrinking and growing shapes through the same scratch buffers.
        for (m, k, n) in [(8, 6, 7), (3, 9, 2), (12, 12, 12)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = a.matmul(&b);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, expected);

            let c = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            a.matmul_t_into(&c, &mut out);
            assert_eq!(out, a.matmul_t(&c));
            let d = uniform_matrix::<f64, _>(m, n, -1.0, 1.0, &mut rng);
            a.t_matmul_into(&d, &mut out);
            assert_eq!(out, a.t_matmul(&d));
        }
    }
}
