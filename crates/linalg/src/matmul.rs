//! Matrix–matrix multiplication kernels.
//!
//! Every kernel produces **bit-for-bit identical** results: each output
//! element is accumulated over the inner dimension in ascending order, so the
//! float addition sequence per element is the same (the property the
//! proptest suite pins down). There is one product per job, owned or `_into`,
//! plain or transposed, plus the engines the dispatchers pick between:
//!
//! * [`Matrix::matmul`] — the straightforward triple loop with the `i-k-j`
//!   ordering so the innermost loop walks both operands contiguously.
//! * [`Matrix::matmul_packed_into`] — the register-blocked engine:
//!   [`PACK_MR`] rows of the left operand are packed transposed into a
//!   contiguous panel, then each rhs row is streamed **once per panel**
//!   instead of once per output row.
//! * [`Matrix::matmul_auto_into`] — picks between the two by size, and runs
//!   row chunks of the packed engine on the `rayon`-shim work-sharing pool
//!   once a product clears [`parallel_flop_threshold`].
//!
//! The `*_into` **workspace variants** ([`Matrix::matmul_into`],
//! [`Matrix::matmul_t_into`], [`Matrix::t_matmul_into`],
//! [`Matrix::matmul_packed_into`]) write into a caller-owned output matrix
//! (reshaped via [`Matrix::resize_zeroed`], which reuses its allocation), so
//! steady-state hot loops — the OS-ELM RLS update above all — perform zero
//! matrix heap allocations.
//!
//! **Narrow and short-inner branches.** The ELM-family products are tiny
//! in one dimension: the network has one output column, and a workload with
//! two state components has three inputs. The generic loops spend those
//! products on loop overhead, so the `_into` kernels take such shapes off
//! them:
//!
//! * *narrow output* (`n ≤ 4`) in [`Matrix::matmul_into`] and
//!   [`Matrix::t_matmul_into`] — the network output `H·β` (every Q read and
//!   RLS prediction) and the initial training's `Hᵀ·T`. The partial sums of
//!   four output rows live in registers, interleaved so consecutive adds
//!   land in independent chains instead of waiting on each other;
//! * *short inner* (`k ≤ 4`) in [`Matrix::matmul_into`] — the hidden
//!   projection `x·α` at ≤ 4 inputs (MountainCar's three). Each output
//!   element sums its `k` terms in a register and is stored once, instead
//!   of being loaded and stored `k` times.
//!
//! All of them stay bit-for-bit identical to the generic loops: every output
//! element still starts from zero and adds its products in ascending inner
//! order, each product formed as `lhs · rhs`.
//!
//! **Tiled `t_matmul_into`.** Wider `aᵀ·b` products — above all the Gram
//! matrix `H₀ᵀH₀` of OS-ELM initial training — run the `p-i-j` loop one
//! 32×128 output tile at a time, four `p` per register pass, instead of
//! sweeping the whole output once per `p`; products above
//! [`parallel_flop_threshold`] split into row bands on the pool. Each element
//! still adds its products in ascending `p` from zero, so the tiling and the
//! bands are bit-identical to the plain loop.
//!
//! The FPGA datapath simulator in `elmrl-fpga` does **not** use these kernels;
//! it sequences scalar MACs explicitly to count cycles.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::wide;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row-panel height of the packed engine: how many output rows share one
/// streamed pass over the rhs. 8 spreads each rhs read over eight
/// accumulator rows (eight independent add chains) while a panel's packed
/// k-slice (`PACK_MR × PACK_KC` elements) still fits in L1. 8 was picked
/// over 4 and 16 at n ∈ {64 … 1024} by the GEMM sweep whose 8-row curve is
/// frozen in `BENCH_PR9.json`.
pub const PACK_MR: usize = 8;

/// Depth (inner-dimension extent) of one packed k-block. 256 keeps the
/// packed panel slice (`PACK_MR × PACK_KC` f64 = 16 KiB) in L1 across the
/// whole j-sweep of that block.
pub const PACK_KC: usize = 256;

/// Width of one output column block. 256 caps the live output tile at
/// `PACK_MR × PACK_NC` f64 = 16 KiB so accumulator rows stay cache-hot
/// while the rhs block (`PACK_KC × PACK_NC` = 512 KiB) streams from L2.
pub const PACK_NC: usize = 256;

/// Default for [`parallel_flop_threshold`]: below this many multiply–adds
/// the parallel entry points run the sequential kernel inline — fork/join
/// overhead dwarfs the work. 64³ ≈ 262k MACs ≈ the smallest product where
/// a second worker pays for itself on the bench host (see BENCH_PR9.json).
pub const DEFAULT_PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Cached override for the parallel short-circuit threshold; 0 = unset
/// (resolve `ELMRL_PAR_THRESHOLD`, then the default, on first use).
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(0);

/// The minimum product size (in multiply–adds) routed to the work-sharing
/// pool by [`Matrix::matmul_auto_into`], [`Matrix::t_matmul_into`], the
/// triangular solves of `P₀` and the OS-ELM B-chunk update.
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

/// Below this many multiply–adds (or below [`PACK_MR`] output columns) the
/// auto-dispatched kernels fall back to the naive loop: the packed panel
/// write-out costs more than it saves on tiny products.
const PACK_FLOP_THRESHOLD: usize = 8 * 8 * 8;

/// Compute output rows `i0..i1` of `a · rhs`, restricted to the first
/// `k_used` columns of `a` / rows of `rhs`, into `out_rows` (the caller's
/// already-zeroed row slice of length `(i1 - i0) · rhs.cols()`).
///
/// This is the one packed/blocked engine behind
/// [`Matrix::matmul_packed_into`], [`Matrix::matmul_prefix_packed_into`] and
/// the parallel row-chunk dispatch: [`PACK_MR`]-row panels of `a` are packed
/// transposed, the inner dimension is tiled by [`PACK_KC`] and the output
/// columns by [`PACK_NC`]. For every output element the `k` terms are still
/// accumulated in ascending order (k-blocks ascend, `p` ascends within a
/// block), so the result is bit-for-bit identical to the naive kernel no
/// matter how the tiles fall. Callers run it through
/// [`packed_gemm_rows_wide`].
#[inline(always)]
pub(crate) fn packed_gemm_rows<T: Scalar>(
    a: &Matrix<T>,
    i0: usize,
    i1: usize,
    k_used: usize,
    rhs: &Matrix<T>,
    pack: &mut Vec<T>,
    out_rows: &mut [T],
) {
    let n = rhs.cols();
    debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
    pack.clear();
    pack.resize(PACK_MR * PACK_KC.min(k_used.max(1)), T::zero());
    for ib in (i0..i1).step_by(PACK_MR) {
        let h = PACK_MR.min(i1 - ib);
        let panel = &mut out_rows[(ib - i0) * n..(ib - i0 + h) * n];
        for p0 in (0..k_used).step_by(PACK_KC) {
            let p_end = (p0 + PACK_KC).min(k_used);
            // Pack this panel's k-slice transposed: pack[(p-p0)·MR + r] =
            // A[ib+r, p], so the p-loop below reads one contiguous group.
            for (r, a_row) in (ib..ib + h).map(|i| a.row(i)).enumerate() {
                for (p, &v) in a_row.iter().enumerate().take(p_end).skip(p0) {
                    pack[(p - p0) * PACK_MR + r] = v;
                }
            }
            for j0 in (0..n).step_by(PACK_NC) {
                let j_end = (j0 + PACK_NC).min(n);
                for p in p0..p_end {
                    let b_row = &rhs.row(p)[j0..j_end];
                    let group = &pack[(p - p0) * PACK_MR..(p - p0) * PACK_MR + h];
                    for (r, &a_rp) in group.iter().enumerate() {
                        let o_row = &mut panel[r * n + j0..r * n + j_end];
                        for (o, &b) in o_row.iter_mut().zip(b_row) {
                            *o += a_rp * b;
                        }
                    }
                }
            }
        }
    }
}

/// [`packed_gemm_rows`] through [`wide`]: the one call site, so the kernel
/// is compiled once per CPU path however many products use it.
fn packed_gemm_rows_wide<T: Scalar>(
    a: &Matrix<T>,
    i0: usize,
    i1: usize,
    k_used: usize,
    rhs: &Matrix<T>,
    pack: &mut Vec<T>,
    out_rows: &mut [T],
) {
    wide(
        #[inline(always)]
        || packed_gemm_rows(a, i0, i1, k_used, rhs, pack, out_rows),
    );
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

impl<T: Scalar> Matrix<T> {
    /// Naive `i-k-j` matrix product. Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `matmul`.
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
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        out.resize_zeroed(m, n);
        let (a, b, o) = (self.as_slice(), rhs.as_slice(), out.as_mut_slice());
        if (1..=NARROW_MAX).contains(&n) {
            dispatch_const!(narrow_product, n, m, k, |i, p| a[i * k + p], b, o);
            return;
        }
        if (1..=NARROW_MAX).contains(&k) {
            dispatch_const!(short_inner_matmul, k, a, b, n, o);
            return;
        }
        for i in 0..m {
            let a_row = self.row(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                let b_row = rhs.row(p);
                let o_row = out.row_mut(i);
                for j in 0..n {
                    o_row[j] += a_ip * b_row[j];
                }
            }
        }
    }

    /// Register-blocked engine: packs [`PACK_MR`]-row panels of `self`
    /// **transposed** into the caller's `pack` buffer, then updates the
    /// whole panel while each rhs row is hot in L1, with the inner dimension
    /// tiled by [`PACK_KC`] and the output columns by [`PACK_NC`]. Each rhs
    /// row is read once per panel instead of once per output row.
    /// Bit-for-bit identical to [`Matrix::matmul`] (per-element accumulation
    /// stays in ascending inner order), and allocation-free once `pack` and
    /// `out` have reached steady size.
    pub fn matmul_packed_into(&self, rhs: &Matrix<T>, pack: &mut Vec<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul_packed: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        out.resize_zeroed(m, n);
        packed_gemm_rows_wide(self, 0, m, k, rhs, pack, out.as_mut_slice());
    }

    /// Product of the first `k_used` columns of `self` with the first
    /// `k_used` rows of `rhs`, through the packed/blocked engine. This is
    /// the batched Q-evaluation's state-projection shape: `states` is
    /// `B × d` while the input weights carry `d + 1` rows (the bias row is
    /// applied separately), so the full product never exists. Bit-for-bit
    /// identical to accumulating `p = 0..k_used` naively in ascending order.
    pub fn matmul_prefix_packed_into(
        &self,
        rhs: &Matrix<T>,
        k_used: usize,
        pack: &mut Vec<T>,
        out: &mut Matrix<T>,
    ) {
        assert!(
            k_used <= self.cols() && k_used <= rhs.rows(),
            "matmul_prefix_packed: prefix {} exceeds operand dims ({}x{} * {}x{})",
            k_used,
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, n) = (self.rows(), rhs.cols());
        out.resize_zeroed(m, n);
        packed_gemm_rows_wide(self, 0, m, k_used, rhs, pack, out.as_mut_slice());
    }

    /// Size-dispatched product into a caller-owned output: naive loop for
    /// tiny shapes, the packed/blocked engine in the mid range, and — when
    /// the product clears [`parallel_flop_threshold`] **and** the pool has
    /// more than one worker — row-chunks of the same engine on the
    /// work-sharing pool. All three branches are bit-for-bit identical, so
    /// the dispatch (and the thread count) can never change a result byte.
    ///
    /// The parallel branch allocates per-chunk pack buffers; the sequential
    /// branches are allocation-free at steady state, and small products
    /// (everything the per-step RL hot loop issues at paper-scale sizes)
    /// always take a sequential branch.
    pub fn matmul_auto_into(&self, rhs: &Matrix<T>, pack: &mut Vec<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul_auto: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        let flops = m * k * n;
        if flops < PACK_FLOP_THRESHOLD || n < PACK_MR {
            self.matmul_into(rhs, out);
            return;
        }
        if flops < parallel_flop_threshold() || rayon::current_num_threads() <= 1 || m < 2 {
            self.matmul_packed_into(rhs, pack, out);
            return;
        }
        out.resize_zeroed(m, n);
        let rows_per = m
            .div_ceil(rayon::current_num_threads() * 2)
            .next_multiple_of(PACK_MR);
        let chunks: Vec<(usize, &mut [T])> = out
            .as_mut_slice()
            .chunks_mut(rows_per * n)
            .enumerate()
            .collect();
        chunks.into_par_iter().for_each(|(ci, chunk)| {
            let i0 = ci * rows_per;
            let rows = chunk.len() / n;
            let mut local_pack = Vec::new();
            packed_gemm_rows_wide(self, i0, i0 + rows, k, rhs, &mut local_pack, chunk);
        });
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
        let threads = rayon::current_num_threads();
        // Strictly above the threshold: the paper-scale Ñ = 64 Gram product
        // (exactly 64³) stays on the calling thread, as every other Ñ = 64
        // kernel does, so those runs never start the pool.
        if threads <= 1 || k * m * n <= parallel_flop_threshold() || m < 2 {
            t_matmul_rows_wide(self, rhs, 0, out.as_mut_slice());
            return;
        }
        let rows_per = m.div_ceil(threads * 2);
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

    #[test]
    fn packed_kernel_is_bit_identical_to_naive() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut pack = Vec::new();
        let mut out = Matrix::zeros(1, 1);
        // Remainders on every tile edge: panel height (PACK_MR = 8),
        // k-blocks (PACK_KC = 256) and column blocks (PACK_NC = 256).
        for (m, k, n) in [
            (1, 6, 4),
            (3, 5, 7),
            (4, 4, 4),
            (5, 64, 9),
            (9, 7, 65),
            (7, 8, 8),
            (8, 9, 7),
            (17, 255, 3),
            (2, 256, 5),
            (3, 257, 4),
            (2, 300, 259),
            (10, 513, 2),
        ] {
            let a = uniform_matrix::<f64, _>(m, k, -2.0, 2.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -2.0, 2.0, &mut rng);
            // Exact equality, not approximate: same accumulation order.
            a.matmul_packed_into(&b, &mut pack, &mut out);
            assert_eq!(a.matmul(&b), out, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prefix_packed_matches_naive_prefix_accumulation() {
        let mut rng = SmallRng::seed_from_u64(80);
        for (m, k_used, extra, n) in [(4, 3, 1, 9), (9, 8, 2, 17), (3, 257, 1, 5)] {
            let a = uniform_matrix::<f64, _>(m, k_used, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k_used + extra, n, -1.0, 1.0, &mut rng);
            let mut pack = Vec::new();
            let mut out = Matrix::zeros(1, 1);
            a.matmul_prefix_packed_into(&b, k_used, &mut pack, &mut out);
            // Reference: the naive ascending-p loop over the prefix.
            let mut expected = Matrix::zeros(m, n);
            for i in 0..m {
                for p in 0..k_used {
                    for j in 0..n {
                        expected[(i, j)] += a[(i, p)] * b[(p, j)];
                    }
                }
            }
            assert_eq!(out, expected, "{m}x{k_used}(+{extra})x{n}");
        }
    }

    #[test]
    fn auto_dispatch_is_bit_identical_across_all_branches() {
        let mut rng = SmallRng::seed_from_u64(81);
        let mut pack = Vec::new();
        let mut out = Matrix::zeros(1, 1);
        // Tiny (naive branch), mid (packed branch), large (parallel branch
        // once the threshold is forced down and threads up).
        for (m, k, n) in [(2, 3, 2), (24, 40, 33), (40, 64, 48)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = a.matmul(&b);
            a.matmul_auto_into(&b, &mut pack, &mut out);
            assert_eq!(out, expected, "sequential dispatch {m}x{k}x{n}");

            set_parallel_flop_threshold(1);
            rayon::set_num_threads(4);
            a.matmul_auto_into(&b, &mut pack, &mut out);
            rayon::set_num_threads(1);
            set_parallel_flop_threshold(0);
            assert_eq!(out, expected, "parallel dispatch {m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_match_and_reuse_buffers() {
        let mut rng = SmallRng::seed_from_u64(78);
        let mut out = Matrix::<f64>::zeros(1, 1);
        let mut pack = Vec::new();
        // Shrinking and growing shapes through the same scratch buffers.
        for (m, k, n) in [(8, 6, 7), (3, 9, 2), (12, 12, 12)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = a.matmul(&b);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, expected);
            a.matmul_packed_into(&b, &mut pack, &mut out);
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
