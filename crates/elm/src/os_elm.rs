//! OS-ELM: online sequential training (§2.2–2.3, Equations 5–8).
//!
//! After an *initial training* on a first chunk (`P₀`, `β₀`), the model is
//! updated one chunk at a time without revisiting old data:
//!
//! ```text
//! Pᵢ = Pᵢ₋₁ − Pᵢ₋₁Hᵢᵀ (I + HᵢPᵢ₋₁Hᵢᵀ)⁻¹ HᵢPᵢ₋₁
//! βᵢ = βᵢ₋₁ + PᵢHᵢᵀ (tᵢ − Hᵢβᵢ₋₁)
//! ```
//!
//! With batch size 1 the inverted matrix is `1×1`, so the whole update needs
//! only multiply–add plus **one reciprocal** — the observation (§2.2, after
//! Tsukada et al.) that makes the FPGA implementation feasible without an
//! SVD/QRD core. [`OsElm::seq_train_single`] is that fast path;
//! [`OsElm::seq_train`] is the general batched form, kept for equivalence
//! testing and for the ELM-vs-OS-ELM ablation.
//!
//! [`OsElm::seq_train_batch`] is `seq_train` on reusable workspaces. Its
//! time goes into four Ñ²·B passes over `P`: `P·Hᵀ`, `H·P`, the downdate
//! `P −= (P·Hᵀ)·S⁻¹·(H·P)` and the recompute of `P_new·Hᵀ` for β. All four
//! run on one register-blocked micro-kernel (`block`), 4 rows of one
//! operand by up to 4 lanes of the other (8 when the tiles run through
//! [`elmrl_linalg::simd::wide`] on an AVX2 host), with `Hᵀ` packed once
//! per chunk so the `P·Hᵀ` lanes are contiguous. Each accumulator is one
//! output element summed from zero in ascending order, so
//! `seq_train_batch` stays bit for bit equal to `seq_train` on any thread
//! count and any CPU.

use crate::config::OsElmConfig;
use crate::model::ElmModel;
use elmrl_linalg::decomp::{cholesky_into, solve_spd_into, Cholesky};
use elmrl_linalg::solve::inverse;
use elmrl_linalg::{on_pool, simd, LinalgError, Matrix, Scalar};
use rand::Rng;
use rayon::prelude::*;
use std::fmt;

/// Row-tile height of the P passes: the unit of work handed to the
/// work-sharing pool and the stride of the inline tile loop. The `P·Hᵀ` and
/// downdate passes take 64-row tiles of `P`, the `H·P` pass 64-column
/// bands. One tile of `P` at Ñ = 1024 is 512 KiB, which streams through L2.
/// The `elm.seq_train` row of perfbench's traced `highdim-1024` run
/// (`python3 perfbench/run.py --workload highdim-1024 --trace 1`) times the
/// passes at that size.
pub const P_UPDATE_TILE: usize = 64;

/// Errors produced by OS-ELM training.
#[derive(Debug, Clone, PartialEq)]
pub enum OsElmError {
    /// `seq_train` was called before `init_train`.
    NotInitialized,
    /// `init_train` was called twice.
    AlreadyInitialized,
    /// Input/target shapes disagree with the model configuration.
    ShapeMismatch(String),
    /// A linear-algebra failure (singular Gram matrix etc.).
    Linalg(LinalgError),
}

impl fmt::Display for OsElmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsElmError::NotInitialized => {
                write!(f, "sequential training requires init_train first")
            }
            OsElmError::AlreadyInitialized => write!(f, "init_train called twice"),
            OsElmError::ShapeMismatch(d) => write!(f, "shape mismatch: {d}"),
            OsElmError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for OsElmError {}

impl From<LinalgError> for OsElmError {
    fn from(e: LinalgError) -> Self {
        OsElmError::Linalg(e)
    }
}

/// [`LinalgError::InvalidData`] when any of `values` is NaN or infinite:
/// ReLU would map a NaN input to a silent zero hidden row, and a NaN target
/// would poison `β`.
fn check_finite<'a, T: Scalar>(
    caller: &str,
    mut values: impl Iterator<Item = &'a T>,
) -> Result<(), OsElmError> {
    if values.all(|v| v.to_f64().is_finite()) {
        Ok(())
    } else {
        Err(OsElmError::Linalg(LinalgError::InvalidData {
            detail: format!("OS-ELM {caller}: non-finite sample or target"),
        }))
    }
}

/// Reusable workspaces for the sequential-update hot paths — the batch-size-1
/// fast path and the chunked batch-B recursion. Every matrix keeps its
/// allocation across calls (see [`Matrix::resize_zeroed`]), so once the
/// workspaces have reached their steady size both paths perform **zero
/// matrix heap allocations** — the throughput property the paper's line-rate
/// claim rests on, asserted by the counting-allocator test in `elmrl-core`.
/// Workspace shapes are quoted for a chunk of `B` samples; the fast path is
/// the `B = 1` case.
#[derive(Clone, Debug)]
struct SeqScratch<T: Scalar> {
    /// `1 × n` staging row for the single-sample input.
    x: Matrix<T>,
    /// `B × Ñ` hidden activation `H`.
    h: Matrix<T>,
    /// `Ñ × B` — `P·Hᵀ` before the downdate, `P_new·Hᵀ` after.
    ph: Matrix<T>,
    /// `B × Ñ` — `H·P`.
    hp: Matrix<T>,
    /// `B × m` — the prediction `H·β`, overwritten in place by the residual
    /// `t − H·β` that drives the β update.
    pred: Matrix<T>,
    /// `B × B` — the innovation matrix `S = I + H·P·Hᵀ` (batch path only).
    s: Matrix<T>,
    /// `B × B` — the Cholesky factor of `S` (batch path only).
    l: Matrix<T>,
    /// `B × Ñ` — the solve `S⁻¹·(H·P)` (batch path). Before the solve, and
    /// on the pooled single-sample path, it stages `H·P` band by band (see
    /// [`ph_hp`]).
    sol: Matrix<T>,
    /// `Ñ × B` — `Hᵀ`, packed once per chunk as the `B` operand of the
    /// `P·Hᵀ` register blocks (`Ñ·B·8` bytes for `f64`: 128 KiB at Ñ = 1024,
    /// B = 16). Unused on the inline single-sample path.
    ht: Matrix<T>,
}

// Manual impl: `derive(Default)` would demand `T: Default`, which `Scalar`
// does not promise; empty matrices need no such bound.
impl<T: Scalar> Default for SeqScratch<T> {
    fn default() -> Self {
        Self {
            x: Matrix::default(),
            h: Matrix::default(),
            ph: Matrix::default(),
            hp: Matrix::default(),
            pred: Matrix::default(),
            s: Matrix::default(),
            l: Matrix::default(),
            sol: Matrix::default(),
            ht: Matrix::default(),
        }
    }
}

/// Rows of the register block: four rows of `A` share every load of `B`.
/// Lanes come in strips of 8 (AVX2 only), 4, 2 and 1 (see [`block_rows`]):
/// on baseline x86-64 (SSE2: sixteen 2-lane registers) a 4×4 block of `f64`
/// sums takes eight registers, while a 4×8 block needs all sixteen and
/// spills; with AVX2's 4-lane registers the 4×8 block takes eight.
const BLOCK_ROWS: usize = 4;

/// Depth of one `k` block of the `H·P` pass: the `HP_DEPTH` rows of a band
/// of `P` stay cached while every row group of `H` passes over them, so `P`
/// is read from memory once per chunk.
const HP_DEPTH: usize = 32;

/// The `B` operand of [`block`]: element `(k, l)` is
/// `data[k·stride + off + l]`.
#[derive(Clone, Copy)]
struct Panel<'a, T> {
    data: &'a [T],
    stride: usize,
    off: usize,
}

impl<'a, T: Scalar> Panel<'a, T> {
    /// The whole of `m`: element `(k, l)` is `m[(k, l)]`.
    fn of(m: &'a Matrix<T>) -> Self {
        Panel {
            data: m.as_slice(),
            stride: m.cols(),
            off: 0,
        }
    }
}

/// How a finished register block lands in its output.
#[derive(Clone, Copy)]
enum Epilogue {
    /// `out = Σ` (the sum starts at zero).
    Store,
    /// `out = out + Σ…`: the sum resumes from `out`, one product at a time,
    /// so a `k`-blocked sum adds in the same order as an unblocked one.
    Resume,
    /// `out += Σ` (the sum starts at zero).
    Add,
    /// `out −= Σ` (the sum starts at zero).
    Sub,
}

/// The register-blocked micro-kernel of every P pass (Goto & van de Geijn,
/// "Anatomy of high-performance matrix multiplication", ACM TOMS 34(3),
/// 2008): `acc[i][l] += a[i][k]·b(k, l)` for `k` ascending over `a[i]`,
/// `R` rows by `W` lanes. Each accumulator is one output element and adds
/// one product `a·b` (in that operand order) per step, exactly as a plain
/// dot loop does, so the block changes no bit; it only keeps `R·W`
/// independent sums in registers, which lets the compiler vectorise across
/// lanes and overlap the add latencies.
#[inline(always)]
fn block<T: Scalar, const R: usize, const W: usize>(
    acc: &mut [[T; W]; R],
    a: [&[T]; R],
    b: Panel<'_, T>,
) {
    let depth = a[0].len();
    let a = a.map(|row| &row[..depth]);
    let mut s = *acc;
    for (k, b_row) in b.data[b.off..].chunks(b.stride).take(depth).enumerate() {
        let b_k: &[T; W] = b_row[..W].try_into().expect("lane strip inside the panel");
        for (s_i, a_i) in s.iter_mut().zip(&a) {
            let a_ik = a_i[k];
            for (v, &b_kl) in s_i.iter_mut().zip(b_k) {
                *v += a_ik * b_kl;
            }
        }
    }
    *acc = s;
}

/// [`block`] on the `W` lanes of `out` starting at `at` (panel lanes
/// `at..at + W` past its offset), finished through `epilogue`.
#[inline(always)]
fn strip<T: Scalar, const R: usize, const W: usize>(
    a: [&[T]; R],
    b: Panel<'_, T>,
    out: &mut [&mut [T]; R],
    at: usize,
    epilogue: Epilogue,
) {
    let mut acc = [[T::zero(); W]; R];
    if let Epilogue::Resume = epilogue {
        for (acc_i, out_i) in acc.iter_mut().zip(out.iter()) {
            acc_i.copy_from_slice(&out_i[at..at + W]);
        }
    }
    block(
        &mut acc,
        a,
        Panel {
            off: b.off + at,
            ..b
        },
    );
    for (acc_i, out_i) in acc.iter().zip(out.iter_mut()) {
        for (o, &v) in out_i[at..at + W].iter_mut().zip(acc_i) {
            match epilogue {
                Epilogue::Store | Epilogue::Resume => *o = v,
                Epilogue::Add => *o += v,
                Epilogue::Sub => *o -= v,
            }
        }
    }
}

/// `out[i][l] ∘= Σ_k a[i][k]·b(k, l)` for every lane of `out[i]`, in strips
/// of 8 (when `lanes8`), 4, 2 and 1 lanes. The strip width only groups
/// independent sums, so it changes no bit.
#[inline(always)]
fn block_rows<T: Scalar, const R: usize>(
    a: [&[T]; R],
    b: Panel<'_, T>,
    mut out: [&mut [T]; R],
    epilogue: Epilogue,
    lanes8: bool,
) {
    let lanes = out[0].len();
    let mut at = 0;
    while lanes8 && lanes - at >= 8 {
        strip::<T, R, 8>(a, b, &mut out, at, epilogue);
        at += 8;
    }
    while lanes - at >= 4 {
        strip::<T, R, 4>(a, b, &mut out, at, epilogue);
        at += 4;
    }
    if lanes - at >= 2 {
        strip::<T, R, 2>(a, b, &mut out, at, epilogue);
        at += 2;
    }
    if lanes > at {
        strip::<T, R, 1>(a, b, &mut out, at, epilogue);
    }
}

/// [`block_rows`] over the rows of `out` (each `width` long), four at a
/// time with single rows for the remainder; `a_row(i)` is row `i` of `A`.
#[inline(always)]
fn for_row_blocks<'a, T: Scalar>(
    a_row: impl Fn(usize) -> &'a [T],
    out: &mut [T],
    width: usize,
    b: Panel<'_, T>,
    epilogue: Epilogue,
    lanes8: bool,
) {
    for (g, group) in out.chunks_mut(BLOCK_ROWS * width).enumerate() {
        let i0 = g * BLOCK_ROWS;
        if group.len() == BLOCK_ROWS * width {
            let mut rows = group.chunks_exact_mut(width);
            let out: [&mut [T]; BLOCK_ROWS] =
                std::array::from_fn(|_| rows.next().expect("a full row group"));
            block_rows(
                std::array::from_fn(|i| a_row(i0 + i)),
                b,
                out,
                epilogue,
                lanes8,
            );
        } else {
            for (i, row) in group.chunks_exact_mut(width).enumerate() {
                block_rows([a_row(i0 + i)], b, [row], epilogue, lanes8);
            }
        }
    }
}

/// Runs `f` on every tile: on the work-sharing pool when `parallel`, else
/// inline in order. Tiles write disjoint outputs, so both agree bit for bit.
fn run_tiles<I>(parallel: bool, tiles: I, f: impl Fn(I::Item) + Sync)
where
    I: Iterator,
    I::Item: Send,
{
    if parallel {
        tiles.collect::<Vec<_>>().into_par_iter().for_each(f);
    } else {
        tiles.for_each(f);
    }
}

/// Pass 1 of the RLS update: `ph = P·Hᵀ` on row tiles (`A` = rows of `P`,
/// `B` = `Hᵀ`, packed into `ht` here) and `hp = H·P` on column bands
/// (`A` = rows of `H`, `B` = the band's columns of `P`, blocked over `k`).
/// The bands are computed into `stage` band by band, each band `B` rows of
/// its own width, then copied into `hp`. Each tile runs through
/// [`simd::wide`]; `lanes8` opens the 8-lane strip (see [`block_rows`]).
#[allow(clippy::too_many_arguments)]
fn ph_hp<T: Scalar>(
    p: &Matrix<T>,
    h: &Matrix<T>,
    ht: &mut Matrix<T>,
    ph: &mut Matrix<T>,
    hp: &mut Matrix<T>,
    stage: &mut Matrix<T>,
    parallel: bool,
    lanes8: bool,
) {
    let (k, n) = h.shape();
    ht.resize_zeroed(n, k);
    for (b, h_row) in h.as_slice().chunks(n).enumerate() {
        for (c, &v) in h_row.iter().enumerate() {
            ht[(c, b)] = v;
        }
    }
    let ht = Panel::of(ht);
    ph.resize_zeroed(n, k);
    let ph_tiles = ph.as_mut_slice().chunks_mut(P_UPDATE_TILE * k).enumerate();
    run_tiles(parallel, ph_tiles, |(t, tile)| {
        let r0 = t * P_UPDATE_TILE;
        let a_row = |i| p.row(r0 + i);
        simd::wide(
            #[inline(always)]
            || for_row_blocks(a_row, tile, k, ht, Epilogue::Store, lanes8),
        );
    });

    stage.resize_zeroed(k, n);
    let bands = stage
        .as_mut_slice()
        .chunks_mut(P_UPDATE_TILE * k)
        .enumerate();
    run_tiles(parallel, bands, |(t, band)| {
        let width = band.len() / k;
        simd::wide(
            #[inline(always)]
            || {
                for kb in (0..n).step_by(HP_DEPTH) {
                    let ke = (kb + HP_DEPTH).min(n);
                    let p_band = Panel {
                        data: &p.as_slice()[kb * n..ke * n],
                        stride: n,
                        off: t * P_UPDATE_TILE,
                    };
                    let a_row = |i| &h.row(i)[kb..ke];
                    for_row_blocks(a_row, band, width, p_band, Epilogue::Resume, lanes8);
                }
            },
        );
    });
    hp.resize_zeroed(k, n);
    for (t, band) in stage.as_slice().chunks(P_UPDATE_TILE * k).enumerate() {
        let (c0, width) = (t * P_UPDATE_TILE, band.len() / k);
        for (b, src) in band.chunks(width).enumerate() {
            hp.row_mut(b)[c0..c0 + width].copy_from_slice(src);
        }
    }
}

/// Pass 2 of the batch-B RLS update over one row tile, four rows at a time:
/// the Equation 6 downdate `P[r] −= ph[r]·S⁻¹HP` (`A` = rows of `ph`, `B` =
/// `sol`); then `ph[r] ← P_new[r]·Hᵀ` on the four finished rows (`A` = rows
/// of `P`, `B` = the packed `Hᵀ`); then `β[r] += ph_new[r]·e` (`B` = the
/// residual). `P` is read and written once per chunk.
#[inline(always)]
fn downdate_tile<T: Scalar>(
    p_rows: &mut [T],
    ph_rows: &mut [T],
    beta_rows: &mut [T],
    ht: &Matrix<T>,
    sol: &Matrix<T>,
    resid: &Matrix<T>,
    lanes8: bool,
) {
    let (n, k) = ht.shape();
    let m = resid.cols();
    for ((p_g, ph_g), beta_g) in p_rows
        .chunks_mut(BLOCK_ROWS * n)
        .zip(ph_rows.chunks_mut(BLOCK_ROWS * k))
        .zip(beta_rows.chunks_mut(BLOCK_ROWS * m))
    {
        let ph_old: &[T] = ph_g;
        for_row_blocks(
            |i| &ph_old[i * k..][..k],
            p_g,
            n,
            Panel::of(sol),
            Epilogue::Sub,
            lanes8,
        );
        let p_new: &[T] = p_g;
        for_row_blocks(
            |i| &p_new[i * n..][..n],
            ph_g,
            k,
            Panel::of(ht),
            Epilogue::Store,
            lanes8,
        );
        let ph_new: &[T] = ph_g;
        for_row_blocks(
            |i| &ph_new[i * k..][..k],
            beta_g,
            m,
            Panel::of(resid),
            Epilogue::Add,
            lanes8,
        );
    }
}

/// Pass 2 of the batch-B RLS update: [`downdate_tile`] over every
/// `P_UPDATE_TILE`-row tile of `P`, `ph` and `β`, each tile through
/// [`simd::wide`]; `lanes8` opens the 8-lane strip (see [`block_rows`]).
#[allow(clippy::too_many_arguments)]
fn downdate<T: Scalar>(
    p: &mut Matrix<T>,
    ph: &mut Matrix<T>,
    beta: &mut Matrix<T>,
    ht: &Matrix<T>,
    sol: &Matrix<T>,
    resid: &Matrix<T>,
    parallel: bool,
    lanes8: bool,
) {
    let (n, k, m) = (p.cols(), ph.cols(), beta.cols());
    let tiles = p
        .as_mut_slice()
        .chunks_mut(P_UPDATE_TILE * n)
        .zip(ph.as_mut_slice().chunks_mut(P_UPDATE_TILE * k))
        .zip(beta.as_mut_slice().chunks_mut(P_UPDATE_TILE * m));
    run_tiles(parallel, tiles, |((p_rows, ph_rows), beta_rows)| {
        simd::wide(
            #[inline(always)]
            || downdate_tile(p_rows, ph_rows, beta_rows, ht, sol, resid, lanes8),
        );
    });
}

/// Pass 1 of the inline single-sample update: one streamed read of `P`
/// yields both `ph = P·hᵀ` and `hp = h·P` (pre-zeroed). Four rows of `P`
/// stream together, giving four independent `ph` dot chains in flight while
/// the `hp` element picks up the same four terms in ascending row order —
/// per element, every operation and its order match [`ph_hp`] exactly.
fn fused_ph_hp_single<T: Scalar>(p: &Matrix<T>, h_row: &[T], ph: &mut Matrix<T>, hp_row: &mut [T]) {
    let n = p.rows();
    let mut r = 0;
    while r + 4 <= n {
        let (p0, p1, p2, p3) = (p.row(r), p.row(r + 1), p.row(r + 2), p.row(r + 3));
        let (h0, h1, h2, h3) = (h_row[r], h_row[r + 1], h_row[r + 2], h_row[r + 3]);
        let mut a0 = T::zero();
        let mut a1 = T::zero();
        let mut a2 = T::zero();
        let mut a3 = T::zero();
        for (((((&c0, &c1), &c2), &c3), &h_c), v) in p0
            .iter()
            .zip(p1)
            .zip(p2)
            .zip(p3)
            .zip(h_row)
            .zip(hp_row.iter_mut())
        {
            a0 += c0 * h_c;
            a1 += c1 * h_c;
            a2 += c2 * h_c;
            a3 += c3 * h_c;
            let mut acc = *v;
            acc += h0 * c0;
            acc += h1 * c1;
            acc += h2 * c2;
            acc += h3 * c3;
            *v = acc;
        }
        ph[(r, 0)] = a0;
        ph[(r + 1, 0)] = a1;
        ph[(r + 2, 0)] = a2;
        ph[(r + 3, 0)] = a3;
        r += 4;
    }
    while r < n {
        let p_row = p.row(r);
        let h_r = h_row[r];
        let mut acc = T::zero();
        for ((&p_rc, &h_c), v) in p_row.iter().zip(h_row).zip(hp_row.iter_mut()) {
            acc += p_rc * h_c;
            *v += h_r * p_rc;
        }
        ph[(r, 0)] = acc;
        r += 1;
    }
}

/// Fused pass 2 of the single-sample RLS update over a contiguous row
/// range: per row r, the rank-1 downdate `P[r] −= (ph[r]/denom)·hp`, the
/// recompute `ph[r] ← P_new[r]·hᵀ` (row r is final after its own
/// downdate), and the β-row update `β[r] += ph_new[r]·e` — fused per
/// element (each `P[r][c]` is downdated immediately before its use in the
/// dot, so the dot still sums the final values ascending `c`), and
/// processed four rows at a time so four independent dot chains are in
/// flight. Per element every operation and its order match the one-row
/// downdate-then-dot loop exactly; the interleave is bit-identical.
fn rank1_downdate_rows<T: Scalar>(
    p_rows: &mut [T],
    ph_rows: &mut [T],
    beta_rows: &mut [T],
    hp_row: &[T],
    h_row: &[T],
    resid: &[T],
    inv_denom: T,
) {
    let n = hp_row.len();
    let m = resid.len();
    for ((pb, phb), bb) in p_rows
        .chunks_mut(4 * n)
        .zip(ph_rows.chunks_mut(4))
        .zip(beta_rows.chunks_mut(4 * m))
    {
        if phb.len() == 4 {
            let (p01, p23) = pb.split_at_mut(2 * n);
            let (p0, p1) = p01.split_at_mut(n);
            let (p2, p3) = p23.split_at_mut(n);
            let s0 = phb[0] * inv_denom;
            let s1 = phb[1] * inv_denom;
            let s2 = phb[2] * inv_denom;
            let s3 = phb[3] * inv_denom;
            let mut a0 = T::zero();
            let mut a1 = T::zero();
            let mut a2 = T::zero();
            let mut a3 = T::zero();
            for (((((p0c, p1c), p2c), p3c), &hp_c), &h_c) in p0
                .iter_mut()
                .zip(p1.iter_mut())
                .zip(p2.iter_mut())
                .zip(p3.iter_mut())
                .zip(hp_row)
                .zip(h_row)
            {
                let sub0 = s0 * hp_c;
                *p0c -= sub0;
                a0 += *p0c * h_c;
                let sub1 = s1 * hp_c;
                *p1c -= sub1;
                a1 += *p1c * h_c;
                let sub2 = s2 * hp_c;
                *p2c -= sub2;
                a2 += *p2c * h_c;
                let sub3 = s3 * hp_c;
                *p3c -= sub3;
                a3 += *p3c * h_c;
            }
            phb[0] = a0;
            phb[1] = a1;
            phb[2] = a2;
            phb[3] = a3;
            for (r, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                for (beta_rc, &e_c) in bb[r * m..(r + 1) * m].iter_mut().zip(resid) {
                    let add = acc * e_c;
                    *beta_rc += add;
                }
            }
        } else {
            // Remainder rows (fewer than four left): the plain fused loop.
            for ((p_row, ph_r), beta_row) in
                pb.chunks_mut(n).zip(phb.iter_mut()).zip(bb.chunks_mut(m))
            {
                let scale = *ph_r * inv_denom;
                let mut acc = T::zero();
                for ((p_rc, &hp_c), &h_c) in p_row.iter_mut().zip(hp_row).zip(h_row) {
                    let sub = scale * hp_c;
                    *p_rc -= sub;
                    acc += *p_rc * h_c;
                }
                *ph_r = acc;
                for (beta_rc, &e_c) in beta_row.iter_mut().zip(resid) {
                    let add = acc * e_c;
                    *beta_rc += add;
                }
            }
        }
    }
}

/// An Online Sequential Extreme Learning Machine.
#[derive(Clone, Debug)]
pub struct OsElm<T: Scalar> {
    model: ElmModel<T>,
    /// `P` matrix of the recursive update; `None` until initial training.
    p: Option<Matrix<T>>,
    l2_delta: f64,
    relative_l2: bool,
    /// Counts of training calls, used by the harness timing model.
    init_train_count: usize,
    seq_train_count: usize,
    /// Workspaces of the single-sample fast path (never observable through
    /// the public API; cloned along with the learner, which is harmless).
    scratch: SeqScratch<T>,
}

impl<T: Scalar> OsElm<T> {
    /// Initialise the network (random `α`, `b`; zero `β`; no `P` yet).
    pub fn new<R: Rng + ?Sized>(config: &OsElmConfig, rng: &mut R) -> Self {
        Self {
            model: ElmModel::new(config, rng),
            p: None,
            l2_delta: config.l2_delta,
            relative_l2: config.relative_l2,
            init_train_count: 0,
            seq_train_count: 0,
            scratch: SeqScratch::default(),
        }
    }

    /// Wrap an existing model (used by the Q-network layer when it resets β
    /// but keeps α).
    pub fn from_model(model: ElmModel<T>, l2_delta: f64) -> Self {
        Self {
            model,
            p: None,
            l2_delta,
            relative_l2: false,
            init_train_count: 0,
            seq_train_count: 0,
            scratch: SeqScratch::default(),
        }
    }

    /// Borrow the underlying model.
    pub fn model(&self) -> &ElmModel<T> {
        &self.model
    }

    /// The ReOS-ELM regularisation strength `δ` used at initial training.
    pub fn l2_delta(&self) -> f64 {
        self.l2_delta
    }

    /// Borrow the `P` matrix (None before initial training).
    pub fn p_matrix(&self) -> Option<&Matrix<T>> {
        self.p.as_ref()
    }

    /// `true` once initial training has run.
    pub fn is_initialized(&self) -> bool {
        self.p.is_some()
    }

    /// How many times `init_train` has run: 0 or 1, since a second call is
    /// [`OsElmError::AlreadyInitialized`].
    pub fn init_train_count(&self) -> usize {
        self.init_train_count
    }

    /// How many sequential updates have run.
    pub fn seq_train_count(&self) -> usize {
        self.seq_train_count
    }

    /// Initial training (Equation 7 / Equation 8):
    /// `P₀ = (H₀ᵀH₀ + δI)⁻¹`, `β₀ = P₀H₀ᵀt₀`.
    ///
    /// With `δ = 0` this requires at least `Ñ` linearly independent rows in
    /// the chunk (the paper fills buffer `D` with `Ñ` samples first,
    /// Algorithm 1 lines 16–19); with `δ > 0` (ReOS-ELM) any chunk size works.
    ///
    /// A non-finite entry in `x₀` or `t₀` is [`LinalgError::InvalidData`]
    /// and leaves the learner untouched: ReLU would map a NaN input to a
    /// silent zero hidden row, and a NaN target would poison all of `β`.
    ///
    /// `H₀` is released once `H₀ᵀH₀` and `H₀ᵀt₀` exist, and the Gram matrix
    /// once Cholesky has factored it, so at most two `Ñ × Ñ` matrices are
    /// live at a time (the factor and `P₀`). The LU fallback for a Gram
    /// matrix that rounding left indefinite still sees the Gram matrix.
    pub fn init_train(&mut self, x0: &Matrix<T>, t0: &Matrix<T>) -> Result<(), OsElmError> {
        if self.p.is_some() {
            return Err(OsElmError::AlreadyInitialized);
        }
        self.check_shapes(x0, t0)?;
        check_finite("init_train", x0.iter().chain(t0.iter()))?;
        let h0 = self.model.hidden(x0);
        let n_hidden = self.model.hidden_dim();
        let mut gram = h0.t_matmul(&h0);
        if self.l2_delta > 0.0 {
            // Relative mode scales δ by the mean squared hidden activation so
            // the penalty stays proportionate to the feature energy (see
            // `OsElmConfig::relative_l2`).
            let effective = if self.relative_l2 {
                let mean_sq =
                    h0.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>() / h0.len() as f64;
                self.l2_delta * mean_sq.max(f64::MIN_POSITIVE)
            } else {
                self.l2_delta
            };
            let delta = T::from_f64(effective);
            for i in 0..n_hidden {
                gram[(i, i)] += delta;
            }
        }
        let ht = h0.t_matmul(t0);
        drop(h0);
        let p0 = match Cholesky::decompose(&gram) {
            Ok(ch) => {
                drop(gram);
                ch.inverse()?
            }
            Err(LinalgError::NotPositiveDefinite { .. }) => inverse(&gram)?,
            Err(e) => return Err(e.into()),
        };
        self.model.set_beta(p0.matmul(&ht));
        self.p = Some(p0);
        self.init_train_count += 1;
        Ok(())
    }

    /// General sequential update with an arbitrary chunk size (Equation 6),
    /// in the allocating reference form: every intermediate is a fresh
    /// matrix. A non-finite entry in `x` or `t` is
    /// [`LinalgError::InvalidData`] and leaves `P` and `β` untouched, as in
    /// [`OsElm::init_train`]; so do the other sequential entry points. The innovation matrix `S = I + H·P·Hᵀ` is symmetric positive
    /// definite (P is SPD by construction), so the solve goes through
    /// Cholesky — with an LU fallback for the rare case where rounding has
    /// pushed `S` off positive definiteness.
    ///
    /// [`OsElm::seq_train_batch`] performs the **same arithmetic** through
    /// reusable workspaces; the equivalence proptest pins the two paths
    /// bit for bit.
    pub fn seq_train(&mut self, x: &Matrix<T>, t: &Matrix<T>) -> Result<(), OsElmError> {
        self.check_shapes(x, t)?;
        check_finite("seq_train", x.iter().chain(t.iter()))?;
        let p = self.p.as_ref().ok_or(OsElmError::NotInitialized)?;
        let h = self.model.hidden(x);
        let k = h.rows();

        // S = I + H·P·Hᵀ  (k×k)
        let ph_t = p.matmul_t(&h); // P·Hᵀ (Ñ×k)
        let hp = h.matmul(p); // H·P (k×Ñ)
        let mut s = h.matmul(&ph_t); // H·P·Hᵀ
        for i in 0..k {
            s[(i, i)] += T::one();
        }
        let sol = match Cholesky::decompose(&s) {
            Ok(ch) => ch.solve(&hp)?, // S⁻¹·H·P (k×Ñ)
            Err(LinalgError::NotPositiveDefinite { .. }) => inverse(&s)?.matmul(&hp),
            Err(e) => return Err(e.into()),
        };

        // P ← P − P·Hᵀ·S⁻¹·H·P
        let update = ph_t.matmul(&sol);
        let new_p = p - &update;

        // β ← β + P·Hᵀ·(t − H·β)
        let residual = t - &h.matmul(self.model.beta());
        let delta_beta = new_p.matmul_t(&h).matmul(&residual);
        let new_beta = self.model.beta() + &delta_beta;

        self.p = Some(new_p);
        self.model.set_beta(new_beta);
        self.seq_train_count += 1;
        Ok(())
    }

    /// Batch-B sequential update — the Equation 6 chunked recursion rebuilt
    /// on the reusable `SeqScratch` workspaces, so the steady-state update
    /// performs **zero matrix heap allocations** for any chunk size. One
    /// B-chunk update equals B single-sample updates in exact arithmetic
    /// (the recursion is block-exact); in floating point the two drift only
    /// at rounding level, which the equivalence tests bound at `1e-9`.
    ///
    /// The arithmetic is operation-for-operation the allocating
    /// [`OsElm::seq_train`] (every `*_into` kernel and the Cholesky
    /// workspace kernels are bit-for-bit pinned against their allocating
    /// twins), so the two entry points return bit-identical `P` and `β` —
    /// the property the `elmrl-elm` proptest asserts.
    pub fn seq_train_batch(&mut self, x: &Matrix<T>, t: &Matrix<T>) -> Result<(), OsElmError> {
        self.check_shapes(x, t)?;
        check_finite("seq_train_batch", x.iter().chain(t.iter()))?;
        let Self {
            model, p, scratch, ..
        } = self;
        let p = p.as_mut().ok_or(OsElmError::NotInitialized)?;
        let SeqScratch {
            h,
            ph,
            hp,
            pred,
            s,
            l,
            sol,
            ht,
            ..
        } = scratch;
        let k = x.rows();
        let n_hidden = model.hidden_dim();
        let _span = elmrl_telemetry::hist!("elm.batch_rls").span();

        // H = G(x·α + b) (B×Ñ).
        model.hidden_into(x, h);

        // The P passes dominate the chunk update (everything else is
        // O(B²·Ñ) or smaller); their tiles run on the work-sharing pool when
        // they clear the parallel threshold and the pool has workers.
        let parallel = on_pool(2 * k * n_hidden * n_hidden);
        if parallel {
            elmrl_telemetry::counter!("elm.batch_rls.par").add(1);
        } else {
            elmrl_telemetry::counter!("elm.batch_rls.seq").add(1);
        }

        // Pass 1 — P·Hᵀ (Ñ×B) and H·P (B×Ñ); per output element the
        // accumulation order is the `matmul_t_into` / `matmul_into` one.
        // With AVX2 the register block widens to 4×8 (see `block_rows`).
        let lanes8 = simd::avx2();
        ph_hp(p, h, ht, ph, hp, sol, parallel, lanes8);

        // S = I + H·P·Hᵀ (B×B).
        h.matmul_into(ph, s);
        for i in 0..k {
            s[(i, i)] += T::one();
        }
        match cholesky_into(s, l) {
            Ok(()) => solve_spd_into(l, hp, sol).map_err(OsElmError::from)?,
            Err(LinalgError::NotPositiveDefinite { .. }) => {
                // Rounding pushed S off SPD — rare enough that the LU
                // fallback may allocate, exactly as `seq_train` does.
                inverse(s)?.matmul_into(hp, sol);
            }
            Err(e) => return Err(e.into()),
        }

        // Residual e = t − H·β (B×m), in place on the prediction buffer.
        // Depends only on H and the pre-update β, so hoisting it above the
        // downdate cannot change a byte.
        h.matmul_into(model.beta(), pred);
        for r in 0..k {
            let t_row = t.row(r);
            for (c, v) in pred.row_mut(r).iter_mut().enumerate() {
                *v = t_row[c] - *v;
            }
        }

        // Pass 2, tiled by `P_UPDATE_TILE` rows — per row r:
        //   P[r] ← P[r] − (P·Hᵀ)[r]·S⁻¹·(H·P)   (the Equation 6 downdate)
        //   ph[r] ← P_new[r]·Hᵀ                  (row r is final after its
        //                                         own downdate)
        //   β[r] ← β[r] + ph_new[r]·e
        // Row r of every operand is independent of the others, and each
        // element keeps the allocating kernels' ascending accumulation
        // order, so this is bit-identical to `seq_train` while touching P
        // once instead of four times.
        downdate(p, ph, model.beta_mut(), ht, sol, pred, parallel, lanes8);

        self.seq_train_count += 1;
        Ok(())
    }

    /// Batch-size-1 fast path: the `(I + hPhᵀ)` term is a scalar, so the
    /// matrix inversion collapses to one reciprocal (§2.2). `x` and `t` are
    /// single samples given as slices.
    ///
    /// This path is **allocation-free at steady state**: `P` is downdated
    /// and `β` is updated in place, and every intermediate (`h`, `P·hᵀ`,
    /// `h·P`, `h·β`) lives in a reusable workspace. The arithmetic — and so
    /// the result — is bit-for-bit what the historical clone-based
    /// implementation produced, which `batch_one_fast_path_matches_general_
    /// update` below pins against the general chunked recursion.
    pub fn seq_train_single(&mut self, x: &[T], t: &[T]) -> Result<(), OsElmError> {
        if x.len() != self.model.input_dim() {
            return Err(OsElmError::ShapeMismatch(format!(
                "input has {} features, expected {}",
                x.len(),
                self.model.input_dim()
            )));
        }
        if t.len() != self.model.output_dim() {
            return Err(OsElmError::ShapeMismatch(format!(
                "target has {} outputs, expected {}",
                t.len(),
                self.model.output_dim()
            )));
        }
        check_finite("seq_train_single", x.iter().chain(t))?;
        let Self {
            model, p, scratch, ..
        } = self;
        let p = p.as_mut().ok_or(OsElmError::NotInitialized)?;
        let SeqScratch {
            x: staging,
            h,
            ph,
            hp,
            pred,
            sol,
            ht,
            ..
        } = scratch;
        let n_hidden = model.hidden_dim();
        let m = model.output_dim();
        let _span = elmrl_telemetry::hist!("elm.p_update").span();

        // h: 1×Ñ hidden activation of the sample (through the staging row).
        staging.resize_zeroed(1, model.input_dim());
        staging.set_row(0, x);
        model.hidden_into(staging, h);

        // The two O(Ñ²) P passes below go to the work-sharing pool when they
        // clear the parallel threshold (never on a 1-worker pool).
        let parallel = on_pool(2 * n_hidden * n_hidden);

        // Pass 1 — ph = P·hᵀ (Ñ×1) and hp = h·P (1×Ñ); per element the
        // accumulation order matches the `matmul_t_into` + `matmul_into`
        // pair exactly. Inline, one fused read of P yields both; on the pool
        // the batch path's tiles run with one lane.
        if parallel {
            elmrl_telemetry::counter!("elm.p_update.par").add(1);
            ph_hp(p, h, ht, ph, hp, sol, true, simd::avx2());
        } else {
            elmrl_telemetry::counter!("elm.p_update.seq").add(1);
            ph.resize_zeroed(n_hidden, 1);
            hp.resize_zeroed(1, n_hidden);
            fused_ph_hp_single(p, h.row(0), ph, hp.row_mut(0));
        }

        // denom = 1 + h·P·hᵀ (scalar); the §2.2 one-reciprocal observation.
        let mut denom = T::one();
        let h_row = h.row(0);
        for i in 0..n_hidden {
            denom += h_row[i] * ph[(i, 0)];
        }
        let inv_denom = T::one() / denom;

        // residual e = t − h·β (1×m), in place on the prediction buffer;
        // reads only h and the pre-update β, so computing it before the
        // downdate cannot change a byte (and hoisting the subtraction out
        // of the per-row β loop repeats the identical float op once
        // instead of Ñ times — same operands, same result, every row).
        h.matmul_into(model.beta(), pred);
        for (c, v) in pred.row_mut(0).iter_mut().enumerate() {
            *v = T::from_f64(t[c].to_f64()) - *v;
        }

        // Fused pass 2, tiled by `P_UPDATE_TILE` rows — per row r: the
        // rank-1 downdate `P[r] −= (ph[r]/denom)·hp`, then `ph[r] ←
        // P_new[r]·hᵀ` (row r is final after its own downdate), then the β
        // row update. Bit-identical to the former downdate / `matmul_t_into`
        // / β-loop sequence while touching P once instead of twice.
        let beta = model.beta_mut();
        let resid_row: &[T] = pred.row(0);
        let hp_row: &[T] = hp.row(0);
        let h_row: &[T] = h.row(0);
        let tiles = p
            .as_mut_slice()
            .chunks_mut(P_UPDATE_TILE * n_hidden)
            .zip(ph.as_mut_slice().chunks_mut(P_UPDATE_TILE))
            .zip(beta.as_mut_slice().chunks_mut(P_UPDATE_TILE * m));
        run_tiles(parallel, tiles, |((p_rows, ph_rows), beta_rows)| {
            rank1_downdate_rows(
                p_rows, ph_rows, beta_rows, hp_row, h_row, resid_row, inv_denom,
            );
        });

        self.seq_train_count += 1;
        Ok(())
    }

    /// Capture the complete learner state — model parameters plus the
    /// recursive-update state (`P`, call counters, δ) — into a serialisable
    /// snapshot. For the `f64` backend the capture is bit-exact.
    pub fn snapshot(&self) -> crate::persistence::OsElmSnapshot {
        crate::persistence::OsElmSnapshot {
            model: crate::persistence::ModelSnapshot::capture(&self.model),
            p: self
                .p
                .as_ref()
                .map(|p| p.iter().map(|&v| v.to_f64()).collect()),
            l2_delta: self.l2_delta,
            relative_l2: self.relative_l2,
            init_train_count: self.init_train_count,
            seq_train_count: self.seq_train_count,
        }
    }

    /// Rebuild a learner at the exact training position captured by
    /// [`OsElm::snapshot`]. The scratch workspaces start empty and regrow on
    /// the first update — they carry no observable state, so a restored
    /// `OsElm<f64>` continues the RLS recursion bit for bit. A model or `P`
    /// whose length disagrees with the recorded dimensions, or that holds a
    /// non-finite value, is an error.
    pub fn from_snapshot(snap: &crate::persistence::OsElmSnapshot) -> Result<Self, LinalgError> {
        let model: ElmModel<T> = snap.model.restore()?;
        let n_hidden = model.hidden_dim();
        let p = snap
            .p
            .as_ref()
            .map(|data| {
                crate::persistence::check_finite("P", data.iter())?;
                let data = data.iter().map(|&v| T::from_f64(v)).collect();
                Matrix::from_vec(n_hidden, n_hidden, data)
            })
            .transpose()?;
        Ok(Self {
            model,
            p,
            l2_delta: snap.l2_delta,
            relative_l2: snap.relative_l2,
            init_train_count: snap.init_train_count,
            seq_train_count: snap.seq_train_count,
            scratch: SeqScratch::default(),
        })
    }

    /// Batch prediction (delegates to the model).
    pub fn predict(&self, x: &Matrix<T>) -> Matrix<T> {
        self.model.predict(x)
    }

    /// Single-sample prediction.
    pub fn predict_single(&self, x: &[T]) -> Vec<T> {
        self.model.predict_single(x)
    }

    fn check_shapes(&self, x: &Matrix<T>, t: &Matrix<T>) -> Result<(), OsElmError> {
        if x.cols() != self.model.input_dim() {
            return Err(OsElmError::ShapeMismatch(format!(
                "input has {} features, expected {}",
                x.cols(),
                self.model.input_dim()
            )));
        }
        if t.cols() != self.model.output_dim() {
            return Err(OsElmError::ShapeMismatch(format!(
                "target has {} outputs, expected {}",
                t.cols(),
                self.model.output_dim()
            )));
        }
        if x.rows() != t.rows() {
            return Err(OsElmError::ShapeMismatch(format!(
                "{} samples vs {} targets",
                x.rows(),
                t.rows()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod kernel_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::HiddenActivation;
    use crate::elm::Elm;
    use elmrl_linalg::solve::ridge_solve;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> (Matrix<f64>, Matrix<f64>) {
        let x = Matrix::from_fn(n, 2, |i, j| (((i * 7 + j * 3) % 13) as f64) / 13.0);
        let t = Matrix::from_fn(n, 1, |i, _| (2.0 * x[(i, 0)] - 0.5 * x[(i, 1)]).sin());
        (x, t)
    }

    fn config(hidden: usize) -> OsElmConfig {
        // The wide init range keeps the random-feature matrix well conditioned
        // (kinks spread across the input domain), which the δ = 0 tests need.
        OsElmConfig::new(2, hidden, 1)
            .with_activation(HiddenActivation::HardTanh)
            .with_init_range(-4.0, 4.0)
    }

    #[test]
    fn init_then_seq_matches_full_ridge_solution() {
        // RLS equivalence: OS-ELM initialised on chunk 0 with δ and updated on
        // the remaining chunks equals the ridge solution over ALL data.
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = config(16).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(80);

        os.init_train(
            &x.submatrix(0, 30, 0, 2).unwrap(),
            &t.submatrix(0, 30, 0, 1).unwrap(),
        )
        .unwrap();
        // chunks of varying sizes
        os.seq_train(
            &x.submatrix(30, 50, 0, 2).unwrap(),
            &t.submatrix(30, 50, 0, 1).unwrap(),
        )
        .unwrap();
        os.seq_train(
            &x.submatrix(50, 80, 0, 2).unwrap(),
            &t.submatrix(50, 80, 0, 1).unwrap(),
        )
        .unwrap();

        let h_all = os.model().hidden(&x);
        let beta_ridge = ridge_solve(&h_all, &t, 0.1).unwrap();
        assert!(
            os.model().beta().max_abs_diff(&beta_ridge) < 1e-8,
            "sequential OS-ELM deviates from the batch ridge solution"
        );
        assert_eq!(os.init_train_count(), 1);
        assert_eq!(os.seq_train_count(), 2);
    }

    #[test]
    fn batch_one_fast_path_matches_general_update() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = config(12).with_l2_delta(0.05);
        let (x, t) = dataset(40);

        let mut a = OsElm::<f64>::new(&cfg, &mut rng);
        let mut b = a.clone();
        a.init_train(
            &x.submatrix(0, 20, 0, 2).unwrap(),
            &t.submatrix(0, 20, 0, 1).unwrap(),
        )
        .unwrap();
        b.init_train(
            &x.submatrix(0, 20, 0, 2).unwrap(),
            &t.submatrix(0, 20, 0, 1).unwrap(),
        )
        .unwrap();

        for i in 20..40 {
            let xi = x.submatrix(i, i + 1, 0, 2).unwrap();
            let ti = t.submatrix(i, i + 1, 0, 1).unwrap();
            a.seq_train(&xi, &ti).unwrap();
            b.seq_train_single(x.row(i), t.row(i)).unwrap();
        }
        assert!(a.model().beta().max_abs_diff(b.model().beta()) < 1e-9);
        assert!(a.p_matrix().unwrap().max_abs_diff(b.p_matrix().unwrap()) < 1e-9);
    }

    #[test]
    fn batch_recursion_is_bit_identical_to_the_allocating_general_update() {
        let mut rng = SmallRng::seed_from_u64(21);
        let cfg = config(14).with_l2_delta(0.05);
        let (x, t) = dataset(90);

        let mut general = OsElm::<f64>::new(&cfg, &mut rng);
        let mut batch = general.clone();
        for os in [&mut general, &mut batch] {
            os.init_train(
                &x.submatrix(0, 30, 0, 2).unwrap(),
                &t.submatrix(0, 30, 0, 1).unwrap(),
            )
            .unwrap();
        }
        // Varying chunk sizes, including B = 1 through the batch entry point.
        let mut at = 30;
        for chunk in [1usize, 4, 7, 16, 32] {
            let xi = x.submatrix(at, at + chunk, 0, 2).unwrap();
            let ti = t.submatrix(at, at + chunk, 0, 1).unwrap();
            general.seq_train(&xi, &ti).unwrap();
            batch.seq_train_batch(&xi, &ti).unwrap();
            at += chunk;
            assert_eq!(
                general.model().beta(),
                batch.model().beta(),
                "β diverged at chunk {chunk}"
            );
            assert_eq!(
                general.p_matrix().unwrap(),
                batch.p_matrix().unwrap(),
                "P diverged at chunk {chunk}"
            );
        }
        assert_eq!(batch.seq_train_count(), 5);
    }

    #[test]
    fn batch_recursion_matches_consecutive_single_updates() {
        // Block-exactness of Eq. 6: one B-chunk equals B single-sample
        // updates up to floating-point rounding.
        let mut rng = SmallRng::seed_from_u64(22);
        let cfg = config(12).with_l2_delta(0.1);
        let (x, t) = dataset(60);

        let mut chunked = OsElm::<f64>::new(&cfg, &mut rng);
        let mut single = chunked.clone();
        for os in [&mut chunked, &mut single] {
            os.init_train(
                &x.submatrix(0, 20, 0, 2).unwrap(),
                &t.submatrix(0, 20, 0, 1).unwrap(),
            )
            .unwrap();
        }
        for start in (20..60).step_by(8) {
            let xi = x.submatrix(start, start + 8, 0, 2).unwrap();
            let ti = t.submatrix(start, start + 8, 0, 1).unwrap();
            chunked.seq_train_batch(&xi, &ti).unwrap();
            for i in start..start + 8 {
                single.seq_train_single(x.row(i), t.row(i)).unwrap();
            }
        }
        assert!(chunked.model().beta().max_abs_diff(single.model().beta()) < 1e-9);
        assert!(
            chunked
                .p_matrix()
                .unwrap()
                .max_abs_diff(single.p_matrix().unwrap())
                < 1e-9
        );
    }

    #[test]
    fn batch_recursion_reaches_the_full_ridge_solution() {
        // The RLS-equivalence sanity check of `seq_train`, through the
        // workspace path: init on chunk 0 + batch updates equals the ridge
        // solution over all data.
        let mut rng = SmallRng::seed_from_u64(23);
        let cfg = config(16).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(80);
        os.init_train(
            &x.submatrix(0, 30, 0, 2).unwrap(),
            &t.submatrix(0, 30, 0, 1).unwrap(),
        )
        .unwrap();
        os.seq_train_batch(
            &x.submatrix(30, 55, 0, 2).unwrap(),
            &t.submatrix(30, 55, 0, 1).unwrap(),
        )
        .unwrap();
        os.seq_train_batch(
            &x.submatrix(55, 80, 0, 2).unwrap(),
            &t.submatrix(55, 80, 0, 1).unwrap(),
        )
        .unwrap();
        let h_all = os.model().hidden(&x);
        let beta_ridge = ridge_solve(&h_all, &t, 0.1).unwrap();
        assert!(os.model().beta().max_abs_diff(&beta_ridge) < 1e-8);
    }

    #[test]
    fn batch_recursion_misuse_errors_match_the_general_path() {
        let mut rng = SmallRng::seed_from_u64(24);
        let cfg = config(8).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(10);
        assert_eq!(
            os.seq_train_batch(&x, &t).unwrap_err(),
            OsElmError::NotInitialized
        );
        os.init_train(&x, &t).unwrap();
        assert!(matches!(
            os.seq_train_batch(&Matrix::<f64>::ones(4, 3), &Matrix::<f64>::ones(4, 1)),
            Err(OsElmError::ShapeMismatch(_))
        ));
        assert!(matches!(
            os.seq_train_batch(&Matrix::<f64>::ones(4, 2), &Matrix::<f64>::ones(3, 1)),
            Err(OsElmError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn os_elm_matches_batch_elm_when_unregularised() {
        // With δ = 0 and an initial chunk of at least Ñ samples, OS-ELM over
        // all data equals the batch least-squares ELM solution. A hand-built
        // α with distinct kink positions guarantees H₀ᵀH₀ is non-singular so
        // the unregularised initial training is well-posed.
        let hidden = 8;
        let alpha = Matrix::from_fn(2, hidden, |i, j| {
            if i == 0 {
                1.0 + 0.35 * j as f64
            } else {
                -0.8 + 0.27 * j as f64
            }
        });
        let bias = Matrix::from_fn(1, hidden, |_, j| -0.9 + 0.23 * j as f64);
        let beta = Matrix::zeros(hidden, 1);
        let model =
            crate::model::ElmModel::from_parts(alpha, bias, beta, HiddenActivation::HardTanh);
        let (x, t) = {
            // scattered pseudo-random 2-D inputs (LCG), smooth target
            let mut state = 0x1234_5678_u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let x = Matrix::from_fn(60, 2, |_, _| next());
            let t = Matrix::from_fn(60, 1, |i, _| (2.0 * x[(i, 0)] - 0.5 * x[(i, 1)]).sin());
            (x, t)
        };

        let mut os = OsElm::from_model(model.clone(), 0.0);
        os.init_train(
            &x.submatrix(0, 30, 0, 2).unwrap(),
            &t.submatrix(0, 30, 0, 1).unwrap(),
        )
        .unwrap();
        for i in 30..60 {
            os.seq_train_single(x.row(i), t.row(i)).unwrap();
        }

        let mut batch = Elm::from_model(model, 0.0);
        batch.train(&x, &t).unwrap();
        assert!(os.model().beta().max_abs_diff(batch.model().beta()) < 1e-6);
    }

    #[test]
    fn sequential_training_reduces_prediction_error() {
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = config(24).with_l2_delta(0.01);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(200);
        os.init_train(
            &x.submatrix(0, 30, 0, 2).unwrap(),
            &t.submatrix(0, 30, 0, 1).unwrap(),
        )
        .unwrap();
        let mse = |os: &OsElm<f64>| {
            let pred = os.predict(&x);
            (&pred - &t).iter().map(|&v| v * v).sum::<f64>() / t.len() as f64
        };
        let before = mse(&os);
        for i in 30..200 {
            os.seq_train_single(x.row(i), t.row(i)).unwrap();
        }
        let after = mse(&os);
        assert!(after < before, "MSE should improve: {before} -> {after}");
        assert!(after < 5e-3, "final MSE too high: {after}");
    }

    #[test]
    fn errors_for_misuse() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = config(8).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(10);

        // seq before init
        assert_eq!(
            os.seq_train(&x, &t).unwrap_err(),
            OsElmError::NotInitialized
        );
        assert_eq!(
            os.seq_train_single(x.row(0), t.row(0)).unwrap_err(),
            OsElmError::NotInitialized
        );
        // bad shapes
        assert!(matches!(
            os.init_train(&Matrix::<f64>::ones(4, 3), &Matrix::<f64>::ones(4, 1)),
            Err(OsElmError::ShapeMismatch(_))
        ));
        assert!(matches!(
            os.init_train(&Matrix::<f64>::ones(4, 2), &Matrix::<f64>::ones(3, 1)),
            Err(OsElmError::ShapeMismatch(_))
        ));
        // double init
        os.init_train(&x, &t).unwrap();
        assert_eq!(
            os.init_train(&x, &t).unwrap_err(),
            OsElmError::AlreadyInitialized
        );
        // wrong single-sample widths
        assert!(matches!(
            os.seq_train_single(&[1.0], &[0.0]),
            Err(OsElmError::ShapeMismatch(_))
        ));
        assert!(matches!(
            os.seq_train_single(&[1.0, 2.0], &[0.0, 0.0]),
            Err(OsElmError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn unregularised_init_with_tiny_chunk_fails_cleanly() {
        // δ = 0 and fewer samples than hidden units ⇒ singular Gram matrix.
        let mut rng = SmallRng::seed_from_u64(6);
        let cfg = config(32); // δ = 0
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(4);
        let err = os.init_train(&x, &t).unwrap_err();
        assert!(matches!(err, OsElmError::Linalg(_)));
        // ReOS-ELM fixes it.
        let cfg_reg = config(32).with_l2_delta(0.5);
        let mut rng2 = SmallRng::seed_from_u64(6);
        let mut os_reg = OsElm::<f64>::new(&cfg_reg, &mut rng2);
        assert!(os_reg.init_train(&x, &t).is_ok());
    }

    #[test]
    fn non_finite_sample_or_target_is_rejected_without_touching_the_learner() {
        let (x, t) = dataset(24);
        let cfg = config(8).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut SmallRng::seed_from_u64(9));
        let beta = os.model().beta().clone();
        for (row, col, in_target) in [(3, 1, false), (17, 0, true)] {
            let (mut xi, mut ti) = (x.clone(), t.clone());
            if in_target {
                ti[(row, col)] = f64::NAN;
            } else {
                xi[(row, col)] = f64::NAN;
            }
            assert!(matches!(
                os.init_train(&xi, &ti),
                Err(OsElmError::Linalg(LinalgError::InvalidData { .. }))
            ));
            assert!(os.p_matrix().is_none());
            assert_eq!(os.model().beta(), &beta);
            assert_eq!(os.init_train_count(), 0);
        }
        os.init_train(&x, &t).unwrap();
        assert!(os.model().beta().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sequential_updates_reject_non_finite_input_without_touching_p_or_beta() {
        let (x, t) = dataset(40);
        let cfg = config(8).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut SmallRng::seed_from_u64(12));
        os.init_train(
            &x.submatrix(0, 20, 0, 2).unwrap(),
            &t.submatrix(0, 20, 0, 1).unwrap(),
        )
        .unwrap();
        let (p, beta) = (os.p_matrix().unwrap().clone(), os.model().beta().clone());
        let (xc, tc) = (
            x.submatrix(20, 25, 0, 2).unwrap(),
            t.submatrix(20, 25, 0, 1).unwrap(),
        );
        for (row, col, in_target, bad) in [
            (2, 1, false, f64::NAN),
            (4, 0, true, f64::NAN),
            (0, 0, false, f64::INFINITY),
            (3, 0, true, f64::NEG_INFINITY),
        ] {
            let (mut xi, mut ti) = (xc.clone(), tc.clone());
            if in_target {
                ti[(row, col)] = bad;
            } else {
                xi[(row, col)] = bad;
            }
            let results = [
                os.seq_train(&xi, &ti),
                os.seq_train_batch(&xi, &ti),
                os.seq_train_single(xi.row(row), ti.row(row)),
            ];
            for r in results {
                assert!(matches!(
                    r,
                    Err(OsElmError::Linalg(LinalgError::InvalidData { .. }))
                ));
            }
            assert_eq!(os.p_matrix().unwrap(), &p);
            assert_eq!(os.model().beta(), &beta);
            assert_eq!(os.seq_train_count(), 0);
        }
        os.seq_train_batch(&xc, &tc).unwrap();
        assert!(os.model().beta().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn snapshot_resumes_the_recursion_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(9);
        let cfg = config(10).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(60);
        os.init_train(
            &x.submatrix(0, 20, 0, 2).unwrap(),
            &t.submatrix(0, 20, 0, 1).unwrap(),
        )
        .unwrap();
        for i in 20..40 {
            os.seq_train_single(x.row(i), t.row(i)).unwrap();
        }

        let mut resumed = OsElm::<f64>::from_snapshot(&os.snapshot()).unwrap();
        assert_eq!(resumed.seq_train_count(), os.seq_train_count());
        for i in 40..60 {
            os.seq_train_single(x.row(i), t.row(i)).unwrap();
            resumed.seq_train_single(x.row(i), t.row(i)).unwrap();
        }
        assert_eq!(os.model().beta(), resumed.model().beta());
        assert_eq!(os.p_matrix().unwrap(), resumed.p_matrix().unwrap());
    }

    #[test]
    fn snapshot_before_init_restores_uninitialised() {
        let mut rng = SmallRng::seed_from_u64(10);
        let cfg = config(8).with_l2_delta(0.1);
        let os = OsElm::<f64>::new(&cfg, &mut rng);
        let resumed = OsElm::<f64>::from_snapshot(&os.snapshot()).unwrap();
        assert!(!resumed.is_initialized());
        assert_eq!(resumed.model().alpha(), os.model().alpha());
    }

    #[test]
    fn p_matrix_stays_symmetric_under_single_updates() {
        let mut rng = SmallRng::seed_from_u64(8);
        let cfg = config(10).with_l2_delta(0.1);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let (x, t) = dataset(50);
        os.init_train(
            &x.submatrix(0, 20, 0, 2).unwrap(),
            &t.submatrix(0, 20, 0, 1).unwrap(),
        )
        .unwrap();
        for i in 20..50 {
            os.seq_train_single(x.row(i), t.row(i)).unwrap();
        }
        let p = os.p_matrix().unwrap();
        assert!(
            p.transpose().max_abs_diff(p) < 1e-9,
            "P must remain symmetric"
        );
    }
}
