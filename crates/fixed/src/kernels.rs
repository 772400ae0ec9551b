//! Raw-integer kernels for the Q-format datapath.
//!
//! The generic [`Matrix<Fixed<FRAC>>`](elmrl_linalg::Matrix) path routes every
//! multiply–accumulate through the [`Fixed`](crate::Fixed) operator
//! overloads — correct, but each element access is bounds-checked and each hot
//! loop re-materialises small `Matrix`/`Vec` temporaries. These kernels are
//! the fast form of the *same arithmetic*: they operate directly on the raw
//! two's-complement `i32` words (what the FPGA's BRAMs hold) in caller-owned
//! slices, with widening `i64` products and per-term saturation to the 32-bit
//! lattice.
//!
//! **Bit-for-bit contract.** Every kernel reproduces the exact operation
//! sequence of its `Matrix<Fixed<FRAC>>` counterpart: per output element, the
//! inner dimension is accumulated in ascending order and every intermediate —
//! the shifted product *and* the running sum — saturates exactly like
//! [`Fixed::saturating_mul`](crate::Fixed::saturating_mul)/[`Fixed::saturating_add`](crate::Fixed::saturating_add) would. (A plain `i64`
//! accumulator with one saturate-on-store would diverge whenever a partial
//! sum clips mid-accumulation; the HDL clamps its accumulator every cycle, and
//! so do we.) Terms whose multiplicand is exactly zero contribute an exact
//! fixed-point zero and are skipped — saturating addition of zero is the
//! identity, so the skip is value-preserving while exploiting ReLU sparsity.
//! The fused RLS kernel goes one step further: it maintains magnitude
//! bounds on its operands and, whenever those bounds *prove* that no clamp
//! can fire, runs saturation-free loops whose plain integer arithmetic is
//! bit-identical to the saturating forms (see [`seq_train_q_into`] and
//! [`RlsScratch`]). The proptest suite (`tests/proptest_kernels.rs`) pins
//! all of this against the generic path, including saturated operands.

/// Saturate a 64-bit intermediate onto the 32-bit lattice — the raw form of
/// the clamp inside [`Fixed::saturating_mul`](crate::Fixed::saturating_mul).
#[inline]
fn clamp_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// Raw Q-format multiply: widening `i64` product, arithmetic shift by `FRAC`,
/// saturate. Bit-identical to
/// [`Fixed::saturating_mul`](crate::Fixed::saturating_mul) on the same raws.
#[inline]
pub fn q_mul<const FRAC: u32>(a: i32, b: i32) -> i32 {
    clamp_i64(((a as i64) * (b as i64)) >> FRAC)
}

/// Raw Q-format saturating add — bit-identical to
/// [`Fixed::saturating_add`](crate::Fixed::saturating_add).
#[inline]
pub fn q_add(a: i32, b: i32) -> i32 {
    a.saturating_add(b)
}

/// Raw Q-format saturating subtract — bit-identical to
/// [`Fixed::saturating_sub`](crate::Fixed::saturating_sub).
#[inline]
pub fn q_sub(a: i32, b: i32) -> i32 {
    a.saturating_sub(b)
}

/// Raw Q-format divide (64-bit intermediate). Division by zero saturates to
/// `i32::MAX`/`i32::MIN` by dividend sign (`0/0 → 0`) — bit-identical to
/// [`Fixed::saturating_div`](crate::Fixed::saturating_div).
#[inline]
pub fn q_div<const FRAC: u32>(a: i32, b: i32) -> i32 {
    if b == 0 {
        return if a > 0 {
            i32::MAX
        } else if a < 0 {
            i32::MIN
        } else {
            0
        };
    }
    clamp_i64(((a as i64) << FRAC) / (b as i64))
}

/// The raw representation of 1.0 in a `FRAC`-bit format.
#[inline]
pub const fn q_one<const FRAC: u32>() -> i32 {
    1i32 << FRAC
}

/// Row-panel height of [`matmul_packed_q_into`] — mirrors
/// `elmrl_linalg::matmul::PACK_MR` so both packed kernels share the same
/// panel geometry (and therefore the same per-element accumulation order as
/// the naive kernel).
pub const PACK_MR: usize = 8;

/// Inner-dimension (`k`) tile of [`matmul_packed_q_into`] — mirrors
/// `elmrl_linalg::matmul::PACK_KC`. A packed `PACK_MR × PACK_KC` panel slice
/// of `i32` words is 8 KiB, comfortably L1-resident across the column sweep.
pub const PACK_KC: usize = 256;

/// Output-column tile of [`matmul_packed_q_into`] — mirrors
/// `elmrl_linalg::matmul::PACK_NC`; keeps the accumulator rows cache-hot
/// while the `PACK_KC × PACK_NC` rhs block streams from L2.
pub const PACK_NC: usize = 256;

/// `out (m×n) = a (m×k) · b (k×n)` on raw Q-format words, row-major slices.
///
/// Same `i-k-j` loop structure as `Matrix::matmul_into`, so each output
/// element accumulates the inner dimension in ascending order — bit-identical
/// to the generic `Matrix<Fixed<FRAC>>` product.
pub fn matmul_q_into<const FRAC: u32>(
    m: usize,
    k: usize,
    n: usize,
    a: &[i32],
    b: &[i32],
    out: &mut [i32],
) {
    assert_eq!(a.len(), m * k, "matmul_q: lhs size mismatch");
    assert_eq!(b.len(), k * n, "matmul_q: rhs size mismatch");
    assert_eq!(out.len(), m * n, "matmul_q: output size mismatch");
    out.fill(0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0 {
                continue; // exact zero terms are additive identities
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in o_row.iter_mut().zip(b_row.iter()) {
                *o = q_add(*o, q_mul::<FRAC>(a_ip, b_pj));
            }
        }
    }
}

/// Packed-panel variant of [`matmul_q_into`]: [`PACK_MR`] rows of `a` are
/// packed transposed into `pack`, the inner dimension is tiled by
/// [`PACK_KC`] and the output columns by [`PACK_NC`] — the integer twin of
/// `Matrix::matmul_packed_into`, blocked the same way. Per output element
/// the `k` terms still arrive in ascending order (k-blocks ascend, `p`
/// ascends within a block) with per-term saturation, so the result is
/// bit-identical to [`matmul_q_into`] (and therefore to the generic
/// `Matrix<Fixed<FRAC>>` product) no matter how the tiles fall.
pub fn matmul_packed_q_into<const FRAC: u32>(
    m: usize,
    k: usize,
    n: usize,
    a: &[i32],
    b: &[i32],
    pack: &mut Vec<i32>,
    out: &mut [i32],
) {
    assert_eq!(a.len(), m * k, "matmul_packed_q: lhs size mismatch");
    assert_eq!(b.len(), k * n, "matmul_packed_q: rhs size mismatch");
    assert_eq!(out.len(), m * n, "matmul_packed_q: output size mismatch");
    out.fill(0);
    pack.clear();
    pack.resize(PACK_MR * PACK_KC.min(k.max(1)), 0);
    for i0 in (0..m).step_by(PACK_MR) {
        let h = PACK_MR.min(m - i0);
        let panel = &mut out[i0 * n..(i0 + h) * n];
        for p0 in (0..k).step_by(PACK_KC) {
            let p_end = (p0 + PACK_KC).min(k);
            // Pack this panel's k-slice transposed: pack[(p-p0)·MR + r] =
            // A[i0+r, p], so the p-loop below reads one contiguous group.
            for r in 0..h {
                let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
                for (p, &v) in a_row.iter().enumerate().take(p_end).skip(p0) {
                    pack[(p - p0) * PACK_MR + r] = v;
                }
            }
            for j0 in (0..n).step_by(PACK_NC) {
                let j_end = (j0 + PACK_NC).min(n);
                for p in p0..p_end {
                    let b_row = &b[p * n + j0..p * n + j_end];
                    let group = &pack[(p - p0) * PACK_MR..(p - p0) * PACK_MR + h];
                    for (r, &a_rp) in group.iter().enumerate() {
                        if a_rp == 0 {
                            continue; // exact zero terms are additive identities
                        }
                        let o_row = &mut panel[r * n + j0..r * n + j_end];
                        for (o, &b_pj) in o_row.iter_mut().zip(b_row.iter()) {
                            *o = q_add(*o, q_mul::<FRAC>(a_rp, b_pj));
                        }
                    }
                }
            }
        }
    }
}

/// In-place bias-add + ReLU over `rows` stacked pre-activation rows of width
/// `n`: `data[r][j] = max(0, data[r][j] ⊕ bias[j])` with saturating add —
/// exactly the hidden-layer epilogue of the FPGA core's `hidden` stage.
pub fn bias_relu_q_into(rows: usize, n: usize, bias: &[i32], data: &mut [i32]) {
    assert_eq!(bias.len(), n, "bias_relu_q: bias size mismatch");
    assert_eq!(data.len(), rows * n, "bias_relu_q: data size mismatch");
    for r in 0..rows {
        let row = &mut data[r * n..(r + 1) * n];
        for (v, &b) in row.iter_mut().zip(bias.iter()) {
            let pre = q_add(*v, b);
            *v = if pre < 0 { 0 } else { pre };
        }
    }
}

/// How often [`seq_train_q_into`] re-derives the exact `max|P|` with a full
/// scan of `P` (one `Ñ²` read pass, amortised over `RESCAN_PERIOD` updates).
/// Between scans the bound is maintained incrementally and only ever
/// loosens, so a shorter period keeps the fast path engaged at the cost of
/// more scans. Public so the telemetry layer can report the rescan cadence
/// alongside the observed [`RlsStats::rescans`] count.
pub const RESCAN_PERIOD: u32 = 32;

/// Checkpoint interval of the saturation-checked dot chains: partial sums
/// are verified against [`chain_limit`] once per `CHUNK` terms, so between
/// checkpoints a chain can drift at most `CHUNK` term-bounds away from its
/// last verified value.
const CHUNK: usize = 16;

/// Per-term magnitude bound of a product chain: `|(a·b) >> frac| ≤
/// ((abs_a·abs_b) >> frac) + 1` when `|a| ≤ abs_a`, `|b| ≤ abs_b`
/// (arithmetic shift rounds toward −∞). Saturates on overflow — a huge
/// bound just disables the fast path.
fn term_bound(abs_a: i64, abs_b: i64, frac: u32) -> i64 {
    match abs_a.checked_mul(abs_b) {
        Some(prod) => (prod >> frac) + 1,
        None => i64::MAX,
    }
}

/// Checkpoint threshold for a chain with per-term bound `t`: if every
/// checkpointed partial sum has magnitude ≤ `chain_limit(t)`, then *every*
/// partial sum (checkpointed or not) stays within `i32` and no term clamps
/// (`t ≤ i32::MAX/CHUNK`), so the plain-arithmetic chain is bit-identical
/// to the saturating one. Conversely, if some partial sum would have
/// saturated, the next checkpoint is at most `CHUNK − 1` terms later and
/// still exceeds the limit — violations cannot slip through. A
/// non-positive result means the fast path cannot run at all.
fn chain_limit(t: i64) -> i64 {
    i32::MAX as i64 - t.saturating_mul(CHUNK as i64)
}

/// Exact saturating dot of one `P` row against the nonzero support of `h` —
/// the reference chain every fast path must reproduce bit for bit.
fn exact_dot<const FRAC: u32>(p_row: &[i32], nz: &[(u32, i32)]) -> i32 {
    let mut acc = 0i32;
    for &(c, hv) in nz {
        acc = q_add(acc, q_mul::<FRAC>(p_row[c as usize], hv));
    }
    acc
}

/// Saturation-checked fast dot of four rows against the nonzero support:
/// four plain `i64` chains (independent, latency-hiding) with a partial-sum
/// check every [`CHUNK`] terms. Returns `None` when any checkpoint exceeds
/// `limit` — some partial sum may have saturated, and the caller must
/// re-run the exact saturating form.
fn fast_dot4<const FRAC: u32>(
    rows: [&[i32]; 4],
    nz: &[(u32, i32)],
    limit: i64,
) -> Option<[i32; 4]> {
    let mut acc = [0i64; 4];
    let mut peak = 0i64;
    for chunk in nz.chunks(CHUNK) {
        for &(c, hv) in chunk {
            let c = c as usize;
            let hw = hv as i64;
            acc[0] += (rows[0][c] as i64 * hw) >> FRAC;
            acc[1] += (rows[1][c] as i64 * hw) >> FRAC;
            acc[2] += (rows[2][c] as i64 * hw) >> FRAC;
            acc[3] += (rows[3][c] as i64 * hw) >> FRAC;
        }
        for &a in &acc {
            peak = peak.max(a.abs());
        }
    }
    if peak <= limit {
        Some([acc[0] as i32, acc[1] as i32, acc[2] as i32, acc[3] as i32])
    } else {
        None
    }
}

/// Single-row variant of [`fast_dot4`].
fn fast_dot1<const FRAC: u32>(p_row: &[i32], nz: &[(u32, i32)], limit: i64) -> Option<i32> {
    let mut acc = 0i64;
    let mut peak = 0i64;
    for chunk in nz.chunks(CHUNK) {
        for &(c, hv) in chunk {
            acc += (p_row[c as usize] as i64 * hv as i64) >> FRAC;
        }
        peak = peak.max(acc.abs());
    }
    if peak <= limit {
        Some(acc as i32)
    } else {
        None
    }
}

/// Caller-owned workspaces and cross-call magnitude state of
/// [`seq_train_q_into`]; reuse one instance per `P` matrix and the steady
/// state never allocates.
///
/// The magnitude state is a standing upper bound on `max|P|`: re-derived by
/// an exact scan every `RESCAN_PERIOD` updates, loosened incrementally in
/// between by each update's worst-case downdate. The bound only gates
/// *which code path* runs — the saturation-free fast loops or the exact
/// saturating loops — never the values produced, so a stale-but-valid bound
/// costs speed, not correctness. Call [`RlsScratch::invalidate`] whenever
/// `P` is rewritten outside the kernel (parameter reload, snapshot restore,
/// or pointing the scratch at a different `P`).
#[derive(Clone, Debug, Default)]
pub struct RlsScratch {
    /// On return from an update: the *post-update* `P·hᵀ` (`Ñ`).
    pub ph: Vec<i32>,
    /// `h·P` of the update (`Ñ`).
    pub hp: Vec<i32>,
    /// Pre-update prediction `h·β` (`m`).
    pub pred: Vec<i32>,
    /// Cumulative fast-path/fallback telemetry — see [`RlsStats`].
    pub stats: RlsStats,
    /// Per-row downdate scales `ph[r]·inv_denom` (`Ñ`).
    scale: Vec<i32>,
    /// Nonzero support of `h`: `(index, value)` pairs, ascending.
    nz: Vec<(u32, i32)>,
    /// Upper bound on the `max|P|` raw word, valid since the last rescan.
    p_abs: i64,
    /// Updates since construction/invalidation; `calls % RESCAN_PERIOD == 0`
    /// triggers an exact bound rescan at the next update's entry.
    calls: u32,
}

/// Cumulative hit-rate counters of the guarded fast paths in
/// [`seq_train_q_into`]. Plain `u64` fields on the caller-owned scratch —
/// this crate stays dependency-free; the FPGA core flushes deltas into the
/// global telemetry registry when telemetry is on. The counters never
/// influence which path runs or the values produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RlsStats {
    /// Total [`seq_train_q_into`] invocations through this scratch.
    pub calls: u64,
    /// Exact `max|P|` rescans performed (one every [`RESCAN_PERIOD`] calls).
    pub rescans: u64,
    /// Dot blocks (4-row or 1-row `P`-against-`h` chains, and the fused
    /// `h·P` pass) that completed on the saturation-free fast path.
    pub fast_blocks: u64,
    /// Dot blocks whose runtime checkpoint failed (or whose static bound
    /// never allowed the fast path) and re-ran the exact saturating loops.
    pub fallback_blocks: u64,
}

impl RlsStats {
    /// `self − earlier`, field-wise (saturating) — the increment since a
    /// previous snapshot, for periodic flushes into external counters.
    pub fn since(&self, earlier: &RlsStats) -> RlsStats {
        RlsStats {
            calls: self.calls.saturating_sub(earlier.calls),
            rescans: self.rescans.saturating_sub(earlier.rescans),
            fast_blocks: self.fast_blocks.saturating_sub(earlier.fast_blocks),
            fallback_blocks: self.fallback_blocks.saturating_sub(earlier.fallback_blocks),
        }
    }
}

impl RlsScratch {
    /// Fresh scratch; the first update derives the `P` bound by exact scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the magnitude bound — the next update re-derives it by scanning
    /// `P`. Required after `P` changes outside [`seq_train_q_into`].
    pub fn invalidate(&mut self) {
        self.calls = 0;
    }
}

/// One fused batch-size-1 OS-ELM RLS update on raw Q-format words — the
/// integer twin of the FPGA core's `seq_train` arithmetic, streaming `P`
/// once for the downdate *and* the post-update `P·hᵀ` instead of three
/// separate passes.
///
/// Inputs: `h` is the already-activated hidden row (`Ñ`), `target` the `m`
/// training targets. `p` (`Ñ×Ñ`) and `beta` (`Ñ×m`) are updated in place;
/// `ws` holds the reusable workspaces (on return, `ws.ph` is the
/// *post-update* `P·hᵀ` and `ws.pred` the pre-update `h·β`) plus the
/// cross-call `max|P|` bound — see [`RlsScratch`].
///
/// The operation sequence per element matches the reference
/// `Matrix<Fixed<FRAC>>` implementation exactly:
///
/// 1. `ph = P·hᵀ`, `hp = h·P` (ascending inner accumulation);
/// 2. `denom = 1 ⊕ Σᵢ h[i]·ph[i]`, `inv = 1 ⊘ denom` (saturating divide —
///    the `DIV_LATENCY` reciprocal of the hardware);
/// 3. `pred = h·β` (β still pre-update);
/// 4. per row `r`: `scale = ph[r]·inv`, `P[r][c] ⊖= scale·hp[c]`; the row is
///    final after its downdate, so `ph_new[r] = Σ_c P[r][c]·h[c]` follows
///    immediately (same value as a full second `P·hᵀ` pass) and feeds
///    `β[r][c] ⊕= ph_new[r]·(target[c] ⊖ pred[c])`.
///
/// Fusing is value-preserving because the downdate touches each `P` row once
/// and the β update of row `r` reads only `ph_new[r]` and the shared
/// residual, which is computed from the pre-update β.
///
/// **Two bit-identical code paths.** Saturation exists to model the HDL, but
/// a trained core operates far from the clamp bounds, and every saturating
/// op costs a clamp that never fires. The kernel therefore runs plain
/// widening-multiply/add loops (≈2× fewer µops per MAC) whenever it can
/// *prove* they saturate nowhere:
///
/// - **per term**, statically: a maintained bound on `max|P|` (see
///   [`RlsScratch`]) times the exact `max|h|` shows no shifted product can
///   clamp (`term_bound`);
/// - **per partial sum**, at runtime: dot chains are checkpointed every
///   `CHUNK` terms against `chain_limit` — necessary because `P`'s
///   entries can be large while the actual sums stay small only through
///   cancellation, which no static worst-case bound captures. A checkpoint
///   violation re-runs that row block through the exact saturating loops;
/// - the **downdate** subtracts one bounded term per element, so a static
///   `max|P| + term ≤ i32::MAX` check suffices outright.
///
/// In the no-saturation regime exact integer arithmetic is associative, so
/// `i64` accumulators are legal and bit-identical. Both paths iterate only
/// the nonzero support of `h` (`ws.nz`) where a factor of `h` makes zero
/// terms additive identities.
pub fn seq_train_q_into<const FRAC: u32>(
    nh: usize,
    m: usize,
    h: &[i32],
    target: &[i32],
    p: &mut [i32],
    beta: &mut [i32],
    ws: &mut RlsScratch,
) {
    assert_eq!(h.len(), nh, "seq_train_q: hidden size mismatch");
    assert_eq!(target.len(), m, "seq_train_q: target size mismatch");
    assert_eq!(p.len(), nh * nh, "seq_train_q: P size mismatch");
    assert_eq!(beta.len(), nh * m, "seq_train_q: beta size mismatch");

    let RlsScratch {
        ph,
        hp,
        pred,
        stats,
        scale,
        nz,
        p_abs,
        calls,
    } = ws;
    ph.resize(nh, 0);
    hp.resize(nh, 0);
    pred.resize(m, 0);
    scale.resize(nh, 0);
    stats.calls += 1;

    // Periodically replace the incrementally-loosened |P| bound with the
    // exact maximum (P is unchanged since the previous update's downdate).
    if *calls % RESCAN_PERIOD == 0 {
        *p_abs = p.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
        stats.rescans += 1;
    }
    *calls = calls.wrapping_add(1);

    // The nonzero support of h in ascending index order — every pass below
    // that multiplies by h touches exactly these terms, in this order — and
    // the exact max|h| for the saturation-freedom guards.
    nz.clear();
    let mut h_abs = 0i64;
    for (i, &v) in h.iter().enumerate() {
        if v != 0 {
            nz.push((i as u32, v));
            h_abs = h_abs.max((v as i64).abs());
        }
    }

    // Per-term bound and checkpoint threshold of every P-against-h chain on
    // the pre-update P. `limit > 0` means terms provably never clamp; the
    // chains themselves are verified at runtime every CHUNK terms.
    let limit = chain_limit(term_bound(*p_abs, h_abs, FRAC));

    // ph = P·hᵀ and hp = h·P in ONE pass over P's rows — each streamed row
    // feeds both its own dot chain (ph[r], ascending accumulation) and, when
    // `h[r] != 0`, a saxpy into hp (i-k-j form: rows in ascending order, so
    // per hp element the terms arrive in the reference order). ph runs four
    // rows at a time: four independent add chains hide the add latency, and
    // each block tries the checked fast chain and re-runs exactly on a
    // violation. The fast hp accumulation uses plain i32 adds — sound
    // because each element gains at most CHUNK bounded terms between
    // checkpoints, so no partial sum can overflow before its check — and
    // bails out to the exact form on the first checkpoint violation.
    let mut hp_ok = limit > 0;
    hp.fill(0);
    // Nonzero rows folded into hp since its last checkpoint scan. The scan
    // fires once the count *could* reach CHUNK after the next 4-row block
    // (threshold CHUNK − 3), keeping the per-element drift between scans at
    // most CHUNK terms — the budget `chain_limit` reserves.
    let mut hp_pending = 0usize;
    let mut r = 0;
    while r + 4 <= nh {
        let (p0, rest) = p[r * nh..(r + 4) * nh].split_at(nh);
        let (p1, rest) = rest.split_at(nh);
        let (p2, p3) = rest.split_at(nh);
        let rows = [p0, p1, p2, p3];
        match (limit > 0)
            .then(|| fast_dot4::<FRAC>(rows, nz, limit))
            .flatten()
        {
            Some(acc) => {
                ph[r..r + 4].copy_from_slice(&acc);
                stats.fast_blocks += 1;
            }
            None => {
                for (i, row) in rows.iter().enumerate() {
                    ph[r + i] = exact_dot::<FRAC>(row, nz);
                }
                stats.fallback_blocks += 1;
            }
        }
        if hp_ok {
            let hw = [
                h[r] as i64,
                h[r + 1] as i64,
                h[r + 2] as i64,
                h[r + 3] as i64,
            ];
            if hw.iter().all(|&v| v != 0) {
                // All four rows contribute: one column sweep folds all four
                // terms per hp element (ascending row order per element —
                // the reference accumulation order).
                for ((((o, &v0), &v1), &v2), &v3) in hp
                    .iter_mut()
                    .zip(p0.iter())
                    .zip(p1.iter())
                    .zip(p2.iter())
                    .zip(p3.iter())
                {
                    *o += ((hw[0] * v0 as i64) >> FRAC) as i32;
                    *o += ((hw[1] * v1 as i64) >> FRAC) as i32;
                    *o += ((hw[2] * v2 as i64) >> FRAC) as i32;
                    *o += ((hw[3] * v3 as i64) >> FRAC) as i32;
                }
                hp_pending += 4;
            } else {
                for (i, row) in rows.iter().enumerate() {
                    if hw[i] != 0 {
                        for (o, &pv) in hp.iter_mut().zip(row.iter()) {
                            *o += ((hw[i] * pv as i64) >> FRAC) as i32;
                        }
                        hp_pending += 1;
                    }
                }
            }
            if hp_pending >= CHUNK - 3 {
                hp_pending = 0;
                hp_ok = hp.iter().all(|&v| (v as i64).abs() <= limit);
            }
        }
        r += 4;
    }
    while r < nh {
        let p_row = &p[r * nh..(r + 1) * nh];
        match (limit > 0)
            .then(|| fast_dot1::<FRAC>(p_row, nz, limit))
            .flatten()
        {
            Some(v) => {
                ph[r] = v;
                stats.fast_blocks += 1;
            }
            None => {
                ph[r] = exact_dot::<FRAC>(p_row, nz);
                stats.fallback_blocks += 1;
            }
        }
        if hp_ok && h[r] != 0 {
            let hw = h[r] as i64;
            for (o, &pv) in hp.iter_mut().zip(p_row.iter()) {
                *o += ((hw * pv as i64) >> FRAC) as i32;
            }
            hp_pending += 1;
            if hp_pending >= CHUNK - 3 {
                hp_pending = 0;
                hp_ok = hp.iter().all(|&v| (v as i64).abs() <= limit);
            }
        }
        r += 1;
    }
    // The trailing partial window still needs its checkpoint — a saturation
    // in the final rows must not slip through unverified.
    if hp_ok && hp_pending > 0 {
        hp_ok = hp.iter().all(|&v| (v as i64).abs() <= limit);
    }
    if !hp_ok {
        hp.fill(0);
        for &(c, hv) in nz.iter() {
            let r = c as usize;
            let p_row = &p[r * nh..(r + 1) * nh];
            for (o, &pv) in hp.iter_mut().zip(p_row.iter()) {
                *o = q_add(*o, q_mul::<FRAC>(hv, pv));
            }
        }
        stats.fallback_blocks += 1;
    } else {
        stats.fast_blocks += 1;
    }
    // denom = 1 + h·P·hᵀ, inv = 1/denom — O(Ñ), always exact.
    let mut denom = q_one::<FRAC>();
    for &(c, hv) in nz.iter() {
        denom = q_add(denom, q_mul::<FRAC>(hv, ph[c as usize]));
    }
    let inv_denom = q_div::<FRAC>(q_one::<FRAC>(), denom);

    // pred = h·β with the pre-update β (the residual's forward pass).
    pred.fill(0);
    for &(c, hv) in nz.iter() {
        let r = c as usize;
        let b_row = &beta[r * m..(r + 1) * m];
        for (o, &bv) in pred.iter_mut().zip(b_row.iter()) {
            *o = q_add(*o, q_mul::<FRAC>(hv, bv));
        }
    }

    // Per-row downdate scales (exact), plus the exact max|scale| and
    // max|hp| that bound the downdate terms.
    let mut scale_abs = 0i64;
    for (s, &phv) in scale.iter_mut().zip(ph.iter()) {
        *s = q_mul::<FRAC>(phv, inv_denom);
        scale_abs = scale_abs.max((*s as i64).abs());
    }
    let hp_abs = hp.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);

    // Downdate-term bound and the post-downdate |P| bound it implies (valid
    // on the exact path too — saturation only pulls values back into
    // range). The downdate is fully static-guarded: when every element's
    // magnitude after subtraction provably fits, the saturating subtract is
    // an identity. The post-update ph_new chains get their own checkpoint
    // threshold from the loosened bound.
    let t_down = term_bound(scale_abs, hp_abs, FRAC);
    let down_fast = (*p_abs).saturating_add(t_down) <= i32::MAX as i64;
    let p_abs_after = (*p_abs).saturating_add(t_down).min(1i64 << 31);
    let limit_after = chain_limit(term_bound(p_abs_after, h_abs, FRAC));
    *p_abs = p_abs_after;

    // Fused P downdate + post-update P·hᵀ + β update, one pass over P's
    // rows, four rows at a time. Per element the downdate
    // (`P[r][c] ⊖= scale·hp[c]`) is independent work that overlaps the
    // latency-bound `ph_new` chains; a zero `scale` downdates by an exact 0
    // and a zero `h[c]` adds an exact 0 to the chain, so the branchless
    // block is value-identical to the skipping single-row form below.
    //
    // When the downdate is static-guarded AND `h` is mostly dense, the two
    // loops collapse into one column sweep: each downdated value feeds the
    // `ph_new` chain straight from its register. The chain then spans *all*
    // columns — a zero `h[c]` contributes a plain `+0`, which neither
    // changes the running values nor the checkpoint peaks, so soundness and
    // bit-exactness are untouched. On a checkpoint violation the rows are
    // already (correctly) downdated and only the dots re-run exactly.
    let dense_fast = down_fast && limit_after > 0 && nz.len() * 4 >= nh * 3;
    let mut r = 0;
    while r + 4 <= nh {
        let (p0, rest) = p[r * nh..(r + 4) * nh].split_at_mut(nh);
        let (p1, rest) = rest.split_at_mut(nh);
        let (p2, p3) = rest.split_at_mut(nh);
        if dense_fast {
            let s = [
                scale[r] as i64,
                scale[r + 1] as i64,
                scale[r + 2] as i64,
                scale[r + 3] as i64,
            ];
            let mut acc = [0i64; 4];
            let mut peak = 0i64;
            let mut c = 0;
            while c < nh {
                let end = (c + CHUNK).min(nh);
                for j in c..end {
                    let w = hp[j] as i64;
                    let hc = h[j] as i64;
                    let v0 = p0[j] - (((s[0] * w) >> FRAC) as i32);
                    let v1 = p1[j] - (((s[1] * w) >> FRAC) as i32);
                    let v2 = p2[j] - (((s[2] * w) >> FRAC) as i32);
                    let v3 = p3[j] - (((s[3] * w) >> FRAC) as i32);
                    p0[j] = v0;
                    p1[j] = v1;
                    p2[j] = v2;
                    p3[j] = v3;
                    acc[0] += (v0 as i64 * hc) >> FRAC;
                    acc[1] += (v1 as i64 * hc) >> FRAC;
                    acc[2] += (v2 as i64 * hc) >> FRAC;
                    acc[3] += (v3 as i64 * hc) >> FRAC;
                }
                for &a in &acc {
                    peak = peak.max(a.abs());
                }
                c = end;
            }
            let accs: [i32; 4] = if peak <= limit_after {
                stats.fast_blocks += 1;
                [acc[0] as i32, acc[1] as i32, acc[2] as i32, acc[3] as i32]
            } else {
                stats.fallback_blocks += 1;
                [
                    exact_dot::<FRAC>(p0, nz),
                    exact_dot::<FRAC>(p1, nz),
                    exact_dot::<FRAC>(p2, nz),
                    exact_dot::<FRAC>(p3, nz),
                ]
            };
            for (i, &ph_new_r) in accs.iter().enumerate() {
                ph[r + i] = ph_new_r;
                let b_row = &mut beta[(r + i) * m..(r + i + 1) * m];
                for ((bv, &tv), &pv) in b_row.iter_mut().zip(target.iter()).zip(pred.iter()) {
                    *bv = q_add(*bv, q_mul::<FRAC>(ph_new_r, q_sub(tv, pv)));
                }
            }
            r += 4;
            continue;
        }
        if down_fast {
            let s = [
                scale[r] as i64,
                scale[r + 1] as i64,
                scale[r + 2] as i64,
                scale[r + 3] as i64,
            ];
            for ((((&hpv, v0), v1), v2), v3) in hp
                .iter()
                .zip(p0.iter_mut())
                .zip(p1.iter_mut())
                .zip(p2.iter_mut())
                .zip(p3.iter_mut())
            {
                let w = hpv as i64;
                *v0 -= ((s[0] * w) >> FRAC) as i32;
                *v1 -= ((s[1] * w) >> FRAC) as i32;
                *v2 -= ((s[2] * w) >> FRAC) as i32;
                *v3 -= ((s[3] * w) >> FRAC) as i32;
            }
        } else {
            let s = [scale[r], scale[r + 1], scale[r + 2], scale[r + 3]];
            for ((((&hpv, v0), v1), v2), v3) in hp
                .iter()
                .zip(p0.iter_mut())
                .zip(p1.iter_mut())
                .zip(p2.iter_mut())
                .zip(p3.iter_mut())
            {
                *v0 = q_sub(*v0, q_mul::<FRAC>(s[0], hpv));
                *v1 = q_sub(*v1, q_mul::<FRAC>(s[1], hpv));
                *v2 = q_sub(*v2, q_mul::<FRAC>(s[2], hpv));
                *v3 = q_sub(*v3, q_mul::<FRAC>(s[3], hpv));
            }
        }
        // The four rows are final: ph_new over their nonzero-h support
        // equals a full second P·hᵀ pass over the downdated rows.
        let rows = [&*p0, &*p1, &*p2, &*p3];
        let acc = match (limit_after > 0)
            .then(|| fast_dot4::<FRAC>(rows, nz, limit_after))
            .flatten()
        {
            Some(acc) => {
                stats.fast_blocks += 1;
                acc
            }
            None => {
                stats.fallback_blocks += 1;
                [
                    exact_dot::<FRAC>(rows[0], nz),
                    exact_dot::<FRAC>(rows[1], nz),
                    exact_dot::<FRAC>(rows[2], nz),
                    exact_dot::<FRAC>(rows[3], nz),
                ]
            }
        };
        for (i, &ph_new_r) in acc.iter().enumerate() {
            ph[r + i] = ph_new_r;
            let b_row = &mut beta[(r + i) * m..(r + i + 1) * m];
            for ((bv, &tv), &pv) in b_row.iter_mut().zip(target.iter()).zip(pred.iter()) {
                *bv = q_add(*bv, q_mul::<FRAC>(ph_new_r, q_sub(tv, pv)));
            }
        }
        r += 4;
    }
    while r < nh {
        let s = scale[r];
        let p_row = &mut p[r * nh..(r + 1) * nh];
        if dense_fast {
            let sw = s as i64;
            let mut acc = 0i64;
            let mut peak = 0i64;
            let mut c = 0;
            while c < nh {
                let end = (c + CHUNK).min(nh);
                for j in c..end {
                    let v = p_row[j] - (((sw * hp[j] as i64) >> FRAC) as i32);
                    p_row[j] = v;
                    acc += (v as i64 * h[j] as i64) >> FRAC;
                }
                peak = peak.max(acc.abs());
                c = end;
            }
            let ph_new_r = if peak <= limit_after {
                stats.fast_blocks += 1;
                acc as i32
            } else {
                stats.fallback_blocks += 1;
                exact_dot::<FRAC>(p_row, nz)
            };
            ph[r] = ph_new_r;
            let b_row = &mut beta[r * m..(r + 1) * m];
            for ((bv, &tv), &pv) in b_row.iter_mut().zip(target.iter()).zip(pred.iter()) {
                *bv = q_add(*bv, q_mul::<FRAC>(ph_new_r, q_sub(tv, pv)));
            }
            r += 1;
            continue;
        }
        if down_fast {
            let sw = s as i64;
            for (pv, &hpv) in p_row.iter_mut().zip(hp.iter()) {
                *pv -= ((sw * hpv as i64) >> FRAC) as i32;
            }
        } else if s != 0 {
            for (pv, &hpv) in p_row.iter_mut().zip(hp.iter()) {
                *pv = q_sub(*pv, q_mul::<FRAC>(s, hpv));
            }
        }
        // Row r of P is final: ph_new[r] equals a full second P·hᵀ pass.
        let ph_new_r = match (limit_after > 0)
            .then(|| fast_dot1::<FRAC>(p_row, nz, limit_after))
            .flatten()
        {
            Some(v) => {
                stats.fast_blocks += 1;
                v
            }
            None => {
                stats.fallback_blocks += 1;
                exact_dot::<FRAC>(p_row, nz)
            }
        };
        ph[r] = ph_new_r;
        let b_row = &mut beta[r * m..(r + 1) * m];
        for ((bv, &tv), &pv) in b_row.iter_mut().zip(target.iter()).zip(pred.iter()) {
            *bv = q_add(*bv, q_mul::<FRAC>(ph_new_r, q_sub(tv, pv)));
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Q20;

    #[test]
    fn scalar_helpers_match_fixed_ops() {
        let pairs = [
            (3 << 20, 5 << 19),
            (i32::MAX, 2 << 20),
            (i32::MIN, 3),
            (-7, 0),
            (0, 0),
            (1 << 20, -(1 << 20)),
        ];
        for &(a, b) in &pairs {
            let (fa, fb) = (Q20::from_raw(a), Q20::from_raw(b));
            assert_eq!(q_mul::<20>(a, b), fa.saturating_mul(fb).to_raw());
            assert_eq!(q_add(a, b), fa.saturating_add(fb).to_raw());
            assert_eq!(q_sub(a, b), fa.saturating_sub(fb).to_raw());
            assert_eq!(q_div::<20>(a, b), fa.saturating_div(fb).to_raw());
        }
        assert_eq!(q_one::<20>(), Q20::ONE.to_raw());
    }

    #[test]
    fn matmul_q_small_known_product() {
        // [[1, 2], [3, 4]] · [[5, 6], [7, 8]] = [[19, 22], [43, 50]] in Q20.
        let one = q_one::<20>();
        let a: Vec<i32> = [1, 2, 3, 4].iter().map(|&v| v * one).collect();
        let b: Vec<i32> = [5, 6, 7, 8].iter().map(|&v| v * one).collect();
        let mut out = vec![0i32; 4];
        matmul_q_into::<20>(2, 2, 2, &a, &b, &mut out);
        let expected: Vec<i32> = [19, 22, 43, 50].iter().map(|&v| v * one).collect();
        assert_eq!(out, expected);
        let mut packed = vec![0i32; 4];
        let mut pack = Vec::new();
        matmul_packed_q_into::<20>(2, 2, 2, &a, &b, &mut pack, &mut packed);
        assert_eq!(packed, expected);
    }

    #[test]
    fn bias_relu_clamps_negative_preactivations() {
        let one = q_one::<20>();
        let bias = vec![-2 * one, one];
        let mut data = vec![one, one, 3 * one, -2 * one];
        bias_relu_q_into(2, 2, &bias, &mut data);
        assert_eq!(data, vec![0, 2 * one, one, 0]);
    }
}
