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
//! [`RlsScratch`]). Both of its passes over `P` run on one const-generic
//! block of `R` rows, at `R` = 4 and then `R` = 1 for the remainder, so
//! each dot, downdate mode and β-row update is written once. The proptest
//! suite (`tests/proptest_kernels.rs`) pins all of this against the generic
//! path, with saturated operands and in the trained regime where the fast
//! paths run.

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

/// Saturation-checked fast dot of `R` rows against the nonzero support: `R`
/// plain `i64` chains (independent, latency-hiding) with a partial-sum check
/// every [`CHUNK`] terms. Returns `None` when `limit ≤ 0` (some term may
/// clamp) or a checkpoint exceeds `limit` (some partial sum may have
/// saturated); the caller must then re-run the exact saturating form.
#[inline(always)]
fn fast_dot<const FRAC: u32, const R: usize>(
    rows: [&[i32]; R],
    nz: &[(u32, i32)],
    limit: i64,
) -> Option<[i32; R]> {
    if limit <= 0 {
        return None;
    }
    let mut acc = [0i64; R];
    let mut peak = 0i64;
    for chunk in nz.chunks(CHUNK) {
        for &(c, hv) in chunk {
            let (c, hw) = (c as usize, hv as i64);
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a += (row[c] as i64 * hw) >> FRAC;
            }
        }
        peak = acc.iter().fold(peak, |pk, a| pk.max(a.abs()));
    }
    checked(acc, peak, limit)
}

/// The `R` chains `acc`, narrowed to `i32`, when no checkpoint `peak`
/// exceeded `limit`.
#[inline(always)]
fn checked<const R: usize>(acc: [i64; R], peak: i64, limit: i64) -> Option<[i32; R]> {
    (peak <= limit).then(|| acc.map(|a| a as i32))
}

/// The dots of one row block: the fast chains `fast` when they passed their
/// checks, else the exact saturating dots of `rows` against `nz`. Counts the
/// block in `stats` either way.
#[inline(always)]
fn settle<const FRAC: u32, const R: usize>(
    fast: Option<[i32; R]>,
    rows: [&[i32]; R],
    nz: &[(u32, i32)],
    stats: &mut RlsStats,
) -> [i32; R] {
    match fast {
        Some(acc) => {
            stats.fast_blocks += 1;
            acc
        }
        None => {
            stats.fallback_blocks += 1;
            rows.map(|row| exact_dot::<FRAC>(row, nz))
        }
    }
}

/// Caller-owned workspaces and cross-call magnitude state of
/// [`seq_train_q_into`]; the steady state never allocates.
///
/// The magnitude state is a standing upper bound on `max|P|`: re-derived by
/// an exact scan every `RESCAN_PERIOD` updates, loosened incrementally in
/// between by each update's worst-case downdate. The bound only gates
/// *which code path* runs — the saturation-free fast loops or the exact
/// saturating loops — never the values produced, so a stale-but-valid bound
/// costs speed, not correctness. A bound that is too *small* is not valid,
/// so one scratch serves one `P`, and only while the kernel alone writes it:
/// a `P` written anywhere else (a parameter reload, a snapshot restore)
/// gets a fresh scratch, as `FpgaCore` does when it is rebuilt.
#[derive(Clone, Debug, Default)]
pub struct RlsScratch {
    /// On return from an update: the *post-update* `P·hᵀ` (`Ñ`).
    pub ph: Vec<i32>,
    /// `h·P` of the update (`Ñ`).
    pub hp: Vec<i32>,
    /// Cumulative fast-path/fallback telemetry — see [`RlsStats`].
    pub stats: RlsStats,
    /// Residual `t ⊖ h·β` of the update, on the pre-update β (`m`).
    resid: Vec<i32>,
    /// Per-row downdate scales `ph[r]·inv_denom` (`Ñ`).
    scale: Vec<i32>,
    /// Nonzero support of `h`: `(index, value)` pairs, ascending.
    nz: Vec<(u32, i32)>,
    /// Upper bound on the `max|P|` raw word, valid since the last rescan.
    p_abs: i64,
    /// Updates since construction; `calls % RESCAN_PERIOD == 0` triggers an
    /// exact bound rescan at the next update's entry.
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
}

/// Rows of `P` per block in both passes of [`seq_train_q_into`]: four
/// independent dot chains in flight hide the add latency. The rows past
/// the last full block run as one-row blocks.
const BLOCK_ROWS: usize = 4;

/// Pass 1 of [`seq_train_q_into`]: `ph = P·hᵀ` and `hp = h·P` from one
/// read of `P`, one row block at a time.
struct Pass1<'a> {
    h: &'a [i32],
    nz: &'a [(u32, i32)],
    /// Checkpoint limit of every chain of the pass (`ph` dots and `hp`).
    limit: i64,
    hp: &'a mut [i32],
    /// Whether every `hp` checkpoint so far passed; once false, the plain
    /// fold stops and the exact form re-runs after the pass.
    hp_ok: bool,
    /// Nonzero rows folded into `hp` since its last checkpoint.
    hp_pending: usize,
}

impl Pass1<'_> {
    /// Rows `r..r + R`: their `ph` chains (checked fast form, exact on a
    /// violation), then their terms of `hp`, in ascending row order per
    /// element (the reference's i-k-j order). The plain `i32` adds of the
    /// `hp` fold are sound because each element gains at most `CHUNK`
    /// bounded terms between checkpoints, so no partial sum can overflow
    /// before its check. When every `h[r]` of the block is nonzero, one
    /// column sweep folds all `R` terms per element; otherwise each nonzero
    /// row is folded in turn, and zero rows are skipped and not counted.
    /// Out of line, like [`Pass2::block`].
    #[inline(never)]
    fn block<const FRAC: u32, const R: usize>(
        &mut self,
        r: usize,
        p: &[i32],
        ph: &mut [i32],
        stats: &mut RlsStats,
    ) {
        let nh = self.hp.len();
        let rows: [&[i32]; R] = std::array::from_fn(|i| &p[(r + i) * nh..][..nh]);
        let fast = fast_dot::<FRAC, R>(rows, self.nz, self.limit);
        ph[r..r + R].copy_from_slice(&settle::<FRAC, R>(fast, rows, self.nz, stats));

        let live = self.h[r..r + R].iter().filter(|&&v| v != 0).count();
        if !self.hp_ok || live == 0 {
            return;
        }
        let hw: [i64; R] = std::array::from_fn(|i| self.h[r + i] as i64);
        if live == R {
            for (j, o) in self.hp.iter_mut().enumerate() {
                for (row, &w) in rows.iter().zip(&hw) {
                    *o += ((w * row[j] as i64) >> FRAC) as i32;
                }
            }
        } else {
            for (row, &w) in rows.iter().zip(&hw).filter(|(_, &w)| w != 0) {
                for (o, &pv) in self.hp.iter_mut().zip(*row) {
                    *o += ((w * pv as i64) >> FRAC) as i32;
                }
            }
        }
        // The scan fires once the count *could* reach CHUNK after the next
        // four-row block, keeping the per-element drift between scans at
        // most CHUNK terms — the budget `chain_limit` reserves.
        self.hp_pending += live;
        if self.hp_pending >= CHUNK - 3 {
            self.check_hp();
        }
    }

    /// The `hp` checkpoint.
    fn check_hp(&mut self) {
        self.hp_pending = 0;
        self.hp_ok = self.hp.iter().all(|&v| (v as i64).abs() <= self.limit);
    }
}

/// How pass 2 of [`seq_train_q_into`] downdates `P`, chosen once per
/// update from the static guards.
#[derive(Clone, Copy)]
enum Downdate {
    /// Saturation-free, fused with the `ph_new` chains into one column
    /// sweep over every column (`h` at least ¾ dense).
    Dense,
    /// Saturation-free, then the checked `ph_new` dots over `h`'s support.
    Plain,
    /// Saturating, then the checked `ph_new` dots.
    Exact,
}

/// Pass 2 of [`seq_train_q_into`]: per row block, the downdate
/// `P[r][c] ⊖= scale[r]·hp[c]`, then `ph_new[r] = P[r]·hᵀ` (the rows are
/// final), then `β[r][c] ⊕= ph_new[r]·resid[c]`.
struct Pass2<'a> {
    mode: Downdate,
    h: &'a [i32],
    nz: &'a [(u32, i32)],
    /// Checkpoint limit of the `ph_new` chains, on the loosened `|P|` bound.
    limit: i64,
    hp: &'a [i32],
    scale: &'a [i32],
    resid: &'a [i32],
}

impl Pass2<'_> {
    /// Rows `r..r + R` of `P`, `ph` and `β`. Per element the downdate is
    /// one independent operation and every dot chain sums its row in
    /// ascending column order, so the block changes no word. In the dense
    /// sweep a zero `h[c]` adds a plain `+0`, which changes neither the
    /// chain nor its checkpoint peaks; on a checkpoint violation the rows
    /// are already (correctly) downdated and only the dots re-run exactly.
    ///
    /// Out of line: inlined into [`seq_train_q_into`], the block's loops
    /// lose registers to the caller's state and run slower.
    #[inline(never)]
    fn block<const FRAC: u32, const R: usize>(
        &self,
        r: usize,
        p: &mut [i32],
        ph: &mut [i32],
        beta: &mut [i32],
        stats: &mut RlsStats,
    ) {
        let (nh, m) = (self.hp.len(), self.resid.len());
        let (hp, h) = (self.hp, &self.h[..nh]);
        let mut rest = &mut p[r * nh..(r + R) * nh];
        let mut rows: [&mut [i32]; R] = std::array::from_fn(|_| {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(nh);
            rest = tail;
            row
        });
        let s: [i64; R] = std::array::from_fn(|i| self.scale[r + i] as i64);
        let fast = match self.mode {
            Downdate::Dense => {
                let mut acc = [0i64; R];
                let mut peak = 0i64;
                for c in (0..nh).step_by(CHUNK) {
                    for j in c..(c + CHUNK).min(nh) {
                        let (w, hc) = (hp[j] as i64, h[j] as i64);
                        for ((row, &si), a) in rows.iter_mut().zip(&s).zip(&mut acc) {
                            let v = row[j] - (((si * w) >> FRAC) as i32);
                            row[j] = v;
                            *a += (v as i64 * hc) >> FRAC;
                        }
                    }
                    peak = acc.iter().fold(peak, |pk, a| pk.max(a.abs()));
                }
                checked(acc, peak, self.limit)
            }
            Downdate::Plain => {
                downdate_rows(&mut rows, s, hp, |v, si, w| {
                    v - (((si * w as i64) >> FRAC) as i32)
                });
                fast_dot::<FRAC, R>(rows.each_ref().map(|row| &**row), self.nz, self.limit)
            }
            Downdate::Exact => {
                downdate_rows(&mut rows, s, hp, |v, si, w| {
                    q_sub(v, q_mul::<FRAC>(si as i32, w))
                });
                fast_dot::<FRAC, R>(rows.each_ref().map(|row| &**row), self.nz, self.limit)
            }
        };
        let dots = settle::<FRAC, R>(fast, rows.each_ref().map(|row| &**row), self.nz, stats);
        ph[r..r + R].copy_from_slice(&dots);
        for (i, &d) in dots.iter().enumerate() {
            let b_row = &mut beta[(r + i) * m..(r + i + 1) * m];
            for (bv, &e) in b_row.iter_mut().zip(self.resid) {
                *bv = q_add(*bv, q_mul::<FRAC>(d, e));
            }
        }
    }
}

/// `row[c] = sub(row[c], s, hp[c])` over `R` rows, one column at a time.
#[inline(always)]
fn downdate_rows<const R: usize>(
    rows: &mut [&mut [i32]; R],
    s: [i64; R],
    hp: &[i32],
    sub: impl Fn(i32, i64, i32) -> i32,
) {
    for (j, &w) in hp.iter().enumerate() {
        for (row, &si) in rows.iter_mut().zip(&s) {
            row[j] = sub(row[j], si, w);
        }
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
/// *post-update* `P·hᵀ`) plus the cross-call `max|P|` bound — see
/// [`RlsScratch`].
///
/// The operation sequence per element matches the reference
/// `Matrix<Fixed<FRAC>>` implementation exactly:
///
/// 1. `ph = P·hᵀ`, `hp = h·P` (ascending inner accumulation);
/// 2. `denom = 1 ⊕ Σᵢ h[i]·ph[i]`, `inv = 1 ⊘ denom` (saturating divide —
///    the `DIV_LATENCY` reciprocal of the hardware);
/// 3. `resid = target ⊖ h·β` (β still pre-update);
/// 4. per row `r`: `scale = ph[r]·inv`, `P[r][c] ⊖= scale·hp[c]`; the row is
///    final after its downdate, so `ph_new[r] = Σ_c P[r][c]·h[c]` follows
///    immediately (same value as a full second `P·hᵀ` pass) and feeds
///    `β[r][c] ⊕= ph_new[r]·resid[c]`.
///
/// Fusing is value-preserving because the downdate touches each `P` row once
/// and the β update of row `r` reads only `ph_new[r]` and the shared
/// residual, which is computed from the pre-update β.
///
/// Both passes run on one row block of `R` rows (`R` = 4, then 1 for the
/// rows past the last full block): `Pass1::block` and `Pass2::block`.
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
        resid,
        stats,
        scale,
        nz,
        p_abs,
        calls,
    } = ws;
    ph.resize(nh, 0);
    hp.resize(nh, 0);
    resid.resize(m, 0);
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

    // Pass 1: ph = P·hᵀ and hp = h·P in one read of P's rows.
    hp.fill(0);
    let mut pass1 = Pass1 {
        h,
        nz,
        limit,
        hp,
        hp_ok: limit > 0,
        hp_pending: 0,
    };
    let mut r = 0;
    while r < nh {
        if nh - r >= BLOCK_ROWS {
            pass1.block::<FRAC, BLOCK_ROWS>(r, p, ph, stats);
            r += BLOCK_ROWS;
        } else {
            pass1.block::<FRAC, 1>(r, p, ph, stats);
            r += 1;
        }
    }
    // The trailing partial window still needs its checkpoint — a saturation
    // in the final rows must not slip through unverified.
    if pass1.hp_ok && pass1.hp_pending > 0 {
        pass1.check_hp();
    }
    if pass1.hp_ok {
        stats.fast_blocks += 1;
    } else {
        hp.fill(0);
        for &(c, hv) in nz.iter() {
            let r = c as usize;
            let p_row = &p[r * nh..(r + 1) * nh];
            for (o, &pv) in hp.iter_mut().zip(p_row.iter()) {
                *o = q_add(*o, q_mul::<FRAC>(hv, pv));
            }
        }
        stats.fallback_blocks += 1;
    }
    // denom = 1 + h·P·hᵀ, inv = 1/denom — O(Ñ), always exact.
    let mut denom = q_one::<FRAC>();
    for &(c, hv) in nz.iter() {
        denom = q_add(denom, q_mul::<FRAC>(hv, ph[c as usize]));
    }
    let inv_denom = q_div::<FRAC>(q_one::<FRAC>(), denom);

    // resid = target ⊖ h·β with the pre-update β (the residual's forward
    // pass), once per update.
    resid.fill(0);
    for &(c, hv) in nz.iter() {
        let r = c as usize;
        let b_row = &beta[r * m..(r + 1) * m];
        for (o, &bv) in resid.iter_mut().zip(b_row.iter()) {
            *o = q_add(*o, q_mul::<FRAC>(hv, bv));
        }
    }
    for (e, &t) in resid.iter_mut().zip(target) {
        *e = q_sub(t, *e);
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

    // Pass 2: the downdate, P_new·hᵀ and the β rows in one pass over P.
    let mode = if !down_fast {
        Downdate::Exact
    } else if limit_after > 0 && nz.len() * 4 >= nh * 3 {
        Downdate::Dense
    } else {
        Downdate::Plain
    };
    let pass2 = Pass2 {
        mode,
        h,
        nz,
        limit: limit_after,
        hp,
        scale,
        resid,
    };
    let mut r = 0;
    while r < nh {
        if nh - r >= BLOCK_ROWS {
            pass2.block::<FRAC, BLOCK_ROWS>(r, p, ph, beta, stats);
            r += BLOCK_ROWS;
        } else {
            pass2.block::<FRAC, 1>(r, p, ph, beta, stats);
            r += 1;
        }
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
