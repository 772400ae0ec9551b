//! Behavioural + cycle model of the `predict` / `seq_train` datapath.
//!
//! §4.2: the core implements the batch-size-1 OS-ELM update with "only a
//! single add, mult, and div unit", stores every operand in on-chip BRAM as
//! 32-bit Q20 fixed point, and runs at 125 MHz; the initial training stays on
//! the 650 MHz Cortex-A9. [`FpgaCore`] executes exactly that arithmetic on
//! [`Q20`] values (so rounding and saturation behave like the hardware) and
//! charges one clock cycle per scalar multiply–accumulate, plus a fixed
//! latency per division and per memory-transfer burst.
//!
//! Since PR 7 the behavioural model runs on the raw-`i32` integer kernels of
//! [`elmrl_fixed::kernels`]: the BRAM banks are flat `Vec<i32>` words and all
//! per-call temporaries live in a persistent `FpgaScratch`, so the steady
//! state allocates nothing. The arithmetic is **bit-for-bit identical** to
//! the original generic `Matrix<Q20>` implementation (proptested in
//! `elmrl-fixed`), and the cycle model and [`FpgaCoreSnapshot`] wire format
//! are unchanged.

use elmrl_fixed::kernels::{
    bias_relu_q_into, matmul_q_into, seq_train_q_into, RlsScratch, RlsStats, RESCAN_PERIOD,
};
use elmrl_fixed::Q20;
use elmrl_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Programmable-logic clock of the PYNQ-Z1 design (§4.2).
pub const PL_CLOCK_HZ: f64 = 125.0e6;
/// Cortex-A9 clock of the PYNQ-Z1 (§4.1, Table 1).
pub const CPU_CLOCK_HZ: f64 = 650.0e6;

/// Fixed per-invocation overhead cycles (AXI handshake + control FSM).
const INVOCATION_OVERHEAD: u64 = 64;
/// Latency of the iterative fixed-point divider, in cycles.
const DIV_LATENCY: u64 = 32;

/// Accumulated simulated cycle counts of the programmable-logic core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleCounts {
    /// Cycles spent in the `predict` module.
    pub predict_cycles: u64,
    /// Cycles spent in the `seq_train` module.
    pub seq_train_cycles: u64,
    /// Number of `predict` invocations.
    pub predict_calls: u64,
    /// Number of `seq_train` invocations.
    pub seq_train_calls: u64,
}

impl CycleCounts {
    /// Total programmable-logic cycles.
    pub fn total_cycles(&self) -> u64 {
        self.predict_cycles + self.seq_train_cycles
    }

    /// Simulated seconds at the 125 MHz PL clock.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles() as f64 / PL_CLOCK_HZ
    }

    /// Simulated seconds spent predicting.
    pub fn predict_seconds(&self) -> f64 {
        self.predict_cycles as f64 / PL_CLOCK_HZ
    }

    /// Simulated seconds spent in sequential training.
    pub fn seq_train_seconds(&self) -> f64 {
        self.seq_train_cycles as f64 / PL_CLOCK_HZ
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &CycleCounts) {
        self.predict_cycles += other.predict_cycles;
        self.seq_train_cycles += other.seq_train_cycles;
        self.predict_calls += other.predict_calls;
        self.seq_train_calls += other.seq_train_calls;
    }
}

/// Persistent per-core workspaces: quantised inputs, stacked hidden rows,
/// outputs/targets and the RLS vectors, all raw Q20 words. Sized on first use
/// and reused for every subsequent call — the steady state never allocates.
#[derive(Clone, Debug, Default)]
struct FpgaScratch {
    /// Quantised input rows (B×n).
    x: Vec<i32>,
    /// Hidden activations (B×Ñ).
    h: Vec<i32>,
    /// Output rows (B×m).
    y: Vec<i32>,
    /// Target rows (B×m).
    t: Vec<i32>,
    /// Workspaces + cross-call `max|P|` bound of the fused RLS kernel.
    rls: RlsScratch,
    /// Kernel stats already flushed into the telemetry registry — the next
    /// flush reports only the delta since this snapshot.
    rls_flushed: RlsStats,
}

/// The fixed-point OS-ELM core: `α`, `b`, `β`, `P` held as raw Q20 words in
/// flat BRAM-like banks, batch-size-1 prediction and sequential training on
/// the integer kernels, with per-call cycle accounting.
#[derive(Clone, Debug)]
pub struct FpgaCore {
    /// Input dimensionality `n`.
    n: usize,
    /// Hidden width `Ñ`.
    nh: usize,
    /// Output width `m`.
    m: usize,
    /// Input projection `α` (n×Ñ), raw Q20 words.
    alpha: Vec<i32>,
    /// Hidden bias `b` (Ñ), raw Q20 words.
    bias: Vec<i32>,
    /// Output weights `β` (Ñ×m), raw Q20 words.
    beta: Vec<i32>,
    /// RLS covariance `P` (Ñ×Ñ), raw Q20 words.
    p: Vec<i32>,
    cycles: CycleCounts,
    scratch: FpgaScratch,
}

/// Quantise a float matrix into raw Q20 words, row-major — the same
/// element-wise `Q20::from_f64` that `Matrix::cast` performs.
fn quantize_raws(m: &Matrix<f64>) -> Vec<i32> {
    m.as_slice()
        .iter()
        .map(|&v| Q20::from_f64(v).to_raw())
        .collect()
}

/// Extract the raw words of a Q20 matrix, row-major.
fn matrix_raws(m: &Matrix<Q20>) -> Vec<i32> {
    m.as_slice().iter().map(|q| q.to_raw()).collect()
}

impl FpgaCore {
    /// Load a core from float parameters (the CPU-side initial training
    /// produces `α`, `b`, `β₀`, `P₀` in float and writes them to the PL's
    /// BRAMs through the AXI bus — this constructor is that transfer,
    /// including the quantisation to Q20).
    pub fn from_f64_parts(
        alpha: &Matrix<f64>,
        bias: &Matrix<f64>,
        beta: &Matrix<f64>,
        p: &Matrix<f64>,
    ) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a 1×Ñ row");
        assert_eq!(alpha.cols(), bias.cols(), "α/bias width mismatch");
        assert_eq!(alpha.cols(), beta.rows(), "α/β width mismatch");
        assert_eq!(p.rows(), p.cols(), "P must be square");
        assert_eq!(p.rows(), alpha.cols(), "P/α width mismatch");
        Self {
            n: alpha.rows(),
            nh: alpha.cols(),
            m: beta.cols(),
            alpha: quantize_raws(alpha),
            bias: quantize_raws(bias),
            beta: quantize_raws(beta),
            p: quantize_raws(p),
            cycles: CycleCounts::default(),
            scratch: FpgaScratch::default(),
        }
    }

    /// Input dimensionality `n`.
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// Hidden width `Ñ`.
    pub fn hidden_dim(&self) -> usize {
        self.nh
    }

    /// Output width `m`.
    pub fn output_dim(&self) -> usize {
        self.m
    }

    /// Accumulated cycle counters.
    pub fn cycles(&self) -> &CycleCounts {
        &self.cycles
    }

    /// The fixed-point `β` as a matrix (diagnostics / tests / target sync).
    pub fn beta(&self) -> Matrix<Q20> {
        Matrix::from_fn(self.nh, self.m, |i, j| {
            Q20::from_raw(self.beta[i * self.m + j])
        })
    }

    /// The fixed-point `P` as a matrix (diagnostics / tests).
    pub fn p(&self) -> Matrix<Q20> {
        Matrix::from_fn(self.nh, self.nh, |i, j| {
            Q20::from_raw(self.p[i * self.nh + j])
        })
    }

    /// Cycle cost of one `predict` call for the core's dimensions:
    /// `n·Ñ` MACs for `x·α`, `Ñ` bias adds, `Ñ` ReLU selects and `Ñ·m` MACs
    /// for `H·β`, all serialised through the single arithmetic unit.
    pub fn predict_cycle_cost(&self) -> u64 {
        let n = self.n as u64;
        let h = self.nh as u64;
        let m = self.m as u64;
        INVOCATION_OVERHEAD + n * h + 2 * h + h * m
    }

    /// Cycle cost of one `seq_train` call: the hidden layer, the two `Ñ²`
    /// matrix–vector products with `P`, the scalar reciprocal, the rank-1
    /// `P` downdate (2·Ñ²) and the `β` update.
    pub fn seq_train_cycle_cost(&self) -> u64 {
        let n = self.n as u64;
        let h = self.nh as u64;
        let m = self.m as u64;
        INVOCATION_OVERHEAD
            + n * h          // hidden pre-activation
            + 2 * h          // bias + ReLU
            + 2 * h * h      // P·hᵀ and h·P
            + h + DIV_LATENCY // denominator accumulation + reciprocal
            + 2 * h * h      // rank-1 downdate of P (multiply + subtract)
            + h * m          // prediction for the residual
            + h * m + h // β update
    }

    /// Quantised-input load: copy `rows` input rows' raw words into the
    /// scratch `x` bank. Reuses capacity — no steady-state allocation.
    fn load_x(&mut self, raws: impl Iterator<Item = i32>) {
        self.scratch.x.clear();
        self.scratch.x.extend(raws);
    }

    /// Hidden-layer activation of `rows` stacked samples (ReLU in Q20):
    /// integer matmul + bias/ReLU epilogue into the scratch `h` bank.
    /// Bit-identical to the generic per-sample `x·α` path.
    fn hidden_batch(&mut self, rows: usize) {
        debug_assert_eq!(self.scratch.x.len(), rows * self.n);
        let FpgaScratch { x, h, .. } = &mut self.scratch;
        h.resize(rows * self.nh, 0);
        matmul_q_into::<20>(rows, self.n, self.nh, x, &self.alpha, h);
        bias_relu_q_into(rows, self.nh, &self.bias, h);
    }

    /// `predict` module: Q-values of `B` stacked quantised input rows,
    /// written into `out` (`B×m`, resized as needed). Each row costs exactly
    /// one `predict` invocation in the cycle model — the hardware core is
    /// batch-size-1, so batching is a host-side loop over the same module.
    pub fn predict_batch_q(&mut self, xs: &Matrix<Q20>, out: &mut Matrix<Q20>) {
        let _span = elmrl_telemetry::hist!("fpga.predict").span();
        assert_eq!(xs.cols(), self.n, "input width mismatch");
        let rows = xs.rows();
        self.load_x(xs.as_slice().iter().map(|q| q.to_raw()));
        self.hidden_batch(rows);
        let FpgaScratch { h, y, .. } = &mut self.scratch;
        y.resize(rows * self.m, 0);
        matmul_q_into::<20>(rows, self.nh, self.m, h, &self.beta, y);
        out.resize_zeroed(rows, self.m);
        for (o, &r) in out.as_mut_slice().iter_mut().zip(self.scratch.y.iter()) {
            *o = Q20::from_raw(r);
        }
        self.cycles.predict_cycles += self.predict_cycle_cost() * rows as u64;
        self.cycles.predict_calls += rows as u64;
    }

    /// `seq_train` module: `B` sequential batch-size-1 OS-ELM updates in Q20
    /// over stacked quantised inputs/targets, in row order. Bit-identical to
    /// `B` one-row calls (the hidden stage depends only on the frozen
    /// `α`/`b`, so hoisting it out of the update loop preserves every
    /// intermediate), and charged identically: one `seq_train` invocation
    /// per row.
    pub fn seq_train_batch_q(&mut self, xs: &Matrix<Q20>, targets: &Matrix<Q20>) {
        let _span = elmrl_telemetry::hist!("fpga.rls_update").span();
        assert_eq!(xs.cols(), self.n, "input width mismatch");
        assert_eq!(targets.cols(), self.m, "target width mismatch");
        assert_eq!(xs.rows(), targets.rows(), "input/target batch mismatch");
        let rows = xs.rows();
        self.load_x(xs.as_slice().iter().map(|q| q.to_raw()));
        self.hidden_batch(rows);
        self.scratch.t.clear();
        self.scratch
            .t
            .extend(targets.as_slice().iter().map(|q| q.to_raw()));
        self.run_rls_rows(rows);
        self.cycles.seq_train_cycles += self.seq_train_cycle_cost() * rows as u64;
        self.cycles.seq_train_calls += rows as u64;
    }

    /// Run the fused RLS update for each of `rows` hidden/target rows already
    /// staged in scratch, sequentially in row order.
    fn run_rls_rows(&mut self, rows: usize) {
        let Self {
            nh,
            m,
            beta,
            p,
            scratch,
            ..
        } = self;
        let FpgaScratch { h, t, rls, .. } = scratch;
        for r in 0..rows {
            seq_train_q_into::<20>(
                *nh,
                *m,
                &h[r * *nh..(r + 1) * *nh],
                &t[r * *m..(r + 1) * *m],
                p,
                beta,
                rls,
            );
        }
        self.flush_rls_stats();
    }

    /// Forward the kernel-stat increments since the last flush into the
    /// global telemetry counters (`fixed.rls.*`). No-op while telemetry is
    /// disabled — the unflushed remainder is reported once it turns on.
    fn flush_rls_stats(&mut self) {
        if !elmrl_telemetry::enabled() {
            return;
        }
        let stats = self.scratch.rls.stats;
        let delta = stats.since(&self.scratch.rls_flushed);
        self.scratch.rls_flushed = stats;
        elmrl_telemetry::counter!("fixed.rls.calls").add(delta.calls);
        elmrl_telemetry::counter!("fixed.rls.rescans").add(delta.rescans);
        elmrl_telemetry::counter!("fixed.rls.fast_blocks").add(delta.fast_blocks);
        elmrl_telemetry::counter!("fixed.rls.fallback_blocks").add(delta.fallback_blocks);
        // The configured cadence, so the report can phrase the observed
        // rescan count as "one exact max|P| scan per N updates".
        elmrl_telemetry::gauge!("fixed.rls.rescan_period").set(RESCAN_PERIOD as i64);
    }

    /// Capture the complete BRAM contents (raw Q20 words of `α`, `b`, `β`,
    /// `P`) plus the cycle counters for checkpointing.
    pub fn snapshot(&self) -> FpgaCoreSnapshot {
        FpgaCoreSnapshot {
            alpha: Matrix::from_fn(self.n, self.nh, |i, j| {
                Q20::from_raw(self.alpha[i * self.nh + j])
            }),
            bias: Matrix::from_fn(1, self.nh, |_, j| Q20::from_raw(self.bias[j])),
            beta: self.beta(),
            p: self.p(),
            cycles: self.cycles,
        }
    }

    /// Rebuild a core from a snapshot, bit-for-bit: the Q20 words are stored
    /// raw, so no quantisation happens on the way back in.
    pub fn from_snapshot(s: &FpgaCoreSnapshot) -> Self {
        Self {
            n: s.alpha.rows(),
            nh: s.alpha.cols(),
            m: s.beta.cols(),
            alpha: matrix_raws(&s.alpha),
            bias: matrix_raws(&s.bias),
            beta: matrix_raws(&s.beta),
            p: matrix_raws(&s.p),
            cycles: s.cycles,
            scratch: FpgaScratch::default(),
        }
    }
}

/// Serializable state of an [`FpgaCore`]: the four Q20 BRAM banks and the
/// accumulated cycle counters. Q20 values serialize as their raw 32-bit
/// words, so a save/restore round trip is exact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FpgaCoreSnapshot {
    /// Input projection `α` (n×Ñ).
    pub alpha: Matrix<Q20>,
    /// Hidden bias `b` (1×Ñ).
    pub bias: Matrix<Q20>,
    /// Output weights `β` (Ñ×m).
    pub beta: Matrix<Q20>,
    /// RLS covariance `P` (Ñ×Ñ).
    pub p: Matrix<Q20>,
    /// Simulated-cycle counters at capture time.
    pub cycles: CycleCounts,
}

impl FpgaCoreSnapshot {
    /// Check that the banks have the shapes of a core for `config`, so a
    /// snapshot from another configuration is refused.
    pub fn check_dims(&self, config: &elmrl_elm::OsElmConfig) -> Result<(), String> {
        let (n, nh, m) = (config.input_dim, config.hidden_dim, config.output_dim);
        let shapes = [
            self.alpha.shape(),
            self.bias.shape(),
            self.beta.shape(),
            self.p.shape(),
        ];
        if shapes != [(n, nh), (1, nh), (nh, m), (nh, nh)] {
            return Err(format!(
                "core α, b, β, P shapes {shapes:?} do not fit (n, Ñ, m) = ({n}, {nh}, {m})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_elm::{HiddenActivation, OsElm, OsElmConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Build a float OS-ELM, initialise it, and mirror it into an FpgaCore.
    fn float_and_fixed(hidden: usize, seed: u64) -> (OsElm<f64>, FpgaCore) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = OsElmConfig::new(5, hidden, 1)
            .with_activation(HiddenActivation::ReLU)
            .with_l2_delta(0.5)
            .with_relative_l2(true)
            .with_spectral_normalization(true);
        let mut os = OsElm::<f64>::new(&cfg, &mut rng);
        let x0 = Matrix::from_fn(hidden.max(8), 5, |i, j| {
            (((i * 7 + j * 3) % 23) as f64 / 23.0) - 0.5
        });
        let t0 = Matrix::from_fn(hidden.max(8), 1, |i, _| if i % 3 == 0 { -1.0 } else { 0.0 });
        os.init_train(&x0, &t0).unwrap();
        let core = FpgaCore::from_f64_parts(
            os.model().alpha(),
            os.model().bias(),
            os.model().beta(),
            os.p_matrix().unwrap(),
        );
        (os, core)
    }

    /// One quantised row: the 1×`len` matrix the batched entry points take.
    fn q_row(v: &[f64]) -> Matrix<Q20> {
        Matrix::from_fn(1, v.len(), |_, j| Q20::from_f64(v[j]))
    }

    /// `predict_batch_q` on one row: its Q-values.
    fn predict_one(core: &mut FpgaCore, x: &Matrix<Q20>) -> Vec<Q20> {
        let mut out = Matrix::default();
        core.predict_batch_q(x, &mut out);
        out.row(0).to_vec()
    }

    #[test]
    fn clock_constants_match_the_paper() {
        assert_eq!(PL_CLOCK_HZ, 125.0e6);
        assert_eq!(CPU_CLOCK_HZ, 650.0e6);
    }

    #[test]
    fn fixed_point_prediction_tracks_float_model() {
        let (os, mut core) = float_and_fixed(16, 1);
        for k in 0..10 {
            let x: Vec<f64> = (0..5)
                .map(|j| ((k * 5 + j) as f64 * 0.137).sin() * 0.5)
                .collect();
            let yf = os.predict_single(&x)[0];
            let yq = predict_one(&mut core, &q_row(&x))[0].to_f64();
            assert!(
                (yf - yq).abs() < 1e-3,
                "float {yf} vs fixed {yq} diverge beyond Q20 tolerance"
            );
        }
        assert_eq!(core.cycles().predict_calls, 10);
    }

    #[test]
    fn fixed_point_sequential_training_tracks_float_model() {
        let (mut os, mut core) = float_and_fixed(16, 2);
        for k in 0..50 {
            let x: Vec<f64> = (0..5)
                .map(|j| ((k * 3 + j) as f64 * 0.21).cos() * 0.4)
                .collect();
            let t = if k % 4 == 0 { -1.0 } else { 0.1 };
            os.seq_train_single(&x, &[t]).unwrap();
            core.seq_train_batch_q(&q_row(&x), &q_row(&[t]));
        }
        // β should stay close to the float reference after 50 updates.
        let beta_f = os.model().beta();
        let beta_q = core.beta();
        let mut max_err: f64 = 0.0;
        for i in 0..beta_f.rows() {
            max_err = max_err.max((beta_f[(i, 0)] - beta_q[(i, 0)].to_f64()).abs());
        }
        assert!(
            max_err < 5e-2,
            "β drift {max_err} exceeds fixed-point tolerance"
        );
        // And their predictions should agree.
        let x = [0.1, -0.2, 0.05, 0.3, 1.0];
        let yf = os.predict_single(&x)[0];
        let yq = predict_one(&mut core, &q_row(&x))[0].to_f64();
        assert!((yf - yq).abs() < 5e-2, "prediction drift: {yf} vs {yq}");
    }

    #[test]
    fn batched_calls_match_sequential_calls_bit_for_bit() {
        let (_, mut seq_core) = float_and_fixed(16, 7);
        let mut batch_core = seq_core.clone();
        let b = 6;
        let xs = Matrix::<Q20>::from_fn(b, 5, |i, j| {
            Q20::from_f64(((i * 5 + j) as f64 * 0.173).sin() * 0.4)
        });
        let ts = Matrix::<Q20>::from_fn(b, 1, |i, _| {
            Q20::from_f64(if i % 2 == 0 { -0.5 } else { 0.25 })
        });

        let row = |m: &Matrix<Q20>, r: usize| Matrix::from_fn(1, m.cols(), |_, j| m[(r, j)]);

        // A B-row predict_batch_q == B one-row calls, same cycle charges.
        let mut out = Matrix::<Q20>::default();
        batch_core.predict_batch_q(&xs, &mut out);
        for r in 0..b {
            let y = predict_one(&mut seq_core, &row(&xs, r));
            assert_eq!(out.row(r), &y[..], "predict row {r}");
        }
        assert_eq!(batch_core.cycles(), seq_core.cycles());

        // A B-row seq_train_batch_q == B one-row calls, bit for bit.
        batch_core.seq_train_batch_q(&xs, &ts);
        for r in 0..b {
            seq_core.seq_train_batch_q(&row(&xs, r), &row(&ts, r));
        }
        assert_eq!(batch_core.beta(), seq_core.beta());
        assert_eq!(batch_core.p(), seq_core.p());
        assert_eq!(batch_core.cycles(), seq_core.cycles());
    }

    #[test]
    fn cycle_costs_scale_quadratically_for_training_linearly_for_prediction() {
        let (_, core32) = float_and_fixed(32, 3);
        let (_, core128) = float_and_fixed(128, 3);
        let p_ratio = core128.predict_cycle_cost() as f64 / core32.predict_cycle_cost() as f64;
        let t_ratio = core128.seq_train_cycle_cost() as f64 / core32.seq_train_cycle_cost() as f64;
        assert!(
            p_ratio > 2.0 && p_ratio < 6.0,
            "predict should scale ~linearly: {p_ratio}"
        );
        assert!(
            t_ratio > 10.0,
            "seq_train should scale ~quadratically: {t_ratio}"
        );
        // seq_train dominates predict at every size (the paper's bottleneck).
        assert!(core32.seq_train_cycle_cost() > 4 * core32.predict_cycle_cost());
    }

    #[test]
    fn cycles_accumulate_and_convert_to_seconds() {
        let (_, mut core) = float_and_fixed(64, 4);
        let x = q_row(&[0.1; 5]);
        predict_one(&mut core, &x);
        core.seq_train_batch_q(&x, &q_row(&[0.5]));
        let c = core.cycles();
        assert_eq!(c.predict_calls, 1);
        assert_eq!(c.seq_train_calls, 1);
        assert!(c.total_cycles() > 0);
        assert!(c.total_seconds() > 0.0);
        assert!((c.total_seconds() - c.total_cycles() as f64 / PL_CLOCK_HZ).abs() < 1e-15);
        assert!(c.seq_train_seconds() > c.predict_seconds());
        let mut merged = CycleCounts::default();
        merged.merge(c);
        merged.merge(c);
        assert_eq!(merged.predict_calls, 2);
        assert_eq!(merged.total_cycles(), 2 * c.total_cycles());
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let (_, mut core) = float_and_fixed(16, 6);
        let x = q_row(&[0.2; 5]);
        predict_one(&mut core, &x);
        core.seq_train_batch_q(&x, &q_row(&[-0.3]));

        let snap = core.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: FpgaCoreSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = FpgaCore::from_snapshot(&back);

        assert_eq!(restored.beta(), core.beta());
        assert_eq!(restored.p(), core.p());
        assert_eq!(restored.cycles(), core.cycles());

        // Both copies must continue identically (Q20 arithmetic is exact on
        // identical raw words).
        for k in 0..20 {
            let x: Vec<f64> = (0..5)
                .map(|j| ((k * 3 + j) as f64 * 0.11).sin() * 0.4)
                .collect();
            let (x, t) = (q_row(&x), q_row(&[if k % 2 == 0 { -0.5 } else { 0.25 }]));
            assert_eq!(
                predict_one(&mut core, &x),
                predict_one(&mut restored, &x),
                "step {k}"
            );
            core.seq_train_batch_q(&x, &t);
            restored.seq_train_batch_q(&x, &t);
        }
        assert_eq!(restored.beta(), core.beta());
        assert_eq!(restored.p(), core.p());
    }

    #[test]
    #[should_panic(expected = "P must be square")]
    fn shape_validation_on_construction() {
        let _ = FpgaCore::from_f64_parts(
            &Matrix::<f64>::ones(5, 8),
            &Matrix::<f64>::ones(1, 8),
            &Matrix::<f64>::ones(8, 1),
            &Matrix::<f64>::ones(8, 4),
        );
    }
}
