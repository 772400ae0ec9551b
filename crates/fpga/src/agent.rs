//! Design (7): the OS-ELM-L2-Lipschitz Q-Network with its prediction and
//! sequential training executed by the fixed-point FPGA core.
//!
//! Work is split exactly as in Figure 3 of the paper: the Cortex-A9 (CPU
//! part) runs the environment, the ε₁ policy and the *initial training*; the
//! programmable logic runs `predict` and `seq_train` on Q20 data at 125 MHz.
//! The agent therefore keeps a float OS-ELM for the CPU-side initial training
//! and mirrors its state into an [`FpgaCore`] once initial training
//! completes; every subsequent prediction and sequential update goes through
//! the fixed-point core and is charged simulated PL cycles.

use crate::core::{FpgaCore, FpgaCoreSnapshot, CPU_CLOCK_HZ};
use elmrl_core::agent::{Agent, Observation, DROPPED_NONFINITE};
use elmrl_core::batch::{elm_q_batch_into, BatchQScratch};
use elmrl_core::checkpoint::AgentSnapshot;
use elmrl_core::clipping::TargetConfig;
use elmrl_core::encoding::StateActionEncoder;
use elmrl_core::ops::{OpCounts, OpKind};
use elmrl_core::oselm_qnet::initial_training_chunk;
use elmrl_core::policy::{max_q, ExploitPolicy};
use elmrl_elm::model::ElmModel;
use elmrl_elm::os_elm::OsElmError;
use elmrl_elm::{HiddenActivation, ModelSnapshot, OsElm, OsElmConfig, OsElmSnapshot};
use elmrl_fixed::Q20;
use elmrl_linalg::{LinalgError, Matrix};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Estimated Cortex-A9 cycles per floating-point operation for the CPU-side
/// initial training (scalar FPU plus NumPy-style interpreter overhead).
const CPU_CYCLES_PER_FLOP: f64 = 8.0;

/// Configuration of the FPGA-backed agent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FpgaAgentConfig {
    /// Environment state dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer width `Ñ` (the paper deploys up to 192 on the xc7z020).
    pub hidden_dim: usize,
    /// Exploit probability ε₁.
    pub exploit_prob: f64,
    /// Random-update probability ε₂.
    pub update_prob: f64,
    /// Target-network sync interval (episodes).
    pub target_sync_episodes: usize,
    /// Q-target construction (γ and clipping).
    pub target: TargetConfig,
    /// ReOS-ELM δ (the paper uses 0.5 for the L2-Lipschitz configuration).
    pub l2_delta: f64,
}

impl FpgaAgentConfig {
    /// Settings for a registered workload: dimensions and protocol knobs come
    /// from the [`elmrl_gym::EnvSpec`]'s per-workload defaults; δ stays at the
    /// paper's 0.5 (the hardware design is OS-ELM-L2-Lipschitz).
    pub fn for_workload(spec: &elmrl_gym::EnvSpec, hidden_dim: usize) -> Self {
        let design = elmrl_core::designs::DesignConfig::for_workload(spec, hidden_dim);
        Self {
            state_dim: design.state_dim,
            num_actions: design.num_actions,
            hidden_dim,
            exploit_prob: design.exploit_prob,
            update_prob: design.update_prob,
            target_sync_episodes: design.target_sync_episodes,
            target: design.target_config(),
            l2_delta: 0.5,
        }
    }

    fn elm_config(&self) -> OsElmConfig {
        OsElmConfig::new(self.state_dim + 1, self.hidden_dim, 1)
            .with_activation(HiddenActivation::ReLU)
            .with_l2_delta(self.l2_delta)
            .with_relative_l2(true)
            .with_spectral_normalization(true)
    }
}

/// The complete checkpointable state of an [`FpgaAgent`]: the CPU-side float
/// learner, the float target network, the Q20 core (when loaded), the
/// initial-training buffer and the simulated-time accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct FpgaAgentState {
    cpu_learner: OsElmSnapshot,
    target: ModelSnapshot,
    core: Option<FpgaCoreSnapshot>,
    buffer: Vec<Observation>,
    ops: OpCounts,
    simulated_cpu_seconds: f64,
}

/// Reusable host-side workspaces of the agent's hot paths: float target-Q
/// evaluation, input encoding/quantisation and the quantised core I/O rows.
/// Sized on first use and reused — act/observe steady state allocates
/// nothing. Not part of the checkpoint (pure scratch).
#[derive(Debug, Default)]
struct AgentScratch {
    /// Encoding workspace for one `(state, action)` input row.
    enc: Vec<f64>,
    /// `1 × state_dim` staging row for a scalar sequential update.
    states: Matrix<f64>,
    /// `B × state_dim` staging for a tick's gated next-states.
    next_states: Matrix<f64>,
    /// Float target-network batch evaluation workspaces.
    tq: BatchQScratch,
    /// Quantised input rows for the core (`B × (state_dim + 1)`).
    xq: Matrix<Q20>,
    /// Quantised target rows for the core (`B × 1`).
    tgt: Matrix<Q20>,
    /// Quantised core outputs (`B × 1`).
    yq: Matrix<Q20>,
    /// Per-action Q-values of the current state (float view).
    q: Vec<f64>,
    /// Indices of the gate-selected transitions of one tick.
    selected: Vec<usize>,
}

/// The FPGA-backed OS-ELM-L2-Lipschitz agent (design 7).
pub struct FpgaAgent {
    config: FpgaAgentConfig,
    encoder: StateActionEncoder,
    policy: ExploitPolicy,
    /// CPU-side float learner used for initial training (and as the θ₁ source
    /// of truth until the core is loaded).
    cpu_learner: OsElm<f64>,
    /// θ₂ target network, evaluated on the CPU in float as in `OsElmQNet`.
    target: ElmModel<f64>,
    /// The programmable-logic core; present once initial training completed.
    core: Option<FpgaCore>,
    buffer: Vec<Observation>,
    scratch: AgentScratch,
    ops: OpCounts,
    /// Simulated CPU seconds spent in initial training.
    simulated_cpu_seconds: f64,
}

impl FpgaAgent {
    /// Create an agent; the PL core is instantiated after initial training.
    pub fn new(config: FpgaAgentConfig, rng: &mut SmallRng) -> Self {
        let encoder = StateActionEncoder::new(config.state_dim, config.num_actions);
        let cpu_learner = OsElm::<f64>::new(&config.elm_config(), rng);
        let target = cpu_learner.model().clone();
        Self {
            policy: ExploitPolicy::new(config.exploit_prob),
            encoder,
            cpu_learner,
            target,
            core: None,
            buffer: Vec::with_capacity(config.hidden_dim),
            scratch: AgentScratch::default(),
            ops: OpCounts::new(),
            simulated_cpu_seconds: 0.0,
            config,
        }
    }

    /// The agent configuration.
    pub fn config(&self) -> &FpgaAgentConfig {
        &self.config
    }

    /// Whether the PL core has been loaded (i.e. initial training completed).
    pub fn core_loaded(&self) -> bool {
        self.core.is_some()
    }

    /// Simulated programmable-logic seconds (125 MHz) accumulated so far.
    pub fn simulated_pl_seconds(&self) -> f64 {
        self.core
            .as_ref()
            .map(|c| c.cycles().total_seconds())
            .unwrap_or(0.0)
    }

    /// Simulated seconds split by module: `(predict, seq_train, init_train)`.
    pub fn simulated_breakdown_seconds(&self) -> (f64, f64, f64) {
        let (p, s) = self
            .core
            .as_ref()
            .map(|c| (c.cycles().predict_seconds(), c.cycles().seq_train_seconds()))
            .unwrap_or((0.0, 0.0));
        (p, s, self.simulated_cpu_seconds)
    }

    /// Total simulated on-device seconds (PL + CPU initial training).
    pub fn simulated_total_seconds(&self) -> f64 {
        self.simulated_pl_seconds() + self.simulated_cpu_seconds
    }

    /// Q-values of every action of `state` through the quantised core,
    /// written into `scratch.q`: all `A` encoded rows are quantised into one
    /// stacked matrix and evaluated by a single [`FpgaCore::predict_batch_q`]
    /// call — bit-for-bit the per-action `predict` loop (each stacked row is
    /// accumulated independently) and charged identically (one `predict`
    /// invocation per row). Allocation-free at steady state.
    fn core_q_into(
        encoder: &StateActionEncoder,
        core: &mut FpgaCore,
        scratch: &mut AgentScratch,
        state: &[f64],
    ) {
        let a = encoder.num_actions();
        scratch.xq.resize_zeroed(a, encoder.input_dim());
        for action in 0..a {
            encoder.encode_into(state, action, &mut scratch.enc);
            for (j, &v) in scratch.enc.iter().enumerate() {
                scratch.xq[(action, j)] = Q20::from_f64(v);
            }
        }
        core.predict_batch_q(&scratch.xq, &mut scratch.yq);
        scratch.q.clear();
        for r in 0..a {
            scratch.q.push(scratch.yq[(r, 0)].to_f64());
        }
    }

    fn run_initial_training(&mut self) {
        let _span = OpKind::InitTrain.span();
        let (x, t) = initial_training_chunk(
            &self.encoder,
            &self.target,
            &self.config.target,
            &self.buffer,
        );
        // A non-finite state or reward in D drops the refill, as in the
        // OS-ELM agent; any other failure is unexpected.
        match self.cpu_learner.init_train(&x, &t) {
            Ok(()) => {}
            Err(OsElmError::Linalg(LinalgError::InvalidData { .. })) => {
                self.buffer.clear();
                return;
            }
            Err(_) => {
                debug_assert!(false, "FPGA agent initial training failed unexpectedly");
                self.buffer.clear();
                return;
            }
        }
        // Simulated Cortex-A9 cost of the initial training: forming the Gram
        // matrix (k·Ñ²), the Cholesky solve (Ñ³/3 + Ñ²·m) and H itself.
        let nh = self.config.hidden_dim as f64;
        let k = x.rows() as f64;
        let flops = k * nh * nh + nh * nh * nh / 3.0 + k * nh * (x.cols() as f64);
        self.simulated_cpu_seconds += flops * CPU_CYCLES_PER_FLOP / CPU_CLOCK_HZ;

        // AXI transfer: load α, b, β, P into the PL BRAMs.
        self.core = Some(FpgaCore::from_f64_parts(
            self.cpu_learner.model().alpha(),
            self.cpu_learner.model().bias(),
            self.cpu_learner.model().beta(),
            self.cpu_learner.p_matrix().expect("initialised above"),
        ));
        self.buffer.clear();
        self.ops.add(OpKind::InitTrain, 1);
    }

    /// One Q20 sequential update — allocation-free at steady state: the
    /// float θ₂ Q-target comes from the batched target kernel
    /// ([`elm_q_batch_into`], bit-for-bit the per-action `predict_single`
    /// loop), and the core update goes through the B = 1 case of
    /// [`FpgaCore::seq_train_batch_q`] (bit-identical to `seq_train`).
    fn run_sequential_update(&mut self, obs: &Observation) {
        let _span = OpKind::SeqTrain.span();
        let Self {
            config,
            encoder,
            target,
            core,
            scratch,
            ops,
            ..
        } = self;
        let core = core
            .as_mut()
            .expect("sequential update before initial training");
        scratch.states.resize_zeroed(1, config.state_dim);
        scratch.states.set_row(0, &obs.next_state);
        elm_q_batch_into(encoder, target, &scratch.states, &mut scratch.tq);
        let max_next = max_q(scratch.tq.q().row(0));
        let target_q = config.target.target(obs.reward, max_next, obs.done);
        encoder.encode_into(&obs.state, obs.action, &mut scratch.enc);
        scratch.xq.resize_zeroed(1, encoder.input_dim());
        for (j, &v) in scratch.enc.iter().enumerate() {
            scratch.xq[(0, j)] = Q20::from_f64(v);
        }
        scratch.tgt.resize_zeroed(1, 1);
        scratch.tgt[(0, 0)] = Q20::from_f64(target_q);
        core.seq_train_batch_q(&scratch.xq, &scratch.tgt);
        ops.add(OpKind::SeqTrain, 1);
    }

    fn sync_target_from_core(&mut self) {
        if let Some(core) = &self.core {
            // θ₂ ← θ₁: read β back from the PL (quantised) into the CPU copy.
            let beta_f64: Matrix<f64> = core.beta().cast();
            let model = ElmModel::from_parts(
                self.cpu_learner.model().alpha().clone(),
                self.cpu_learner.model().bias().clone(),
                beta_f64,
                HiddenActivation::ReLU,
            );
            self.target.copy_parameters_from(&model);
        } else {
            self.target.copy_parameters_from(self.cpu_learner.model());
        }
    }
}

impl Agent for FpgaAgent {
    fn name(&self) -> &str {
        "FPGA"
    }

    fn hidden_dim(&self) -> usize {
        self.config.hidden_dim
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.core.is_some());
        let _span = kind.span();
        if let Some(core) = self.core.as_mut() {
            Self::core_q_into(&self.encoder, core, &mut self.scratch, state);
        } else {
            self.scratch.q.clear();
            for input in self.encoder.encode_all_actions(state) {
                self.scratch
                    .q
                    .push(self.cpu_learner.model().predict_single(&input)[0]);
            }
        }
        self.ops.add(kind, self.config.num_actions as u64);
        self.policy.select(&self.scratch.q, rng)
    }

    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        // A non-finite transition is dropped and counted: in the store
        // phase it would spoil the whole initial-training batch, and
        // quantising it would map NaN to 0 and ±∞ to the rails without a
        // sign.
        if self.core.is_none() {
            if !obs.is_finite() {
                elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
                return;
            }
            self.buffer.push(obs.clone());
            if self.buffer.len() >= self.config.hidden_dim {
                self.run_initial_training();
            }
            return;
        }
        if rng.gen_range(0.0..1.0) < self.config.update_prob {
            if obs.is_finite() {
                self.run_sequential_update(obs);
            } else {
                elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
            }
        }
    }

    fn end_episode(&mut self, episode_index: usize) {
        if self.config.target_sync_episodes > 0
            && (episode_index + 1) % self.config.target_sync_episodes == 0
        {
            self.sync_target_from_core();
        }
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        self.cpu_learner = OsElm::<f64>::new(&self.config.elm_config(), rng);
        self.target = self.cpu_learner.model().clone();
        self.core = None;
        self.buffer.clear();
    }

    fn op_counts(&self) -> &OpCounts {
        &self.ops
    }

    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        if let Some(core) = self.core.as_mut() {
            Self::core_q_into(&self.encoder, core, &mut self.scratch, state);
            self.scratch.q.clone()
        } else {
            self.encoder
                .encode_all_actions(state)
                .iter()
                .map(|input| self.cpu_learner.model().predict_single(input)[0])
                .collect()
        }
    }

    fn memory_footprint_bytes(&self) -> usize {
        // On the device the learnable state lives in BRAM as 32-bit words.
        let words =
            crate::resources::ResourceModel::pynq_z1().storage_words(self.config.hidden_dim);
        words * 4
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        let state = FpgaAgentState {
            cpu_learner: self.cpu_learner.snapshot(),
            target: ModelSnapshot::capture(&self.target),
            core: self.core.as_ref().map(FpgaCore::snapshot),
            buffer: self.buffer.clone(),
            ops: self.ops.clone(),
            simulated_cpu_seconds: self.simulated_cpu_seconds,
        };
        Some(AgentSnapshot::new(self.name(), &state))
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let state: FpgaAgentState = snapshot.decode(self.name())?;
        let config = self.config.elm_config();
        state.cpu_learner.model.check_dims(&config)?;
        state.target.check_dims(&config)?;
        if let Some(core) = &state.core {
            let (n, nh, m) = (config.input_dim, config.hidden_dim, config.output_dim);
            let shapes = [
                core.alpha.shape(),
                core.bias.shape(),
                core.beta.shape(),
                core.p.shape(),
            ];
            if shapes != [(n, nh), (1, nh), (nh, m), (nh, nh)] {
                return Err(format!(
                    "core α, b, β, P shapes {shapes:?} do not fit (n, Ñ, m) = ({n}, {nh}, {m})"
                ));
            }
        }
        let cpu_learner =
            OsElm::from_snapshot(&state.cpu_learner).map_err(|e| format!("CPU learner: {e}"))?;
        let target = state.target.restore().map_err(|e| format!("target: {e}"))?;
        self.cpu_learner = cpu_learner;
        self.target = target;
        self.core = state.core.as_ref().map(FpgaCore::from_snapshot);
        self.buffer.clear();
        self.buffer.extend(state.buffer);
        self.ops = state.ops;
        self.simulated_cpu_seconds = state.simulated_cpu_seconds;
        Ok(())
    }
}

/// Batched execution through the quantised core (PR 7). The cycle model is
/// per-row (the hardware core is batch-size-1), so batching changes neither
/// the simulated PL time nor any Q20 word — every override is bit-for-bit
/// the per-sample fallback — but the host-side evaluation drops the
/// per-call `Matrix`/`Vec` temporaries and runs the stacked integer kernels,
/// which is what lets the FPGA design participate in `--train-envs` /
/// population batching at full speed.
impl elmrl_core::batch::BatchAgent for FpgaAgent {
    /// One stacked `(B·A)`-row pass through the quantised core — bit-for-bit
    /// equal to per-sample [`Agent::q_values`] (per-row accumulation, same
    /// quantisation, same per-row cycle charges); with the core loaded it
    /// returns through `predict_batch_into`. Before initial training the
    /// trait's per-sample fallback semantics apply (float CPU learner).
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        if self.core.is_none() {
            let rows: Vec<Vec<f64>> = (0..states.rows())
                .map(|i| self.q_values(states.row(i)))
                .collect();
            return Matrix::from_rows(&rows);
        }
        let mut out = Matrix::zeros(0, 0);
        self.predict_batch_into(states, &mut out);
        out
    }

    /// The quantised stacked pass into a caller-owned Q buffer, with zero
    /// heap allocations once the scratch and `out` have seen the
    /// steady-state batch shape (the serve-worker contract). Before initial
    /// training the allocating fallback applies (float CPU learner, cold
    /// path only).
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        if self.core.is_none() {
            *out = self.predict_batch(states);
            return;
        }
        let b = states.rows();
        let a = self.config.num_actions;
        let Self {
            encoder,
            core,
            scratch,
            ..
        } = self;
        let core = core.as_mut().expect("checked above");
        scratch.xq.resize_zeroed(b * a, encoder.input_dim());
        for i in 0..b {
            for action in 0..a {
                encoder.encode_into(states.row(i), action, &mut scratch.enc);
                let r = i * a + action;
                for (j, &v) in scratch.enc.iter().enumerate() {
                    scratch.xq[(r, j)] = Q20::from_f64(v);
                }
            }
        }
        core.predict_batch_q(&scratch.xq, &mut scratch.yq);
        out.resize_zeroed(b, a);
        for i in 0..b {
            let row = out.row_mut(i);
            for (action, v) in row.iter_mut().enumerate() {
                *v = scratch.yq[(i * a + action, 0)].to_f64();
            }
        }
    }

    /// ε-greedy for one packed state row. [`Agent::act`] already evaluates
    /// all `A` actions through one batched core call and records the same
    /// counters, so delegation *is* the batched path.
    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        self.act(state_row.row(0), rng)
    }

    /// One engine tick's transitions through the quantised core — the same
    /// structure as `OsElmQNet::observe_batch`: the random-update rule draws
    /// one gate per transition upfront (updates consume no RNG, so the draw
    /// sequence matches the scalar path), every surviving transition's
    /// Q-target comes from a single batched float pass through the frozen θ₂
    /// ([`elm_q_batch_into`], bit-for-bit the scalar evaluation), and the
    /// chunk runs as `B` *sequential* Q20 RLS updates in row order inside
    /// [`FpgaCore::seq_train_batch_q`] — the hardware update is batch-size-1,
    /// so unlike the float designs the batched learning trajectory is
    /// **bit-identical** to the per-sample fallback, at batch speed.
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        // Store phase: transitions fill buffer D through the scalar path
        // until initial training has run (fires mid-batch at most once).
        let mut start = 0;
        while start < batch.len() && self.core.is_none() {
            self.observe(&batch[start], rng);
            start += 1;
        }
        let rest = &batch[start..];
        if rest.is_empty() {
            return;
        }
        let mut selected = std::mem::take(&mut self.scratch.selected);
        selected.clear();
        for (i, obs) in rest.iter().enumerate() {
            if rng.gen_range(0.0..1.0) < self.config.update_prob {
                if obs.is_finite() {
                    selected.push(i);
                } else {
                    elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
                }
            }
        }
        if !selected.is_empty() {
            let _span = OpKind::SeqTrain.span();
            let b = selected.len();
            let Self {
                config,
                encoder,
                target,
                core,
                scratch,
                ops,
                ..
            } = self;
            let core = core.as_mut().expect("core loaded in the store phase");
            scratch.next_states.resize_zeroed(b, config.state_dim);
            for (r, &i) in selected.iter().enumerate() {
                scratch.next_states.set_row(r, &rest[i].next_state);
            }
            elm_q_batch_into(encoder, target, &scratch.next_states, &mut scratch.tq);
            scratch.xq.resize_zeroed(b, encoder.input_dim());
            scratch.tgt.resize_zeroed(b, 1);
            for (r, &i) in selected.iter().enumerate() {
                let obs = &rest[i];
                encoder.encode_into(&obs.state, obs.action, &mut scratch.enc);
                for (j, &v) in scratch.enc.iter().enumerate() {
                    scratch.xq[(r, j)] = Q20::from_f64(v);
                }
                let max_next = max_q(scratch.tq.q().row(r));
                scratch.tgt[(r, 0)] =
                    Q20::from_f64(config.target.target(obs.reward, max_next, obs.done));
            }
            core.seq_train_batch_q(&scratch.xq, &scratch.tgt);
            ops.add(OpKind::SeqTrain, b as u64);
        }
        self.scratch.selected = selected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_core::designs::{Design, DesignConfig};
    use elmrl_core::trainer::{Trainer, TrainerConfig};
    use elmrl_gym::CartPole;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn cartpole(hidden_dim: usize) -> FpgaAgentConfig {
        FpgaAgentConfig::for_workload(&elmrl_gym::Workload::CartPole.spec(), hidden_dim)
    }

    fn obs(i: usize, reward: f64, done: bool) -> Observation {
        Observation {
            state: vec![
                0.01 * (i % 13) as f64 - 0.05,
                -0.02,
                0.002 * (i % 7) as f64,
                0.04,
            ],
            action: i % 2,
            reward,
            next_state: vec![0.01 * (i % 13) as f64, -0.01, 0.02, 0.05],
            done,
            truncated: false,
        }
    }

    #[test]
    fn initial_training_loads_the_core() {
        let mut r = rng(1);
        let mut agent = FpgaAgent::new(cartpole(16), &mut r);
        assert_eq!(agent.name(), "FPGA");
        assert!(!agent.core_loaded());
        for i in 0..16 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(agent.core_loaded());
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
        assert!(agent.simulated_cpu_seconds > 0.0);
        assert_eq!(
            agent.simulated_pl_seconds(),
            0.0,
            "no PL work before the first predict"
        );
    }

    #[test]
    fn predictions_and_updates_accumulate_pl_cycles() {
        let mut r = rng(2);
        let mut agent = FpgaAgent::new(cartpole(16), &mut r);
        for i in 0..16 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let _ = agent.act(&[0.0; 4], &mut r);
        let mut cfg = cartpole(16);
        cfg.update_prob = 1.0;
        let pl_after_predict = agent.simulated_pl_seconds();
        assert!(pl_after_predict > 0.0);
        // force an update
        let mut agent2 = FpgaAgent::new(cfg, &mut r);
        for i in 0..16 {
            agent2.observe(&obs(i, 0.0, false), &mut r);
        }
        agent2.observe(&obs(99, -1.0, true), &mut r);
        assert_eq!(agent2.op_counts().count(OpKind::SeqTrain), 1);
        let (p, s, init) = agent2.simulated_breakdown_seconds();
        assert!(s > 0.0 && init > 0.0);
        assert!(agent2.simulated_total_seconds() >= p + s);
    }

    #[test]
    fn agent_matches_float_design_behaviour_on_a_short_run() {
        // The FPGA agent is the same algorithm as OS-ELM-L2-Lipschitz; over a
        // short CartPole run both should produce comparable training progress
        // (not identical — quantisation and independent RNG draws differ).
        let trainer = Trainer::new(TrainerConfig::quick(15));
        let mut r1 = rng(3);
        let mut fpga = FpgaAgent::new(cartpole(16), &mut r1);
        let mut env1 = CartPole::new();
        let res_fpga = trainer.run(&mut fpga, &mut env1, &mut r1);

        let mut r2 = rng(3);
        let mut float = Design::OsElmL2Lipschitz.build(&DesignConfig::new(16), &mut r2);
        let mut env2 = CartPole::new();
        let res_float = trainer.run(float.as_mut(), &mut env2, &mut r2);

        assert_eq!(res_fpga.episodes_run, res_float.episodes_run);
        assert_eq!(res_fpga.design, "FPGA");
        assert!(res_fpga.op_counts.count(OpKind::SeqTrain) > 0);
        // Q-values of the two agents agree to fixed-point tolerance on a probe.
        let probe = [0.01, -0.02, 0.03, 0.0];
        let qf = fpga.q_values(&probe);
        let qs = float.q_values(&probe);
        for (a, b) in qf.iter().zip(qs.iter()) {
            assert!((a - b).abs() < 0.3, "Q drift too large: {qf:?} vs {qs:?}");
        }
    }

    #[test]
    fn target_sync_reads_back_quantised_beta() {
        let mut r = rng(4);
        let mut agent = FpgaAgent::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        for i in 0..10 {
            agent.observe(&obs(i + 8, -1.0, true), &mut r);
        }
        agent.end_episode(1);
        // after sync, the CPU target model predicts ≈ the core's Q values
        let probe = [0.01, -0.02, 0.002, 0.04];
        let core_q = agent.q_values(&probe);
        let target_q: Vec<f64> = agent
            .encoder
            .encode_all_actions(&probe)
            .iter()
            .map(|input| agent.target.predict_single(input)[0])
            .collect();
        for (a, b) in core_q.iter().zip(target_q.iter()) {
            assert!(
                (a - b).abs() < 1e-2,
                "target sync mismatch: {core_q:?} vs {target_q:?}"
            );
        }
    }

    #[test]
    fn reset_unloads_the_core() {
        let mut r = rng(5);
        let mut agent = FpgaAgent::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(agent.core_loaded());
        agent.reset(&mut r);
        assert!(!agent.core_loaded());
        assert_eq!(agent.q_values(&[0.0; 4]), vec![0.0, 0.0]);
    }

    #[test]
    fn restored_agent_replays_an_identical_trajectory() {
        // Train past initial training so the Q20 core state is live, then
        // snapshot; the restored copy must act/observe identically for 64
        // steps when driven with identical RNG streams.
        let mut r = rng(9);
        let mut cfg = cartpole(8);
        cfg.update_prob = 1.0;
        let mut agent = FpgaAgent::new(cfg.clone(), &mut r);
        for i in 0..20 {
            agent.observe(&obs(i, -0.1, i % 5 == 4), &mut r);
        }
        assert!(agent.core_loaded());
        let snap = agent.snapshot().unwrap();

        // Different construction seed: restore must overwrite everything.
        let mut other = FpgaAgent::new(cfg, &mut rng(1234));
        other.restore(&snap).unwrap();
        assert!(other.core_loaded());
        assert!((other.simulated_cpu_seconds - agent.simulated_cpu_seconds).abs() == 0.0);

        let mut r1 = rng(77);
        let mut r2 = rng(77);
        for i in 0..64 {
            let state = [0.01 * (i % 11) as f64, -0.03, 0.002 * (i % 5) as f64, 0.01];
            assert_eq!(
                agent.act(&state, &mut r1),
                other.act(&state, &mut r2),
                "actions diverged at step {i}"
            );
            let o = obs(i, -0.05, i % 7 == 6);
            agent.observe(&o, &mut r1);
            other.observe(&o, &mut r2);
            if i % 16 == 15 {
                agent.end_episode(i / 16);
                other.end_episode(i / 16);
            }
        }
        assert_eq!(agent.q_values(&[0.0; 4]), other.q_values(&[0.0; 4]));
        assert_eq!(agent.simulated_pl_seconds(), other.simulated_pl_seconds());
    }

    #[test]
    fn snapshot_before_initial_training_round_trips_the_buffer() {
        let mut r = rng(10);
        let mut agent = FpgaAgent::new(cartpole(16), &mut r);
        for i in 0..5 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(!agent.core_loaded());
        let snap = agent.snapshot().unwrap();

        let mut other = FpgaAgent::new(cartpole(16), &mut rng(55));
        other.restore(&snap).unwrap();
        assert!(!other.core_loaded());
        // Feeding the remaining samples must trigger initial training at the
        // same point on both copies.
        let mut r1 = rng(3);
        let mut r2 = rng(3);
        for i in 5..16 {
            agent.observe(&obs(i, 0.0, false), &mut r1);
            other.observe(&obs(i, 0.0, false), &mut r2);
        }
        assert!(agent.core_loaded());
        assert!(other.core_loaded());
        assert_eq!(agent.q_values(&[0.0; 4]), other.q_values(&[0.0; 4]));
    }

    #[test]
    fn memory_footprint_matches_bram_words() {
        let mut r = rng(6);
        let agent = FpgaAgent::new(cartpole(64), &mut r);
        let words = crate::resources::ResourceModel::pynq_z1().storage_words(64);
        assert_eq!(agent.memory_footprint_bytes(), words * 4);
    }

    #[test]
    fn restore_rejects_a_short_p_or_another_hidden_width() {
        let mut r = rng(12);
        let mut agent = FpgaAgent::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, -0.1, false), &mut r);
        }
        assert!(agent.core_loaded());
        let snap = agent.snapshot().unwrap();
        let mut state: FpgaAgentState = snap.decode(agent.name()).unwrap();
        state.cpu_learner.p.as_mut().expect("initialised").pop();
        let short_p = AgentSnapshot::new(agent.name(), &state);
        let mut wider = FpgaAgent::new(cartpole(9), &mut r);
        for i in 0..9 {
            wider.observe(&obs(i, -0.1, false), &mut r);
        }
        for bad in [short_p, wider.snapshot().unwrap()] {
            assert!(agent.restore(&bad).is_err());
            assert_eq!(
                agent.snapshot().unwrap().state,
                snap.state,
                "agent unchanged"
            );
        }
    }
}
