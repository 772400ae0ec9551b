//! The OS-ELM Q-Network (§3.2–3.3, Algorithm 1) — the paper's contribution.
//!
//! One agent type covers four of the evaluated designs; the stabilisation
//! techniques are switched through [`OsElmQNetConfig`]:
//!
//! | Design | `l2_delta` | `spectral_normalize` |
//! |---|---|---|
//! | OS-ELM | 0 | no |
//! | OS-ELM-L2 | 1.0 | no |
//! | OS-ELM-Lipschitz | 0 | yes |
//! | OS-ELM-L2-Lipschitz | 0.5 | yes |
//!
//! All four share the simplified output model, Q-value clipping and the
//! random-update rule (probability ε₂ per step) that replaces experience
//! replay.

use crate::agent::{Agent, Observation, DROPPED_NONFINITE};
use crate::batch::{elm_q_batch, elm_q_batch_into, BatchAgent, BatchQScratch};
use crate::checkpoint::AgentSnapshot;
use crate::clipping::TargetConfig;
use crate::encoding::StateActionEncoder;
use crate::ops::{OpCounts, OpKind};
use crate::policy::{max_q, ExploitPolicy};
use elmrl_elm::model::ElmModel;
use elmrl_elm::os_elm::OsElmError;
use elmrl_elm::{HiddenActivation, ModelSnapshot, OsElm, OsElmConfig, OsElmSnapshot};
use elmrl_linalg::{LinalgError, Matrix};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Numerical jitter used when the *plain* OS-ELM design (δ = 0) hits a
/// singular Gram matrix in its initial training. This is not the ReOS-ELM
/// regulariser — it only keeps the matrix inversion defined, mirroring what a
/// fixed-point hardware divider's finite resolution does implicitly.
const NUMERICAL_DELTA: f64 = 1e-8;

/// Default cap on the RLS chunk width `B` of one batched
/// [`BatchAgent::observe_batch`] tick. The Eq. 6 chunk pays an O(B²·Ñ) +
/// O(B³) toll (the `I + H·P·Hᵀ` Gram build and its Cholesky) on top of the
/// O(B·Ñ²) P passes, so past a point a wider chunk loses to two half-width
/// ones — while the batched *target-network* evaluation keeps its full-tick
/// hoisting either way (targets depend only on the frozen θ₂). The B sweep
/// at Ñ ∈ {256, 512, 1024} recorded in `BENCH_PR9.json` (`chunk_cap_sweep`)
/// puts the crossover past B ≈ 64 at every Ñ measured (the B² terms stay ≪
/// the Ñ² terms until B approaches Ñ), so the default caps at 64 — below the
/// crossover while keeping ticks from pathological E (hundreds of parallel
/// envs) from going cubic. Override per agent via
/// [`OsElmQNetConfig::chunk_cap`].
pub const DEFAULT_CHUNK_CAP: usize = 64;

/// Configuration of an OS-ELM Q-Network agent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OsElmQNetConfig {
    /// Environment state dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer width `Ñ`.
    pub hidden_dim: usize,
    /// Exploit probability ε₁ (paper: 0.7).
    pub exploit_prob: f64,
    /// Random-update probability ε₂ (paper: 0.5). Ignored when
    /// `random_update` is false.
    pub update_prob: f64,
    /// Whether the random-update rule gates sequential training at all
    /// (disabling it is the A1 ablation: update on every step).
    pub random_update: bool,
    /// Target-network synchronisation interval in episodes (paper: 2).
    pub target_sync_episodes: usize,
    /// Q-target construction (γ and clipping).
    pub target: TargetConfig,
    /// ReOS-ELM regularisation δ for the initial training (0 disables L2).
    pub l2_delta: f64,
    /// Spectral normalization of the input weights α.
    pub spectral_normalize: bool,
    /// Hidden activation (the paper uses ReLU).
    pub activation: HiddenActivation,
    /// Cap on the RLS chunk width of one batched tick — oversized ticks are
    /// split into consecutive chunks of at most this many transitions
    /// (`None` → [`DEFAULT_CHUNK_CAP`]). Only relevant at `train_envs > 1`;
    /// the scalar loop's B = 1 is always below any cap.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chunk_cap: Option<usize>,
}

impl OsElmQNetConfig {
    /// Settings for a registered workload with the given design knobs.
    pub fn for_workload(
        spec: &elmrl_gym::EnvSpec,
        hidden_dim: usize,
        l2_delta: f64,
        spectral_normalize: bool,
    ) -> Self {
        Self::from_design(
            &crate::designs::DesignConfig::for_workload(spec, hidden_dim),
            l2_delta,
            spectral_normalize,
        )
    }

    /// Settings derived from shared per-cell design parameters.
    pub fn from_design(
        config: &crate::designs::DesignConfig,
        l2_delta: f64,
        spectral_normalize: bool,
    ) -> Self {
        Self {
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            hidden_dim: config.hidden_dim,
            exploit_prob: config.exploit_prob,
            update_prob: config.update_prob,
            random_update: true,
            target_sync_episodes: config.target_sync_episodes,
            target: config.target_config(),
            l2_delta,
            spectral_normalize,
            activation: HiddenActivation::ReLU,
            chunk_cap: config.chunk_cap,
        }
    }

    /// One draw of the random-update rule (Algorithm 1 lines 21–22): should
    /// the transition currently being observed trigger a sequential update?
    /// Shared by the scalar and batched observe paths so the gate cannot
    /// drift between them.
    fn update_gate(&self, rng: &mut SmallRng) -> bool {
        if self.random_update {
            rng.gen_range(0.0..1.0) < self.update_prob
        } else {
            true
        }
    }

    fn elm_config(&self) -> OsElmConfig {
        OsElmConfig::new(self.state_dim + 1, self.hidden_dim, 1)
            .with_activation(self.activation)
            .with_l2_delta(if self.l2_delta > 0.0 {
                self.l2_delta
            } else {
                NUMERICAL_DELTA
            })
            // δ is interpreted relative to the hidden-feature energy so that
            // the paper's δ = 1 / δ = 0.5 remain comparable penalties whether
            // or not spectral normalization has rescaled the features.
            .with_relative_l2(self.l2_delta > 0.0)
            .with_spectral_normalization(self.spectral_normalize)
    }
}

/// Reusable per-agent workspaces for the prediction hot path: encoding
/// staging, per-action Q buffer, and the matrices of one forward pass. All
/// keep their allocations across steps, so steady-state action selection
/// and the sequential training update perform zero matrix heap allocations
/// (asserted by the counting-allocator test in `tests/alloc_steady_state.rs`).
#[derive(Clone, Debug, Default)]
pub(crate) struct QScratch {
    /// Encoded `(state, action)` input.
    pub(crate) enc: Vec<f64>,
    /// Per-action Q-values of the last evaluation.
    pub(crate) q: Vec<f64>,
    /// `1 × input` staging row.
    x: Matrix<f64>,
    /// `1 × Ñ` hidden activation.
    h: Matrix<f64>,
    /// `1 × 1` network output.
    y: Matrix<f64>,
}

/// Evaluate Q(state, ·) through the workspaces — bit-for-bit equal to the
/// historical per-action [`ElmModel::predict_single`] loop, leaving the
/// result in `scratch.q`.
pub(crate) fn q_into(
    encoder: &StateActionEncoder,
    model: &ElmModel<f64>,
    state: &[f64],
    scratch: &mut QScratch,
) {
    scratch.q.clear();
    for action in 0..encoder.num_actions() {
        encoder.encode_into(state, action, &mut scratch.enc);
        scratch.x.resize_zeroed(1, scratch.enc.len());
        scratch.x.set_row(0, &scratch.enc);
        model.predict_into(&scratch.x, &mut scratch.h, &mut scratch.y);
        scratch.q.push(scratch.y[(0, 0)]);
    }
}

/// The initial-training chunk `(X, T)` of buffer D, shared by the ELM,
/// OS-ELM and FPGA agents: row `i` of `X` is transition `i`'s encoded
/// `(state, action)`, and `T[i]` its Q-learning target bootstrapped from the
/// frozen network θ₂ through the per-action [`ElmModel::predict_single`].
pub fn initial_training_chunk(
    encoder: &StateActionEncoder,
    target: &ElmModel<f64>,
    targets: &TargetConfig,
    buffer: &[Observation],
) -> (Matrix<f64>, Matrix<f64>) {
    let mut x = Matrix::<f64>::zeros(buffer.len(), encoder.input_dim());
    let mut t = Matrix::<f64>::zeros(buffer.len(), 1);
    for (i, obs) in buffer.iter().enumerate() {
        x.set_row(i, &encoder.encode(&obs.state, obs.action));
        let next_q: Vec<f64> = encoder
            .encode_all_actions(&obs.next_state)
            .iter()
            .map(|input| target.predict_single(input)[0])
            .collect();
        t[(i, 0)] = targets.target(obs.reward, max_q(&next_q), obs.done);
    }
    (x, t)
}

/// Reusable workspaces for the batched *training* path
/// ([`BatchAgent::observe_batch`]): gating indices, the packed next-state
/// matrix, the batched target-network Q evaluation and the `seq_train_batch`
/// chunk. All keep their allocations across ticks, so the E > 1 steady state
/// performs zero heap allocations inside the agent (asserted by the
/// counting-allocator test in `tests/alloc_steady_state.rs`).
#[derive(Clone, Debug, Default)]
struct BatchObserveScratch {
    /// Indices (into the tick's batch) that passed the random-update gate.
    selected: Vec<usize>,
    /// `B × state_dim` packed next states of the gated transitions.
    next_states: Matrix<f64>,
    /// `B × input` encoded `(state, action)` chunk.
    x: Matrix<f64>,
    /// `B × 1` Q-targets.
    t: Matrix<f64>,
    /// Workspaces of the batched target-network forward.
    q: BatchQScratch,
}

/// The complete mutable state of an [`OsElmQNet`], as carried inside an
/// [`AgentSnapshot`]: the online learner's RLS recursion (`α`, `b`, `β`,
/// `P`, counters), the frozen target network, the initial-training buffer
/// `D`, and the op counters. The scratch workspaces are deliberately absent —
/// they hold no observable state.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct OsElmQNetState {
    online: OsElmSnapshot,
    target: ModelSnapshot,
    buffer: Vec<Observation>,
    ops: OpCounts,
}

/// The OS-ELM Q-Network agent.
pub struct OsElmQNet {
    config: OsElmQNetConfig,
    encoder: StateActionEncoder,
    policy: ExploitPolicy,
    /// θ₁ — the online network, sequentially trained.
    online: OsElm<f64>,
    /// θ₂ — the fixed target network (a frozen copy of θ₁'s model).
    target: ElmModel<f64>,
    /// Buffer `D` used only to assemble the initial-training chunk.
    buffer: Vec<Observation>,
    /// Prediction workspaces (never observable through the public API).
    scratch: QScratch,
    /// Batched-training workspaces (never observable through the public API).
    bscratch: BatchObserveScratch,
    ops: OpCounts,
    name: String,
}

impl OsElmQNet {
    /// Create an agent; the design name is derived from the enabled knobs.
    pub fn new(config: OsElmQNetConfig, rng: &mut SmallRng) -> Self {
        let encoder = StateActionEncoder::new(config.state_dim, config.num_actions);
        let online = OsElm::<f64>::new(&config.elm_config(), rng);
        let target = online.model().clone();
        let name = Self::derive_name(&config);
        Self {
            policy: ExploitPolicy::new(config.exploit_prob),
            encoder,
            online,
            target,
            buffer: Vec::with_capacity(config.hidden_dim),
            scratch: QScratch::default(),
            bscratch: BatchObserveScratch::default(),
            ops: OpCounts::new(),
            config,
            name,
        }
    }

    fn derive_name(config: &OsElmQNetConfig) -> String {
        match (config.l2_delta > 0.0, config.spectral_normalize) {
            (false, false) => "OS-ELM".to_string(),
            (true, false) => "OS-ELM-L2".to_string(),
            (false, true) => "OS-ELM-Lipschitz".to_string(),
            (true, true) => "OS-ELM-L2-Lipschitz".to_string(),
        }
    }

    /// Whether initial training has completed.
    pub fn is_initialized(&self) -> bool {
        self.online.is_initialized()
    }

    /// The agent configuration.
    pub fn config(&self) -> &OsElmQNetConfig {
        &self.config
    }

    /// Borrow the online (θ₁) learner — used by the FPGA layer and tests.
    pub fn online(&self) -> &OsElm<f64> {
        &self.online
    }

    /// Upper bound on the online network's Lipschitz constant
    /// (`σ_max(α)·σ_max(β)` for ReLU) — §3.3's monitored quantity.
    pub fn lipschitz_upper_bound(&self) -> f64 {
        elmrl_elm::lipschitz_upper_bound(
            self.online.model().alpha(),
            self.online.model().beta(),
            self.config.activation,
        )
    }

    fn q_for(&self, model: &ElmModel<f64>, state: &[f64]) -> Vec<f64> {
        self.encoder
            .encode_all_actions(state)
            .iter()
            .map(|input| model.predict_single(input)[0])
            .collect()
    }

    fn run_initial_training(&mut self) {
        let _span = OpKind::InitTrain.span();
        let (x, t) = initial_training_chunk(
            &self.encoder,
            &self.target,
            &self.config.target,
            &self.buffer,
        );
        // A non-finite state or reward in D (only a restored snapshot can
        // hold one) is rejected before it can poison β: drop the refill and
        // collect a fresh one. Otherwise the
        // plain OS-ELM design can hit a singular Gram matrix; the
        // NUMERICAL_DELTA in `elm_config` keeps this well-defined, so any
        // other failure is unexpected — surface it loudly in debug builds
        // and retry once with a fresh buffer otherwise.
        match self.online.init_train(&x, &t) {
            Ok(()) => {}
            Err(OsElmError::Linalg(LinalgError::InvalidData { .. })) => {
                self.buffer.clear();
                return;
            }
            Err(_) => {
                debug_assert!(false, "OS-ELM initial training failed unexpectedly");
                self.buffer.clear();
                return;
            }
        }
        self.buffer.clear();
        self.ops.add(OpKind::InitTrain, 1);
    }

    /// One RLS update — the paper's per-step training cost. Allocation-free
    /// at steady state: the target-network Q evaluation, the input encoding
    /// and the OS-ELM rank-1 update all run through reusable workspaces.
    fn run_sequential_update(&mut self, obs: &Observation) {
        let _span = OpKind::SeqTrain.span();
        let Self {
            config,
            encoder,
            online,
            target,
            scratch,
            ops,
            ..
        } = self;
        q_into(encoder, target, &obs.next_state, scratch);
        let max_next = max_q(&scratch.q);
        let target_q = config.target.target(obs.reward, max_next, obs.done);
        encoder.encode_into(&obs.state, obs.action, &mut scratch.enc);
        if online.seq_train_single(&scratch.enc, &[target_q]).is_err() {
            debug_assert!(false, "sequential update before initial training");
            return;
        }
        ops.add(OpKind::SeqTrain, 1);
    }
}

impl Agent for OsElmQNet {
    fn name(&self) -> &str {
        &self.name
    }

    fn hidden_dim(&self) -> usize {
        self.config.hidden_dim
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.online.is_initialized());
        let _span = kind.span();
        let Self {
            config,
            encoder,
            policy,
            online,
            scratch,
            ops,
            ..
        } = self;
        q_into(encoder, online.model(), state, scratch);
        ops.add(kind, config.num_actions as u64);
        policy.select(&scratch.q, rng)
    }

    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        if !self.is_initialized() {
            // Store phase: fill buffer D up to Ñ samples, then run the
            // initial training (Algorithm 1 lines 16–19). A non-finite
            // transition is dropped and counted on its own, so it cannot
            // spoil the whole refill.
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
        // Update phase: the random-update rule (Algorithm 1 lines 21–22).
        // A non-finite transition is dropped and counted.
        if self.config.update_gate(rng) {
            if obs.is_finite() {
                self.run_sequential_update(obs);
            } else {
                elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
            }
        }
    }

    fn end_episode(&mut self, episode_index: usize) {
        // θ₂ ← θ₁ every UPDATE_STEP episodes (Algorithm 1 lines 23–24).
        if self.config.target_sync_episodes > 0
            && (episode_index + 1) % self.config.target_sync_episodes == 0
        {
            self.target.copy_parameters_from(self.online.model());
        }
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        self.online = OsElm::<f64>::new(&self.config.elm_config(), rng);
        self.target = self.online.model().clone();
        self.buffer.clear();
    }

    fn op_counts(&self) -> &OpCounts {
        &self.ops
    }

    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        self.q_for(self.online.model(), state)
    }

    fn memory_footprint_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let n = self.config.hidden_dim;
        let input = self.encoder.input_dim();
        // α + bias + β for both θ₁ and θ₂, plus P, plus the (bounded) buffer.
        let model = input * n + n + n; // per model
        let p = n * n;
        let buffer = self.buffer.capacity() * (2 * self.config.state_dim + 4);
        (2 * model + p + buffer) * f
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        let state = OsElmQNetState {
            online: self.online.snapshot(),
            target: ModelSnapshot::capture(&self.target),
            buffer: self.buffer.clone(),
            ops: self.ops.clone(),
        };
        Some(AgentSnapshot::new(&self.name, &state))
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let state: OsElmQNetState = snapshot.decode(&self.name)?;
        let config = self.config.elm_config();
        state.online.model.check_dims(&config)?;
        state.target.check_dims(&config)?;
        let online = OsElm::from_snapshot(&state.online).map_err(|e| format!("online: {e}"))?;
        let target = state.target.restore().map_err(|e| format!("target: {e}"))?;
        self.online = online;
        self.target = target;
        // Keep the pre-sized buffer capacity the constructor established.
        self.buffer.clear();
        self.buffer.extend(state.buffer);
        self.ops = state.ops;
        Ok(())
    }
}

impl BatchAgent for OsElmQNet {
    /// One stacked `(B·A) × input` forward pass through θ₁ — bit-for-bit
    /// equal to per-sample [`Agent::q_values`].
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        elm_q_batch(&self.encoder, self.online.model(), states)
    }

    /// The stacked forward through the agent's own [`BatchQScratch`] — the
    /// serve-worker hot path. Zero heap allocations once `out` and the
    /// scratch have seen the steady-state batch shape.
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        elm_q_batch_into(
            &self.encoder,
            self.online.model(),
            states,
            &mut self.bscratch.q,
        );
        let q = self.bscratch.q.q();
        out.resize_zeroed(q.rows(), q.cols());
        out.as_mut_slice().copy_from_slice(q.as_slice());
    }

    /// ε-greedy through the batched kernel: same Q (bit for bit), same RNG
    /// draws, same action as [`Agent::act`] — minus the per-action matvecs.
    /// Records the same per-action prediction counters as [`Agent::act`],
    /// so modeled execution times stay comparable between the scalar and
    /// E-parallel drivers.
    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.online.is_initialized());
        let _span = kind.span();
        let q = self.predict_batch(state_row);
        self.ops.add(kind, self.config.num_actions as u64);
        self.policy.select(q.row(0), rng)
    }

    /// One engine tick's transitions, trained as batch-B RLS chunks of at
    /// most [`OsElmQNetConfig::chunk_cap`] transitions each (default
    /// [`DEFAULT_CHUNK_CAP`]; one chunk for any tick at or below the cap):
    /// the random-update rule draws one gate per transition (as the scalar
    /// path would), every surviving transition's Q-target comes from a
    /// single batched forward through the frozen target network θ₂
    /// (`elm_q_batch_into`, bit-for-bit the scalar per-action evaluation,
    /// hoisted over the whole tick since targets depend only on θ₂), and
    /// each chunk goes through [`elmrl_elm::OsElm::seq_train_batch`] — the
    /// B > 1 case of Eq. 6, block-exact w.r.t. B single-sample updates.
    /// Allocation-free at steady state; with `batch.len() == 1` it performs
    /// the same update the scalar [`Agent::observe`] would (chunk size 1).
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        // Store phase: transitions fill buffer D through the scalar path
        // until the initial training has run (fires mid-batch at most once).
        let mut start = 0;
        while start < batch.len() && !self.is_initialized() {
            self.observe(&batch[start], rng);
            start += 1;
        }
        let rest = &batch[start..];
        if rest.is_empty() {
            return;
        }
        // Update phase: the random-update rule, one draw per transition
        // (Algorithm 1 lines 21–22) — the same gate the scalar path uses. A
        // non-finite transition is dropped and counted before the chunk.
        let mut selected = std::mem::take(&mut self.bscratch.selected);
        selected.clear();
        for (i, obs) in rest.iter().enumerate() {
            if self.config.update_gate(rng) {
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
            let cap = self.config.chunk_cap.unwrap_or(DEFAULT_CHUNK_CAP).max(1);
            let Self {
                config,
                encoder,
                online,
                target,
                scratch,
                bscratch,
                ops,
                ..
            } = self;
            // The Q-targets depend only on the frozen θ₂, so the batched
            // target-network forward stays hoisted over the whole tick even
            // when the RLS update below is split into capped chunks.
            bscratch.next_states.resize_zeroed(b, config.state_dim);
            for (r, &i) in selected.iter().enumerate() {
                bscratch.next_states.set_row(r, &rest[i].next_state);
            }
            elm_q_batch_into(encoder, target, &bscratch.next_states, &mut bscratch.q);
            if b > cap {
                elmrl_telemetry::counter!("core.observe.chunk_splits").inc();
            }
            for (c, chunk) in selected.chunks(cap).enumerate() {
                let w = chunk.len();
                bscratch.x.resize_zeroed(w, encoder.input_dim());
                bscratch.t.resize_zeroed(w, 1);
                for (r, &i) in chunk.iter().enumerate() {
                    let obs = &rest[i];
                    encoder.encode_into(&obs.state, obs.action, &mut scratch.enc);
                    bscratch.x.set_row(r, &scratch.enc);
                    let max_next = max_q(bscratch.q.q.row(c * cap + r));
                    bscratch.t[(r, 0)] = config.target.target(obs.reward, max_next, obs.done);
                }
                if online.seq_train_batch(&bscratch.x, &bscratch.t).is_err() {
                    debug_assert!(false, "batched sequential update before initial training");
                }
            }
            ops.add(OpKind::SeqTrain, b as u64);
        }
        self.bscratch.selected = selected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn cartpole(hidden_dim: usize, l2_delta: f64, spectral_normalize: bool) -> OsElmQNetConfig {
        let spec = elmrl_gym::Workload::CartPole.spec();
        OsElmQNetConfig::for_workload(&spec, hidden_dim, l2_delta, spectral_normalize)
    }

    fn sample_obs(reward: f64, done: bool) -> Observation {
        Observation {
            state: vec![0.01, -0.02, 0.03, 0.04],
            action: 1,
            reward,
            next_state: vec![0.02, -0.01, 0.02, 0.05],
            done,
            truncated: false,
        }
    }

    #[test]
    fn design_names_follow_knobs() {
        let mut r = rng(0);
        let plain = OsElmQNet::new(cartpole(16, 0.0, false), &mut r);
        assert_eq!(plain.name(), "OS-ELM");
        let l2 = OsElmQNet::new(cartpole(16, 1.0, false), &mut r);
        assert_eq!(l2.name(), "OS-ELM-L2");
        let lip = OsElmQNet::new(cartpole(16, 0.0, true), &mut r);
        assert_eq!(lip.name(), "OS-ELM-Lipschitz");
        let both = OsElmQNet::new(cartpole(16, 0.5, true), &mut r);
        assert_eq!(both.name(), "OS-ELM-L2-Lipschitz");
        assert_eq!(both.hidden_dim(), 16);
    }

    #[test]
    fn cartpole_config_matches_paper_parameters() {
        let c = cartpole(64, 0.5, true);
        assert_eq!(c.state_dim, 4);
        assert_eq!(c.num_actions, 2);
        assert_eq!(c.exploit_prob, 0.7);
        assert_eq!(c.update_prob, 0.5);
        assert_eq!(c.target_sync_episodes, 2);
        assert!(c.target.clip);
        assert_eq!(c.activation, HiddenActivation::ReLU);
    }

    #[test]
    fn initial_training_triggers_when_buffer_fills() {
        let mut r = rng(1);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        assert!(!agent.is_initialized());
        for i in 0..8 {
            assert!(
                !agent.is_initialized(),
                "should not initialise before Ñ samples"
            );
            let mut obs = sample_obs(0.0, false);
            obs.state[0] = i as f64 * 0.01; // make samples distinct
            agent.observe(&obs, &mut r);
        }
        assert!(agent.is_initialized());
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
    }

    #[test]
    fn non_finite_refill_is_dropped_and_the_next_one_trains() {
        let mut r = rng(11);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        // `observe` drops a non-finite transition before it reaches D, so
        // only a restored snapshot can hold one; place it there directly.
        let fill = |agent: &mut OsElmQNet, r: &mut SmallRng, poison: Option<usize>| {
            for i in 0..8 {
                let mut obs = sample_obs(0.0, false);
                obs.state[0] = i as f64 * 0.01;
                match poison {
                    Some(0) if i == 5 => obs.state[2] = f64::NAN,
                    Some(1) if i == 5 => obs.reward = f64::NAN,
                    _ => {}
                }
                if obs.is_finite() {
                    agent.observe(&obs, r);
                } else {
                    agent.buffer.push(obs);
                }
            }
        };
        // A NaN state, then a NaN reward (hence a NaN target): each refill
        // is dropped without training, and the agent keeps collecting.
        for poison in [0, 1] {
            fill(&mut agent, &mut r, Some(poison));
            assert!(!agent.is_initialized(), "poison {poison}");
            assert!(agent.buffer.is_empty());
            assert_eq!(agent.online().model().beta(), &Matrix::zeros(8, 1));
        }
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 0);
        fill(&mut agent, &mut r, None);
        assert!(agent.is_initialized());
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
        assert!(agent.online().model().beta().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sequential_updates_respect_random_update_probability() {
        let mut r = rng(2);
        let mut config = cartpole(8, 0.5, true);
        config.update_prob = 0.0; // never update
        let mut agent = OsElmQNet::new(config, &mut r);
        for i in 0..8 {
            let mut obs = sample_obs(0.0, false);
            obs.state[1] = i as f64 * 0.02;
            agent.observe(&obs, &mut r);
        }
        for _ in 0..20 {
            agent.observe(&sample_obs(0.0, false), &mut r);
        }
        assert_eq!(agent.op_counts().count(OpKind::SeqTrain), 0);

        let mut config2 = cartpole(8, 0.5, true);
        config2.random_update = false; // always update (ablation)
        let mut agent2 = OsElmQNet::new(config2, &mut r);
        for i in 0..8 {
            let mut obs = sample_obs(0.0, false);
            obs.state[1] = i as f64 * 0.02;
            agent2.observe(&obs, &mut r);
        }
        for _ in 0..20 {
            agent2.observe(&sample_obs(0.0, false), &mut r);
        }
        assert_eq!(agent2.op_counts().count(OpKind::SeqTrain), 20);
    }

    #[test]
    fn predictions_are_counted_by_phase() {
        let mut r = rng(3);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        let state = [0.0, 0.0, 0.0, 0.0];
        let _ = agent.act(&state, &mut r);
        assert_eq!(agent.op_counts().count(OpKind::PredictInit), 2); // one per action
        for i in 0..8 {
            let mut obs = sample_obs(0.0, false);
            obs.state[2] = i as f64 * 0.01;
            agent.observe(&obs, &mut r);
        }
        let _ = agent.act(&state, &mut r);
        assert_eq!(agent.op_counts().count(OpKind::PredictSeq), 2);
    }

    #[test]
    fn learning_drives_q_toward_clipped_targets() {
        // Feed the same failing transition repeatedly: Q(s, a) must move
        // towards the clipped target −1 and stay inside [−1, 1]+tolerance.
        let mut r = rng(4);
        let mut config = cartpole(16, 0.5, true);
        config.random_update = false;
        let mut agent = OsElmQNet::new(config, &mut r);
        for i in 0..16 {
            let mut obs = sample_obs(-1.0, true);
            obs.state[0] = (i as f64) * 0.03 - 0.2;
            obs.action = i % 2;
            agent.observe(&obs, &mut r);
        }
        let fail_obs = sample_obs(-1.0, true);
        for _ in 0..50 {
            agent.observe(&fail_obs, &mut r);
        }
        let q = agent.q_values(&fail_obs.state);
        assert!(
            q[1] < -0.5,
            "Q for the failing action should approach −1, got {}",
            q[1]
        );
    }

    #[test]
    fn target_sync_follows_update_step() {
        let mut r = rng(5);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        for i in 0..8 {
            let mut obs = sample_obs(-1.0, true);
            obs.state[0] = i as f64 * 0.05;
            agent.observe(&obs, &mut r);
        }
        // θ₂ still the zero-β copy before any sync.
        let q_target_before = max_q(&agent.q_for(&agent.target, &[0.0; 4]));
        assert_eq!(q_target_before, 0.0);
        agent.end_episode(0); // episode 1 → (0+1) % 2 != 0 → no sync
        assert_eq!(max_q(&agent.q_for(&agent.target, &[0.0; 4])), 0.0);
        agent.end_episode(1); // (1+1) % 2 == 0 → sync
        let q_online = max_q(&agent.q_values(&[0.0; 4]));
        let q_target = max_q(&agent.q_for(&agent.target, &[0.0; 4]));
        assert!((q_online - q_target).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_learned_state() {
        let mut r = rng(6);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        for i in 0..8 {
            let mut obs = sample_obs(-1.0, true);
            obs.state[0] = i as f64 * 0.05;
            agent.observe(&obs, &mut r);
        }
        assert!(agent.is_initialized());
        agent.reset(&mut r);
        assert!(!agent.is_initialized());
        assert_eq!(agent.q_values(&[0.0; 4]), vec![0.0, 0.0]);
    }

    #[test]
    fn spectral_normalization_bounds_lipschitz_constant() {
        let mut r = rng(7);
        let normalized = OsElmQNet::new(cartpole(32, 0.5, true), &mut r);
        let raw = OsElmQNet::new(cartpole(32, 0.5, false), &mut r);
        // With zero β both bounds are 0; compare α's σ_max directly.
        assert!(normalized.online.model().alpha_sigma_max() <= 1.0 + 1e-9);
        assert!(raw.online.model().alpha_sigma_max() > 1.0);
    }

    /// Drive one agent through its init phase and then a single B-wide
    /// `observe_batch` tick, returning the resulting β as a flat vector.
    fn beta_after_one_tick(chunk_cap: Option<usize>, tick_width: usize) -> Vec<f64> {
        let mut r = rng(42);
        let mut config = cartpole(16, 0.5, true);
        config.random_update = false; // every transition trains
        config.chunk_cap = chunk_cap;
        let mut agent = OsElmQNet::new(config, &mut r);
        for i in 0..16 {
            let mut obs = sample_obs(0.0, false);
            obs.state[0] = i as f64 * 0.03 - 0.2;
            obs.action = i % 2;
            agent.observe(&obs, &mut r);
        }
        assert!(agent.is_initialized());
        let tick: Vec<Observation> = (0..tick_width)
            .map(|i| {
                let mut obs = sample_obs(if i % 3 == 0 { -1.0 } else { 0.0 }, i % 3 == 0);
                obs.state[1] = i as f64 * 0.07 - 0.15;
                obs.next_state[2] = i as f64 * -0.04 + 0.1;
                obs.action = i % 2;
                obs
            })
            .collect();
        agent.observe_batch(&tick, &mut r);
        agent.online.model().beta().as_slice().to_vec()
    }

    #[test]
    fn chunk_cap_splits_are_deterministic_but_not_bit_identical_to_one_chunk() {
        // The OS-ELM property makes chunked RLS *algebraically* equivalent to
        // the one-chunk update, so trajectories rarely diverge (the harness
        // pins that); here β is observable, and the float-level rounding
        // difference from re-associating the B-wide update must show up.
        let uncapped = beta_after_one_tick(None, 8); // 8 < DEFAULT_CHUNK_CAP
        let capped = beta_after_one_tick(Some(2), 8); // four chunks of 2
        assert_eq!(
            capped,
            beta_after_one_tick(Some(2), 8),
            "the capped update must be bit-for-bit deterministic"
        );
        assert_eq!(
            uncapped,
            beta_after_one_tick(None, 8),
            "the uncapped update must be bit-for-bit deterministic"
        );
        assert_ne!(
            capped, uncapped,
            "splitting a B=8 tick into cap-2 chunks re-associates the RLS \
             arithmetic, so β must differ at float level"
        );
        // But only at float level: the chunked update is the same algebra.
        let max_abs_diff = capped
            .iter()
            .zip(&uncapped)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            max_abs_diff < 1e-9,
            "chunk splitting must stay algebraically equivalent, got {max_abs_diff}"
        );
        // A cap at or above the tick width is exactly the one-chunk path.
        assert_eq!(beta_after_one_tick(Some(8), 8), uncapped);
    }

    #[test]
    fn memory_footprint_grows_with_hidden_size() {
        let mut r = rng(8);
        let small = OsElmQNet::new(cartpole(32, 0.5, true), &mut r);
        let large = OsElmQNet::new(cartpole(128, 0.5, true), &mut r);
        assert!(large.memory_footprint_bytes() > small.memory_footprint_bytes());
        // P (Ñ²) dominates: quadrupling Ñ should grow memory by ~16×.
        let ratio = large.memory_footprint_bytes() as f64 / small.memory_footprint_bytes() as f64;
        assert!(ratio > 8.0, "expected quadratic growth, got ratio {ratio}");
    }

    #[test]
    fn restore_rejects_a_short_p_or_another_hidden_width() {
        let mut r = rng(12);
        let mut agent = OsElmQNet::new(cartpole(8, 0.5, true), &mut r);
        for i in 0..8 {
            let mut obs = sample_obs(0.0, false);
            obs.state[0] = i as f64 * 0.01;
            agent.observe(&obs, &mut r);
        }
        let snap = agent.snapshot().unwrap();
        let mut state: OsElmQNetState = snap.decode(&agent.name).unwrap();
        state.online.p.as_mut().expect("initialised").pop();
        let short_p = AgentSnapshot::new(&agent.name, &state);
        let wider = OsElmQNet::new(cartpole(9, 0.5, true), &mut r);
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
