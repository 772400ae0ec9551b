//! The ELM Q-Network (§3.1, design (1) of the evaluation).
//!
//! ELM is a *batch* algorithm: the Q-network can only be (re)trained when the
//! buffer `D` holds `Ñ` fresh transitions (Algorithm 1 lines 16–19). Between
//! refills the policy acts on a frozen `β`. This severely limits the number
//! of updates — the limitation OS-ELM removes — and is why the paper finds
//! ELM fragile with respect to the hidden size (§4.3).

use crate::agent::{Agent, Observation, DROPPED_NONFINITE};
use crate::batch::{elm_q_batch, elm_q_batch_into, BatchAgent, BatchQScratch};
use crate::checkpoint::AgentSnapshot;
use crate::clipping::TargetConfig;
use crate::encoding::StateActionEncoder;
use crate::ops::{OpCounts, OpKind};
use crate::oselm_qnet::initial_training_chunk;
use crate::policy::ExploitPolicy;
use elmrl_elm::model::ElmModel;
use elmrl_elm::{Elm, ElmSnapshot, HiddenActivation, ModelSnapshot, OsElmConfig};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Configuration of the ELM Q-Network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ElmQNetConfig {
    /// Environment state dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer width `Ñ` (also the buffer size).
    pub hidden_dim: usize,
    /// Exploit probability ε₁.
    pub exploit_prob: f64,
    /// Target-network synchronisation interval in episodes.
    pub target_sync_episodes: usize,
    /// Q-target construction (γ and clipping).
    pub target: TargetConfig,
    /// Ridge regularisation for the batch solve (0 = minimum-norm least
    /// squares, `β = H⁺·t`).
    pub l2_delta: f64,
    /// Hidden activation.
    pub activation: HiddenActivation,
}

impl ElmQNetConfig {
    /// Settings for a registered workload (design (1): clipping + simplified
    /// output model, no regularisation).
    pub fn for_workload(spec: &elmrl_gym::EnvSpec, hidden_dim: usize) -> Self {
        Self::from_design(&crate::designs::DesignConfig::for_workload(
            spec, hidden_dim,
        ))
    }

    /// Settings derived from shared per-cell design parameters.
    pub fn from_design(config: &crate::designs::DesignConfig) -> Self {
        Self {
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            hidden_dim: config.hidden_dim,
            exploit_prob: config.exploit_prob,
            target_sync_episodes: config.target_sync_episodes,
            target: config.target_config(),
            l2_delta: 0.0,
            activation: HiddenActivation::ReLU,
        }
    }

    fn elm_config(&self) -> OsElmConfig {
        OsElmConfig::new(self.state_dim + 1, self.hidden_dim, 1)
            .with_activation(self.activation)
            .with_l2_delta(self.l2_delta)
    }
}

/// The complete mutable state of an [`ElmQNet`], as carried inside an
/// [`AgentSnapshot`]: the online batch learner, the frozen target network,
/// the refill buffer `D`, the trained-once flag and the op counters.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ElmQNetState {
    online: ElmSnapshot,
    target: ModelSnapshot,
    buffer: Vec<Observation>,
    trained_once: bool,
    ops: OpCounts,
}

/// The ELM Q-Network agent.
pub struct ElmQNet {
    config: ElmQNetConfig,
    encoder: StateActionEncoder,
    policy: ExploitPolicy,
    online: Elm<f64>,
    target: ElmModel<f64>,
    buffer: Vec<Observation>,
    /// Prediction workspaces shared with the OS-ELM agent's hot path.
    scratch: crate::oselm_qnet::QScratch,
    /// Batched-prediction workspaces for [`BatchAgent::predict_batch_into`].
    batch_q: BatchQScratch,
    ops: OpCounts,
    trained_once: bool,
}

impl ElmQNet {
    /// Create an agent with freshly drawn random `α`, `b`.
    pub fn new(config: ElmQNetConfig, rng: &mut SmallRng) -> Self {
        let encoder = StateActionEncoder::new(config.state_dim, config.num_actions);
        let online = Elm::<f64>::new(&config.elm_config(), rng);
        let target = online.model().clone();
        Self {
            policy: ExploitPolicy::new(config.exploit_prob),
            encoder,
            online,
            target,
            buffer: Vec::with_capacity(config.hidden_dim),
            scratch: Default::default(),
            batch_q: Default::default(),
            ops: OpCounts::new(),
            config,
            trained_once: false,
        }
    }

    /// Whether at least one batch training has completed.
    pub fn is_trained(&self) -> bool {
        self.trained_once
    }

    fn q_for(&self, model: &ElmModel<f64>, state: &[f64]) -> Vec<f64> {
        self.encoder
            .encode_all_actions(state)
            .iter()
            .map(|input| model.predict_single(input)[0])
            .collect()
    }

    fn run_batch_training(&mut self) {
        let _span = OpKind::InitTrain.span();
        let (x, t) = initial_training_chunk(
            &self.encoder,
            &self.target,
            &self.config.target,
            &self.buffer,
        );
        // The least-squares solve tolerates rank deficiency, so it fails only
        // on a non-finite sample or target; drop the batch rather than
        // poisoning β.
        if self.online.train(&x, &t).is_ok() {
            self.trained_once = true;
        }
        self.buffer.clear();
        self.ops.add(OpKind::InitTrain, 1);
    }
}

impl Agent for ElmQNet {
    fn name(&self) -> &str {
        "ELM"
    }

    fn hidden_dim(&self) -> usize {
        self.config.hidden_dim
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.trained_once);
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
        crate::oselm_qnet::q_into(encoder, online.model(), state, scratch);
        ops.add(kind, config.num_actions as u64);
        policy.select(&scratch.q, rng)
    }

    fn observe(&mut self, obs: &Observation, _rng: &mut SmallRng) {
        // A non-finite transition is dropped and counted on its own, so it
        // cannot spoil the whole retraining batch.
        if !obs.is_finite() {
            elmrl_telemetry::counter!(DROPPED_NONFINITE).inc();
            return;
        }
        self.buffer.push(obs.clone());
        if self.buffer.len() >= self.config.hidden_dim {
            self.run_batch_training();
        }
    }

    fn end_episode(&mut self, episode_index: usize) {
        if self.config.target_sync_episodes > 0
            && (episode_index + 1) % self.config.target_sync_episodes == 0
        {
            self.target.copy_parameters_from(self.online.model());
        }
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        self.online = Elm::<f64>::new(&self.config.elm_config(), rng);
        self.target = self.online.model().clone();
        self.buffer.clear();
        self.trained_once = false;
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
        let model = input * n + n + n;
        let buffer = self.buffer.capacity() * (2 * self.config.state_dim + 4);
        (2 * model + buffer) * f
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        let state = ElmQNetState {
            online: self.online.snapshot(),
            target: ModelSnapshot::capture(&self.target),
            buffer: self.buffer.clone(),
            trained_once: self.trained_once,
            ops: self.ops.clone(),
        };
        Some(AgentSnapshot::new(self.name(), &state))
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let state: ElmQNetState = snapshot.decode(self.name())?;
        let config = self.config.elm_config();
        state.online.model.check_dims(&config)?;
        state.target.check_dims(&config)?;
        let online = Elm::from_snapshot(&state.online).map_err(|e| format!("online: {e}"))?;
        let target = state.target.restore().map_err(|e| format!("target: {e}"))?;
        self.online = online;
        self.target = target;
        // Keep the pre-sized buffer capacity the constructor established.
        self.buffer.clear();
        self.buffer.extend(state.buffer);
        self.trained_once = state.trained_once;
        self.ops = state.ops;
        Ok(())
    }
}

impl BatchAgent for ElmQNet {
    /// One stacked `(B·A) × input` forward pass through the online model —
    /// bit-for-bit equal to per-sample [`Agent::q_values`].
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
            &mut self.batch_q,
        );
        let q = self.batch_q.q();
        out.resize_zeroed(q.rows(), q.cols());
        out.as_mut_slice().copy_from_slice(q.as_slice());
    }

    /// ε-greedy through the batched kernel: same Q (bit for bit), same RNG
    /// draws, same action as [`Agent::act`] — minus the per-action matvecs.
    /// Records the same per-action prediction counters as [`Agent::act`],
    /// so modeled execution times stay comparable between the scalar and
    /// E-parallel drivers.
    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        let kind = OpKind::predict(self.trained_once);
        let _span = kind.span();
        let q = self.predict_batch(state_row);
        self.ops.add(kind, self.config.num_actions as u64);
        self.policy.select(q.row(0), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn cartpole(hidden_dim: usize) -> ElmQNetConfig {
        ElmQNetConfig::for_workload(&elmrl_gym::Workload::CartPole.spec(), hidden_dim)
    }

    fn obs(i: usize, reward: f64, done: bool) -> Observation {
        Observation {
            state: vec![0.01 * i as f64, -0.02, 0.03, 0.04],
            action: i % 2,
            reward,
            next_state: vec![0.01 * i as f64 + 0.01, -0.01, 0.02, 0.05],
            done,
            truncated: false,
        }
    }

    #[test]
    fn batch_training_fires_exactly_when_buffer_fills() {
        let mut r = rng(1);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        assert_eq!(agent.name(), "ELM");
        assert!(!agent.is_trained());
        for i in 0..7 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(!agent.is_trained());
        agent.observe(&obs(7, -1.0, true), &mut r);
        assert!(agent.is_trained());
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
        // Buffer cleared: another Ñ samples trigger a second retraining.
        for i in 8..16 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 2);
    }

    #[test]
    fn updates_are_limited_to_buffer_refills() {
        // The structural weakness the paper points out: 100 transitions with
        // Ñ = 64 yield exactly one training call.
        let mut r = rng(2);
        let mut agent = ElmQNet::new(cartpole(64), &mut r);
        for i in 0..100 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
    }

    #[test]
    fn learns_negative_q_for_failing_transitions() {
        let mut r = rng(3);
        let mut agent = ElmQNet::new(cartpole(16), &mut r);
        for i in 0..16 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        assert!(agent.is_trained());
        let q = agent.q_values(&[0.05, -0.02, 0.03, 0.04]);
        assert!(
            q.iter().any(|&v| v < -0.3),
            "expected learned negative Q, got {q:?}"
        );
    }

    #[test]
    fn act_counts_predictions_by_phase() {
        let mut r = rng(4);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        let _ = agent.act(&[0.0; 4], &mut r);
        assert_eq!(agent.op_counts().count(OpKind::PredictInit), 2);
        for i in 0..8 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let _ = agent.act(&[0.0; 4], &mut r);
        assert_eq!(agent.op_counts().count(OpKind::PredictSeq), 2);
    }

    #[test]
    fn reset_forgets_training() {
        let mut r = rng(5);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        assert!(agent.is_trained());
        agent.reset(&mut r);
        assert!(!agent.is_trained());
        assert_eq!(agent.q_values(&[0.0; 4]), vec![0.0, 0.0]);
    }

    #[test]
    fn non_finite_refill_leaves_beta_and_training_state() {
        let mut r = rng(7);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        let nan_state = |i: usize| {
            let mut o = obs(i, 0.0, false);
            o.state[1] = f64::NAN;
            o
        };
        // `observe` drops a non-finite transition before it reaches D, so
        // only a restored snapshot can hold one; place it there directly.
        // A poisoned first refill is dropped: still untrained, β still zero.
        for i in 0..6 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        agent.buffer.push(nan_state(6));
        agent.observe(&obs(7, -1.0, true), &mut r);
        assert!(!agent.is_trained());
        assert_eq!(agent.online.model().beta(), &Matrix::zeros(8, 1));
        // A poisoned refill after a good one keeps the trained β.
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        assert!(agent.is_trained());
        let beta = agent.online.model().beta().clone();
        for i in 0..6 {
            agent.observe(&obs(i, 0.5, false), &mut r);
        }
        agent.buffer.push(nan_state(6));
        agent.observe(&obs(7, 0.5, false), &mut r);
        assert!(agent.is_trained());
        assert_eq!(agent.online.model().beta(), &beta);
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 3);
    }

    #[test]
    fn target_sync_and_memory_reporting() {
        let mut r = rng(6);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        agent.end_episode(1); // (1+1) % 2 == 0 → sync
        let s = [0.02, -0.02, 0.03, 0.04];
        let online_q = agent.q_values(&s);
        let target_q = agent.q_for(&agent.target, &s);
        assert_eq!(online_q, target_q);
        assert!(agent.memory_footprint_bytes() > 0);
        // ELM has no P matrix, so it needs less memory than OS-ELM at equal Ñ.
        let oselm = crate::oselm_qnet::OsElmQNet::new(
            crate::oselm_qnet::OsElmQNetConfig::for_workload(
                &elmrl_gym::Workload::CartPole.spec(),
                8,
                0.5,
                true,
            ),
            &mut r,
        );
        assert!(agent.memory_footprint_bytes() < oselm.memory_footprint_bytes());
    }

    #[test]
    fn restore_rejects_a_short_beta_or_another_hidden_width() {
        // The batch ELM keeps no P; its β stands in for the short array.
        let mut r = rng(12);
        let mut agent = ElmQNet::new(cartpole(8), &mut r);
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        let snap = agent.snapshot().unwrap();
        let mut state: ElmQNetState = snap.decode(agent.name()).unwrap();
        state.online.model.beta.pop();
        let short_beta = AgentSnapshot::new(agent.name(), &state);
        let wider = ElmQNet::new(cartpole(9), &mut r);
        for bad in [short_beta, wider.snapshot().unwrap()] {
            assert!(agent.restore(&bad).is_err());
            assert_eq!(
                agent.snapshot().unwrap().state,
                snap.state,
                "agent unchanged"
            );
        }
    }
}
