//! The DQN baseline (§2.4, design (6) of the evaluation).
//!
//! A three-layer network (`state → Ñ ReLU units → Q per action`) trained by
//! backpropagation with Adam (learning rate 0.01), the Huber loss, uniform
//! experience replay (mini-batches of 32) and a fixed target network synced
//! every `UPDATE_STEP` episodes — i.e. everything the paper argues is too
//! heavy for a resource-limited edge device, implemented faithfully so the
//! comparison in Figures 4 and 5 is meaningful.

use crate::agent::{Agent, Observation};
use crate::batch::BatchAgent;
use crate::checkpoint::{check_transitions, AgentSnapshot};
use crate::clipping::TargetConfig;
use crate::ops::{OpCounts, OpKind};
use crate::policy::ExploitPolicy;
use elmrl_linalg::simd::wide;
use elmrl_linalg::Matrix;
use elmrl_nn::{
    Activation, Adam, Loss, Mlp, MlpConfig, MlpScratch, MlpWorkspace, MomentState, ReplayBatch,
    ReplayBuffer, Transition,
};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Configuration of the DQN baseline agent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Environment state dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer width `Ñ`.
    pub hidden_dim: usize,
    /// Exploit probability ε₁ (the paper's policy is shared by all designs).
    pub exploit_prob: f64,
    /// Target-network synchronisation interval in episodes.
    pub target_sync_episodes: usize,
    /// Discount factor γ (targets are not clipped for DQN; the Huber loss
    /// absorbs outliers instead).
    pub gamma: f64,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f64,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Mini-batch size (paper reports `predict_32`, i.e. 32).
    pub batch_size: usize,
    /// Minimum buffer occupancy before gradient steps start.
    pub warmup: usize,
}

impl DqnConfig {
    /// Settings for a registered workload.
    pub fn for_workload(spec: &elmrl_gym::EnvSpec, hidden_dim: usize) -> Self {
        Self::from_design(&crate::designs::DesignConfig::for_workload(
            spec, hidden_dim,
        ))
    }

    /// Settings derived from shared per-cell design parameters (the replay /
    /// optimiser knobs are the paper's fixed choices).
    pub fn from_design(config: &crate::designs::DesignConfig) -> Self {
        Self {
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            hidden_dim: config.hidden_dim,
            exploit_prob: config.exploit_prob,
            target_sync_episodes: config.target_sync_episodes,
            gamma: config.gamma,
            learning_rate: 0.01,
            replay_capacity: 10_000,
            batch_size: 32,
            warmup: 64,
        }
    }
}

/// The complete mutable state of a [`DqnAgent`], as carried inside an
/// [`AgentSnapshot`]: both networks' parameters, the Adam moment estimates
/// (with their bias-correction step counts), the full replay history and the
/// op counters. The replay buffer must travel whole — resuming with a
/// truncated buffer would change which mini-batches the restored run samples.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DqnState {
    online: Vec<(Matrix<f64>, Matrix<f64>)>,
    target: Vec<(Matrix<f64>, Matrix<f64>)>,
    optimizer: Vec<Option<MomentState>>,
    replay: ReplayState,
    ops: OpCounts,
}

impl DqnState {
    /// Check both networks and the Adam moments against `net`'s
    /// architecture before a restore takes any of them: the layer count,
    /// every weight, bias and moment shape, and the finiteness of every
    /// value. [`Mlp::import_parameters`] panics on a shape mismatch, and a
    /// non-finite weight would only surface later as NaN Q-values.
    fn check(&self, net: &Mlp) -> Result<(), String> {
        // Adam slot `2·l` holds layer l's weights, slot `2·l + 1` its bias.
        let layers = net.layers();
        let shapes: Vec<(usize, usize)> = layers
            .iter()
            .flat_map(|l| [l.weights().shape(), l.bias().shape()])
            .collect();
        let check = |what: &str, m: &Matrix<f64>, slot: usize| {
            let (kind, layer) = (["weights", "bias"][slot % 2], slot / 2);
            if m.shape() != shapes[slot] {
                return Err(format!(
                    "DQN snapshot: {what} layer {layer} {kind} are {:?}, the agent's {:?}",
                    m.shape(),
                    shapes[slot]
                ));
            }
            if !m.iter().all(|v| v.is_finite()) {
                return Err(format!(
                    "DQN snapshot: {what} layer {layer} {kind} hold a non-finite value"
                ));
            }
            Ok(())
        };
        for (what, params) in [("online", &self.online), ("target", &self.target)] {
            if params.len() != layers.len() {
                return Err(format!(
                    "DQN snapshot: the {what} network has {} layers, the agent's {}",
                    params.len(),
                    layers.len()
                ));
            }
            let matrices = params.iter().flat_map(|(w, b)| [w, b]);
            for (slot, m) in matrices.enumerate() {
                check(what, m, slot)?;
            }
        }
        if self.optimizer.len() > shapes.len() {
            return Err(format!(
                "DQN snapshot: Adam holds {} slots, the agent's networks {}",
                self.optimizer.len(),
                shapes.len()
            ));
        }
        for (slot, moments) in self.optimizer.iter().enumerate() {
            if let Some((m, v, _)) = moments {
                check("Adam first moment of", m, slot)?;
                check("Adam second moment of", v, slot)?;
            }
        }
        Ok(())
    }
}

/// The replay buffer's snapshot form: its transitions oldest first, and its
/// capacity. The flat ring converts to and from this shape in
/// `snapshot`/`restore`, so snapshots keep the JSON layout they had when
/// the buffer stored one `Transition` per entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ReplayState {
    buffer: Vec<Transition>,
    capacity: usize,
}

/// The DQN baseline agent.
pub struct DqnAgent {
    config: DqnConfig,
    policy: ExploitPolicy,
    online: Mlp,
    target: Mlp,
    optimizer: Adam,
    replay: ReplayBuffer,
    targets: TargetConfig,
    /// Forward-pass workspaces for action selection and the target
    /// network's batch forward.
    scratch: MlpScratch,
    /// Reused per-action Q buffer for [`Agent::act`].
    q_buf: Vec<f64>,
    /// The sampled mini-batch, refilled in place every step.
    batch: ReplayBatch,
    /// `Q_θ2(s', ·)` of the mini-batch.
    next_q: Matrix<f64>,
    /// Buffers of the online network's training step.
    train_ws: MlpWorkspace,
    ops: OpCounts,
}

impl DqnAgent {
    /// Create an agent with Xavier-initialised networks.
    pub fn new(config: DqnConfig, rng: &mut SmallRng) -> Self {
        let mlp_config = MlpConfig::new(&[config.state_dim, config.hidden_dim, config.num_actions])
            .with_hidden_activation(Activation::ReLU)
            .with_output_activation(Activation::Identity);
        let online = Mlp::new(mlp_config.clone(), rng);
        let mut target = Mlp::new(mlp_config, rng);
        target.copy_parameters_from(&online);
        Self {
            policy: ExploitPolicy::new(config.exploit_prob),
            optimizer: Adam::new(config.learning_rate),
            replay: ReplayBuffer::new(config.replay_capacity),
            targets: TargetConfig::unclipped(config.gamma),
            online,
            target,
            scratch: MlpScratch::default(),
            q_buf: Vec::new(),
            batch: ReplayBatch::default(),
            next_q: Matrix::default(),
            train_ws: MlpWorkspace::default(),
            ops: OpCounts::new(),
            config,
        }
    }

    /// Number of transitions currently in the replay buffer.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    fn push(&mut self, obs: &Observation) {
        self.replay.push(
            &obs.state,
            obs.action,
            obs.reward,
            &obs.next_state,
            obs.done,
        );
    }

    fn train_on_batch(&mut self, rng: &mut SmallRng) {
        if self.replay.len() < self.config.warmup.max(self.config.batch_size) {
            return;
        }
        let _span = OpKind::TrainDqn.span();
        let Self {
            online,
            target,
            optimizer,
            replay,
            targets,
            scratch,
            batch,
            next_q,
            train_ws,
            ops,
            config,
            ..
        } = self;
        // The whole step — sample, target forward, training step — runs
        // inside one AVX2 dispatch; the nn kernels it calls are inlined into
        // it, so they are compiled for AVX2 here and nowhere else. Only
        // `avx2` is enabled, so every output bit is the baseline build's
        // (see `elmrl_linalg::simd`).
        wide(
            #[inline(always)]
            || {
                replay.sample_into(config.batch_size, rng, batch);

                // Q_θ2(s', ·) on the batch — the `predict_32` class of
                // Figure 5. The step's second `predict_32`, the online
                // Q_θ1(s, ·) that keeps the untaken actions' targets in
                // place, is the training forward's own output; both keep
                // their count for the modeled cost.
                {
                    let _span = OpKind::Predict32.span();
                    target.forward_batch_into(&batch.next_states, scratch, next_q);
                    ops.add(OpKind::Predict32, 2);
                }

                online.train_step_into(&batch.states, Loss::Huber, optimizer, train_ws, |t| {
                    for (i, &action) in batch.actions.iter().enumerate() {
                        let max_next = next_q
                            .row(i)
                            .iter()
                            .fold(f64::NEG_INFINITY, |m, &q| m.max(q));
                        t[(i, action)] = targets.target(batch.rewards[i], max_next, batch.dones[i]);
                    }
                });
            },
        );
        ops.add(OpKind::TrainDqn, 1);
    }
}

impl Agent for DqnAgent {
    fn name(&self) -> &str {
        "DQN"
    }

    fn hidden_dim(&self) -> usize {
        self.config.hidden_dim
    }

    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let _span = OpKind::Predict1.span();
        let Self {
            policy,
            online,
            scratch,
            q_buf,
            ops,
            ..
        } = self;
        online.forward_one_into(state, scratch, q_buf);
        ops.add(OpKind::Predict1, 1);
        policy.select(q_buf, rng)
    }

    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng) {
        self.push(obs);
        self.train_on_batch(rng);
    }

    fn end_episode(&mut self, episode_index: usize) {
        if self.config.target_sync_episodes > 0
            && (episode_index + 1) % self.config.target_sync_episodes == 0
        {
            self.target.copy_parameters_from(&self.online);
        }
    }

    fn reset(&mut self, rng: &mut SmallRng) {
        let mlp_config = MlpConfig::new(&[
            self.config.state_dim,
            self.config.hidden_dim,
            self.config.num_actions,
        ])
        .with_hidden_activation(Activation::ReLU)
        .with_output_activation(Activation::Identity);
        self.online = Mlp::new(mlp_config.clone(), rng);
        self.target = Mlp::new(mlp_config, rng);
        self.target.copy_parameters_from(&self.online);
        self.optimizer = Adam::new(self.config.learning_rate);
        self.replay.clear();
    }

    fn op_counts(&self) -> &OpCounts {
        &self.ops
    }

    fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
        self.online.forward_one(state)
    }

    fn memory_footprint_bytes(&self) -> usize {
        let params = 2 * self.online.parameter_count() * std::mem::size_of::<f64>();
        params + self.replay.approximate_bytes()
    }

    fn snapshot(&self) -> Option<AgentSnapshot> {
        let state = DqnState {
            online: self.online.export_parameters(),
            target: self.target.export_parameters(),
            optimizer: self.optimizer.export_state(),
            replay: ReplayState {
                buffer: self.replay.iter().collect(),
                capacity: self.replay.capacity(),
            },
            ops: self.ops.clone(),
        };
        Some(AgentSnapshot::new(self.name(), &state))
    }

    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let state: DqnState = snapshot.decode(self.name())?;
        if state.replay.capacity == 0 {
            return Err("DQN snapshot: replay capacity must be positive".into());
        }
        let (dim, actions) = (self.config.state_dim, self.config.num_actions);
        let replay = state.replay.buffer.iter();
        let rows = replay.map(|t| (&t.state[..], t.action, t.reward, &t.next_state[..]));
        check_transitions("DQN replay", rows, dim, actions)?;
        state.check(&self.online)?;
        self.online.import_parameters(&state.online);
        self.target.import_parameters(&state.target);
        self.optimizer.import_state(state.optimizer);
        self.replay = ReplayBuffer::new(state.replay.capacity);
        for t in &state.replay.buffer {
            self.replay
                .push(&t.state, t.action, t.reward, &t.next_state, t.done);
        }
        self.ops = state.ops;
        Ok(())
    }
}

impl BatchAgent for DqnAgent {
    /// The DQN maps states to per-action Q directly, so the batched pass is
    /// a single `B × state_dim` forward through the online MLP — bit-for-bit
    /// equal to per-sample [`Agent::q_values`] (the layer kernels accumulate
    /// each batch row independently).
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        self.online.forward(states)
    }

    /// The batched forward through the agent's own [`MlpScratch`] — the
    /// serve-worker hot path. Zero heap allocations once `out` and the
    /// ping-pong buffers have seen the steady-state batch shape.
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        self.online
            .forward_batch_into(states, &mut self.scratch, out);
    }

    /// One engine tick's transitions: push all of them into replay, then
    /// perform **one** true minibatch SGD step (one sampled batch, one
    /// gradient update) instead of the scalar path's one-step-per-transition
    /// — B transitions arriving together would otherwise trigger B gradient
    /// steps on nearly identical replay contents. With `batch.len() == 1`
    /// this is exactly the scalar [`Agent::observe`].
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        for obs in batch {
            self.push(obs);
        }
        self.train_on_batch(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn cartpole(hidden_dim: usize) -> DqnConfig {
        DqnConfig::for_workload(&elmrl_gym::Workload::CartPole.spec(), hidden_dim)
    }

    fn obs(i: usize, reward: f64, done: bool) -> Observation {
        Observation {
            state: vec![0.01 * (i % 17) as f64, -0.02, 0.03 * ((i % 5) as f64), 0.04],
            action: i % 2,
            reward,
            next_state: vec![0.01 * (i % 17) as f64 + 0.01, -0.01, 0.02, 0.05],
            done,
            truncated: false,
        }
    }

    #[test]
    fn paper_parameters() {
        let c = cartpole(64);
        assert_eq!(c.learning_rate, 0.01);
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.exploit_prob, 0.7);
        assert_eq!(c.target_sync_episodes, 2);
        let mut r = rng(0);
        let agent = DqnAgent::new(c, &mut r);
        assert_eq!(agent.name(), "DQN");
        assert_eq!(agent.hidden_dim(), 64);
    }

    #[test]
    fn training_starts_only_after_warmup() {
        let mut r = rng(1);
        let mut agent = DqnAgent::new(cartpole(16), &mut r);
        for i in 0..63 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert_eq!(agent.op_counts().count(OpKind::TrainDqn), 0);
        agent.observe(&obs(63, 0.0, false), &mut r);
        assert_eq!(agent.op_counts().count(OpKind::TrainDqn), 1);
        assert_eq!(agent.op_counts().count(OpKind::Predict32), 2);
        assert_eq!(agent.replay_len(), 64);
    }

    #[test]
    fn act_counts_single_predictions() {
        let mut r = rng(2);
        let mut agent = DqnAgent::new(cartpole(16), &mut r);
        for _ in 0..5 {
            let _ = agent.act(&[0.0; 4], &mut r);
        }
        assert_eq!(agent.op_counts().count(OpKind::Predict1), 5);
    }

    #[test]
    fn q_of_failing_action_decreases_with_training() {
        let mut r = rng(3);
        let mut agent = DqnAgent::new(cartpole(32), &mut r);
        let probe = [0.05, -0.02, 0.1, 0.04];
        // Fill replay with transitions where action 1 from states with
        // positive pole angle leads to failure (−1) and action 0 is neutral.
        for i in 0..400 {
            let bad = i % 2 == 1;
            let o = Observation {
                state: vec![0.05, -0.02, 0.1, 0.04],
                action: if bad { 1 } else { 0 },
                reward: if bad { -1.0 } else { 0.0 },
                next_state: vec![0.06, -0.02, 0.12, 0.05],
                done: bad,
                truncated: false,
            };
            agent.observe(&o, &mut r);
            agent.end_episode(i);
        }
        let q = agent.q_values(&probe);
        assert!(
            q[1] < q[0],
            "Q(bad action) should fall below Q(neutral action): {q:?}"
        );
    }

    #[test]
    fn target_network_sync_schedule() {
        let mut r = rng(4);
        let mut agent = DqnAgent::new(cartpole(16), &mut r);
        for i in 0..80 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let probe = [0.1, 0.0, 0.0, 0.0];
        let online_q = agent.q_values(&probe);
        let target_q_before = agent.target.forward_one(&probe);
        assert!(online_q
            .iter()
            .zip(target_q_before.iter())
            .any(|(a, b)| (a - b).abs() > 1e-9));
        agent.end_episode(1); // sync
        let target_q_after = agent.target.forward_one(&probe);
        for (a, b) in online_q.iter().zip(target_q_after.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_clears_replay_and_reinitialises() {
        let mut r = rng(5);
        let mut agent = DqnAgent::new(cartpole(16), &mut r);
        for i in 0..100 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(agent.replay_len() > 0);
        agent.reset(&mut r);
        assert_eq!(agent.replay_len(), 0);
    }

    #[test]
    fn memory_footprint_includes_replay_buffer() {
        let mut r = rng(6);
        let mut agent = DqnAgent::new(cartpole(64), &mut r);
        let empty = agent.memory_footprint_bytes();
        for i in 0..500 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let filled = agent.memory_footprint_bytes();
        assert!(
            filled > empty + 400 * 8 * std::mem::size_of::<f64>(),
            "replay buffer growth should dominate: {empty} -> {filled}"
        );
    }
}
