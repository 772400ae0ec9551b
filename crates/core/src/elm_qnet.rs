//! The ELM Q-Network (§3.1, design (1) of the evaluation).
//!
//! ELM is a *batch* algorithm: the Q-network can only be (re)trained when the
//! buffer `D` holds `Ñ` fresh transitions (Algorithm 1 lines 16–19). Between
//! refills the policy acts on a frozen `β`. This severely limits the number
//! of updates — the limitation OS-ELM removes — and is why the paper finds
//! ELM fragile with respect to the hidden size (§4.3).

use crate::agent::Observation;
use crate::clipping::TargetConfig;
use crate::ops::OpCounts;
use crate::qnet::{float_footprint, Datapath, QNet, ShellConfig, Stored};
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

/// The ELM Q-Network agent: Algorithm 1 over the refill-only datapath.
pub type ElmQNet = QNet<Elm<f64>>;

/// The snapshot payload of an [`ElmQNet`]: the batch learner, θ₂, the
/// refill buffer `D`, the trained-once flag and the op counters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ElmQNetState {
    online: ElmSnapshot,
    target: ModelSnapshot,
    buffer: Vec<Observation>,
    trained_once: bool,
    ops: OpCounts,
}

impl ElmQNet {
    /// Whether at least one batch training has completed.
    pub fn is_trained(&self) -> bool {
        self.datapath.is_trained()
    }
}

/// The refill-only datapath of the ELM design: a batch solve on every full
/// buffer `D`, and no sequential update.
impl Datapath for Elm<f64> {
    type Config = ElmQNetConfig;
    type State = ElmQNetState;
    const REFILL_ONLY: bool = true;

    fn view(config: &ElmQNetConfig) -> ShellConfig {
        ShellConfig {
            name: "ELM",
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            exploit_prob: config.exploit_prob,
            update_prob: None,
            target_sync_episodes: config.target_sync_episodes,
            target: config.target,
            chunk_cap: usize::MAX,
            elm: config.elm_config(),
        }
    }

    fn new(config: &OsElmConfig, rng: &mut SmallRng) -> Self {
        Elm::new(config, rng)
    }

    fn model(&self) -> &ElmModel<f64> {
        Elm::model(self)
    }

    fn trained(&self) -> bool {
        self.is_trained()
    }

    /// The least-squares solve tolerates rank deficiency, so it fails only
    /// on a non-finite sample or target; the batch is then dropped rather
    /// than poisoning β, and still counted.
    fn train_initial(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) -> bool {
        let _ = self.train(x, t);
        true
    }

    /// θ₁ and θ₂ (α, b, β each) and buffer `D`; no P.
    fn memory_footprint_bytes(&self, buffer_words: usize) -> usize {
        float_footprint(self.model(), buffer_words)
    }

    fn capture(&self, (target, buffer, ops): Stored) -> ElmQNetState {
        ElmQNetState {
            online: self.snapshot(),
            target,
            buffer,
            trained_once: self.is_trained(),
            ops,
        }
    }

    /// `trained_once` always equals the learner's own `trained` flag, which
    /// the rebuilt learner carries.
    fn release(s: ElmQNetState, config: &OsElmConfig) -> Result<(Self, Stored), String> {
        s.online.model.check_dims(config)?;
        let online = Elm::from_snapshot(&s.online).map_err(|e| format!("online: {e}"))?;
        Ok((online, (s.target, s.buffer, s.ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use crate::checkpoint::AgentSnapshot;
    use crate::encoding::StateActionEncoder;
    use crate::ops::OpKind;
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
        assert_eq!(agent.datapath().model().beta(), &Matrix::zeros(8, 1));
        // A poisoned refill after a good one keeps the trained β.
        for i in 0..8 {
            agent.observe(&obs(i, -1.0, true), &mut r);
        }
        assert!(agent.is_trained());
        let beta = agent.datapath().model().beta().clone();
        for i in 0..6 {
            agent.observe(&obs(i, 0.5, false), &mut r);
        }
        agent.buffer.push(nan_state(6));
        agent.observe(&obs(7, 0.5, false), &mut r);
        assert!(agent.is_trained());
        assert_eq!(agent.datapath().model().beta(), &beta);
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
        let inputs = StateActionEncoder::new(4, 2).encode_all_actions(&s);
        let target_q: Vec<f64> = inputs
            .iter()
            .map(|x| agent.target().predict_single(x)[0])
            .collect();
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
