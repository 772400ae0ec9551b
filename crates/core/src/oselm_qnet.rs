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

use crate::agent::Observation;
use crate::clipping::TargetConfig;
use crate::ops::OpCounts;
use crate::qnet::{float_footprint, Datapath, QNet, ShellConfig, Stored};
use elmrl_elm::os_elm::OsElmError;
use elmrl_elm::{HiddenActivation, ModelSnapshot, OsElm, OsElmConfig, OsElmSnapshot};
use elmrl_linalg::{LinalgError, Matrix};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Numerical jitter used when the *plain* OS-ELM design (δ = 0) hits a
/// singular Gram matrix in its initial training. This is not the ReOS-ELM
/// regulariser — it only keeps the matrix inversion defined, mirroring what a
/// fixed-point hardware divider's finite resolution does implicitly.
const NUMERICAL_DELTA: f64 = 1e-8;

/// Default cap on the RLS chunk width `B` of one batched tick. A chunk pays
/// O(B²·Ñ + B³) for its `I + H·P·Hᵀ` Gram matrix and Cholesky on top of the
/// O(B·Ñ²) P passes, so a too-wide chunk loses to two half-width ones. The
/// sweep at Ñ ∈ {256, 512, 1024} in `BENCH_PR9.json` (`chunk_cap_sweep`) puts
/// that crossover past B ≈ 64 at every Ñ. Every OS-ELM agent splits its
/// oversized ticks at this width; the scalar loop's B = 1 is always below it.
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

/// The OS-ELM Q-Network agent: Algorithm 1 over the f64 RLS datapath.
pub type OsElmQNet = QNet<OsElm<f64>>;

/// The snapshot payload of an [`OsElmQNet`]: the online learner's RLS
/// recursion (`α`, `b`, `β`, `P`, counters), θ₂, buffer `D` and the op
/// counters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OsElmQNetState {
    online: OsElmSnapshot,
    target: ModelSnapshot,
    buffer: Vec<Observation>,
    ops: OpCounts,
}

impl OsElmQNet {
    /// Whether initial training has completed.
    pub fn is_initialized(&self) -> bool {
        self.datapath.is_initialized()
    }

    /// Borrow the online (θ₁) learner.
    pub fn online(&self) -> &OsElm<f64> {
        &self.datapath
    }
}

/// The f64 RLS datapath of the four OS-ELM designs.
impl Datapath for OsElm<f64> {
    type Config = OsElmQNetConfig;
    type State = OsElmQNetState;

    fn view(config: &OsElmQNetConfig) -> ShellConfig {
        let name = match (config.l2_delta > 0.0, config.spectral_normalize) {
            (false, false) => "OS-ELM",
            (true, false) => "OS-ELM-L2",
            (false, true) => "OS-ELM-Lipschitz",
            (true, true) => "OS-ELM-L2-Lipschitz",
        };
        ShellConfig {
            name,
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            exploit_prob: config.exploit_prob,
            update_prob: config.random_update.then_some(config.update_prob),
            target_sync_episodes: config.target_sync_episodes,
            target: config.target,
            chunk_cap: DEFAULT_CHUNK_CAP,
            elm: config.elm_config(),
        }
    }

    fn new(config: &OsElmConfig, rng: &mut SmallRng) -> Self {
        OsElm::new(config, rng)
    }

    fn model(&self) -> &elmrl_elm::model::ElmModel<f64> {
        OsElm::model(self)
    }

    fn trained(&self) -> bool {
        self.is_initialized()
    }

    /// A non-finite state or reward in `D` (only a restored snapshot can
    /// hold one) fails before it can poison β: the refill is dropped,
    /// uncounted. The plain design's singular Gram matrix is kept defined
    /// by `NUMERICAL_DELTA`, so any other failure is unexpected.
    fn train_initial(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) -> bool {
        match self.init_train(x, t) {
            Ok(()) => true,
            Err(OsElmError::Linalg(LinalgError::InvalidData { .. })) => false,
            Err(_) => {
                debug_assert!(false, "OS-ELM initial training failed unexpectedly");
                false
            }
        }
    }

    fn update_one(&mut self, x: &[f64], t: f64) -> bool {
        let updated = self.seq_train_single(x, &[t]);
        debug_assert!(updated.is_ok(), "sequential update before initial training");
        updated.is_ok()
    }

    fn update_chunk(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) {
        let updated = self.seq_train_batch(x, t);
        debug_assert!(updated.is_ok(), "chunk update before initial training");
    }

    /// θ₁ and θ₂ (α, b, β each), P and buffer `D`.
    fn memory_footprint_bytes(&self, buffer_words: usize) -> usize {
        let n = self.model().hidden_dim();
        float_footprint(self.model(), n * n + buffer_words)
    }

    fn capture(&self, (target, buffer, ops): Stored) -> OsElmQNetState {
        OsElmQNetState {
            online: self.snapshot(),
            target,
            buffer,
            ops,
        }
    }

    fn release(s: OsElmQNetState, config: &OsElmConfig) -> Result<(Self, Stored), String> {
        s.online.model.check_dims(config)?;
        let online = OsElm::from_snapshot(&s.online).map_err(|e| format!("online: {e}"))?;
        Ok((online, (s.target, s.buffer, s.ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use crate::batch::BatchAgent;
    use crate::checkpoint::AgentSnapshot;
    use crate::encoding::StateActionEncoder;
    use crate::ops::OpKind;
    use crate::policy::max_q;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn cartpole(hidden_dim: usize, l2_delta: f64, spectral_normalize: bool) -> OsElmQNetConfig {
        let spec = elmrl_gym::Workload::CartPole.spec();
        OsElmQNetConfig::for_workload(&spec, hidden_dim, l2_delta, spectral_normalize)
    }

    /// θ₂'s Q-values of `state` (CartPole: 4 state components, 2 actions).
    fn target_q(agent: &OsElmQNet, state: &[f64]) -> Vec<f64> {
        let inputs = StateActionEncoder::new(4, 2).encode_all_actions(state);
        inputs
            .iter()
            .map(|x| agent.target().predict_single(x)[0])
            .collect()
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
        let q_target_before = max_q(&target_q(&agent, &[0.0; 4]));
        assert_eq!(q_target_before, 0.0);
        agent.end_episode(0); // episode 1 → (0+1) % 2 != 0 → no sync
        assert_eq!(max_q(&target_q(&agent, &[0.0; 4])), 0.0);
        agent.end_episode(1); // (1+1) % 2 == 0 → sync
        let q_online = max_q(&agent.q_values(&[0.0; 4]));
        let q_target = max_q(&target_q(&agent, &[0.0; 4]));
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
        assert!(normalized.online().model().alpha_sigma_max() <= 1.0 + 1e-9);
        assert!(raw.online().model().alpha_sigma_max() > 1.0);
    }

    /// Drive one agent through its init phase, then feed the same
    /// 2·[`DEFAULT_CHUNK_CAP`] transitions as `observe_batch` ticks of the
    /// given widths, returning the resulting β as a flat vector.
    fn beta_after_ticks(widths: &[usize]) -> Vec<f64> {
        let mut r = rng(42);
        let mut config = cartpole(16, 0.5, true);
        config.random_update = false; // every transition trains
        let mut agent = OsElmQNet::new(config, &mut r);
        for i in 0..16 {
            let mut obs = sample_obs(0.0, false);
            obs.state[0] = i as f64 * 0.03 - 0.2;
            obs.action = i % 2;
            agent.observe(&obs, &mut r);
        }
        assert!(agent.is_initialized());
        let transitions: Vec<Observation> = (0..2 * DEFAULT_CHUNK_CAP)
            .map(|i| {
                let mut obs = sample_obs(if i % 3 == 0 { -1.0 } else { 0.0 }, i % 3 == 0);
                obs.state[1] = (i % 17) as f64 * 0.07 - 0.5;
                obs.next_state[2] = (i % 11) as f64 * -0.04 + 0.2;
                obs.action = i % 2;
                obs
            })
            .collect();
        assert_eq!(widths.iter().sum::<usize>(), transitions.len());
        let mut rest = transitions.as_slice();
        for &width in widths {
            let (tick, tail) = rest.split_at(width);
            agent.observe_batch(tick, &mut r);
            rest = tail;
        }
        agent.online().model().beta().as_slice().to_vec()
    }

    #[test]
    fn chunk_cap_splits_are_deterministic_but_not_bit_identical_to_one_chunk() {
        // A tick twice the cap wide is split into two cap-wide RLS chunks:
        // bit for bit two cap-wide ticks (θ₂, and so every target, is fixed
        // within an episode).
        let cap = DEFAULT_CHUNK_CAP;
        let split = beta_after_ticks(&[2 * cap]);
        assert_eq!(
            split,
            beta_after_ticks(&[2 * cap]),
            "the split update must be bit-for-bit deterministic"
        );
        assert_eq!(split, beta_after_ticks(&[cap, cap]));
        // The OS-ELM property makes narrower chunks *algebraically*
        // equivalent, so trajectories rarely diverge (the harness pins
        // that); here β is observable, and the float-level rounding
        // difference from re-associating the update must show up.
        let narrow = beta_after_ticks(&[cap / 2; 4]);
        assert_ne!(
            narrow, split,
            "re-chunking the update re-associates the RLS arithmetic, so β \
             must differ at float level"
        );
        let max_abs_diff = narrow
            .iter()
            .zip(&split)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            max_abs_diff < 1e-9,
            "chunk splitting must stay algebraically equivalent, got {max_abs_diff}"
        );
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
        let mut state: OsElmQNetState = snap.decode(agent.name()).unwrap();
        state.online.p.as_mut().expect("initialised").pop();
        let short_p = AgentSnapshot::new(agent.name(), &state);
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
