//! Design (7): the OS-ELM-L2-Lipschitz Q-Network with its prediction and
//! sequential training executed by the fixed-point FPGA core.
//!
//! Work is split exactly as in Figure 3 of the paper: the Cortex-A9 (CPU
//! part) runs the environment, the ε₁ policy and the *initial training*; the
//! programmable logic runs `predict` and `seq_train` on Q20 data at 125 MHz.
//! The agent is the ELM-family shell ([`QNet`]) over [`FpgaDatapath`]: a
//! float OS-ELM for the CPU-side initial training, mirrored into an
//! [`FpgaCore`] once initial training completes. Every later prediction and
//! sequential update goes through the fixed-point core and is charged
//! simulated PL cycles.

use crate::core::{CycleCounts, FpgaCore, FpgaCoreSnapshot, CPU_CLOCK_HZ};
use elmrl_core::agent::Observation;
use elmrl_core::batch::{elm_q_batch_into, BatchAgent, EvalScratch};
use elmrl_core::clipping::TargetConfig;
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::encoding::StateActionEncoder;
use elmrl_core::ops::OpCounts;
use elmrl_core::qnet::{Datapath, QNet, ShellConfig, Stored};
use elmrl_elm::model::ElmModel;
use elmrl_elm::{HiddenActivation, ModelSnapshot, OsElm, OsElmConfig, OsElmSnapshot};
use elmrl_fixed::Q20;
use elmrl_gym::EnvSpec;
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
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
    pub fn for_workload(spec: &EnvSpec, hidden_dim: usize) -> Self {
        let design = DesignConfig::for_workload(spec, hidden_dim);
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

/// The FPGA-backed OS-ELM-L2-Lipschitz agent (design 7): Algorithm 1 over
/// the Q20 datapath.
pub type FpgaAgent = QNet<FpgaDatapath>;

/// Build any of the seven designs behind the batched-inference interface:
/// [`FpgaAgent`] for [`Design::Fpga`], [`Design::build_batch`] for the six
/// software designs. The agent draws its initial weights from `rng`.
pub fn build_agent(
    design: Design,
    spec: &EnvSpec,
    hidden_dim: usize,
    rng: &mut SmallRng,
) -> Box<dyn BatchAgent + Send> {
    match design {
        Design::Fpga => Box::new(FpgaAgent::new(
            FpgaAgentConfig::for_workload(spec, hidden_dim),
            rng,
        )),
        software => software.build_batch(&DesignConfig::for_workload(spec, hidden_dim), rng),
    }
}

/// The snapshot payload of an [`FpgaAgent`]: the CPU-side float learner,
/// the float target network, the Q20 core (when loaded), buffer `D` and the
/// simulated-time accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FpgaAgentState {
    cpu_learner: OsElmSnapshot,
    target: ModelSnapshot,
    core: Option<FpgaCoreSnapshot>,
    buffer: Vec<Observation>,
    ops: OpCounts,
    simulated_cpu_seconds: f64,
    /// PL cycles of the cores unloaded by resets; absent until the first
    /// reset, so checkpoints without one keep their bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    retired_cycles: Option<CycleCounts>,
}

/// The Q20 datapath: the CPU learner that computes P₀ and β₀, and the PL
/// core that predicts and updates once they are loaded.
pub struct FpgaDatapath {
    /// CPU-side float learner: initial training, and θ₁ until the core loads.
    cpu_learner: OsElm<f64>,
    /// The programmable-logic core; present once initial training completed.
    core: Option<FpgaCore>,
    /// Simulated CPU seconds spent in initial training.
    simulated_cpu_seconds: f64,
    /// PL cycles of the cores unloaded by resets.
    retired_cycles: CycleCounts,
    scratch: CoreScratch,
}

/// Host-side staging of the core's I/O: not part of the checkpoint.
#[derive(Default)]
struct CoreScratch {
    /// Encoding workspace for one `(state, action)` row.
    enc: Vec<f64>,
    /// Quantised input rows, targets and outputs of the core.
    xq: Matrix<Q20>,
    tgt: Matrix<Q20>,
    yq: Matrix<Q20>,
}

impl FpgaDatapath {
    /// Whether the PL core has been loaded (i.e. initial training completed).
    pub fn core_loaded(&self) -> bool {
        self.core.is_some()
    }

    /// The PL cycle counters of every core loaded so far: the retired ones
    /// and the live one.
    fn cycles(&self) -> CycleCounts {
        let mut total = self.retired_cycles;
        if let Some(core) = &self.core {
            total.merge(core.cycles());
        }
        total
    }

    /// Simulated programmable-logic seconds (125 MHz) accumulated so far.
    pub fn simulated_pl_seconds(&self) -> f64 {
        self.cycles().total_seconds()
    }

    /// Simulated seconds split by module: `(predict, seq_train, init_train)`.
    pub fn simulated_breakdown_seconds(&self) -> (f64, f64, f64) {
        let c = self.cycles();
        (
            c.predict_seconds(),
            c.seq_train_seconds(),
            self.simulated_cpu_seconds,
        )
    }

    /// Total simulated on-device seconds (PL + CPU initial training).
    pub fn simulated_total_seconds(&self) -> f64 {
        self.simulated_pl_seconds() + self.simulated_cpu_seconds
    }

    /// Q-values of every action of every state in the row-major `states`
    /// through the loaded core, left in `scratch.yq` (row `i·A + a`); `false`
    /// before the core is loaded. All rows go through one
    /// [`FpgaCore::predict_batch_q`] call — bit for bit the per-row
    /// `predict` loop, and charged one `predict` per row.
    fn core_q(&mut self, encoder: &StateActionEncoder, states: &[f64]) -> bool {
        let (Some(core), s) = (self.core.as_mut(), &mut self.scratch) else {
            return false;
        };
        let (a, sd) = (encoder.num_actions(), encoder.state_dim());
        s.xq.resize_zeroed(states.len() / sd * a, encoder.input_dim());
        for (r, state) in states.chunks(sd).enumerate() {
            for action in 0..a {
                encoder.encode_into(state, action, &mut s.enc);
                let row = s.xq.row_mut(r * a + action);
                for (q, &v) in row.iter_mut().zip(&s.enc) {
                    *q = Q20::from_f64(v);
                }
            }
        }
        core.predict_batch_q(&s.xq, &mut s.yq);
        true
    }

    /// `B` sequential Q20 RLS updates in row order, on the row-major encoded
    /// inputs `x` and the targets `t` — the hardware update is
    /// batch-size-1, so a chunk is bit for bit `B` single updates.
    fn seq_train_q(&mut self, x: &[f64], t: &[f64]) {
        let core = self.core.as_mut().expect("core loaded");
        let s = &mut self.scratch;
        s.xq.resize_zeroed(t.len(), x.len() / t.len());
        s.tgt.resize_zeroed(t.len(), 1);
        let pairs = s.xq.as_mut_slice().iter_mut().zip(x);
        for (q, &v) in pairs.chain(s.tgt.as_mut_slice().iter_mut().zip(t)) {
            *q = Q20::from_f64(v);
        }
        core.seq_train_batch_q(&s.xq, &s.tgt);
    }
}

impl Datapath for FpgaDatapath {
    type Config = FpgaAgentConfig;
    type State = FpgaAgentState;

    /// The FPGA gate is the OS-ELM gate with the random update always on.
    fn view(config: &FpgaAgentConfig) -> ShellConfig {
        ShellConfig {
            name: "FPGA",
            state_dim: config.state_dim,
            num_actions: config.num_actions,
            exploit_prob: config.exploit_prob,
            update_prob: Some(config.update_prob),
            target_sync_episodes: config.target_sync_episodes,
            target: config.target,
            chunk_cap: usize::MAX,
            elm: config.elm_config(),
        }
    }

    fn new(config: &OsElmConfig, rng: &mut SmallRng) -> Self {
        Self {
            cpu_learner: OsElm::new(config, rng),
            core: None,
            simulated_cpu_seconds: 0.0,
            retired_cycles: CycleCounts::default(),
            scratch: CoreScratch::default(),
        }
    }

    /// Unloads the core; the simulated CPU and PL time keep accumulating.
    fn reset(&mut self, config: &OsElmConfig, rng: &mut SmallRng) {
        let (seconds, cycles) = (self.simulated_cpu_seconds, self.cycles());
        *self = Self::new(config, rng);
        self.simulated_cpu_seconds = seconds;
        self.retired_cycles = cycles;
    }

    fn model(&self) -> &ElmModel<f64> {
        self.cpu_learner.model()
    }

    fn trained(&self) -> bool {
        self.core.is_some()
    }

    /// The CPU learner's initial training (a refill it drops is not
    /// counted, as for OS-ELM), then the AXI load of α, b, β and P into the
    /// PL BRAMs.
    fn train_initial(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) -> bool {
        if !self.cpu_learner.train_initial(x, t) {
            return false;
        }
        // Simulated Cortex-A9 cost of the initial training: forming the Gram
        // matrix (k·Ñ²), the Cholesky solve (Ñ³/3 + Ñ²·m) and H itself.
        let nh = self.cpu_learner.model().hidden_dim() as f64;
        let k = x.rows() as f64;
        let flops = k * nh * nh + nh * nh * nh / 3.0 + k * nh * (x.cols() as f64);
        self.simulated_cpu_seconds += flops * CPU_CYCLES_PER_FLOP / CPU_CLOCK_HZ;
        let model = self.cpu_learner.model();
        self.core = Some(FpgaCore::from_f64_parts(
            model.alpha(),
            model.bias(),
            model.beta(),
            self.cpu_learner.p_matrix().expect("initialised above"),
        ));
        true
    }

    fn update_one(&mut self, x: &[f64], t: f64) -> bool {
        self.seq_train_q(x, &[t]);
        true
    }

    fn update_chunk(&mut self, x: &Matrix<f64>, t: &Matrix<f64>) {
        self.seq_train_q(x.as_slice(), t.as_slice());
    }

    fn q_batch_into(
        &mut self,
        encoder: &StateActionEncoder,
        states: &Matrix<f64>,
        scratch: &mut EvalScratch,
        out: &mut Matrix<f64>,
    ) {
        if self.core_q(encoder, states.as_slice()) {
            out.resize_zeroed(states.rows(), encoder.num_actions());
            for (o, v) in out
                .as_mut_slice()
                .iter_mut()
                .zip(self.scratch.yq.as_slice())
            {
                *o = v.to_f64();
            }
        } else {
            elm_q_batch_into(encoder, self.cpu_learner.model(), states, scratch, out);
        }
    }

    /// θ₂ ← θ₁, with β read back from the PL (quantised) once it is loaded.
    fn sync_target(&self, target: &mut ElmModel<f64>) {
        let learner = self.cpu_learner.model();
        match &self.core {
            Some(core) => target.copy_parameters_from(&ElmModel::from_parts(
                learner.alpha().clone(),
                learner.bias().clone(),
                core.beta().cast(),
                HiddenActivation::ReLU,
            )),
            None => target.copy_parameters_from(learner),
        }
    }

    /// On the device the learnable state lives in BRAM as 32-bit words.
    fn memory_footprint_bytes(&self, _buffer_words: usize) -> usize {
        let nh = self.cpu_learner.model().hidden_dim();
        crate::resources::ResourceModel::pynq_z1().storage_words(nh) * 4
    }

    fn capture(&self, (target, buffer, ops): Stored) -> FpgaAgentState {
        FpgaAgentState {
            cpu_learner: self.cpu_learner.snapshot(),
            target,
            core: self.core.as_ref().map(FpgaCore::snapshot),
            buffer,
            ops,
            simulated_cpu_seconds: self.simulated_cpu_seconds,
            retired_cycles: (self.retired_cycles != CycleCounts::default())
                .then_some(self.retired_cycles),
        }
    }

    fn release(s: FpgaAgentState, config: &OsElmConfig) -> Result<(Self, Stored), String> {
        s.cpu_learner.model.check_dims(config)?;
        if let Some(core) = &s.core {
            core.check_dims(config)?;
        }
        let cpu_learner =
            OsElm::from_snapshot(&s.cpu_learner).map_err(|e| format!("CPU learner: {e}"))?;
        let datapath = Self {
            cpu_learner,
            core: s.core.as_ref().map(FpgaCore::from_snapshot),
            simulated_cpu_seconds: s.simulated_cpu_seconds,
            retired_cycles: s.retired_cycles.unwrap_or_default(),
            scratch: CoreScratch::default(),
        };
        Ok((datapath, (s.target, s.buffer, s.ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_core::agent::Agent;
    use elmrl_core::checkpoint::AgentSnapshot;
    use elmrl_core::ops::OpKind;
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
        assert!(!agent.datapath().core_loaded());
        for i in 0..16 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(agent.datapath().core_loaded());
        assert_eq!(agent.op_counts().count(OpKind::InitTrain), 1);
        assert!(agent.datapath().simulated_cpu_seconds > 0.0);
        assert_eq!(
            agent.datapath().simulated_pl_seconds(),
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
        let pl_after_predict = agent.datapath().simulated_pl_seconds();
        assert!(pl_after_predict > 0.0);
        // force an update
        let mut agent2 = FpgaAgent::new(cfg, &mut r);
        for i in 0..16 {
            agent2.observe(&obs(i, 0.0, false), &mut r);
        }
        agent2.observe(&obs(99, -1.0, true), &mut r);
        assert_eq!(agent2.op_counts().count(OpKind::SeqTrain), 1);
        let (p, s, init) = agent2.datapath().simulated_breakdown_seconds();
        assert!(s > 0.0 && init > 0.0);
        assert!(agent2.datapath().simulated_total_seconds() >= p + s);
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
        let mut float = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(16), &mut r2);
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
        let target_q: Vec<f64> = StateActionEncoder::new(4, 2)
            .encode_all_actions(&probe)
            .iter()
            .map(|input| agent.target().predict_single(input)[0])
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
        let mut cfg = cartpole(8);
        cfg.update_prob = 1.0;
        let mut agent = FpgaAgent::new(cfg, &mut r);
        for i in 0..10 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let _ = agent.act(&[0.0; 4], &mut r);
        assert!(agent.datapath().core_loaded());
        let before = agent.datapath().simulated_breakdown_seconds();
        assert!(before.0 > 0.0 && before.1 > 0.0);
        agent.reset(&mut r);
        assert!(!agent.datapath().core_loaded());
        assert_eq!(agent.q_values(&[0.0; 4]), vec![0.0, 0.0]);
        // The unloaded core's PL time stays on the books, and survives a
        // checkpoint round trip.
        assert_eq!(agent.datapath().simulated_breakdown_seconds(), before);
        let mut restored = FpgaAgent::new(cartpole(8), &mut rng(50));
        restored.restore(&agent.snapshot().unwrap()).unwrap();
        assert_eq!(restored.datapath().simulated_breakdown_seconds(), before);
        // The next core's cycles add to the retired ones.
        for i in 0..9 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        let after = agent.datapath().simulated_breakdown_seconds();
        assert!(
            after.0 >= before.0 && after.1 > before.1,
            "{after:?} vs {before:?}"
        );
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
        assert!(agent.datapath().core_loaded());
        let snap = agent.snapshot().unwrap();

        // Different construction seed: restore must overwrite everything.
        let mut other = FpgaAgent::new(cfg, &mut rng(1234));
        other.restore(&snap).unwrap();
        assert!(other.datapath().core_loaded());
        assert!(
            (other.datapath().simulated_cpu_seconds - agent.datapath().simulated_cpu_seconds).abs()
                == 0.0
        );

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
        assert_eq!(
            agent.datapath().simulated_pl_seconds(),
            other.datapath().simulated_pl_seconds()
        );
    }

    #[test]
    fn snapshot_before_initial_training_round_trips_the_buffer() {
        let mut r = rng(10);
        let mut agent = FpgaAgent::new(cartpole(16), &mut r);
        for i in 0..5 {
            agent.observe(&obs(i, 0.0, false), &mut r);
        }
        assert!(!agent.datapath().core_loaded());
        let snap = agent.snapshot().unwrap();

        let mut other = FpgaAgent::new(cartpole(16), &mut rng(55));
        other.restore(&snap).unwrap();
        assert!(!other.datapath().core_loaded());
        // Feeding the remaining samples must trigger initial training at the
        // same point on both copies.
        let mut r1 = rng(3);
        let mut r2 = rng(3);
        for i in 5..16 {
            agent.observe(&obs(i, 0.0, false), &mut r1);
            other.observe(&obs(i, 0.0, false), &mut r2);
        }
        assert!(agent.datapath().core_loaded());
        assert!(other.datapath().core_loaded());
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
        assert!(agent.datapath().core_loaded());
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

    #[test]
    fn restore_rejects_a_buffered_state_cut_short() {
        let mut r = rng(13);
        let mut agent = FpgaAgent::new(cartpole(8), &mut r);
        for i in 0..5 {
            agent.observe(&obs(i, -0.1, false), &mut r);
        }
        let snap = agent.snapshot().unwrap();
        let mut state: FpgaAgentState = snap.decode(agent.name()).unwrap();
        state.buffer[0].state.truncate(3);
        let err = agent
            .restore(&AgentSnapshot::new(agent.name(), &state))
            .unwrap_err();
        assert!(err.contains("does not fit state_dim 4"), "{err}");
        assert_eq!(
            agent.snapshot().unwrap().state,
            snap.state,
            "agent unchanged"
        );
    }

    #[test]
    fn restore_rejects_a_non_finite_learnable_word() {
        let mut r = rng(14);
        let mut agent = FpgaAgent::new(cartpole(8), &mut r);
        for i in 0..10 {
            agent.observe(&obs(i, -0.1, false), &mut r);
        }
        assert!(agent.datapath().core_loaded());
        let snap = agent.snapshot().unwrap();
        let state: FpgaAgentState = snap.decode(agent.name()).unwrap();
        let poisons: [fn(&mut FpgaAgentState); 5] = [
            |s| s.cpu_learner.model.alpha[0] = f64::INFINITY,
            |s| s.cpu_learner.model.bias[0] = f64::NAN,
            |s| s.cpu_learner.model.beta[0] = f64::NEG_INFINITY,
            |s| s.cpu_learner.p.as_mut().unwrap()[0] = f64::NAN,
            |s| s.target.beta[0] = f64::INFINITY,
        ];
        for poison in poisons {
            let mut bad = state.clone();
            poison(&mut bad);
            let err = agent
                .restore(&AgentSnapshot::new(agent.name(), &bad))
                .unwrap_err();
            assert!(err.contains("non-finite"), "{err}");
            assert_eq!(
                agent.snapshot().unwrap().state,
                snap.state,
                "agent unchanged"
            );
        }
    }
}
