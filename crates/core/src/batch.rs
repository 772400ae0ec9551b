//! Batched Q-network inference: the [`BatchAgent`] trait.
//!
//! The scalar [`Agent`] interface evaluates one `(state, action)` pair per
//! network call, so a population of replicated agents pays one `1 × n · n ×
//! Ñ` matvec per candidate action per step.
//! [`BatchAgent::predict_batch`] packs a whole `B × state_dim` state matrix
//! into **one** `(B·A) × n · n × Ñ` matmul (`A` = action count) through the
//! existing `elmrl-linalg` kernels — the batch recursion the OS-ELM
//! literature builds on, of which the paper's single-sample update is the
//! B = 1 special case.
//!
//! The trait ships a per-sample fallback (loop over rows through
//! [`Agent::q_values`]), so any agent is a valid `BatchAgent`. Two
//! implementations replace it with genuinely batched forward passes that
//! match the fallback **bit for bit** (the linalg kernels accumulate each
//! output row independently of the other rows): the one Algorithm 1 shell,
//! [`QNet`](crate::qnet::QNet), behind the ELM, OS-ELM and FPGA designs
//! (through [`elm_q_batch_into`], or the Q20 core for FPGA), and
//! [`DqnAgent`](crate::dqn::DqnAgent). For the shell the batched evaluator
//! is its only Q read: its `act` and `q_values` are the same evaluation on
//! a batch of one row, and [`elm_q_batch_into`] is bit for bit
//! [`ElmModel::predict_single`] per `(state, action)` pair.
//!
//! [`BatchAgent::predict_batch`] is a pure forward pass and does not touch
//! the per-operation counters behind the Figure 5/6 breakdowns; only
//! [`Agent::act`] records prediction counters.

use crate::agent::{Agent, Observation};
use crate::encoding::{ActionEncoding, StateActionEncoder};
use crate::policy::argmax;
use elmrl_elm::model::ElmModel;
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;

/// An [`Agent`] that can evaluate Q-values for a batch of states in one
/// forward pass.
pub trait BatchAgent: Agent {
    /// Q-values for every action of every state in `states`
    /// (`B × state_dim` in, `B × num_actions` out).
    ///
    /// The default implementation is the per-sample fallback: one
    /// [`Agent::q_values`] call per row. Implementors override it with a
    /// single batched matmul; overrides must agree with the fallback bit for
    /// bit so batched and scalar execution stay interchangeable.
    fn predict_batch(&mut self, states: &Matrix<f64>) -> Matrix<f64> {
        let rows: Vec<Vec<f64>> = (0..states.rows())
            .map(|i| self.q_values(states.row(i)))
            .collect();
        Matrix::from_rows(&rows)
    }

    /// [`BatchAgent::predict_batch`] into a caller-owned output matrix — the
    /// ticketed-dispatch entry point of the serve engine, where every worker
    /// keeps one preallocated `B × A` Q buffer across coalesced batches.
    ///
    /// The default delegates to the allocating [`BatchAgent::predict_batch`]
    /// (any agent is a valid worker); the ELM-family shell
    /// ([`QNet`](crate::qnet::QNet)) and DQN override it through their own
    /// batched scratch so a warm worker evaluates with **zero** heap
    /// allocations. Overrides must leave `out` bit-for-bit equal to
    /// `predict_batch`'s result.
    fn predict_batch_into(&mut self, states: &Matrix<f64>, out: &mut Matrix<f64>) {
        *out = self.predict_batch(states);
    }

    /// Greedy action (argmax over Q, first maximum on ties) for every state
    /// in the batch — the deterministic policy used by population
    /// evaluation passes.
    fn act_batch_greedy(&mut self, states: &Matrix<f64>) -> Vec<usize> {
        let q = self.predict_batch(states);
        (0..q.rows()).map(|i| argmax(q.row(i))).collect()
    }

    /// Training-time ε-greedy action for the single packed state in
    /// `state_row` (`1 × state_dim`): [`Agent::act`] on row 0, with the
    /// same Q bits, RNG draws, action and prediction counters. No agent of
    /// this crate overrides it; the ELM-family shell's `act` already runs
    /// the batched evaluator on a one-row batch.
    fn act_row(&mut self, state_row: &Matrix<f64>, rng: &mut SmallRng) -> usize {
        self.act(state_row.row(0), rng)
    }

    /// *Store* + *Update* for one engine tick's worth of transitions — the
    /// batch-B training entry point of the E-parallel episode driver
    /// ([`crate::trainer::Trainer::run_vec`]).
    ///
    /// The default implementation is the per-sample fallback: one
    /// [`Agent::observe`] call per transition, in order — any agent is a
    /// valid batched learner. Two implementations override it with
    /// genuinely batched updates:
    ///
    /// * the ELM-family shell ([`QNet`](crate::qnet::QNet)) computes every
    ///   Q-target from **one** batched target-network forward pass and
    ///   folds the gated transitions into `seq_train_batch` chunks (the
    ///   B > 1 case of the paper's Eq. 6 recursion, block-exact w.r.t. B
    ///   single-sample updates; B sequential Q20 updates for FPGA);
    /// * DQN pushes the whole tick into replay and performs **one** true
    ///   minibatch SGD step per tick instead of one per transition.
    ///
    /// With one transition per call the overrides follow the same update
    /// rules as the scalar path (identical gating draws from `rng`, chunk
    /// size 1); with B > 1 they change the *learning trajectory* — fewer,
    /// wider updates — which is exactly the batching/throughput trade the
    /// E-parallel driver documents (README "Batched training").
    fn observe_batch(&mut self, batch: &[Observation], rng: &mut SmallRng) {
        for obs in batch {
            self.observe(obs, rng);
        }
    }
}

/// Reusable workspaces for one batched ELM-family Q evaluation. Every matrix
/// keeps its allocation across calls (see [`Matrix::resize_zeroed`]), so a
/// steady-state [`elm_q_batch_into`] evaluation under the scalar encoding
/// performs zero heap allocations — the property every ELM-family action
/// choice and Q-target needs, asserted by the counting-allocator tests.
#[derive(Clone, Debug, Default)]
pub struct EvalScratch {
    /// `B × Ñ` — the shared `state·α_top` projection (scalar encoding).
    shared: Matrix<f64>,
    /// `(B·A) × Ñ` — pre-activations, activated in place into `H`; doubles
    /// as the stacked `(B·A) × input` encoding under one-hot.
    pre: Matrix<f64>,
}

/// Batched `(state, action)` Q evaluation for the ELM-family networks:
/// evaluate every action of every state through one batched forward pass and
/// fold the scalar outputs back into `B × A`.
///
/// With the paper's scalar action encoding the input rows for one state
/// differ **only** in the trailing action component, so the `state · α`
/// projection — `state_dim` of the `state_dim + 1` input columns — is
/// computed once per state (`B × Ñ` matmul) and the per-action rows add just
/// the action's own term. The naive `i-k-j` matmul accumulates the input
/// columns in ascending order, so `(state·α_top + a·α_last) + bias`
/// reproduces the scalar path's `((…((0 + x₀α₀ⱼ) + …) + x_{n-1}α_{n-1}ⱼ)) +
/// bⱼ` operation-for-operation: the result is **bit-for-bit** equal to
/// [`ElmModel::predict_single`] per pair, just `A×` cheaper on the shared
/// columns. One-hot encodings take the generic stacked-input route instead.
///
/// The `B × A` result is written to `out`.
pub fn elm_q_batch_into(
    encoder: &StateActionEncoder,
    model: &ElmModel<f64>,
    states: &Matrix<f64>,
    scratch: &mut EvalScratch,
    out: &mut Matrix<f64>,
) {
    let b = states.rows();
    let a = encoder.num_actions();
    let sd = encoder.state_dim();
    assert_eq!(states.cols(), sd, "elm_q_batch: state width mismatch");

    match encoder.encoding() {
        ActionEncoding::Scalar => {
            let alpha = model.alpha(); // (sd + 1) × Ñ
            let bias = model.bias(); // 1 × Ñ
            let nh = alpha.cols();
            // shared = states · α[0..sd, ..]: the prefix product adds the
            // same ascending-p terms against α's top `sd` rows without
            // copying them out (α carries the extra action row).
            states.matmul_prefix_into(alpha, &mut scratch.shared);
            scratch.pre.resize_zeroed(b * a, nh);
            for i in 0..b {
                let s_row = scratch.shared.row(i);
                for action in 0..a {
                    let af = action as f64;
                    let row = scratch.pre.row_mut(i * a + action);
                    for j in 0..nh {
                        row[j] = (s_row[j] + af * alpha[(sd, j)]) + bias[(0, j)];
                    }
                }
            }
            model.activation().apply_matrix_inplace(&mut scratch.pre);
        }
        ActionEncoding::OneHot => {
            let input_dim = encoder.input_dim();
            scratch.shared.resize_zeroed(b * a, input_dim);
            for i in 0..b {
                let state = states.row(i);
                for action in 0..a {
                    let row = scratch.shared.row_mut(i * a + action);
                    row[..sd].copy_from_slice(state);
                    row[sd + action] = 1.0;
                }
            }
            model.hidden_into(&scratch.shared, &mut scratch.pre);
        }
    }
    // The `(B·A) × 1` outputs `H·β`, row `i·A + a` for pair `(i, a)`, are
    // already the row-major `B × A` layout: reshape them in place.
    scratch.pre.matmul_into(model.beta(), out);
    out.resize_for_overwrite(b, a);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Observation;
    use crate::ops::OpCounts;
    use rand::rngs::SmallRng;

    /// A minimal scalar-only agent: Q(s, a) = s·w + a.
    struct ToyAgent {
        ops: OpCounts,
    }

    impl Agent for ToyAgent {
        fn name(&self) -> &str {
            "Toy"
        }
        fn hidden_dim(&self) -> usize {
            1
        }
        fn act(&mut self, _state: &[f64], _rng: &mut SmallRng) -> usize {
            0
        }
        fn observe(&mut self, _obs: &Observation, _rng: &mut SmallRng) {}
        fn end_episode(&mut self, _episode_index: usize) {}
        fn reset(&mut self, _rng: &mut SmallRng) {}
        fn op_counts(&self) -> &OpCounts {
            &self.ops
        }
        fn q_values(&mut self, state: &[f64]) -> Vec<f64> {
            let s: f64 = state.iter().sum();
            vec![s, s + 1.0]
        }
        fn memory_footprint_bytes(&self) -> usize {
            0
        }
    }

    impl BatchAgent for ToyAgent {}

    #[test]
    fn one_hot_batch_matches_per_sample_prediction_bitwise() {
        // No constructible agent uses the one-hot encoding yet (it exists
        // for the encoding ablation), so the OneHot arm of `elm_q_batch_into` is
        // covered directly against the scalar `predict_single` path.
        use elmrl_elm::OsElmConfig;
        use rand::SeedableRng;

        let encoder = StateActionEncoder::with_encoding(3, 4, ActionEncoding::OneHot);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model =
            ElmModel::<f64>::new(&OsElmConfig::new(encoder.input_dim(), 16, 1), &mut rng);
        model.set_beta(Matrix::from_fn(16, 1, |i, _| (i as f64 - 7.5) * 0.03));

        let states = Matrix::from_fn(5, 3, |i, j| 0.1 * i as f64 - 0.2 * j as f64);
        let mut q = Matrix::zeros(0, 0);
        elm_q_batch_into(
            &encoder,
            &model,
            &states,
            &mut EvalScratch::default(),
            &mut q,
        );
        assert_eq!(q.shape(), (5, 4));
        for i in 0..states.rows() {
            for (action, input) in encoder.encode_all_actions(states.row(i)).iter().enumerate() {
                assert_eq!(q[(i, action)], model.predict_single(input)[0]);
            }
        }
    }

    #[test]
    fn observe_batch_of_one_matches_scalar_updates_numerically() {
        // With the random-update gate off neither path draws from the RNG,
        // so feeding the same transitions one at a time through `observe`
        // and through chunk-size-1 `observe_batch` must produce the same
        // learned Q surface (chunk-size-1 Eq. 6 equals the rank-1 fast path
        // up to rounding).
        use crate::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
        use elmrl_gym::Workload;
        use rand::SeedableRng;

        let spec = Workload::CartPole.spec();
        let mut config = OsElmQNetConfig::for_workload(&spec, 8, 0.5, true);
        config.random_update = false;
        let mut rng_a = SmallRng::seed_from_u64(3);
        let mut rng_b = SmallRng::seed_from_u64(3);
        let mut scalar = OsElmQNet::new(config.clone(), &mut rng_a);
        let mut batched = OsElmQNet::new(config, &mut rng_b);

        let transitions: Vec<Observation> = (0..40)
            .map(|i| Observation {
                state: vec![0.01 * i as f64, -0.02, 0.03 * ((i % 5) as f64), 0.04],
                action: i % 2,
                reward: if i % 7 == 0 { -1.0 } else { 0.0 },
                next_state: vec![0.01 * i as f64 + 0.01, -0.01, 0.02, 0.05],
                done: i % 7 == 0,
                truncated: false,
            })
            .collect();
        for obs in &transitions {
            scalar.observe(obs, &mut rng_a);
            batched.observe_batch(std::slice::from_ref(obs), &mut rng_b);
        }
        assert!(scalar.is_initialized() && batched.is_initialized());
        let probe = [0.02, -0.01, 0.03, 0.02];
        let qa = scalar.q_values(&probe);
        let qb = batched.q_values(&probe);
        for (a, b) in qa.iter().zip(qb.iter()) {
            assert!((a - b).abs() < 1e-8, "scalar {qa:?} vs batched {qb:?}");
        }
    }

    #[test]
    fn observe_batch_trains_one_chunk_per_tick_and_respects_the_gate() {
        use crate::ops::OpKind;
        use crate::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
        use elmrl_gym::Workload;
        use rand::SeedableRng;

        let spec = Workload::CartPole.spec();
        let tick: Vec<Observation> = (0..4)
            .map(|i| Observation {
                state: vec![0.01 * i as f64, -0.02, 0.03, 0.04],
                action: i % 2,
                reward: 0.0,
                next_state: vec![0.01 * i as f64 + 0.01, -0.01, 0.02, 0.05],
                done: false,
                truncated: false,
            })
            .collect();

        // Gate closed (update_prob = 0): after initialisation no chunk ever
        // trains.
        let mut config = OsElmQNetConfig::for_workload(&spec, 8, 0.5, true);
        config.update_prob = 0.0;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut agent = OsElmQNet::new(config, &mut rng);
        for _ in 0..10 {
            agent.observe_batch(&tick, &mut rng);
        }
        assert!(agent.is_initialized());
        assert_eq!(agent.op_counts().count(OpKind::SeqTrain), 0);

        // Gate open (ablation mode): every transition of every tick trains,
        // as one chunk per tick.
        let mut config = OsElmQNetConfig::for_workload(&spec, 8, 0.5, true);
        config.random_update = false;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut agent = OsElmQNet::new(config, &mut rng);
        for _ in 0..10 {
            agent.observe_batch(&tick, &mut rng);
        }
        // 40 transitions: 8 fill buffer D, the remaining 32 all train.
        assert_eq!(agent.op_counts().count(OpKind::SeqTrain), 32);
    }

    #[test]
    fn dqn_observe_batch_takes_one_gradient_step_per_tick() {
        use crate::dqn::{DqnAgent, DqnConfig};
        use crate::ops::OpKind;
        use elmrl_gym::Workload;
        use rand::SeedableRng;

        let spec = Workload::CartPole.spec();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut agent = DqnAgent::new(DqnConfig::for_workload(&spec, 16), &mut rng);
        let tick: Vec<Observation> = (0..8)
            .map(|i| Observation {
                state: vec![0.01 * (i % 17) as f64, -0.02, 0.03, 0.04],
                action: i % 2,
                reward: 0.0,
                next_state: vec![0.01 * (i % 17) as f64 + 0.01, -0.01, 0.02, 0.05],
                done: false,
                truncated: false,
            })
            .collect();
        // 8 ticks × 8 transitions = 64 = warmup: every transition lands in
        // replay, and gradient steps only start once warm — then exactly one
        // per tick.
        for _ in 0..8 {
            agent.observe_batch(&tick, &mut rng);
        }
        assert_eq!(agent.replay_len(), 64);
        assert_eq!(agent.op_counts().count(OpKind::TrainDqn), 1);
        for _ in 0..5 {
            agent.observe_batch(&tick, &mut rng);
        }
        assert_eq!(agent.op_counts().count(OpKind::TrainDqn), 6);
    }

    #[test]
    fn fallback_loops_q_values_over_rows() {
        let mut agent = ToyAgent {
            ops: OpCounts::new(),
        };
        let states = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]);
        let q = agent.predict_batch(&states);
        assert_eq!(q.shape(), (2, 2));
        assert_eq!(q[(0, 0)], 3.0);
        assert_eq!(q[(0, 1)], 4.0);
        assert_eq!(q[(1, 0)], -0.5);
        assert_eq!(agent.act_batch_greedy(&states), vec![1, 1]);
    }
}
