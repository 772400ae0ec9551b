//! Property test: batched Q inference matches per-sample prediction **bit
//! for bit** for all three trainable networks.
//!
//! The guarantee the population engine relies on: running an agent through
//! `BatchAgent::predict_batch` (one stacked matmul) is observationally
//! identical to evaluating one `(state, action)` pair at a time, so batched
//! and scalar execution can be swapped freely without perturbing any seeded
//! experiment. The ELM-family shell's `q_values` runs the batched evaluator
//! itself, so its reference is `ElmModel::predict_single` on θ₁, once per
//! encoded pair; DQN's reference is its own one-row `q_values` forward.

use elmrl_core::batch::BatchAgent;
use elmrl_core::dqn::{DqnAgent, DqnConfig};
use elmrl_core::elm_qnet::{ElmQNet, ElmQNetConfig};
use elmrl_core::encoding::StateActionEncoder;
use elmrl_core::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_core::qnet::{Datapath, QNet};
use elmrl_core::{Agent, Observation};
use elmrl_gym::Workload;
use elmrl_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const HIDDEN: usize = 8;

/// Random states in the post-normalisation range of the workloads.
fn random_states(rng: &mut SmallRng, batch: usize, dim: usize) -> Matrix<f64> {
    Matrix::from_fn(batch, dim, |_, _| rng.gen_range(-1.0..1.0))
}

/// Drive `count` distinct transitions into the agent so its β/weights are
/// non-trivial (an untrained network would pass the equality vacuously).
fn train_a_little(agent: &mut dyn Agent, rng: &mut SmallRng, dim: usize, actions: usize) {
    for i in 0..(HIDDEN + 70) {
        let state: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let next: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let done = i % 7 == 0;
        agent.observe(
            &Observation {
                state,
                action: i % actions,
                reward: if done { -1.0 } else { 0.0 },
                next_state: next,
                done,
                truncated: false,
            },
            rng,
        );
    }
}

/// `predict_batch` must equal the row-by-row `q_values` loop exactly.
fn assert_bitwise_batch_equality<A: BatchAgent + ?Sized>(
    agent: &mut A,
    states: &Matrix<f64>,
) -> Result<(), TestCaseError> {
    let batched = agent.predict_batch(states);
    prop_assert_eq!(batched.rows(), states.rows());
    for i in 0..states.rows() {
        let scalar = agent.q_values(states.row(i));
        prop_assert_eq!(batched.row(i), scalar.as_slice());
    }
    // Nothing may be approximate: a second batched pass is identical too.
    let again = agent.predict_batch(states);
    prop_assert_eq!(batched, again);
    Ok(())
}

/// An ELM-family agent's `predict_batch` must equal θ₁'s `predict_single`
/// on every encoded `(state, action)` pair exactly.
fn assert_batch_matches_predict_single<D: Datapath>(
    agent: &mut QNet<D>,
    states: &Matrix<f64>,
    actions: usize,
) -> Result<(), TestCaseError> {
    let batched = agent.predict_batch(states);
    prop_assert_eq!(batched.shape(), (states.rows(), actions));
    let encoder = StateActionEncoder::new(states.cols(), actions);
    let model = agent.datapath().model();
    for i in 0..states.rows() {
        for (a, input) in encoder.encode_all_actions(states.row(i)).iter().enumerate() {
            prop_assert_eq!(
                batched[(i, a)].to_bits(),
                model.predict_single(input)[0].to_bits()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn elm_qnet_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        // CartPole: 5 inputs, so the reference's `x·α` runs the generic loop.
        let spec = Workload::CartPole.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = ElmQNet::new(ElmQNetConfig::for_workload(&spec, HIDDEN), &mut rng);
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        assert!(agent.is_trained());
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_batch_matches_predict_single(&mut agent, &states, spec.num_actions)?;
    }

    #[test]
    fn oselm_qnet_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        // Cover both spectral-normalised and plain variants via the seed.
        // MountainCar: 3 inputs, so the reference's `x·α` takes the
        // short-inner branch.
        let spectral = seed % 2 == 0;
        let spec = Workload::MountainCar.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = OsElmQNet::new(
            OsElmQNetConfig::for_workload(&spec, HIDDEN, 0.5, spectral),
            &mut rng,
        );
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        assert!(agent.is_initialized());
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_batch_matches_predict_single(&mut agent, &states, spec.num_actions)?;
    }

    #[test]
    fn dqn_batched_equals_per_sample(seed in 0u64..500, batch in 1usize..12) {
        let spec = Workload::Pendulum.spec();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = DqnAgent::new(DqnConfig::for_workload(&spec, HIDDEN), &mut rng);
        train_a_little(&mut agent, &mut rng, spec.observation_dim, spec.num_actions);
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(&mut agent, &states)?;
    }

    #[test]
    fn boxed_batch_agents_also_match(seed in 0u64..200, batch in 1usize..8) {
        // The population engine holds `Box<dyn BatchAgent>`; the dynamic
        // dispatch path must preserve the equality too.
        use elmrl_core::designs::{Design, DesignConfig};
        let spec = Workload::Acrobot.spec();
        let config = DesignConfig::for_workload(&spec, HIDDEN);
        let mut rng = SmallRng::seed_from_u64(seed);
        let design = Design::software_designs()[(seed % 6) as usize];
        let mut agent = design.build_batch(&config, &mut rng);
        train_a_little(agent.as_mut(), &mut rng, spec.observation_dim, spec.num_actions);
        let states = random_states(&mut rng, batch, spec.observation_dim);
        assert_bitwise_batch_equality(agent.as_mut(), &states)?;
    }
}
