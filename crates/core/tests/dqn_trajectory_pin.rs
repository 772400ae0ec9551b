//! Trajectory pin for the DQN baseline at the paper's network size.
//!
//! The committed goldens run Ñ = 8 for 5 episodes, which makes only a handful
//! of SGD steps. This test trains DQN at Ñ = 64 on CartPole for 40 episodes
//! from three seeds — thousands of replay samples, Huber gradients and Adam
//! updates — and pins every per-episode return plus the final Q-values' bit
//! patterns. Any change to the sampling draw order, the backprop arithmetic
//! or a matmul kernel's accumulation order flips at least one of them.

use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::trainer::{Trainer, TrainerConfig};
use elmrl_gym::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const HIDDEN: usize = 64;
const EPISODES: usize = 40;
const PROBE: [f64; 4] = [0.02, -0.15, 0.03, 0.2];

/// Train one seed; return the per-episode returns and the online network's
/// Q-values at [`PROBE`] as bit patterns.
fn train(seed: u64) -> (Vec<f64>, Vec<u64>) {
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = Design::Dqn.build(&DesignConfig::for_workload(&spec, HIDDEN), &mut rng);
    let mut env = spec.make_env();
    let config = TrainerConfig {
        stop_when_solved: false,
        ..TrainerConfig::quick(EPISODES)
    };
    let result = Trainer::new(config).run(agent.as_mut(), env.as_mut(), &mut rng);
    let q = agent.q_values(&PROBE);
    (
        result.stats.returns,
        q.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Per-episode returns captured before the allocation-free training step
/// replaced the cloning one, for seeds 1, 2 and 3.
const RETURNS: [[f64; EPISODES]; 3] = [
    [
        15.0, 8.0, 9.0, 11.0, 10.0, 15.0, 24.0, 13.0, 11.0, 12.0, 13.0, 21.0, 12.0, 10.0, 8.0,
        15.0, 9.0, 17.0, 11.0, 11.0, 17.0, 17.0, 20.0, 29.0, 47.0, 70.0, 62.0, 65.0, 57.0, 66.0,
        116.0, 103.0, 190.0, 84.0, 99.0, 100.0, 146.0, 136.0, 200.0, 144.0,
    ],
    [
        29.0, 11.0, 10.0, 22.0, 16.0, 15.0, 18.0, 11.0, 14.0, 13.0, 9.0, 62.0, 21.0, 33.0, 19.0,
        8.0, 26.0, 28.0, 97.0, 114.0, 109.0, 200.0, 13.0, 200.0, 76.0, 152.0, 200.0, 68.0, 200.0,
        200.0, 200.0, 200.0, 200.0, 200.0, 200.0, 200.0, 200.0, 200.0, 175.0, 132.0,
    ],
    [
        10.0, 9.0, 15.0, 12.0, 9.0, 15.0, 14.0, 20.0, 10.0, 9.0, 13.0, 10.0, 13.0, 14.0, 13.0,
        17.0, 14.0, 12.0, 18.0, 60.0, 77.0, 88.0, 82.0, 133.0, 91.0, 64.0, 102.0, 68.0, 99.0, 80.0,
        80.0, 65.0, 67.0, 92.0, 96.0, 80.0, 93.0, 121.0, 20.0, 104.0,
    ],
];

/// Bit patterns of the final `q_values(PROBE)`, same capture.
const FINAL_Q_BITS: [[u64; 2]; 3] = [
    [0x3fe6bedc2c09ae50, 0x3fe56c0a72f85d56],
    [0x3fd175a818b65d06, 0x3fd7191d16784cf5],
    [0x3ff0508c6a8f28a0, 0x3fee67958ed85a89],
];

#[test]
fn dqn_at_64_hidden_units_reproduces_the_pinned_trajectories() {
    for (i, seed) in [1u64, 2, 3].into_iter().enumerate() {
        let (returns, q_bits) = train(seed);
        assert_eq!(returns, RETURNS[i], "seed {seed}: per-episode returns");
        assert_eq!(q_bits, FINAL_Q_BITS[i], "seed {seed}: final Q-value bits");
    }
}
