//! Cross-crate integration tests: every design trains end to end on the
//! from-scratch CartPole environment through the public facade crate.

use elm_rl::core::designs::{Design, DesignConfig};
use elm_rl::core::ops::OpKind;
use elm_rl::core::trainer::{SolveCriterion, Trainer, TrainerConfig};
use elm_rl::fpga::{FpgaAgent, FpgaAgentConfig};
use elm_rl::gym::{CartPole, Environment, MountainCar, Workload};
use rand::{rngs::SmallRng, SeedableRng};

fn quick_config(episodes: usize) -> TrainerConfig {
    TrainerConfig {
        max_episodes: episodes,
        ..Default::default()
    }
}

#[test]
fn every_software_design_runs_end_to_end() {
    for design in Design::software_designs() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut agent = design.build(&DesignConfig::new(8), &mut rng);
        let mut env = CartPole::new();
        let result = Trainer::new(quick_config(6)).run(agent.as_mut(), &mut env, &mut rng);
        assert_eq!(result.design, design.label());
        assert_eq!(result.episodes_run, 6);
        assert!(result.total_steps >= 6, "{design:?} took no steps");
        assert!(
            result.op_counts.total_count() > 0,
            "{design:?} recorded no operations"
        );
    }
}

#[test]
fn fpga_agent_runs_end_to_end_and_tracks_device_time() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut agent = FpgaAgent::new(
        FpgaAgentConfig::for_workload(&Workload::CartPole.spec(), 8),
        &mut rng,
    );
    let mut env = CartPole::new();
    let result = Trainer::new(quick_config(8)).run(&mut agent, &mut env, &mut rng);
    assert_eq!(result.design, "FPGA");
    assert!(
        agent.datapath().core_loaded(),
        "initial training should complete within 8 episodes"
    );
    assert!(agent.datapath().simulated_total_seconds() > 0.0);
    let (p, s, i) = agent.datapath().simulated_breakdown_seconds();
    assert!(p > 0.0 && i > 0.0);
    // sequential training may or may not have happened depending on ε₂ draws,
    // but if it did its simulated time must be positive.
    if result.op_counts.count(OpKind::SeqTrain) > 0 {
        assert!(s > 0.0);
    }
}

#[test]
fn oselm_l2_lipschitz_learns_cartpole_within_budget() {
    // The headline behavioural claim: the paper's recommended design completes
    // the task. Give it the full reset protocol and a generous budget; at
    // least one of two seeds must produce a full-length episode.
    let solved_any = (0..2).any(|seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = Design::OsElmL2Lipschitz.build(&DesignConfig::new(64), &mut rng);
        let mut env = CartPole::new();
        let result = Trainer::new(quick_config(1500)).run(agent.as_mut(), &mut env, &mut rng);
        result.solved
    });
    assert!(
        solved_any,
        "OS-ELM-L2-Lipschitz failed to complete CartPole on both seeds"
    );
}

#[test]
fn dqn_baseline_learns_cartpole_quickly() {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut agent = Design::Dqn.build(&DesignConfig::new(32), &mut rng);
    let mut env = CartPole::new();
    let mut cfg = quick_config(400);
    cfg.reset_after_episodes = None;
    let result = Trainer::new(cfg).run(agent.as_mut(), &mut env, &mut rng);
    assert!(
        result.solved,
        "DQN should reach a full-length episode within 400 episodes"
    );
}

#[test]
fn moving_average_criterion_is_stricter_than_single_episode() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut agent = Design::OsElmL2.build(&DesignConfig::new(16), &mut rng);
    let mut env = CartPole::new();
    let mut cfg = quick_config(50);
    cfg.solve_criterion = SolveCriterion::MovingAverage {
        threshold: 195.0,
        window: 100,
    };
    let result = Trainer::new(cfg).run(agent.as_mut(), &mut env, &mut rng);
    assert!(
        !result.solved,
        "50 episodes cannot satisfy a 100-episode window"
    );
}

#[test]
fn agents_generalise_to_other_environments() {
    // The paper's future work: other tasks. The same agent construction works
    // on MountainCar (3 actions, 2-dimensional state).
    let mut rng = SmallRng::seed_from_u64(3);
    let config = DesignConfig::new(16).for_env(2, 3);
    let mut agent = Design::OsElmL2Lipschitz.build(&config, &mut rng);
    let mut env = MountainCar::new();
    assert_eq!(env.num_actions(), 3);
    let result = Trainer::new(quick_config(5)).run(agent.as_mut(), &mut env, &mut rng);
    assert_eq!(result.episodes_run, 5);
    assert_eq!(agent.q_values(&[-0.5, 0.0]).len(), 3);
}

#[test]
fn trials_are_reproducible_from_the_seed() {
    let run = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut agent = Design::OsElmL2Lipschitz.build(&DesignConfig::new(8), &mut rng);
        let mut env = CartPole::new();
        Trainer::new(quick_config(10))
            .run(agent.as_mut(), &mut env, &mut rng)
            .stats
            .returns
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}
