//! Deterministic smoke tests: the paper's proposed design
//! (`Design::OsElmL2Lipschitz`, i.e. OS-ELM with L2 regularisation standing
//! in for spectral normalisation) trains on CartPole for a handful of
//! episodes from a fixed seed, exercising the whole
//! linalg → elm → core → gym stack through the public facade — plus the same
//! check for every design on the MountainCar, Pendulum and Acrobot workloads
//! through the environment-generic harness pipeline, and a shard-invariance
//! smoke of the population engine.

use elm_rl::core::designs::{Design, DesignConfig};
use elm_rl::core::trainer::{Trainer, TrainerConfig, TrainingResult};
use elm_rl::gym::{CartPole, Workload};
use elm_rl::harness::runner::{run_trial, TrialSpec};
use rand::{rngs::SmallRng, SeedableRng};

const EPISODES: usize = 5;
const SEED: u64 = 42;

fn run_once() -> elm_rl::core::trainer::TrainingResult {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(16), &mut rng);
    let mut env = CartPole::new();
    Trainer::new(TrainerConfig::quick(EPISODES)).run(agent.as_mut(), &mut env, &mut rng)
}

#[test]
fn oselm_l2_lipschitz_trains_on_cartpole_deterministically() {
    let result = run_once();

    assert_eq!(
        result.episodes_run, EPISODES,
        "episode budget must be honoured"
    );
    assert_eq!(result.stats.returns.len(), EPISODES);
    for (episode, ret) in result.stats.returns.iter().enumerate() {
        assert!(
            ret.is_finite(),
            "episode {episode} return is not finite: {ret}"
        );
        // CartPole-v0 returns one reward unit per step, capped at 200.
        assert!(
            (0.0..=200.0).contains(ret),
            "episode {episode} return {ret} outside CartPole-v0 bounds"
        );
    }
    assert!(
        result.total_steps >= EPISODES,
        "each episode takes at least one step"
    );
    assert!(result.stats.moving_averages.iter().all(|m| m.is_finite()));

    // Same seed, same everything: the whole pipeline must be deterministic.
    let again = run_once();
    assert_eq!(result.stats.returns, again.stats.returns);
    assert_eq!(result.total_steps, again.total_steps);
}

/// Run one design on a workload through the generic harness pipeline.
fn run_workload(workload: Workload, design: Design, episodes: usize) -> TrainingResult {
    let spec = TrialSpec::for_workload(workload, design, 8, SEED).with_max_episodes(episodes);
    run_trial(&spec).training
}

fn assert_episode_stats(
    workload: Workload,
    design: Design,
    result: &TrainingResult,
    episodes: usize,
    return_range: (f64, f64),
) {
    let label = format!("{design:?} on {workload:?}");
    assert_eq!(result.episodes_run, episodes, "{label}: episode budget");
    assert_eq!(result.stats.episodes(), episodes, "{label}: stats length");
    assert!(result.total_steps >= episodes, "{label}: steps");
    for (episode, ret) in result.stats.returns.iter().enumerate() {
        assert!(ret.is_finite(), "{label}: episode {episode} return {ret}");
        assert!(
            (return_range.0..=return_range.1).contains(ret),
            "{label}: episode {episode} return {ret} outside {return_range:?}"
        );
    }
    assert!(
        result.stats.moving_averages.iter().all(|m| m.is_finite()),
        "{label}: moving averages"
    );
}

#[test]
fn every_design_trains_on_mountain_car_deterministically() {
    for design in Design::all_designs() {
        let result = run_workload(Workload::MountainCar, design, 3);
        // MountainCar pays −1 per step for at most 200 steps.
        assert_episode_stats(Workload::MountainCar, design, &result, 3, (-200.0, 0.0));
    }
    // Fixed seed ⇒ bit-identical replay for a representative design.
    let a = run_workload(Workload::MountainCar, Design::OsElmL2Lipschitz, 3);
    let b = run_workload(Workload::MountainCar, Design::OsElmL2Lipschitz, 3);
    assert_eq!(a.stats.returns, b.stats.returns);
    assert_eq!(a.total_steps, b.total_steps);
}

#[test]
fn every_design_trains_on_pendulum_deterministically() {
    for design in Design::all_designs() {
        let result = run_workload(Workload::Pendulum, design, 3);
        // Pendulum episodes always run 200 steps of cost ≤ ~16.3 each.
        assert_episode_stats(Workload::Pendulum, design, &result, 3, (-16.4 * 200.0, 0.0));
        assert_eq!(
            result.total_steps,
            3 * 200,
            "{design:?}: Pendulum episodes only end by truncation"
        );
    }
    let a = run_workload(Workload::Pendulum, Design::Dqn, 3);
    let b = run_workload(Workload::Pendulum, Design::Dqn, 3);
    assert_eq!(a.stats.returns, b.stats.returns);
    assert_eq!(a.total_steps, b.total_steps);
}

#[test]
fn every_design_trains_on_acrobot_deterministically() {
    for design in Design::all_designs() {
        let result = run_workload(Workload::Acrobot, design, 2);
        // Acrobot pays −1 per non-terminal step for at most 500 steps.
        assert_episode_stats(Workload::Acrobot, design, &result, 2, (-500.0, 0.0));
    }
    let a = run_workload(Workload::Acrobot, Design::OsElmL2Lipschitz, 2);
    let b = run_workload(Workload::Acrobot, Design::OsElmL2Lipschitz, 2);
    assert_eq!(a.stats.returns, b.stats.returns);
    assert_eq!(a.total_steps, b.total_steps);
}

#[test]
fn fpga_design_trains_at_the_papers_bram_limit() {
    // hidden = 256 is the paper's BRAM capacity bound (§4.2) and the width
    // the quantized-backend speedup is gated on; Pendulum's fixed 200-step
    // episodes guarantee the 256-sample store phase completes and the Q20
    // core then runs real predict/seq_train work at that width.
    let spec =
        TrialSpec::for_workload(Workload::Pendulum, Design::Fpga, 256, SEED).with_max_episodes(2);
    let result = run_trial(&spec);
    assert_eq!(result.training.design, "FPGA");
    assert_eq!(result.training.episodes_run, 2);
    assert_eq!(result.training.total_steps, 2 * 200);
    for (episode, ret) in result.training.stats.returns.iter().enumerate() {
        assert!(
            ret.is_finite() && (-16.4 * 200.0..=0.0).contains(ret),
            "episode {episode} return {ret} outside Pendulum bounds"
        );
    }
    // The quantised core must have been loaded (store phase = 256 samples)
    // and charged simulated PL cycles for the post-init steps.
    let (predict_s, seq_train_s, init_s) = result
        .fpga_simulated_seconds
        .expect("FPGA trial reports simulated device seconds");
    assert!(predict_s > 0.0, "no simulated predict cycles at Ñ = 256");
    assert!(init_s > 0.0, "no simulated initial-training seconds");
    assert!(
        seq_train_s > predict_s,
        "seq_train (2Ñ² per update) must dominate predict at Ñ = 256: {seq_train_s} vs {predict_s}"
    );

    // Fixed seed ⇒ bit-identical replay through the quantized datapath.
    let again = run_trial(&spec);
    assert_eq!(result.training.stats.returns, again.training.stats.returns);
    assert_eq!(result.training.total_steps, again.training.total_steps);
}

#[test]
fn population_engine_runs_through_the_facade() {
    use elm_rl::population::{PopulationConfig, PopulationRunner};

    let mut config = PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 4);
    config.seed = SEED;
    config.max_episodes = 3;
    config.eval_episodes = 2;
    config.shards = 2;
    let report = PopulationRunner::new(config.clone()).run();
    assert_eq!(report.replicas.len(), 4);
    assert!(report
        .replicas
        .iter()
        .all(|r| r.episodes_run >= 1 && r.total_steps >= r.episodes_run));

    // The aggregate is shard-invariant.
    config.shards = 4;
    assert_eq!(report, PopulationRunner::new(config).run());
}
