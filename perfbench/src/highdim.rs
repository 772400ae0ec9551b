//! `highdim-1024`: the scaling frontier. OS-ELM-L2-Lipschitz at Ñ = 1024 on
//! the noise-padded CartPole (obs dim 64) trains through `Trainer::run_vec`
//! with E = 16 parallel episodes and the default RLS chunk cap, so one P₀
//! solve and then batch-B RLS chunks carry the run.
//!
//! Its figures are not calibrated (see [`crate::calib`]): a trial runs for
//! about ten seconds on both cores, so readings on one core before and
//! after it do not follow the host through it, and the trial slows with the
//! host far less than the reference kernel does. A calibrated figure
//! spread more than the raw one over the same runs.

use crate::trace::{self, Family, Layer, TracedAgent, TracedEnv};
use crate::{
    layer_metrics, median, pass_order, peak_rss_mib, timed, Args, Metric, Outcome, Pass, Trial,
};
use elmrl_core::batch::BatchAgent;
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::Trainer;
use elmrl_gym::{EnvSpec, Environment, VecEnv, Workload};
use elmrl_harness::TrialSpec;
use elmrl_population::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const DESIGN: Design = Design::OsElmL2Lipschitz;
const HIDDEN: usize = 1024;
const ENVS: usize = 16;
/// Episodes per trial, counted across the E slots.
const EPISODES: usize = 200;
/// Extra timed constructions before each trial seed, so `setup_s` is a
/// median of samples spread over the run.
const EXTRA_SETUPS: usize = 2;

fn spec() -> EnvSpec {
    Workload::HighDim.spec()
}

/// The set-up a trial pays: the agent and its E environments.
fn construct(spec: &EnvSpec, rng: &mut SmallRng) -> (Box<dyn BatchAgent + Send>, VecEnv) {
    (build_agent(spec, rng), VecEnv::from_spec(spec, ENVS))
}

fn build_agent(spec: &EnvSpec, rng: &mut SmallRng) -> Box<dyn BatchAgent + Send> {
    // A uniform-random behaviour policy (ε₁ = 0): episode lengths, and with
    // them the RLS work after the fixed P₀ solve, then do not depend on how
    // fast a seed learns. Every Q evaluation and update still runs.
    // chunk_cap None: the default cap, as the CLI leaves it.
    let config = DesignConfig {
        exploit_prob: 0.0,
        ..DesignConfig::for_workload(spec, HIDDEN)
    };
    DESIGN.build_batch(&config, rng)
}

fn trial(seed: u64, traced: bool) -> Trial {
    let spec = spec();
    let trial_spec = TrialSpec::for_workload(Workload::HighDim, DESIGN, HIDDEN, seed)
        .with_train_envs(ENVS)
        .with_max_episodes(EPISODES)
        .collect_full_curve();
    let trainer = Trainer::new(trial_spec.trainer);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (setup_s, (agent, vec_env)) = timed(|| construct(&spec, &mut rng));
    let run = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            // The same environments, each wrapped before VecEnv takes it.
            drop(vec_env);
            let envs: Vec<Box<dyn Environment>> = (0..ENVS)
                .map(|_| Box::new(TracedEnv::new(spec.make_env(), false)) as Box<dyn Environment>)
                .collect();
            let mut vec_env = VecEnv::new(envs);
            let mut agent = TracedAgent::new(agent, Family::of(DESIGN));
            let start = Instant::now();
            trace::open();
            let result = trainer.run_vec(&mut agent, &mut vec_env, &mut rng);
            trace::close("trial", Some(Layer::CoreTrainer));
            (result, start.elapsed())
        } else {
            let (mut agent, mut vec_env) = (agent, vec_env);
            let start = Instant::now();
            let result = trainer.run_vec(agent.as_mut(), &mut vec_env, &mut rng);
            (result, start.elapsed())
        }
    }));
    // Steps of episodes still in flight at the budget stop count in
    // total_steps but in no return.
    Trial::check(DESIGN, setup_s, run, EPISODES, true)
}

pub fn run(args: &Args) -> Outcome {
    // Trials until the time is up (at least one). Traced, each trial seed
    // runs untraced and traced, so both passes see the same host
    // conditions.
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let mut setups = Vec::new();
    if args.trace {
        trace::start();
    }
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let seed = split_seed(args.seed, i);
        for _ in 0..EXTRA_SETUPS {
            setups.push(timed(|| construct(&spec(), &mut SmallRng::seed_from_u64(seed))).0);
        }
        for &t in pass_order(args.trace, i) {
            let trial = trial(seed, t);
            setups.push(trial.setup_s);
            let pass = if t { &mut traced } else { &mut plain };
            pass.wall_s += trial.wall_s;
            pass.items.push(trial);
        }
        i += 1;
    }
    let trials = &plain.items;
    let steps: usize = trials.iter().map(|t| t.steps).sum();
    let rate = steps as f64 / trials.iter().map(|t| t.wall_s).sum::<f64>();
    // The fixed P₀ solve dominates a trial, so env steps/s swings with how
    // many steps a seed's episodes take; episodes/s (a fixed budget per
    // trial) does not. Median over trials.
    let episodes_per_s = median(
        &trials
            .iter()
            .map(|t| EPISODES as f64 / t.wall_s)
            .collect::<Vec<_>>(),
    );
    println!("# highdim-1024 train_steps_per_s = {rate} 1/s");
    println!("# highdim-1024 train_episodes_per_s = {episodes_per_s} 1/s");
    println!(
        "# highdim-1024 trials = {}, env steps = {steps}",
        trials.len()
    );
    for t in trials {
        println!(
            "# highdim-1024 trial: {} steps in {:.3} s",
            t.steps, t.wall_s
        );
    }
    let mut outcome = Outcome {
        attempted: trials.len() as u64,
        failed: trials.iter().filter(|t| !t.ok).count() as u64,
        consistent: true,
        metrics: Vec::new(),
    };
    if !args.trace {
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
            Metric::new("throughput", episodes_per_s, "1/s"),
        ];
        return outcome;
    }

    let rec = trace::finish();
    outcome.consistent = Trial::same(&traced.items, trials);
    println!(
        "# highdim-1024 traced trajectories bit-identical to untraced: {}",
        outcome.consistent
    );
    if let Some(path) = &args.trace_out {
        rec.write_csv(path).expect("write the trace file");
    }
    outcome.metrics = layer_metrics("highdim-1024", &rec, traced.wall_s, plain.wall_s, None);
    outcome
}
