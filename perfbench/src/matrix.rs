//! `cartpole-matrix`: the paper's Figure 5 design matrix on CartPole-v0 at
//! Ñ = 64. Every round trains all seven designs through the scalar E = 1
//! `Trainer::run` loop for a fixed episode budget with stop-on-solve off, so
//! the work in a round does not depend on when a seed solves.

use crate::calib::Calibrator;
use crate::trace::{self, Family, Layer, TracedAgent, TracedEnv};
use crate::{
    layer_metrics, median, pass_order, peak_rss_mib, timed, Args, Metric, Outcome, Pass, Trial,
};
use elmrl_core::batch::BatchAgent;
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::Trainer;
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::{EnvSpec, Workload};
use elmrl_harness::TrialSpec;
use elmrl_population::split_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const HIDDEN: usize = 64;
/// Episodes per trial: long enough that every design passes its store phase
/// and retrains many times, short enough for several rounds per run.
const EPISODES: usize = 40;

/// One design's agent, built exactly as the harness's `run_trial` builds it
/// (the agent and environment share the trial seed's stream).
fn build_agent(design: Design, spec: &EnvSpec, rng: &mut SmallRng) -> Box<dyn BatchAgent + Send> {
    match design {
        Design::Fpga => Box::new(FpgaAgent::new(
            FpgaAgentConfig::for_workload(spec, HIDDEN),
            rng,
        )),
        software => software.build_batch(&DesignConfig::for_workload(spec, HIDDEN), rng),
    }
}

/// Run one trial; with `traced` the agent and environment go through the
/// timing decorators and the trial is one span.
fn trial(design: Design, seed: u64, traced: bool, cal: &mut Calibrator) -> Trial {
    let spec = Workload::CartPole.spec();
    let config = TrialSpec::new(design, HIDDEN, seed)
        .with_max_episodes(EPISODES)
        .collect_full_curve()
        .trainer;
    let trainer = Trainer::new(config);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (setup_s, (agent, env)) = timed(|| (build_agent(design, &spec, &mut rng), spec.make_env()));
    let setup_slowdown = cal.mark();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            let mut agent = TracedAgent::new(agent, Family::of(design));
            let mut env = TracedEnv::new(env, true);
            let start = Instant::now();
            trace::open();
            let result = trainer.run(&mut agent, &mut env, &mut rng);
            trace::end_episode();
            trace::close("trial", Some(Layer::CoreTrainer));
            (result, start.elapsed())
        } else {
            let (mut agent, mut env) = (agent, env);
            let start = Instant::now();
            let result = trainer.run(agent.as_mut(), env.as_mut(), &mut rng);
            (result, start.elapsed())
        }
    }));
    let run_slowdown = cal.mark();
    Trial::check(design, setup_s, run, EPISODES, false).calibrate(setup_slowdown, run_slowdown)
}

/// Run one round of all seven designs into `pass`.
fn round(seed: u64, round: u64, traced: bool, pass: &mut Pass<Trial>, cal: &mut Calibrator) {
    let start = Instant::now();
    let trial_seed = split_seed(seed, round);
    for design in Design::all_designs() {
        pass.items.push(trial(design, trial_seed, traced, cal));
    }
    pass.wall_s += start.elapsed().as_secs_f64();
}

/// Env steps per second of one design family: its env steps over the summed
/// time (`wall` of each trial) of its own trial calls in each round, median
/// over rounds (so a burst of host load that slows a few rounds does not
/// move the figure).
fn family_rate(trials: &[Trial], family: Family, wall: fn(&Trial) -> f64) -> f64 {
    let per_round: Vec<f64> = trials
        .chunks(Design::all_designs().len())
        .map(|round| {
            let (steps, secs) = round
                .iter()
                .filter(|t| Family::of(t.design) == family)
                .fold((0usize, 0.0f64), |(s, w), t| (s + t.steps, w + wall(t)));
            steps as f64 / secs
        })
        .collect();
    median(&per_round)
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn run(args: &Args) -> Outcome {
    // Rounds until the time is up (at least one). Traced, each round runs
    // untraced and traced, so both passes see the same host conditions.
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let mut cal = if args.trace {
        trace::start();
        Calibrator::off()
    } else {
        Calibrator::new()
    };
    let start = Instant::now();
    let mut r = 0;
    while r == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for &t in pass_order(args.trace, r) {
            let pass = if t { &mut traced } else { &mut plain };
            round(args.seed, r, t, pass, &mut cal);
        }
        r += 1;
    }
    let trials = &plain.items;
    let failed = trials.iter().filter(|t| !t.ok).count() as u64;
    let mut outcome = Outcome {
        attempted: trials.len() as u64,
        failed,
        consistent: true,
        metrics: Vec::new(),
    };
    let families = [
        ("elm_steps_per_s", Family::Elm),
        ("oselm_steps_per_s", Family::OsElm),
        ("dqn_steps_per_s", Family::Dqn),
        ("fpga_steps_per_s", Family::Fpga),
    ];
    let rates: Vec<f64> = families
        .iter()
        .map(|&(_, f)| family_rate(trials, f, |t| t.wall_cal_s))
        .collect();
    let raw: Vec<f64> = families
        .iter()
        .map(|&(_, f)| family_rate(trials, f, |t| t.wall_s))
        .collect();
    for ((&(name, _), rate), raw) in families.iter().zip(&rates).zip(&raw) {
        println!("# cartpole-matrix {name} = {rate} 1/s (uncalibrated {raw} 1/s)");
    }
    println!(
        "# cartpole-matrix uncalibrated throughput = {} 1/s",
        geomean(&raw)
    );
    println!(
        "# cartpole-matrix rounds = {}, env steps = {}",
        trials.len() / Design::all_designs().len(),
        trials.iter().map(|t| t.steps).sum::<usize>()
    );

    if !args.trace {
        // Set-up is sampled in every round across the whole run, so it
        // reads the same host conditions as the throughput.
        let setup_s = median(
            &trials
                .chunks(Design::all_designs().len())
                .map(|round| round.iter().map(|t| t.setup_cal_s).sum())
                .collect::<Vec<f64>>(),
        );
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
            Metric::new("throughput", geomean(&rates), "1/s"),
        ];
        return outcome;
    }

    let rec = trace::finish();
    outcome.consistent = Trial::same(&traced.items, trials);
    println!(
        "# cartpole-matrix traced trajectories bit-identical to untraced: {}",
        outcome.consistent
    );
    if let Some(path) = &args.trace_out {
        rec.write_csv(path).expect("write the trace file");
    }
    outcome.metrics = layer_metrics("cartpole-matrix", &rec, traced.wall_s, plain.wall_s, None);
    outcome
}
