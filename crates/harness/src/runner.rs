//! Seeded, pool-parallel trial execution shared by every experiment.
//!
//! The runner is environment-generic: a [`TrialSpec`] names a registered
//! [`Workload`] and the environment, protocol defaults and cost-model
//! geometry are all resolved through the workload registry, so the full
//! 7-design matrix runs on every registered environment through this single
//! code path. Since PR 4 the `par_iter` below executes on a real
//! work-sharing thread pool (`--threads` / `ELMRL_THREADS` size it), so a
//! figure's independent seeded trials genuinely run concurrently; each
//! trial owns its RNG stream, so parallelism never changes results.

use crate::timing::{CostModel, ModeledTime};
use elmrl_core::batch::BatchAgent;
use elmrl_core::checkpoint::RunCheckpoint;
use elmrl_core::designs::Design;
use elmrl_core::trainer::{CheckpointCtl, Trainer, TrainerConfig, TrainingResult};
use elmrl_fpga::{build_agent, FpgaAgent, FpgaAgentConfig};
use elmrl_gym::{Workload, WorkloadOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The axes every experiment generator shares: which workload, which hidden
/// sizes, how many seeded trials of how many episodes, and how many
/// parallel training episodes each trial runs. The CLI builds one from its
/// flags ([`crate::CliArgs::sweep`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// Workload (environment) under test.
    pub workload: Workload,
    /// Workload variant knobs (e.g. the Pendulum torque discretisation).
    pub options: WorkloadOptions,
    /// Hidden widths `Ñ`, one cell per entry (the single-width ablations
    /// use the first).
    pub hidden: Vec<usize>,
    /// Seeded trials per cell (fig4 and the ablations run one).
    pub trials: usize,
    /// Episode budget per trial.
    pub episodes: usize,
    /// Base RNG seed; each trial derives its own.
    pub seed: u64,
    /// Parallel training episodes per trial (1 = the paper's scalar
    /// protocol).
    pub train_envs: usize,
}

impl Sweep {
    /// One trial per cell on the default [`WorkloadOptions`], scalar
    /// protocol.
    pub fn new(workload: Workload, hidden: &[usize], episodes: usize, seed: u64) -> Self {
        Self {
            workload,
            options: WorkloadOptions::default(),
            hidden: hidden.to_vec(),
            trials: 1,
            episodes,
            seed,
            train_envs: 1,
        }
    }

    /// The spec of one trial of this sweep.
    pub fn trial(&self, design: Design, hidden_dim: usize, seed: u64) -> TrialSpec {
        TrialSpec::for_workload(self.workload, design, hidden_dim, seed)
            .with_options(self.options)
            .with_max_episodes(self.episodes)
            .with_train_envs(self.train_envs)
    }
}

/// One trial specification: which design, on which workload, at which hidden
/// size, with which seed and episode protocol.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrialSpec {
    /// Workload (environment) under test.
    pub workload: Workload,
    /// Workload variant knobs (e.g. the Pendulum torque discretisation).
    pub options: WorkloadOptions,
    /// Design under test.
    pub design: Design,
    /// Hidden width `Ñ`.
    pub hidden_dim: usize,
    /// RNG seed (environment and agent share the stream, as on the device).
    pub seed: u64,
    /// Parallel training episodes (the CLI's `--train-envs`). 1 — the
    /// default everywhere — runs the paper's scalar B = 1 episode loop
    /// byte-for-byte; E > 1 drives E concurrent episodes through
    /// [`elmrl_gym::VecEnv`] with batch-B updates
    /// ([`Trainer::run_vec`](elmrl_core::trainer::Trainer::run_vec)).
    pub train_envs: usize,
    /// Trainer protocol.
    pub trainer: TrainerConfig,
}

impl TrialSpec {
    /// A CartPole spec with the default trainer protocol — shorthand for
    /// [`TrialSpec::for_workload`] with [`Workload::CartPole`].
    pub fn new(design: Design, hidden_dim: usize, seed: u64) -> Self {
        Self::for_workload(Workload::CartPole, design, hidden_dim, seed)
    }

    /// A spec using the workload's own trainer protocol (solve criterion,
    /// reward shaping, reset rule and episode budget from the registry) and
    /// the default [`WorkloadOptions`].
    pub fn for_workload(workload: Workload, design: Design, hidden_dim: usize, seed: u64) -> Self {
        let trainer = TrainerConfig::for_design(&workload.spec(), design);
        Self {
            workload,
            options: WorkloadOptions::default(),
            design,
            hidden_dim,
            seed,
            train_envs: 1,
            trainer,
        }
    }

    /// Override the workload variant knobs (the CLI's `--torque-levels` /
    /// `--solve-threshold` axes). The trainer's solve criterion is
    /// re-resolved from the re-optioned spec, so a `--solve-threshold`
    /// override reaches the episode loop; call this before any manual
    /// `trainer.solve_criterion` customisation.
    pub fn with_options(mut self, options: WorkloadOptions) -> Self {
        self.options = options;
        self.trainer.solve_criterion = self.workload.spec_with(options).solve_criterion;
        self
    }

    /// Override the number of parallel training episodes (the CLI's
    /// `--train-envs` axis). The workload's solve criterion and reward
    /// shaping are unchanged; only the episode driver switches from the
    /// scalar loop to the E-parallel one.
    pub fn with_train_envs(mut self, train_envs: usize) -> Self {
        self.train_envs = train_envs.max(1);
        self
    }

    /// Override the episode budget.
    pub fn with_max_episodes(mut self, max_episodes: usize) -> Self {
        self.trainer.max_episodes = max_episodes;
        self
    }

    /// Keep running after the solve criterion fires (full Figure 4 curves).
    pub fn collect_full_curve(mut self) -> Self {
        self.trainer.stop_when_solved = false;
        self
    }
}

/// The outcome of one trial, augmented with the on-device cost model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrialResult {
    /// The spec that produced this result.
    pub spec: TrialSpec,
    /// Raw training outcome (curves, op counts, host wall time).
    pub training: TrainingResult,
    /// Modeled on-device seconds (CPU for software designs, PL+CPU for FPGA).
    pub modeled: ModeledTime,
    /// For the FPGA design: simulated seconds from the cycle-accurate core
    /// (predict, seq_train, init_train) — `None` for software designs.
    pub fpga_simulated_seconds: Option<(f64, f64, f64)>,
}

/// Checkpoint/resume options for the checkpointed trial driver (the CLI's
/// `--checkpoint-dir` / `--checkpoint-every` / `--resume` / `--stop-after`
/// flags). Each trial writes its latest [`RunCheckpoint`] to one JSON file
/// in [`CheckpointOptions::dir`], named from the spec
/// ([`checkpoint_file_name`]), so a resumed sweep pairs every trial with its
/// own checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointOptions {
    /// Directory per-trial checkpoints are written to.
    pub dir: PathBuf,
    /// Capture a checkpoint every this many completed episodes.
    pub every: usize,
    /// Continue from the existing per-trial checkpoints in `dir` (trials
    /// without a checkpoint file start fresh).
    pub resume: bool,
    /// Fault injection: abandon every trial once this many episodes have
    /// completed. The boundary checkpoint is captured first, so
    /// `stop_after: Some(n)` with `every` dividing `n` simulates a crash at
    /// episode `n` with its checkpoint safely on disk.
    pub stop_after: Option<usize>,
}

/// The checkpoint file name for one trial spec: every axis that changes the
/// trajectory (workload, design, hidden size, seed, train-envs) is encoded,
/// so no two trials of one sweep share a file.
pub fn checkpoint_file_name(spec: &TrialSpec) -> String {
    let design_slug: String = spec
        .design
        .label()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!(
        "trial-{}-{}-h{}-s{}-e{}.json",
        spec.workload.slug(),
        design_slug,
        spec.hidden_dim,
        spec.seed,
        spec.train_envs
    )
}

/// Run one trial. With `train_envs == 1` (the default) this is the paper's
/// scalar episode loop, byte-for-byte; with `train_envs > 1` the trial
/// drives E concurrent episodes through a [`elmrl_gym::VecEnv`] and trains
/// in batch-B chunks ([`Trainer::run_vec`]).
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    run_trial_checkpointed(spec, None)
        .expect("a trial without checkpointing cannot fail")
        .0
}

/// Run one trial under checkpoint control. Returns the result and whether
/// the trial ran to its natural end (`false` when the fault-injection
/// `stop_after` abandoned it early — the partial result must not enter any
/// artefact; resume from the checkpoint instead).
///
/// The determinism contract is inherited from
/// [`Trainer::run_checkpointed`](elmrl_core::trainer::Trainer): a trial
/// resumed from a checkpoint continues bit-for-bit identically to one that
/// never stopped, so artefacts built from resumed trials are byte-identical
/// to straight-through runs (host wall-clock aside — see
/// [`crate::deterministic_artifacts`]).
pub fn run_trial_checkpointed(
    spec: &TrialSpec,
    opts: Option<&CheckpointOptions>,
) -> Result<(TrialResult, bool), String> {
    let env_spec = spec.workload.spec_with(spec.options);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let trainer = Trainer::new(spec.trainer.clone());
    let cost = CostModel::for_workload(&env_spec, spec.hidden_dim);

    let path = opts.map(|o| o.dir.join(checkpoint_file_name(spec)));
    let resumed = match (opts, &path) {
        (Some(o), Some(p)) if o.resume && p.exists() => Some(RunCheckpoint::load(p)?),
        _ => None,
    };
    let save_path = path.clone();
    let mut sink = move |ckpt: RunCheckpoint| {
        if let Some(p) = &save_path {
            ckpt.save(p).expect("write trial checkpoint");
        }
    };
    let mut ctl = CheckpointCtl::default();
    if let Some(o) = opts {
        ctl.every = o.every.max(1);
        ctl.stop_after = o.stop_after;
        ctl.sink = Some(&mut sink);
    }
    ctl.resume = resumed.as_ref();

    // The FPGA agent stays concrete so its simulated PL/CPU seconds can be
    // read after the run.
    let mut fpga = None;
    let mut software;
    let agent: &mut dyn BatchAgent = match spec.design {
        Design::Fpga => fpga.insert(FpgaAgent::new(
            FpgaAgentConfig::for_workload(&env_spec, spec.hidden_dim),
            &mut rng,
        )),
        design => {
            software = build_agent(design, &env_spec, spec.hidden_dim, &mut rng);
            software.as_mut()
        }
    };
    let training = if spec.train_envs > 1 {
        let mut vec_env = elmrl_gym::VecEnv::from_spec(&env_spec, spec.train_envs);
        trainer.run_vec_checkpointed(agent, &mut vec_env, &mut rng, &mut ctl)?
    } else {
        trainer.run_checkpointed(agent, env_spec.make_env().as_mut(), &mut rng, &mut ctl)?
    };
    let fpga_simulated_seconds = fpga.map(|a| a.datapath().simulated_breakdown_seconds());
    let modeled = if spec.design == Design::Fpga {
        cost.model_fpga(&training.op_counts)
    } else {
        cost.model_software(&training.op_counts)
    };
    let complete = training.episodes_run >= spec.trainer.max_episodes
        || (spec.trainer.stop_when_solved && training.solved);
    Ok((
        TrialResult {
            spec: spec.clone(),
            modeled,
            fpga_simulated_seconds,
            training,
        },
        complete,
    ))
}

/// Run a batch of trials in parallel under shared checkpoint control (the
/// checkpoint directory is created on demand). Each element carries the
/// trial's completion flag — see [`run_trial_checkpointed`].
pub fn run_trials_checkpointed(
    specs: &[TrialSpec],
    opts: Option<&CheckpointOptions>,
) -> Result<Vec<(TrialResult, bool)>, String> {
    if let Some(o) = opts {
        std::fs::create_dir_all(&o.dir)
            .map_err(|e| format!("create checkpoint dir {}: {e}", o.dir.display()))?;
    }
    let results: Vec<Result<(TrialResult, bool), String>> = specs
        .par_iter()
        .map(|spec| run_trial_checkpointed(spec, opts))
        .collect();
    results.into_iter().collect()
}

/// Aggregate statistics of one (workload, design, hidden size) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSummary {
    /// Workload the cell ran on.
    pub workload: Workload,
    /// Design under test.
    pub design: Design,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Number of trials run.
    pub trials: usize,
    /// Number of trials that solved the task.
    pub solved_trials: usize,
    /// Mean modeled seconds to complete, over the solved trials.
    pub mean_time_to_complete: Option<f64>,
    /// Mean host wall-clock seconds over the solved trials.
    pub mean_wall_seconds: Option<f64>,
    /// Mean episodes to solve over the solved trials.
    pub mean_episodes_to_solve: Option<f64>,
    /// Mean modeled seconds per operation class, averaged over solved trials.
    pub mean_per_op_seconds: std::collections::BTreeMap<String, f64>,
}

/// Summarise a set of trials of the same cell.
pub fn summarize_cell(
    workload: Workload,
    design: Design,
    hidden_dim: usize,
    results: &[TrialResult],
) -> CellSummary {
    let solved: Vec<&TrialResult> = results.iter().filter(|r| r.training.solved).collect();
    let mean = |values: Vec<f64>| {
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    };
    let mut per_op: std::collections::BTreeMap<String, f64> = Default::default();
    if !solved.is_empty() {
        for r in &solved {
            for (k, v) in &r.modeled.per_op_seconds {
                *per_op.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        for v in per_op.values_mut() {
            *v /= solved.len() as f64;
        }
    }
    CellSummary {
        workload,
        design,
        hidden_dim,
        trials: results.len(),
        solved_trials: solved.len(),
        mean_time_to_complete: mean(solved.iter().map(|r| r.modeled.total_seconds).collect()),
        // Host wall-clock is the one nondeterministic number in fig5.json;
        // the deterministic-artifact mode zeroes it so checkpoint/resume
        // pairs (and reruns in general) compare byte-for-byte.
        mean_wall_seconds: if crate::deterministic_artifacts() {
            if solved.is_empty() {
                None
            } else {
                Some(0.0)
            }
        } else {
            mean(solved.iter().map(|r| r.training.wall_seconds()).collect())
        },
        mean_episodes_to_solve: mean(
            solved
                .iter()
                .filter_map(|r| r.training.solved_at_episode.map(|e| e as f64 + 1.0))
                .collect(),
        ),
        mean_per_op_seconds: per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_spec_disables_resets_for_dqn_only() {
        assert!(TrialSpec::new(Design::Dqn, 16, 0)
            .trainer
            .reset_after_episodes
            .is_none());
        assert!(TrialSpec::new(Design::OsElmL2, 16, 0)
            .trainer
            .reset_after_episodes
            .is_some());
        // …for every workload, not just CartPole.
        for workload in Workload::all() {
            assert!(
                TrialSpec::for_workload(workload, Design::Dqn, 16, 0)
                    .trainer
                    .reset_after_episodes
                    .is_none(),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn new_defaults_to_the_cartpole_workload() {
        let spec = TrialSpec::new(Design::OsElmL2, 16, 0);
        assert_eq!(spec.workload, Workload::CartPole);
        assert_eq!(spec.trainer, TrainerConfig::default());
    }

    #[test]
    fn software_and_fpga_trials_produce_consistent_results() {
        let spec_sw = TrialSpec::new(Design::OsElmL2Lipschitz, 8, 3).with_max_episodes(5);
        let r_sw = run_trial(&spec_sw);
        assert_eq!(r_sw.training.episodes_run, 5);
        assert!(r_sw.modeled.total_seconds > 0.0);
        assert!(r_sw.fpga_simulated_seconds.is_none());

        let spec_hw = TrialSpec::new(Design::Fpga, 8, 3).with_max_episodes(5);
        let r_hw = run_trial(&spec_hw);
        assert_eq!(r_hw.training.design, "FPGA");
        assert!(r_hw.fpga_simulated_seconds.is_some());
        // FPGA-modeled time must beat the CPU-modeled time for the same design
        // family at equal hidden size (the op mix is similar).
        assert!(r_hw.modeled.total_seconds < r_sw.modeled.total_seconds * 2.0);
    }

    #[test]
    fn every_design_runs_on_every_workload() {
        // The acceptance criterion of the environment-generic refactor: the
        // full design matrix × the full registry through one code path.
        let specs: Vec<TrialSpec> = Workload::all()
            .into_iter()
            .flat_map(|w| {
                Design::all_designs()
                    .into_iter()
                    .map(move |d| TrialSpec::for_workload(w, d, 8, 17).with_max_episodes(2))
            })
            .collect();
        let results: Vec<TrialResult> = specs.par_iter().map(run_trial).collect();
        assert_eq!(results.len(), Workload::all().len() * 7);
        for r in &results {
            assert_eq!(r.training.episodes_run, 2, "{:?}", r.spec);
            assert!(r.training.total_steps > 0);
            assert!(r.modeled.total_seconds > 0.0);
            assert!(r.training.stats.returns.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn workload_trials_are_deterministic_given_seed() {
        for workload in [Workload::MountainCar, Workload::Pendulum] {
            let spec =
                TrialSpec::for_workload(workload, Design::OsElmL2, 8, 5).with_max_episodes(3);
            let a = run_trial(&spec);
            let b = run_trial(&spec);
            assert_eq!(a.training.stats.returns, b.training.stats.returns);
            assert_eq!(a.training.total_steps, b.training.total_steps);
        }
    }

    #[test]
    fn workload_options_thread_through_to_the_environment() {
        let base =
            TrialSpec::for_workload(Workload::Pendulum, Design::OsElmL2, 8, 5).with_max_episodes(2);
        assert_eq!(base.options, WorkloadOptions::default());
        let coarse = run_trial(&base);
        let fine = run_trial(&base.clone().with_options(WorkloadOptions {
            torque_levels: 9,
            ..WorkloadOptions::default()
        }));
        assert_eq!(coarse.training.episodes_run, 2);
        assert_eq!(fine.training.episodes_run, 2);
        // A 9-level torque set changes the policy's action draws, so the
        // trajectories must diverge from the 3-level default.
        assert_ne!(coarse.training.stats.returns, fine.training.stats.returns);
    }

    #[test]
    fn train_envs_trials_run_every_design_deterministically() {
        // The E-parallel driver must cover the whole design matrix (incl.
        // the FPGA fixed-point agent through its BatchAgent impl) and stay
        // a pure function of the spec.
        for design in [Design::OsElmL2Lipschitz, Design::Dqn, Design::Fpga] {
            let spec = TrialSpec::new(design, 8, 13)
                .with_max_episodes(4)
                .with_train_envs(3);
            assert_eq!(spec.train_envs, 3);
            let a = run_trial(&spec);
            let b = run_trial(&spec);
            assert_eq!(
                a.training.stats.returns, b.training.stats.returns,
                "{design:?}"
            );
            assert_eq!(a.training.episodes_run, 4, "{design:?}");
            assert!(a.training.total_steps >= 4, "{design:?}");
            if design == Design::Fpga {
                assert!(a.fpga_simulated_seconds.is_some());
            }
            // The batched act path must feed the Figure 5/6 prediction
            // counters exactly like the scalar `act`, so the modeled
            // execution times stay design-comparable at any E.
            use elmrl_core::ops::OpKind;
            let predictions = a.training.op_counts.count(OpKind::Predict1)
                + a.training.op_counts.count(OpKind::PredictInit)
                + a.training.op_counts.count(OpKind::PredictSeq);
            assert!(
                predictions as usize >= a.training.total_steps,
                "{design:?}: every E-parallel decision must be counted"
            );
            // And E must actually change the trajectory vs. the scalar loop.
            let scalar = run_trial(&spec.clone().with_train_envs(1));
            assert_ne!(
                scalar.training.stats.returns, a.training.stats.returns,
                "{design:?}: E > 1 must not silently replay the scalar loop"
            );
        }
    }

    #[test]
    fn solve_threshold_option_reaches_the_trainer() {
        let base = TrialSpec::for_workload(Workload::MountainCar, Design::OsElmL2, 8, 5);
        assert_eq!(
            base.trainer.solve_criterion,
            elmrl_gym::SolveCriterion::EpisodeReturn { threshold: -150.0 }
        );
        let overridden = base.with_options(WorkloadOptions {
            solve_threshold: Some(-120.0),
            ..WorkloadOptions::default()
        });
        assert_eq!(
            overridden.trainer.solve_criterion,
            elmrl_gym::SolveCriterion::EpisodeReturn { threshold: -120.0 }
        );
    }

    #[test]
    fn parallel_trials_and_cell_summary() {
        let specs: Vec<TrialSpec> = (0..3)
            .map(|s| TrialSpec::new(Design::OsElmL2, 8, s).with_max_episodes(4))
            .collect();
        let results: Vec<TrialResult> = specs.par_iter().map(run_trial).collect();
        assert_eq!(results.len(), 3);
        let summary = summarize_cell(Workload::CartPole, Design::OsElmL2, 8, &results);
        assert_eq!(summary.trials, 3);
        assert_eq!(summary.workload, Workload::CartPole);
        assert!(summary.solved_trials <= 3);
        if summary.solved_trials == 0 {
            assert!(summary.mean_time_to_complete.is_none());
        }
    }

    #[test]
    fn chunk_cap_below_the_tick_width_stays_deterministic() {
        // 3·DEFAULT_CHUNK_CAP slots put about 1.5 caps of gated transitions
        // into every update tick (ε₂ = 0.5), so each tick is split into
        // cap-sized RLS chunks (Eq. 6 applied per chunk is algebraically
        // equivalent, so the behaviour may coincide with one wide chunk —
        // the float-level divergence is pinned at the core layer where β is
        // observable). The split run must complete and stay a pure function
        // of the spec.
        let wide = TrialSpec::new(Design::OsElmL2Lipschitz, 8, 13)
            .with_max_episodes(4)
            .with_train_envs(3 * elmrl_core::DEFAULT_CHUNK_CAP);
        let a = run_trial(&wide);
        let b = run_trial(&wide);
        assert_eq!(a.training.stats.returns, b.training.stats.returns);
        assert_eq!(a.training.episodes_run, 4);
    }

    #[test]
    fn checkpoint_names_keep_historical_form_without_a_cap() {
        let spec = TrialSpec::new(Design::OsElmL2Lipschitz, 16, 7).with_train_envs(4);
        assert_eq!(
            checkpoint_file_name(&spec),
            "trial-cart-pole-os-elm-l2-lipschitz-h16-s7-e4.json"
        );
    }

    #[test]
    fn high_dim_workload_runs_the_full_trial_path() {
        let spec = TrialSpec::for_workload(Workload::HighDim, Design::OsElmL2Lipschitz, 8, 21)
            .with_options(WorkloadOptions {
                obs_dim: Some(16),
                ..WorkloadOptions::default()
            })
            .with_max_episodes(2);
        let r = run_trial(&spec);
        assert_eq!(r.training.episodes_run, 2);
        assert!(r.training.total_steps > 0);
        assert!(r.training.stats.returns.iter().all(|v| v.is_finite()));
        // The padded width reaches the agent: a different obs_dim changes
        // the RNG consumption and therefore the trajectory.
        let wider = run_trial(&spec.clone().with_options(WorkloadOptions {
            obs_dim: Some(32),
            ..WorkloadOptions::default()
        }));
        assert_ne!(r.training.stats.returns, wider.training.stats.returns);
    }
}
