//! The population execution engine.
//!
//! [`PopulationRunner`] trains K replicated agents of **one design** on
//! **one workload**, sharded across the `rayon`-shim work-sharing thread
//! pool — since PR 4 the shards genuinely run concurrently (`--threads`
//! / `ELMRL_THREADS` size the pool), making `--shards` a real wall-clock
//! lever. Each shard drives its replicas **in lockstep** through an
//! [`elmrl_gym::VecEnv`] — one environment step per replica per engine
//! tick, auto-reset on episode end — rather than looping whole trials, so
//! the engine is the serving-shaped execution path the ROADMAP's
//! batch/replicated-serving item asks for.
//!
//! Reproducibility: all randomness is derived from the master seed and each
//! replica's **global index** (see [`crate::seed`]); the shared
//! [`EnvSpec`] is read-only, and shard results are stitched back in shard
//! order. The aggregate [`PopulationReport`] is therefore byte-identical
//! for any `--shards` **and any `--threads`** value, which the determinism
//! tests and the CI smoke run assert.
//!
//! Each replica takes its per-tick ε-greedy **training** decision through
//! `Agent::act` (for the ELM-family designs the batched evaluator on a
//! one-row batch), and after training every replica's final policy is
//! scored by a **greedy evaluation pass** in which `eval_episodes`
//! environments step in lockstep while the replica's network evaluates all
//! still-running episodes in one batched forward
//! ([`BatchAgent::predict_batch`] over [`Matrix::gather_rows`]-packed
//! states).

use crate::seed::{replica_eval_seed, replica_train_seed};
use elmrl_core::batch::BatchAgent;
use elmrl_core::checkpoint::write_atomic;
use elmrl_core::designs::Design;
use elmrl_core::trainer::{CheckpointCtl, EpisodeBook, Trainer, TrainerConfig, TrainingResult};
use elmrl_fpga::build_agent;
use elmrl_gym::{EnvSpec, SolveCriterion, VecEnv, Workload, WorkloadOptions};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Duration;

/// Schema version of the per-shard checkpoint manifests.
pub const MANIFEST_VERSION: u32 = 1;

/// Configuration of one population run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Workload every replica trains on.
    pub workload: Workload,
    /// Workload variant knobs (e.g. Pendulum torque discretisation).
    pub options: WorkloadOptions,
    /// The replicated design.
    pub design: Design,
    /// Hidden width `Ñ` of every replica.
    pub hidden_dim: usize,
    /// Number of replicas K.
    pub population: usize,
    /// Number of shards the replicas are partitioned into (each shard is
    /// one task on the work-sharing pool, so up to `min(shards, threads)`
    /// run concurrently). Affects scheduling only — never results.
    pub shards: usize,
    /// Master seed; per-replica streams are split from it.
    pub seed: u64,
    /// Episode budget per replica.
    pub max_episodes: usize,
    /// Parallel training episodes per replica (the CLI's `--train-envs`).
    /// 1 — the default — is the paper's scalar protocol (one episode at a
    /// time per replica, byte-identical to previous releases); E > 1 gives
    /// every replica its own E-slot [`VecEnv`] so it trains E episodes in
    /// lockstep with batch-B updates.
    pub train_envs: usize,
    /// Lockstep greedy-evaluation episodes per replica after training
    /// (0 disables the evaluation pass).
    pub eval_episodes: usize,
}

impl PopulationConfig {
    /// A configuration using the workload's registry defaults (episode
    /// budget from the spec; reset rule resolved per design at run time).
    pub fn new(workload: Workload, design: Design, hidden_dim: usize, population: usize) -> Self {
        let spec = workload.spec();
        Self {
            workload,
            options: WorkloadOptions::default(),
            design,
            hidden_dim,
            population,
            shards: 1,
            seed: 42,
            max_episodes: spec.defaults.max_episodes,
            train_envs: 1,
            eval_episodes: 8,
        }
    }
}

/// The outcome of one replica — the population analogue of a trial result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicaOutcome {
    /// Global replica index (stable across shard layouts).
    pub replica: usize,
    /// The replica's training-stream seed.
    pub seed: u64,
    /// Whether the solve criterion fired within the episode budget.
    pub solved: bool,
    /// Episode index (0-based) at which the criterion fired.
    pub solved_at_episode: Option<usize>,
    /// Episodes actually run.
    pub episodes_run: usize,
    /// Environment steps taken.
    pub total_steps: usize,
    /// Times the reset rule fired.
    pub resets: usize,
    /// Mean raw return of the post-training greedy evaluation episodes
    /// (`None` when the evaluation pass is disabled).
    pub greedy_eval_return: Option<f64>,
    /// Per-episode raw returns of this replica's training run, in episode
    /// order — the per-replica learning curve behind the population
    /// convergence table.
    pub returns: Vec<f64>,
}

impl ReplicaOutcome {
    /// The outcome of a trained replica, scored by its greedy evaluation.
    fn new(
        replica: usize,
        config: &PopulationConfig,
        spec: &EnvSpec,
        agent: &mut dyn BatchAgent,
        result: TrainingResult,
    ) -> Self {
        Self {
            replica,
            seed: replica_train_seed(config.seed, replica),
            solved: result.solved,
            solved_at_episode: result.solved_at_episode,
            episodes_run: result.episodes_run,
            total_steps: result.total_steps,
            resets: result.resets,
            greedy_eval_return: greedy_eval(
                agent,
                spec,
                replica_eval_seed(config.seed, replica),
                config.eval_episodes,
            ),
            returns: result.stats.returns,
        }
    }
}

/// Aggregate statistics over the whole population. Everything in this report
/// (and in the per-replica list) is independent of the shard count, so the
/// serialized JSON is byte-identical for any `shards` setting.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PopulationReport {
    /// Workload the population ran on.
    pub workload: Workload,
    /// Workload variant knobs the run used.
    pub options: WorkloadOptions,
    /// Design label of every replica.
    pub design: String,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Population size K.
    pub population: usize,
    /// Master seed.
    pub seed: u64,
    /// Episode budget per replica.
    pub max_episodes: usize,
    /// Parallel training episodes per replica (`--train-envs`).
    pub train_envs: usize,
    /// The RLS chunk cap the replicas trained under
    /// ([`elmrl_core::DEFAULT_CHUNK_CAP`] once `train_envs > 1` engages the
    /// chunked path); `None` when every update was single-transition.
    /// Skipped when absent so scalar artifacts keep their bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chunk_cap: Option<usize>,
    /// The effective completion rule of the run (registry default or the
    /// `--solve-threshold` override).
    pub solve_criterion: SolveCriterion,
    /// Greedy-evaluation episodes per replica.
    pub eval_episodes: usize,
    /// Fraction of replicas that solved the task.
    pub solve_rate: f64,
    /// Number of replicas that solved the task.
    pub solved: usize,
    /// Quantiles of episodes-to-solve over the solved replicas
    /// (p25/p50/p75/p90, nearest-rank; `None` when nothing solved).
    pub episodes_to_solve: QuantileSummary,
    /// Mean greedy evaluation return over all replicas (`None` when the
    /// evaluation pass is disabled).
    pub mean_greedy_eval_return: Option<f64>,
    /// Per-replica outcomes in global replica order.
    pub replicas: Vec<ReplicaOutcome>,
}

/// Nearest-rank quantiles of a sample (empty sample ⇒ all `None`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// Sample size.
    pub count: usize,
    /// Sample mean.
    pub mean: Option<f64>,
    /// 25th percentile.
    pub p25: Option<f64>,
    /// Median.
    pub p50: Option<f64>,
    /// 75th percentile.
    pub p75: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
}

impl QuantileSummary {
    /// Summarise a sample (order irrelevant).
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantiles need ordered values"));
        let q = |p: f64| -> Option<f64> {
            if sorted.is_empty() {
                return None;
            }
            // Nearest-rank: the smallest value with at least p·n sample mass.
            let rank = (p * sorted.len() as f64).ceil() as usize;
            Some(sorted[rank.clamp(1, sorted.len()) - 1])
        };
        Self {
            count: sorted.len(),
            mean: if sorted.is_empty() {
                None
            } else {
                Some(sorted.iter().sum::<f64>() / sorted.len() as f64)
            },
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p90: q(0.90),
        }
    }
}

/// Fault-injection plan (the CLI's `--fail-shard k@e`): shard `shard` is
/// killed once `at_episode` training episodes have completed across its
/// replicas. A killed shard produces no outcomes — its replicas are requeued
/// deterministically onto the surviving shards and re-run from their
/// index-derived seeds, so the aggregate report is byte-identical to a run
/// without the failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Index of the shard to kill (into the current shard layout).
    pub shard: usize,
    /// Shard-local episode count at which the kill fires (0 kills the shard
    /// before it does any work).
    pub at_episode: usize,
}

impl FaultPlan {
    /// Parse the CLI form `k@e` (shard index `@` episode count).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (shard, episode) = s
            .split_once('@')
            .ok_or_else(|| format!("--fail-shard expects k@e, got `{s}`"))?;
        Ok(Self {
            shard: shard
                .trim()
                .parse()
                .map_err(|_| format!("--fail-shard: bad shard index `{shard}`"))?,
            at_episode: episode
                .trim()
                .parse()
                .map_err(|_| format!("--fail-shard: bad episode count `{episode}`"))?,
        })
    }
}

/// Per-shard checkpoint manifest: which replicas the shard owns under the
/// current layout and the outcomes it holds (its own completed replicas,
/// replicas adopted from prior manifests on resume, and orphans it re-ran
/// after another shard failed). The union of all manifests' outcomes is the
/// durable state of the population run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest schema version.
    pub version: u32,
    /// Shard index under the layout of the run that wrote the manifest.
    pub shard: usize,
    /// Global replica indices assigned to the shard by that layout.
    pub assigned: Vec<usize>,
    /// Replica outcomes in this shard's custody, in global replica order.
    pub completed: Vec<ReplicaOutcome>,
    /// Whether fault injection killed this shard during the run.
    pub failed: bool,
}

impl ShardManifest {
    /// Serialize to the versioned JSON schema.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parse a manifest, rejecting unknown schema versions.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let m: Self = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if m.version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {} (expected {MANIFEST_VERSION})",
                m.version
            ));
        }
        Ok(m)
    }

    /// Write the manifest to `<dir>/shard-<k>.json`, atomically
    /// ([`write_atomic`]). Its temp file, `.shard-<k>.json.tmp`, never
    /// matches the pattern [`ShardManifest::load_dir`] reads.
    pub fn save(&self, dir: &Path) -> Result<std::path::PathBuf, String> {
        let path = dir.join(format!("shard-{}.json", self.shard));
        write_atomic(&path, self.to_json()?.as_bytes()).map_err(|e| e.to_string())?;
        Ok(path)
    }

    /// Load every `shard-*.json` manifest found in `dir`, in shard order.
    pub fn load_dir(dir: &Path) -> Result<Vec<Self>, String> {
        let mut manifests = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| e.to_string())?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with("shard-") && name.ends_with(".json") {
                let json = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                manifests.push(Self::from_json(&json)?);
            }
        }
        manifests.sort_by_key(|m| m.shard);
        Ok(manifests)
    }
}

/// The full outcome of a population execution: the aggregate report plus the
/// per-shard manifests describing what ran where (for checkpointing and
/// post-mortems).
#[derive(Clone, Debug, PartialEq)]
pub struct PopulationRun {
    /// The shard-layout-independent aggregate (what `population.json` holds).
    pub report: PopulationReport,
    /// Per-shard custody manifests for the execution, in shard order.
    pub manifests: Vec<ShardManifest>,
}

/// The sharded lockstep executor.
#[derive(Clone, Debug)]
pub struct PopulationRunner {
    config: PopulationConfig,
}

impl PopulationRunner {
    /// Create a runner. Panics on an empty population or zero shards.
    pub fn new(config: PopulationConfig) -> Self {
        assert!(config.population > 0, "population must be positive");
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.train_envs > 0, "need at least one training env");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Contiguous replica ranges, one per (non-empty) shard.
    fn shard_ranges(&self) -> Vec<Range<usize>> {
        let k = self.config.population;
        let s = self.config.shards.min(k);
        let base = k / s;
        let extra = k % s;
        let mut ranges = Vec::with_capacity(s);
        let mut start = 0;
        for shard in 0..s {
            let len = base + usize::from(shard < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }

    /// Execute the population and aggregate the report.
    pub fn run(&self) -> PopulationReport {
        self.run_checkpointed(None, &[]).report
    }

    /// Execute with fault injection and/or resume from prior manifests.
    ///
    /// * `fault` — kill one shard mid-run; its replicas (the ones without a
    ///   resumed outcome) are requeued round-robin onto the surviving shards
    ///   and re-run from their index-derived seeds, so the report is
    ///   byte-identical to a failure-free run.
    /// * `resume` — manifests from an earlier (possibly killed) run. Outcomes
    ///   they hold are adopted without re-running. The replica set is
    ///   **elastic** across resumes: outcomes for indices beyond the current
    ///   `population` are dropped (shrink) and missing indices are run fresh
    ///   (grow); because every replica's RNG streams derive from its global
    ///   index, the report never depends on the failure/migration history.
    pub fn run_checkpointed(
        &self,
        fault: Option<FaultPlan>,
        resume: &[ShardManifest],
    ) -> PopulationRun {
        let spec = self.config.workload.spec_with(self.config.options);
        let ranges = self.shard_ranges();

        // Outcomes adopted from prior manifests (elastic shrink: indices
        // beyond the current population are dropped).
        let mut outcomes: BTreeMap<usize, ReplicaOutcome> = resume
            .iter()
            .flat_map(|m| m.completed.iter())
            .filter(|r| r.replica < self.config.population)
            .map(|r| (r.replica, r.clone()))
            .collect();

        // Wave 1: every shard runs its assigned replicas that lack an
        // adopted outcome. A shard named by the fault plan is killed once it
        // crosses the episode threshold and produces nothing.
        let pending: Vec<Vec<usize>> = ranges
            .iter()
            .map(|range| {
                range
                    .clone()
                    .filter(|i| !outcomes.contains_key(i))
                    .collect()
            })
            .collect();
        let shard_jobs: Vec<(usize, &Vec<usize>)> = pending.iter().enumerate().collect();
        let wave1: Vec<Option<Vec<ReplicaOutcome>>> = shard_jobs
            .par_iter()
            .map(|&(shard, replicas)| {
                let abort = fault.filter(|f| f.shard == shard).map(|f| f.at_episode);
                run_shard_instrumented(&spec, &self.config, replicas, abort)
            })
            .collect();

        // Wave 2: requeue the killed shard's replicas round-robin (replica
        // order over survivor order) and re-run them on the survivors.
        let survivors: Vec<usize> = (0..ranges.len()).filter(|&s| wave1[s].is_some()).collect();
        let orphans: Vec<usize> = (0..ranges.len())
            .filter(|&s| wave1[s].is_none())
            .flat_map(|s| pending[s].iter().copied())
            .collect();
        // Requeue events are worth watching live: a nonzero count means a
        // shard died and its replicas re-ran on the survivors.
        elmrl_telemetry::counter!("population.requeued_replicas").add(orphans.len() as u64);
        let lanes = survivors.len().max(1);
        let mut requeued: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for (i, replica) in orphans.iter().enumerate() {
            requeued[i % lanes].push(*replica);
        }
        let wave2: Vec<Option<Vec<ReplicaOutcome>>> = requeued
            .par_iter()
            .map(|replicas| run_shard_instrumented(&spec, &self.config, replicas, None))
            .collect();

        // Custody: shard → outcomes it holds. Fresh results stay with the
        // shard that produced them; adopted outcomes live with the current
        // layout's owner; requeued outcomes with the survivor that re-ran
        // them (the whole point of the manifest being durable).
        let mut custody: Vec<Vec<usize>> = vec![Vec::new(); ranges.len()];
        for (shard, range) in ranges.iter().enumerate() {
            for i in range.clone() {
                if outcomes.contains_key(&i) {
                    custody[shard].push(i);
                }
            }
        }
        for (shard, produced) in wave1.iter().enumerate() {
            if let Some(list) = produced {
                for outcome in list {
                    custody[shard].push(outcome.replica);
                    outcomes.insert(outcome.replica, outcome.clone());
                }
            }
        }
        for (slot, produced) in wave2.iter().enumerate() {
            let list = produced
                .as_ref()
                .expect("requeue wave runs without fault injection");
            // With no survivors (every shard failed) slot 0 acts as the
            // restarted driver itself; custody goes to the layout's owner.
            for outcome in list {
                let shard = survivors.get(slot).copied().unwrap_or_else(|| {
                    ranges
                        .iter()
                        .position(|r| r.contains(&outcome.replica))
                        .unwrap_or(0)
                });
                custody[shard].push(outcome.replica);
                outcomes.insert(outcome.replica, outcome.clone());
            }
        }

        let manifests: Vec<ShardManifest> = ranges
            .iter()
            .enumerate()
            .map(|(shard, range)| {
                let mut held = custody[shard].clone();
                held.sort_unstable();
                ShardManifest {
                    version: MANIFEST_VERSION,
                    shard,
                    assigned: range.clone().collect(),
                    completed: held.iter().map(|i| outcomes[i].clone()).collect(),
                    failed: wave1[shard].is_none(),
                }
            })
            .collect();

        let replicas: Vec<ReplicaOutcome> = outcomes.into_values().collect();
        PopulationRun {
            report: self.aggregate(&spec, replicas),
            manifests,
        }
    }

    /// Fold per-replica outcomes (in global replica order) into the
    /// layout-independent aggregate report.
    fn aggregate(&self, spec: &EnvSpec, replicas: Vec<ReplicaOutcome>) -> PopulationReport {
        let solved: Vec<&ReplicaOutcome> = replicas.iter().filter(|r| r.solved).collect();
        let episodes: Vec<f64> = solved
            .iter()
            .filter_map(|r| r.solved_at_episode.map(|e| e as f64 + 1.0))
            .collect();
        let eval_returns: Vec<f64> = replicas
            .iter()
            .filter_map(|r| r.greedy_eval_return)
            .collect();
        PopulationReport {
            workload: self.config.workload,
            options: self.config.options,
            design: self.config.design.label().to_string(),
            hidden_dim: self.config.hidden_dim,
            population: self.config.population,
            seed: self.config.seed,
            max_episodes: self.config.max_episodes,
            train_envs: self.config.train_envs,
            chunk_cap: self
                .config
                .design
                .effective_chunk_cap(self.config.train_envs),
            solve_criterion: spec.solve_criterion,
            eval_episodes: self.config.eval_episodes,
            solve_rate: solved.len() as f64 / replicas.len() as f64,
            solved: solved.len(),
            episodes_to_solve: QuantileSummary::of(&episodes),
            mean_greedy_eval_return: if eval_returns.is_empty() {
                None
            } else {
                Some(eval_returns.iter().sum::<f64>() / eval_returns.len() as f64)
            },
            replicas,
        }
    }
}

/// [`run_shard`] wrapped in shard-level telemetry: a `population.shard`
/// latency span plus per-shard throughput counters (completed episodes and
/// environment steps across the shard's replicas). The wrapper is what the
/// wave drivers call; a killed shard records its span but no throughput.
fn run_shard_instrumented(
    spec: &EnvSpec,
    config: &PopulationConfig,
    replicas: &[usize],
    abort_after_episodes: Option<usize>,
) -> Option<Vec<ReplicaOutcome>> {
    let _span = elmrl_telemetry::hist!("population.shard").span();
    let out = run_shard(spec, config, replicas, abort_after_episodes);
    if elmrl_telemetry::enabled() {
        if let Some(list) = &out {
            let episodes: u64 = list.iter().map(|o| o.episodes_run as u64).sum();
            let steps: u64 = list.iter().map(|o| o.total_steps as u64).sum();
            elmrl_telemetry::counter!("population.episodes").add(episodes);
            elmrl_telemetry::counter!("population.steps").add(steps);
        }
    }
    out
}

/// Train the shard's replicas in lockstep and evaluate their final policies.
///
/// `replicas` holds the global indices to run (not necessarily contiguous —
/// requeued orphans land here too); every replica's RNG streams derive from
/// its global index alone, so *where* it runs never changes *what* it
/// computes. `abort_after_episodes` is the fault-injection kill switch: once
/// that many episodes have completed across the shard's replicas the shard
/// "dies" and returns `None` — no partial outcomes escape.
fn run_shard(
    spec: &EnvSpec,
    config: &PopulationConfig,
    replicas: &[usize],
    abort_after_episodes: Option<usize>,
) -> Option<Vec<ReplicaOutcome>> {
    let b = replicas.len();
    if abort_after_episodes == Some(0) {
        return None;
    }
    if b == 0 {
        return Some(Vec::new());
    }
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: config.max_episodes,
        ..TrainerConfig::for_design(spec, config.design)
    });

    // E > 1: every replica trains its own E-slot VecEnv through the core
    // E-parallel episode driver (batch-B updates per tick). Replicas remain
    // self-contained — agent, environments and RNG streams derive from the
    // replica's global index alone — so the report stays byte-identical for
    // any shard and thread count, exactly as in the scalar path below.
    if config.train_envs > 1 {
        let mut outcomes: Vec<ReplicaOutcome> = Vec::with_capacity(b);
        for &replica in replicas {
            let done: usize = outcomes.iter().map(|o| o.episodes_run).sum();
            let mut rng = SmallRng::seed_from_u64(replica_train_seed(config.seed, replica));
            let mut agent = build_agent(config.design, spec, config.hidden_dim, &mut rng);
            let mut vec_env = VecEnv::from_spec(spec, config.train_envs);
            let mut ctl = CheckpointCtl::default();
            if let Some(limit) = abort_after_episodes {
                ctl.stop_after = Some(limit - done);
            }
            let result = trainer
                .run_vec_checkpointed(agent.as_mut(), &mut vec_env, &mut rng, &mut ctl)
                .expect("no resume/sink: the vectorized driver cannot fail");
            if abort_after_episodes.is_some_and(|limit| done + result.episodes_run >= limit) {
                return None;
            }
            outcomes.push(ReplicaOutcome::new(
                replica,
                config,
                spec,
                agent.as_mut(),
                result,
            ));
        }
        return Some(outcomes);
    }

    let mut rngs: Vec<SmallRng> = replicas
        .iter()
        .map(|&i| SmallRng::seed_from_u64(replica_train_seed(config.seed, i)))
        .collect();
    let mut agents: Vec<Box<dyn BatchAgent + Send>> = rngs
        .iter_mut()
        .map(|rng| build_agent(config.design, spec, config.hidden_dim, rng))
        .collect();

    let mut vec_env = VecEnv::from_spec(spec, b);
    vec_env.reset_all(&mut rngs);
    let mut books: Vec<EpisodeBook> = (0..b)
        .map(|_| trainer.book(vec_env.solved_threshold()))
        .collect();
    let mut episode_returns = vec![0.0f64; b];
    let mut active = vec![config.max_episodes > 0; b];
    let mut actions: Vec<Option<usize>> = vec![None; b];
    let mut pre_states: Vec<Vec<f64>> = vec![Vec::new(); b];

    while active.iter().any(|&a| a) {
        // Determine: each replica acts on its own slot from its own stream.
        for j in 0..b {
            actions[j] = active[j].then(|| {
                pre_states[j].clear();
                pre_states[j].extend_from_slice(vec_env.state(j));
                agents[j].act(&pre_states[j], &mut rngs[j])
            });
        }

        // Observe: one lockstep environment tick with auto-reset.
        let outs = vec_env.step(&actions, &mut rngs);

        // Store/Update + episode bookkeeping per replica.
        for j in 0..b {
            let (Some(action), Some(step)) = (actions[j], &outs[j]) else {
                continue;
            };
            books[j].total_steps += 1;
            episode_returns[j] += step.outcome.reward;
            let obs = trainer.transition(&pre_states[j], action, &step.outcome);
            agents[j].observe(&obs, &mut rngs[j]);
            if !step.auto_reset {
                continue;
            }
            // Episode finished (the slot already holds the next episode's
            // initial observation): the trainer's protocol, stopping before
            // the reset rule as `Trainer::run_vec` does.
            let episode_return = std::mem::take(&mut episode_returns[j]);
            if trainer.close_episode(&mut books[j], agents[j].as_mut(), episode_return) {
                active[j] = false;
            } else {
                trainer.reset_if_due(&mut books[j], agents[j].as_mut(), &mut rngs[j]);
            }
        }
        let shard_episodes: usize = books.iter().map(|book| book.episodes_run).sum();
        if abort_after_episodes.is_some_and(|limit| shard_episodes >= limit) {
            // The injected fault fires: the shard dies at the end of this
            // tick and none of its (even finished) replicas report back.
            return None;
        }
    }

    // Evaluate: batched greedy rollout of each replica's final policy.
    let outcomes = replicas
        .iter()
        .zip(books)
        .zip(agents.iter_mut())
        .map(|((&replica, book), agent)| {
            let result = book.into_result(agent.as_ref(), Duration::ZERO);
            ReplicaOutcome::new(replica, config, spec, agent.as_mut(), result)
        })
        .collect();
    Some(outcomes)
}

/// Run `episodes` greedy episodes in lockstep, scoring every still-running
/// episode with **one** batched forward pass per tick, and return the mean
/// raw return. This is where `predict_batch` earns its matmul: B states ×
/// A actions collapse into a single `(B·A) × n` product.
fn greedy_eval(
    agent: &mut dyn BatchAgent,
    spec: &EnvSpec,
    eval_seed: u64,
    episodes: usize,
) -> Option<f64> {
    if episodes == 0 {
        return None;
    }
    let mut rngs: Vec<SmallRng> = (0..episodes)
        .map(|e| SmallRng::seed_from_u64(crate::seed::split_seed(eval_seed, e as u64)))
        .collect();
    let mut vec_env = VecEnv::from_spec(spec, episodes);
    vec_env.reset_all(&mut rngs);
    let mut finished = vec![false; episodes];
    let mut returns = vec![0.0f64; episodes];
    while finished.iter().any(|f| !f) {
        let running: Vec<usize> = (0..episodes).filter(|&e| !finished[e]).collect();
        // One batched forward for every running episode.
        let batch: Matrix<f64> = vec_env.states().gather_rows(&running);
        let greedy = agent.act_batch_greedy(&batch);
        let mut actions: Vec<Option<usize>> = vec![None; episodes];
        for (row, &e) in running.iter().enumerate() {
            actions[e] = Some(greedy[row]);
        }
        let outs = vec_env.step(&actions, &mut rngs);
        for (e, out) in outs.iter().enumerate() {
            let Some(step) = out else { continue };
            returns[e] += step.outcome.reward;
            if step.auto_reset {
                // Exactly one episode per slot: stop at the first finish.
                finished[e] = true;
            }
        }
    }
    Some(returns.iter().sum::<f64>() / episodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(shards: usize) -> PopulationConfig {
        let mut config = PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 6);
        config.shards = shards;
        config.seed = 11;
        config.max_episodes = 4;
        config.eval_episodes = 3;
        config
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let q = QuantileSummary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(q.count, 4);
        assert_eq!(q.mean, Some(25.0));
        assert_eq!(q.p25, Some(10.0));
        assert_eq!(q.p50, Some(20.0));
        assert_eq!(q.p75, Some(30.0));
        assert_eq!(q.p90, Some(40.0));
        let empty = QuantileSummary::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50, None);
        let one = QuantileSummary::of(&[7.0]);
        assert_eq!(one.p25, Some(7.0));
        assert_eq!(one.p90, Some(7.0));
    }

    #[test]
    fn shard_ranges_partition_the_population() {
        let mut config = tiny_config(4);
        config.population = 10;
        let runner = PopulationRunner::new(config);
        let ranges = runner.shard_ranges();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[1], 3..6);
        assert_eq!(ranges[2], 6..8);
        assert_eq!(ranges[3], 8..10);
        // More shards than replicas: clamped, never empty.
        let mut config = tiny_config(9);
        config.population = 3;
        let ranges = PopulationRunner::new(config).shard_ranges();
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn report_covers_every_replica_in_order() {
        let report = PopulationRunner::new(tiny_config(2)).run();
        assert_eq!(report.population, 6);
        assert_eq!(report.replicas.len(), 6);
        for (i, r) in report.replicas.iter().enumerate() {
            assert_eq!(r.replica, i);
            assert_eq!(r.seed, replica_train_seed(11, i));
            assert!(r.episodes_run >= 1 && r.episodes_run <= 4);
            assert!(r.total_steps >= r.episodes_run);
            assert!(r.greedy_eval_return.is_some());
        }
        assert_eq!(
            report.solved,
            report.replicas.iter().filter(|r| r.solved).count()
        );
        assert!((0.0..=1.0).contains(&report.solve_rate));
        assert_eq!(report.design, "OS-ELM-L2-Lipschitz");
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let baseline = PopulationRunner::new(tiny_config(1)).run();
        for shards in [2, 3, 6] {
            let sharded = PopulationRunner::new(tiny_config(shards)).run();
            assert_eq!(baseline, sharded, "shards = {shards}");
        }
    }

    #[test]
    fn replicas_carry_their_learning_curves() {
        let report = PopulationRunner::new(tiny_config(1)).run();
        for r in &report.replicas {
            assert_eq!(
                r.returns.len(),
                r.episodes_run,
                "one return per completed episode"
            );
            assert!(r.returns.iter().all(|v| v.is_finite()));
        }
        assert_eq!(report.train_envs, 1);
    }

    #[test]
    fn train_envs_population_is_shard_invariant_and_recorded() {
        let config_with = |shards: usize| {
            let mut config = tiny_config(shards);
            config.train_envs = 3;
            config
        };
        let baseline = PopulationRunner::new(config_with(1)).run();
        assert_eq!(baseline.train_envs, 3);
        assert_eq!(baseline.replicas.len(), 6);
        for r in &baseline.replicas {
            assert_eq!(r.returns.len(), r.episodes_run);
            assert!(r.episodes_run <= 4);
            assert!(r.total_steps >= r.episodes_run);
        }
        for shards in [2, 6] {
            let sharded = PopulationRunner::new(config_with(shards)).run();
            assert_eq!(baseline, sharded, "shards = {shards}");
        }
        // E changes the learning trajectory relative to the scalar path.
        let scalar = PopulationRunner::new(tiny_config(1)).run();
        assert_ne!(
            scalar.replicas, baseline.replicas,
            "E > 1 must not silently replay the scalar protocol"
        );
    }

    #[test]
    fn scalar_replica_stops_at_the_budget_before_the_reset_rule() {
        // A budget equal to the workload's reset period and a threshold no
        // episode reaches: the reset rule would fire after the last episode,
        // but the lockstep loop stops at the budget first, as `run_vec` does.
        let reset_after = Workload::CartPole
            .spec()
            .defaults
            .reset_after_episodes
            .expect("CartPole resets unsolved agents");
        let mut config = PopulationConfig::new(Workload::CartPole, Design::OsElm, 4, 1);
        config.options.solve_threshold = Some(1e9);
        config.max_episodes = reset_after;
        config.eval_episodes = 0;
        let report = PopulationRunner::new(config).run();
        let replica = &report.replicas[0];
        assert!(!replica.solved);
        assert_eq!(replica.episodes_run, reset_after);
        assert_eq!(replica.resets, 0);
    }

    #[test]
    fn report_records_the_effective_chunk_cap() {
        // Scalar protocol: the cap is inert and stays unrecorded.
        let scalar = PopulationRunner::new(tiny_config(1)).run();
        assert_eq!(scalar.chunk_cap, None);

        // E > 1 on a chunked OS-ELM design: the cap is live and recorded.
        let mut config = tiny_config(1);
        config.train_envs = 3;
        let batched = PopulationRunner::new(config).run();
        assert_eq!(batched.chunk_cap, Some(elmrl_core::DEFAULT_CHUNK_CAP));
    }

    #[test]
    fn fault_plan_parses_the_cli_form() {
        assert_eq!(
            FaultPlan::parse("2@15"),
            Ok(FaultPlan {
                shard: 2,
                at_episode: 15
            })
        );
        assert_eq!(
            FaultPlan::parse(" 0 @ 0 "),
            Ok(FaultPlan {
                shard: 0,
                at_episode: 0
            })
        );
        assert!(FaultPlan::parse("3").is_err());
        assert!(FaultPlan::parse("a@b").is_err());
    }

    #[test]
    fn killed_shard_replicas_requeue_onto_survivors_byte_identically() {
        let baseline = PopulationRunner::new(tiny_config(3)).run();
        for (shard, at_episode) in [(0, 0), (1, 2), (2, 5)] {
            let faulted = PopulationRunner::new(tiny_config(3))
                .run_checkpointed(Some(FaultPlan { shard, at_episode }), &[]);
            assert_eq!(
                baseline, faulted.report,
                "fail-shard {shard}@{at_episode} changed the report"
            );
            assert!(faulted.manifests[shard].failed);
            assert!(faulted.manifests[shard].completed.is_empty());
            // Every replica still reports: the orphans live in survivor
            // manifests.
            let held: usize = faulted.manifests.iter().map(|m| m.completed.len()).sum();
            assert_eq!(held, 6);
            // JSON byte identity — the property the CI job cmp-checks.
            assert_eq!(
                serde_json::to_string(&baseline).unwrap(),
                serde_json::to_string(&faulted.report).unwrap()
            );
        }
    }

    #[test]
    fn fault_injection_is_byte_identical_for_train_envs_gt_one() {
        let config_with = |shards: usize| {
            let mut config = tiny_config(shards);
            config.train_envs = 2;
            config
        };
        let baseline = PopulationRunner::new(config_with(3)).run();
        let faulted = PopulationRunner::new(config_with(3)).run_checkpointed(
            Some(FaultPlan {
                shard: 1,
                at_episode: 3,
            }),
            &[],
        );
        assert_eq!(baseline, faulted.report);
    }

    #[test]
    fn manifests_cover_the_population_and_round_trip_through_json() {
        let run = PopulationRunner::new(tiny_config(2)).run_checkpointed(None, &[]);
        assert_eq!(run.manifests.len(), 2);
        let mut seen = Vec::new();
        for m in &run.manifests {
            assert_eq!(m.version, MANIFEST_VERSION);
            assert!(!m.failed);
            assert_eq!(
                m.assigned,
                m.completed.iter().map(|r| r.replica).collect::<Vec<_>>()
            );
            seen.extend(m.assigned.iter().copied());
            let back = ShardManifest::from_json(&m.to_json().unwrap()).unwrap();
            assert_eq!(&back, m);
        }
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        // Unknown versions are rejected.
        let mut bad = run.manifests[0].clone();
        bad.version = 99;
        assert!(ShardManifest::from_json(&bad.to_json().unwrap())
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn resume_from_manifests_skips_completed_replicas() {
        // A killed run leaves partial manifests; resuming from them must
        // produce the same report as a straight-through run.
        let baseline = PopulationRunner::new(tiny_config(3)).run();
        let crashed = PopulationRunner::new(tiny_config(3)).run_checkpointed(
            Some(FaultPlan {
                shard: 2,
                at_episode: 0,
            }),
            &[],
        );
        // Simulate the driver dying before the requeue wave: strip the
        // requeued outcomes back out so only shards 0 and 1 have custody.
        let mut partial = crashed.manifests.clone();
        for m in &mut partial {
            m.completed.retain(|r| m.assigned.contains(&r.replica));
        }
        let held: usize = partial.iter().map(|m| m.completed.len()).sum();
        assert!(held < 6, "the crash must actually lose replicas");

        let resumed = PopulationRunner::new(tiny_config(3)).run_checkpointed(None, &partial);
        assert_eq!(baseline, resumed.report);
    }

    #[test]
    fn replica_set_grows_and_shrinks_elastically_across_resumes() {
        let manifests = PopulationRunner::new(tiny_config(2))
            .run_checkpointed(None, &[])
            .manifests;

        // Grow 6 → 9: adopted outcomes for 0..6, fresh runs for 6..9, and
        // the report matches a fresh 9-replica run byte for byte.
        let grow = |mut c: PopulationConfig| {
            c.population = 9;
            c
        };
        let fresh9 = PopulationRunner::new(grow(tiny_config(2))).run();
        let grown = PopulationRunner::new(grow(tiny_config(2))).run_checkpointed(None, &manifests);
        assert_eq!(fresh9, grown.report);

        // Shrink 6 → 4: extra outcomes are dropped.
        let shrink = |mut c: PopulationConfig| {
            c.population = 4;
            c
        };
        let fresh4 = PopulationRunner::new(shrink(tiny_config(2))).run();
        let shrunk =
            PopulationRunner::new(shrink(tiny_config(2))).run_checkpointed(None, &manifests);
        assert_eq!(fresh4, shrunk.report);
        assert_eq!(shrunk.report.replicas.len(), 4);
    }

    #[test]
    fn manifests_save_and_load_from_a_directory() {
        let dir = std::env::temp_dir().join(format!("elmrl-manifests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut run = PopulationRunner::new(tiny_config(3)).run_checkpointed(None, &[]);
        for m in &run.manifests {
            m.save(&dir).unwrap();
        }
        let loaded = ShardManifest::load_dir(&dir).unwrap();
        assert_eq!(loaded, run.manifests);
        // A crash in the middle of the next save leaves half a manifest in
        // its temp file next to the valid one; `load_dir` must not read it.
        let json = run.manifests[0].to_json().unwrap();
        let tmp = dir.join(".shard-0.json.tmp");
        std::fs::write(&tmp, &json[..json.len() / 2]).unwrap();
        assert_eq!(ShardManifest::load_dir(&dir).unwrap(), run.manifests);
        // A shorter manifest saved over a longer one leaves no tail behind.
        run.manifests[0].completed.truncate(1);
        run.manifests[0].save(&dir).unwrap();
        assert!(!tmp.exists());
        assert_eq!(ShardManifest::load_dir(&dir).unwrap(), run.manifests);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fpga_design_runs_through_the_population_path() {
        let mut config = tiny_config(2);
        config.design = Design::Fpga;
        config.population = 2;
        config.max_episodes = 2;
        let report = PopulationRunner::new(config).run();
        assert_eq!(report.design, "FPGA");
        assert_eq!(report.replicas.len(), 2);
    }

    #[test]
    fn eval_pass_can_be_disabled() {
        let mut config = tiny_config(1);
        config.eval_episodes = 0;
        config.population = 2;
        config.max_episodes = 2;
        let report = PopulationRunner::new(config).run();
        assert!(report.mean_greedy_eval_return.is_none());
        assert!(report
            .replicas
            .iter()
            .all(|r| r.greedy_eval_return.is_none()));
    }
}
