//! The episode loop driving every design through the reinforcement-learning
//! task (§4.3–4.4).
//!
//! The trainer reproduces the paper's experimental protocol:
//!
//! * episodes run until the task is *solved* (CartPole-v0: 100-episode moving
//!   average ≥ 195) or the episode budget is exhausted (the paper terminates
//!   a trial as "impossible" after 50 000 episodes);
//! * the ELM/OS-ELM designs are **reset** — weights re-drawn, training state
//!   discarded — when they have not solved the task after a configurable
//!   number of episodes (300 in §4.3), because their dependence on the random
//!   initial `α` is high;
//! * wall-clock time and per-operation counters are recorded so the harness
//!   can produce the Figure 5/6 execution-time breakdowns.
//!
//! The trainer itself is environment-generic: the solve criterion, reward
//! shaping, reset rule and episode budget all come from [`TrainerConfig`],
//! and [`TrainerConfig::for_workload`] fills them from a registered
//! [`EnvSpec`], so the same loop drives CartPole, MountainCar, Pendulum and
//! any future registry entry.

use crate::agent::{Agent, Observation};
use crate::batch::BatchAgent;
use crate::checkpoint::{
    rng_from_words, rng_state_words, snapshot_agent, AgentSnapshot, RunCheckpoint, SlotCheckpoint,
    SNAPSHOT_SCHEMA_VERSION,
};
use crate::designs::Design;
use crate::ops::OpCounts;
use crate::reward::RewardShaping;
use elmrl_gym::{EnvSpec, Environment, EpisodeStats, StepOutcome, VecEnv};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

pub use elmrl_gym::workload::SolveCriterion;

/// Trainer configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Maximum number of episodes before the trial is declared unsolved
    /// (the paper uses 50 000; tests use much smaller budgets).
    pub max_episodes: usize,
    /// Reset the agent when it has not solved the task after this many
    /// episodes since the last reset (§4.3 uses 300). `None` disables resets
    /// (the DQN baseline is never reset).
    pub reset_after_episodes: Option<usize>,
    /// Stop as soon as the task is solved (set false to keep collecting the
    /// full training curve for Figure 4).
    pub stop_when_solved: bool,
    /// Completion rule (see [`SolveCriterion`]).
    pub solve_criterion: SolveCriterion,
    /// Moving-average window recorded in the per-episode statistics (100 in
    /// the paper's Figure 4).
    pub solved_window: usize,
    /// Reward shaping applied before transitions reach the agent.
    pub reward_shaping: RewardShaping,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            max_episodes: 2_000,
            reset_after_episodes: Some(300),
            stop_when_solved: true,
            solve_criterion: SolveCriterion::default(),
            solved_window: 100,
            reward_shaping: RewardShaping::SurvivalSigned,
        }
    }
}

impl TrainerConfig {
    /// The protocol a registered workload declares for itself: its solve
    /// criterion, reward shaping, reset rule and episode budget. For
    /// [`elmrl_gym::Workload::CartPole`] this equals [`TrainerConfig::default`].
    pub fn for_workload(spec: &EnvSpec) -> Self {
        Self {
            max_episodes: spec.defaults.max_episodes,
            reset_after_episodes: spec.defaults.reset_after_episodes,
            stop_when_solved: true,
            solve_criterion: spec.solve_criterion,
            solved_window: 100,
            reward_shaping: spec.reward_shaping,
        }
    }

    /// [`TrainerConfig::for_workload`] for one design. The paper resets
    /// only the ELM/OS-ELM designs (§4.3), so the DQN baseline runs without
    /// the reset rule.
    pub fn for_design(spec: &EnvSpec, design: Design) -> Self {
        let mut config = Self::for_workload(spec);
        if design == Design::Dqn {
            config.reset_after_episodes = None;
        }
        config
    }

    /// A small-budget configuration for tests and examples.
    pub fn quick(max_episodes: usize) -> Self {
        Self {
            max_episodes,
            ..Self::default()
        }
    }
}

/// The outcome of one training trial.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainingResult {
    /// Design name as reported by the agent.
    pub design: String,
    /// Hidden size `Ñ`.
    pub hidden_dim: usize,
    /// Whether the solve criterion was met within the episode budget.
    pub solved: bool,
    /// Episode index (0-based) at which the task became solved, if it did.
    pub solved_at_episode: Option<usize>,
    /// Number of episodes actually run.
    pub episodes_run: usize,
    /// Total environment steps taken.
    pub total_steps: usize,
    /// How many times the reset rule fired.
    pub resets: usize,
    /// Wall-clock time of the whole trial.
    pub wall_time: Duration,
    /// Per-episode returns and moving averages (the Figure 4 curve).
    pub stats: EpisodeStats,
    /// Per-operation counters (the Figure 5/6 breakdown).
    pub op_counts: OpCounts,
}

impl TrainingResult {
    /// Wall-clock seconds of the trial (the y-axis of Figure 5).
    pub fn wall_seconds(&self) -> f64 {
        self.wall_time.as_secs_f64()
    }
}

/// Checkpoint control for a single trial: when to capture, where captured
/// checkpoints go, what to resume from, and an optional fault-injection stop.
///
/// The determinism contract: a run resumed from a checkpoint captured at
/// episode `N` continues **bit for bit** identically to a run that never
/// stopped — same RNG draws, same agent updates, same statistics. Captures
/// have no side effects (no RNG draws, no agent mutation), so enabling
/// checkpointing never changes a trajectory.
///
/// The default value disables everything; [`Trainer::run`] /
/// [`Trainer::run_vec`] are thin wrappers over the checkpointed drivers with
/// this default.
#[derive(Default)]
pub struct CheckpointCtl<'a> {
    /// Capture a checkpoint whenever the completed-episode count crosses a
    /// multiple of this (0 = never). For vectorized runs a single tick can
    /// complete several episodes; one capture is taken per crossed boundary
    /// tick, at the end of the tick.
    pub every: usize,
    /// Abandon the run once this many episodes have completed — the crash
    /// half of fault injection. The boundary checkpoint is still captured
    /// first, so `stop_after: Some(n)` with `every` dividing `n` simulates a
    /// kill at episode `n` with its checkpoint on disk.
    pub stop_after: Option<usize>,
    /// Continue from this previously captured checkpoint instead of starting
    /// fresh.
    pub resume: Option<&'a RunCheckpoint>,
    /// Receives every captured checkpoint (write it to disk, keep the latest,
    /// …). Captures are skipped entirely when absent.
    pub sink: Option<&'a mut dyn FnMut(RunCheckpoint)>,
    /// Internal: next episode-count boundary to capture at.
    next_mark: usize,
}

impl<'a> CheckpointCtl<'a> {
    /// A control block that checkpoints every `every` episodes into `sink`.
    pub fn saving(every: usize, sink: &'a mut dyn FnMut(RunCheckpoint)) -> Self {
        Self {
            every,
            sink: Some(sink),
            ..Self::default()
        }
    }

    /// A control block that resumes from `ckpt` (and keeps checkpointing
    /// into `sink` on the same schedule).
    pub fn resuming(
        ckpt: &'a RunCheckpoint,
        every: usize,
        sink: &'a mut dyn FnMut(RunCheckpoint),
    ) -> Self {
        Self {
            every,
            resume: Some(ckpt),
            sink: Some(sink),
            ..Self::default()
        }
    }

    /// Arm the capture schedule given the episode count the run starts at.
    fn arm(&mut self, episodes_run: usize) {
        // `every == 0` means the schedule is disarmed: no finite mark.
        self.next_mark = match episodes_run.checked_div(self.every) {
            Some(marks) => (marks + 1) * self.every,
            None => usize::MAX,
        };
    }

    /// Whether the run has crossed the next capture boundary. Allocation-free
    /// — safe to ask every tick.
    fn capture_due(&self, episodes_run: usize) -> bool {
        self.sink.is_some() && episodes_run >= self.next_mark
    }

    /// Hand a captured checkpoint to the sink and advance the schedule.
    fn emit(&mut self, ckpt: RunCheckpoint) {
        self.next_mark = (ckpt.episodes_run / self.every + 1) * self.every;
        if let Some(sink) = self.sink.as_mut() {
            sink(ckpt);
        }
    }

    /// Whether the fault-injection stop fires at this episode count.
    fn stop_now(&self, episodes_run: usize) -> bool {
        self.stop_after.is_some_and(|n| episodes_run >= n)
    }
}

/// The episode bookkeeping every driver shares: statistics, counters and the
/// solve mark. [`Trainer::close_episode`] and [`Trainer::reset_if_due`]
/// apply the protocol to it, so the scalar loop, the E-slot loop and the
/// population replicas count, solve, stop and reset by the same rules.
#[derive(Clone, Debug)]
pub struct EpisodeBook {
    /// Per-episode returns and moving averages (the Figure 4 curve).
    pub stats: EpisodeStats,
    /// Environment steps taken; the driver adds one per transition.
    pub total_steps: usize,
    /// How many times the reset rule fired.
    pub resets: usize,
    /// Episodes completed.
    pub episodes_run: usize,
    /// Episode index (0-based) at which the solve criterion first fired.
    pub solved_at_episode: Option<usize>,
    episodes_since_reset: usize,
}

impl EpisodeBook {
    /// The bookkeeping of a captured run, after checking that the
    /// checkpoint's counters agree with each other: one return and one
    /// moving average per completed episode, a solving episode among the
    /// completed ones, and no more episodes since the last reset than in
    /// total.
    pub fn resume(ckpt: &RunCheckpoint) -> Result<Self, String> {
        let episodes = ckpt.episodes_run;
        let returns = ckpt.stats.returns.len();
        let averages = ckpt.stats.moving_averages.len();
        let since_reset = ckpt.episodes_since_reset;
        let fail = |what: String| Err(format!("inconsistent checkpoint: {what}"));
        if returns != episodes {
            return fail(format!("{returns} returns for {episodes} episodes"));
        }
        if averages != returns {
            return fail(format!("{averages} moving averages for {returns} returns"));
        }
        if let Some(solved) = ckpt.solved_at_episode.filter(|&e| e >= episodes) {
            return fail(format!("solved at episode {solved} of {episodes}"));
        }
        if since_reset > episodes {
            return fail(format!(
                "{since_reset} episodes since a reset, {episodes} in all"
            ));
        }
        Ok(Self {
            stats: ckpt.stats.clone(),
            total_steps: ckpt.total_steps,
            resets: ckpt.resets,
            episodes_run: episodes,
            solved_at_episode: ckpt.solved_at_episode,
            episodes_since_reset: ckpt.episodes_since_reset,
        })
    }

    /// The checkpoint of a run whose bookkeeping stands here, with the
    /// driver's own state: the agent snapshot, the master RNG stream, the
    /// scalar environment's state or the per-slot states.
    pub fn checkpoint(
        &self,
        agent: AgentSnapshot,
        rng: &SmallRng,
        env_state: Option<Vec<f64>>,
        slots: Option<Vec<SlotCheckpoint>>,
    ) -> RunCheckpoint {
        RunCheckpoint {
            version: SNAPSHOT_SCHEMA_VERSION,
            episodes_run: self.episodes_run,
            total_steps: self.total_steps,
            resets: self.resets,
            episodes_since_reset: self.episodes_since_reset,
            solved_at_episode: self.solved_at_episode,
            stats: self.stats.clone(),
            agent,
            rng: rng_state_words(rng),
            env_state,
            slots,
        }
    }

    /// The trial outcome of a finished run.
    pub fn into_result<A: Agent + ?Sized>(self, agent: &A, wall_time: Duration) -> TrainingResult {
        TrainingResult {
            design: agent.name().to_string(),
            hidden_dim: agent.hidden_dim(),
            solved: self.solved_at_episode.is_some(),
            solved_at_episode: self.solved_at_episode,
            episodes_run: self.episodes_run,
            total_steps: self.total_steps,
            resets: self.resets,
            wall_time,
            stats: self.stats,
            op_counts: agent.op_counts().clone(),
        }
    }
}

/// The episode-loop driver.
#[derive(Clone, Debug)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    fn criterion_met(&self, stats: &EpisodeStats, last_return: f64) -> bool {
        self.config.solve_criterion.met(&stats.returns, last_return)
    }

    /// The transition an agent learns from: `outcome` after `action` in
    /// `state`, its reward shaped by the configured [`RewardShaping`].
    pub fn transition(&self, state: &[f64], action: usize, outcome: &StepOutcome) -> Observation {
        let shaping = self.config.reward_shaping;
        Observation {
            state: state.to_vec(),
            action,
            reward: shaping.shape(outcome.reward, outcome.done, outcome.truncated),
            next_state: outcome.observation.clone(),
            done: outcome.done,
            truncated: outcome.truncated,
        }
    }

    /// An empty episode book; `threshold` is the environment's
    /// moving-average solve threshold recorded in the statistics.
    pub fn book(&self, threshold: Option<f64>) -> EpisodeBook {
        EpisodeBook {
            stats: EpisodeStats::with_window(self.config.solved_window, threshold),
            total_steps: 0,
            resets: 0,
            episodes_run: 0,
            solved_at_episode: None,
            episodes_since_reset: 0,
        }
    }

    /// Whether a run at this point of its bookkeeping is over: solved under
    /// `stop_when_solved`, or the episode budget spent.
    fn run_over(&self, book: &EpisodeBook) -> bool {
        (book.solved_at_episode.is_some() && self.config.stop_when_solved)
            || book.episodes_run >= self.config.max_episodes
    }

    /// Book one finished episode: [`Agent::end_episode`], the counters, the
    /// statistics and the solve check. Returns `true` when the run must
    /// stop (solved under `stop_when_solved`, or the budget spent).
    pub fn close_episode<A: Agent + ?Sized>(
        &self,
        book: &mut EpisodeBook,
        agent: &mut A,
        episode_return: f64,
    ) -> bool {
        let episode = book.episodes_run;
        agent.end_episode(episode);
        book.episodes_run += 1;
        book.episodes_since_reset += 1;
        book.stats.record_episode(episode_return);
        if book.solved_at_episode.is_none() && self.criterion_met(&book.stats, episode_return) {
            book.solved_at_episode = Some(episode);
        }
        self.run_over(book)
    }

    /// The reset rule (§4.3): an unsolved agent is re-drawn once
    /// `reset_after_episodes` episodes have passed since its last reset.
    pub fn reset_if_due<A: Agent + ?Sized>(
        &self,
        book: &mut EpisodeBook,
        agent: &mut A,
        rng: &mut SmallRng,
    ) {
        let due = self
            .config
            .reset_after_episodes
            .is_some_and(|after| book.episodes_since_reset >= after);
        if due && book.solved_at_episode.is_none() {
            agent.reset(rng);
            book.resets += 1;
            book.episodes_since_reset = 0;
        }
    }

    /// Run one trial of `agent` on `env`.
    pub fn run(
        &self,
        agent: &mut dyn Agent,
        env: &mut dyn Environment,
        rng: &mut SmallRng,
    ) -> TrainingResult {
        self.run_checkpointed(agent, env, rng, &mut CheckpointCtl::default())
            .expect("a run without checkpointing cannot fail")
    }

    /// [`Trainer::run`] with checkpoint capture, resume and fault injection.
    ///
    /// Checkpoints are captured at episode boundaries, after *all* of the
    /// episode's bookkeeping (target sync, statistics, solve check, reset
    /// rule), so the captured state is exactly the state the next episode
    /// starts from. Errors only on an invalid resume checkpoint or when a
    /// capture is requested from an agent that does not support snapshots.
    ///
    /// Unlike [`Trainer::run_vec`] and the population engine, which stop
    /// first, this loop applies the reset rule even on the episode that
    /// spends the budget, so that episode can count one more reset.
    pub fn run_checkpointed(
        &self,
        agent: &mut dyn Agent,
        env: &mut dyn Environment,
        rng: &mut SmallRng,
        ctl: &mut CheckpointCtl<'_>,
    ) -> Result<TrainingResult, String> {
        let start = Instant::now();
        let mut book = match ctl.resume {
            Some(ckpt) => {
                if ckpt.slots.is_some() {
                    return Err(
                        "checkpoint was captured by a vectorized run; resume with run_vec"
                            .to_owned(),
                    );
                }
                let book = EpisodeBook::resume(ckpt)?;
                agent.restore(&ckpt.agent)?;
                *rng = rng_from_words(&ckpt.rng)?;
                if let Some(env_state) = &ckpt.env_state {
                    env.load_state(env_state)?;
                }
                book
            }
            None => self.book(env.solved_threshold()),
        };
        ctl.arm(book.episodes_run);

        // A run resumed from the checkpoint of its last episode (the solving
        // one, or the one that spent the budget) has nothing left to run.
        let mut stop = self.run_over(&book);
        while !stop {
            let mut state = {
                let _span = elmrl_telemetry::hist!("env.reset").span();
                env.reset(rng)
            };
            let mut episode_return = 0.0;

            loop {
                let action = agent.act(&state, rng);
                let outcome = {
                    let _span = elmrl_telemetry::hist!("env.step").span();
                    env.step(action, rng)
                };
                book.total_steps += 1;
                episode_return += outcome.reward;
                agent.observe(&self.transition(&state, action, &outcome), rng);
                state = outcome.observation;
                if outcome.done || outcome.truncated {
                    break;
                }
            }

            stop = self.close_episode(&mut book, agent, episode_return);
            self.reset_if_due(&mut book, agent, rng);
            if ctl.capture_due(book.episodes_run) {
                let _span = elmrl_telemetry::hist!("checkpoint.capture").span();
                ctl.emit(book.checkpoint(snapshot_agent(agent)?, rng, env.save_state(), None));
            }
            stop |= ctl.stop_now(book.episodes_run);
        }

        Ok(book.into_result(agent, start.elapsed()))
    }

    /// Run one trial of `agent` against **E parallel episodes** — the
    /// batched training driver behind `--train-envs`.
    ///
    /// Every engine tick steps all still-active episode slots of `vec_env`
    /// in lockstep: the agent picks one ε-greedy action per slot through
    /// the batched forward kernel ([`BatchAgent::act_row`], slot `j`
    /// drawing from its own RNG stream), the environments advance (finished
    /// slots auto-reset), and the tick's transitions are handed to the
    /// agent as **one** [`BatchAgent::observe_batch`] call — for the OS-ELM
    /// designs a single batch-B RLS chunk, for DQN one minibatch SGD step.
    ///
    /// Protocol semantics generalise the scalar loop:
    ///
    /// * **Episode accounting** is global and deterministic: episodes are
    ///   numbered in completion order (ticks in time order, slots in index
    ///   order within a tick), each completion drives
    ///   [`Agent::end_episode`], the per-episode statistics, the solve
    ///   criterion and the reset rule exactly as in [`Trainer::run`].
    /// * **Determinism**: slot RNG streams are seeded from `rng` up front
    ///   and the gating/reset draws use `rng` itself, so a run is a pure
    ///   function of (agent seed, `rng` state, E).
    /// * **Budget**: the trial stops once `max_episodes` episodes have
    ///   completed (or the criterion fires with `stop_when_solved`);
    ///   in-flight episodes on other slots are abandoned, and their steps
    ///   stay in `total_steps` (every consumed environment transition is
    ///   counted). The stop comes before the reset rule, so the episode
    ///   that spends the budget never triggers a reset.
    ///
    /// With E = 1 the loop performs the same episode protocol as
    /// [`Trainer::run`] but draws its environment randomness from a derived
    /// slot stream and updates through chunk-size-1 `observe_batch`, so the
    /// trajectory differs from the scalar loop's; callers that need the
    /// paper's byte-exact B = 1 protocol (the default everywhere) use
    /// [`Trainer::run`], which `run_trial` dispatches to whenever
    /// `train_envs == 1`; the population engine runs its own lockstep
    /// E = 1 loop on the same [`EpisodeBook`].
    pub fn run_vec(
        &self,
        agent: &mut dyn BatchAgent,
        vec_env: &mut VecEnv,
        rng: &mut SmallRng,
    ) -> TrainingResult {
        self.run_vec_checkpointed(agent, vec_env, rng, &mut CheckpointCtl::default())
            .expect("a run without checkpointing cannot fail")
    }

    /// [`Trainer::run_vec`] with checkpoint capture, resume and fault
    /// injection.
    ///
    /// Vectorized checkpoints are captured at **end of tick** (never
    /// mid-tick): a tick that crosses an `every` boundary — possibly
    /// completing several episodes at once — first finishes all of its
    /// bookkeeping, then the full engine state (per-slot environment states,
    /// observations, RNG cursors, in-flight returns, active flags, plus the
    /// master stream and the agent snapshot) is captured. A resumed run
    /// re-enters the tick loop exactly where the original would have, so the
    /// suffix replays bit for bit.
    pub fn run_vec_checkpointed(
        &self,
        agent: &mut dyn BatchAgent,
        vec_env: &mut VecEnv,
        rng: &mut SmallRng,
        ctl: &mut CheckpointCtl<'_>,
    ) -> Result<TrainingResult, String> {
        let start = Instant::now();
        let e = vec_env.len();
        let mut slot_rngs: Vec<SmallRng>;
        let mut episode_returns = vec![0.0f64; e];
        let mut active = vec![self.config.max_episodes > 0; e];

        let mut book = if let Some(ckpt) = ctl.resume {
            let Some(slots) = &ckpt.slots else {
                return Err(
                    "checkpoint was captured by a scalar run; resume with run (not run_vec)"
                        .to_owned(),
                );
            };
            if slots.len() != e {
                return Err(format!(
                    "checkpoint has {} slots but the vector environment has {e}",
                    slots.len()
                ));
            }
            let book = EpisodeBook::resume(ckpt)?;
            agent.restore(&ckpt.agent)?;
            // The master stream already consumed the slot-seeding draws
            // before the capture, so restoring it replaces (not repeats)
            // the seeding step.
            *rng = rng_from_words(&ckpt.rng)?;
            slot_rngs = Vec::with_capacity(e);
            for (j, slot) in slots.iter().enumerate() {
                slot_rngs.push(rng_from_words(&slot.rng)?);
                vec_env.restore_slot(j, &slot.env_state, &slot.observation)?;
                episode_returns[j] = slot.episode_return;
                active[j] = slot.active;
            }
            book
        } else {
            // Per-slot environment/policy streams, split deterministically
            // from the master stream before the first tick.
            slot_rngs = (0..e).map(|_| SmallRng::seed_from_u64(rng.gen())).collect();
            let _span = elmrl_telemetry::hist!("env.reset").span();
            vec_env.reset_all(&mut slot_rngs);
            self.book(vec_env.solved_threshold())
        };
        ctl.arm(book.episodes_run);

        let mut actions: Vec<Option<usize>> = vec![None; e];
        let mut pre_states: Vec<Vec<f64>> = vec![Vec::new(); e];
        let mut tick_obs: Vec<Observation> = Vec::with_capacity(e);
        let mut state_row = Matrix::zeros(1, vec_env.obs_dim());

        while active.iter().any(|&a| a) {
            // Determine: one batched-kernel ε-greedy decision per active slot.
            for j in 0..e {
                actions[j] = if active[j] {
                    pre_states[j].clear();
                    pre_states[j].extend_from_slice(vec_env.state(j));
                    state_row.set_row(0, &pre_states[j]);
                    Some(agent.act_row(&state_row, &mut slot_rngs[j]))
                } else {
                    None
                };
            }

            // Observe: one lockstep environment tick with auto-reset. The
            // span covers the whole E-slot tick, so `env.step` here counts
            // ticks (not per-slot steps) — documented in the README.
            let outs = {
                let _span = elmrl_telemetry::hist!("env.step").span();
                vec_env.step(&actions, &mut slot_rngs)
            };

            // Store + Update: the whole tick as one batched agent update.
            tick_obs.clear();
            for j in 0..e {
                let (Some(action), Some(step)) = (actions[j], &outs[j]) else {
                    continue;
                };
                book.total_steps += 1;
                episode_returns[j] += step.outcome.reward;
                tick_obs.push(self.transition(&pre_states[j], action, &step.outcome));
            }
            agent.observe_batch(&tick_obs, rng);

            // Episode bookkeeping in deterministic completion order (slot
            // index order within the tick).
            for j in 0..e {
                if !outs[j].as_ref().is_some_and(|step| step.auto_reset) {
                    continue;
                }
                let episode_return = std::mem::take(&mut episode_returns[j]);
                if self.close_episode(&mut book, agent, episode_return) {
                    active.fill(false);
                    break;
                }
                self.reset_if_due(&mut book, agent, rng);
            }

            // End of tick: every mid-tick state (including a budget stop that
            // abandoned in-flight slots above) has settled, so this is the
            // only point where the engine state is a valid resume target.
            if ctl.capture_due(book.episodes_run) {
                let _span = elmrl_telemetry::hist!("checkpoint.capture").span();
                let mut slots = Vec::with_capacity(e);
                for j in 0..e {
                    let env_state = vec_env.save_slot_state(j).ok_or_else(|| {
                        "vector environment slot does not support save_state".to_owned()
                    })?;
                    slots.push(SlotCheckpoint {
                        rng: rng_state_words(&slot_rngs[j]),
                        env_state,
                        observation: vec_env.state(j).to_vec(),
                        episode_return: episode_returns[j],
                        active: active[j],
                    });
                }
                ctl.emit(book.checkpoint(snapshot_agent(&*agent)?, rng, None, Some(slots)));
            }
            if ctl.stop_now(book.episodes_run) {
                break;
            }
        }

        Ok(book.into_result(&*agent, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{Design, DesignConfig};
    use crate::ops::OpKind;
    use elmrl_gym::CartPole;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn default_config_matches_paper_protocol_shape() {
        let c = TrainerConfig::default();
        assert_eq!(c.reset_after_episodes, Some(300));
        assert_eq!(c.solved_window, 100);
        assert!(c.stop_when_solved);
        assert_eq!(
            c.solve_criterion,
            SolveCriterion::EpisodeReturn { threshold: 195.0 }
        );
        assert_eq!(TrainerConfig::quick(7).max_episodes, 7);
    }

    #[test]
    fn moving_average_criterion_requires_full_window() {
        let trainer = Trainer::new(TrainerConfig {
            solve_criterion: SolveCriterion::MovingAverage {
                threshold: 10.0,
                window: 3,
            },
            ..TrainerConfig::quick(1)
        });
        let mut stats = EpisodeStats::with_window(100, None);
        stats.record_episode(20.0);
        stats.record_episode(20.0);
        assert!(!trainer.criterion_met(&stats, 20.0));
        stats.record_episode(20.0);
        assert!(trainer.criterion_met(&stats, 20.0));
    }

    #[test]
    fn episode_return_criterion_fires_on_single_episode() {
        let trainer = Trainer::new(TrainerConfig::default());
        let stats = EpisodeStats::with_window(100, None);
        assert!(!trainer.criterion_met(&stats, 100.0));
        assert!(trainer.criterion_met(&stats, 200.0));
    }

    #[test]
    fn short_run_collects_consistent_statistics() {
        let mut r = rng(1);
        let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(16), &mut r);
        let mut env = CartPole::new();
        let mut cfg = TrainerConfig::quick(20);
        cfg.solve_criterion = SolveCriterion::MovingAverage {
            threshold: 195.0,
            window: 100,
        };
        let trainer = Trainer::new(cfg);
        let result = trainer.run(agent.as_mut(), &mut env, &mut r);

        assert_eq!(result.design, "OS-ELM-L2-Lipschitz");
        assert_eq!(result.hidden_dim, 16);
        assert_eq!(result.episodes_run, 20);
        assert_eq!(result.stats.episodes(), 20);
        // each episode contributes at least one step, at most 200
        assert!(result.total_steps >= 20);
        assert!(result.total_steps <= 20 * 200);
        // returns sum equals total steps for CartPole's +1-per-step reward
        assert!(
            (result.stats.total_steps_assuming_unit_reward() - result.total_steps as f64).abs()
                < 1e-9
        );
        assert!(
            !result.solved,
            "20 episodes cannot satisfy a 100-episode window"
        );
        assert!(result.wall_seconds() > 0.0);
        assert!(result.op_counts.total_count() > 0);
    }

    #[test]
    fn reset_rule_fires_for_unsolved_elm_designs() {
        let mut r = rng(2);
        let mut agent = Design::OsElm.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = CartPole::new();
        let mut config = TrainerConfig::quick(25);
        config.reset_after_episodes = Some(10);
        let result = Trainer::new(config).run(agent.as_mut(), &mut env, &mut r);
        assert!(
            result.resets >= 2,
            "expected ≥2 resets in 25 episodes, got {}",
            result.resets
        );
    }

    #[test]
    fn reset_rule_can_be_disabled() {
        let mut r = rng(3);
        let mut agent = Design::Dqn.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = CartPole::new();
        let mut config = TrainerConfig::quick(15);
        config.reset_after_episodes = None;
        let result = Trainer::new(config).run(agent.as_mut(), &mut env, &mut r);
        assert_eq!(result.resets, 0);
    }

    #[test]
    fn op_counts_reflect_design_structure() {
        let mut r = rng(4);
        let mut env = CartPole::new();
        let config = TrainerConfig::quick(10);

        let mut oselm = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(8), &mut r);
        let res_oselm = Trainer::new(config.clone()).run(oselm.as_mut(), &mut env, &mut r);
        assert!(res_oselm.op_counts.count(OpKind::InitTrain) >= 1);
        assert!(res_oselm.op_counts.count(OpKind::SeqTrain) > 0);
        assert_eq!(res_oselm.op_counts.count(OpKind::TrainDqn), 0);

        let mut dqn = Design::Dqn.build_batch(&DesignConfig::new(8), &mut r);
        let res_dqn = Trainer::new(config).run(dqn.as_mut(), &mut env, &mut r);
        assert!(res_dqn.op_counts.count(OpKind::Predict1) > 0);
        assert_eq!(res_dqn.op_counts.count(OpKind::SeqTrain), 0);
    }

    // ---- direct protocol tests with a scripted environment ----------------

    /// Environment whose episode lengths are scripted: episode `i` pays +1
    /// per step and ends (`done`) after `lengths[i]` steps, or truncates at
    /// `max_steps`, whichever comes first. Lengths repeat cyclically.
    struct ScriptedEnv {
        lengths: Vec<usize>,
        episode: usize,
        step: usize,
        max_steps: usize,
    }

    impl ScriptedEnv {
        fn new(lengths: &[usize]) -> Self {
            Self {
                lengths: lengths.to_vec(),
                episode: 0,
                step: 0,
                max_steps: 200,
            }
        }

        fn current_length(&self) -> usize {
            self.lengths[(self.episode.max(1) - 1) % self.lengths.len()]
        }
    }

    impl elmrl_gym::Environment for ScriptedEnv {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn observation_space(&self) -> elmrl_gym::ObservationSpace {
            elmrl_gym::ObservationSpace::new(vec![-1.0], vec![1.0], vec!["x".into()])
        }

        fn action_space(&self) -> elmrl_gym::ActionSpace {
            elmrl_gym::ActionSpace::discrete(2)
        }

        fn max_episode_steps(&self) -> usize {
            self.max_steps
        }

        fn reset(&mut self, _rng: &mut SmallRng) -> Vec<f64> {
            self.episode += 1;
            self.step = 0;
            vec![0.0]
        }

        fn step(&mut self, _action: usize, _rng: &mut SmallRng) -> elmrl_gym::StepOutcome {
            self.step += 1;
            let done = self.step >= self.current_length();
            let truncated = !done && self.step >= self.max_steps;
            elmrl_gym::StepOutcome {
                observation: vec![0.0],
                reward: 1.0,
                done,
                truncated,
            }
        }
    }

    /// Agent that acts trivially and counts how often the trainer resets it.
    struct CountingAgent {
        resets: usize,
        ops: OpCounts,
    }

    impl CountingAgent {
        fn new() -> Self {
            Self {
                resets: 0,
                ops: OpCounts::new(),
            }
        }
    }

    impl Agent for CountingAgent {
        fn name(&self) -> &str {
            "Counting"
        }

        fn hidden_dim(&self) -> usize {
            1
        }

        fn act(&mut self, _state: &[f64], _rng: &mut SmallRng) -> usize {
            0
        }

        fn observe(&mut self, _obs: &Observation, _rng: &mut SmallRng) {}

        fn end_episode(&mut self, _episode_index: usize) {}

        fn reset(&mut self, _rng: &mut SmallRng) {
            self.resets += 1;
        }

        fn op_counts(&self) -> &OpCounts {
            &self.ops
        }

        fn q_values(&mut self, _state: &[f64]) -> Vec<f64> {
            vec![0.0, 0.0]
        }

        fn memory_footprint_bytes(&self) -> usize {
            0
        }
    }

    impl crate::batch::BatchAgent for CountingAgent {}

    fn scripted_vec(lengths: &[usize], e: usize) -> elmrl_gym::VecEnv {
        elmrl_gym::VecEnv::new(
            (0..e)
                .map(|_| Box::new(ScriptedEnv::new(lengths)) as Box<dyn elmrl_gym::Environment>)
                .collect(),
        )
    }

    #[test]
    fn run_vec_accounts_episodes_in_slot_completion_order() {
        // Three slots of 3-step episodes: every third tick completes three
        // episodes (slot order), and the 6-episode budget stops the run at
        // the end of tick 6 with every consumed step counted.
        let mut env = scripted_vec(&[3], 3);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(6);
        config.reset_after_episodes = None;
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 1000.0 };
        let result = Trainer::new(config).run_vec(&mut agent, &mut env, &mut rng(0));
        assert!(!result.solved);
        assert_eq!(result.episodes_run, 6);
        assert_eq!(result.total_steps, 18, "all three slots step every tick");
        assert_eq!(result.stats.episodes(), 6);
        assert!(result.stats.returns.iter().all(|&r| r == 3.0));
    }

    #[test]
    fn run_vec_stops_on_the_first_solving_episode() {
        let mut env = scripted_vec(&[60], 4);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(50);
        config.reset_after_episodes = None;
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run_vec(&mut agent, &mut env, &mut rng(0));
        assert!(result.solved);
        assert_eq!(result.solved_at_episode, Some(0));
        assert_eq!(result.episodes_run, 1, "stop_when_solved must stop the run");
        // All four slots ran the full 60 ticks before any episode completed.
        assert_eq!(result.total_steps, 4 * 60);
    }

    #[test]
    fn run_vec_reset_rule_fires_on_the_global_episode_schedule() {
        let mut env = scripted_vec(&[3], 3);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(5);
        config.reset_after_episodes = Some(2);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 1000.0 };
        let result = Trainer::new(config).run_vec(&mut agent, &mut env, &mut rng(0));
        assert!(!result.solved);
        assert_eq!(result.episodes_run, 5);
        // Episodes complete at ticks 3 (0,1,2) and 6 (3,4): resets fire
        // after episodes 1 and 3 — two in total, both reaching the agent.
        assert_eq!(result.resets, 2);
        assert_eq!(agent.resets, 2);
    }

    #[test]
    fn run_vec_with_a_real_design_is_deterministic_and_env_count_sensitive() {
        let run = |seed: u64, e: usize| {
            let mut r = rng(seed);
            let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(8), &mut r);
            let spec = elmrl_gym::Workload::CartPole.spec();
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, e);
            Trainer::new(TrainerConfig::quick(8))
                .run_vec(agent.as_mut(), &mut env, &mut r)
                .stats
                .returns
        };
        assert_eq!(run(7, 4), run(7, 4), "same seed + E must replay");
        assert_ne!(run(7, 4), run(8, 4), "seed must matter");
        assert_ne!(run(7, 4), run(7, 2), "E changes the trajectory");
    }

    #[test]
    fn run_vec_runs_every_software_design() {
        for design in Design::software_designs() {
            let mut r = rng(31);
            let mut agent = design.build_batch(&DesignConfig::new(8), &mut r);
            let spec = elmrl_gym::Workload::CartPole.spec();
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 3);
            let mut config = TrainerConfig::quick(6);
            config.solve_criterion = SolveCriterion::MovingAverage {
                threshold: 195.0,
                window: 100,
            };
            let result = Trainer::new(config).run_vec(agent.as_mut(), &mut env, &mut r);
            assert_eq!(result.episodes_run, 6, "{design:?}");
            assert!(result.total_steps >= 6, "{design:?}");
            assert!(result.stats.returns.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn episode_return_criterion_fires_at_the_scripted_episode() {
        // Episodes of 10, 20 and 60 steps: with threshold 50 the third
        // episode (index 2) is the first whose return reaches it.
        let mut env = ScriptedEnv::new(&[10, 20, 60, 60]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(10);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(result.solved);
        assert_eq!(result.solved_at_episode, Some(2));
        assert_eq!(result.episodes_run, 3, "stop_when_solved must stop the run");
        assert_eq!(result.total_steps, 10 + 20 + 60);
    }

    #[test]
    fn moving_average_criterion_fires_only_once_window_average_clears() {
        // Returns 30, 30, 6, 30, 30, 30 with window 3 and threshold 21:
        // averages 30, 30, 22, 22, 22, 30 — but the window must be *full*,
        // so the first eligible episode is index 2 (average (30+30+6)/3 = 22).
        let mut env = ScriptedEnv::new(&[30, 30, 6, 30, 30, 30]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(10);
        config.solve_criterion = SolveCriterion::MovingAverage {
            threshold: 21.0,
            window: 3,
        };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(result.solved);
        assert_eq!(result.solved_at_episode, Some(2));
        assert_eq!(result.episodes_run, 3);
    }

    #[test]
    fn moving_average_criterion_never_fires_before_the_window_fills() {
        // Every episode clears the threshold on its own, but only 2 episodes
        // run against a window of 5: not solved.
        let mut env = ScriptedEnv::new(&[100]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(2);
        config.solve_criterion = SolveCriterion::MovingAverage {
            threshold: 50.0,
            window: 5,
        };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(!result.solved);
        assert_eq!(result.solved_at_episode, None);
    }

    #[test]
    fn reset_rule_redraws_weights_on_schedule_until_solved() {
        // 12 unsolved episodes with reset-after-5: resets fire after episodes
        // 5 and 10 (two in total), and the counting agent observes each one.
        let mut env = ScriptedEnv::new(&[3]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(12);
        config.reset_after_episodes = Some(5);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(!result.solved);
        assert_eq!(result.resets, 2);
        assert_eq!(agent.resets, 2, "trainer resets must reach the agent");

        // Once the criterion fires, the reset schedule stops counting: a
        // solving episode inside the reset window produces zero resets.
        let mut env = ScriptedEnv::new(&[3, 3, 60]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(12);
        config.reset_after_episodes = Some(5);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(result.solved);
        assert_eq!(result.resets, 0);
        assert_eq!(agent.resets, 0);
    }

    #[test]
    fn reset_rule_actually_redraws_agent_weights() {
        // A real OS-ELM agent must lose its trained state when the trainer's
        // reset rule fires: hidden 4 initialises after 4 samples, episodes of
        // 6 steps train it immediately, and reset-after-2 wipes it again.
        let mut r = rng(11);
        let mut agent = Design::OsElm.build_batch(&DesignConfig::new(4).for_env(1, 2), &mut r);
        let mut env = ScriptedEnv::new(&[6]);
        let mut config = TrainerConfig::quick(2);
        config.reset_after_episodes = Some(2);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 1000.0 };
        let result = Trainer::new(config).run(agent.as_mut(), &mut env, &mut r);
        assert_eq!(result.resets, 1);
        // After the reset, β is zero again: every Q-value is exactly 0.
        assert_eq!(agent.q_values(&[0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn budget_boundary_reset_order_differs_between_scalar_and_e_slot_loops() {
        // 3-step episodes that never solve, a 4-episode budget, reset-after-2.
        // The scalar loop applies the reset rule after episodes 2 and 4 (the
        // second on the episode that spends the budget); the E-slot loop
        // stops at the budget before its second reset.
        let config = TrainerConfig {
            reset_after_episodes: Some(2),
            solve_criterion: SolveCriterion::EpisodeReturn { threshold: 1000.0 },
            ..TrainerConfig::quick(4)
        };
        let mut agent = CountingAgent::new();
        let scalar =
            Trainer::new(config.clone()).run(&mut agent, &mut ScriptedEnv::new(&[3]), &mut rng(0));
        assert_eq!(scalar.episodes_run, 4);
        assert_eq!(scalar.resets, 2);
        assert_eq!(agent.resets, 2);

        let mut agent = CountingAgent::new();
        let vec = Trainer::new(config).run_vec(&mut agent, &mut scripted_vec(&[3], 1), &mut rng(0));
        assert_eq!(vec.episodes_run, 4);
        assert_eq!(vec.resets, 1);
        assert_eq!(agent.resets, 1);
    }

    #[test]
    fn episode_budget_exhaustion_reports_unsolved() {
        let mut env = ScriptedEnv::new(&[3]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(7);
        config.reset_after_episodes = None;
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(!result.solved);
        assert_eq!(result.episodes_run, 7);
        assert_eq!(result.total_steps, 7 * 3);
        assert_eq!(result.resets, 0);
        assert_eq!(result.stats.episodes(), 7);
    }

    #[test]
    fn stop_when_solved_false_collects_the_full_curve() {
        let mut env = ScriptedEnv::new(&[60]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(5);
        config.stop_when_solved = false;
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 50.0 };
        let result = Trainer::new(config).run(&mut agent, &mut env, &mut rng(0));
        assert!(result.solved);
        assert_eq!(result.solved_at_episode, Some(0));
        assert_eq!(result.episodes_run, 5, "must keep running after solving");
    }

    // ---- checkpoint / resume ---------------------------------------------

    #[test]
    fn scalar_resume_is_bit_for_bit_identical() {
        let config = {
            let mut c = TrainerConfig::quick(8);
            c.reset_after_episodes = Some(3); // exercise resets across resume
            c
        };
        let straight = {
            let mut r = rng(7);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            Trainer::new(config.clone()).run(agent.as_mut(), &mut env, &mut r)
        };

        // Checkpoint capture must have zero side effects on the trajectory.
        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(7);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(1, &mut sink);
            let observed = Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
            assert_eq!(observed.stats.returns, straight.stats.returns);
        }
        assert_eq!(ckpts.len(), straight.episodes_run);

        for n in [1, ckpts.len() / 2, ckpts.len()] {
            let ckpt = &ckpts[n - 1];
            assert_eq!(ckpt.episodes_run, n);
            // The pre-restore seeds are deliberately different: restore must
            // overwrite every bit of agent and RNG state.
            let mut r = rng(999);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            let mut sink = |_c: RunCheckpoint| {};
            let mut ctl = CheckpointCtl::resuming(ckpt, 0, &mut sink);
            let resumed = Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
            assert_eq!(
                resumed.stats.returns, straight.stats.returns,
                "resume at episode {n} diverged"
            );
            assert_eq!(resumed.episodes_run, straight.episodes_run);
            assert_eq!(resumed.total_steps, straight.total_steps);
            assert_eq!(resumed.resets, straight.resets);
            assert_eq!(resumed.solved_at_episode, straight.solved_at_episode);
        }
    }

    #[test]
    fn scalar_resume_survives_a_json_round_trip() {
        let config = TrainerConfig::quick(6);
        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        let straight = {
            let mut r = rng(21);
            let mut agent = Design::OsElm.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(3, &mut sink);
            Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap()
        };
        let restored = RunCheckpoint::from_json(&ckpts[0].to_json().unwrap()).unwrap();
        let mut r = rng(0);
        let mut agent = Design::OsElm.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = CartPole::new();
        let mut sink = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::resuming(&restored, 0, &mut sink);
        let resumed = Trainer::new(config)
            .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
            .unwrap();
        assert_eq!(resumed.stats.returns, straight.stats.returns);
        assert_eq!(resumed.total_steps, straight.total_steps);
    }

    #[test]
    fn vec_resume_is_bit_for_bit_identical() {
        let spec = elmrl_gym::Workload::CartPole.spec();
        let config = TrainerConfig::quick(9);
        let straight = {
            let mut r = rng(5);
            let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 3);
            Trainer::new(config.clone()).run_vec(agent.as_mut(), &mut env, &mut r)
        };

        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(5);
            let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 3);
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(3, &mut sink);
            let observed = Trainer::new(config.clone())
                .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
            assert_eq!(observed.stats.returns, straight.stats.returns);
        }
        assert!(!ckpts.is_empty(), "a 9-episode run must cross a 3-boundary");

        for (i, ckpt) in ckpts.iter().enumerate() {
            let mut r = rng(999);
            let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 3);
            let mut sink = |_c: RunCheckpoint| {};
            let mut ctl = CheckpointCtl::resuming(ckpt, 0, &mut sink);
            let resumed = Trainer::new(config.clone())
                .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
            assert_eq!(
                resumed.stats.returns, straight.stats.returns,
                "resume from checkpoint {i} diverged"
            );
            assert_eq!(resumed.episodes_run, straight.episodes_run);
            assert_eq!(resumed.total_steps, straight.total_steps);
        }
    }

    #[test]
    fn fault_injection_stop_then_resume_matches_straight_through() {
        // Simulated crash: the run is killed right after the episode-3
        // checkpoint lands, then a fresh process resumes from it.
        let config = TrainerConfig::quick(8);
        let straight = {
            let mut r = rng(13);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            Trainer::new(config.clone()).run(agent.as_mut(), &mut env, &mut r)
        };

        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        let crashed = {
            let mut r = rng(13);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(1, &mut sink);
            ctl.stop_after = Some(3);
            Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap()
        };
        assert_eq!(
            crashed.episodes_run, 3,
            "the injected fault must stop the run"
        );
        assert_eq!(ckpts.len(), 3);

        let mut r = rng(0);
        let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = CartPole::new();
        let mut sink = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::resuming(&ckpts[2], 0, &mut sink);
        let resumed = Trainer::new(config)
            .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
            .unwrap();
        assert_eq!(resumed.stats.returns, straight.stats.returns);
        assert_eq!(resumed.total_steps, straight.total_steps);
        assert_eq!(resumed.resets, straight.resets);
    }

    #[test]
    fn checkpointing_an_unsupported_agent_errors() {
        let mut env = ScriptedEnv::new(&[3]);
        let mut agent = CountingAgent::new();
        let mut config = TrainerConfig::quick(3);
        config.solve_criterion = SolveCriterion::EpisodeReturn { threshold: 1000.0 };
        let mut sink = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::saving(1, &mut sink);
        let err = Trainer::new(config)
            .run_checkpointed(&mut agent, &mut env, &mut rng(0), &mut ctl)
            .unwrap_err();
        assert!(err.contains("does not support checkpointing"), "{err}");
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_the_other_driver_kind() {
        let config = TrainerConfig::quick(4);
        let mut scalar_ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(3);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            let mut sink = |c: RunCheckpoint| scalar_ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(2, &mut sink);
            Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
        }
        let scalar_ckpt = &scalar_ckpts[0];
        assert!(scalar_ckpt.slots.is_none());

        // Scalar checkpoint into the vectorized driver: rejected.
        let spec = elmrl_gym::Workload::CartPole.spec();
        let mut r = rng(0);
        let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = elmrl_gym::VecEnv::from_spec(&spec, 2);
        let mut sink = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::resuming(scalar_ckpt, 0, &mut sink);
        let err = Trainer::new(config.clone())
            .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
            .unwrap_err();
        assert!(err.contains("scalar run"), "{err}");

        // Vector checkpoint into the scalar driver: rejected.
        let mut vec_ckpt = scalar_ckpts[0].clone();
        vec_ckpt.slots = Some(Vec::new());
        let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = CartPole::new();
        let mut sink2 = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::resuming(&vec_ckpt, 0, &mut sink2);
        let err = Trainer::new(config)
            .run_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
            .unwrap_err();
        assert!(err.contains("vectorized run"), "{err}");
    }

    /// `ckpt` after one text edit of its JSON.
    fn edited(ckpt: &RunCheckpoint, from: &str, to: &str) -> RunCheckpoint {
        let json = ckpt.to_json().unwrap();
        assert!(json.contains(from), "`{from}` is not in the checkpoint");
        RunCheckpoint::from_json(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn scalar_resume_rejects_checkpoint_counters_that_disagree() {
        let config = TrainerConfig {
            reset_after_episodes: Some(2),
            solve_criterion: SolveCriterion::EpisodeReturn { threshold: 1000.0 },
            ..TrainerConfig::quick(6)
        };
        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(3);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(3, &mut sink);
            Trainer::new(config.clone())
                .run_checkpointed(agent.as_mut(), &mut CartPole::new(), &mut r, &mut ctl)
                .unwrap();
        }
        let ckpt = &ckpts[0];
        assert_eq!(ckpt.episodes_run, 3);
        assert_eq!(ckpt.episodes_since_reset, 1, "reset after episode 2");
        let resume = |ckpt: &RunCheckpoint| {
            let mut r = rng(0);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut sink = |_c: RunCheckpoint| {};
            let mut ctl = CheckpointCtl::resuming(ckpt, 0, &mut sink);
            Trainer::new(config.clone()).run_checkpointed(
                agent.as_mut(),
                &mut CartPole::new(),
                &mut r,
                &mut ctl,
            )
        };
        assert_eq!(resume(ckpt).unwrap().episodes_run, 6);
        for (from, to, why) in [
            (
                r#""solved_at_episode":null"#,
                r#""solved_at_episode":7"#,
                "solved at episode 7 of 3",
            ),
            (
                r#""episodes_run":3"#,
                r#""episodes_run":4"#,
                "3 returns for 4 episodes",
            ),
            (
                r#""moving_averages":["#,
                r#""moving_averages":[1,"#,
                "4 moving averages for 3 returns",
            ),
            (
                r#""episodes_since_reset":1"#,
                r#""episodes_since_reset":4"#,
                "4 episodes since a reset, 3 in all",
            ),
        ] {
            let err = resume(&edited(ckpt, from, to)).unwrap_err();
            assert!(err.contains(why), "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn vec_resume_rejects_checkpoint_counters_that_disagree() {
        let spec = elmrl_gym::Workload::CartPole.spec();
        let config = TrainerConfig::quick(6);
        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(3);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 2);
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(2, &mut sink);
            Trainer::new(config.clone())
                .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
        }
        let ckpt = &ckpts[0];
        let n = ckpt.episodes_run;
        assert_eq!(ckpt.solved_at_episode, None);
        let resume = |ckpt: &RunCheckpoint| {
            let mut r = rng(0);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 2);
            let mut sink = |_c: RunCheckpoint| {};
            let mut ctl = CheckpointCtl::resuming(ckpt, 0, &mut sink);
            Trainer::new(config.clone()).run_vec_checkpointed(
                agent.as_mut(),
                &mut env,
                &mut r,
                &mut ctl,
            )
        };
        assert!(resume(ckpt).is_ok());
        let solved_late = edited(
            ckpt,
            r#""solved_at_episode":null"#,
            &format!(r#""solved_at_episode":{n}"#),
        );
        let err = resume(&solved_late).unwrap_err();
        assert!(
            err.contains(&format!("solved at episode {n} of {n}")),
            "{err}"
        );
        let one_more = edited(
            ckpt,
            &format!(r#""episodes_run":{n}"#),
            &format!(r#""episodes_run":{}"#, n + 1),
        );
        let err = resume(&one_more).unwrap_err();
        assert!(err.contains("returns for"), "{err}");
    }

    #[test]
    fn vec_resume_rejects_a_slot_count_mismatch() {
        let spec = elmrl_gym::Workload::CartPole.spec();
        let config = TrainerConfig::quick(6);
        let mut ckpts: Vec<RunCheckpoint> = Vec::new();
        {
            let mut r = rng(3);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = elmrl_gym::VecEnv::from_spec(&spec, 3);
            let mut sink = |c: RunCheckpoint| ckpts.push(c);
            let mut ctl = CheckpointCtl::saving(2, &mut sink);
            Trainer::new(config.clone())
                .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
                .unwrap();
        }
        let mut r = rng(0);
        let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
        let mut env = elmrl_gym::VecEnv::from_spec(&spec, 2); // wrong width
        let mut sink = |_c: RunCheckpoint| {};
        let mut ctl = CheckpointCtl::resuming(&ckpts[0], 0, &mut sink);
        let err = Trainer::new(config)
            .run_vec_checkpointed(agent.as_mut(), &mut env, &mut r, &mut ctl)
            .unwrap_err();
        assert!(err.contains("slots"), "{err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut r = rng(seed);
            let mut agent = Design::OsElmL2.build_batch(&DesignConfig::new(8), &mut r);
            let mut env = CartPole::new();
            Trainer::new(TrainerConfig::quick(8))
                .run(agent.as_mut(), &mut env, &mut r)
                .stats
                .returns
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
