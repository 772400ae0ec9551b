//! Simulated client sessions: each owns an environment, an episode cursor
//! and a private SplitMix64-derived RNG stream.
//!
//! A session is a tiny request/response client: it holds its latest
//! observation, submits it to the engine when ready, and on receiving the
//! greedy action steps its environment (auto-resetting finished episodes) to
//! produce the next observation. The sessions' environments are the slots
//! of one [`VecEnv`], stepped one slot at a time through
//! [`VecEnv::step_slot`] as their responses arrive. All per-session
//! randomness — environment dynamics and optional think-time draws — comes
//! from the session's own stream
//! (`split_seed(master, SESSION_STREAM_BASE + index)`, the PR-3
//! seed-splitting scheme), so the whole client population replays
//! bit-identically at any engine parallelism.

use crate::engine::{Response, ServeEngine};
use crate::worker::SESSION_STREAM_BASE;
use elmrl_gym::{EnvSpec, VecEnv};
use elmrl_population::split_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One simulated client's cursor; its environment and RNG stream are the
/// driver's slot and stream at the session's index.
#[derive(Clone)]
struct Session {
    /// Engine round at which this session may submit again; `None` while a
    /// request is in flight.
    ready_at_round: Option<u64>,
    episode_return: f64,
    /// Sum of returns over *completed* episodes.
    completed_return: f64,
    episodes_completed: u64,
    env_steps: u64,
}

/// Aggregate client-side statistics of a serve run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Episodes finished (terminated or truncated) across all sessions.
    pub episodes_completed: u64,
    /// Environment steps taken across all sessions.
    pub env_steps: u64,
    /// Sum of returns of the completed episodes.
    pub completed_return: f64,
}

impl SessionStats {
    /// Mean return per completed episode (`None` before any completes).
    pub fn mean_episode_return(&self) -> Option<f64> {
        if self.episodes_completed == 0 {
            None
        } else {
            Some(self.completed_return / self.episodes_completed as f64)
        }
    }
}

/// Drives N sessions against a [`ServeEngine`], one submit/apply pair per
/// engine round.
pub struct SessionDriver {
    /// One environment slot per session; a slot's state is the observation
    /// the session submits next (refilled after every step/reset).
    envs: VecEnv,
    /// One private stream per session: its environment's dynamics and its
    /// think-time draws.
    rngs: Vec<SmallRng>,
    sessions: Vec<Session>,
    /// Maximum think-time rounds a session idles after a response (0 =
    /// resubmit immediately; >0 draws uniformly from its own stream).
    think_rounds: u64,
    round: u64,
}

impl SessionDriver {
    /// Create and reset `count` sessions on the given workload. Panics when
    /// `count` is 0.
    pub fn new(spec: &EnvSpec, count: usize, master_seed: u64, think_rounds: u64) -> Self {
        let mut rngs: Vec<SmallRng> = (0..count)
            .map(|i| {
                SmallRng::seed_from_u64(split_seed(master_seed, SESSION_STREAM_BASE + i as u64))
            })
            .collect();
        let mut envs = VecEnv::from_spec(spec, count);
        envs.reset_all(&mut rngs);
        let session = Session {
            ready_at_round: Some(0),
            episode_return: 0.0,
            completed_return: 0.0,
            episodes_completed: 0,
            env_steps: 0,
        };
        Self {
            envs,
            rngs,
            sessions: vec![session; count],
            think_rounds,
            round: 0,
        }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the driver has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Submit the observation of every ready session (ascending session
    /// order — part of the deterministic request sequence).
    pub fn submit_ready(&mut self, engine: &mut ServeEngine, now_us: u64) {
        for (index, session) in self.sessions.iter_mut().enumerate() {
            if session.ready_at_round.is_some_and(|r| r <= self.round) {
                engine.enqueue(index, self.envs.state(index), now_us);
                session.ready_at_round = None;
            }
        }
    }

    /// Apply one round's responses: step each answered session's
    /// environment with the served action (auto-resetting a finished
    /// episode from the session's stream), then draw its think time and
    /// schedule its next submission. Ends the round.
    pub fn apply_responses(&mut self, responses: &[Response]) {
        for response in responses {
            let (session, rng) = (
                &mut self.sessions[response.session],
                &mut self.rngs[response.session],
            );
            let step = self.envs.step_slot(response.session, response.action, rng);
            session.env_steps += 1;
            session.episode_return += step.outcome.reward;
            if step.auto_reset {
                session.episodes_completed += 1;
                session.completed_return += session.episode_return;
                session.episode_return = 0.0;
            }
            let think = if self.think_rounds == 0 {
                0
            } else {
                rng.gen_range(0..=self.think_rounds)
            };
            session.ready_at_round = Some(self.round + 1 + think);
        }
        self.round += 1;
    }

    /// Aggregate client-side statistics.
    pub fn stats(&self) -> SessionStats {
        let mut stats = SessionStats::default();
        for session in &self.sessions {
            stats.episodes_completed += session.episodes_completed;
            stats.env_steps += session.env_steps;
            stats.completed_return += session.completed_return;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ServeClock;
    use crate::engine::EngineConfig;
    use crate::worker::build_workers;
    use elmrl_core::designs::Design;
    use elmrl_gym::Workload;

    #[test]
    fn sessions_step_and_complete_episodes() {
        let spec = Workload::CartPole.spec();
        let workers = build_workers(Design::OsElmL2Lipschitz, &spec, 16, 1, 16, 3, 2);
        let mut engine = ServeEngine::new(
            8,
            spec.observation_dim,
            workers,
            EngineConfig {
                max_batch: 16,
                batch_window_us: 0,
            },
        );
        let mut driver = SessionDriver::new(&spec, 8, 3, 0);
        let mut clock = ServeClock::virtual_clock();
        for _ in 0..120 {
            driver.submit_ready(&mut engine, clock.now_us());
            let responses = engine.pump(&mut clock);
            assert_eq!(responses.len(), 8, "window 0: every round answers all");
            driver.apply_responses(responses);
        }
        let stats = driver.stats();
        assert_eq!(stats.env_steps, 8 * 120);
        // An untrained-ish policy on CartPole fails well within 120 steps.
        assert!(stats.episodes_completed > 0);
        assert!(stats.mean_episode_return().is_some());
    }

    #[test]
    fn think_time_spaces_out_submissions() {
        let spec = Workload::CartPole.spec();
        let workers = build_workers(Design::OsElmL2Lipschitz, &spec, 16, 1, 16, 3, 0);
        let mut engine = ServeEngine::new(
            4,
            spec.observation_dim,
            workers,
            EngineConfig {
                max_batch: 16,
                batch_window_us: 0,
            },
        );
        let mut driver = SessionDriver::new(&spec, 4, 3, 3);
        let mut clock = ServeClock::virtual_clock();
        let mut responded = 0u64;
        for _ in 0..40 {
            driver.submit_ready(&mut engine, clock.now_us());
            let responses = engine.pump(&mut clock);
            responded += responses.len() as u64;
            driver.apply_responses(responses);
        }
        let stats = driver.stats();
        assert_eq!(stats.env_steps, responded);
        // With think-time up to 3 rounds, sessions cannot submit every
        // round: strictly fewer steps than the think-free case.
        assert!(stats.env_steps < 4 * 40);
        assert!(stats.env_steps > 0);
    }
}
