//! Vectorized environment execution: step K environments in lockstep.
//!
//! [`VecEnv`] is the substrate of the population execution engine in
//! `elmrl-population`: it owns K boxed [`Environment`]s of identical shape,
//! steps them together, **auto-resets** any environment whose episode just
//! finished, and packs the current observations into a `K × obs_dim`
//! [`Matrix`] ready for a batched Q-network forward pass.
//!
//! RNG streams are injected per call and per slot (`rngs[i]` drives only
//! environment `i`), so a population sharded over any number of threads
//! replays identically as long as each slot keeps its own seeded stream.
//! Environments built through [`VecEnv::from_spec`] go through
//! [`EnvSpec::make_env`], so observation normalisation
//! ([`crate::NormalizedEnv`]) composes automatically.

use crate::env::{Environment, StepOutcome};
use crate::workload::EnvSpec;
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;

/// The result of stepping one slot of a [`VecEnv`].
#[derive(Clone, Debug, PartialEq)]
pub struct VecStep {
    /// The underlying environment's outcome. `outcome.observation` is the
    /// observation *produced by the step* (the terminal observation when the
    /// episode just ended; [`VecEnv::step_slot`] leaves it empty otherwise)
    /// — the post-auto-reset observation is available from
    /// [`VecEnv::state`] / [`VecEnv::states`] instead.
    pub outcome: StepOutcome,
    /// Whether the slot was auto-reset because this step finished its
    /// episode. When `true`, [`VecEnv::state`] already holds the fresh
    /// initial observation of the next episode.
    pub auto_reset: bool,
}

/// K environments of identical shape, stepped in lockstep with auto-reset.
pub struct VecEnv {
    envs: Vec<Box<dyn Environment>>,
    /// Current observation of each slot (post-auto-reset).
    states: Vec<Vec<f64>>,
    obs_dim: usize,
    num_actions: usize,
}

impl VecEnv {
    /// Build a vector of `k` fresh environments from a registered workload
    /// spec. The environments still need a [`VecEnv::reset_all`] before the
    /// first step. One spec builds every slot, so their shapes agree
    /// without a per-slot check.
    pub fn from_spec(spec: &EnvSpec, k: usize) -> Self {
        Self::with_shape_of_first((0..k).map(|_| spec.make_env()).collect())
    }

    /// Wrap an explicit set of environments. Panics when `envs` is empty or
    /// the environments disagree on observation/action dimensions.
    pub fn new(envs: Vec<Box<dyn Environment>>) -> Self {
        let vec_env = Self::with_shape_of_first(envs);
        for (i, env) in vec_env.envs.iter().enumerate().skip(1) {
            assert_eq!(
                env.observation_dim(),
                vec_env.obs_dim,
                "environment {i} disagrees on observation_dim"
            );
            assert_eq!(
                env.num_actions(),
                vec_env.num_actions,
                "environment {i} disagrees on num_actions"
            );
        }
        vec_env
    }

    /// Wrap `envs` with slot 0's dimensions (an environment's
    /// `observation_dim` builds its observation space, so it is read once).
    /// Each slot's state stays empty until it is reset or restored.
    fn with_shape_of_first(envs: Vec<Box<dyn Environment>>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one environment");
        Self {
            obs_dim: envs[0].observation_dim(),
            num_actions: envs[0].num_actions(),
            states: vec![Vec::new(); envs.len()],
            envs,
        }
    }

    /// Number of environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// `true` when the vector holds no environments (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Observation dimensionality shared by every slot.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action count shared by every slot.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// The "solved" threshold the underlying environments advertise (taken
    /// from slot 0 — every slot is built from the same spec).
    pub fn solved_threshold(&self) -> Option<f64> {
        self.envs[0].solved_threshold()
    }

    /// Current observation of slot `i` (empty before its first reset).
    pub fn state(&self, i: usize) -> &[f64] {
        &self.states[i]
    }

    /// Pack the current observations into a `K × obs_dim` matrix (row `i` is
    /// slot `i`). Combine with [`Matrix::gather_rows`] to batch a subset.
    pub fn states(&self) -> Matrix<f64> {
        let mut m = Matrix::zeros(self.envs.len(), self.obs_dim);
        for (i, s) in self.states.iter().enumerate() {
            m.row_mut(i).copy_from_slice(s);
        }
        m
    }

    /// Reset every slot (slot `i` drawing from `rngs[i]`); read the initial
    /// observations through [`VecEnv::state`] or [`VecEnv::states`].
    pub fn reset_all(&mut self, rngs: &mut [SmallRng]) {
        assert_eq!(rngs.len(), self.envs.len(), "need one RNG per slot");
        for (i, env) in self.envs.iter_mut().enumerate() {
            self.states[i] = env.reset(&mut rngs[i]);
        }
    }

    /// Step every slot with an action (`Some`) or leave it untouched
    /// (`None`, e.g. an already-solved replica). Slots whose episode finishes
    /// are **auto-reset** from their own RNG stream; the returned
    /// [`VecStep`] still carries the terminal observation and `done`/
    /// `truncated` flags of the step itself.
    pub fn step(
        &mut self,
        actions: &[Option<usize>],
        rngs: &mut [SmallRng],
    ) -> Vec<Option<VecStep>> {
        assert_eq!(actions.len(), self.envs.len(), "need one action per slot");
        assert_eq!(rngs.len(), self.envs.len(), "need one RNG per slot");
        actions
            .iter()
            .enumerate()
            .map(|(i, &action)| {
                let mut step = self.step_slot(i, action?, &mut rngs[i]);
                if !step.auto_reset {
                    step.outcome.observation = self.states[i].clone();
                }
                Some(step)
            })
            .collect()
    }

    /// Step slot `i` alone, auto-resetting it from the same stream when the
    /// step finishes its episode — the per-slot core of [`VecEnv::step`].
    /// The observation the next decision sees is moved into the slot's
    /// state ([`VecEnv::state`]), so the returned outcome carries the
    /// terminal observation when the slot auto-reset and an empty one
    /// otherwise.
    pub fn step_slot(&mut self, i: usize, action: usize, rng: &mut SmallRng) -> VecStep {
        let mut outcome = self.envs[i].step(action, rng);
        let auto_reset = outcome.finished();
        self.states[i] = if auto_reset {
            self.envs[i].reset(rng)
        } else {
            std::mem::take(&mut outcome.observation)
        };
        VecStep {
            outcome,
            auto_reset,
        }
    }

    /// Export slot `i`'s internal environment state for checkpointing
    /// ([`Environment::save_state`]), or `None` when the underlying
    /// environment does not support it.
    pub fn save_slot_state(&self, i: usize) -> Option<Vec<f64>> {
        self.envs[i].save_state()
    }

    /// Restore slot `i` to a checkpointed mid-episode position: the
    /// environment's internal state plus the current (post-auto-reset)
    /// observation the agent sees next.
    pub fn restore_slot(
        &mut self,
        i: usize,
        env_state: &[f64],
        observation: &[f64],
    ) -> Result<(), String> {
        if observation.len() != self.obs_dim {
            return Err(format!(
                "slot {i}: observation has {} values, expected {}",
                observation.len(),
                self.obs_dim
            ));
        }
        self.envs[i].load_state(env_state)?;
        self.states[i].clear();
        self.states[i].extend_from_slice(observation);
        Ok(())
    }

    /// Convenience wrapper stepping every slot ([`VecEnv::step`] with all
    /// actions present).
    pub fn step_all(&mut self, actions: &[usize], rngs: &mut [SmallRng]) -> Vec<VecStep> {
        let wrapped: Vec<Option<usize>> = actions.iter().copied().map(Some).collect();
        self.step(&wrapped, rngs)
            .into_iter()
            .map(|s| s.expect("step_all: every slot was given an action"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use crate::{CartPole, MountainCar};
    use rand::SeedableRng;

    fn rngs(n: usize, base: u64) -> Vec<SmallRng> {
        (0..n)
            .map(|i| SmallRng::seed_from_u64(base + i as u64))
            .collect()
    }

    #[test]
    fn packs_states_and_steps_in_lockstep() {
        let spec = Workload::CartPole.spec();
        let mut vec_env = VecEnv::from_spec(&spec, 3);
        assert_eq!(vec_env.len(), 3);
        assert!(!vec_env.is_empty());
        assert_eq!(vec_env.obs_dim(), 4);
        assert_eq!(vec_env.num_actions(), 2);

        let mut streams = rngs(3, 10);
        vec_env.reset_all(&mut streams);
        let states = vec_env.states();
        assert_eq!(states.shape(), (3, 4));
        for i in 0..3 {
            assert_eq!(states.row(i), vec_env.state(i));
        }

        let outs = vec_env.step_all(&[0, 1, 0], &mut streams);
        assert_eq!(outs.len(), 3);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.outcome.observation.len(), 4);
            if !out.auto_reset {
                assert_eq!(vec_env.state(i), out.outcome.observation.as_slice());
            }
        }
    }

    #[test]
    fn auto_resets_finished_slots_and_keeps_terminal_outcome() {
        // MountainCar with a tiny step cap: the idle policy truncates after
        // 3 steps, so the slot must auto-reset on the third step while the
        // returned outcome still reports the truncation.
        let mut vec_env = VecEnv::new(vec![
            Box::new(MountainCar::with_step_limit(3)),
            Box::new(MountainCar::with_step_limit(200)),
        ]);
        let mut streams = rngs(2, 99);
        vec_env.reset_all(&mut streams);
        for step in 0..2 {
            let outs = vec_env.step_all(&[1, 1], &mut streams);
            assert!(!outs[0].auto_reset, "step {step}");
        }
        let outs = vec_env.step_all(&[1, 1], &mut streams);
        assert!(outs[0].auto_reset);
        assert!(outs[0].outcome.truncated);
        assert!(!outs[1].auto_reset);
        // The slot's visible state is a fresh episode start (valley, zero
        // velocity), not the terminal observation.
        let fresh = vec_env.state(0);
        assert!(fresh[0] >= -0.6 && fresh[0] <= -0.4);
        assert_eq!(fresh[1], 0.0);
        // The fourth step works without an explicit reset.
        let outs = vec_env.step_all(&[1, 1], &mut streams);
        assert!(!outs[0].auto_reset);
    }

    #[test]
    fn none_actions_skip_slots() {
        let spec = Workload::CartPole.spec();
        let mut vec_env = VecEnv::from_spec(&spec, 2);
        let mut streams = rngs(2, 7);
        vec_env.reset_all(&mut streams);
        let before = vec_env.state(0).to_vec();
        let outs = vec_env.step(&[None, Some(1)], &mut streams);
        assert!(outs[0].is_none());
        assert!(outs[1].is_some());
        assert_eq!(vec_env.state(0), before.as_slice());
    }

    #[test]
    fn composes_with_observation_normalisation() {
        // MountainCar's registered spec normalises; VecEnv states must be in
        // [-1, 1] on every axis.
        let spec = Workload::MountainCar.spec();
        assert!(spec.normalize_observations);
        let mut vec_env = VecEnv::from_spec(&spec, 4);
        let mut streams = rngs(4, 3);
        vec_env.reset_all(&mut streams);
        for _ in 0..30 {
            let states = vec_env.states();
            assert!(states.iter().all(|v| (-1.0..=1.0).contains(v)));
            vec_env.step_all(&[0, 1, 2, 1], &mut streams);
        }
    }

    #[test]
    #[should_panic(expected = "at least one environment")]
    fn empty_vec_env_rejected() {
        let _ = VecEnv::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "disagrees on observation_dim")]
    fn heterogeneous_envs_rejected() {
        let _ = VecEnv::new(vec![
            Box::new(CartPole::new()),
            Box::new(MountainCar::new()),
        ]);
    }
}
