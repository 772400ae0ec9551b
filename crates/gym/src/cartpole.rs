//! CartPole-v0: the inverted-pendulum balancing task the paper evaluates on.
//!
//! This is a line-for-line port of the classic-control dynamics used by
//! OpenAI Gym's `CartPole-v0`:
//!
//! * state `(x, ẋ, θ, θ̇)` — cart position, cart velocity, pole angle, pole
//!   tip angular velocity (Table 2 of the paper);
//! * two actions — push the cart left or right with a fixed 10 N force;
//! * semi-implicit Euler integration with `τ = 0.02 s`;
//! * reward `+1` for every step the pole stays up;
//! * the episode terminates when `|x| > 2.4 m` or `|θ| > 12°`, and is
//!   truncated at 200 steps;
//! * the task counts as *solved* when the average return over the last 100
//!   episodes reaches 195.

use crate::env::{Environment, StepOutcome};
use crate::space::{ActionSpace, ObservationSpace};
use rand::rngs::SmallRng;
use rand::Rng;

/// Physics and episode constants for CartPole-v0 (Gym defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CartPoleParams {
    /// Gravitational acceleration (m/s²).
    pub gravity: f64,
    /// Cart mass (kg).
    pub mass_cart: f64,
    /// Pole mass (kg).
    pub mass_pole: f64,
    /// Half of the pole length (m) — Gym stores the half-length.
    pub half_pole_length: f64,
    /// Magnitude of the force applied by each action (N).
    pub force_mag: f64,
    /// Integration time step (s).
    pub tau: f64,
    /// Cart position magnitude at which the episode fails (m).
    pub x_threshold: f64,
    /// Pole angle magnitude at which the episode fails (rad); 12° for v0.
    pub theta_threshold: f64,
    /// Step cap per episode (200 for v0).
    pub max_steps: usize,
}

impl Default for CartPoleParams {
    fn default() -> Self {
        Self {
            gravity: 9.8,
            mass_cart: 1.0,
            mass_pole: 0.1,
            half_pole_length: 0.5,
            force_mag: 10.0,
            tau: 0.02,
            x_threshold: 2.4,
            theta_threshold: 12.0 * std::f64::consts::PI / 180.0,
            max_steps: 200,
        }
    }
}

/// The CartPole-v0 environment.
#[derive(Clone, Debug)]
pub struct CartPole {
    params: CartPoleParams,
    state: [f64; 4],
    steps: usize,
    finished: bool,
}

impl CartPole {
    /// Create the environment with the standard Gym parameters.
    pub fn new() -> Self {
        Self::with_params(CartPoleParams::default())
    }

    /// Create the environment with explicit parameters (used by tests and
    /// ablations, e.g. longer episodes).
    pub fn with_params(params: CartPoleParams) -> Self {
        Self {
            params,
            state: [0.0; 4],
            steps: 0,
            finished: true,
        }
    }

    /// The current physics parameters.
    pub fn params(&self) -> &CartPoleParams {
        &self.params
    }

    /// The raw internal state `(x, ẋ, θ, θ̇)`.
    pub fn state(&self) -> [f64; 4] {
        self.state
    }

    fn dynamics(&self, state: [f64; 4], action: usize) -> [f64; 4] {
        let p = &self.params;
        let [x, x_dot, theta, theta_dot] = state;
        let force = if action == 1 {
            p.force_mag
        } else {
            -p.force_mag
        };
        let total_mass = p.mass_cart + p.mass_pole;
        let pole_mass_length = p.mass_pole * p.half_pole_length;

        let cos_theta = theta.cos();
        let sin_theta = theta.sin();
        let temp = (force + pole_mass_length * theta_dot * theta_dot * sin_theta) / total_mass;
        let theta_acc = (p.gravity * sin_theta - cos_theta * temp)
            / (p.half_pole_length * (4.0 / 3.0 - p.mass_pole * cos_theta * cos_theta / total_mass));
        let x_acc = temp - pole_mass_length * theta_acc * cos_theta / total_mass;

        // Gym's (Euler) update order: positions first with the *old*
        // velocities, then velocities.
        [
            x + p.tau * x_dot,
            x_dot + p.tau * x_acc,
            theta + p.tau * theta_dot,
            theta_dot + p.tau * theta_acc,
        ]
    }

    fn is_failure(&self, state: &[f64; 4]) -> bool {
        state[0].abs() > self.params.x_threshold || state[2].abs() > self.params.theta_threshold
    }
}

impl Default for CartPole {
    fn default() -> Self {
        Self::new()
    }
}

impl Environment for CartPole {
    fn name(&self) -> &'static str {
        "CartPole-v0"
    }

    fn observation_space(&self) -> ObservationSpace {
        // Gym reports bounds of 2× the termination thresholds for position and
        // angle, and unbounded velocities (Table 2 of the paper).
        ObservationSpace::new(
            vec![
                -2.0 * self.params.x_threshold,
                f64::NEG_INFINITY,
                -2.0 * self.params.theta_threshold,
                f64::NEG_INFINITY,
            ],
            vec![
                2.0 * self.params.x_threshold,
                f64::INFINITY,
                2.0 * self.params.theta_threshold,
                f64::INFINITY,
            ],
            vec![
                "cart_position".into(),
                "cart_velocity".into(),
                "pole_angle".into(),
                "pole_tip_velocity".into(),
            ],
        )
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::with_labels(&["push_left", "push_right"])
    }

    fn max_episode_steps(&self) -> usize {
        self.params.max_steps
    }

    fn reset(&mut self, rng: &mut SmallRng) -> Vec<f64> {
        for v in &mut self.state {
            *v = rng.gen_range(-0.05..0.05);
        }
        self.steps = 0;
        self.finished = false;
        self.state.to_vec()
    }

    fn step(&mut self, action: usize, _rng: &mut SmallRng) -> StepOutcome {
        assert!(action < 2, "CartPole has 2 actions, got {action}");
        assert!(
            !self.finished,
            "step() called on a finished episode; call reset() first"
        );

        self.state = self.dynamics(self.state, action);
        self.steps += 1;

        let done = self.is_failure(&self.state);
        let truncated = !done && self.steps >= self.params.max_steps;
        self.finished = done || truncated;
        StepOutcome {
            observation: self.state.to_vec(),
            // Gym's CartPole-v0 returns +1 for every step, including the
            // terminating one.
            reward: 1.0,
            done,
            truncated,
        }
    }

    fn solved_threshold(&self) -> Option<f64> {
        Some(195.0)
    }

    fn save_state(&self) -> Option<Vec<f64>> {
        let mut v = self.state.to_vec();
        v.push(self.steps as f64);
        v.push(if self.finished { 1.0 } else { 0.0 });
        Some(v)
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let [x, x_dot, theta, theta_dot, steps, finished] = state else {
            return Err(format!(
                "CartPole state needs 6 values, got {}",
                state.len()
            ));
        };
        self.state = [*x, *x_dot, *theta, *theta_dot];
        self.steps = *steps as usize;
        self.finished = *finished != 0.0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn spaces_match_gym() {
        let env = CartPole::new();
        assert_eq!(env.name(), "CartPole-v0");
        assert_eq!(env.observation_dim(), 4);
        assert_eq!(env.num_actions(), 2);
        assert_eq!(env.max_episode_steps(), 200);
        assert_eq!(env.solved_threshold(), Some(195.0));
        let space = env.observation_space();
        assert!((space.high[0] - 4.8).abs() < 1e-12);
        assert!((space.high[2] - 0.41887902047863906).abs() < 1e-9);
        assert!(space.high[1].is_infinite() && space.high[3].is_infinite());
    }

    #[test]
    fn reset_starts_near_upright() {
        let mut env = CartPole::new();
        let obs = env.reset(&mut rng(0));
        assert_eq!(obs.len(), 4);
        assert!(obs.iter().all(|&v| v.abs() <= 0.05));
        assert_eq!(env.steps, 0);
    }

    #[test]
    fn reward_is_one_per_step() {
        let mut env = CartPole::new();
        let mut r = rng(1);
        env.reset(&mut r);
        for _ in 0..10 {
            let out = env.step(1, &mut r);
            assert_eq!(out.reward, 1.0);
            if out.finished() {
                break;
            }
        }
    }

    #[test]
    fn constant_action_eventually_fails() {
        // Pushing in one direction forever tips the pole well before 200 steps.
        let mut env = CartPole::new();
        let mut r = rng(2);
        env.reset(&mut r);
        let mut steps = 0;
        loop {
            let out = env.step(1, &mut r);
            steps += 1;
            if out.finished() {
                assert!(out.done, "expected failure termination, not truncation");
                break;
            }
            assert!(steps <= 200, "episode should have terminated");
        }
        assert!(steps < 200);
        // pole angle exceeded the 12° threshold
        assert!(env.state()[2].abs() > env.params().theta_threshold);
    }

    #[test]
    fn alternating_policy_survives_longer_than_constant() {
        let mut constant_steps = 0;
        let mut alternating_steps = 0;
        for seed in 0..5 {
            let mut env = CartPole::new();
            let mut r = rng(seed);
            env.reset(&mut r);
            let mut s = 0;
            while !env.step(1, &mut r).finished() {
                s += 1;
            }
            constant_steps += s;

            let mut env = CartPole::new();
            let mut r = rng(seed);
            env.reset(&mut r);
            let mut s = 0;
            let mut a = 0;
            loop {
                let out = env.step(a, &mut r);
                a = 1 - a;
                if out.finished() {
                    break;
                }
                s += 1;
            }
            alternating_steps += s;
        }
        assert!(alternating_steps > constant_steps);
    }

    #[test]
    fn truncation_at_step_cap() {
        // A crafted "balancing" policy: push against the pole's lean. With the
        // small initial perturbations this keeps the pole up for 200 steps.
        let mut env = CartPole::new();
        let mut r = rng(7);
        let mut obs = env.reset(&mut r);
        let mut steps = 0;
        loop {
            let action = if obs[2] + 0.2 * obs[3] > 0.0 { 1 } else { 0 };
            let out = env.step(action, &mut r);
            obs = out.observation.clone();
            steps += 1;
            if out.finished() {
                assert!(out.truncated, "balancing policy should reach the step cap");
                assert!(!out.done);
                break;
            }
        }
        assert_eq!(steps, 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut env = CartPole::new();
            let mut r = rng(seed);
            env.reset(&mut r);
            let mut trace = Vec::new();
            for i in 0..50 {
                let out = env.step(i % 2, &mut r);
                let finished = out.finished();
                trace.push(out.observation);
                if finished {
                    break;
                }
            }
            trace
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_after_done_panics() {
        let mut env = CartPole::new();
        let mut r = rng(3);
        env.reset(&mut r);
        loop {
            if env.step(0, &mut r).finished() {
                break;
            }
        }
        let _ = env.step(0, &mut r);
    }

    #[test]
    #[should_panic(expected = "2 actions")]
    fn invalid_action_panics() {
        let mut env = CartPole::new();
        let mut r = rng(4);
        env.reset(&mut r);
        let _ = env.step(2, &mut r);
    }

    #[test]
    fn physics_matches_reference_step() {
        // One step from the exact state (0, 0, 0.05, 0) with a rightward push,
        // values computed from the published Gym dynamics equations.
        let mut env = CartPole::new();
        let mut r = rng(0);
        env.reset(&mut r);
        env.state = [0.0, 0.0, 0.05, 0.0];
        let out = env.step(1, &mut r);
        let [x, x_dot, theta, theta_dot] = env.state();
        assert_eq!(out.observation, vec![x, x_dot, theta, theta_dot]);
        // position/angle unchanged on the first Euler substep (old velocities are zero)
        assert!(x.abs() < 1e-12);
        assert!((theta - 0.05).abs() < 1e-12);
        // accelerations: computed by hand from the dynamics equations
        let total_mass = 1.1;
        let pml = 0.05;
        let temp = (10.0 + pml * 0.0) / total_mass;
        let theta_acc = (9.8 * 0.05f64.sin() - 0.05f64.cos() * temp)
            / (0.5 * (4.0 / 3.0 - 0.1 * 0.05f64.cos().powi(2) / total_mass));
        let x_acc = temp - pml * theta_acc * 0.05f64.cos() / total_mass;
        assert!((x_dot - 0.02 * x_acc).abs() < 1e-12);
        assert!((theta_dot - 0.02 * theta_acc).abs() < 1e-12);
    }
}
