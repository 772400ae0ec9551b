//! The [`Agent`] trait shared by every design in the evaluation.
//!
//! The trainer drives agents through the paper's four states (Determine,
//! Observe, Store, Update — Algorithm 1): [`Agent::act`] is *Determine*, the
//! environment step is *Observe*, and [`Agent::observe`] covers *Store* and
//! *Update* (each agent decides internally whether a given transition goes to
//! its buffer, triggers an initial training, a sequential update, or a DQN
//! gradient step).

use crate::checkpoint::AgentSnapshot;
use crate::ops::OpCounts;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// One transition as seen by an agent (rewards already shaped).
///
/// The `done`/`truncated` flags carry the same semantics as
/// [`elmrl_gym::StepOutcome`]: they are mutually exclusive, `done` marks the
/// task's own end condition (the paper's `dₜ` flag, which removes the
/// bootstrap term from the Q-target), and `truncated` marks a pure step-cap
/// stop, after which targets still bootstrap.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// State before the action.
    pub state: Vec<f64>,
    /// Discrete action taken.
    pub action: usize,
    /// Shaped reward.
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
    /// `true` when the episode ended because the task itself finished — its
    /// failure or success condition fired (the paper's `dₜ` flag). Never set
    /// for a pure step-limit stop.
    pub done: bool,
    /// `true` when the episode was cut off by the step cap without the task
    /// finishing. Mutually exclusive with `done`.
    pub truncated: bool,
}

/// Telemetry counter of transitions an agent dropped because
/// [`Observation::is_finite`] was false.
pub const DROPPED_NONFINITE: &str = "core.observe.dropped_nonfinite";

impl Observation {
    /// `done || truncated`.
    pub fn finished(&self) -> bool {
        self.done || self.truncated
    }

    /// `true` when the reward and every component of both states are
    /// finite. The ELM, OS-ELM and FPGA agents store and train only on
    /// such transitions and drop the others, counted by
    /// [`DROPPED_NONFINITE`]; target clipping could otherwise turn a
    /// non-finite next state into a finite but meaningless target.
    pub fn is_finite(&self) -> bool {
        self.reward.is_finite()
            && self
                .state
                .iter()
                .chain(&self.next_state)
                .all(|v| v.is_finite())
    }
}

/// A reinforcement-learning agent: one of the seven designs of §4.1.
pub trait Agent {
    /// Human-readable design name (matches the paper's design labels).
    fn name(&self) -> &str;

    /// The hidden-layer width `Ñ` of the underlying network.
    fn hidden_dim(&self) -> usize;

    /// *Determine*: choose an action for `state`.
    fn act(&mut self, state: &[f64], rng: &mut SmallRng) -> usize;

    /// *Store* + *Update*: ingest one transition.
    fn observe(&mut self, obs: &Observation, rng: &mut SmallRng);

    /// Called by the trainer at the end of every episode (target-network
    /// synchronisation happens here, Algorithm 1 lines 23–24).
    fn end_episode(&mut self, episode_index: usize);

    /// Re-initialise all trainable state. The trainer calls this when the
    /// paper's reset rule fires (§4.3: reset after 300 unsuccessful
    /// episodes).
    fn reset(&mut self, rng: &mut SmallRng);

    /// Per-operation counters accumulated so far (Figure 5/6 breakdown).
    fn op_counts(&self) -> &OpCounts;

    /// Greedy Q-values for a state — used by diagnostics and tests; not part
    /// of the training path.
    fn q_values(&mut self, state: &[f64]) -> Vec<f64>;

    /// Approximate persistent memory footprint of the agent's learnable state
    /// and buffers, in bytes (used for the on-device memory comparison).
    fn memory_footprint_bytes(&self) -> usize;

    /// Capture the agent's complete mutable state for checkpointing, or
    /// `None` when the design does not support it. A snapshot must be deep
    /// enough that [`Agent::restore`] followed by the same action/observation
    /// sequence reproduces the original agent's trajectory bit for bit.
    fn snapshot(&self) -> Option<AgentSnapshot> {
        None
    }

    /// Restore state captured by [`Agent::snapshot`]. The default refuses —
    /// designs that opt into checkpointing override both methods together.
    fn restore(&mut self, snapshot: &AgentSnapshot) -> Result<(), String> {
        let _ = snapshot;
        Err(format!(
            "design `{}` does not support checkpoint restore",
            self.name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_finished_logic() {
        let mut o = Observation {
            state: vec![0.0],
            action: 0,
            reward: 0.0,
            next_state: vec![0.0],
            done: false,
            truncated: false,
        };
        assert!(!o.finished());
        o.truncated = true;
        assert!(o.finished());
        o.truncated = false;
        o.done = true;
        assert!(o.finished());
    }
}
