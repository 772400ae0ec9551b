//! Experience replay buffer.
//!
//! DQNs record `(sₜ, aₜ, rₜ, sₜ₊₁, done)` transitions and sample random
//! mini-batches to break temporal correlation (§2.4). The paper's core
//! argument is that this buffer is exactly what a resource-limited edge
//! device cannot afford — the OS-ELM Q-Network replaces it with the *random
//! update* technique — so this implementation exists for the DQN baseline and
//! for the memory-footprint comparison in the harness.

use elmrl_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One stored transition — the unit of a replay snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// State observed before acting.
    pub state: Vec<f64>,
    /// Action taken (discrete index).
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// State observed after acting.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at this step.
    pub done: bool,
}

/// A bounded FIFO replay buffer with uniform random sampling.
///
/// The storage is a flat ring: states and next states are contiguous `f64`
/// rows, one slot per transition, next to parallel action/reward/done
/// columns. The slots grow on demand up to `capacity`; after that each push
/// overwrites the oldest slot. A push copies from slices and a sample copies
/// rows into a reused [`ReplayBatch`], so neither allocates at steady state.
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    capacity: usize,
    /// State width, fixed by the first push.
    dim: usize,
    states: Vec<f64>,
    next_states: Vec<f64>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    dones: Vec<bool>,
    /// Slot of the oldest transition (0 until the ring wraps).
    head: usize,
}

/// A sampled mini-batch: row `i` of `states`/`next_states` and entry `i` of
/// the columns belong to the `i`-th draw. Reused across samples.
#[derive(Clone, Debug, Default)]
pub struct ReplayBatch {
    /// `B × d` states.
    pub states: Matrix<f64>,
    /// `B × d` next states.
    pub next_states: Matrix<f64>,
    /// Actions taken.
    pub actions: Vec<usize>,
    /// Rewards received.
    pub rewards: Vec<f64>,
    /// Termination flags.
    pub dones: Vec<bool>,
}

impl ReplayBuffer {
    /// Create a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            capacity,
            dim: 0,
            states: Vec::new(),
            next_states: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            dones: Vec::new(),
            head: 0,
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// `true` when the buffer holds `capacity` transitions.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Append a transition, evicting the oldest one when full. Panics when
    /// the state widths differ from each other or from earlier pushes.
    pub fn push(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        next_state: &[f64],
        done: bool,
    ) {
        assert_eq!(
            state.len(),
            next_state.len(),
            "replay: state and next state widths differ"
        );
        if self.is_empty() {
            self.dim = state.len();
        }
        assert_eq!(state.len(), self.dim, "replay: state width changed");
        if self.is_full() {
            let slot = self.head;
            let row = slot * self.dim..(slot + 1) * self.dim;
            self.states[row.clone()].copy_from_slice(state);
            self.next_states[row].copy_from_slice(next_state);
            self.actions[slot] = action;
            self.rewards[slot] = reward;
            self.dones[slot] = done;
            self.head = (slot + 1) % self.capacity;
        } else {
            self.states.extend_from_slice(state);
            self.next_states.extend_from_slice(next_state);
            self.actions.push(action);
            self.rewards.push(reward);
            self.dones.push(done);
        }
    }

    /// Ring slot of the `i`-th oldest transition.
    fn slot(&self, i: usize) -> usize {
        (self.head + i) % self.len()
    }

    /// Uniformly sample `batch_size` transitions (with replacement) into
    /// `out`, one `gen_range(0..len)` draw per row, oldest transition at
    /// index 0. Leaves `out` with zero rows when the buffer is empty.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
        out: &mut ReplayBatch,
    ) {
        let rows = if self.is_empty() { 0 } else { batch_size };
        out.states.resize_zeroed(rows, self.dim);
        out.next_states.resize_zeroed(rows, self.dim);
        out.actions.clear();
        out.rewards.clear();
        out.dones.clear();
        for i in 0..rows {
            let slot = self.slot(rng.gen_range(0..self.len()));
            let row = slot * self.dim..(slot + 1) * self.dim;
            out.states.set_row(i, &self.states[row.clone()]);
            out.next_states.set_row(i, &self.next_states[row]);
            out.actions.push(self.actions[slot]);
            out.rewards.push(self.rewards[slot]);
            out.dones.push(self.dones[slot]);
        }
    }

    /// The stored transitions from oldest to newest, as owned values (for
    /// snapshots and inspection; the training path never calls this).
    pub fn iter(&self) -> impl Iterator<Item = Transition> + '_ {
        (0..self.len()).map(|i| {
            let slot = self.slot(i);
            let row = slot * self.dim..(slot + 1) * self.dim;
            Transition {
                state: self.states[row.clone()].to_vec(),
                action: self.actions[slot],
                reward: self.rewards[slot],
                next_state: self.next_states[row].to_vec(),
                done: self.dones[slot],
            }
        })
    }

    /// Remove every stored transition (the allocations are kept).
    pub fn clear(&mut self) {
        self.states.clear();
        self.next_states.clear();
        self.actions.clear();
        self.rewards.clear();
        self.dones.clear();
        self.head = 0;
    }

    /// Approximate memory footprint of the stored transitions in bytes. The
    /// harness uses this to contrast DQN's buffer requirement with the
    /// OS-ELM random-update approach (which needs no buffer at all).
    pub fn approximate_bytes(&self) -> usize {
        let per_slot = 2 * self.dim * std::mem::size_of::<f64>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<f64>()
            + std::mem::size_of::<bool>();
        self.len() * per_slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn push(buf: &mut ReplayBuffer, i: usize) {
        let state = [i as f64; 4];
        let next = [i as f64 + 1.0; 4];
        buf.push(&state, i % 2, i as f64 * 0.5, &next, i % 3 == 0);
    }

    #[test]
    fn push_and_len() {
        let mut buf = ReplayBuffer::new(3);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 3);
        for i in 0..2 {
            push(&mut buf, i);
        }
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_full());
        push(&mut buf, 2);
        assert!(buf.is_full());
    }

    #[test]
    fn eviction_is_fifo() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            push(&mut buf, i);
        }
        assert_eq!(buf.len(), 3);
        let states: Vec<f64> = buf.iter().map(|t| t.state[0]).collect();
        assert_eq!(states, vec![2.0, 3.0, 4.0]);
        let t = buf.iter().last().unwrap();
        assert_eq!(
            t,
            Transition {
                state: vec![4.0; 4],
                action: 0,
                reward: 2.0,
                next_state: vec![5.0; 4],
                done: false,
            }
        );
    }

    #[test]
    fn sampling_returns_requested_count() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..13 {
            push(&mut buf, i);
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let mut batch = ReplayBatch::default();
        buf.sample_into(32, &mut rng, &mut batch);
        assert_eq!(batch.states.shape(), (32, 4));
        assert_eq!(batch.next_states.shape(), (32, 4));
        for r in 0..32 {
            let i = batch.states[(r, 0)] as usize;
            assert!((3..13).contains(&i), "only the newest 10 remain");
            assert_eq!(batch.next_states[(r, 3)], i as f64 + 1.0);
            assert_eq!(batch.actions[r], i % 2);
            assert_eq!(batch.rewards[r], i as f64 * 0.5);
            assert_eq!(batch.dones[r], i % 3 == 0);
        }
        buf.sample_into(4, &mut rng, &mut batch);
        assert_eq!(batch.actions.len(), 4);
        assert_eq!(batch.states.rows(), 4);
    }

    #[test]
    fn sampling_draws_logical_indices_oldest_first() {
        // Index k of the draw sequence names the k-th oldest transition,
        // before and after the ring wraps.
        for pushes in [6, 9, 17] {
            let mut buf = ReplayBuffer::new(6);
            for i in 0..pushes {
                push(&mut buf, i);
            }
            let oldest = pushes - buf.len();
            let mut rng = SmallRng::seed_from_u64(pushes as u64);
            let mut draws = SmallRng::seed_from_u64(pushes as u64);
            let mut batch = ReplayBatch::default();
            buf.sample_into(16, &mut rng, &mut batch);
            for r in 0..16 {
                let k = draws.gen_range(0..buf.len());
                assert_eq!(batch.states[(r, 0)], (oldest + k) as f64);
            }
        }
    }

    #[test]
    fn sampling_from_empty_buffer_is_empty() {
        let buf = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut batch = ReplayBatch::default();
        buf.sample_into(8, &mut rng, &mut batch);
        assert_eq!(batch.states.rows(), 0);
        assert!(batch.actions.is_empty());
    }

    #[test]
    fn sampling_covers_the_buffer_eventually() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            push(&mut buf, i);
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut batch = ReplayBatch::default();
        buf.sample_into(400, &mut rng, &mut batch);
        let mut seen = [false; 8];
        for r in 0..400 {
            seen[batch.states[(r, 0)] as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform sampling should hit every slot"
        );
    }

    #[test]
    fn clear_and_bytes() {
        let mut buf = ReplayBuffer::new(4);
        push(&mut buf, 0);
        assert!(buf.approximate_bytes() > 8 * std::mem::size_of::<f64>());
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.approximate_bytes(), 0);
        push(&mut buf, 7);
        assert_eq!(buf.iter().next().unwrap().state, vec![7.0; 4]);
    }

    #[test]
    #[should_panic(expected = "state width changed")]
    fn mismatched_state_width_rejected() {
        let mut buf = ReplayBuffer::new(4);
        push(&mut buf, 0);
        buf.push(&[0.0; 3], 0, 0.0, &[0.0; 3], false);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
