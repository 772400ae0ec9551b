//! Action selection: the paper's ε₁ exploit/explore rule.
//!
//! Algorithm 1 lines 10–13: with probability ε₁ the agent takes the greedy
//! action `argmax_a Q(s, a)`, otherwise a uniformly random action. Note the
//! inversion relative to the usual "ε-greedy" convention — here ε₁ is the
//! probability of *exploiting* (the paper uses ε₁ = 0.7).

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The exploit-with-probability-ε₁ policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExploitPolicy {
    /// Probability of taking the greedy action (ε₁ in the paper).
    pub exploit_prob: f64,
}

impl ExploitPolicy {
    /// Create a policy with the given exploit probability.
    pub fn new(exploit_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&exploit_prob),
            "exploit probability must be in [0, 1]"
        );
        Self { exploit_prob }
    }

    /// Select an action given the per-action Q-values. Exact ties among the
    /// maximal Q-values are broken uniformly at random — before any training
    /// has happened every Q-value is identical, and deterministic tie-breaking
    /// would collapse the behaviour policy onto action 0 and starve the
    /// learner of coverage.
    pub fn select(&self, q_values: &[f64], rng: &mut SmallRng) -> usize {
        assert!(!q_values.is_empty(), "need at least one action");
        if rng.gen_range(0.0..1.0) < self.exploit_prob {
            argmax_random_ties(q_values, rng)
        } else {
            rng.gen_range(0..q_values.len())
        }
    }
}

/// Index of the largest value, breaking exact ties uniformly at random.
///
/// Allocation-free (this runs once per environment step in every training
/// loop): ties are counted in a first pass and the drawn winner located in
/// a second, consuming exactly one RNG value when ties exist and none
/// otherwise — the same stream the historical `Vec`-collecting
/// implementation consumed.
pub fn argmax_random_ties(values: &[f64], rng: &mut SmallRng) -> usize {
    let best_index = argmax(values);
    let best = values[best_index];
    let tied = values.iter().filter(|&&v| v == best).count();
    if tied == 1 {
        return best_index;
    }
    let pick = rng.gen_range(0..tied);
    let mut seen = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v == best {
            if seen == pick {
                return i;
            }
            seen += 1;
        }
    }
    unreachable!("tie count and tie scan disagree");
}

/// Index of the largest value (first index on ties).
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0usize;
    for i in 1..values.len() {
        if values[i] > values[best] {
            best = i;
        }
    }
    best
}

/// The largest value of a non-empty slice (`max_a Q(s, a)`).
pub fn max_q(values: &[f64]) -> f64 {
    values[argmax(values)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn argmax_and_max_q() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), 0);
        assert_eq!(max_q(&[-2.0, -1.0, -3.0]), -1.0);
    }

    #[test]
    fn fully_greedy_policy_always_exploits() {
        let p = ExploitPolicy::new(1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(p.select(&[0.0, 1.0, 0.5], &mut rng), 1);
        }
    }

    #[test]
    fn fully_random_policy_covers_all_actions() {
        let p = ExploitPolicy::new(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[p.select(&[9.0, 0.0, 0.0], &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ties_are_broken_randomly_when_exploiting() {
        let p = ExploitPolicy::new(1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let q = [0.5, 0.5];
        let ones = (0..400).filter(|_| p.select(&q, &mut rng) == 1).count();
        let frac = ones as f64 / 400.0;
        assert!(
            (frac - 0.5).abs() < 0.1,
            "tie-breaking should be ~uniform, got {frac}"
        );
        // Non-tied values are still greedy.
        assert_eq!(argmax_random_ties(&[0.1, 0.9], &mut rng), 1);
    }

    #[test]
    fn intermediate_probability_mixes_modes() {
        let p = ExploitPolicy::new(0.7);
        let mut rng = SmallRng::seed_from_u64(2);
        let q = [0.0, 1.0];
        let greedy_count = (0..2000).filter(|_| p.select(&q, &mut rng) == 1).count();
        // exploit picks action 1 always; explore picks it half the time →
        // expected ≈ 0.7 + 0.3·0.5 = 0.85
        let frac = greedy_count as f64 / 2000.0;
        assert!(
            (frac - 0.85).abs() < 0.05,
            "observed greedy fraction {frac}"
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = ExploitPolicy::new(1.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_q_values_rejected() {
        let _ = argmax(&[]);
    }
}
