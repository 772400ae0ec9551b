//! Episode statistics and the moving-average "solved" detector.
//!
//! Figure 4 of the paper plots, per episode, the number of steps the pole
//! stayed up (lighter lines) and the moving average over the last 100
//! episodes (darker lines). [`EpisodeStats`] accumulates exactly those two
//! series and decides when the task is *complete* (CartPole-v0's standard
//! criterion: 100-episode average return ≥ 195).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A fixed-window moving average.
#[derive(Clone, Debug)]
pub struct MovingAverage {
    window: usize,
    values: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Create an average over the last `window` values.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            values: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Push a value, evicting the oldest when the window is full.
    pub fn push(&mut self, v: f64) {
        if self.values.len() == self.window {
            self.sum -= self.values.pop_front().unwrap();
        }
        self.values.push_back(v);
        self.sum += v;
    }

    /// Current average (`None` before any value is pushed).
    pub fn value(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum / self.values.len() as f64)
        }
    }

    /// `true` once the window holds `window` values.
    pub fn is_saturated(&self) -> bool {
        self.values.len() == self.window
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no values have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Per-episode return history plus the derived moving average — the data
/// behind one curve of Figure 4.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Return (total reward) of each completed episode, in order.
    pub returns: Vec<f64>,
    /// Moving average (window given at construction) after each episode.
    pub moving_averages: Vec<f64>,
    /// Window used for the moving average (100 in the paper).
    pub window: usize,
    /// Threshold at which the task counts as solved (195 for CartPole-v0).
    pub solved_threshold: Option<f64>,
    /// Index (0-based) of the episode at which the task became solved.
    pub solved_at_episode: Option<usize>,
}

impl EpisodeStats {
    /// New statistics tracker with the paper's 100-episode window.
    pub fn new(solved_threshold: Option<f64>) -> Self {
        Self::with_window(100, solved_threshold)
    }

    /// New statistics tracker with an explicit window.
    pub fn with_window(window: usize, solved_threshold: Option<f64>) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            returns: Vec::new(),
            moving_averages: Vec::new(),
            window,
            solved_threshold,
            solved_at_episode: None,
        }
    }

    /// Record one finished episode's return. Returns `true` when this episode
    /// made the task solved for the first time.
    pub fn record_episode(&mut self, episode_return: f64) -> bool {
        self.returns.push(episode_return);
        let start = self.returns.len().saturating_sub(self.window);
        let window_slice = &self.returns[start..];
        let avg = window_slice.iter().sum::<f64>() / window_slice.len() as f64;
        self.moving_averages.push(avg);

        if self.solved_at_episode.is_none() {
            if let Some(threshold) = self.solved_threshold {
                // The standard Gym criterion requires a *full* window.
                if window_slice.len() >= self.window && avg >= threshold {
                    self.solved_at_episode = Some(self.returns.len() - 1);
                    return true;
                }
            }
        }
        false
    }

    /// Number of episodes recorded so far.
    pub fn episodes(&self) -> usize {
        self.returns.len()
    }

    /// Latest moving-average value, if any episode has been recorded.
    pub fn current_average(&self) -> Option<f64> {
        self.moving_averages.last().copied()
    }

    /// Best single-episode return so far.
    pub fn best_return(&self) -> Option<f64> {
        self.returns.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.max(v)),
        })
    }

    /// Total number of environment steps implied by the returns, assuming a
    /// +1-per-step reward structure (true for CartPole).
    pub fn total_steps_assuming_unit_reward(&self) -> f64 {
        self.returns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_basics() {
        let mut ma = MovingAverage::new(3);
        assert!(ma.value().is_none());
        assert!(ma.is_empty());
        ma.push(1.0);
        assert_eq!(ma.value(), Some(1.0));
        ma.push(2.0);
        ma.push(3.0);
        assert!(ma.is_saturated());
        assert_eq!(ma.value(), Some(2.0));
        ma.push(7.0); // evicts 1.0 → (2+3+7)/3
        assert_eq!(ma.value(), Some(4.0));
        assert_eq!(ma.len(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn episode_stats_tracks_returns_and_average() {
        let mut stats = EpisodeStats::with_window(2, None);
        stats.record_episode(10.0);
        stats.record_episode(20.0);
        stats.record_episode(40.0);
        assert_eq!(stats.episodes(), 3);
        assert_eq!(stats.returns, vec![10.0, 20.0, 40.0]);
        assert_eq!(stats.moving_averages, vec![10.0, 15.0, 30.0]);
        assert_eq!(stats.best_return(), Some(40.0));
        assert_eq!(stats.current_average(), Some(30.0));
        assert_eq!(stats.total_steps_assuming_unit_reward(), 70.0);
        assert_eq!(stats.solved_at_episode, None);
    }

    #[test]
    fn solved_requires_full_window() {
        let mut stats = EpisodeStats::with_window(3, Some(100.0));
        // Two high episodes: average is high but the window is not full yet.
        assert!(!stats.record_episode(200.0));
        assert!(!stats.record_episode(200.0));
        assert_eq!(stats.solved_at_episode, None);
        // Third episode fills the window and triggers solved.
        assert!(stats.record_episode(200.0));
        assert_eq!(stats.solved_at_episode, Some(2));
        // Further episodes do not change the solve point.
        assert!(!stats.record_episode(200.0));
        assert_eq!(stats.solved_at_episode, Some(2));
    }

    #[test]
    fn not_solved_when_average_below_threshold() {
        let mut stats = EpisodeStats::with_window(2, Some(195.0));
        stats.record_episode(194.0);
        stats.record_episode(194.0);
        stats.record_episode(194.0);
        assert_eq!(stats.solved_at_episode, None);
    }

    #[test]
    fn default_window_is_100() {
        let stats = EpisodeStats::new(Some(195.0));
        assert_eq!(stats.window, 100);
    }
}
