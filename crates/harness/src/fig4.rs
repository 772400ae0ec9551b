//! Experiment E2 — Figure 4: training curves of the six software designs.
//!
//! For every (design, hidden size) cell the paper plots the per-episode
//! number of surviving steps (light line) and its 100-episode moving average
//! (dark line). This module runs one representative trial per cell (the paper
//! likewise "picks up a representative result") for a configurable number of
//! episodes without early stopping and exports both series.

use crate::runner::{run_trials_checkpointed, CheckpointOptions, Sweep, TrialResult, TrialSpec};
use elmrl_core::designs::Design;
use elmrl_gym::{Workload, WorkloadOptions};
use serde::{Deserialize, Serialize};

/// One training curve: the data behind one line pair of Figure 4.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Curve {
    /// Design label.
    pub design: String,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Per-episode returns (steps survived).
    pub returns: Vec<f64>,
    /// 100-episode moving average.
    pub moving_average: Vec<f64>,
    /// Episode at which the solve criterion fired, if it did.
    pub solved_at_episode: Option<usize>,
}

impl From<&TrialResult> for Curve {
    fn from(r: &TrialResult) -> Self {
        Curve {
            design: r.training.design.clone(),
            hidden_dim: r.training.hidden_dim,
            returns: r.training.stats.returns.clone(),
            moving_average: r.training.stats.moving_averages.clone(),
            solved_at_episode: r.training.solved_at_episode,
        }
    }
}

/// The full Figure 4 reproduction: one curve per (design, hidden size).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Figure4 {
    /// Workload the curves were collected on.
    pub workload: Workload,
    /// Workload variant knobs the curves used.
    pub options: WorkloadOptions,
    /// All curves, in design-major order.
    pub curves: Vec<Curve>,
    /// Episode budget used per curve.
    pub episodes: usize,
    /// Parallel training episodes per curve (`--train-envs`; 1 = the
    /// paper's scalar protocol).
    pub train_envs: usize,
    /// The RLS chunk cap the OS-ELM curves trained under
    /// ([`elmrl_core::DEFAULT_CHUNK_CAP`] once `train_envs > 1` engages the
    /// chunked path); `None` when every update was single-transition.
    /// Skipped when absent so scalar artifacts keep their bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chunk_cap: Option<usize>,
}

/// Generate Figure 4: one curve per (software design, hidden size) cell,
/// one seed per cell (`sweep.trials` is not used), run for the full
/// episode budget. With `ckpt`, every trial checkpoints and resumes under
/// the CLI's `--checkpoint-dir` / `--resume` / `--checkpoint-every` /
/// `--stop-after` flags; `Ok(None)` means the fault-injection stop
/// abandoned the sweep early — resume from the checkpoints to finish it
/// byte-identically.
pub fn generate(
    sweep: &Sweep,
    ckpt: Option<&CheckpointOptions>,
) -> Result<Option<Figure4>, String> {
    let designs = Design::software_designs();
    let specs: Vec<TrialSpec> = sweep
        .hidden
        .iter()
        .flat_map(|&h| {
            designs.into_iter().map(move |d| {
                sweep
                    .trial(d, h, sweep.seed ^ (h as u64) << 8 ^ design_salt(d))
                    .collect_full_curve()
            })
        })
        .collect();
    let outcomes = run_trials_checkpointed(&specs, ckpt)?;
    if outcomes.iter().any(|(_, complete)| !complete) {
        return Ok(None);
    }
    Ok(Some(Figure4 {
        workload: sweep.workload,
        options: sweep.options,
        curves: outcomes.iter().map(|(r, _)| Curve::from(r)).collect(),
        episodes: sweep.episodes,
        train_envs: sweep.train_envs,
        chunk_cap: designs
            .iter()
            .find_map(|d| d.effective_chunk_cap(sweep.train_envs)),
    }))
}

fn design_salt(d: Design) -> u64 {
    Design::all_designs()
        .iter()
        .position(|&x| x == d)
        .unwrap_or(0) as u64
}

/// CSV rows: `design,hidden,episode,return,moving_average`.
pub fn to_csv(fig: &Figure4) -> String {
    let mut rows = Vec::new();
    for c in &fig.curves {
        for (i, (&ret, &avg)) in c.returns.iter().zip(c.moving_average.iter()).enumerate() {
            rows.push(vec![
                c.design.clone(),
                c.hidden_dim.to_string(),
                i.to_string(),
                format!("{ret}"),
                format!("{avg:.2}"),
            ]);
        }
    }
    crate::report::csv_table(
        &["design", "hidden", "episode", "return", "moving_average"],
        &rows,
    )
}

/// A compact Markdown summary of the final moving average per cell (the
/// quantity the paper's prose discusses: which designs "acquire correct
/// actions").
pub fn to_markdown_summary(fig: &Figure4) -> String {
    let rows: Vec<Vec<String>> = fig
        .curves
        .iter()
        .map(|c| {
            vec![
                c.design.clone(),
                c.hidden_dim.to_string(),
                format!("{:.1}", c.moving_average.last().copied().unwrap_or(0.0)),
                format!("{:.0}", c.returns.iter().copied().fold(0.0_f64, f64::max)),
                c.solved_at_episode
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "—".into()),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "design",
            "hidden",
            "final 100-ep avg",
            "best episode",
            "solved at episode",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_figure4_produces_all_cells() {
        let fig = generate(&Sweep::new(Workload::CartPole, &[8], 3, 7), None)
            .unwrap()
            .unwrap();
        assert_eq!(fig.curves.len(), 6);
        assert_eq!(fig.workload, Workload::CartPole);
        for c in &fig.curves {
            assert_eq!(c.returns.len(), 3);
            assert_eq!(c.moving_average.len(), 3);
            assert_eq!(c.hidden_dim, 8);
        }
        let csv = to_csv(&fig);
        assert_eq!(csv.lines().count(), 1 + 6 * 3);
        let md = to_markdown_summary(&fig);
        assert!(md.contains("OS-ELM-L2-Lipschitz"));
        assert!(md.contains("DQN"));
    }

    #[test]
    fn figure4_runs_on_non_cartpole_workloads() {
        let fig = generate(&Sweep::new(Workload::MountainCar, &[8], 2, 9), None)
            .unwrap()
            .unwrap();
        assert_eq!(fig.workload, Workload::MountainCar);
        assert_eq!(fig.curves.len(), 6);
        for c in &fig.curves {
            assert_eq!(c.returns.len(), 2);
            // MountainCar returns are −1 per step, never positive.
            assert!(c.returns.iter().all(|&r| (-200.0..=0.0).contains(&r)));
        }
    }
}
