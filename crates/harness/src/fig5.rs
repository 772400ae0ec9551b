//! Experiment E3 — Figure 5: execution time to complete CartPole-v0, and the
//! §4.4 speedup table (E5).
//!
//! Every (design, hidden size) cell is run for several seeded trials; the
//! reported number is the mean modeled on-device seconds over the trials that
//! completed the task, broken down per operation class exactly as in the
//! paper's stacked bars. Speedups are quoted relative to the DQN baseline at
//! the same hidden size.

use crate::runner::{
    run_trials_checkpointed, summarize_cell, CellSummary, CheckpointOptions, Sweep, TrialSpec,
};
use elmrl_core::designs::Design;
use elmrl_gym::{SolveCriterion, Workload, WorkloadOptions};
use serde::{Deserialize, Serialize};

/// The Figure 5 reproduction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Figure5 {
    /// Workload the sweep ran on.
    pub workload: Workload,
    /// Workload variant knobs the sweep used.
    pub options: WorkloadOptions,
    /// The effective completion rule of the sweep (registry default or the
    /// `--solve-threshold` override).
    pub solve_criterion: SolveCriterion,
    /// Parallel training episodes per trial (`--train-envs`; 1 = the
    /// paper's scalar protocol).
    pub train_envs: usize,
    /// The RLS chunk cap the OS-ELM trials trained under
    /// ([`elmrl_core::DEFAULT_CHUNK_CAP`] once `train_envs > 1` engages the
    /// chunked path); `None` when every update was single-transition.
    /// Skipped when absent so scalar artifacts keep their bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chunk_cap: Option<usize>,
    /// One summary per (design, hidden size) cell.
    pub cells: Vec<CellSummary>,
    /// Speedup of each non-DQN design relative to DQN at equal hidden size.
    pub speedups_vs_dqn: Vec<SpeedupRow>,
    /// Trials attempted per cell.
    pub trials_per_cell: usize,
    /// Episode budget per trial.
    pub max_episodes: usize,
}

/// One row of the speedup table (E5).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Design label.
    pub design: String,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Mean modeled completion seconds for the design.
    pub seconds: Option<f64>,
    /// Mean modeled completion seconds for DQN at the same width.
    pub dqn_seconds: Option<f64>,
    /// `dqn_seconds / seconds` when both are available.
    pub speedup: Option<f64>,
}

/// Generate the Figure 5 sweep: `sweep.trials` seeded trials of every
/// design in `designs` at every hidden size. With `ckpt`, every trial
/// writes its latest [`elmrl_core::checkpoint::RunCheckpoint`] into the
/// checkpoint directory and resumes from it when asked. Returns `Ok(None)`
/// when the fault-injection `stop_after` abandoned the sweep mid-run — the
/// checkpoints are on disk and a `resume: true` rerun finishes the figure
/// byte-identically to a run that never stopped.
pub fn generate(
    sweep: &Sweep,
    designs: &[Design],
    ckpt: Option<&CheckpointOptions>,
) -> Result<Option<Figure5>, String> {
    let workload = sweep.workload;
    let mut cells = Vec::new();
    let mut stopped_early = false;
    for &h in &sweep.hidden {
        for &d in designs {
            let specs: Vec<TrialSpec> = (0..sweep.trials)
                .map(|t| sweep.trial(d, h, sweep.seed ^ ((h as u64) << 16) ^ ((t as u64) << 4)))
                .collect();
            let outcomes = run_trials_checkpointed(&specs, ckpt)?;
            stopped_early |= outcomes.iter().any(|(_, complete)| !complete);
            let results: Vec<_> = outcomes.into_iter().map(|(r, _)| r).collect();
            cells.push(summarize_cell(workload, d, h, &results));
        }
    }
    if stopped_early {
        return Ok(None);
    }

    let speedups = cells
        .iter()
        .filter(|c| c.design != Design::Dqn)
        .map(|c| {
            let dqn = cells
                .iter()
                .find(|x| x.design == Design::Dqn && x.hidden_dim == c.hidden_dim)
                .and_then(|x| x.mean_time_to_complete);
            let speedup = match (dqn, c.mean_time_to_complete) {
                (Some(d), Some(s)) if s > 0.0 => Some(d / s),
                _ => None,
            };
            SpeedupRow {
                design: c.design.label().to_string(),
                hidden_dim: c.hidden_dim,
                seconds: c.mean_time_to_complete,
                dqn_seconds: dqn,
                speedup,
            }
        })
        .collect();

    Ok(Some(Figure5 {
        workload,
        options: sweep.options,
        solve_criterion: workload.spec_with(sweep.options).solve_criterion,
        train_envs: sweep.train_envs,
        chunk_cap: designs
            .iter()
            .find_map(|d| d.effective_chunk_cap(sweep.train_envs)),
        cells,
        speedups_vs_dqn: speedups,
        trials_per_cell: sweep.trials,
        max_episodes: sweep.episodes,
    }))
}

/// Markdown rendering of the per-cell completion times with the operation
/// breakdown (the stacked-bar contents).
pub fn to_markdown(fig: &Figure5) -> String {
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            let breakdown = c
                .mean_per_op_seconds
                .iter()
                .map(|(k, v)| format!("{k}={v:.3}"))
                .collect::<Vec<_>>()
                .join(", ");
            vec![
                c.design.label().to_string(),
                c.hidden_dim.to_string(),
                format!("{}/{}", c.solved_trials, c.trials),
                crate::report::fmt_opt(c.mean_time_to_complete),
                crate::report::fmt_opt(c.mean_wall_seconds),
                crate::report::fmt_opt(c.mean_episodes_to_solve),
                breakdown,
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "design",
            "hidden",
            "solved",
            "modeled s to complete",
            "host wall s",
            "episodes",
            "per-op breakdown (modeled s)",
        ],
        &rows,
    )
}

/// Markdown rendering of the speedup table.
pub fn speedups_to_markdown(fig: &Figure5) -> String {
    let rows: Vec<Vec<String>> = fig
        .speedups_vs_dqn
        .iter()
        .map(|s| {
            vec![
                s.design.clone(),
                s.hidden_dim.to_string(),
                crate::report::fmt_opt(s.seconds),
                crate::report::fmt_opt(s.dqn_seconds),
                s.speedup
                    .map(|v| format!("{v:.2}x"))
                    .unwrap_or_else(|| "—".into()),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "design",
            "hidden",
            "modeled s",
            "DQN modeled s",
            "speedup vs DQN",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(workload: Workload, episodes: usize, seed: u64) -> Sweep {
        Sweep::new(workload, &[8], episodes, seed)
    }

    fn run(sweep: &Sweep, designs: &[Design]) -> Figure5 {
        generate(sweep, designs, None).unwrap().unwrap()
    }

    #[test]
    fn tiny_sweep_produces_cells_and_speedup_rows() {
        let designs = [Design::OsElmL2Lipschitz, Design::Dqn, Design::Fpga];
        let fig = run(&sweep(Workload::CartPole, 3, 11), &designs);
        assert_eq!(fig.cells.len(), 3);
        assert_eq!(fig.speedups_vs_dqn.len(), 2);
        let md = to_markdown(&fig);
        assert!(md.contains("FPGA"));
        assert!(md.contains("DQN"));
        let sp = speedups_to_markdown(&fig);
        assert!(sp.contains("speedup vs DQN"));
    }

    #[test]
    fn sweep_records_train_envs_and_the_effective_criterion() {
        let fig = run(&sweep(Workload::CartPole, 2, 3), &[Design::OsElmL2]);
        assert_eq!(fig.train_envs, 1);
        assert_eq!(
            fig.solve_criterion,
            elmrl_gym::SolveCriterion::EpisodeReturn { threshold: 195.0 }
        );
        let wide = Sweep {
            options: WorkloadOptions {
                solve_threshold: Some(150.0),
                ..WorkloadOptions::default()
            },
            train_envs: 4,
            ..sweep(Workload::CartPole, 2, 3)
        };
        let fig = run(&wide, &[Design::OsElmL2]);
        assert_eq!(fig.train_envs, 4);
        assert_eq!(
            fig.solve_criterion,
            elmrl_gym::SolveCriterion::EpisodeReturn { threshold: 150.0 }
        );
        assert_eq!(fig.options.solve_threshold, Some(150.0));
    }

    #[test]
    fn sweep_records_the_chunk_cap_only_where_it_is_live() {
        let scalar = sweep(Workload::CartPole, 2, 3);
        let batched = Sweep {
            train_envs: 3,
            ..scalar.clone()
        };
        // Scalar runs never split a tick, so the cap stays unrecorded.
        assert_eq!(run(&scalar, &[Design::OsElmL2]).chunk_cap, None);
        assert_eq!(
            run(&batched, &[Design::OsElmL2]).chunk_cap,
            Some(elmrl_core::DEFAULT_CHUNK_CAP)
        );
        // Designs without the chunked RLS update never record a cap.
        assert_eq!(run(&batched, &[Design::Dqn, Design::Fpga]).chunk_cap, None);
    }

    #[test]
    fn sweep_runs_on_every_registered_workload() {
        let designs = [Design::OsElmL2Lipschitz, Design::Dqn];
        for workload in Workload::all() {
            let fig = run(&sweep(workload, 2, 23), &designs);
            assert_eq!(fig.workload, workload);
            assert_eq!(fig.cells.len(), 2);
            assert!(fig.cells.iter().all(|c| c.workload == workload));
        }
    }
}
