//! Experiment E4 — Figure 6: execution-time detail of the FPGA design.
//!
//! The paper zooms into the FPGA bars of Figure 5: how much of the (much
//! shorter) completion time goes to `seq_train`, `predict_seq`, `init_train`
//! and `predict_init`. Here the numbers come from the cycle-accurate core
//! simulation (PL cycles at 125 MHz) plus the modeled Cortex-A9 cost of the
//! initial training, averaged over the trials that completed the task.

use crate::runner::{run_trials_checkpointed, CheckpointOptions, Sweep, TrialSpec};
use elmrl_core::designs::Design;
use elmrl_core::ops::OpKind;
use elmrl_gym::{Workload, WorkloadOptions};
use serde::{Deserialize, Serialize};

/// Per-hidden-size FPGA timing detail.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FpgaDetail {
    /// Hidden width.
    pub hidden_dim: usize,
    /// Trials attempted / solved.
    pub trials: usize,
    /// Number of solved trials.
    pub solved_trials: usize,
    /// Mean simulated PL seconds in the predict module.
    pub predict_seconds: Option<f64>,
    /// Mean simulated PL seconds in the seq_train module.
    pub seq_train_seconds: Option<f64>,
    /// Mean simulated CPU seconds in the initial training.
    pub init_train_seconds: Option<f64>,
    /// Mean total simulated on-device seconds.
    pub total_seconds: Option<f64>,
    /// Mean number of sequential-training invocations.
    pub mean_seq_train_calls: Option<f64>,
}

/// The Figure 6 reproduction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Figure6 {
    /// Workload the detail ran on.
    pub workload: Workload,
    /// Workload variant knobs the detail used.
    pub options: WorkloadOptions,
    /// Parallel training episodes per trial (`--train-envs`; 1 = the
    /// paper's scalar protocol).
    pub train_envs: usize,
    /// One row per hidden size.
    pub rows: Vec<FpgaDetail>,
}

/// Generate the Figure 6 detail: `sweep.trials` seeded FPGA trials at every
/// hidden size. With `ckpt`, trials checkpoint and resume as in
/// [`crate::fig5::generate`]; `Ok(None)` means the fault-injection stop
/// abandoned the sweep early — resume from the checkpoints to finish it
/// byte-identically.
pub fn generate(
    sweep: &Sweep,
    ckpt: Option<&CheckpointOptions>,
) -> Result<Option<Figure6>, String> {
    let mut rows = Vec::new();
    let mut stopped_early = false;
    for &h in &sweep.hidden {
        let specs: Vec<TrialSpec> = (0..sweep.trials)
            .map(|t| sweep.trial(Design::Fpga, h, sweep.seed ^ ((h as u64) << 20) ^ t as u64))
            .collect();
        let outcomes = run_trials_checkpointed(&specs, ckpt)?;
        stopped_early |= outcomes.iter().any(|(_, complete)| !complete);
        let results: Vec<_> = outcomes.into_iter().map(|(r, _)| r).collect();
        let solved: Vec<_> = results.iter().filter(|r| r.training.solved).collect();
        let mean = |f: &dyn Fn(&&crate::runner::TrialResult) -> f64| {
            if solved.is_empty() {
                None
            } else {
                Some(solved.iter().map(f).sum::<f64>() / solved.len() as f64)
            }
        };
        rows.push(FpgaDetail {
            hidden_dim: h,
            trials: results.len(),
            solved_trials: solved.len(),
            predict_seconds: mean(&|r| r.fpga_simulated_seconds.map(|b| b.0).unwrap_or(0.0)),
            seq_train_seconds: mean(&|r| r.fpga_simulated_seconds.map(|b| b.1).unwrap_or(0.0)),
            init_train_seconds: mean(&|r| r.fpga_simulated_seconds.map(|b| b.2).unwrap_or(0.0)),
            total_seconds: mean(&|r| {
                r.fpga_simulated_seconds
                    .map(|b| b.0 + b.1 + b.2)
                    .unwrap_or(0.0)
            }),
            mean_seq_train_calls: mean(&|r| r.training.op_counts.count(OpKind::SeqTrain) as f64),
        });
    }
    if stopped_early {
        return Ok(None);
    }
    Ok(Some(Figure6 {
        workload: sweep.workload,
        options: sweep.options,
        train_envs: sweep.train_envs,
        rows,
    }))
}

/// Markdown rendering.
pub fn to_markdown(fig: &Figure6) -> String {
    let rows: Vec<Vec<String>> = fig
        .rows
        .iter()
        .map(|r| {
            vec![
                r.hidden_dim.to_string(),
                format!("{}/{}", r.solved_trials, r.trials),
                crate::report::fmt_opt(r.seq_train_seconds),
                crate::report::fmt_opt(r.predict_seconds),
                crate::report::fmt_opt(r.init_train_seconds),
                crate::report::fmt_opt(r.total_seconds),
                crate::report::fmt_opt(r.mean_seq_train_calls),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "hidden",
            "solved",
            "seq_train s (PL)",
            "predict s (PL)",
            "init_train s (CPU)",
            "total s",
            "seq_train calls",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fig6_has_expected_structure() {
        let fig = generate(&Sweep::new(Workload::CartPole, &[8], 3, 13), None)
            .unwrap()
            .unwrap();
        assert_eq!(fig.rows.len(), 1);
        assert_eq!(fig.workload, Workload::CartPole);
        let r = &fig.rows[0];
        assert_eq!(r.hidden_dim, 8);
        assert_eq!(r.trials, 1);
        let md = to_markdown(&fig);
        assert!(md.contains("seq_train s (PL)"));
        assert!(md.contains("| 8 |"));
    }

    #[test]
    fn fpga_detail_runs_on_pendulum() {
        let fig = generate(&Sweep::new(Workload::Pendulum, &[8], 2, 29), None)
            .unwrap()
            .unwrap();
        assert_eq!(fig.workload, Workload::Pendulum);
        assert_eq!(fig.rows.len(), 1);
        assert_eq!(fig.rows[0].trials, 1);
    }
}
