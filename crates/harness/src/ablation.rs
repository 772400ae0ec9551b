//! Design-choice ablations (DESIGN.md experiments A1–A3).
//!
//! * **A1 — stabilisation techniques**: OS-ELM-L2-Lipschitz with Q-value
//!   clipping and/or the random-update rule disabled, quantifying how much
//!   each §3 technique contributes.
//! * **A2 — fixed-point precision**: quantisation error of an OS-ELM update
//!   pipeline at Q8/Q16/Q20/Q24 against the `f64` reference, justifying the
//!   paper's choice of Q20.
//! * **A3 — arithmetic backend**: the same workload trained end to end by
//!   the `f64` OS-ELM-L2-Lipschitz learner and by the Q20 fixed-point FPGA
//!   core from the same seed, showing the quantised datapath matches the
//!   float backend's learning behaviour while its modeled device time drops
//!   (the paper's Table 3 claim, now an explicit ablation axis).

use crate::runner::{run_trial, Sweep};
use elmrl_core::designs::Design;
use elmrl_core::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_core::trainer::{Trainer, TrainerConfig};
use elmrl_fixed::analysis::{quantization_report, QuantizationReport};
use elmrl_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One A1 configuration and its outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StabilisationAblationRow {
    /// Whether Q-value clipping was enabled.
    pub clipping: bool,
    /// Whether the random-update rule gated sequential training.
    pub random_update: bool,
    /// Whether the trial solved the task within the budget.
    pub solved: bool,
    /// Episodes run.
    pub episodes_run: usize,
    /// Final 100-episode average return.
    pub final_average: f64,
    /// Number of sequential updates performed.
    pub seq_train_count: u64,
}

/// Run the A1 ablation: the four combinations of {clipping, random update}
/// on OS-ELM-L2-Lipschitz at the sweep's first hidden size, one
/// `sweep.episodes`-episode trial each (E > 1 `train_envs` runs the
/// batched episode driver).
pub fn stabilisation_ablation(sweep: &Sweep) -> Vec<StabilisationAblationRow> {
    let spec = sweep.workload.spec_with(sweep.options);
    let mut rows = Vec::new();
    for &clipping in &[true, false] {
        for &random_update in &[true, false] {
            let mut rng = SmallRng::seed_from_u64(sweep.seed);
            let mut config = OsElmQNetConfig::for_workload(&spec, sweep.hidden[0], 0.5, true);
            config.target.clip = clipping;
            config.random_update = random_update;
            let mut agent = OsElmQNet::new(config, &mut rng);
            let trainer = Trainer::new(TrainerConfig {
                max_episodes: sweep.episodes,
                ..TrainerConfig::for_workload(&spec)
            });
            let result = if sweep.train_envs > 1 {
                let mut vec_env = elmrl_gym::VecEnv::from_spec(&spec, sweep.train_envs);
                trainer.run_vec(&mut agent, &mut vec_env, &mut rng)
            } else {
                let mut env = spec.make_env();
                trainer.run(&mut agent, env.as_mut(), &mut rng)
            };
            rows.push(StabilisationAblationRow {
                clipping,
                random_update,
                solved: result.solved,
                episodes_run: result.episodes_run,
                final_average: result.stats.current_average().unwrap_or(0.0),
                seq_train_count: result.op_counts.count(elmrl_core::ops::OpKind::SeqTrain),
            });
        }
    }
    rows
}

/// One A2 precision row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrecisionAblationRow {
    /// Number of fractional bits of the format.
    pub frac_bits: u32,
    /// Quantisation report of a representative OS-ELM `P` matrix.
    pub p_matrix_report: QuantizationReport,
    /// Quantisation report of a representative `β` matrix.
    pub beta_report: QuantizationReport,
}

/// Run the A2 precision ablation on a representative trained OS-ELM state
/// at the sweep's first hidden size (a fixed 30-episode session; the
/// sweep's episode budget and train-envs are not used).
pub fn precision_ablation(sweep: &Sweep) -> Vec<PrecisionAblationRow> {
    // Produce a representative trained state by running a short session on
    // the workload with the float agent, then quantising its P and β.
    let spec = sweep.workload.spec_with(sweep.options);
    let hidden_dim = sweep.hidden[0];
    let mut rng = SmallRng::seed_from_u64(sweep.seed);
    let mut agent = OsElmQNet::new(
        OsElmQNetConfig::for_workload(&spec, hidden_dim, 0.5, true),
        &mut rng,
    );
    let mut env = spec.make_env();
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: 30,
        stop_when_solved: false,
        ..TrainerConfig::for_workload(&spec)
    });
    let _ = trainer.run(&mut agent, env.as_mut(), &mut rng);
    let beta: Matrix<f64> = agent.online().model().beta().clone();
    let p: Matrix<f64> = agent
        .online()
        .p_matrix()
        .cloned()
        .unwrap_or_else(|| Matrix::identity(hidden_dim));

    vec![
        row::<8>(&p, &beta),
        row::<16>(&p, &beta),
        row::<20>(&p, &beta),
        row::<24>(&p, &beta),
    ]
}

/// One A3 backend row: one arithmetic backend trained on the workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BackendAblationRow {
    /// Human-readable backend label (`"f64"` or `"Q20"`).
    pub backend: String,
    /// Hidden width `Ñ` the trial ran at.
    pub hidden_dim: usize,
    /// Whether the trial solved the task within the budget.
    pub solved: bool,
    /// Episodes run.
    pub episodes_run: usize,
    /// Final 100-episode average return.
    pub final_average: f64,
    /// Number of sequential (RLS) updates performed.
    pub seq_train_updates: u64,
    /// Modeled on-device seconds (CPU for the float backend, PL+CPU for the
    /// quantised one) — the Table 3 execution-time axis.
    pub modeled_seconds: f64,
    /// For the Q20 backend: total simulated seconds from the cycle-accurate
    /// core (predict + seq_train + initial training). `None` for `f64`.
    pub simulated_device_seconds: Option<f64>,
}

/// Run the A3 backend ablation: `f64` OS-ELM-L2-Lipschitz vs the Q20 FPGA
/// core, same workload, seed and (first) hidden size. At `Ñ = 256` — the
/// paper's BRAM capacity bound — this is the end-to-end float-vs-fixed
/// comparison the quantised backend is gated on.
pub fn backend_ablation(sweep: &Sweep) -> Vec<BackendAblationRow> {
    let hidden_dim = sweep.hidden[0];
    [("f64", Design::OsElmL2Lipschitz), ("Q20", Design::Fpga)]
        .iter()
        .map(|&(backend, design)| {
            let result = run_trial(&sweep.trial(design, hidden_dim, sweep.seed));
            BackendAblationRow {
                backend: backend.to_string(),
                hidden_dim,
                solved: result.training.solved,
                episodes_run: result.training.episodes_run,
                final_average: result.training.stats.current_average().unwrap_or(0.0),
                seq_train_updates: result
                    .training
                    .op_counts
                    .count(elmrl_core::ops::OpKind::SeqTrain),
                modeled_seconds: result.modeled.total_seconds,
                simulated_device_seconds: result
                    .fpga_simulated_seconds
                    .map(|(predict, seq_train, init)| predict + seq_train + init),
            }
        })
        .collect()
}

/// Markdown rendering of the A3 backend ablation.
pub fn backend_to_markdown(a3: &[BackendAblationRow]) -> String {
    let mut out = String::from("## A3 — arithmetic backend (f64 vs Q20 fixed-point)\n\n");
    let rows: Vec<Vec<String>> = a3
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                r.hidden_dim.to_string(),
                r.solved.to_string(),
                r.episodes_run.to_string(),
                format!("{:.1}", r.final_average),
                r.seq_train_updates.to_string(),
                format!("{:.3}", r.modeled_seconds),
                r.simulated_device_seconds
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "—".to_string()),
            ]
        })
        .collect();
    out.push_str(&crate::report::markdown_table(
        &[
            "backend",
            "hidden",
            "solved",
            "episodes",
            "final avg",
            "seq_train updates",
            "modeled s",
            "simulated device s",
        ],
        &rows,
    ));
    out
}

fn row<const FRAC: u32>(p: &Matrix<f64>, beta: &Matrix<f64>) -> PrecisionAblationRow {
    PrecisionAblationRow {
        frac_bits: FRAC,
        p_matrix_report: quantization_report::<FRAC>(p),
        beta_report: quantization_report::<FRAC>(beta),
    }
}

/// Markdown rendering of both ablations.
pub fn to_markdown(a1: &[StabilisationAblationRow], a2: &[PrecisionAblationRow]) -> String {
    let mut out = String::from("## A1 — stabilisation techniques (OS-ELM-L2-Lipschitz)\n\n");
    let rows: Vec<Vec<String>> = a1
        .iter()
        .map(|r| {
            vec![
                r.clipping.to_string(),
                r.random_update.to_string(),
                r.solved.to_string(),
                r.episodes_run.to_string(),
                format!("{:.1}", r.final_average),
                r.seq_train_count.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::report::markdown_table(
        &[
            "clipping",
            "random update",
            "solved",
            "episodes",
            "final avg",
            "seq_train calls",
        ],
        &rows,
    ));
    out.push_str("\n## A2 — fixed-point precision\n\n");
    let rows: Vec<Vec<String>> = a2
        .iter()
        .map(|r| {
            vec![
                format!("Q{}", r.frac_bits),
                format!("{:.2e}", r.p_matrix_report.rms_error),
                format!("{:.2e}", r.beta_report.rms_error),
                r.p_matrix_report.saturated_elements.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::report::markdown_table(
        &["format", "P RMS error", "β RMS error", "saturated elements"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_gym::Workload;

    #[test]
    fn stabilisation_ablation_covers_all_four_combinations() {
        let rows = stabilisation_ablation(&Sweep::new(Workload::CartPole, &[8], 3, 5));
        assert_eq!(rows.len(), 4);
        let combos: Vec<(bool, bool)> =
            rows.iter().map(|r| (r.clipping, r.random_update)).collect();
        assert!(combos.contains(&(true, true)));
        assert!(combos.contains(&(false, false)));
        // disabling the random-update gate must produce at least as many
        // sequential updates as keeping it (probability 0.5)
        let gated = rows.iter().find(|r| r.clipping && r.random_update).unwrap();
        let ungated = rows
            .iter()
            .find(|r| r.clipping && !r.random_update)
            .unwrap();
        assert!(ungated.seq_train_count >= gated.seq_train_count);
    }

    #[test]
    fn precision_ablation_error_decreases_with_more_bits() {
        let rows = precision_ablation(&Sweep::new(Workload::CartPole, &[8], 0, 6));
        assert_eq!(rows.len(), 4);
        assert!(rows[0].beta_report.rms_error >= rows[2].beta_report.rms_error);
        assert!(rows[1].p_matrix_report.rms_error >= rows[3].p_matrix_report.rms_error);
        let a1 = stabilisation_ablation(&Sweep::new(Workload::CartPole, &[8], 2, 1));
        let md = to_markdown(&a1, &rows);
        assert!(md.contains("Q20"));
        assert!(md.contains("random update"));
    }

    #[test]
    fn ablations_run_on_other_workloads() {
        let rows = stabilisation_ablation(&Sweep::new(Workload::MountainCar, &[8], 2, 3));
        assert_eq!(rows.len(), 4);
        let rows = precision_ablation(&Sweep::new(Workload::Pendulum, &[8], 0, 3));
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn backend_ablation_compares_float_and_fixed_point() {
        let rows = backend_ablation(&Sweep::new(Workload::CartPole, &[16], 3, 11));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].backend, "f64");
        assert_eq!(rows[1].backend, "Q20");
        for r in &rows {
            assert_eq!(r.episodes_run, 3);
            assert!(r.final_average.is_finite());
            assert!(r.modeled_seconds > 0.0);
        }
        // Only the quantised backend reports cycle-accurate device seconds.
        assert!(rows[0].simulated_device_seconds.is_none());
        assert!(rows[1].simulated_device_seconds.unwrap() > 0.0);
        let md = backend_to_markdown(&rows);
        assert!(md.contains("Q20"));
        assert!(md.contains("simulated device s"));
    }

    #[test]
    fn backend_ablation_runs_at_the_papers_bram_limit() {
        // hidden = 256 is the BRAM bound the quantised backend is sized for;
        // both backends must run end to end at that width on every axis the
        // CLI exposes (here: the batched E = 2 episode driver). Pendulum's
        // fixed 200-step episodes guarantee the 256-sample store phase
        // completes, so the Q20 core really runs at that width.
        let rows = backend_ablation(&Sweep {
            train_envs: 2,
            ..Sweep::new(Workload::Pendulum, &[256], 2, 4)
        });
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.hidden_dim, 256);
            assert_eq!(r.episodes_run, 2);
            assert!(r.final_average.is_finite());
        }
        assert!(rows[1].simulated_device_seconds.unwrap() > 0.0);
    }
}
