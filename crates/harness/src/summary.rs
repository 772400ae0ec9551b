//! Cross-environment result aggregation (the design × environment matrix the
//! paper's §5 extension table gestures at).
//!
//! [`collect`] reads every `results/<workload-slug>/fig5.json` previously
//! written by the `fig5` binary and folds the per-cell summaries into one
//! row per (design, workload) pair: trials, solve rate and mean modeled
//! time-to-complete averaged over the hidden sizes that solved. Workloads
//! whose `fig5.json` is missing are listed as skipped rather than failing
//! the aggregation, so partial sweeps still summarise.
//!
//! [`collect_population`] does the same for the population engine's
//! artefacts: every `results/<workload-slug>/population.json` written by the
//! `population` binary becomes one row of a cross-workload population table
//! (design × environment, with solve rate and episodes-to-solve quantiles)
//! — the ROADMAP's "population-level reporting" item.

use crate::fig5::Figure5;
use elmrl_core::designs::Design;
use elmrl_gym::Workload;
use elmrl_population::{PopulationReport, QuantileSummary};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One aggregated (design, workload) cell of the summary matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SummaryCell {
    /// Workload the cell aggregates.
    pub workload: Workload,
    /// Design label.
    pub design: String,
    /// Trials attempted across all hidden sizes.
    pub trials: usize,
    /// Trials that solved the task.
    pub solved_trials: usize,
    /// `solved_trials / trials`.
    pub solve_rate: f64,
    /// Mean modeled seconds to complete, averaged over the hidden-size cells
    /// that have a value (`None` when nothing solved).
    pub mean_time_to_complete: Option<f64>,
    /// Mean episodes to solve, averaged the same way.
    pub mean_episodes_to_solve: Option<f64>,
}

/// The full cross-environment summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Summary {
    /// Workloads whose `fig5.json` was found and aggregated.
    pub workloads: Vec<Workload>,
    /// Workload slugs that had no `fig5.json` under the results root.
    pub missing: Vec<String>,
    /// Workload slugs whose `fig5.json` exists but could not be parsed
    /// (typically written by an older version of the `fig5` binary) —
    /// skipped rather than failing the whole aggregation.
    pub unreadable: Vec<String>,
    /// One cell per (design, aggregated workload).
    pub cells: Vec<SummaryCell>,
}

/// Aggregate one deserialized [`Figure5`] into per-design summary cells.
fn aggregate(fig: &Figure5) -> Vec<SummaryCell> {
    Design::all_designs()
        .iter()
        .filter_map(|design| {
            let cells: Vec<_> = fig.cells.iter().filter(|c| c.design == *design).collect();
            if cells.is_empty() {
                return None;
            }
            let trials: usize = cells.iter().map(|c| c.trials).sum();
            let solved: usize = cells.iter().map(|c| c.solved_trials).sum();
            let mean = |values: Vec<f64>| {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            };
            Some(SummaryCell {
                workload: fig.workload,
                design: design.label().to_string(),
                trials,
                solved_trials: solved,
                solve_rate: if trials > 0 {
                    solved as f64 / trials as f64
                } else {
                    0.0
                },
                mean_time_to_complete: mean(
                    cells
                        .iter()
                        .filter_map(|c| c.mean_time_to_complete)
                        .collect(),
                ),
                mean_episodes_to_solve: mean(
                    cells
                        .iter()
                        .filter_map(|c| c.mean_episodes_to_solve)
                        .collect(),
                ),
            })
        })
        .collect()
}

/// Read every `<results_root>/<slug>/fig5.json` and build the summary.
pub fn collect(results_root: &Path) -> std::io::Result<Summary> {
    let mut summary = Summary {
        workloads: Vec::new(),
        missing: Vec::new(),
        unreadable: Vec::new(),
        cells: Vec::new(),
    };
    for workload in Workload::all() {
        let path = results_root.join(workload.slug()).join("fig5.json");
        if !path.exists() {
            summary.missing.push(workload.slug().to_string());
            continue;
        }
        let json = std::fs::read_to_string(&path)?;
        // A parse failure usually means the artefact predates the current
        // Figure5 schema; skip that workload instead of failing the whole
        // aggregation so the remaining fig5 runs still summarise.
        match serde_json::from_str::<Figure5>(&json) {
            Ok(fig) => {
                summary.workloads.push(workload);
                summary.cells.extend(aggregate(&fig));
            }
            Err(_) => summary.unreadable.push(workload.slug().to_string()),
        }
    }
    Ok(summary)
}

/// One checkpoint of a population's convergence curve: the distribution of
/// per-replica returns at a fixed episode index, over the replicas that ran
/// at least that many episodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Episode index (1-based: "after `episode` episodes").
    pub episode: usize,
    /// Replicas that ran at least `episode` episodes.
    pub replicas: usize,
    /// Mean return of episode `episode` over those replicas.
    pub mean_return: f64,
    /// Median return of episode `episode` over those replicas.
    pub median_return: f64,
    /// Fraction of the whole population already solved before or at this
    /// episode.
    pub solved_by: f64,
}

/// Episode checkpoints the convergence table samples (clipped to the
/// episodes a population actually ran).
const CONVERGENCE_CHECKPOINTS: [usize; 10] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000];

/// Fold the per-replica learning curves of one population report into a
/// convergence table: at each checkpoint episode, the mean/median return
/// across the replicas still running and the fraction of the population
/// already solved. Empty when the report predates per-replica curves.
pub fn convergence_table(report: &PopulationReport) -> Vec<ConvergencePoint> {
    let longest = report
        .replicas
        .iter()
        .map(|r| r.returns.len())
        .max()
        .unwrap_or(0);
    CONVERGENCE_CHECKPOINTS
        .iter()
        .copied()
        .filter(|&e| e <= longest)
        .map(|episode| {
            let mut at_episode: Vec<f64> = report
                .replicas
                .iter()
                .filter_map(|r| r.returns.get(episode - 1).copied())
                .collect();
            at_episode.sort_by(|a, b| a.partial_cmp(b).expect("finite returns"));
            let n = at_episode.len();
            let solved_by = report
                .replicas
                .iter()
                .filter(|r| r.solved_at_episode.is_some_and(|s| s < episode))
                .count() as f64
                / report.replicas.len().max(1) as f64;
            ConvergencePoint {
                episode,
                replicas: n,
                mean_return: at_episode.iter().sum::<f64>() / n.max(1) as f64,
                median_return: at_episode[(n - 1) / 2],
                solved_by,
            }
        })
        .collect()
}

/// One row of the cross-workload population table: the aggregate outcome of
/// one `population` run (K replicas of one design on one workload).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationCell {
    /// Workload the population ran on.
    pub workload: Workload,
    /// Replicated design label.
    pub design: String,
    /// Hidden width of every replica.
    pub hidden_dim: usize,
    /// Population size K.
    pub population: usize,
    /// Parallel training episodes per replica the run used.
    pub train_envs: usize,
    /// Replicas that met the solve criterion.
    pub solved: usize,
    /// `solved / population`.
    pub solve_rate: f64,
    /// Episodes-to-solve quantiles over the solved replicas.
    pub episodes_to_solve: QuantileSummary,
    /// Mean greedy-evaluation return over all replicas, if evaluated.
    pub mean_greedy_eval_return: Option<f64>,
    /// Convergence checkpoints folded from the per-replica learning curves.
    pub convergence: Vec<ConvergencePoint>,
}

/// The cross-workload population summary (design × environment).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationSummary {
    /// Workloads whose `population.json` was found and aggregated.
    pub workloads: Vec<Workload>,
    /// Workload slugs that had no `population.json` under the results root.
    pub missing: Vec<String>,
    /// Workload slugs whose `population.json` exists but does not parse
    /// (older schema) — skipped rather than fatal.
    pub unreadable: Vec<String>,
    /// One cell per aggregated workload (a `population.json` holds one
    /// design; rerunning the binary with another `--design` overwrites it).
    pub cells: Vec<PopulationCell>,
}

/// Read every `<results_root>/<slug>/population.json` and build the
/// cross-workload population table.
pub fn collect_population(results_root: &Path) -> std::io::Result<PopulationSummary> {
    let mut summary = PopulationSummary {
        workloads: Vec::new(),
        missing: Vec::new(),
        unreadable: Vec::new(),
        cells: Vec::new(),
    };
    for workload in Workload::all() {
        let path = results_root.join(workload.slug()).join("population.json");
        if !path.exists() {
            summary.missing.push(workload.slug().to_string());
            continue;
        }
        let json = std::fs::read_to_string(&path)?;
        match serde_json::from_str::<PopulationReport>(&json) {
            Ok(report) => {
                summary.workloads.push(workload);
                summary.cells.push(PopulationCell {
                    workload,
                    design: report.design.clone(),
                    hidden_dim: report.hidden_dim,
                    population: report.population,
                    train_envs: report.train_envs,
                    solved: report.solved,
                    solve_rate: report.solve_rate,
                    episodes_to_solve: report.episodes_to_solve.clone(),
                    mean_greedy_eval_return: report.mean_greedy_eval_return,
                    convergence: convergence_table(&report),
                });
            }
            Err(_) => summary.unreadable.push(workload.slug().to_string()),
        }
    }
    Ok(summary)
}

/// Markdown rendering of the population table: one row per (workload,
/// design) population with solve rate and episode quantiles, followed by
/// one convergence table per population (mean/median per-episode return
/// across replicas at fixed checkpoints — the population analogue of a
/// Figure 4 learning curve).
pub fn population_to_markdown(summary: &PopulationSummary) -> String {
    let headers = [
        "workload",
        "design",
        "hidden",
        "K",
        "E",
        "solved",
        "p25",
        "p50",
        "p75",
        "p90",
        "eval return",
    ];
    let rows: Vec<Vec<String>> = summary
        .cells
        .iter()
        .map(|cell| {
            let q = &cell.episodes_to_solve;
            vec![
                cell.workload.to_string(),
                cell.design.clone(),
                cell.hidden_dim.to_string(),
                cell.population.to_string(),
                cell.train_envs.to_string(),
                format!("{}/{}", cell.solved, cell.population),
                crate::report::fmt_opt(q.p25),
                crate::report::fmt_opt(q.p50),
                crate::report::fmt_opt(q.p75),
                crate::report::fmt_opt(q.p90),
                crate::report::fmt_opt(cell.mean_greedy_eval_return),
            ]
        })
        .collect();
    let mut out = crate::report::markdown_table(&headers, &rows);
    for cell in &summary.cells {
        if cell.convergence.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\n\n### Convergence — {} × {} on {}\n\n",
            cell.population, cell.design, cell.workload
        ));
        let rows: Vec<Vec<String>> = cell
            .convergence
            .iter()
            .map(|p| {
                vec![
                    p.episode.to_string(),
                    p.replicas.to_string(),
                    format!("{:.1}", p.mean_return),
                    format!("{:.1}", p.median_return),
                    format!("{:.2}", p.solved_by),
                ]
            })
            .collect();
        out.push_str(&crate::report::markdown_table(
            &[
                "episode",
                "replicas running",
                "mean return",
                "median return",
                "solved by",
            ],
            &rows,
        ));
    }
    out
}

/// One row of the cross-workload stabilisation-ablation table: an A1
/// configuration's outcome on one workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationCell {
    /// Workload the ablation ran on.
    pub workload: Workload,
    /// Whether Q-value clipping was enabled.
    pub clipping: bool,
    /// Whether the random-update rule gated sequential training.
    pub random_update: bool,
    /// Whether the configuration solved the task.
    pub solved: bool,
    /// Episodes run.
    pub episodes_run: usize,
    /// Final moving-average return.
    pub final_average: f64,
}

/// The cross-workload A1 fold: which §3 stabilisation techniques matter on
/// which workload (the ROADMAP's "multi-env ablation tables").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationSummary {
    /// Workloads whose `ablation_a1.json` was found and aggregated.
    pub workloads: Vec<Workload>,
    /// Workload slugs that had no `ablation_a1.json` under the results root.
    pub missing: Vec<String>,
    /// Workload slugs whose `ablation_a1.json` does not parse — skipped.
    pub unreadable: Vec<String>,
    /// One cell per (workload, A1 configuration).
    pub cells: Vec<AblationCell>,
}

/// Read every `<results_root>/<slug>/ablation_a1.json` (as written by
/// `ablation`, e.g. under `--workload all`) and fold them into the
/// cross-workload stabilisation table.
pub fn collect_ablation(results_root: &Path) -> std::io::Result<AblationSummary> {
    let mut summary = AblationSummary {
        workloads: Vec::new(),
        missing: Vec::new(),
        unreadable: Vec::new(),
        cells: Vec::new(),
    };
    for workload in Workload::all() {
        let path = results_root.join(workload.slug()).join("ablation_a1.json");
        if !path.exists() {
            summary.missing.push(workload.slug().to_string());
            continue;
        }
        let json = std::fs::read_to_string(&path)?;
        match serde_json::from_str::<Vec<crate::ablation::StabilisationAblationRow>>(&json) {
            Ok(rows) => {
                summary.workloads.push(workload);
                summary.cells.extend(rows.iter().map(|r| AblationCell {
                    workload,
                    clipping: r.clipping,
                    random_update: r.random_update,
                    solved: r.solved,
                    episodes_run: r.episodes_run,
                    final_average: r.final_average,
                }));
            }
            Err(_) => summary.unreadable.push(workload.slug().to_string()),
        }
    }
    Ok(summary)
}

/// Markdown rendering of the ablation fold: one row per A1 configuration,
/// one column pair per workload (`solved` and `final avg`), so which
/// technique is load-bearing where is readable at a glance.
pub fn ablation_to_markdown(summary: &AblationSummary) -> String {
    let mut headers: Vec<String> = vec!["clipping".into(), "random update".into()];
    for w in &summary.workloads {
        headers.push(format!("{w} solved"));
        headers.push(format!("{w} final avg"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let combos = [(true, true), (true, false), (false, true), (false, false)];
    let rows: Vec<Vec<String>> = combos
        .iter()
        .map(|&(clipping, random_update)| {
            let mut row = vec![clipping.to_string(), random_update.to_string()];
            for w in &summary.workloads {
                let cell = summary.cells.iter().find(|c| {
                    c.workload == *w && c.clipping == clipping && c.random_update == random_update
                });
                row.push(match cell {
                    Some(c) => c.solved.to_string(),
                    None => "-".into(),
                });
                row.push(match cell {
                    Some(c) => format!("{:.1}", c.final_average),
                    None => "-".into(),
                });
            }
            row
        })
        .collect();
    crate::report::markdown_table(&header_refs, &rows)
}

/// Markdown rendering: one row per design, one column pair per workload
/// (`modeled s` and `solve rate`), `-` where a workload was not aggregated.
pub fn to_markdown(summary: &Summary) -> String {
    let mut headers: Vec<String> = vec!["design".into()];
    for w in &summary.workloads {
        headers.push(format!("{w} modeled s"));
        headers.push(format!("{w} solve rate"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut designs: Vec<&str> = Vec::new();
    for cell in &summary.cells {
        if !designs.contains(&cell.design.as_str()) {
            designs.push(&cell.design);
        }
    }
    let rows: Vec<Vec<String>> = designs
        .iter()
        .map(|design| {
            let mut row = vec![design.to_string()];
            for w in &summary.workloads {
                let cell = summary
                    .cells
                    .iter()
                    .find(|c| c.design == *design && c.workload == *w);
                row.push(crate::report::fmt_opt(
                    cell.and_then(|c| c.mean_time_to_complete),
                ));
                row.push(match cell {
                    Some(c) => format!("{}/{}", c.solved_trials, c.trials),
                    None => "-".into(),
                });
            }
            row
        })
        .collect();
    crate::report::markdown_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig5;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("elmrl_summary_{tag}_{}", std::process::id()))
    }

    #[test]
    fn collects_written_fig5_results_and_reports_missing_ones() {
        let root = tmp_root("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        // Write a tiny real fig5.json for two workloads only.
        for workload in [Workload::CartPole, Workload::Acrobot] {
            let sweep = crate::Sweep::new(workload, &[8], 2, 5);
            let designs = [Design::OsElmL2Lipschitz, Design::Dqn];
            let fig = fig5::generate(&sweep, &designs, None).unwrap().unwrap();
            crate::report::write_json(&root.join(workload.slug()), "fig5.json", &fig).unwrap();
        }

        // A stale artefact from an older schema must be skipped, not fatal.
        crate::report::write_text(
            &root.join("pendulum"),
            "fig5.json",
            "{\"workload\": \"Pendulum\"}",
        )
        .unwrap();

        let summary = collect(&root).unwrap();
        assert_eq!(
            summary.workloads,
            vec![Workload::CartPole, Workload::Acrobot]
        );
        assert_eq!(summary.missing, vec!["mountain-car", "high-dim"]);
        assert_eq!(summary.unreadable, vec!["pendulum"]);
        // 2 designs × 2 aggregated workloads.
        assert_eq!(summary.cells.len(), 4);
        for cell in &summary.cells {
            assert_eq!(cell.trials, 1);
            assert!((0.0..=1.0).contains(&cell.solve_rate));
        }

        let md = to_markdown(&summary);
        assert!(md.contains("design"));
        assert!(md.contains("cart-pole modeled s"));
        assert!(md.contains("acrobot solve rate"));
        assert!(md.contains("OS-ELM-L2-Lipschitz"));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn collects_population_reports_into_the_cross_workload_table() {
        use elmrl_population::{PopulationConfig, PopulationRunner};

        let root = tmp_root("population");
        let _ = std::fs::remove_dir_all(&root);
        for (workload, design) in [
            (Workload::CartPole, Design::OsElmL2Lipschitz),
            (Workload::MountainCar, Design::Dqn),
        ] {
            let mut config = PopulationConfig::new(workload, design, 8, 3);
            config.max_episodes = 2;
            config.eval_episodes = 1;
            let report = PopulationRunner::new(config).run();
            crate::report::write_json(&root.join(workload.slug()), "population.json", &report)
                .unwrap();
        }
        // A stale artefact must be skipped, not fatal.
        crate::report::write_text(&root.join("pendulum"), "population.json", "{\"old\": true}")
            .unwrap();

        let summary = collect_population(&root).unwrap();
        assert_eq!(
            summary.workloads,
            vec![Workload::CartPole, Workload::MountainCar]
        );
        assert_eq!(summary.missing, vec!["acrobot", "high-dim"]);
        assert_eq!(summary.unreadable, vec!["pendulum"]);
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].design, "OS-ELM-L2-Lipschitz");
        assert_eq!(summary.cells[0].population, 3);
        assert!((0.0..=1.0).contains(&summary.cells[0].solve_rate));

        let md = population_to_markdown(&summary);
        assert!(md.contains("workload"));
        assert!(md.contains("OS-ELM-L2-Lipschitz"));
        assert!(md.contains("DQN"));
        assert!(md.contains("3/3") || md.contains("/3"));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn convergence_table_folds_per_replica_curves() {
        use elmrl_population::{PopulationConfig, PopulationRunner};

        let mut config = PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 4);
        config.max_episodes = 6;
        config.eval_episodes = 0;
        config.seed = 3;
        let report = PopulationRunner::new(config).run();
        let table = convergence_table(&report);
        assert!(!table.is_empty());
        // Checkpoints are clipped to the episodes actually run (≤ 6 here).
        assert!(table.iter().all(|p| p.episode <= 6));
        assert_eq!(table[0].episode, 1);
        assert_eq!(table[0].replicas, 4, "every replica runs episode 1");
        for p in &table {
            assert!(p.replicas >= 1 && p.replicas <= 4);
            assert!(p.mean_return.is_finite() && p.median_return.is_finite());
            assert!((0.0..=1.0).contains(&p.solved_by));
        }
    }

    #[test]
    fn collects_ablation_results_into_the_cross_workload_fold() {
        let root = tmp_root("ablation");
        let _ = std::fs::remove_dir_all(&root);
        for workload in [Workload::CartPole, Workload::MountainCar] {
            let sweep = crate::Sweep::new(workload, &[8], 2, 5);
            let rows = crate::ablation::stabilisation_ablation(&sweep);
            crate::report::write_json(&root.join(workload.slug()), "ablation_a1.json", &rows)
                .unwrap();
        }
        crate::report::write_text(&root.join("pendulum"), "ablation_a1.json", "not json").unwrap();

        let summary = collect_ablation(&root).unwrap();
        assert_eq!(
            summary.workloads,
            vec![Workload::CartPole, Workload::MountainCar]
        );
        assert_eq!(summary.missing, vec!["acrobot", "high-dim"]);
        assert_eq!(summary.unreadable, vec!["pendulum"]);
        // 4 A1 configurations × 2 aggregated workloads.
        assert_eq!(summary.cells.len(), 8);

        let md = ablation_to_markdown(&summary);
        assert!(md.contains("clipping"));
        assert!(md.contains("cart-pole solved"));
        assert!(md.contains("mountain-car final avg"));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_results_root_summarises_to_nothing() {
        let root = tmp_root("empty");
        let _ = std::fs::remove_dir_all(&root);
        let summary = collect(&root).unwrap();
        assert!(summary.workloads.is_empty());
        assert!(summary.cells.is_empty());
        assert!(summary.unreadable.is_empty());
        assert_eq!(summary.missing.len(), Workload::all().len());
    }
}
