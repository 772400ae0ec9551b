//! # elmrl-harness
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4):
//!
//! * [`table3`] — FPGA resource utilization of the OS-ELM core (Table 3);
//! * [`fig4`] — training curves of the six software designs over the
//!   32/64/128/192 hidden-unit sweep (Figure 4);
//! * [`fig5`] — execution time to complete CartPole-v0 for all seven designs,
//!   with the per-operation breakdown and the DQN-relative speedups quoted in
//!   §4.4 (Figure 5);
//! * [`fig6`] — the FPGA design's execution-time detail (Figure 6);
//! * [`ablation`] — the design-choice ablations called out in DESIGN.md
//!   (Q-value clipping, random update, fixed-point precision);
//! * [`summary`] — cross-environment aggregation: every
//!   `results/<workload>/fig5.json` folded into one design × environment
//!   matrix (the `summary` binary);
//! * [`timing`] — the Cortex-A9 / 125 MHz-PL cost model that converts
//!   operation counts into modeled on-device seconds;
//! * [`runner`] — seeded, rayon-parallel trial execution shared by all of the
//!   above, and the [`Sweep`] every experiment generator takes (one
//!   `generate` per figure, one function per ablation);
//! * [`report`] — Markdown/CSV/JSON emitters used by the CLI binaries;
//! * [`cli`] — the flag table every binary parses its arguments with.
//!
//! The whole harness is environment-generic: every experiment takes an
//! [`elmrl_gym::Workload`] and resolves the environment, protocol defaults
//! and cost-model geometry through the workload registry, so the full
//! 7-design matrix runs on every registered environment (CartPole,
//! MountainCar, Pendulum, …) through one code path.
//!
//! The binaries (`table3`, `fig4`, `fig5`, `fig6`, `ablation`, `population`,
//! `serve`, `summary`) share one flag table, [`cli::FLAGS`]; each binary's
//! `--help` lists the flags it reads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablation;
pub mod cli;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod runner;
pub mod summary;
pub mod table3;
pub mod telemetry;
pub mod timing;

pub use cli::CliArgs;
pub use runner::{Sweep, TrialResult, TrialSpec};
pub use timing::CostModel;

/// Whether artefacts should suppress host wall-clock measurements so two
/// runs of the same protocol serialize byte-identically (the
/// `ELMRL_ZERO_WALL_TIME` environment variable; any value except `0` or the
/// empty string enables it).
///
/// Everything else in the JSON artefacts is already a pure function of the
/// flags — op counts, modeled on-device seconds, curves, solve statistics —
/// so with this set, a sweep finished from `--resume`d checkpoints produces
/// the same bytes as one that never stopped, and the CI `cmp` jobs can
/// enforce the resume-invariance contract directly.
pub fn deterministic_artifacts() -> bool {
    std::env::var("ELMRL_ZERO_WALL_TIME")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}
