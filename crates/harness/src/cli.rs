//! Command-line flags shared by the harness binaries.
//!
//! Every flag is one entry of [`FLAGS`]: its name, its `ELMRL_*` variable,
//! its help line, the binaries that read it and the function that parses and
//! checks its value. Parsing, `--help`, the environment fallbacks and the
//! "ignored here" notes all come from that table.
//!
//! Precedence, lowest to highest: the binary's [`CliDefaults`], then the
//! flag's `ELMRL_*` variable (an empty value counts as unset), then the flag.
//! A binary reads a variable only for a flag it reads. The variable is
//! checked exactly like its flag, and an invalid one is an error that names
//! it.

use crate::runner::{CheckpointOptions, Sweep};
use elmrl_core::designs::Design;
use elmrl_gym::{Workload, WorkloadOptions};
use elmrl_population::FaultPlan;
use std::path::PathBuf;
use std::str::FromStr;

/// Parsed command-line options for one experiment binary. Each field is set
/// by the [`FLAGS`] entry it names.
#[derive(Clone, Debug, PartialEq)]
pub struct CliArgs {
    /// `--workload`.
    pub workload: Workload,
    /// `--trials`.
    pub trials: usize,
    /// `--episodes`.
    pub episodes: usize,
    /// `--hidden`.
    pub hidden: Vec<usize>,
    /// `--seed`.
    pub seed: u64,
    /// `--torque-levels`.
    pub torque_levels: usize,
    /// `--solve-threshold`; `None` keeps the registry's threshold.
    pub solve_threshold: Option<f64>,
    /// `--obs-dim`; `None` keeps [`elmrl_gym::DEFAULT_HIGHDIM_OBS_DIM`].
    pub obs_dim: Option<usize>,
    /// `--train-envs`.
    pub train_envs: usize,
    /// `--workload all` was given.
    pub workload_all: bool,
    /// `--threads`; 0 when not given.
    pub threads: usize,
    /// `--population`.
    pub population: usize,
    /// `--shards`.
    pub shards: usize,
    /// `--design`.
    pub design: Design,
    /// `--out`.
    pub out: Option<PathBuf>,
    /// `--checkpoint-dir`.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--checkpoint-every`.
    pub checkpoint_every: usize,
    /// `--resume`.
    pub resume: bool,
    /// `--stop-after`.
    pub stop_after: Option<usize>,
    /// `--fail-shard`.
    pub fail_shard: Option<FaultPlan>,
    /// `--sessions`.
    pub sessions: usize,
    /// `--workers`.
    pub workers: usize,
    /// `--max-batch`.
    pub max_batch: usize,
    /// `--batch-window-us`.
    pub batch_window_us: u64,
    /// `--duration-ticks`.
    pub duration_ticks: u64,
    /// `--virtual-clock`.
    pub virtual_clock: bool,
    /// `--think-ticks`.
    pub think_ticks: u64,
    /// `--warmup-episodes`.
    pub warmup_episodes: usize,
    /// `--telemetry`, or implied by `--metrics-out`/`--trace-out`.
    pub telemetry: bool,
    /// `--metrics-out`.
    pub metrics_out: Option<PathBuf>,
    /// `--trace-out`.
    pub trace_out: Option<PathBuf>,
    /// `--results`.
    pub results: PathBuf,
}

impl CliArgs {
    /// The directory results should be written to: `--out` when given,
    /// otherwise the per-workload default `results/<slug>`.
    pub fn out_dir(&self) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| crate::report::results_dir_for(self.workload))
    }

    /// The workload variant knobs the flags imply.
    pub fn workload_options(&self) -> WorkloadOptions {
        WorkloadOptions {
            torque_levels: self.torque_levels,
            solve_threshold: self.solve_threshold,
            obs_dim: self.obs_dim,
        }
    }

    /// The sweep the trial flags describe: workload, variant knobs, hidden
    /// sizes, trials, episodes, seed and train-envs.
    pub fn sweep(&self) -> Sweep {
        Sweep {
            workload: self.workload,
            options: self.workload_options(),
            hidden: self.hidden.clone(),
            trials: self.trials,
            episodes: self.episodes,
            seed: self.seed,
            train_envs: self.train_envs,
        }
    }

    /// The workloads a registry-looping binary should run: the whole
    /// registry under `--workload all`, the single selected workload
    /// otherwise.
    pub fn workloads(&self) -> Vec<Workload> {
        if self.workload_all {
            Workload::all().to_vec()
        } else {
            vec![self.workload]
        }
    }

    /// The hidden size of a binary that trains one network size: the first
    /// `--hidden` entry, with a note on stderr when more were given.
    pub fn first_hidden(&self, binary: &str) -> usize {
        let hidden = self.hidden[0];
        if self.hidden.len() > 1 {
            eprintln!(
                "{binary}: note — using only the first hidden size ({hidden}) of {:?}",
                self.hidden
            );
        }
        hidden
    }

    /// Apply the `--threads` choice to the global work-sharing pool (an
    /// explicit flag wins; otherwise the pool resolves `ELMRL_THREADS` or
    /// the machine's parallelism lazily on first use).
    pub fn apply_threads(&self) {
        if self.threads > 0 {
            rayon::set_num_threads(self.threads);
        }
    }

    /// The checkpoint options the flags imply for the trial binaries:
    /// `Some` exactly when `--checkpoint-dir` was given.
    pub fn checkpoint_options(&self) -> Option<CheckpointOptions> {
        self.checkpoint_dir.as_ref().map(|dir| CheckpointOptions {
            dir: dir.clone(),
            every: self.checkpoint_every,
            resume: self.resume,
            stop_after: self.stop_after,
        })
    }
}

/// Per-binary defaults the parser starts from (see the module docs for the
/// precedence).
#[derive(Clone, Debug)]
pub struct CliDefaults {
    /// Default trials per cell.
    pub trials: usize,
    /// Default episode budget.
    pub episodes: usize,
    /// Default hidden sizes.
    pub hidden: Vec<usize>,
}

/// One command-line flag.
pub struct Flag {
    /// The flag, e.g. `--trials`.
    pub name: &'static str,
    /// The value placeholder shown by `--help`; empty for a switch.
    pub value: &'static str,
    /// The environment variable read when the flag is absent.
    pub env: Option<&'static str>,
    /// The `--help` text. `{trials}`, `{episodes}` and `{hidden}` stand for
    /// the binary's defaults, `{workloads}` and `{designs}` for the
    /// registries.
    pub help: &'static str,
    /// The binaries that read the flag; the others note it as ignored.
    pub readers: &'static [&'static str],
    /// Parse and check a value into the arguments.
    set: fn(&mut CliArgs, &str) -> Result<(), String>,
}

impl Flag {
    /// Whether `binary` reads this flag.
    pub fn read_by(&self, binary: &str) -> bool {
        self.readers.contains(&binary)
    }
}

// The binaries whose `main` reads a flag, grouped.
const EVERY: &[&str] = &[
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "ablation",
    "population",
    "serve",
    "summary",
];
const RUNS: &[&str] = &["fig4", "fig5", "fig6", "ablation", "population", "serve"];
const TRAINS: &[&str] = &["fig4", "fig5", "fig6", "ablation", "population"];
const CHECKPOINTS: &[&str] = &["fig4", "fig5", "fig6", "population"];
const TRIAL_RUNS: &[&str] = &["fig4", "fig5", "fig6"];
const SERVE: &[&str] = &["serve"];

/// Every flag of every harness binary.
pub const FLAGS: &[Flag] = &[
    Flag {
        name: "--workload",
        value: "<name>",
        env: Some("ELMRL_WORKLOAD"),
        help: "workload to run: {workloads}\n(default: cart-pole; `all` loops the registry, ablation only)",
        readers: RUNS,
        set: |a, v| {
            if v.eq_ignore_ascii_case("all") {
                a.workload_all = true;
            } else {
                a.workload = Workload::from_name(v).ok_or_else(|| {
                    format!("unknown workload `{v}` (registered: {}, or `all`)", workload_slugs())
                })?;
            }
            Ok(())
        },
    },
    Flag {
        name: "--trials",
        value: "<n>",
        env: Some("ELMRL_TRIALS"),
        help: "seeded trials per cell (default: {trials})",
        readers: &["fig5", "fig6"],
        set: |a, v| parse(v, "count").map(|n| a.trials = n),
    },
    Flag {
        name: "--episodes",
        value: "<n>",
        env: Some("ELMRL_EPISODES"),
        help: "episode budget per trial (default: {episodes})",
        readers: TRAINS,
        set: |a, v| parse(v, "count").map(|n| a.episodes = n),
    },
    Flag {
        name: "--hidden",
        value: "<a,b,..>",
        env: Some("ELMRL_HIDDEN"),
        help: "comma-separated hidden sizes (default: {hidden})",
        readers: RUNS,
        set: |a, v| {
            a.hidden = v
                .split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|_| format!("invalid size list `{v}`"))?;
            Ok(())
        },
    },
    Flag {
        name: "--seed",
        value: "<n>",
        env: Some("ELMRL_SEED"),
        help: "base RNG seed (default: 42)",
        readers: RUNS,
        set: |a, v| parse(v, "seed").map(|n| a.seed = n),
    },
    Flag {
        name: "--torque-levels",
        value: "<n>",
        env: None,
        help: "Pendulum torque discretisation (default: 3)",
        readers: RUNS,
        set: |a, v| at_least(v, 2, "an integer ≥ 2").map(|n| a.torque_levels = n),
    },
    Flag {
        name: "--solve-threshold",
        value: "<x>",
        env: None,
        help: "override the workload's solve threshold\n(default: the registry's)",
        readers: RUNS,
        set: |a, v| {
            let threshold: f64 = parse(v, "number")?;
            if !threshold.is_finite() {
                return Err(format!("need a finite number, got `{v}`"));
            }
            a.solve_threshold = Some(threshold);
            Ok(())
        },
    },
    Flag {
        name: "--obs-dim",
        value: "<n>",
        env: None,
        help: "padded observation width of the high-dim workload\n(default: 64)",
        readers: RUNS,
        set: |a, v| {
            a.obs_dim = Some(at_least(v, 4, "an integer ≥ 4 (the real CartPole state)")?);
            Ok(())
        },
    },
    Flag {
        name: "--train-envs",
        value: "<e>",
        env: Some("ELMRL_TRAIN_ENVS"),
        help: "parallel training episodes per trial; 1 = the paper's\nscalar protocol, E > 1 trains with batch-B updates\n(default: 1)",
        readers: TRAINS,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.train_envs = n),
    },
    Flag {
        name: "--threads",
        value: "<n>",
        env: None,
        help: "worker-pool size; 1 = sequential debugging path\n(default: ELMRL_THREADS, else auto-detect)",
        readers: RUNS,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.threads = n),
    },
    Flag {
        name: "--population",
        value: "<k>",
        env: None,
        help: "replicas (default: 32)",
        readers: &["population"],
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.population = n),
    },
    Flag {
        name: "--shards",
        value: "<s>",
        env: None,
        help: "shards (default: 4)",
        readers: &["population"],
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.shards = n),
    },
    Flag {
        name: "--design",
        value: "<name>",
        env: None,
        help: "design to run: {designs}\n(default: os-elm-l2-lipschitz)",
        readers: &["population", "serve"],
        set: |a, v| {
            Design::from_name(v)
                .map(|d| a.design = d)
                .ok_or_else(|| format!("unknown design `{v}` (known: {})", design_labels()))
        },
    },
    Flag {
        name: "--out",
        value: "<dir>",
        env: None,
        help: "output directory (default: results/<workload>;\ntable3 and summary: the results root)",
        readers: EVERY,
        set: |a, v| path(v).map(|p| a.out = Some(p)),
    },
    Flag {
        name: "--checkpoint-dir",
        value: "<dir>",
        env: None,
        help: "capture checkpoints into <dir> (per-trial run\nstate; per-shard manifests for population)",
        readers: CHECKPOINTS,
        set: |a, v| path(v).map(|p| a.checkpoint_dir = Some(p)),
    },
    Flag {
        name: "--checkpoint-every",
        value: "<n>",
        env: None,
        help: "episodes between checkpoints (default: 1)",
        readers: TRIAL_RUNS,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.checkpoint_every = n),
    },
    Flag {
        name: "--resume",
        value: "",
        env: None,
        help: "continue from the checkpoints in --checkpoint-dir",
        readers: CHECKPOINTS,
        set: |a, _| {
            a.resume = true;
            Ok(())
        },
    },
    Flag {
        name: "--stop-after",
        value: "<n>",
        env: None,
        help: "fault injection: abandon each run once n episodes\ncompleted (the boundary checkpoint is kept)",
        readers: TRIAL_RUNS,
        set: |a, v| at_least(v, 1, "a positive episode count").map(|n| a.stop_after = Some(n)),
    },
    Flag {
        name: "--fail-shard",
        value: "<k@e>",
        env: None,
        help: "fault injection: kill shard k after e episodes\n(replicas requeue onto the surviving shards,\nresults unchanged)",
        readers: &["population"],
        set: |a, v| FaultPlan::parse(v).map(|n| a.fail_shard = Some(n)),
    },
    Flag {
        name: "--sessions",
        value: "<n>",
        env: None,
        help: "client sessions (default: 64)",
        readers: SERVE,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.sessions = n),
    },
    Flag {
        name: "--workers",
        value: "<n>",
        env: None,
        help: "agent workers (policy replicas); never changes responses\n(default: 1)",
        readers: SERVE,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.workers = n),
    },
    Flag {
        name: "--max-batch",
        value: "<n>",
        env: None,
        help: "coalescer batch cap; 1 = per-request dispatch\n(default: 64)",
        readers: SERVE,
        set: |a, v| at_least(v, 1, "a positive batch cap").map(|n| a.max_batch = n),
    },
    Flag {
        name: "--batch-window-us",
        value: "<n>",
        env: None,
        help: "coalescer latency budget in µs; 0 flushes every pump\n(default: 200)",
        readers: SERVE,
        set: |a, v| parse(v, "budget").map(|n| a.batch_window_us = n),
    },
    Flag {
        name: "--duration-ticks",
        value: "<n>",
        env: None,
        help: "engine rounds to drive (default: 200)",
        readers: SERVE,
        set: |a, v| at_least(v, 1, "a positive count").map(|n| a.duration_ticks = n),
    },
    Flag {
        name: "--virtual-clock",
        value: "",
        env: None,
        help: "deterministic virtual clock (for byte-identical runs)",
        readers: SERVE,
        set: |a, _| {
            a.virtual_clock = true;
            Ok(())
        },
    },
    Flag {
        name: "--think-ticks",
        value: "<n>",
        env: None,
        help: "max think-time rounds between a session's response\nand next request (default: 0 = closed loop)",
        readers: SERVE,
        set: |a, v| parse(v, "count").map(|n| a.think_ticks = n),
    },
    Flag {
        name: "--warmup-episodes",
        value: "<n>",
        env: None,
        help: "training episodes behind the served policy (default: 5)",
        readers: SERVE,
        set: |a, v| parse(v, "count").map(|n| a.warmup_episodes = n),
    },
    Flag {
        name: "--telemetry",
        value: "",
        env: None,
        help: "collect latency/counter metrics and print a summary\ntable on exit; never changes results\n(also via ELMRL_TELEMETRY=1)",
        readers: EVERY,
        set: |a, _| {
            a.telemetry = true;
            Ok(())
        },
    },
    Flag {
        name: "--metrics-out",
        value: "<path>",
        env: None,
        help: "write the metrics snapshot as JSON\n(implies --telemetry)",
        readers: EVERY,
        set: |a, v| path(v).map(|p| a.metrics_out = Some(p)),
    },
    Flag {
        name: "--trace-out",
        value: "<path>",
        env: None,
        help: "write span events as chrome://tracing JSON, openable\nin Perfetto (implies --telemetry)",
        readers: EVERY,
        set: |a, v| path(v).map(|p| a.trace_out = Some(p)),
    },
    Flag {
        name: "--results",
        value: "<dir>",
        env: None,
        help: "results root holding <workload>/fig5.json,\npopulation.json and ablation_a1.json (default: results)",
        readers: &["summary"],
        set: |a, v| path(v).map(|p| a.results = p),
    },
];

/// Parse `v`, or fail with "invalid {what} `v`".
fn parse<T: FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what} `{v}`"))
}

/// Parse `v` as a value of at least `min`, or fail with "need {need}, got `v`".
fn at_least<T: FromStr + PartialOrd>(v: &str, min: T, need: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| format!("need {need}, got `{v}`"))
}

fn path(v: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(v))
}

fn workload_slugs() -> String {
    let slugs: Vec<&str> = Workload::all().iter().map(|w| w.slug()).collect();
    slugs.join(", ")
}

fn design_labels() -> String {
    let labels: Vec<&str> = Design::all_designs().iter().map(|d| d.label()).collect();
    labels.join(", ")
}

/// Split a flag list into `(flag, value)` pairs against [`FLAGS`]; `None`
/// when `--help` was requested.
fn given(args: &[String]) -> Result<Option<Vec<(&'static Flag, &str)>>, String> {
    let mut given = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}` (try --help)"))?;
        let value = if flag.value.is_empty() {
            ""
        } else {
            iter.next()
                .ok_or_else(|| format!("{} requires a value", flag.name))?
        };
        given.push((flag, value));
    }
    Ok(Some(given))
}

/// Render the `--help` text for a binary: the flags it reads, then the ones
/// it accepts and ignores.
pub fn usage(binary: &str, about: &str, defaults: &CliDefaults) -> String {
    const WIDTH: usize = 26;
    let mut text = format!("{about}\n\nUsage: {binary} [OPTIONS]\n\nOptions:\n");
    let (read, ignored): (Vec<&Flag>, Vec<&Flag>) = FLAGS.iter().partition(|f| f.read_by(binary));
    for flag in read {
        let left = format!("{} {}", flag.name, flag.value);
        let help = flag.help.replace('\n', &format!("\n  {:WIDTH$}", ""));
        text += &format!("  {left:WIDTH$}{help}");
        if let Some(var) = flag.env {
            text += &format!(" [env: {var}]");
        }
        text.push('\n');
    }
    text += &format!("  {:WIDTH$}print this help and exit\n", "--help");
    let mut line = format!("\nAccepted but ignored by {binary}:");
    for flag in ignored {
        if line.len() + flag.name.len() > 78 {
            text += &line;
            line = "\n ".to_string();
        }
        line += &format!(" {}", flag.name);
    }
    text += &line;
    let hidden: Vec<String> = defaults.hidden.iter().map(|h| h.to_string()).collect();
    text.replace("{trials}", &defaults.trials.to_string())
        .replace("{episodes}", &defaults.episodes.to_string())
        .replace("{hidden}", &hidden.join(","))
        .replace("{workloads}", &workload_slugs())
        .replace("{designs}", &design_labels())
}

/// Parse a flag list (everything after the binary name) for `binary`, with
/// `env` looking up the `ELMRL_*` fallbacks. Returns `Ok(None)` when `--help`
/// was requested.
pub fn parse_from(
    binary: &str,
    args: &[String],
    defaults: &CliDefaults,
    env: impl Fn(&str) -> Option<String>,
) -> Result<Option<CliArgs>, String> {
    let Some(given) = given(args)? else {
        return Ok(None);
    };
    let mut parsed = CliArgs {
        workload: Workload::CartPole,
        trials: defaults.trials,
        episodes: defaults.episodes,
        hidden: defaults.hidden.clone(),
        seed: 42,
        torque_levels: 3,
        solve_threshold: None,
        obs_dim: None,
        train_envs: 1,
        workload_all: false,
        threads: 0,
        population: 32,
        shards: 4,
        design: Design::OsElmL2Lipschitz,
        out: None,
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        stop_after: None,
        fail_shard: None,
        sessions: 64,
        workers: 1,
        max_batch: 64,
        batch_window_us: 200,
        duration_ticks: 200,
        virtual_clock: false,
        think_ticks: 0,
        warmup_episodes: 5,
        telemetry: false,
        metrics_out: None,
        trace_out: None,
        results: crate::report::default_results_dir(),
    };
    let has = |name: &str| given.iter().any(|(f, _)| f.name == name);
    for flag in FLAGS.iter().filter(|f| f.read_by(binary) && !has(f.name)) {
        let Some(var) = flag.env else { continue };
        if let Some(value) = env(var).filter(|v| !v.is_empty()) {
            (flag.set)(&mut parsed, &value).map_err(|e| format!("{var}: {e}"))?;
        }
    }
    for (flag, value) in &given {
        (flag.set)(&mut parsed, value).map_err(|e| format!("{}: {e}", flag.name))?;
    }

    // Rules across flags.
    if parsed.workload_all {
        if given
            .iter()
            .any(|(f, v)| f.name == "--workload" && !v.eq_ignore_ascii_case("all"))
        {
            return Err("--workload all conflicts with a named --workload".to_string());
        }
        if binary != "ablation" {
            return Err("--workload all is only supported by the `ablation` binary \
                        (run one workload at a time here)"
                .to_string());
        }
    }
    if parsed.checkpoint_dir.is_none() {
        for (name, why) in [
            ("--resume", ""),
            ("--checkpoint-every", ""),
            (
                "--stop-after",
                " (an abandoned run without a checkpoint cannot be resumed)",
            ),
        ] {
            if has(name) {
                return Err(format!("{name} requires --checkpoint-dir{why}"));
            }
        }
    }
    // Asking for a metrics or trace file is asking for telemetry.
    parsed.telemetry |= parsed.metrics_out.is_some() || parsed.trace_out.is_some();
    Ok(Some(parsed))
}

/// The flags in `args` that `binary` does not read, each once.
fn ignored_flags(binary: &str, args: &[String]) -> Vec<&'static Flag> {
    let mut ignored: Vec<&'static Flag> = Vec::new();
    for (flag, _) in given(args).ok().flatten().unwrap_or_default() {
        if !flag.read_by(binary) && !ignored.iter().any(|f| f.name == flag.name) {
            ignored.push(flag);
        }
    }
    ignored
}

/// Parse `std::env::args()` for a binary: print help or a parse error and
/// exit as appropriate, note each given flag the binary ignores, and size
/// the thread pool.
pub fn parse_or_exit(binary: &str, about: &str, defaults: &CliDefaults) -> CliArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_from(binary, &args, defaults, |var| std::env::var(var).ok()) {
        Ok(Some(parsed)) => {
            for flag in ignored_flags(binary, &args) {
                eprintln!(
                    "{binary}: note — {} is ignored here (read by {})",
                    flag.name,
                    flag.readers.join(", ")
                );
            }
            parsed.apply_threads();
            parsed
        }
        Ok(None) => {
            println!("{}", usage(binary, about, defaults));
            std::process::exit(0);
        }
        Err(message) => {
            eprintln!("{binary}: {message}");
            std::process::exit(2);
        }
    }
}

/// The artefact a checkpointed generator returned. On an error, print it
/// and exit 2; on a `--stop-after` stop, say where the checkpoints are,
/// finish telemetry and return `None`.
pub fn completed_or_exit<T>(
    binary: &str,
    args: &CliArgs,
    result: Result<Option<T>, String>,
) -> Option<T> {
    match result {
        Ok(Some(artefact)) => Some(artefact),
        Ok(None) => {
            eprintln!(
                "{binary}: stopped by --stop-after with checkpoints in {}; \
                 rerun with --resume (and without --stop-after) to finish",
                args.checkpoint_dir
                    .as_ref()
                    .expect("--stop-after requires --checkpoint-dir")
                    .display()
            );
            crate::telemetry::finish(binary, args);
            None
        }
        Err(e) => {
            eprintln!("{binary}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> CliDefaults {
        CliDefaults {
            trials: 3,
            episodes: 2000,
            hidden: vec![32, 64],
        }
    }

    /// An environment with no `ELMRL_*` variables set.
    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The names [`ignored_flags`] reports for `binary` given `list`.
    fn ignored(binary: &str, list: &[&str]) -> Vec<&'static str> {
        ignored_flags(binary, &args(list))
            .iter()
            .map(|f| f.name)
            .collect()
    }

    #[test]
    fn defaults_apply_when_no_flags_given() {
        let parsed = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(parsed.workload, Workload::CartPole);
        assert_eq!(parsed.trials, 3);
        assert_eq!(parsed.episodes, 2000);
        assert_eq!(parsed.hidden, vec![32, 64]);
        assert_eq!(parsed.seed, 42);
        assert!(parsed.out.is_none());
        assert_eq!(parsed.out_dir(), PathBuf::from("results").join("cart-pole"));
    }

    #[test]
    fn flags_override_everything() {
        let parsed = parse_from(
            "fig5",
            &args(&[
                "--workload",
                "mountain-car",
                "--trials",
                "5",
                "--episodes",
                "100",
                "--hidden",
                "8, 16",
                "--seed",
                "7",
                "--out",
                "/tmp/elmrl-out",
            ]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.workload, Workload::MountainCar);
        assert_eq!(parsed.trials, 5);
        assert_eq!(parsed.episodes, 100);
        assert_eq!(parsed.hidden, vec![8, 16]);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.out_dir(), PathBuf::from("/tmp/elmrl-out"));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(
            parse_from("fig5", &args(&["--help"]), &defaults(), no_env).unwrap(),
            None
        );
        assert_eq!(
            parse_from(
                "fig5",
                &args(&["--workload", "pendulum", "-h"]),
                &defaults(),
                no_env
            )
            .unwrap(),
            None
        );
        let text = usage("fig5", "Figure 5", &defaults());
        assert!(text.contains("--workload"));
        assert!(text.contains("mountain-car"));
        assert!(text.contains("--out"));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_from(
            "fig5",
            &args(&["--workload", "lunar-lander"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("unknown workload"));
        assert!(
            parse_from("fig5", &args(&["--trials"]), &defaults(), no_env)
                .unwrap_err()
                .contains("requires a value")
        );
        assert!(
            parse_from("fig5", &args(&["--trials", "many"]), &defaults(), no_env)
                .unwrap_err()
                .contains("invalid count")
        );
        assert!(
            parse_from("fig5", &args(&["--frobnicate"]), &defaults(), no_env)
                .unwrap_err()
                .contains("unknown flag")
        );
        assert!(
            parse_from("fig5", &args(&["--hidden", "a,b"]), &defaults(), no_env)
                .unwrap_err()
                .contains("invalid size list")
        );
    }

    #[test]
    fn population_and_variant_flags_parse() {
        let parsed = parse_from(
            "fig5",
            &args(&[
                "--workload",
                "pendulum",
                "--torque-levels",
                "9",
                "--population",
                "16",
                "--shards",
                "2",
                "--design",
                "dqn",
            ]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.workload, Workload::Pendulum);
        assert_eq!(parsed.torque_levels, 9);
        assert_eq!(parsed.workload_options().torque_levels, 9);
        assert_eq!(parsed.population, 16);
        assert_eq!(parsed.shards, 2);
        assert_eq!(parsed.design, Design::Dqn);
        let population_flags = ["--population", "16", "--shards", "2", "--design", "dqn"];
        assert_eq!(
            ignored("fig5", &population_flags),
            ["--population", "--shards", "--design"]
        );
        assert!(ignored("population", &population_flags).is_empty());
        assert_eq!(ignored("fig5", &["--design", "dqn"]), ["--design"]);
        assert!(ignored("serve", &["--design", "dqn"]).is_empty());

        // Defaults when absent.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(bare.torque_levels, 3);
        assert_eq!(bare.population, 32);
        assert_eq!(bare.shards, 4);
        assert_eq!(bare.design, Design::OsElmL2Lipschitz);
        assert!(ignored("fig5", &[]).is_empty());

        // Validation.
        assert!(parse_from(
            "fig5",
            &args(&["--torque-levels", "1"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("≥ 2"));
        assert!(
            parse_from("fig5", &args(&["--population", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse_from(
            "fig5",
            &args(&["--design", "transformer"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("unknown design"));
    }

    #[test]
    fn train_envs_and_solve_threshold_flags_parse_and_validate() {
        let parsed = parse_from(
            "fig5",
            &args(&["--train-envs", "8", "--solve-threshold", "-150.5"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.train_envs, 8);
        assert_eq!(parsed.solve_threshold, Some(-150.5));
        assert_eq!(parsed.workload_options().solve_threshold, Some(-150.5));

        // Defaults: the paper's scalar protocol and the registry threshold.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(bare.train_envs, 1);
        assert_eq!(bare.solve_threshold, None);
        assert!(!bare.workload_all);

        assert!(
            parse_from("fig5", &args(&["--train-envs", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse_from(
            "fig5",
            &args(&["--solve-threshold", "tall"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("invalid number"));
        assert!(parse_from(
            "fig5",
            &args(&["--solve-threshold", "nan"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("finite"));
        let help = usage("fig5", "x", &defaults());
        assert!(help.contains("--train-envs"));
        assert!(help.contains("--solve-threshold"));
    }

    #[test]
    fn obs_dim_flag_parses_and_validates() {
        let parsed = parse_from(
            "fig5",
            &args(&["--workload", "high-dim", "--obs-dim", "256"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.workload, Workload::HighDim);
        assert_eq!(parsed.obs_dim, Some(256));
        assert_eq!(parsed.workload_options().obs_dim, Some(256));
        assert_eq!(parsed.sweep().options.obs_dim, Some(256));

        // Default: deferred to the library default.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(bare.obs_dim, None);
        assert_eq!(bare.workload_options().obs_dim, None);

        assert!(
            parse_from("fig5", &args(&["--obs-dim", "3"]), &defaults(), no_env)
                .unwrap_err()
                .contains("≥ 4")
        );
        let help = usage("fig5", "x", &defaults());
        assert!(help.contains("--obs-dim"));
        assert!(!help.contains("--chunk-cap"));
        assert!(help.contains("high-dim"));
    }

    #[test]
    fn workload_all_is_parsed_and_conflicts_with_a_named_workload() {
        let parsed = parse_from(
            "ablation",
            &args(&["--workload", "all"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert!(parsed.workload_all);
        assert_eq!(parsed.workloads(), Workload::all().to_vec());
        let single = parse_from(
            "fig5",
            &args(&["--workload", "pendulum"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(single.workloads(), vec![Workload::Pendulum]);
        assert!(parse_from(
            "ablation",
            &args(&["--workload", "all", "--workload", "pendulum"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("conflicts"));
        // Only `ablation` loops the registry.
        for binary in [
            "fig4",
            "fig5",
            "fig6",
            "population",
            "serve",
            "table3",
            "summary",
        ] {
            assert!(
                parse_from(binary, &args(&["--workload", "all"]), &defaults(), no_env)
                    .unwrap_err()
                    .contains("only supported by the `ablation` binary"),
                "{binary}"
            );
        }
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let parsed = parse_from("fig5", &args(&["--threads", "4"]), &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(parsed.threads, 4);
        // Default: "not given" (0) — the pool then resolves ELMRL_THREADS
        // or auto-detects; apply_threads must not override that.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(bare.threads, 0);
        assert!(
            parse_from("fig5", &args(&["--threads", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(
            parse_from("fig5", &args(&["--threads", "lots"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(usage("population", "x", &defaults()).contains("--threads"));
    }

    #[test]
    fn apply_threads_sizes_the_global_pool() {
        let mut parsed = parse_from("fig5", &args(&["--threads", "3"]), &defaults(), no_env)
            .unwrap()
            .unwrap();
        parsed.apply_threads();
        assert_eq!(rayon::current_num_threads(), 3);
        // threads = 0 leaves the pool configuration untouched.
        parsed.threads = 0;
        parsed.apply_threads();
        assert_eq!(rayon::current_num_threads(), 3);
        rayon::set_num_threads(1);
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let parsed = parse_from(
            "fig5",
            &args(&[
                "--checkpoint-dir",
                "/tmp/ckpt",
                "--checkpoint-every",
                "5",
                "--resume",
                "--stop-after",
                "40",
                "--fail-shard",
                "2@17",
            ]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(parsed.checkpoint_every, 5);
        assert!(parsed.resume);
        assert_eq!(parsed.stop_after, Some(40));
        assert_eq!(
            parsed.fail_shard,
            Some(FaultPlan {
                shard: 2,
                at_episode: 17
            })
        );
        let opts = parsed.checkpoint_options().unwrap();
        assert_eq!(opts.dir, PathBuf::from("/tmp/ckpt"));
        assert_eq!(opts.every, 5);
        assert!(opts.resume);
        assert_eq!(opts.stop_after, Some(40));

        // Defaults when absent: no checkpointing at all.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert!(bare.checkpoint_dir.is_none());
        assert_eq!(bare.checkpoint_every, 1);
        assert!(!bare.resume);
        assert!(bare.stop_after.is_none());
        assert!(bare.fail_shard.is_none());
        assert!(bare.checkpoint_options().is_none());

        // The help text advertises the new flags.
        let help = usage("fig5", "x", &defaults());
        for flag in [
            "--checkpoint-dir",
            "--checkpoint-every",
            "--resume",
            "--stop-after",
            "--fail-shard",
        ] {
            assert!(help.contains(flag), "{flag}");
        }
    }

    #[test]
    fn checkpoint_flag_validation_is_descriptive() {
        assert!(
            parse_from("fig5", &args(&["--resume"]), &defaults(), no_env)
                .unwrap_err()
                .contains("requires --checkpoint-dir")
        );
        assert!(parse_from(
            "fig5",
            &args(&["--checkpoint-every", "3"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("requires --checkpoint-dir"));
        assert!(
            parse_from("fig5", &args(&["--stop-after", "9"]), &defaults(), no_env)
                .unwrap_err()
                .contains("requires --checkpoint-dir")
        );
        assert!(parse_from(
            "fig5",
            &args(&["--checkpoint-dir", "d", "--checkpoint-every", "0"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("positive"));
        assert!(parse_from(
            "fig5",
            &args(&["--fail-shard", "two@9"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("--fail-shard"));
        // --fail-shard works without --checkpoint-dir: the population runner
        // recovers in-process, no manifest directory needed.
        let parsed = parse_from("fig5", &args(&["--fail-shard", "0@3"]), &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(
            parsed.fail_shard,
            Some(FaultPlan {
                shard: 0,
                at_episode: 3
            })
        );
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let parsed = parse_from(
            "fig5",
            &args(&[
                "--sessions",
                "1000",
                "--workers",
                "4",
                "--max-batch",
                "128",
                "--batch-window-us",
                "500",
                "--duration-ticks",
                "50",
                "--virtual-clock",
                "--think-ticks",
                "3",
                "--warmup-episodes",
                "10",
            ]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.sessions, 1000);
        assert_eq!(parsed.workers, 4);
        assert_eq!(parsed.max_batch, 128);
        assert_eq!(parsed.batch_window_us, 500);
        assert_eq!(parsed.duration_ticks, 50);
        assert!(parsed.virtual_clock);
        assert_eq!(parsed.think_ticks, 3);
        assert_eq!(parsed.warmup_episodes, 10);
        let serve_flags = [
            "--sessions",
            "--workers",
            "--max-batch",
            "--batch-window-us",
            "--duration-ticks",
            "--virtual-clock",
            "--think-ticks",
            "--warmup-episodes",
        ];
        let serve_args = [
            "--sessions",
            "1000",
            "--workers",
            "4",
            "--max-batch",
            "128",
            "--batch-window-us",
            "500",
            "--duration-ticks",
            "50",
            "--virtual-clock",
            "--think-ticks",
            "3",
            "--warmup-episodes",
            "10",
        ];
        assert_eq!(ignored("population", &serve_args), serve_flags);
        assert!(ignored("serve", &serve_args).is_empty());

        // Defaults when absent.
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert_eq!(bare.sessions, 64);
        assert_eq!(bare.workers, 1);
        assert_eq!(bare.max_batch, 64);
        assert_eq!(bare.batch_window_us, 200);
        assert_eq!(bare.duration_ticks, 200);
        assert!(!bare.virtual_clock);
        assert_eq!(bare.think_ticks, 0);
        assert_eq!(bare.warmup_episodes, 5);
        assert!(ignored("serve", &[]).is_empty());

        // Validation: zero sessions/workers/batches/rounds are meaningless;
        // think/warmup/window zero are legitimate (closed loop, cold policy,
        // flush-every-pump).
        assert!(
            parse_from("fig5", &args(&["--sessions", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(
            parse_from("fig5", &args(&["--workers", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(
            parse_from("fig5", &args(&["--max-batch", "0"]), &defaults(), no_env)
                .unwrap_err()
                .contains("positive")
        );
        assert!(parse_from(
            "fig5",
            &args(&["--duration-ticks", "0"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("positive"));
        assert!(parse_from(
            "fig5",
            &args(&["--batch-window-us", "soon"]),
            &defaults(),
            no_env
        )
        .unwrap_err()
        .contains("invalid"));
        let zeros = parse_from(
            "fig5",
            &args(&[
                "--batch-window-us",
                "0",
                "--think-ticks",
                "0",
                "--warmup-episodes",
                "0",
            ]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert_eq!(zeros.batch_window_us, 0);
        assert_eq!(zeros.warmup_episodes, 0);

        let help = usage("serve", "x", &defaults());
        for flag in [
            "--sessions",
            "--workers",
            "--max-batch",
            "--batch-window-us",
            "--duration-ticks",
            "--virtual-clock",
            "--think-ticks",
            "--warmup-episodes",
        ] {
            assert!(help.contains(flag), "{flag}");
        }
    }

    #[test]
    fn telemetry_flags_parse_and_imply_each_other() {
        let bare = parse_from("fig5", &[], &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert!(!bare.telemetry);
        assert!(bare.metrics_out.is_none());
        assert!(bare.trace_out.is_none());

        let explicit = parse_from("fig5", &args(&["--telemetry"]), &defaults(), no_env)
            .unwrap()
            .unwrap();
        assert!(explicit.telemetry);

        // Either output flag implies --telemetry.
        let metrics = parse_from(
            "fig5",
            &args(&["--metrics-out", "/tmp/m.json"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert!(metrics.telemetry);
        assert_eq!(metrics.metrics_out, Some(PathBuf::from("/tmp/m.json")));
        let trace = parse_from(
            "fig5",
            &args(&["--trace-out", "/tmp/trace.json"]),
            &defaults(),
            no_env,
        )
        .unwrap()
        .unwrap();
        assert!(trace.telemetry);
        assert_eq!(trace.trace_out, Some(PathBuf::from("/tmp/trace.json")));

        assert!(
            parse_from("fig5", &args(&["--metrics-out"]), &defaults(), no_env)
                .unwrap_err()
                .contains("requires a value")
        );
        let help = usage("fig5", "x", &defaults());
        for flag in ["--telemetry", "--metrics-out", "--trace-out"] {
            assert!(help.contains(flag), "{flag}");
        }
    }

    /// An environment holding just `vars`.
    fn env_of(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: Vec<(String, String)> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key| vars.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    #[test]
    fn invalid_environment_values_are_errors_that_name_the_variable() {
        for (var, value) in [
            ("ELMRL_WORKLOAD", "lunar-lander"),
            ("ELMRL_TRIALS", "many"),
            ("ELMRL_EPISODES", "-1"),
            ("ELMRL_HIDDEN", "abc"),
            ("ELMRL_HIDDEN", "8,x"),
            ("ELMRL_SEED", "seven"),
            ("ELMRL_TRAIN_ENVS", "0"),
        ] {
            let err = parse_from("fig5", &[], &defaults(), env_of(&[(var, value)])).unwrap_err();
            assert!(err.starts_with(&format!("{var}: ")), "{var}={value}: {err}");
        }
        // `ablation` reads ELMRL_HIDDEN too.
        assert!(parse_from(
            "ablation",
            &[],
            &defaults(),
            env_of(&[("ELMRL_HIDDEN", "abc")])
        )
        .unwrap_err()
        .contains("ELMRL_HIDDEN"));
    }

    #[test]
    fn valid_environment_values_are_fallbacks_and_flags_win() {
        let env = env_of(&[
            ("ELMRL_WORKLOAD", "acrobot"),
            ("ELMRL_TRIALS", "5"),
            ("ELMRL_EPISODES", "70"),
            ("ELMRL_HIDDEN", "8, 16"),
            ("ELMRL_SEED", "9"),
            ("ELMRL_TRAIN_ENVS", "4"),
        ]);
        let parsed = parse_from("fig5", &[], &defaults(), &env).unwrap().unwrap();
        assert_eq!(parsed.workload, Workload::Acrobot);
        assert_eq!(parsed.trials, 5);
        assert_eq!(parsed.episodes, 70);
        assert_eq!(parsed.hidden, vec![8, 16]);
        assert_eq!(parsed.seed, 9);
        assert_eq!(parsed.train_envs, 4);

        let flags = args(&[
            "--workload",
            "pendulum",
            "--trials",
            "2",
            "--episodes",
            "3",
            "--hidden",
            "32",
            "--seed",
            "1",
            "--train-envs",
            "2",
        ]);
        let parsed = parse_from("fig5", &flags, &defaults(), &env)
            .unwrap()
            .unwrap();
        assert_eq!(parsed.workload, Workload::Pendulum);
        assert_eq!(parsed.trials, 2);
        assert_eq!(parsed.episodes, 3);
        assert_eq!(parsed.hidden, vec![32]);
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.train_envs, 2);

        // A flag also wins over an invalid variable, an empty variable is
        // unset, and a binary ignores the variable of a flag it ignores.
        let parsed = parse_from(
            "fig5",
            &args(&["--trials", "2", "--hidden", "8"]),
            &defaults(),
            env_of(&[("ELMRL_TRIALS", "many"), ("ELMRL_HIDDEN", "")]),
        )
        .unwrap()
        .unwrap();
        assert_eq!((parsed.trials, parsed.hidden), (2, vec![8]));
        let parsed = parse_from(
            "serve",
            &[],
            &defaults(),
            env_of(&[("ELMRL_TRIALS", "many")]),
        )
        .unwrap()
        .unwrap();
        assert_eq!(parsed.trials, 3);
    }

    #[test]
    fn help_lists_what_a_binary_reads_and_what_it_ignores() {
        for binary in EVERY {
            let help = usage(binary, "x", &defaults());
            let (read, ignored) = help.split_once("Accepted but ignored").unwrap();
            for flag in FLAGS {
                let listed = if flag.read_by(binary) { read } else { ignored };
                assert!(listed.contains(flag.name), "{binary} {}", flag.name);
                if let Some(var) = flag.env.filter(|_| flag.read_by(binary)) {
                    assert!(read.contains(var), "{binary} {var}");
                }
            }
        }
        let help = usage("fig5", "x", &defaults());
        assert!(help.contains("(default: 3)") && help.contains("(default: 32,64)"));
        assert!(!help.contains('{'), "unfilled placeholder in:\n{help}");
    }

    #[test]
    fn workload_names_are_normalised() {
        for name in ["CartPole-v0", "cart_pole", "cartpole"] {
            let parsed = parse_from("fig5", &args(&["--workload", name]), &defaults(), no_env)
                .unwrap()
                .unwrap();
            assert_eq!(parsed.workload, Workload::CartPole, "{name}");
        }
    }
}

#[cfg(test)]
mod parse_pin {
    //! Every argument list CI and the README pass to a harness binary,
    //! parsed with that binary's defaults. Each expectation lists the
    //! fields that differ from the binary's bare parse, which is pinned in
    //! full; together they fix every field.
    use super::*;

    fn defaults_of(binary: &str) -> CliDefaults {
        // Mirrors the `CliDefaults` each binary's `main` passes.
        let (trials, episodes, hidden) = match binary {
            "fig4" => (1, 600, vec![32, 64]),
            "fig5" | "fig6" => (3, 2000, vec![32, 64]),
            "table3" => (1, 0, vec![32, 64, 128, 192]),
            "ablation" => (1, 600, vec![64]),
            _ => (1, 2000, vec![64]),
        };
        CliDefaults {
            trials,
            episodes,
            hidden,
        }
    }

    fn parse_as(binary: &str, line: &str) -> CliArgs {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_from(binary, &args, &defaults_of(binary), |_| None)
            .unwrap()
            .unwrap()
    }

    fn fields(a: &CliArgs) -> Vec<String> {
        vec![
            format!("workload={:?}", a.workload),
            format!("trials={}", a.trials),
            format!("episodes={}", a.episodes),
            format!("hidden={:?}", a.hidden),
            format!("seed={}", a.seed),
            format!("torque_levels={}", a.torque_levels),
            format!("solve_threshold={:?}", a.solve_threshold),
            format!("obs_dim={:?}", a.obs_dim),
            format!("train_envs={}", a.train_envs),
            format!("workload_all={}", a.workload_all),
            format!("threads={}", a.threads),
            format!("population={}", a.population),
            format!("shards={}", a.shards),
            format!("design={:?}", a.design),
            format!("out={:?}", a.out),
            format!("checkpoint_dir={:?}", a.checkpoint_dir),
            format!("checkpoint_every={}", a.checkpoint_every),
            format!("resume={}", a.resume),
            format!("stop_after={:?}", a.stop_after),
            format!("fail_shard={:?}", a.fail_shard),
            format!("sessions={}", a.sessions),
            format!("workers={}", a.workers),
            format!("max_batch={}", a.max_batch),
            format!("batch_window_us={}", a.batch_window_us),
            format!("duration_ticks={}", a.duration_ticks),
            format!("virtual_clock={}", a.virtual_clock),
            format!("think_ticks={}", a.think_ticks),
            format!("warmup_episodes={}", a.warmup_episodes),
            format!("telemetry={}", a.telemetry),
            format!("metrics_out={:?}", a.metrics_out),
            format!("trace_out={:?}", a.trace_out),
        ]
    }

    /// The fields of `binary`'s parse of `line` that differ from its bare
    /// parse, space-separated.
    fn changed(binary: &str, line: &str) -> String {
        let bare = fields(&parse_as(binary, ""));
        fields(&parse_as(binary, line))
            .into_iter()
            .filter(|f| !bare.contains(f))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Each binary's parse with no flags and no `ELMRL_*` variables.
    const BARE: &[(&str, &str)] = &[
        (
            "fig4",
            r#"workload=CartPole trials=1 episodes=600 hidden=[32, 64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "fig5",
            r#"workload=CartPole trials=3 episodes=2000 hidden=[32, 64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "fig6",
            r#"workload=CartPole trials=3 episodes=2000 hidden=[32, 64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "table3",
            r#"workload=CartPole trials=1 episodes=0 hidden=[32, 64, 128, 192] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "ablation",
            r#"workload=CartPole trials=1 episodes=600 hidden=[64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "population",
            r#"workload=CartPole trials=1 episodes=2000 hidden=[64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
        (
            "serve",
            r#"workload=CartPole trials=1 episodes=2000 hidden=[64] seed=42 torque_levels=3 solve_threshold=None obs_dim=None train_envs=1 workload_all=false threads=0 population=32 shards=4 design=OsElmL2Lipschitz out=None checkpoint_dir=None checkpoint_every=1 resume=false stop_after=None fail_shard=None sessions=64 workers=1 max_batch=64 batch_window_us=200 duration_ticks=200 virtual_clock=false think_ticks=0 warmup_episodes=5 telemetry=false metrics_out=None trace_out=None"#,
        ),
    ];

    /// `(binary, argv, fields that differ from the bare parse)`: the CI
    /// golden and smoke runs, then the README examples.
    const CASES: &[(&str, &str, &str)] = &[
        ("fig5", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --out /tmp/fig5-straight", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig5-straight")"#),
        ("fig5", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --checkpoint-dir /tmp/fig5-ckpt --checkpoint-every 1 --stop-after 3 --out /tmp/fig5-resumed", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig5-resumed") checkpoint_dir=Some("/tmp/fig5-ckpt") stop_after=Some(3)"#),
        ("fig5", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --checkpoint-dir /tmp/fig5-ckpt --resume --out /tmp/fig5-resumed", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig5-resumed") checkpoint_dir=Some("/tmp/fig5-ckpt") resume=true"#),
        ("fig5", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --threads 4 --out /tmp/fig5-t4", r#"trials=2 episodes=5 hidden=[8] threads=4 out=Some("/tmp/fig5-t4")"#),
        ("fig5", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --telemetry --metrics-out /tmp/telem/metrics.json --trace-out /tmp/telem/trace.json --out /tmp/fig5-telem", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig5-telem") telemetry=true metrics_out=Some("/tmp/telem/metrics.json") trace_out=Some("/tmp/telem/trace.json")"#),
        ("fig6", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --out /tmp/fig6-golden", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig6-golden")"#),
        ("fig6", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --threads 4 --out /tmp/fig6-t4", r#"trials=2 episodes=5 hidden=[8] threads=4 out=Some("/tmp/fig6-t4")"#),
        ("fig6", "--workload cart-pole --hidden 8 --trials 2 --episodes 5 --out /tmp/fig6-telem", r#"trials=2 episodes=5 hidden=[8] out=Some("/tmp/fig6-telem")"#),
        ("table3", "--out /tmp/table3-regen", r#"out=Some("/tmp/table3-regen")"#),
        ("fig4", "--workload cart-pole --hidden 8 --episodes 5 --out /tmp/fig4-golden", r#"episodes=5 hidden=[8] out=Some("/tmp/fig4-golden")"#),
        ("fig4", "--workload cart-pole --hidden 8 --episodes 5 --train-envs 3 --out /tmp/fig4-e3", r#"episodes=5 hidden=[8] train_envs=3 out=Some("/tmp/fig4-e3")"#),
        ("ablation", "--hidden 8 --episodes 5 --out /tmp/ablation-golden", r#"episodes=5 hidden=[8] out=Some("/tmp/ablation-golden")"#),
        ("population", "--workload cart-pole --population 4 --shards 1 --episodes 5 --hidden 8 --out /tmp/pop1", r#"episodes=5 hidden=[8] population=4 shards=1 out=Some("/tmp/pop1")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --episodes 5 --hidden 8 --out /tmp/pop2", r#"episodes=5 hidden=[8] population=4 shards=2 out=Some("/tmp/pop2")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --threads 1 --episodes 5 --hidden 8 --out /tmp/pop-t1", r#"episodes=5 hidden=[8] threads=1 population=4 shards=2 out=Some("/tmp/pop-t1")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --threads 2 --episodes 5 --hidden 8 --out /tmp/pop-t2", r#"episodes=5 hidden=[8] threads=2 population=4 shards=2 out=Some("/tmp/pop-t2")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --episodes 5 --hidden 8 --train-envs 1 --out /tmp/pop-e1", r#"episodes=5 hidden=[8] population=4 shards=2 out=Some("/tmp/pop-e1")"#),
        ("population", "--workload cart-pole --population 4 --shards 1 --train-envs 3 --episodes 5 --hidden 8 --out /tmp/pop-e3-s1", r#"episodes=5 hidden=[8] train_envs=3 population=4 shards=1 out=Some("/tmp/pop-e3-s1")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --train-envs 3 --episodes 5 --hidden 8 --out /tmp/pop-e3-s2", r#"episodes=5 hidden=[8] train_envs=3 population=4 shards=2 out=Some("/tmp/pop-e3-s2")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --episodes 5 --hidden 8 --threads 4 --out /tmp/pop-t4-golden", r#"episodes=5 hidden=[8] threads=4 population=4 shards=2 out=Some("/tmp/pop-t4-golden")"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --episodes 5 --hidden 8 --checkpoint-dir /tmp/pop-ckpt --fail-shard 1@2 --out /tmp/pop-fault", r#"episodes=5 hidden=[8] population=4 shards=2 out=Some("/tmp/pop-fault") checkpoint_dir=Some("/tmp/pop-ckpt") fail_shard=Some(FaultPlan { shard: 1, at_episode: 2 })"#),
        ("population", "--workload cart-pole --population 4 --shards 2 --episodes 5 --hidden 8 --checkpoint-dir /tmp/pop-ckpt --resume --out /tmp/pop-resume", r#"episodes=5 hidden=[8] population=4 shards=2 out=Some("/tmp/pop-resume") checkpoint_dir=Some("/tmp/pop-ckpt") resume=true"#),
        ("serve", "--workload cart-pole --design os-elm-l2-lipschitz --hidden 8 --sessions 32 --workers 1 --max-batch 8 --batch-window-us 300 --duration-ticks 40 --virtual-clock --think-ticks 2 --warmup-episodes 3 --seed 42 --out /tmp/serve-w1", r#"hidden=[8] out=Some("/tmp/serve-w1") sessions=32 max_batch=8 batch_window_us=300 duration_ticks=40 virtual_clock=true think_ticks=2 warmup_episodes=3"#),
        ("serve", "--workload cart-pole --design os-elm-l2-lipschitz --hidden 8 --sessions 32 --workers 4 --max-batch 8 --batch-window-us 300 --duration-ticks 40 --virtual-clock --think-ticks 2 --warmup-episodes 3 --seed 42 --out /tmp/serve-w4", r#"hidden=[8] out=Some("/tmp/serve-w4") sessions=32 workers=4 max_batch=8 batch_window_us=300 duration_ticks=40 virtual_clock=true think_ticks=2 warmup_episodes=3"#),
        ("serve", "--workload cart-pole --design os-elm-l2-lipschitz --hidden 8 --sessions 32 --workers 1 --max-batch 8 --batch-window-us 300 --duration-ticks 40 --virtual-clock --think-ticks 2 --warmup-episodes 3 --seed 42 --telemetry --metrics-out /tmp/serve-telem/metrics.json --trace-out /tmp/serve-telem/trace.json --out /tmp/serve-telem-out", r#"hidden=[8] out=Some("/tmp/serve-telem-out") sessions=32 max_batch=8 batch_window_us=300 duration_ticks=40 virtual_clock=true think_ticks=2 warmup_episodes=3 telemetry=true metrics_out=Some("/tmp/serve-telem/metrics.json") trace_out=Some("/tmp/serve-telem/trace.json")"#),
        ("fig5", "--workload mountain-car", r#"workload=MountainCar"#),
        ("fig4", "--workload pendulum --episodes 300", r#"workload=Pendulum episodes=300"#),
        ("fig5", "--workload cart-pole --hidden 32,64,128 --trials 5 --seed 7 --out /tmp/sweep", r#"trials=5 hidden=[32, 64, 128] seed=7 out=Some("/tmp/sweep")"#),
        ("fig5", "--workload pendulum --torque-levels 9 --out results/pendulum-n9", r#"workload=Pendulum torque_levels=9 out=Some("results/pendulum-n9")"#),
        ("population", "--workload cart-pole --population 32", r#""#),
        ("population", "--workload acrobot --design dqn --population 64 --shards 8 --hidden 32 --out /tmp/acrobot-pop", r#"workload=Acrobot hidden=[32] population=64 shards=8 design=Dqn out=Some("/tmp/acrobot-pop")"#),
        ("fig5", "--workload cart-pole --train-envs 16", r#"train_envs=16"#),
        ("population", "--workload acrobot --train-envs 8", r#"workload=Acrobot train_envs=8"#),
        ("fig5", "--workload cart-pole --checkpoint-dir /tmp/ckpt --checkpoint-every 50", r#"checkpoint_dir=Some("/tmp/ckpt") checkpoint_every=50"#),
        ("fig5", "--workload cart-pole --checkpoint-dir /tmp/ckpt --resume", r#"checkpoint_dir=Some("/tmp/ckpt") resume=true"#),
        ("population", "--workload cart-pole --checkpoint-dir /tmp/manifests --fail-shard 1@20", r#"checkpoint_dir=Some("/tmp/manifests") fail_shard=Some(FaultPlan { shard: 1, at_episode: 20 })"#),
        ("population", "--workload cart-pole --checkpoint-dir /tmp/manifests --resume", r#"checkpoint_dir=Some("/tmp/manifests") resume=true"#),
        ("fig5", "--workload high-dim --obs-dim 512 --hidden 256 --train-envs 16", r#"workload=HighDim hidden=[256] obs_dim=Some(512) train_envs=16"#),
        ("serve", "--workload cart-pole --design os-elm-l2-lipschitz --hidden 64 --sessions 10000 --workers 4 --max-batch 128 --batch-window-us 200", r#"sessions=10000 workers=4 max_batch=128"#),
        ("serve", "--workload cart-pole --sessions 32 --workers 1 --max-batch 8 --batch-window-us 300 --duration-ticks 40 --virtual-clock --think-ticks 2 --warmup-episodes 3", r#"sessions=32 max_batch=8 batch_window_us=300 duration_ticks=40 virtual_clock=true think_ticks=2 warmup_episodes=3"#),
        ("fig5", "--workload cart-pole --telemetry", r#"telemetry=true"#),
        ("fig6", "--workload cart-pole --metrics-out results/metrics.json --trace-out results/trace.json", r#"telemetry=true metrics_out=Some("results/metrics.json") trace_out=Some("results/trace.json")"#),
        ("ablation", "", r#""#),
        ("table3", "", r#""#),
    ];

    #[test]
    fn bare_parses_match_the_pinned_defaults() {
        for (binary, expected) in BARE {
            assert_eq!(
                fields(&parse_as(binary, "")).join(" "),
                *expected,
                "{binary}"
            );
        }
    }

    #[test]
    fn ci_and_readme_argument_lists_parse_as_pinned() {
        for (binary, line, expected) in CASES {
            assert_eq!(changed(binary, line), *expected, "{binary} {line}");
        }
    }
}
