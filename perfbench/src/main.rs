//! The repository's performance benchmark: one process runs one named
//! workload, checks the program's outputs and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <cartpole-matrix|highdim-1024|serve-10k> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file.csv>]
//!           [--rustc <version>] [--rev <revision>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing wrapped.
//! `--trace 1` runs the same work twice — untraced, then through the timing
//! decorators of [`trace`] — checks that both passes produced bit-identical
//! results, and reports each layer's calls, self time and per-call
//! quantiles, the unattributed remainder and the tracing overhead.
//! `perfbench/run.py` builds this binary and passes the toolchain and
//! source revision through `--rustc`/`--rev` for the header.

mod calib;
mod highdim;
mod matrix;
mod serve;
mod trace;

use elmrl_core::designs::Design;
use elmrl_core::TrainingResult;
use elmrl_serve::ServeStats;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, Recorder};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub rustc: String,
    pub rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        rustc: "unknown".into(),
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value.into()),
            "--rustc" => args.rustc = value,
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Extra consistency checks (e.g. traced vs untraced bit identity).
    pub consistent: bool,
    pub metrics: Vec<Metric>,
}

/// The work one pass (untraced or traced) did and its summed wall time.
pub struct Pass<T> {
    pub items: Vec<T>,
    pub wall_s: f64,
}

impl<T> Default for Pass<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            wall_s: 0.0,
        }
    }
}

/// The passes one unit of work runs: untraced alone, or — traced — both,
/// in an order that alternates with `i` so that neither pass always runs
/// first on a freshly warmed host.
pub fn pass_order(trace: bool, i: u64) -> &'static [bool] {
    match (trace, i % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        _ => &[true, false],
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time one call, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// One training trial as the two passes compare it.
pub struct Trial {
    pub design: Design,
    /// Agent and environment construction.
    pub setup_s: f64,
    /// Bit patterns of the per-episode returns.
    pub returns: Vec<u64>,
    pub steps: usize,
    /// Wall time of the trainer call.
    pub wall_s: f64,
    /// `setup_s` and `wall_s` in nominal-host seconds (see [`calib`]).
    pub setup_cal_s: f64,
    pub wall_cal_s: f64,
    pub ok: bool,
}

/// CartPole's step cap, the largest possible episode return.
const MAX_RETURN: f64 = 200.0;

impl Trial {
    /// Check a trainer call: it did not panic, ran its whole `episodes`
    /// budget, and every return is a finite CartPole return. CartPole pays 1
    /// per step, so the returns add up to the steps taken — or, with
    /// `in_flight` episodes abandoned at the budget stop, to at most that.
    pub fn check(
        design: Design,
        setup_s: f64,
        run: std::thread::Result<(TrainingResult, Duration)>,
        episodes: usize,
        in_flight: bool,
    ) -> Self {
        let Ok((result, wall)) = run else {
            return Self {
                design,
                setup_s,
                returns: Vec::new(),
                steps: 0,
                wall_s: 0.0,
                setup_cal_s: setup_s,
                wall_cal_s: 0.0,
                ok: false,
            };
        };
        let returns = &result.stats.returns;
        let total: f64 = returns.iter().sum();
        let steps = result.total_steps as f64;
        let ok = result.episodes_run == episodes
            && returns.len() == episodes
            && returns
                .iter()
                .all(|r| r.is_finite() && (1.0..=MAX_RETURN).contains(r))
            && if in_flight {
                total <= steps
            } else {
                total == steps
            };
        Self {
            design,
            setup_s,
            returns: returns.iter().map(|v| v.to_bits()).collect(),
            steps: result.total_steps,
            wall_s: wall.as_secs_f64(),
            setup_cal_s: setup_s,
            wall_cal_s: wall.as_secs_f64(),
            ok,
        }
    }

    /// Scale set-up and trainer time by the host's slowdown over each.
    pub fn calibrate(mut self, setup_slowdown: f64, run_slowdown: f64) -> Self {
        self.setup_cal_s = self.setup_s / setup_slowdown;
        self.wall_cal_s = self.wall_s / run_slowdown;
        self
    }

    /// Whether two passes produced the same trajectories, bit for bit.
    pub fn same(a: &[Trial], b: &[Trial]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.returns == y.returns && x.steps == y.steps)
    }
}

/// The per-layer metrics of one traced pass, printed as a table whose rows
/// (layers plus the unattributed remainder) add up to the traced wall time.
pub fn layer_metrics(
    workload: &str,
    rec: &Recorder,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    serve: Option<&ServeStats>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    println!("# per-layer split of {workload}: traced wall {traced_wall_s:.6} s");
    println!(
        "# {:<16} {:>10} {:>12} {:>7} {:>11} {:>11}",
        "layer", "calls", "busy_s", "share", "p50_us", "p99_us"
    );
    for layer in Layer::ALL {
        let l = &rec.layers[layer as usize];
        let busy = l.busy_ns as f64 / 1e9;
        let p50 = l.hist.quantile(0.50) as f64 / 1e3;
        let p99 = l.hist.quantile(0.99) as f64 / 1e3;
        println!(
            "# {:<16} {:>10} {:>12.6} {:>6.2}% {:>11.3} {:>11.3}",
            layer.name(),
            l.calls,
            busy,
            100.0 * busy / traced_wall_s,
            p50,
            p99
        );
        let name = layer.name();
        out.push(Metric::new(
            format!("{name}.calls"),
            l.calls as f64,
            "count",
        ));
        out.push(Metric::new(format!("{name}.busy_s"), busy, "s"));
        out.push(Metric::new(format!("{name}.p50_us"), p50, "us"));
        out.push(Metric::new(format!("{name}.p99_us"), p99, "us"));
    }
    let unattributed = traced_wall_s - rec.busy_ns() as f64 / 1e9;
    println!(
        "# {:<16} {:>10} {:>12.6} {:>6.2}%",
        "unattributed",
        "",
        unattributed,
        100.0 * unattributed / traced_wall_s
    );
    let overhead = traced_wall_s / untraced_wall_s;
    println!("# trace.overhead {overhead:.4} (traced {traced_wall_s:.6} s / untraced {untraced_wall_s:.6} s), spans not kept: {}", rec.dropped);
    out.push(Metric::new("unattributed.busy_s", unattributed, "s"));
    out.push(Metric::new(
        "serve.predict.rows",
        rec.predict_rows as f64,
        "count",
    ));
    // Batch fill and queue depth come from the engine's public stats.
    let (fill, depth) = serve.map_or((0.0, 0.0), |s| {
        (
            s.responses as f64 / (s.batches as f64 * (s.batch_size_counts.len() - 1) as f64),
            s.queue_depth_peak as f64,
        )
    });
    println!("# serve.batch_fill {fill:.4}, serve.queue_depth_peak {depth}");
    out.push(Metric::new("serve.batch_fill", fill, "ratio"));
    out.push(Metric::new("serve.queue_depth_peak", depth, "count"));
    out.push(Metric::new("trace.overhead", overhead, "ratio"));
    out
}

fn json_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The program's pool never gets more threads than the host has cores.
    rayon::set_num_threads(cores);
    println!(
        "# host available_parallelism={cores} pool_threads={} serve_workers={} rustc=\"{}\" rev={} profile={} seed={} seconds={} trace={}",
        rayon::current_num_threads(),
        serve::WORKERS,
        args.rustc,
        args.rev,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut outcome = match args.workload.as_str() {
        "cartpole-matrix" => matrix::run(&args),
        "highdim-1024" => highdim::run(&args),
        "serve-10k" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // A non-finite figure would not be valid JSON; it also means a failure.
    for m in outcome.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        m.value = 0.0;
        outcome.consistent = false;
    }
    let correct = outcome.failed == 0 && outcome.consistent && outcome.attempted > 0;
    for m in &outcome.metrics {
        println!("# {} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    println!(
        "# {}: attempted {} failed {} consistent {}",
        args.workload, outcome.attempted, outcome.failed, outcome.consistent
    );
    println!("{}", json_line(correct, &outcome));
    ExitCode::SUCCESS
}
