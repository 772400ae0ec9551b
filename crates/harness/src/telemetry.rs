//! Binary-side telemetry wiring: one `init` / `finish` pair shared by every
//! experiment binary.
//!
//! [`init`] turns the global registry on when `--telemetry` (or the
//! `ELMRL_TELEMETRY` environment variable) asks for it and allocates the
//! span-trace rings when a `--trace-out` file was requested. [`finish`]
//! prints the Fig-6-style per-module latency table on stderr and writes the
//! `--metrics-out` / `--trace-out` artefacts.
//!
//! Telemetry never perturbs results: with the flag off every instrumentation
//! site is a relaxed load plus an untaken branch, and with it on the spans
//! only read the clock and write to their own sinks — RNG streams,
//! accumulation order and artefact bytes are untouched (the CI golden-`cmp`
//! job runs fig5 with telemetry on against the telemetry-off goldens).

use crate::CliArgs;

/// Apply the telemetry flags: enable the registry for `--telemetry` /
/// `ELMRL_TELEMETRY`, and additionally allocate the trace rings (implying
/// collection) when `--trace-out` was given. Call before the workload runs.
pub fn init(args: &CliArgs) {
    elmrl_telemetry::init_from_env();
    if args.telemetry {
        elmrl_telemetry::set_enabled(true);
    }
    if args.trace_out.is_some() {
        elmrl_telemetry::enable_tracing(elmrl_telemetry::DEFAULT_TRACE_CAPACITY);
    }
}

/// Print the per-module latency table and write the requested metric/trace
/// artefacts. No-op when telemetry was never enabled. Call once, after the
/// workload finished and its artefacts are written.
pub fn finish(binary: &str, args: &CliArgs) {
    if !elmrl_telemetry::enabled() {
        return;
    }
    eprint!("\n{}", elmrl_telemetry::summary_table());
    let snap = elmrl_telemetry::snapshot();
    // The guarded RLS kernel's fast-path report (only present when the
    // fixed-point datapath actually ran).
    if let Some(calls) = snap.counter("fixed.rls.calls").filter(|&c| c > 0) {
        let rescans = snap.counter("fixed.rls.rescans").unwrap_or(0);
        let fast = snap.counter("fixed.rls.fast_blocks").unwrap_or(0);
        let fallback = snap.counter("fixed.rls.fallback_blocks").unwrap_or(0);
        let period = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "fixed.rls.rescan_period")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        let total_blocks = fast + fallback;
        let hit = if total_blocks > 0 {
            100.0 * fast as f64 / total_blocks as f64
        } else {
            0.0
        };
        eprintln!(
            "{binary}: RLS kernel: {calls} updates, {rescans} exact max|P| rescans \
             (configured cadence: 1 per {period} updates), fast-path hit rate \
             {hit:.1}% ({fast}/{total_blocks} dot blocks)"
        );
    }
    if let Some(path) = &args.metrics_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => eprintln!("{binary}: wrote metrics to {}", path.display()),
            Err(e) => eprintln!("{binary}: writing metrics {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.trace_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        match elmrl_telemetry::export_chrome_trace(path) {
            Ok(()) => {
                let dropped = elmrl_telemetry::dropped_events();
                if dropped > 0 {
                    eprintln!(
                        "{binary}: wrote trace to {} ({dropped} events dropped — \
                         ring full; shorten the run or raise the capacity)",
                        path.display()
                    );
                } else {
                    eprintln!("{binary}: wrote trace to {}", path.display());
                }
            }
            Err(e) => eprintln!("{binary}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_from, CliDefaults};

    fn parse(list: &[&str]) -> CliArgs {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_from(
            "fig5",
            &args,
            &CliDefaults {
                trials: 1,
                episodes: 10,
                hidden: vec![8],
            },
            |_| None,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn init_and_finish_round_trip_through_files() {
        let dir = std::env::temp_dir().join("elmrl_telemetry_harness_test");
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.json");
        let args = parse(&[
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        init(&args);
        assert!(elmrl_telemetry::enabled());
        {
            let _span = elmrl_telemetry::hist!("test.harness_span").span();
        }
        finish("test", &args);
        let metrics_json = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(metrics_json.contains("\"version\": 1"));
        assert!(metrics_json.contains("test.harness_span"));
        let trace_json = std::fs::read_to_string(&trace).expect("trace written");
        assert!(trace_json.trim_start().starts_with('['));
        elmrl_telemetry::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_is_a_no_op_while_disabled() {
        let args = parse(&[]);
        assert!(!args.telemetry);
        // Must not print or write anything; just exercise the early return.
        finish("test", &args);
    }
}
