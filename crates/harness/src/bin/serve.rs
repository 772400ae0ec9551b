//! Run the request/response inference engine: N simulated client sessions
//! against a shared pool of agent workers with latency-budgeted dynamic
//! batching.
//!
//! Run `serve --help` for the flag list. With `--virtual-clock` (and
//! `ELMRL_ZERO_WALL_TIME=1` to blank the host-dependent fields) the
//! `results/<workload>/serve.json` artifact is byte-identical for any
//! `--workers` value at the same `--seed` — the CI `serve_smoke` golden.
use elmrl_harness::{cli, report, telemetry};
use elmrl_serve::{run_serve, ServeConfig};

fn main() {
    let args = cli::parse_or_exit(
        "serve",
        "Serving engine — client sessions against a worker pool with dynamic\n\
         batching. Uses the first --hidden entry",
        &cli::CliDefaults {
            trials: 1,
            episodes: 2000,
            hidden: vec![64],
        },
    );
    let hidden = args.first_hidden("serve");
    telemetry::init(&args);

    let spec = args.workload.spec_with(args.workload_options());
    let mut config = ServeConfig::new(&spec, args.design, hidden);
    config.sessions = args.sessions;
    config.workers = args.workers;
    config.max_batch = args.max_batch;
    config.batch_window_us = args.batch_window_us;
    config.duration_ticks = args.duration_ticks;
    config.seed = args.seed;
    config.virtual_clock = args.virtual_clock;
    config.think_ticks = args.think_ticks;
    config.warmup_episodes = args.warmup_episodes;

    eprintln!(
        "serve on {}: {} session(s) → {} × {} worker(s) (hidden {hidden}) on {} thread(s), \
         max batch {}, window {}µs, {} round(s) on the {} clock, seed {}",
        args.workload,
        config.sessions,
        config.workers,
        args.design.label(),
        rayon::current_num_threads(),
        config.max_batch,
        config.batch_window_us,
        config.duration_ticks,
        if config.virtual_clock {
            "virtual"
        } else {
            "wall"
        },
        config.seed
    );

    let outcome = run_serve(&spec, &config, elmrl_harness::deterministic_artifacts());
    let r = &outcome.report;

    let table = report::markdown_table(
        &["metric", "value"],
        &[
            vec!["requests".into(), r.requests.to_string()],
            vec!["responses".into(), r.responses.to_string()],
            vec!["batches".into(), r.batches.to_string()],
            vec![
                "mean batch size".into(),
                format!("{:.2}", r.mean_batch_size),
            ],
            vec!["latency p50 (µs)".into(), r.latency.p50_us.to_string()],
            vec!["latency p90 (µs)".into(), r.latency.p90_us.to_string()],
            vec!["latency p99 (µs)".into(), r.latency.p99_us.to_string()],
            vec!["queue depth peak".into(), r.queue_depth_peak.to_string()],
            vec![
                "episodes completed".into(),
                r.episodes_completed.to_string(),
            ],
            vec![
                "mean episode return".into(),
                report::fmt_opt(r.mean_episode_return),
            ],
            vec![
                "requests/sec (wall)".into(),
                format!("{:.0}", r.requests_per_second),
            ],
        ],
    );
    println!(
        "# Serve — {} session(s) of {} on {} (hidden {hidden})\n\n{table}",
        r.sessions, r.design, args.workload
    );

    let dir = args.out_dir();
    report::write_json(&dir, "serve.json", r).expect("write serve.json");
    report::write_text(&dir, "serve.md", &table).expect("write serve.md");
    eprintln!("wrote {}/serve.{{md,json}}", dir.display());
    telemetry::finish("serve", &args);
}
