//! Run the population execution engine: K replicated agents of one design on
//! one workload, sharded across threads, reported as solve-rate and
//! episodes-to-solve quantiles.
//!
//! Run `population --help` for the flag list. The aggregate
//! `results/<workload>/population.json` is byte-identical for any `--shards`
//! value at the same `--seed` (per-replica RNG streams are split from the
//! master seed by global replica index).
use elmrl_harness::{cli, report, telemetry};
use elmrl_population::{PopulationConfig, PopulationRunner, ShardManifest};

fn main() {
    let args = cli::parse_or_exit(
        "population",
        "Population runner — K replicated agents of one design on one workload.\n\
         Uses the first --hidden entry",
        &cli::CliDefaults {
            trials: 1,
            episodes: 2000,
            hidden: vec![64],
        },
    );
    let hidden = args.first_hidden("population");
    telemetry::init(&args);
    let mut config = PopulationConfig::new(args.workload, args.design, hidden, args.population);
    config.options = args.workload_options();
    config.shards = args.shards;
    config.seed = args.seed;
    config.max_episodes = args.episodes;
    config.train_envs = args.train_envs;
    eprintln!(
        "population on {}: {} × {} (hidden {hidden}), {} shard(s) on {} thread(s), \
         {} episode budget, {} training env(s)/replica, seed {}",
        args.workload,
        args.population,
        args.design.label(),
        args.shards,
        rayon::current_num_threads(),
        args.episodes,
        args.train_envs,
        args.seed
    );

    // Checkpointing: with --checkpoint-dir the run writes one manifest per
    // shard (the durable custody record of every finished replica); --resume
    // reloads them and skips the recorded replicas, and --fail-shard k@e
    // kills shard k after e episodes to exercise the requeue path. All three
    // leave population.json byte-identical to an undisturbed run.
    let manifest_dir = args.checkpoint_dir.clone();
    let resumed: Vec<ShardManifest> = match (&manifest_dir, args.resume) {
        (Some(dir), true) => ShardManifest::load_dir(dir).unwrap_or_else(|e| {
            eprintln!("population: load manifests from {}: {e}", dir.display());
            std::process::exit(2);
        }),
        _ => Vec::new(),
    };
    if !resumed.is_empty() {
        let done: usize = resumed.iter().map(|m| m.completed.len()).sum();
        eprintln!(
            "population: resuming from {} manifest(s) covering {} finished replica(s)",
            resumed.len(),
            done
        );
    }
    if let Some(fault) = args.fail_shard {
        eprintln!(
            "population: fault injection — shard {} dies after {} episode(s)",
            fault.shard, fault.at_episode
        );
    }

    let start = std::time::Instant::now();
    let run = PopulationRunner::new(config).run_checkpointed(args.fail_shard, &resumed);
    eprintln!(
        "population finished in {:.2}s host wall time",
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = &manifest_dir {
        std::fs::create_dir_all(dir).expect("create checkpoint dir");
        for manifest in &run.manifests {
            manifest.save(dir).expect("write shard manifest");
        }
        eprintln!(
            "wrote {} shard manifest(s) to {}",
            run.manifests.len(),
            dir.display()
        );
    }
    let report = run.report;

    let q = &report.episodes_to_solve;
    let table = report::markdown_table(
        &["metric", "value"],
        &[
            vec!["population".into(), report.population.to_string()],
            vec!["solved".into(), report.solved.to_string()],
            vec!["solve rate".into(), format!("{:.3}", report.solve_rate)],
            vec!["episodes-to-solve mean".into(), report::fmt_opt(q.mean)],
            vec!["episodes-to-solve p25".into(), report::fmt_opt(q.p25)],
            vec!["episodes-to-solve p50".into(), report::fmt_opt(q.p50)],
            vec!["episodes-to-solve p75".into(), report::fmt_opt(q.p75)],
            vec!["episodes-to-solve p90".into(), report::fmt_opt(q.p90)],
            vec![
                "mean greedy eval return".into(),
                report::fmt_opt(report.mean_greedy_eval_return),
            ],
        ],
    );
    println!(
        "# Population — {} × {} on {} (hidden {hidden})\n\n{table}",
        report.population, report.design, args.workload
    );

    let dir = args.out_dir();
    report::write_json(&dir, "population.json", &report).expect("write population.json");
    report::write_text(&dir, "population.md", &table).expect("write population.md");
    eprintln!("wrote {}/population.{{md,json}}", dir.display());
    telemetry::finish("population", &args);
}
