//! Regenerate Figure 5 (execution time to complete) and the §4.4 speedups on
//! any registered workload.
//!
//! Run `fig5 --help` for the flag list; the `ELMRL_*` environment variables
//! are honoured as fallbacks.
use elmrl_core::designs::Design;
use elmrl_harness::{cli, fig5, report, telemetry};

fn main() {
    let args = cli::parse_or_exit(
        "fig5",
        "Figure 5 — execution time to complete the task, all seven designs",
        &cli::CliDefaults {
            trials: 3,
            episodes: 2000,
            hidden: vec![32, 64],
        },
    );
    telemetry::init(&args);
    eprintln!(
        "figure 5 on {}: hidden {:?}, {} trials/cell, {} episode budget, \
         {} training env(s)",
        args.workload, args.hidden, args.trials, args.episodes, args.train_envs
    );
    let ckpt = args.checkpoint_options();
    let fig = fig5::generate_checkpointed(
        args.workload,
        args.workload_options(),
        &args.hidden,
        &Design::all_designs(),
        args.trials,
        args.episodes,
        args.seed,
        args.train_envs,
        args.chunk_cap,
        ckpt.as_ref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("fig5: {e}");
        std::process::exit(2);
    });
    let Some(fig) = fig else {
        eprintln!(
            "fig5: stopped by --stop-after with checkpoints in {}; \
             rerun with --resume (and without --stop-after) to finish",
            args.checkpoint_dir
                .as_ref()
                .expect("--stop-after requires --checkpoint-dir")
                .display()
        );
        telemetry::finish("fig5", &args);
        return;
    };
    println!(
        "# Figure 5 — execution time to complete ({})\n\n{}",
        args.workload,
        fig5::to_markdown(&fig)
    );
    println!(
        "\n## Speedups vs DQN (§4.4)\n\n{}",
        fig5::speedups_to_markdown(&fig)
    );
    let dir = args.out_dir();
    report::write_json(&dir, "fig5.json", &fig).expect("write fig5.json");
    report::write_text(&dir, "fig5.md", &fig5::to_markdown(&fig)).expect("write fig5.md");
    eprintln!("wrote {}/fig5.{{md,json}}", dir.display());
    telemetry::finish("fig5", &args);
}
