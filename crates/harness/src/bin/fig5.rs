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
    let result = fig5::generate(&args.sweep(), &Design::all_designs(), ckpt.as_ref());
    let Some(fig) = cli::completed_or_exit("fig5", &args, result) else {
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
