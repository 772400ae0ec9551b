//! Regenerate Figure 6 (execution-time detail of the FPGA design) on any
//! registered workload.
//!
//! Run `fig6 --help` for the flag list; the `ELMRL_*` environment variables
//! are honoured as fallbacks.
use elmrl_harness::{cli, fig6, report, telemetry};

fn main() {
    let args = cli::parse_or_exit(
        "fig6",
        "Figure 6 — execution-time detail of the FPGA design",
        &cli::CliDefaults {
            trials: 3,
            episodes: 2000,
            hidden: vec![32, 64],
        },
    );
    telemetry::init(&args);
    eprintln!(
        "figure 6 on {}: hidden {:?}, {} trials/cell, {} episode budget, \
         {} training env(s)",
        args.workload, args.hidden, args.trials, args.episodes, args.train_envs
    );
    let ckpt = args.checkpoint_options();
    let result = fig6::generate(&args.sweep(), ckpt.as_ref());
    let Some(fig) = cli::completed_or_exit("fig6", &args, result) else {
        return;
    };
    println!(
        "# Figure 6 — FPGA execution-time detail ({})\n\n{}",
        args.workload,
        fig6::to_markdown(&fig)
    );
    let dir = args.out_dir();
    report::write_json(&dir, "fig6.json", &fig).expect("write fig6.json");
    report::write_text(&dir, "fig6.md", &fig6::to_markdown(&fig)).expect("write fig6.md");
    eprintln!("wrote {}/fig6.{{md,json}}", dir.display());
    telemetry::finish("fig6", &args);
}
