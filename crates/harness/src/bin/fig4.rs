//! Regenerate Figure 4 (training curves of the six software designs) on any
//! registered workload.
//!
//! Run `fig4 --help` for the flag list; the `ELMRL_*` environment variables
//! are honoured as fallbacks.
use elmrl_harness::{cli, fig4, report, telemetry};

fn main() {
    let args = cli::parse_or_exit(
        "fig4",
        "Figure 4 — training curves of the six software designs.\n\
         Plots one representative curve per (design, hidden) cell, as the\n\
         paper does",
        &cli::CliDefaults {
            trials: 1,
            episodes: 600,
            hidden: vec![32, 64],
        },
    );
    telemetry::init(&args);
    eprintln!(
        "figure 4 on {}: hidden sizes {:?}, {} episodes per curve, \
         {} training env(s)",
        args.workload, args.hidden, args.episodes, args.train_envs
    );
    let ckpt = args.checkpoint_options();
    let result = fig4::generate(&args.sweep(), ckpt.as_ref());
    let Some(fig) = cli::completed_or_exit("fig4", &args, result) else {
        return;
    };
    println!(
        "# Figure 4 — training curves ({})\n\n{}",
        args.workload,
        fig4::to_markdown_summary(&fig)
    );
    let dir = args.out_dir();
    report::write_json(&dir, "fig4.json", &fig).expect("write fig4.json");
    report::write_text(&dir, "fig4.csv", &fig4::to_csv(&fig)).expect("write fig4.csv");
    eprintln!("wrote {}/fig4.{{json,csv}}", dir.display());
    telemetry::finish("fig4", &args);
}
