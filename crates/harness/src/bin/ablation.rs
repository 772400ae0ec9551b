//! Run the DESIGN.md ablations (A1 stabilisation techniques, A2 precision,
//! A3 arithmetic backend) on any registered workload — or on **all** of them
//! (`--workload all`), which writes one `results/<slug>/ablation_*.json` set
//! per workload so `summary` can fold them into the cross-workload
//! stabilisation table.
//!
//! Run `ablation --help` for the flag list. The ablations are single-trial
//! and use a single hidden size, the first entry of `--hidden` (default 64).
use elmrl_harness::{ablation, cli, report, telemetry, Sweep};

fn main() {
    let args = cli::parse_or_exit(
        "ablation",
        "DESIGN.md ablations: A1 stabilisation techniques, A2 precision, \
         A3 arithmetic backend (single-trial, first --hidden size only; \
         --workload all loops over the whole registry)",
        &cli::CliDefaults {
            trials: 1,
            episodes: 600,
            hidden: vec![64],
        },
    );
    telemetry::init(&args);
    let hidden = args.first_hidden("ablation");
    for workload in args.workloads() {
        eprintln!(
            "ablations on {workload} at hidden = {hidden}, {} episodes, {} training env(s)",
            args.episodes, args.train_envs
        );
        let sweep = Sweep {
            workload,
            ..args.sweep()
        };
        let a1 = ablation::stabilisation_ablation(&sweep);
        let a2 = ablation::precision_ablation(&sweep);
        let a3 = ablation::backend_ablation(&sweep);
        let mut md = ablation::to_markdown(&a1, &a2);
        md.push('\n');
        md.push_str(&ablation::backend_to_markdown(&a3));
        println!("# Ablations ({workload})\n\n{md}");
        // Under --workload all, an explicit --out becomes the root of one
        // subdirectory per workload; a single workload keeps writing to
        // --out directly (or the per-workload default).
        let dir = if args.workload_all {
            args.out
                .clone()
                .unwrap_or_else(report::default_results_dir)
                .join(workload.slug())
        } else {
            args.out
                .clone()
                .unwrap_or_else(|| report::results_dir_for(workload))
        };
        report::write_json(&dir, "ablation_a1.json", &a1).expect("write ablation_a1.json");
        report::write_json(&dir, "ablation_a2.json", &a2).expect("write ablation_a2.json");
        report::write_json(&dir, "ablation_a3.json", &a3).expect("write ablation_a3.json");
        report::write_text(&dir, "ablation.md", &md).expect("write ablation.md");
        eprintln!("wrote {}/ablation.{{md,json}}", dir.display());
    }
    telemetry::finish("ablation", &args);
}
