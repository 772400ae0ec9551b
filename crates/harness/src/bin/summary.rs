//! Aggregate every `results/<workload>/fig5.json` into one design ×
//! environment matrix (`results/summary.json` + a stdout table), and every
//! `results/<workload>/population.json` into the cross-workload population
//! table (`results/population_summary.json`: solve rate + episodes-to-solve
//! quantiles per design × env).
//!
//! Run `summary --help` for the flag list; `--results <dir>` names the root
//! the artefacts were written under, and the summaries go there too unless
//! `--out` says otherwise.
use elmrl_harness::{cli, report, summary, telemetry};

fn main() {
    let args = cli::parse_or_exit(
        "summary",
        "Cross-environment summary - design x environment matrices from fig5,\n\
         population and ablation results",
        &cli::CliDefaults {
            trials: 1,
            episodes: 0,
            hidden: vec![],
        },
    );
    telemetry::init(&args);
    let results_root = args.results.clone();

    let summary = match summary::collect(&results_root) {
        Ok(s) => s,
        Err(e) => exit_with(&format!(
            "failed to read fig5 results under {}: {e}",
            results_root.display()
        )),
    };
    for slug in &summary.missing {
        eprintln!(
            "summary: no {}/{slug}/fig5.json — run `fig5 --workload {slug}` to fill it in",
            results_root.display()
        );
    }
    for slug in &summary.unreadable {
        eprintln!(
            "summary: {}/{slug}/fig5.json does not parse (older schema?) — skipped; \
             re-run `fig5 --workload {slug}` to refresh it",
            results_root.display()
        );
    }
    let population = match summary::collect_population(&results_root) {
        Ok(p) => p,
        Err(e) => exit_with(&format!(
            "failed to read population results under {}: {e}",
            results_root.display()
        )),
    };
    for slug in &population.missing {
        eprintln!(
            "summary: no {}/{slug}/population.json — run `population --workload {slug}` \
             to fill it in",
            results_root.display()
        );
    }
    for slug in &population.unreadable {
        eprintln!(
            "summary: {}/{slug}/population.json does not parse (older schema?) — skipped",
            results_root.display()
        );
    }
    let ablation = match summary::collect_ablation(&results_root) {
        Ok(a) => a,
        Err(e) => exit_with(&format!(
            "failed to read ablation results under {}: {e}",
            results_root.display()
        )),
    };
    for slug in &ablation.missing {
        eprintln!(
            "summary: no {}/{slug}/ablation_a1.json — run `ablation --workload {slug}` \
             (or `--workload all`) to fill it in",
            results_root.display()
        );
    }
    for slug in &ablation.unreadable {
        eprintln!(
            "summary: {}/{slug}/ablation_a1.json does not parse (older schema?) — skipped",
            results_root.display()
        );
    }
    if summary.workloads.is_empty()
        && population.workloads.is_empty()
        && ablation.workloads.is_empty()
    {
        exit_with(&format!(
            "no fig5.json, population.json or ablation_a1.json found under {} for any \
             registered workload",
            results_root.display()
        ));
    }

    let dir = args.out.clone().unwrap_or(results_root);
    if !summary.workloads.is_empty() {
        let md = summary::to_markdown(&summary);
        println!("# Design × environment summary\n\n{md}");
        report::write_json(&dir, "summary.json", &summary).expect("write summary.json");
        report::write_text(&dir, "summary.md", &md).expect("write summary.md");
        eprintln!("wrote {}/summary.{{md,json}}", dir.display());
    }
    if !population.workloads.is_empty() {
        let md = summary::population_to_markdown(&population);
        println!("\n# Cross-workload population table\n\n{md}");
        report::write_json(&dir, "population_summary.json", &population)
            .expect("write population_summary.json");
        report::write_text(&dir, "population_summary.md", &md)
            .expect("write population_summary.md");
        eprintln!("wrote {}/population_summary.{{md,json}}", dir.display());
    }
    if !ablation.workloads.is_empty() {
        let md = summary::ablation_to_markdown(&ablation);
        println!("\n# Cross-workload stabilisation ablation (A1)\n\n{md}");
        report::write_json(&dir, "ablation_summary.json", &ablation)
            .expect("write ablation_summary.json");
        report::write_text(&dir, "ablation_summary.md", &md).expect("write ablation_summary.md");
        eprintln!("wrote {}/ablation_summary.{{md,json}}", dir.display());
    }
    telemetry::finish("summary", &args);
}

fn exit_with(message: &str) -> ! {
    eprintln!("summary: {message}");
    std::process::exit(2);
}
