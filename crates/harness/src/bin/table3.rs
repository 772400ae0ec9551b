//! Regenerate Table 3 (FPGA resource utilization of the OS-ELM core).
//!
//! The resource table is workload-independent; the binary still accepts the
//! shared flag set (`table3 --help`) so `--out <dir>` can redirect output.
use elmrl_harness::{cli, report, table3, telemetry};

fn main() {
    let args = cli::parse_or_exit(
        "table3",
        "Table 3 — FPGA resource utilization of the OS-ELM core (xc7z020).\n\
         The table is workload-independent and covers the paper's full hidden\n\
         sweep",
        &cli::CliDefaults {
            trials: 1,
            episodes: 0,
            hidden: vec![32, 64, 128, 192],
        },
    );
    telemetry::init(&args);
    let table = table3::generate();
    let md = table3::to_markdown(&table);
    println!("# Table 3 — FPGA resource utilization (xc7z020)\n\n{md}");
    // Workload-independent artefact: default to the shared results/ root
    // rather than a per-workload subdirectory.
    let dir = args.out.clone().unwrap_or_else(report::default_results_dir);
    report::write_json(&dir, "table3.json", &table).expect("write table3.json");
    report::write_text(&dir, "table3.md", &md).expect("write table3.md");
    eprintln!("wrote {}/table3.{{md,json}}", dir.display());
    telemetry::finish("table3", &args);
}
