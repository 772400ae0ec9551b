//! Integration tests for the experiment harness: every table/figure generator
//! produces structurally valid output, and the FPGA-vs-float agents agree
//! within quantisation tolerance.

use elm_rl::core::designs::{Design, DesignConfig};
use elm_rl::core::trainer::{Trainer, TrainerConfig};
use elm_rl::fpga::resources::ResourceModel;
use elm_rl::fpga::{FpgaAgent, FpgaAgentConfig};
use elm_rl::gym::{CartPole, Workload};
use elm_rl::harness::runner::run_trial;
use elm_rl::harness::{ablation, fig4, fig5, fig6, table3, Sweep, TrialSpec};
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn table3_reproduces_the_bram_limit() {
    let table = table3::generate();
    assert_eq!(table.rows.len(), 5);
    // 192 fits, 256 does not, and BRAM dominates the other resources.
    assert!(table.rows[3].fits && !table.rows[4].fits);
    for row in &table.rows[..4] {
        assert!(row.bram_pct >= row.dsp_pct);
        assert!(row.bram_pct >= row.ff_pct);
    }
    // the model is within a factor of two of every paper-reported percentage
    for (n, paper) in table3::PAPER_BRAM_PCT
        .iter()
        .filter_map(|(n, p)| p.map(|v| (*n, v)))
    {
        let modelled = table
            .rows
            .iter()
            .find(|r| r.hidden_dim == n)
            .unwrap()
            .bram_pct;
        assert!(modelled > paper * 0.5 && modelled < paper * 2.0);
    }
    assert_eq!(
        ResourceModel::pynq_z1().max_hidden_dim(&[32, 64, 128, 192, 256]),
        Some(192)
    );
}

#[test]
fn fig4_csv_schema_is_stable() {
    let fig = fig4::generate(&Sweep::new(Workload::CartPole, &[8], 3, 21), None)
        .unwrap()
        .unwrap();
    let csv = fig4::to_csv(&fig);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "design,hidden,episode,return,moving_average"
    );
    assert_eq!(csv.lines().count(), 1 + 6 * 3);
    assert!(fig4::to_markdown_summary(&fig).contains("| design |"));
}

#[test]
fn fig5_and_fig6_run_on_a_tiny_budget() {
    let sweep = Sweep::new(Workload::CartPole, &[8], 4, 33);
    let designs = [Design::OsElmL2Lipschitz, Design::Dqn, Design::Fpga];
    let fig = fig5::generate(&sweep, &designs, None).unwrap().unwrap();
    assert_eq!(fig.cells.len(), 3);
    assert_eq!(fig.speedups_vs_dqn.len(), 2);
    assert!(serde_json::to_string(&fig)
        .unwrap()
        .contains("OsElmL2Lipschitz"));

    let detail = fig6::generate(&sweep, None).unwrap().unwrap();
    assert_eq!(detail.rows.len(), 1);
    assert!(fig6::to_markdown(&detail).contains("init_train s (CPU)"));
}

#[test]
fn ablation_outputs_are_structurally_valid() {
    let sweep = Sweep::new(Workload::CartPole, &[8], 3, 17);
    let a1 = ablation::stabilisation_ablation(&sweep);
    assert_eq!(a1.len(), 4);
    let a2 = ablation::precision_ablation(&sweep);
    assert_eq!(a2.len(), 4);
    // Q24 must not be less precise than Q8 on the same matrices.
    let q8 = a2.iter().find(|r| r.frac_bits == 8).unwrap();
    let q24 = a2.iter().find(|r| r.frac_bits == 24).unwrap();
    assert!(q24.beta_report.rms_error <= q8.beta_report.rms_error);
    let md = ablation::to_markdown(&a1, &a2);
    assert!(md.contains("A1") && md.contains("A2"));
}

#[test]
fn runner_reports_modeled_fpga_time_below_software_time() {
    // At equal hidden size and op mix, the modeled on-device time of the FPGA
    // design's offloaded operations must undercut the Cortex-A9 model — the
    // structural reason the paper's FPGA bars are the shortest.
    let sw = run_trial(&TrialSpec::new(Design::OsElmL2Lipschitz, 16, 4).with_max_episodes(10));
    let hw = run_trial(&TrialSpec::new(Design::Fpga, 16, 4).with_max_episodes(10));
    let sw_per_step = sw.modeled.total_seconds / sw.training.total_steps.max(1) as f64;
    let hw_per_step = hw.modeled.total_seconds / hw.training.total_steps.max(1) as f64;
    assert!(
        hw_per_step < sw_per_step,
        "modeled per-step FPGA time ({hw_per_step}) should undercut software ({sw_per_step})"
    );
}

#[test]
fn fpga_and_float_agents_agree_within_quantisation_tolerance() {
    // Train both agents on the same seed/protocol and compare Q-values on a
    // grid of probe states: Q20 quantisation plus divergent trajectories keep
    // them close but not identical.
    let trainer = Trainer::new(TrainerConfig::quick(10));
    let mut r1 = SmallRng::seed_from_u64(8);
    let mut fpga = FpgaAgent::new(
        FpgaAgentConfig::for_workload(&Workload::CartPole.spec(), 16),
        &mut r1,
    );
    let mut env1 = CartPole::new();
    let _ = trainer.run(&mut fpga, &mut env1, &mut r1);

    let mut r2 = SmallRng::seed_from_u64(8);
    let mut float = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(16), &mut r2);
    let mut env2 = CartPole::new();
    let _ = trainer.run(float.as_mut(), &mut env2, &mut r2);

    use elm_rl::core::agent::Agent;
    for &angle in &[-0.1, 0.0, 0.1] {
        let probe = [0.0, 0.0, angle, 0.0];
        let qf = fpga.q_values(&probe);
        let qs = float.q_values(&probe);
        for (a, b) in qf.iter().zip(qs.iter()) {
            assert!(
                (a - b).abs() < 0.5,
                "Q divergence too large at angle {angle}: {qf:?} vs {qs:?}"
            );
        }
    }
}
