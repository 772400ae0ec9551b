//! Exercise the FPGA path end to end: check the resource model for the chosen
//! hidden size (Table 3), train the FPGA-backed agent (design 7), and report
//! the simulated on-device time split between the 125 MHz programmable logic
//! and the 650 MHz CPU.
//!
//! Run with: `cargo run --release --example fpga_accelerator [hidden]`

use elm_rl::core::agent::Agent;
use elm_rl::core::trainer::{Trainer, TrainerConfig};
use elm_rl::fpga::resources::ResourceModel;
use elm_rl::fpga::{FpgaAgent, FpgaAgentConfig};
use elm_rl::gym::{CartPole, Workload};
use rand::{rngs::SmallRng, SeedableRng};

fn main() {
    let hidden: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    let model = ResourceModel::pynq_z1();
    let util = model.utilization(hidden);
    println!("xc7z020 resource check for {hidden} hidden units:");
    println!(
        "  BRAM {:.2}%  DSP {:.2}%  FF {:.2}%  LUT {:.2}%  -> fits: {}",
        util.bram_pct, util.dsp_pct, util.ff_pct, util.lut_pct, util.fits
    );
    if !util.fits {
        println!("  (the paper hits the same wall at 256 units; choose ≤192)");
        return;
    }

    let mut rng = SmallRng::seed_from_u64(11);
    let mut agent = FpgaAgent::new(
        FpgaAgentConfig::for_workload(&Workload::CartPole.spec(), hidden),
        &mut rng,
    );
    let mut env = CartPole::new();
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: 1500,
        ..Default::default()
    });
    println!("training the FPGA-backed agent ...");
    let result = trainer.run(&mut agent, &mut env, &mut rng);

    let (predict_s, seq_train_s, init_train_s) = agent.datapath().simulated_breakdown_seconds();
    println!(
        "solved: {} after {} episodes",
        result.solved, result.episodes_run
    );
    println!("simulated on-device time:");
    println!("  predict   (PL @125MHz): {predict_s:.4}s");
    println!("  seq_train (PL @125MHz): {seq_train_s:.4}s");
    println!("  init_train (CPU @650MHz): {init_train_s:.4}s");
    println!(
        "  total: {:.4}s",
        agent.datapath().simulated_total_seconds()
    );
    println!("host wall time: {:.3}s", result.wall_seconds());
    println!(
        "on-device learnable state: {} KiB of BRAM",
        agent.memory_footprint_bytes() / 1024
    );
}
