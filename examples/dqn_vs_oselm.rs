//! The paper's headline comparison in miniature: DQN vs OS-ELM-L2-Lipschitz vs
//! the FPGA design at one hidden size, reporting episodes-to-complete, host
//! wall-clock and modeled on-device seconds (the Figure 5 quantities).
//!
//! Run with: `cargo run --release --example dqn_vs_oselm [hidden] [trials]`

use elm_rl::core::designs::Design;
use elm_rl::gym::Workload;
use elm_rl::harness::{fig5, Sweep};
use rand::Rng;
use rand::{rngs::SmallRng, SeedableRng};

fn main() {
    let hidden: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let trials: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let seed = SmallRng::seed_from_u64(0).gen::<u16>() as u64;

    let designs = [Design::OsElmL2Lipschitz, Design::Dqn, Design::Fpga];
    println!("running {trials} trial(s) per design at {hidden} hidden units ...");
    let sweep = Sweep {
        trials,
        ..Sweep::new(Workload::CartPole, &[hidden], 2000, seed)
    };
    let fig = fig5::generate(&sweep, &designs, None)
        .expect("a sweep without checkpoints cannot fail")
        .expect("a sweep without checkpoints runs to the end");

    println!("\n{}", fig5::to_markdown(&fig));
    println!("{}", fig5::speedups_to_markdown(&fig));
    println!("(modeled seconds use the Cortex-A9 / 125 MHz-PL cost model; see DESIGN.md)");
}
