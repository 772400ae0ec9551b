//! Compare all four OS-ELM Q-Network variants (the §4.1 designs 2–5) on
//! CartPole-v0 at one hidden size, reporting which stabilisation techniques
//! matter — a miniature of the paper's Figure 4 discussion.
//!
//! Run with: `cargo run --release --example cartpole_oselm [hidden] [episodes]`

use elm_rl::core::designs::{Design, DesignConfig};
use elm_rl::core::trainer::{Trainer, TrainerConfig};
use elm_rl::gym::CartPole;
use rand::{rngs::SmallRng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let hidden: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let episodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(800);

    println!("| design | solved | episodes | best return | final 100-ep avg | Lipschitz-bounded |");
    println!("|---|---|---|---|---|---|");
    for design in [
        Design::OsElm,
        Design::OsElmL2,
        Design::OsElmLipschitz,
        Design::OsElmL2Lipschitz,
    ] {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut agent = design.build_batch(&DesignConfig::new(hidden), &mut rng);
        let mut env = CartPole::new();
        let trainer = Trainer::new(TrainerConfig {
            max_episodes: episodes,
            ..Default::default()
        });
        let result = trainer.run(agent.as_mut(), &mut env, &mut rng);
        println!(
            "| {} | {} | {} | {:.0} | {:.1} | {} |",
            design.label(),
            result.solved,
            result.episodes_run,
            result.stats.best_return().unwrap_or(0.0),
            result.stats.current_average().unwrap_or(0.0),
            design.spectral_normalize(),
        );
    }
}
