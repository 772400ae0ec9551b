//! Quickstart: train the paper's recommended design (OS-ELM-L2-Lipschitz)
//! on CartPole-v0 and print its training progress.
//!
//! Run with: `cargo run --release --example quickstart`

use elm_rl::core::designs::{Design, DesignConfig};
use elm_rl::core::trainer::{Trainer, TrainerConfig};
use elm_rl::gym::CartPole;
use rand::{rngs::SmallRng, SeedableRng};

fn main() {
    let seed = 2;
    let hidden = 64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(hidden), &mut rng);
    let mut env = CartPole::new();
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: 1500,
        ..Default::default()
    });

    println!(
        "training {} with {hidden} hidden units on CartPole-v0 ...",
        agent.name()
    );
    let result = trainer.run(agent.as_mut(), &mut env, &mut rng);

    println!("solved: {}", result.solved);
    if let Some(ep) = result.solved_at_episode {
        println!("first full-length episode at episode {}", ep + 1);
    }
    println!("episodes run: {}", result.episodes_run);
    println!("environment steps: {}", result.total_steps);
    println!("weight resets: {}", result.resets);
    println!("host wall time: {:.3}s", result.wall_seconds());
    println!("operation counts:");
    for (kind, count) in result.op_counts.iter() {
        println!("  {:<13} x{count}", kind.label());
    }
    let tail = &result.stats.returns[result.stats.returns.len().saturating_sub(10)..];
    println!("last 10 episode returns: {tail:?}");
}
