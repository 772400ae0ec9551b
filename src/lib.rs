//! # elm-rl
//!
//! A Rust reproduction of *"An FPGA-Based On-Device Reinforcement Learning
//! Approach using Online Sequential Learning"* (Watanabe, Tsukada, Matsutani).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`linalg`] — dense matrices, decompositions, pseudo-inverse;
//! * [`fixed`] — Q-format fixed point (the FPGA's 32-bit Q20);
//! * [`nn`] — MLP/backprop/Adam/Huber/replay (the DQN baseline substrate);
//! * [`gym`] — CartPole-v0, MountainCar-v0 and Pendulum environments;
//! * [`elm`] — ELM / OS-ELM / ReOS-ELM learners with spectral normalization;
//! * [`core`] — the ELM/OS-ELM Q-Networks, DQN agent, trainer and designs;
//! * [`fpga`] — the PYNQ-Z1 resource model, Q20 datapath core and FPGA agent;
//! * [`population`] — the population execution engine: sharded replicated
//!   agents over vectorized environments with batched Q inference;
//! * [`harness`] — the experiment runners for Table 3 and Figures 4–6, the
//!   population binary and the cross-environment summary.
//!
//! ```
//! use elm_rl::core::designs::{Design, DesignConfig};
//! use elm_rl::core::trainer::{Trainer, TrainerConfig};
//! use elm_rl::gym::CartPole;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut agent = Design::OsElmL2Lipschitz.build_batch(&DesignConfig::new(16), &mut rng);
//! let mut env = CartPole::new();
//! let result = Trainer::new(TrainerConfig::quick(3)).run(agent.as_mut(), &mut env, &mut rng);
//! assert_eq!(result.episodes_run, 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use elmrl_core as core;
pub use elmrl_elm as elm;
pub use elmrl_fixed as fixed;
pub use elmrl_fpga as fpga;
pub use elmrl_gym as gym;
pub use elmrl_harness as harness;
pub use elmrl_linalg as linalg;
pub use elmrl_nn as nn;
pub use elmrl_population as population;
