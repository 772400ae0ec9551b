//! # elmrl-core
//!
//! The paper's primary contribution: lightweight on-device reinforcement
//! learning built on ELM / OS-ELM Q-Networks (Algorithm 1), plus the DQN
//! baseline it is compared against in §4.
//!
//! The pieces map onto the paper as follows:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`encoding`] — simplified output model, `(state, action) → scalar Q` | §3.1, Figure 2 |
//! | [`clipping`] — Q-value clipping to `[-1, 1]` | §3.1 |
//! | [`policy`] — the ε₁ exploit/explore rule | Algorithm 1 lines 10–13 |
//! | [`reward`] — reward shaping into the `[-1, 1]` range the clipping assumes | §3.1 |
//! | [`qnet`] — Algorithm 1 once: the [`QNet`] agent shell of the ELM-family designs over a [`Datapath`] | Algorithm 1 |
//! | [`elm_qnet`] — ELM Q-Network: the refill-only datapath (batch retraining when buffer `D` fills) | §3.1, Algorithm 1 |
//! | [`oselm_qnet`] — OS-ELM Q-Network: the f64 RLS datapath, with random update, L2 and spectral normalization | §3.2–3.3 |
//! | [`dqn`] — the three-layer DQN baseline (experience replay, target network, Adam, Huber) | §2.4, §4.1 design (6) |
//! | [`designs`] — the seven evaluated designs as a factory enum | §4.1 |
//! | [`batch`] — batched Q inference ([`BatchAgent`]): one `B×n` matmul instead of B matvecs | population-serving extension |
//! | [`checkpoint`] — versioned agent/run snapshots for bit-exact save/resume | fault-tolerance extension |
//! | [`trainer`] — episode loop, 300-episode reset rule, solve criterion, op counting | §4.3–4.4 |
//! | [`ops`] — per-operation counters behind the Figure 5/6 execution-time breakdowns | §4.4 |
//!
//! ```no_run
//! use elmrl_core::designs::{Design, DesignConfig};
//! use elmrl_core::trainer::{Trainer, TrainerConfig};
//! use elmrl_gym::CartPole;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let config = DesignConfig::new(64);
//! let mut agent = Design::OsElmL2Lipschitz.build_batch(&config, &mut rng);
//! let mut env = CartPole::new();
//! let result = Trainer::new(TrainerConfig::default())
//!     .run(agent.as_mut(), &mut env, &mut rng);
//! println!("solved: {} after {} episodes", result.solved, result.episodes_run);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod agent;
pub mod batch;
pub mod checkpoint;
pub mod clipping;
pub mod designs;
pub mod dqn;
pub mod elm_qnet;
pub mod encoding;
pub mod ops;
pub mod oselm_qnet;
pub mod policy;
pub mod qnet;
pub mod reward;
pub mod trainer;

pub use agent::{Agent, Observation};
pub use batch::BatchAgent;
pub use checkpoint::{AgentSnapshot, RunCheckpoint, SlotCheckpoint, SNAPSHOT_SCHEMA_VERSION};
pub use designs::{Design, DesignConfig};
pub use dqn::DqnAgent;
pub use elm_qnet::ElmQNet;
pub use ops::{OpCounts, OpKind};
pub use oselm_qnet::{OsElmQNet, OsElmQNetConfig, DEFAULT_CHUNK_CAP};
pub use qnet::{Datapath, QNet};
pub use trainer::{SolveCriterion, Trainer, TrainerConfig, TrainingResult};
