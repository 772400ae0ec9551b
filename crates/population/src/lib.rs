//! # elmrl-population
//!
//! The population execution engine: K replicated agents of one design
//! training on one workload, sharded across a genuinely concurrent
//! work-sharing thread pool (`--threads` / `ELMRL_THREADS` size it),
//! stepped in lockstep through vectorized environments, with batched
//! Q-network inference on the greedy-evaluation (`predict_batch`) side.
//!
//! The paper evaluates a single agent per trial; the ROADMAP's next scaling
//! step is sharding one trial's agents across threads for population-style
//! runs. This crate is that subsystem:
//!
//! * [`runner`] — [`PopulationRunner`]: the sharded lockstep executor built
//!   on [`elmrl_gym::VecEnv`] and [`elmrl_core::batch::BatchAgent`], plus the
//!   shard-invariant [`PopulationReport`] aggregate (solve rate,
//!   episodes-to-solve quantiles, greedy-evaluation returns);
//! * [`seed`] — SplitMix64 seed-splitting, deriving every replica's RNG
//!   streams from the master seed and the replica's global index so the run
//!   replays identically for any shard count.
//!
//! ```
//! use elmrl_core::designs::Design;
//! use elmrl_gym::Workload;
//! use elmrl_population::{PopulationConfig, PopulationRunner};
//!
//! let mut config =
//!     PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 4);
//! config.max_episodes = 3; // tiny budget for the doctest
//! config.eval_episodes = 2;
//! config.shards = 2;
//! let report = PopulationRunner::new(config).run();
//! assert_eq!(report.replicas.len(), 4);
//! assert!((0.0..=1.0).contains(&report.solve_rate));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod runner;
pub mod seed;

pub use runner::{
    FaultPlan, PopulationConfig, PopulationReport, PopulationRun, PopulationRunner,
    QuantileSummary, ReplicaOutcome, ShardManifest, MANIFEST_VERSION,
};
pub use seed::{replica_eval_seed, replica_train_seed, split_seed};
