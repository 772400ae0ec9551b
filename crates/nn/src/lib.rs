//! # elmrl-nn
//!
//! A from-scratch feed-forward neural-network substrate: dense layers,
//! backpropagation, ReLU/tanh/sigmoid activations, SGD and Adam optimisers,
//! MSE and Huber losses, and an experience-replay buffer.
//!
//! This crate exists to give the paper's **baseline** a faithful
//! implementation: the comparison system in §4 is a three-layer DQN trained
//! with Adam (learning rate 0.01) and the Huber loss, using experience replay
//! and a fixed target network. Everything here is ordinary
//! backpropagation-based deep learning — exactly the machinery the paper's
//! OS-ELM approach is designed to avoid on-device — implemented over the same
//! [`elmrl_linalg::Matrix`] type as the rest of the workspace so the two
//! approaches share their numeric substrate.
//!
//! ```
//! use elmrl_nn::{Activation, Adam, Loss, Mlp, MlpConfig};
//! use elmrl_linalg::Matrix;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let config = MlpConfig::new(&[2, 16, 1])
//!     .with_hidden_activation(Activation::ReLU)
//!     .with_output_activation(Activation::Identity);
//! let mut net = Mlp::new(config, &mut rng);
//! let mut opt = Adam::new(0.01);
//!
//! // learn y = x0 + x1 on a tiny dataset
//! let x = Matrix::from_rows(&[vec![0.1, 0.2], vec![0.5, 0.3], vec![0.9, 0.7]]);
//! let t = Matrix::from_rows(&[vec![0.3], vec![0.8], vec![1.6]]);
//! for _ in 0..500 {
//!     net.train_step(&x, &t, Loss::Mse, &mut opt);
//! }
//! let pred = net.forward(&x);
//! assert!((pred[(0, 0)] - 0.3).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod activation;
mod kernels;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod replay;

pub use activation::Activation;
pub use layer::DenseLayer;
pub use loss::Loss;
pub use mlp::{Mlp, MlpConfig, MlpScratch, MlpWorkspace};
pub use optimizer::{Adam, MomentState, Optimizer, Sgd};
pub use replay::{ReplayBatch, ReplayBuffer, Transition};
