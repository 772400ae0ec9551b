//! # elmrl-fpga
//!
//! A simulator of the paper's PYNQ-Z1 OS-ELM Q-Network core (§4.2).
//!
//! The physical system is a Xilinx xc7z020 FPGA whose programmable logic runs
//! the `predict` and `seq_train` modules in 32-bit Q20 fixed point at 125 MHz,
//! while the 650 MHz Cortex-A9 runs the initial training and the environment.
//! We do not have the board, so this crate substitutes:
//!
//! * [`resources`] — an analytical BRAM/DSP/FF/LUT model of the core,
//!   calibrated against Table 3, which reproduces the "BRAM is the limiting
//!   resource; 192 units fit, 256 do not" result;
//! * [`core`] — a behavioural + cycle model of the datapath: the same
//!   batch-size-1 OS-ELM arithmetic executed on [`elmrl_fixed::Q20`] values
//!   (so quantisation effects are real), with cycle counts derived from the
//!   single-adder/multiplier/divider structure the paper describes;
//! * [`agent`] — [`FpgaAgent`], design (7) of the evaluation: the
//!   OS-ELM-L2-Lipschitz algorithm as the `elmrl-core` Algorithm 1 shell
//!   ([`elmrl_core::QNet`]) over [`FpgaDatapath`], whose prediction and
//!   sequential training run through the fixed-point core; the CPU learner
//!   that computes P₀ stays here. Simulated PL/CPU time is tracked alongside
//!   host wall-clock and read through [`FpgaAgent::datapath`]. [`build_agent`]
//!   builds any of the seven designs, this one included.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod agent;
pub mod core;
pub mod resources;

pub use agent::{build_agent, FpgaAgent, FpgaAgentConfig, FpgaDatapath};
pub use core::{CycleCounts, FpgaCore, FpgaCoreSnapshot, CPU_CLOCK_HZ, PL_CLOCK_HZ};
pub use resources::{ResourceModel, ResourceUtilization, XC7Z020};
