//! The on-device cost model behind the "modeled seconds" columns.
//!
//! The paper measures wall-clock on a 650 MHz Cortex-A9 running NumPy
//! (ELM/OS-ELM designs) or PyTorch (DQN), and on the 125 MHz programmable
//! logic for the FPGA design. Our trials run natively on the host, so
//! absolute wall-clock is not comparable; this module maps the *operation
//! counts* each agent records into estimated on-device seconds using a simple
//! `per-call overhead + flops / effective-flops-per-second` model. The
//! constants are order-of-magnitude calibrations (interpreter overhead on the
//! Cortex-A9 is large), not measurements — EXPERIMENTS.md reports both host
//! wall-clock and these modeled seconds.

use elmrl_core::ops::{OpCounts, OpKind};
use elmrl_fpga::core::{CPU_CLOCK_HZ, PL_CLOCK_HZ};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Effective scalar floating-point throughput of the Cortex-A9 under NumPy
/// (vectorised inner loops, interpreter-dominated outer loops).
const CPU_FLOPS_NUMPY: f64 = CPU_CLOCK_HZ * 0.25;
/// Effective throughput under PyTorch for small tensors (higher per-call
/// overhead, similar inner-loop throughput).
const CPU_FLOPS_TORCH: f64 = CPU_CLOCK_HZ * 0.25;
/// Per-call interpreter/framework overhead, seconds.
const NUMPY_CALL_OVERHEAD: f64 = 120e-6;
const TORCH_CALL_OVERHEAD: f64 = 900e-6;

/// Per-operation modeled seconds for one design/hidden-size cell.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModeledTime {
    /// Seconds attributed to each operation class.
    pub per_op_seconds: BTreeMap<String, f64>,
    /// Sum over all classes.
    pub total_seconds: f64,
}

/// Cost model for a given network geometry.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// ELM/OS-ELM input width (5 for CartPole's simplified output model).
    pub input_dim: usize,
    /// Hidden width `Ñ`.
    pub hidden_dim: usize,
    /// Output width of the ELM/OS-ELM network (1).
    pub output_dim: usize,
    /// DQN state width (4) and action count (2) for the baseline's shapes.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// DQN mini-batch size.
    pub batch_size: usize,
}

impl CostModel {
    /// Cost model for a registered workload at a hidden size: the ELM input
    /// width is `observation_dim + 1` (scalar action encoding) and the DQN
    /// shapes follow the workload's observation/action dimensions.
    pub fn for_workload(spec: &elmrl_gym::EnvSpec, hidden_dim: usize) -> Self {
        Self {
            input_dim: spec.elm_input_dim(),
            hidden_dim,
            output_dim: 1,
            state_dim: spec.observation_dim,
            num_actions: spec.num_actions,
            batch_size: 32,
        }
    }

    /// Floating-point operations for one occurrence of `kind` on the CPU.
    pub fn flops(&self, kind: OpKind) -> f64 {
        let n = self.input_dim as f64;
        let h = self.hidden_dim as f64;
        let m = self.output_dim as f64;
        let s = self.state_dim as f64;
        let a = self.num_actions as f64;
        let b = self.batch_size as f64;
        match kind {
            // one (state, action) forward pass through the ELM network
            OpKind::PredictInit | OpKind::PredictSeq => 2.0 * (n * h + h * m),
            // Gram matrix + Cholesky + β solve on a chunk of Ñ samples
            OpKind::InitTrain => {
                let k = h; // buffer D holds Ñ samples
                2.0 * k * h * n + 2.0 * k * h * h + h * h * h / 3.0 + 2.0 * h * h * m
            }
            // batch-size-1 rank-1 update: hidden, two Ñ² products, downdate, β
            OpKind::SeqTrain => 2.0 * (n * h + 4.0 * h * h + 2.0 * h * m + h),
            // DQN: two batch-32 forwards + one forward/backward pass
            OpKind::TrainDqn => 6.0 * b * (s * h + h * a),
            OpKind::Predict1 => 2.0 * (s * h + h * a),
            OpKind::Predict32 => 2.0 * b * (s * h + h * a),
        }
    }

    /// Modeled Cortex-A9 seconds for one occurrence of `kind`.
    pub fn cpu_seconds(&self, kind: OpKind) -> f64 {
        let (overhead, flops_per_s) = match kind {
            OpKind::TrainDqn | OpKind::Predict1 | OpKind::Predict32 => {
                (TORCH_CALL_OVERHEAD, CPU_FLOPS_TORCH)
            }
            _ => (NUMPY_CALL_OVERHEAD, CPU_FLOPS_NUMPY),
        };
        overhead + self.flops(kind) / flops_per_s
    }

    /// Modeled programmable-logic seconds for one occurrence of `kind` on the
    /// FPGA core (only the predict/seq_train classes run on the PL; the rest
    /// fall back to the CPU model).
    pub fn pl_seconds(&self, kind: OpKind) -> f64 {
        let n = self.input_dim as f64;
        let h = self.hidden_dim as f64;
        let m = self.output_dim as f64;
        let cycles = match kind {
            OpKind::PredictInit | OpKind::PredictSeq => 64.0 + n * h + 2.0 * h + h * m,
            OpKind::SeqTrain => 64.0 + n * h + 4.0 * h * h + 3.0 * h + 32.0 + 2.0 * h * m,
            _ => return self.cpu_seconds(kind),
        };
        cycles / PL_CLOCK_HZ
    }

    /// Convert a full [`OpCounts`] into modeled seconds for a *software*
    /// design (everything on the Cortex-A9).
    pub fn model_software(&self, ops: &OpCounts) -> ModeledTime {
        self.model_with(ops, |kind| self.cpu_seconds(kind))
    }

    /// Convert a full [`OpCounts`] into modeled seconds for the *FPGA* design
    /// (predict/seq_train on the PL, initial training on the CPU).
    pub fn model_fpga(&self, ops: &OpCounts) -> ModeledTime {
        self.model_with(ops, |kind| self.pl_seconds(kind))
    }

    fn model_with(&self, ops: &OpCounts, per_op: impl Fn(OpKind) -> f64) -> ModeledTime {
        let mut per_op_seconds = BTreeMap::new();
        let mut total = 0.0;
        for (kind, count) in ops.iter() {
            let seconds = per_op(kind) * count as f64;
            total += seconds;
            per_op_seconds.insert(kind.label().to_string(), seconds);
        }
        ModeledTime {
            per_op_seconds,
            total_seconds: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cartpole(hidden_dim: usize) -> CostModel {
        CostModel::for_workload(&elmrl_gym::Workload::CartPole.spec(), hidden_dim)
    }

    #[test]
    fn seq_train_dominates_predict_in_flops() {
        let m = cartpole(64);
        assert!(m.flops(OpKind::SeqTrain) > 5.0 * m.flops(OpKind::PredictSeq));
        assert!(m.flops(OpKind::InitTrain) > m.flops(OpKind::SeqTrain));
    }

    #[test]
    fn costs_grow_with_hidden_size() {
        let small = cartpole(32);
        let large = cartpole(192);
        for kind in OpKind::all() {
            assert!(large.flops(kind) >= small.flops(kind), "{kind:?}");
        }
        // seq_train is quadratic in Ñ: 6× hidden → ≥ 20× flops
        assert!(large.flops(OpKind::SeqTrain) > 20.0 * small.flops(OpKind::SeqTrain));
    }

    #[test]
    fn pl_is_faster_than_cpu_for_the_offloaded_ops() {
        let m = cartpole(64);
        assert!(m.pl_seconds(OpKind::SeqTrain) < m.cpu_seconds(OpKind::SeqTrain));
        assert!(m.pl_seconds(OpKind::PredictSeq) < m.cpu_seconds(OpKind::PredictSeq));
        // non-offloaded classes fall back to the CPU cost
        assert_eq!(
            m.pl_seconds(OpKind::InitTrain),
            m.cpu_seconds(OpKind::InitTrain)
        );
    }

    #[test]
    fn dqn_step_is_more_expensive_than_oselm_step() {
        // The core of the paper's speed argument at equal hidden size... holds
        // for the per-call overhead-dominated regime (small Ñ).
        let m = cartpole(64);
        assert!(m.cpu_seconds(OpKind::TrainDqn) > m.cpu_seconds(OpKind::SeqTrain));
    }

    #[test]
    fn model_software_and_fpga_aggregate_counts() {
        let m = cartpole(32);
        let mut ops = OpCounts::new();
        ops.add(OpKind::SeqTrain, 100);
        ops.add(OpKind::PredictSeq, 200);
        ops.add(OpKind::InitTrain, 1);
        let sw = m.model_software(&ops);
        let hw = m.model_fpga(&ops);
        assert!(sw.total_seconds > 0.0);
        assert!(hw.total_seconds > 0.0);
        assert!(
            hw.total_seconds < sw.total_seconds,
            "FPGA must be faster overall"
        );
        assert_eq!(sw.per_op_seconds.len(), 3);
        assert!(sw.per_op_seconds["seq_train"] > sw.per_op_seconds["predict_seq"] / 10.0);
    }
}
