//! Trajectory pin for the FPGA design (Q20 core) at the paper's network size.
//!
//! The FPGA agent trains on CartPole at Ñ = 64 from three seeds, once
//! through the scalar [`Trainer::run`] loop and once through
//! [`Trainer::run_vec`] at E = 4. A case pins the per-episode returns, the
//! final Q-values' bits at a probe state, the op counts, and digests of the
//! agent's snapshot JSON after the first checkpointed episode (buffer D
//! still filling) and at the end — the snapshot carries the Q20 core's
//! words and cycle counts. The ELM and OS-ELM designs have the same pin in
//! `elmrl-core`.

use elmrl_core::checkpoint::{AgentSnapshot, RunCheckpoint};
use elmrl_core::ops::OpKind;
use elmrl_core::trainer::{CheckpointCtl, Trainer, TrainerConfig, TrainingResult};
use elmrl_core::Agent;
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::{VecEnv, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;

const HIDDEN: usize = 64;
const EPISODES: usize = 40;
const PROBE: [f64; 4] = [0.02, -0.15, 0.03, 0.2];

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned line: returns digest, probe Q bits, op counts and the two
/// snapshot digests.
fn pin_line(
    label: &str,
    result: &TrainingResult,
    q: Vec<f64>,
    end: &AgentSnapshot,
    first: &RunCheckpoint,
) -> String {
    let returns = fnv1a(
        result
            .stats
            .returns
            .iter()
            .flat_map(|r| r.to_bits().to_le_bytes()),
    );
    let q: Vec<String> = q.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
    let ops = [
        OpKind::InitTrain,
        OpKind::SeqTrain,
        OpKind::PredictInit,
        OpKind::PredictSeq,
    ]
    .map(|k| result.op_counts.count(k));
    let buffered = match first.agent.state.get_field("buffer") {
        Some(Value::Seq(d)) => d.len(),
        _ => 0,
    };
    assert!(
        buffered > 0,
        "{label}: the first capture is mid-store-phase"
    );
    let snap = |s: &AgentSnapshot| fnv1a(serde_json::to_string(s).unwrap().into_bytes());
    format!(
        "{label}: returns {returns:016x} q {} ops {ops:?} snap {:016x} {:016x}",
        q.join(" "),
        snap(&first.agent),
        snap(end)
    )
}

fn trainer() -> Trainer {
    Trainer::new(TrainerConfig {
        stop_when_solved: false,
        ..TrainerConfig::quick(EPISODES)
    })
}

fn run(seed: u64, train_envs: usize) -> String {
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = FpgaAgent::new(FpgaAgentConfig::for_workload(&spec, HIDDEN), &mut rng);
    let mut first = None;
    let mut sink = |c: RunCheckpoint| {
        first.get_or_insert(c);
    };
    let mut ctl = CheckpointCtl::saving(1, &mut sink);
    let result = if train_envs == 1 {
        let mut env = spec.make_env();
        trainer().run_checkpointed(&mut agent, env.as_mut(), &mut rng, &mut ctl)
    } else {
        let mut env = VecEnv::from_spec(&spec, train_envs);
        trainer().run_vec_checkpointed(&mut agent, &mut env, &mut rng, &mut ctl)
    }
    .unwrap();
    let driver = if train_envs == 1 { "run" } else { "run_vec" };
    let label = format!("FPGA seed {seed} {driver}");
    let end = agent.snapshot().unwrap();
    pin_line(
        &label,
        &result,
        agent.q_values(&PROBE),
        &end,
        &first.unwrap(),
    )
}

/// Recorded before the ELM-family agents shared one Algorithm 1 shell.
const PINS: [&str; 6] = [
    "FPGA seed 1 run: returns 5efcb4ada1cdcf35 q bfb961a000000000 bfb68e0000000000 ops [1, 325, 128, 1260] snap 6c4c6b46452011ca cd169b6302614e78",
    "FPGA seed 1 run_vec: returns 4d1c78f7802eb198 q bfa7e56000000000 bfa83a4000000000 ops [1, 341, 128, 1272] snap b53504db6bc6e2eb c8af619906fe167a",
    "FPGA seed 2 run: returns 1d15a811f01002ca q bfb4be3000000000 bfa98b0000000000 ops [1, 259, 128, 1052] snap b7bbdd25130d8e67 37b44a7dd78441b1",
    "FPGA seed 2 run_vec: returns 648afca9e3025fa8 q bfb0611000000000 bfac7e4000000000 ops [1, 274, 128, 1032] snap 1e42cc08654632d1 0231762f7af71d51",
    "FPGA seed 3 run: returns 65b10fc60686c869 q 3f93240000000000 bf91948000000000 ops [1, 238, 128, 1032] snap 6b3d2cde40cfc1e9 49348f02429f7f12",
    "FPGA seed 3 run_vec: returns b98c8c676d86ba0f q bfa3832000000000 bfafe6e000000000 ops [1, 272, 128, 1184] snap ffd1e1ba5c3bdb3c 095a6056abf09844",
];

#[test]
fn fpga_design_reproduces_the_pinned_trajectories() {
    let mut lines = Vec::new();
    for seed in 1..=3 {
        lines.push(run(seed, 1));
        lines.push(run(seed, 4));
    }
    assert_eq!(lines, PINS);
}
