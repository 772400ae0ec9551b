//! Trajectory pin for the ELM and OS-ELM designs at the paper's network size.
//!
//! Each design trains on CartPole at Ñ = 64 from three seeds, once through
//! the scalar [`Trainer::run`] loop and once through [`Trainer::run_vec`] at
//! E = 4. A case pins the per-episode returns, the final Q-values' bits at a
//! probe state, the op counts, and digests of the agent's snapshot JSON
//! after the first checkpointed episode (buffer D still filling) and at the
//! end. Any change to the gate draws, the store phase, the update entry
//! points or the snapshot layout flips at least one of them, and the
//! snapshot digests also prove that checkpoints written before such a
//! change still restore.

use elmrl_core::checkpoint::{AgentSnapshot, RunCheckpoint};
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::ops::OpKind;
use elmrl_core::trainer::{CheckpointCtl, Trainer, TrainerConfig, TrainingResult};
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

fn scalar_run(design: Design, seed: u64) -> String {
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = design.build_batch(&DesignConfig::for_workload(&spec, HIDDEN), &mut rng);
    let mut env = spec.make_env();
    let mut first = None;
    let mut sink = |c: RunCheckpoint| {
        first.get_or_insert(c);
    };
    let result = trainer()
        .run_checkpointed(
            agent.as_mut(),
            env.as_mut(),
            &mut rng,
            &mut CheckpointCtl::saving(1, &mut sink),
        )
        .unwrap();
    let label = format!("{} seed {seed} run", design.label());
    let end = agent.snapshot().unwrap();
    pin_line(
        &label,
        &result,
        agent.q_values(&PROBE),
        &end,
        &first.unwrap(),
    )
}

fn vec_run(design: Design, seed: u64) -> String {
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = design.build_batch(&DesignConfig::for_workload(&spec, HIDDEN), &mut rng);
    let mut env = VecEnv::from_spec(&spec, 4);
    let mut first = None;
    let mut sink = |c: RunCheckpoint| {
        first.get_or_insert(c);
    };
    let result = trainer()
        .run_vec_checkpointed(
            agent.as_mut(),
            &mut env,
            &mut rng,
            &mut CheckpointCtl::saving(1, &mut sink),
        )
        .unwrap();
    let label = format!("{} seed {seed} run_vec", design.label());
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
const PINS: [&str; 30] = [
    "ELM seed 1 run: returns e9f918120391f6ec q 3fd7d066b5a24cdc 3fc3e9d3ede90a60 ops [7, 0, 128, 880] snap 27ff4fe84c95ab72 c4a5e9fbbf116322",
    "ELM seed 1 run_vec: returns b09b6ebc9763eded q 3fd54e6f88b53a80 3fd132bed0c27b00 ops [8, 0, 128, 984] snap bf962f719253bb3f a5bc6a5e596ab6c9",
    "ELM seed 2 run: returns 9f6df21cebce91df q 3fedc1393d9819b0 bfc02e70e6d2ada8 ops [12, 0, 128, 1428] snap c024f6be5b73ff17 48999d580760ca67",
    "ELM seed 2 run_vec: returns eaf3a5d8b42940cd q 3fef07123dbd2610 3feec582531f710c ops [14, 0, 128, 1680] snap 2ef3013490bac5d1 8f4ea3bf341ebe01",
    "ELM seed 3 run: returns 5aa6ae88da67ce88 q bfe47f0a64057202 3feca2a599757334 ops [10, 0, 128, 1182] snap ccd72d5723c52f71 5092c7143f253a14",
    "ELM seed 3 run_vec: returns e25ec5b8559d0743 q 4001ac9c730c8b52 3ff1fda19a928980 ops [13, 0, 128, 1584] snap e2d2d887f1ea461e 793967e958307413",
    "OS-ELM seed 1 run: returns d355d842bb57fbb0 q bfb321607a43f700 bfac37267e8cdf00 ops [1, 283, 128, 1088] snap 799e8ec2da1618b0 327b8bd5c9192d45",
    "OS-ELM seed 1 run_vec: returns 15fdcbcb93e7066c q 3faaff7a7ed79980 3fc8c29db49dfe30 ops [1, 313, 128, 1176] snap 999364f23c72be77 8f07990ca12a752d",
    "OS-ELM seed 2 run: returns f131aaf6351493ac q 3fc2f4545d740cb0 3fd010af9e0680d8 ops [1, 355, 128, 1422] snap faf1f5577ee7cf95 0c764eedcc75ac84",
    "OS-ELM seed 2 run_vec: returns 1a42130faffe51c0 q 3fd846d55df45376 3fbb95c5c7fec8b4 ops [1, 287, 128, 1096] snap c481aa4e8131fa33 81ce15d6cac6a8bc",
    "OS-ELM seed 3 run: returns edab083a4538c0a0 q 3fb273c135f5d360 bfc3840cbed7fc80 ops [1, 219, 128, 962] snap 0659c9cf103f82d1 5110f8a6082e2cdc",
    "OS-ELM seed 3 run_vec: returns 0ae2a7b3e5689ca2 q 3fb49e4a0431ced0 3fade58986cda0e0 ops [1, 293, 128, 1288] snap 3e0aad9a015d5ff8 b887c192a35ad950",
    "OS-ELM-L2 seed 1 run: returns 0427757d8b23cf74 q bfb1fa0458bd01f4 bfb53c7b753b76f4 ops [1, 214, 128, 820] snap 86cce42bd0007c94 4bb1c8d27fec6092",
    "OS-ELM-L2 seed 1 run_vec: returns 418efd2c5c01173e q bfa2d468846f0d3e bfabc774c492b55e ops [1, 238, 128, 904] snap 762786809c62827b b3a261fa372502a1",
    "OS-ELM-L2 seed 2 run: returns 9752d9c830ad743b q bfa577f7196eefaa 3f4db7143eaae4c0 ops [1, 227, 128, 948] snap cf57918101a15543 a9c14d1c9e07c6ed",
    "OS-ELM-L2 seed 2 run_vec: returns e0f172b89beb8c7d q bfa0dec50421ed94 bf9e0f5e550e7b96 ops [1, 319, 128, 1240] snap 2d50a9fb76256275 9fac87be5ee4fe70",
    "OS-ELM-L2 seed 3 run: returns d442ca458f14fe83 q 3f9bc209758aeeee 3f89c1221af03ad8 ops [1, 373, 128, 1606] snap 247e5b3e17d0d4f7 fa3614cd18be4f89",
    "OS-ELM-L2 seed 3 run_vec: returns 9a2b8adc754c9bfe q bf9258c4e52699cb bfa939be923804b2 ops [1, 239, 128, 984] snap 1efc29eabc1290da b60b6d404b51eb50",
    "OS-ELM-Lipschitz seed 1 run: returns 3dc5f4f77bd09ad5 q bfb2ccb92ec0e350 bfb1bedc27686b20 ops [1, 277, 128, 1066] snap ec592c00c776e927 bd5d07722ff23aee",
    "OS-ELM-Lipschitz seed 1 run_vec: returns 9a90dd4d34f10b1c q 3fa4abb90b5eef40 3fc57740abe2d0c0 ops [1, 296, 128, 1096] snap b10323e355f19ffa 5160d484a2c5c539",
    "OS-ELM-Lipschitz seed 2 run: returns 3b54bca34f01ce2f q 3face53aae8d3944 3fca8080eb41cef6 ops [1, 324, 128, 1300] snap 212bc165974a7966 4af9a494633659ab",
    "OS-ELM-Lipschitz seed 2 run_vec: returns 39252d186edb6587 q 3fd1aaa579977e49 3fc02afbd1520be0 ops [1, 272, 128, 1024] snap 1721b2fe35730248 66ef46282e8aa7d0",
    "OS-ELM-Lipschitz seed 3 run: returns 4c8e5f43cd20edef q bfc015c6a4fd0b03 3f8d87151aa0cc18 ops [1, 756, 128, 3158] snap 2d73b4ce1f8bf250 a49f0efa0ac14662",
    "OS-ELM-Lipschitz seed 3 run_vec: returns 5d82a5f5634b095f q bfb7d5f18278a560 bfb8b7e573922000 ops [1, 322, 128, 1416] snap a5d953a300b446c1 295779d561ff43f5",
    "OS-ELM-L2-Lipschitz seed 1 run: returns b9d166e5af950658 q bfb505a409cb4028 bfb7477dcf8a0c7f ops [1, 225, 128, 894] snap 5aada441ae36a4e5 21cc00ebd5f67ec8",
    "OS-ELM-L2-Lipschitz seed 1 run_vec: returns 89f03b820b875cba q bfa1d16cc0a92446 bf9030bb4e993a2c ops [1, 400, 128, 1496] snap 2cdba9ac63b32504 5d0badcae05d8a1b",
    "OS-ELM-L2-Lipschitz seed 2 run: returns 1d15a811f01002ca q bfb340792c66c3a9 bfa517261490dc9a ops [1, 259, 128, 1052] snap 46b588d45fdca850 d16dec4f5c22c8fa",
    "OS-ELM-L2-Lipschitz seed 2 run_vec: returns d8b2b0ccd188760b q bfb1a3bfd4fe1fa0 bfa944eb25b03822 ops [1, 272, 128, 1024] snap d3ddcc0c3c70337e 6a8852303ff43449",
    "OS-ELM-L2-Lipschitz seed 3 run: returns 01c7ddce427b6de7 q 3f917d1ee0180774 3f5e5edaf2313da0 ops [1, 226, 128, 984] snap 70c67d8daf1b0bee cc0c516d09d550c0",
    "OS-ELM-L2-Lipschitz seed 3 run_vec: returns 780b1d7ed1866f9f q bfa0281109f06570 bfa3d6831f1bea24 ops [1, 261, 128, 1128] snap 6db771bd1376a29b eed042f33eb16b36",
];

#[test]
fn elm_and_oselm_designs_reproduce_the_pinned_trajectories() {
    let designs = [
        Design::Elm,
        Design::OsElm,
        Design::OsElmL2,
        Design::OsElmLipschitz,
        Design::OsElmL2Lipschitz,
    ];
    let mut lines = Vec::new();
    for design in designs {
        for seed in 1..=3 {
            lines.push(scalar_run(design, seed));
            lines.push(vec_run(design, seed));
        }
    }
    assert_eq!(lines, PINS);
}
