//! A transition with a non-finite value reaching the FPGA agent in its
//! update phase is dropped before it is quantised to Q20 (where NaN would
//! become 0 and ±∞ the rails) and counted by
//! `core.observe.dropped_nonfinite`. In the store phase it is dropped alone
//! and counted the same way: the Ñ finite transitions around it still load
//! the Q20 core.
//!
//! One test: it raises the process-wide telemetry flag to read the global
//! counter, so a second test in this binary could observe its window.

use elmrl_core::agent::{Agent, Observation, DROPPED_NONFINITE};
use elmrl_core::{BatchAgent, OpKind};
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const HIDDEN: usize = 16;

fn transition(i: usize) -> Observation {
    Observation {
        state: vec![0.01 * i as f64, -0.02, 0.03, 0.01 * (i % 5) as f64],
        action: i % 2,
        reward: if i % 7 == 0 { -1.0 } else { 0.0 },
        next_state: vec![0.01 * i as f64 + 0.005, -0.01, 0.02, 0.01],
        done: i % 7 == 0,
        truncated: false,
    }
}

fn nan_reward(i: usize) -> Observation {
    Observation {
        reward: f64::NAN,
        ..transition(i)
    }
}

/// An agent with its Q20 core loaded and the update gate always open.
fn loaded_agent() -> (FpgaAgent, SmallRng) {
    let mut config = FpgaAgentConfig::for_workload(&Workload::CartPole.spec(), HIDDEN);
    config.update_prob = 1.0;
    let mut rng = SmallRng::seed_from_u64(17);
    let mut agent = FpgaAgent::new(config, &mut rng);
    for i in 0..HIDDEN {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.datapath().core_loaded());
    (agent, rng)
}

/// Q-values of the loaded core on a few probe states.
fn probe(agent: &mut FpgaAgent) -> Vec<f64> {
    (0..4)
        .flat_map(|i| agent.q_values(&transition(50 + i).state))
        .collect()
}

#[test]
fn nan_reward_is_dropped_and_counted_at_any_batch_width() {
    elmrl_telemetry::set_enabled(true);
    let dropped = elmrl_telemetry::counter(DROPPED_NONFINITE);

    // E = 1: the core keeps every Q20 word.
    let (mut agent, mut rng) = loaded_agent();
    let q = probe(&mut agent);
    let before = dropped.value();
    agent.observe(&nan_reward(30), &mut rng);
    let dropped_scalar = dropped.value() - before;
    assert_eq!(probe(&mut agent), q);
    assert_eq!(agent.op_counts().count(OpKind::SeqTrain), 0);

    // E > 1: the batch trains exactly like the batch without the NaN row.
    let batch = [transition(31), nan_reward(32), transition(33)];
    let (mut poisoned_agent, mut rng_a) = loaded_agent();
    let (mut clean_agent, mut rng_b) = loaded_agent();
    let before = dropped.value();
    poisoned_agent.observe_batch(&batch, &mut rng_a);
    let dropped_batch = dropped.value() - before;
    clean_agent.observe_batch(&[transition(31), transition(33)], &mut rng_b);

    // Store phase: a NaN reward amid the refill of D is dropped alone.
    let config = FpgaAgentConfig::for_workload(&Workload::CartPole.spec(), HIDDEN);
    let mut store_rng = SmallRng::seed_from_u64(17);
    let mut stored = FpgaAgent::new(config.clone(), &mut store_rng);
    let before = dropped.value();
    for i in 0..HIDDEN {
        if i == 5 {
            stored.observe(&nan_reward(40), &mut store_rng);
        }
        stored.observe(&transition(i), &mut store_rng);
    }
    let dropped_store = dropped.value() - before;
    elmrl_telemetry::set_enabled(false);

    assert_eq!(dropped_scalar, 1);
    assert_eq!(dropped_batch, 1);
    let trained = probe(&mut clean_agent);
    assert_ne!(trained, q, "the clean rows train");
    assert_eq!(probe(&mut poisoned_agent), trained);
    assert_eq!(poisoned_agent.op_counts().count(OpKind::SeqTrain), 2);

    assert_eq!(dropped_store, 1);
    assert!(
        stored.datapath().core_loaded(),
        "the finite refill loads the core"
    );
    let mut store_rng = SmallRng::seed_from_u64(17);
    let mut refilled = FpgaAgent::new(config, &mut store_rng);
    for i in 0..HIDDEN {
        refilled.observe(&transition(i), &mut store_rng);
    }
    assert_eq!(probe(&mut stored), probe(&mut refilled));
}
