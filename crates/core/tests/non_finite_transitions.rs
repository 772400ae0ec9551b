//! A transition with a NaN or infinite value reaching the OS-ELM agent in
//! its update phase is dropped before the RLS update and counted by
//! `core.observe.dropped_nonfinite`; `P` and `β` never see it. In the store
//! phase of the OS-ELM and ELM agents it is dropped alone and counted the
//! same way: the Ñ finite transitions around it still train the agent.
//!
//! One test: it raises the process-wide telemetry flag to read the global
//! counter, so a second test in this binary could observe its window.

use elmrl_core::agent::{Agent, Observation, DROPPED_NONFINITE};
use elmrl_core::elm_qnet::ElmQNetConfig;
use elmrl_core::{BatchAgent, ElmQNet, OpKind, OsElmQNet, OsElmQNetConfig};
use elmrl_gym::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const HIDDEN: usize = 8;

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

/// A NaN state, a NaN reward, or an infinite next observation.
fn poisoned(kind: usize) -> Observation {
    let mut obs = transition(40 + kind);
    match kind {
        0 => obs.state[1] = f64::NAN,
        1 => obs.reward = f64::NAN,
        _ => obs.next_state[3] = f64::INFINITY,
    }
    obs
}

/// Ñ finite transitions with a NaN-state one after the third.
fn poisoned_refill() -> Vec<Observation> {
    let mut refill: Vec<Observation> = (0..HIDDEN).map(transition).collect();
    refill.insert(3, poisoned(0));
    refill
}

/// Q-values on a few probe states.
fn probe(agent: &mut dyn Agent) -> Vec<f64> {
    (0..4)
        .flat_map(|i| agent.q_values(&transition(50 + i).state))
        .collect()
}

/// An agent past initial training whose update gate is always open, so
/// the update phase draws no random numbers.
fn initialised_agent() -> (OsElmQNet, SmallRng) {
    let mut config = OsElmQNetConfig::for_workload(&Workload::CartPole.spec(), HIDDEN, 0.5, true);
    config.random_update = false;
    let mut rng = SmallRng::seed_from_u64(5);
    let mut agent = OsElmQNet::new(config, &mut rng);
    for i in 0..HIDDEN {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.is_initialized());
    (agent, rng)
}

#[test]
fn non_finite_transitions_are_dropped_and_counted_at_any_batch_width() {
    elmrl_telemetry::set_enabled(true);
    let dropped = elmrl_telemetry::counter(DROPPED_NONFINITE);

    // E = 1: each poisoned transition is dropped; P and β keep every bit.
    let (mut agent, mut rng) = initialised_agent();
    let p = agent.online().p_matrix().unwrap().clone();
    let beta = agent.online().model().beta().clone();
    let before = dropped.value();
    for kind in 0..3 {
        agent.observe(&poisoned(kind), &mut rng);
    }
    let dropped_scalar = dropped.value() - before;
    assert_eq!(agent.online().p_matrix().unwrap(), &p);
    assert_eq!(agent.online().model().beta(), &beta);
    assert_eq!(agent.op_counts().count(OpKind::SeqTrain), 0);

    // E > 1: a batch with poisoned rows trains exactly like the same batch
    // without them.
    let batch = [
        transition(30),
        poisoned(0),
        transition(31),
        poisoned(1),
        transition(32),
        poisoned(2),
    ];
    let clean_batch: Vec<Observation> = batch.iter().filter(|o| o.is_finite()).cloned().collect();
    let (mut poisoned_agent, mut rng_a) = initialised_agent();
    let (mut clean_agent, mut rng_b) = initialised_agent();
    let before = dropped.value();
    poisoned_agent.observe_batch(&batch, &mut rng_a);
    let dropped_batch = dropped.value() - before;
    clean_agent.observe_batch(&clean_batch, &mut rng_b);

    // Store phase: a poisoned transition amid the refill of D is dropped
    // alone, and the OS-ELM initial training / ELM batch retrain runs on
    // the Ñ finite ones exactly as if it never came.
    let spec = Workload::CartPole.spec();
    let oselm_config = OsElmQNetConfig::for_workload(&spec, HIDDEN, 0.5, true);
    let mut store_rng = SmallRng::seed_from_u64(5);
    let mut stored = OsElmQNet::new(oselm_config.clone(), &mut store_rng);
    let before = dropped.value();
    for obs in &poisoned_refill() {
        stored.observe(obs, &mut store_rng);
    }
    let dropped_store = dropped.value() - before;
    let elm_config = ElmQNetConfig::for_workload(&spec, HIDDEN);
    let mut elm_rng = SmallRng::seed_from_u64(9);
    let mut stored_elm = ElmQNet::new(elm_config.clone(), &mut elm_rng);
    let before = dropped.value();
    for obs in &poisoned_refill() {
        stored_elm.observe(obs, &mut elm_rng);
    }
    let dropped_elm = dropped.value() - before;
    elmrl_telemetry::set_enabled(false);

    assert_eq!(dropped_scalar, 3);
    assert_eq!(dropped_batch, 3);
    assert_eq!(clean_batch.len(), 3);
    assert_ne!(
        clean_agent.online().model().beta(),
        &beta,
        "the clean rows train"
    );
    assert_eq!(
        poisoned_agent.online().p_matrix(),
        clean_agent.online().p_matrix()
    );
    assert_eq!(
        poisoned_agent.online().model().beta(),
        clean_agent.online().model().beta()
    );
    assert_eq!(poisoned_agent.op_counts().count(OpKind::SeqTrain), 3);
    assert!(poisoned_agent
        .online()
        .model()
        .beta()
        .iter()
        .all(|v| v.is_finite()));

    assert_eq!(dropped_store, 1);
    assert!(stored.is_initialized(), "the finite refill trains");
    let mut store_rng = SmallRng::seed_from_u64(5);
    let mut refilled = OsElmQNet::new(oselm_config, &mut store_rng);
    for i in 0..HIDDEN {
        refilled.observe(&transition(i), &mut store_rng);
    }
    assert_eq!(stored.online().p_matrix(), refilled.online().p_matrix());
    assert_eq!(
        stored.online().model().beta(),
        refilled.online().model().beta()
    );

    assert_eq!(dropped_elm, 1);
    assert!(stored_elm.is_trained(), "the finite batch trains");
    let mut elm_rng = SmallRng::seed_from_u64(9);
    let mut refilled_elm = ElmQNet::new(elm_config, &mut elm_rng);
    for i in 0..HIDDEN {
        refilled_elm.observe(&transition(i), &mut elm_rng);
    }
    assert_eq!(probe(&mut stored_elm), probe(&mut refilled_elm));
}
