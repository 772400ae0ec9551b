//! Snapshot round-trip property: for every software design, an agent
//! restored from `restore(save(x))` — with the snapshot dragged through its
//! JSON wire format — drives an act/observe trajectory identical to the
//! original for 64 steps, starting from any warmed-up state.
//!
//! This is the agent-level half of the PR 6 checkpointing contract (the
//! trainer-level half — full runs resumed bit-for-bit — lives in
//! `trainer::tests`; the fixed-point `FpgaAgent` variant lives in
//! `elmrl-fpga`). The trajectory comparison is strict equality on actions
//! and rewards: one diverging ε-draw, replay sample or Q-value flips it.
//!
//! The file also holds the restore checks: a snapshot that does not fit the
//! agent, or holds a non-finite learnable word, is an error that leaves the
//! agent unchanged; a snapshot with one digit turned into an exponent errs or
//! keeps its Q values finite; and a run checkpoint cut short or with one byte
//! edited resumes or errs but never panics.

use elmrl_core::agent::{Agent, Observation};
use elmrl_core::checkpoint::{rng_from_words, rng_state_words, AgentSnapshot};
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::trainer::CheckpointCtl;
use elmrl_core::{RunCheckpoint, Trainer, TrainerConfig};
use elmrl_gym::{Environment, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const WARMUP_STEPS: usize = 40;
const COMPARE_STEPS: usize = 64;

/// Drive `steps` act/observe steps (episodes reset inline), returning the
/// `(action, reward)` trace.
fn drive(
    agent: &mut dyn Agent,
    env: &mut dyn Environment,
    rng: &mut SmallRng,
    steps: usize,
    episode: &mut usize,
) -> Vec<(usize, f64)> {
    let mut trace = Vec::with_capacity(steps);
    let mut state = env.reset(rng);
    for _ in 0..steps {
        let action = agent.act(&state, rng);
        let outcome = env.step(action, rng);
        agent.observe(
            &Observation {
                state: state.clone(),
                action,
                reward: outcome.reward,
                next_state: outcome.observation.clone(),
                done: outcome.done,
                truncated: outcome.truncated,
            },
            rng,
        );
        trace.push((action, outcome.reward));
        if outcome.done || outcome.truncated {
            agent.end_episode(*episode);
            *episode += 1;
            state = env.reset(rng);
        } else {
            state = outcome.observation;
        }
    }
    trace
}

/// Warm an agent up, snapshot it through JSON, restore into a *differently
/// constructed* agent, and check both replay the same 64 steps.
fn assert_round_trip_trajectory(design: Design, seed: u64) {
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut agent = design.build_batch(&config, &mut rng);
    let mut env = spec.make_env();
    let mut episode = 0;
    drive(
        agent.as_mut(),
        env.as_mut(),
        &mut rng,
        WARMUP_STEPS,
        &mut episode,
    );

    // Snapshot the agent and the RNG cursor, through the JSON wire format.
    let snapshot = agent
        .snapshot()
        .unwrap_or_else(|| panic!("{design:?} must support snapshotting"));
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    let parsed: AgentSnapshot = serde_json::from_str(&json).expect("parse snapshot");
    let rng_words = rng_state_words(&rng);

    // A twin built from a different construction seed: every weight the
    // restore does not overwrite would diverge the comparison below.
    let mut twin_rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
    let mut twin = design.build_batch(&config, &mut twin_rng);
    twin.restore(&parsed).expect("restore snapshot");
    let mut twin_stream = rng_from_words(&rng_words).expect("restore rng");

    // Fresh environments + identical RNG cursors ⇒ identical trajectories.
    let mut env_a = spec.make_env();
    let mut env_b = spec.make_env();
    let mut episode_a = episode;
    let mut episode_b = episode;
    let trace_a = drive(
        agent.as_mut(),
        env_a.as_mut(),
        &mut rng,
        COMPARE_STEPS,
        &mut episode_a,
    );
    let trace_b = drive(
        twin.as_mut(),
        env_b.as_mut(),
        &mut twin_stream,
        COMPARE_STEPS,
        &mut episode_b,
    );
    assert_eq!(
        trace_a, trace_b,
        "{design:?} seed {seed}: restored agent diverged within 64 steps"
    );
    assert_eq!(episode_a, episode_b, "{design:?} seed {seed}");
}

#[test]
fn every_software_design_replays_identically_after_a_json_round_trip() {
    for design in Design::software_designs() {
        for seed in [3, 7, 31] {
            assert_round_trip_trajectory(design, seed);
        }
    }
}

#[test]
fn dqn_snapshot_carries_the_replay_buffer_and_optimizer_state() {
    // The DQN trajectory test above would already fail if replay sampling
    // diverged; this pins the schema. The snapshot state must contain the
    // replay history and Adam moments explicitly — a restored run samples
    // mini-batches from the same buffer the original would have.
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut agent = Design::Dqn.build_batch(&config, &mut rng);
    let mut env = spec.make_env();
    let mut episode = 0;
    drive(agent.as_mut(), env.as_mut(), &mut rng, 50, &mut episode);
    let snapshot = agent.snapshot().expect("DQN snapshots");
    let json = serde_json::to_string(&snapshot).unwrap();
    for field in ["replay", "optimizer", "online", "target", "ops"] {
        assert!(json.contains(field), "DQN snapshot must carry `{field}`");
    }
}

#[test]
fn rng_cursor_words_restore_mid_trajectory() {
    // The RNG stream cursor is part of the snapshotted state: words taken
    // mid-trajectory must reproduce the exact draw sequence.
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..17 {
        let _: u64 = rng.gen();
    }
    let words = rng_state_words(&rng);
    let mut restored = rng_from_words(&words).unwrap();
    for _ in 0..64 {
        assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
    }
}

#[test]
fn restore_rejects_a_snapshot_of_another_design() {
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut dqn = Design::Dqn.build_batch(&config, &mut rng);
    let mut oselm = Design::OsElmL2Lipschitz.build_batch(&config, &mut rng);
    let mut env = spec.make_env();
    let mut episode = 0;
    drive(dqn.as_mut(), env.as_mut(), &mut rng, 10, &mut episode);
    let snapshot = dqn.snapshot().expect("DQN snapshots");
    let err = oselm.restore(&snapshot).unwrap_err();
    assert!(
        err.contains("DQN") || err.contains("design"),
        "mismatched-design restore must fail descriptively, got: {err}"
    );
}

#[test]
fn dqn_restores_a_transition_list_snapshot_and_continues_identically() {
    // `data/dqn_snapshot_transition_list.json` was written by the DQN agent
    // when its replay buffer stored one `Transition` per entry: seed 5,
    // Ñ = 8, 80 steps. The flat replay ring must read that shape, write it
    // back byte for byte (less the op counters' `nanos` map), and continue
    // the run exactly as the writer did: the expected trace, episode count
    // and Q bits below are that run's.
    const SNAPSHOT: &str = include_str!("data/dqn_snapshot_transition_list.json");
    const RNG_WORDS: [u64; 4] = [
        7833198728532271837,
        13586143289777258052,
        7663943998084283611,
        3742194838102664479,
    ];
    const ACTIONS: [usize; COMPARE_STEPS] = [
        0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1,
        0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0,
    ];
    const FINAL_Q_BITS: [u64; 2] = [0x400fbccffa3a8827, 0x400ab38ee50dac83];

    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut agent = Design::Dqn.build_batch(&config, &mut rng);
    let parsed: AgentSnapshot = serde_json::from_str(SNAPSHOT).expect("parse snapshot");
    agent.restore(&parsed).expect("restore snapshot");
    let rewritten = serde_json::to_string(&agent.snapshot().expect("DQN snapshots")).unwrap();
    // Counts-only `OpCounts` ignores the fixture's host-time `nanos` map on
    // restore and no longer writes it.
    let nanos = SNAPSHOT
        .find(",\"nanos\":{")
        .expect("fixture carries nanos");
    let end = nanos + SNAPSHOT[nanos..].find('}').expect("nanos map closes") + 1;
    let expected = format!("{}{}", &SNAPSHOT[..nanos], SNAPSHOT[end..].trim_end());
    assert!(
        rewritten == expected,
        "a restored snapshot must serialise back to the same JSON, minus `nanos`"
    );

    let mut rng = rng_from_words(&RNG_WORDS).expect("restore rng");
    let mut env = spec.make_env();
    let mut episode = 8;
    let trace = drive(
        agent.as_mut(),
        env.as_mut(),
        &mut rng,
        COMPARE_STEPS,
        &mut episode,
    );
    let actions: Vec<usize> = trace.iter().map(|&(a, _)| a).collect();
    assert_eq!(actions, ACTIONS);
    assert!(trace.iter().all(|&(_, r)| r == 1.0));
    assert_eq!(episode, 14);
    let q_bits: Vec<u64> = agent
        .q_values(&[0.02, -0.15, 0.03, 0.2])
        .iter()
        .map(|q| q.to_bits())
        .collect();
    assert_eq!(q_bits, FINAL_Q_BITS);
}

#[test]
fn dqn_restore_rejects_replay_rows_that_do_not_fit_the_agent() {
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut agent = Design::Dqn.build_batch(&config, &mut rng);
    let snapshot = include_str!("data/dqn_snapshot_transition_list.json");
    let start = snapshot
        .find("\"buffer\":[{\"state\":[")
        .expect("replay buffer");
    let end = start + snapshot[start..].find(']').unwrap();
    // The first stored transition loses its last state component…
    let cut = snapshot[..end].rfind(',').unwrap();
    let narrow = format!("{}{}", &snapshot[..cut], &snapshot[end..]);
    // …or names an action the agent does not have.
    let bad_action = snapshot.replacen("],\"action\":1,", "],\"action\":2,", 1);
    assert_ne!(bad_action, snapshot);
    for broken in [narrow, bad_action] {
        let parsed: AgentSnapshot = serde_json::from_str(&broken).expect("still valid JSON");
        let err = agent.restore(&parsed).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
    }
}

/// `json` with the last component of the first buffered transition's state
/// removed: a CartPole state cut from 4 components to 3.
fn cut_first_buffered_state(json: &str) -> String {
    let start = json
        .find("\"buffer\":[{\"state\":[")
        .expect("a buffered transition");
    let end = start + json[start..].find(']').expect("the state closes");
    let cut = json[..end].rfind(',').expect("more than one component");
    format!("{}{}", &json[..cut], &json[end..])
}

#[test]
fn restore_rejects_a_buffered_state_cut_short_and_leaves_the_agent_unchanged() {
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    for design in Design::software_designs() {
        // Five steps: fewer than Ñ = 8, so buffer D (or the replay) holds
        // them all.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut agent = design.build_batch(&config, &mut rng);
        let mut env = spec.make_env();
        drive(agent.as_mut(), env.as_mut(), &mut rng, 5, &mut 0);
        let json = serde_json::to_string(&agent.snapshot().expect("snapshots")).unwrap();
        let broken: AgentSnapshot =
            serde_json::from_str(&cut_first_buffered_state(&json)).expect("still valid JSON");
        let err = agent.restore(&broken).unwrap_err();
        assert!(
            err.contains("does not fit state_dim 4"),
            "{design:?}: {err}"
        );
        let after = serde_json::to_string(&agent.snapshot().expect("snapshots")).unwrap();
        assert_eq!(
            after, json,
            "{design:?}: a failed restore leaves the agent unchanged"
        );
    }
}

/// `json` with the first number of the first numeric array at or after
/// `"key":[` written as `1e999`, which the JSON reader parses to +∞. For a
/// flat array that is its own first word; for DQN's layers, the first word
/// of the first matrix's `data`.
fn overflow_first_word(json: &str, key: &str) -> String {
    let at = json.find(&format!("\"{key}\":[")).expect("the array");
    let numeric = |w: &[u8]| w[0] == b'[' && (w[1] == b'-' || w[1].is_ascii_digit());
    let bytes = &json.as_bytes()[at..];
    let start = at + bytes.windows(2).position(numeric).expect("a number") + 1;
    let len = json[start..].find([',', ']']).expect("a first word");
    format!("{}1e999{}", &json[..start], &json[start + len..])
}

#[test]
fn restore_rejects_a_non_finite_learnable_word_and_leaves_the_agent_unchanged() {
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let designs = [
        Design::Elm,
        Design::OsElm,
        Design::OsElmL2,
        Design::OsElmLipschitz,
        Design::OsElmL2Lipschitz,
        Design::Dqn,
    ];
    for design in designs {
        // Forty steps: past Ñ = 8, so θ₁ is trained and P exists. DQN takes
        // eighty, past its 64-transition warm-up, so Adam holds moments.
        let steps = if design == Design::Dqn { 80 } else { 40 };
        let mut rng = SmallRng::seed_from_u64(12);
        let mut agent = design.build_batch(&config, &mut rng);
        let mut env = spec.make_env();
        drive(agent.as_mut(), env.as_mut(), &mut rng, steps, &mut 0);
        let json = serde_json::to_string(&agent.snapshot().expect("snapshots")).unwrap();
        let keys: &[&str] = match design {
            Design::Elm => &["alpha", "bias", "beta"],
            Design::Dqn => &["online", "target", "optimizer"],
            _ => &["alpha", "bias", "beta", "p"],
        };
        for key in keys {
            let broken: AgentSnapshot =
                serde_json::from_str(&overflow_first_word(&json, key)).expect("valid JSON");
            let err = agent.restore(&broken).unwrap_err();
            assert!(err.contains("non-finite"), "{design:?} {key}: {err}");
            let after = serde_json::to_string(&agent.snapshot().expect("snapshots")).unwrap();
            assert_eq!(after, json, "{design:?} {key}: the agent is unchanged");
        }
    }
}

#[test]
fn a_restore_with_one_digit_turned_into_an_exponent_errs_or_reads_finite_q_values() {
    // Turning one digit into `e` leaves most words finite but can make one
    // huge (`0.2613028314187e223`). Every such restore must fail, or leave
    // the first Q read finite after the step that runs the first RLS update
    // (for OS-ELM, `h·P·hᵀ` of the restored words).
    let spec = Workload::CartPole.spec();
    let config = DesignConfig::for_workload(&spec, 8);
    let mut failures = Vec::new();
    for design in Design::software_designs()
        .into_iter()
        .filter(|&d| d != Design::Dqn)
    {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut agent = design.build_batch(&config, &mut rng);
        let mut env = spec.make_env();
        drive(agent.as_mut(), env.as_mut(), &mut rng, 40, &mut 0);
        let json = serde_json::to_string(&agent.snapshot().expect("snapshots")).unwrap();
        for (i, b) in json.bytes().enumerate() {
            if !b.is_ascii_digit() {
                continue;
            }
            let edited = format!("{}e{}", &json[..i], &json[i + 1..]);
            let Ok(snapshot) = serde_json::from_str::<AgentSnapshot>(&edited) else {
                continue;
            };
            let mut rng = SmallRng::seed_from_u64(1);
            let mut restored = design.build_batch(&config, &mut rng);
            if restored.restore(&snapshot).is_err() {
                continue;
            }
            let mut env = spec.make_env();
            drive(restored.as_mut(), env.as_mut(), &mut rng, 1, &mut 0);
            let state = env.reset(&mut rng);
            if !restored.q_values(&state).iter().all(|q| q.is_finite()) {
                failures.push(format!("{design:?}: byte {i} {:?} -> 'e'", b as char));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "non-finite Q after a restore: {failures:?}"
    );
}

#[test]
fn restore_rejects_a_snapshot_of_another_hidden_width_and_leaves_the_agent_unchanged() {
    let spec = Workload::CartPole.spec();
    for design in Design::software_designs() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut narrow = design.build_batch(&DesignConfig::for_workload(&spec, 8), &mut rng);
        let mut wide = design.build_batch(&DesignConfig::for_workload(&spec, 16), &mut rng);
        let mut env = spec.make_env();
        drive(narrow.as_mut(), env.as_mut(), &mut rng, 80, &mut 0);
        let before = serde_json::to_string(&wide.snapshot().expect("snapshots")).unwrap();
        let err = wide
            .restore(&narrow.snapshot().expect("snapshots"))
            .unwrap_err();
        assert!(
            err.contains("16"),
            "{design:?} names the agent's width: {err}"
        );
        let after = serde_json::to_string(&wide.snapshot().expect("snapshots")).unwrap();
        assert_eq!(after, before, "{design:?}: the agent is unchanged");
    }
}

/// Episodes of the run whose last checkpoint the corpus below corrupts:
/// past Ñ = 8 CartPole steps, so the ELM designs have trained. DQN is still
/// in its warm-up, which keeps its replay, the bulk of its checkpoint, short.
const CORPUS_EPISODES: usize = 5;

/// The JSON of `design`'s run checkpoint after [`CORPUS_EPISODES`]
/// episodes (CartPole, Ñ = 8).
fn corpus_checkpoint(design: Design) -> String {
    let spec = Workload::CartPole.spec();
    let mut config = TrainerConfig::for_design(&spec, design);
    config.max_episodes = CORPUS_EPISODES;
    let mut rng = SmallRng::seed_from_u64(17);
    let mut agent = design.build_batch(&DesignConfig::for_workload(&spec, 8), &mut rng);
    let mut env = spec.make_env();
    let mut last = None;
    let mut sink = |c: RunCheckpoint| last = Some(c);
    let mut ctl = CheckpointCtl::saving(CORPUS_EPISODES, &mut sink);
    Trainer::new(config)
        .run_checkpointed(agent.as_mut(), env.as_mut(), &mut rng, &mut ctl)
        .expect("the run completes");
    last.expect("a checkpoint").to_json().unwrap()
}

/// Resume `json` through [`Trainer::run_checkpointed`] into a fresh agent
/// and play one more episode.
fn resume_corrupted(design: Design, json: &str) -> Result<(), String> {
    let ckpt = RunCheckpoint::from_json(json)?;
    let spec = Workload::CartPole.spec();
    let mut config = TrainerConfig::for_design(&spec, design);
    config.max_episodes = CORPUS_EPISODES + 1;
    let mut rng = SmallRng::seed_from_u64(0);
    let mut agent = design.build_batch(&DesignConfig::for_workload(&spec, 8), &mut rng);
    let mut env = spec.make_env();
    let mut sink = |_c: RunCheckpoint| {};
    let mut ctl = CheckpointCtl::resuming(&ckpt, 0, &mut sink);
    Trainer::new(config)
        .run_checkpointed(agent.as_mut(), env.as_mut(), &mut rng, &mut ctl)
        .map(drop)
}

/// Byte stride of the cuts, deletions and digit edits the corpus below
/// makes across a whole checkpoint.
const CORPUS_STRIDE: usize = 97;

/// Bytes from the start of the online network's state in which every digit
/// is also turned into `e`: a mantissa digit edited so can leave a weight
/// finite but huge (`0.2613028314187e223`), and the next Q read NaN.
const CORPUS_FOCUS: usize = 500;

#[test]
fn a_corrupted_run_checkpoint_resumes_or_errs_but_never_panics() {
    let mut panicked = Vec::new();
    for design in [Design::Elm, Design::OsElmL2, Design::Dqn] {
        let json = corpus_checkpoint(design);
        assert!(json.is_ascii(), "byte edits keep an ASCII checkpoint UTF-8");
        let online = json.find("\"online\"").expect("the online network");
        let focus = online..online + CORPUS_FOCUS;
        let mut check = |what: String, text: String| {
            if std::panic::catch_unwind(|| resume_corrupted(design, &text)).is_err() {
                panicked.push(format!("{design:?}: {what}"));
            }
        };
        for (i, b) in json.bytes().enumerate() {
            let strided = i % CORPUS_STRIDE == 0;
            let (head, tail) = (&json[..i], &json[i + 1..]);
            if strided {
                check(format!("cut at {i}"), head.to_owned());
                check(format!("byte {i} deleted"), format!("{head}{tail}"));
            }
            if !b.is_ascii_digit() {
                continue;
            }
            let edits: &[char] = match (strided, focus.contains(&i)) {
                (true, _) => &['e', '-', '"', ']'],
                (false, true) => &['e'],
                (false, false) => &[],
            };
            for to in edits {
                let what = format!("byte {i} {:?} -> {to:?}", b as char);
                check(what, format!("{head}{to}{tail}"));
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} corrupted checkpoints panicked: {panicked:?}",
        panicked.len()
    );
}
