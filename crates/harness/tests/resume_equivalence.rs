//! Resume equivalence — the PR 6 acceptance criterion, end to end.
//!
//! A sweep stopped at episode N (the fault-injection `--stop-after` path,
//! boundary checkpoint on disk) and finished under `--resume` must produce
//! artefact bytes identical to a sweep that never stopped, for N at the
//! first, middle and last episode and for both the scalar (`--train-envs 1`)
//! and vectorized (`--train-envs 4`) drivers; two same-seed stopped sweeps
//! must also leave byte-identical checkpoint files. Likewise the population
//! engine: a `--fail-shard` kill, a manifest-resume after a driver crash,
//! or any shard count must leave `population.json` byte-identical.
//!
//! Artefacts are compared through the same serializer the binaries use
//! (`serde_json::to_string_pretty`, what `report::write_json` writes), with
//! `ELMRL_ZERO_WALL_TIME` set: host wall-clock is the one measured (hence
//! irreproducible) number in fig5.json, and the deterministic-artifact mode
//! exists precisely so the CI `cmp` job can hold the rest to byte identity.

use elmrl_core::designs::Design;
use elmrl_gym::Workload;
use elmrl_harness::runner::CheckpointOptions;
use elmrl_harness::{fig4, fig5, Sweep};
use elmrl_population::{FaultPlan, PopulationConfig, PopulationRunner, ShardManifest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const DESIGNS: [Design; 3] = [Design::OsElmL2Lipschitz, Design::Dqn, Design::Fpga];
const EPISODES: usize = 6;
const TRIALS: usize = 2;
const SEED: u64 = 77;

fn zero_wall_time() {
    // Process-global, but every test in this binary wants it on.
    std::env::set_var("ELMRL_ZERO_WALL_TIME", "1");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elmrl-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The files of checkpoint directory `dir`, by name.
fn checkpoint_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|entry| {
            let path = entry.expect("checkpoint dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read checkpoint"))
        })
        .collect()
}

fn fig5_json(train_envs: usize, ckpt: Option<&CheckpointOptions>) -> Option<String> {
    let sweep = Sweep {
        trials: TRIALS,
        train_envs,
        ..Sweep::new(Workload::CartPole, &[8], EPISODES, SEED)
    };
    fig5::generate(&sweep, &DESIGNS, ckpt)
        .expect("sweep must not error")
        .map(|fig| serde_json::to_string_pretty(&fig).expect("serialize fig5"))
}

#[test]
fn fig5_resume_is_byte_identical_at_first_middle_and_last_episode() {
    zero_wall_time();
    for train_envs in [1, 4] {
        let straight = fig5_json(train_envs, None).expect("straight-through sweep completes");
        for stop_at in [1, EPISODES / 2, EPISODES] {
            let dir = scratch_dir(&format!("fig5-e{train_envs}-n{stop_at}"));
            let twin = scratch_dir(&format!("fig5-e{train_envs}-n{stop_at}-twin"));
            // Phase 1: run to episode `stop_at`, checkpoint, abandon. Run it
            // twice: same-seed runs must write byte-identical checkpoints.
            let phase1 = |dir: &PathBuf| {
                fig5_json(
                    train_envs,
                    Some(&CheckpointOptions {
                        dir: dir.clone(),
                        every: 1,
                        resume: false,
                        stop_after: Some(stop_at),
                    }),
                )
            };
            let first = phase1(&dir);
            assert_eq!(phase1(&twin), first);
            let (files, twin_files) = (checkpoint_files(&dir), checkpoint_files(&twin));
            assert!(
                !files.is_empty(),
                "e{train_envs}/n{stop_at}: no checkpoints"
            );
            assert_eq!(
                files.keys().collect::<Vec<_>>(),
                twin_files.keys().collect::<Vec<_>>()
            );
            for (name, bytes) in &files {
                assert!(
                    twin_files[name] == *bytes,
                    "e{train_envs}/n{stop_at}: {name} differs between same-seed runs"
                );
            }
            let _ = std::fs::remove_dir_all(&twin);
            if stop_at < EPISODES {
                assert!(
                    first.is_none(),
                    "e{train_envs}/n{stop_at}: a stopped sweep must not emit an artefact"
                );
            } else {
                // Stopping at the last episode is a completed run.
                assert_eq!(first.as_deref(), Some(straight.as_str()));
            }
            // Phase 2: resume from the checkpoints and finish.
            let resumed = fig5_json(
                train_envs,
                Some(&CheckpointOptions {
                    dir: dir.clone(),
                    every: 1,
                    resume: true,
                    stop_after: None,
                }),
            )
            .expect("resumed sweep completes");
            assert_eq!(
                resumed, straight,
                "e{train_envs}/n{stop_at}: resumed fig5.json must be byte-identical"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn fig4_resume_reproduces_the_training_curves_byte_for_byte() {
    zero_wall_time();
    let sweep = Sweep::new(Workload::CartPole, &[8], 4, SEED);
    let straight = fig4::generate(&sweep, None).unwrap().unwrap();
    let straight = serde_json::to_string_pretty(&straight).unwrap();
    let dir = scratch_dir("fig4");
    let stopped = fig4::generate(
        &sweep,
        Some(&CheckpointOptions {
            dir: dir.clone(),
            every: 2,
            resume: false,
            stop_after: Some(2),
        }),
    )
    .unwrap();
    assert!(stopped.is_none());
    let resumed = fig4::generate(
        &sweep,
        Some(&CheckpointOptions {
            dir: dir.clone(),
            every: 2,
            resume: true,
            stop_after: None,
        }),
    )
    .unwrap()
    .expect("resumed fig4 completes");
    assert_eq!(serde_json::to_string_pretty(&resumed).unwrap(), straight);
    let _ = std::fs::remove_dir_all(&dir);
}

fn tiny_population(shards: usize, train_envs: usize) -> PopulationConfig {
    let mut config = PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 6);
    config.shards = shards;
    config.seed = 11;
    config.max_episodes = 4;
    config.eval_episodes = 2;
    config.train_envs = train_envs;
    config
}

#[test]
fn population_json_survives_shard_failure_at_any_shard_count() {
    zero_wall_time();
    for train_envs in [1, 4] {
        let baseline = PopulationRunner::new(tiny_population(2, train_envs)).run();
        let baseline = serde_json::to_string_pretty(&baseline).unwrap();
        for shards in [2, 3] {
            let faulted = PopulationRunner::new(tiny_population(shards, train_envs))
                .run_checkpointed(
                    Some(FaultPlan {
                        shard: shards - 1,
                        at_episode: 2,
                    }),
                    &[],
                );
            assert_eq!(
                serde_json::to_string_pretty(&faulted.report).unwrap(),
                baseline,
                "shards={shards}, train_envs={train_envs}: population.json must \
                 be byte-identical under shard failure"
            );
        }
    }
}

#[test]
fn population_manifest_resume_round_trips_through_disk() {
    zero_wall_time();
    let baseline = PopulationRunner::new(tiny_population(3, 1)).run();
    let baseline = serde_json::to_string_pretty(&baseline).unwrap();

    // Crash scenario: shard 1 dies immediately, and the driver dies before
    // the requeue wave — only the wave-1 survivors' manifests reach disk.
    let crashed = PopulationRunner::new(tiny_population(3, 1)).run_checkpointed(
        Some(FaultPlan {
            shard: 1,
            at_episode: 0,
        }),
        &[],
    );
    let dir = scratch_dir("population-manifests");
    std::fs::create_dir_all(&dir).unwrap();
    for manifest in &crashed.manifests {
        // Drop the requeued outcomes to simulate the driver dying before
        // wave 2 finished: keep only replicas each shard originally owned.
        let mut partial = manifest.clone();
        partial
            .completed
            .retain(|o| manifest.assigned.contains(&o.replica));
        partial.save(&dir).unwrap();
    }

    let resumed_from = ShardManifest::load_dir(&dir).unwrap();
    assert_eq!(resumed_from.len(), 3);
    let resumed =
        PopulationRunner::new(tiny_population(3, 1)).run_checkpointed(None, &resumed_from);
    assert_eq!(
        serde_json::to_string_pretty(&resumed.report).unwrap(),
        baseline,
        "a manifest-resumed population run must reproduce population.json exactly"
    );
    // The re-written manifests cover the whole population with no shard
    // marked failed.
    let replicas: usize = resumed.manifests.iter().map(|m| m.completed.len()).sum();
    assert_eq!(replicas, 6);
    assert!(resumed.manifests.iter().all(|m| !m.failed));
    let _ = std::fs::remove_dir_all(&dir);
}
