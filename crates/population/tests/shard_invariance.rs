//! Deterministic population smoke test: the same master seed must produce a
//! **byte-identical** aggregate JSON report regardless of the shard count
//! *and* of the thread-pool size — the properties the `--shards` and
//! `--threads` flags advertise and CI smokes. Scheduling must never leak
//! into results.

use elmrl_core::designs::Design;
use elmrl_gym::Workload;
use elmrl_population::{PopulationConfig, PopulationRunner};

fn small_config(workload: Workload, design: Design, shards: usize) -> PopulationConfig {
    let mut config = PopulationConfig::new(workload, design, 8, 5);
    config.shards = shards;
    config.seed = 2026;
    config.max_episodes = 3;
    config.eval_episodes = 2;
    config
}

fn report_json(config: PopulationConfig) -> String {
    serde_json::to_string_pretty(&PopulationRunner::new(config).run())
        .expect("population report serializes")
}

#[test]
fn same_seed_any_shards_same_json() {
    for (workload, design) in [
        (Workload::CartPole, Design::OsElmL2Lipschitz),
        (Workload::MountainCar, Design::Dqn),
        (Workload::Acrobot, Design::OsElm),
    ] {
        let single = report_json(small_config(workload, design, 1));
        for shards in [2, 4, 5, 7] {
            assert_eq!(
                single,
                report_json(small_config(workload, design, shards)),
                "{workload:?}/{design:?} diverged at {shards} shards"
            );
        }
        // Sanity: the JSON is a real report, not an empty object.
        assert!(single.contains("\"replicas\""));
        assert!(single.contains("\"solve_rate\""));
    }
}

#[test]
fn thread_count_never_changes_the_bytes() {
    // Fixed shards, varying pool size: `--threads 1` (true sequential path)
    // vs `--threads 2` and `--threads 4` (genuinely concurrent shards) must
    // serialize to the exact same bytes. Per-replica RNG streams are split
    // from the master seed by global replica index and shard results are
    // stitched in shard order, so only scheduling — never arithmetic —
    // changes with threads. The second population is the larger one: K = 32
    // replicas at the paper's Ñ = 64 over 4 shards, 8 episodes each.
    let mut paper_sized =
        PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 64, 32);
    paper_sized.shards = 4;
    paper_sized.seed = 2026;
    paper_sized.max_episodes = 8;
    paper_sized.eval_episodes = 4;
    let small = small_config(Workload::CartPole, Design::OsElmL2Lipschitz, 4);
    for config in [small, paper_sized] {
        rayon::set_num_threads(1);
        let sequential = report_json(config.clone());
        for threads in [2, 4] {
            rayon::set_num_threads(threads);
            let threaded = report_json(config.clone());
            rayon::set_num_threads(1);
            assert_eq!(
                sequential, threaded,
                "thread pool size leaked into the population report at {threads} threads"
            );
        }
        assert!(sequential.contains("\"replicas\""));
    }
}

#[test]
fn different_seeds_change_the_run() {
    let mut a = PopulationConfig::new(Workload::CartPole, Design::OsElmL2Lipschitz, 8, 3);
    a.max_episodes = 3;
    let mut b = a.clone();
    b.seed = a.seed + 1;
    let ra = PopulationRunner::new(a).run();
    let rb = PopulationRunner::new(b).run();
    assert_ne!(
        ra.replicas
            .iter()
            .map(|r| r.total_steps)
            .collect::<Vec<_>>(),
        rb.replicas
            .iter()
            .map(|r| r.total_steps)
            .collect::<Vec<_>>(),
        "a different master seed must perturb the trajectories"
    );
}
