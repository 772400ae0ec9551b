//! Benchmark E6 (PR 8): the telemetry no-perturbation contract, measured.
//!
//! Two hot paths — the software OS-ELM agent step (`act` + `observe` with
//! the sequential update forced on) and the quantized `FpgaAgent` step — are
//! each timed in three telemetry states:
//!
//! * **off** — the shipped default: every instrumentation site is a relaxed
//!   load plus an untaken branch. The PR's acceptance gate is here: off must
//!   be within 2% of a build that never knew about telemetry, and since the
//!   sites are compiled in, "off" *is* that build's cost.
//! * **metrics** — registry enabled: spans take two timestamps and push into
//!   the sharded histogram/counter slots.
//! * **tracing** — metrics plus a duration event per span into the
//!   preallocated chrome-trace ring.
//!
//! The result — steps/sec per state and the relative overheads, in the
//! shape of the frozen `BENCH_PR8.json` — is printed to stdout as JSON.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elmrl_core::agent::{Agent, Observation};
use elmrl_core::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
use elmrl_gym::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

const HIDDEN: usize = 64;

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

/// The software design's steady-state agent, warmed past initial training.
fn build_software_agent() -> (OsElmQNet, SmallRng) {
    let spec = Workload::CartPole.spec();
    let mut config = OsElmQNetConfig::for_workload(&spec, HIDDEN, 0.5, true);
    config.random_update = false;
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = OsElmQNet::new(config, &mut rng);
    for i in 0..HIDDEN {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.is_initialized());
    let obs = transition(1);
    for _ in 0..16 {
        let a = agent.act(&obs.state, &mut rng);
        std::hint::black_box(a);
        agent.observe(&obs, &mut rng);
    }
    (agent, rng)
}

/// The quantized design's steady-state agent with its Q20 core loaded.
fn build_quantized_agent() -> (FpgaAgent, SmallRng) {
    let spec = Workload::CartPole.spec();
    let mut config = FpgaAgentConfig::for_workload(&spec, HIDDEN);
    config.update_prob = 1.0;
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = FpgaAgent::new(config, &mut rng);
    for i in 0..HIDDEN {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.datapath().core_loaded());
    let obs = transition(1);
    for _ in 0..16 {
        let a = agent.act(&obs.state, &mut rng);
        std::hint::black_box(a);
        agent.observe(&obs, &mut rng);
    }
    (agent, rng)
}

/// Telemetry states the hot paths are measured under. Tracing can only be
/// switched on once per process (the ring is `OnceLock`'d), so the states
/// must be visited in this order.
const STATES: [&str; 3] = ["off", "metrics", "tracing"];

fn apply_state(state: &str) {
    match state {
        "off" => elmrl_telemetry::set_enabled(false),
        "metrics" => elmrl_telemetry::set_enabled(true),
        "tracing" => {
            elmrl_telemetry::enable_tracing(elmrl_telemetry::DEFAULT_TRACE_CAPACITY);
        }
        _ => unreachable!(),
    }
    // Keep the trace ring from saturating (and the drop counter from
    // spinning) across long measurement loops; quantiles and counters are
    // not what this benchmark reads.
    elmrl_telemetry::reset();
}

fn bench_telemetry_states(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for state in STATES {
        apply_state(state);
        group.bench_with_input(BenchmarkId::new("software_step", state), &state, |b, _| {
            let (mut agent, mut rng) = build_software_agent();
            let obs = transition(1);
            b.iter(|| {
                let a = agent.act(&obs.state, &mut rng);
                std::hint::black_box(a);
                agent.observe(&obs, &mut rng);
            })
        });
        group.bench_with_input(BenchmarkId::new("quantized_step", state), &state, |b, _| {
            let (mut agent, mut rng) = build_quantized_agent();
            let obs = transition(1);
            b.iter(|| {
                let a = agent.act(&obs.state, &mut rng);
                std::hint::black_box(a);
                agent.observe(&obs, &mut rng);
            })
        });
        elmrl_telemetry::set_enabled(false);
    }
    group.finish();
}

#[derive(Serialize)]
struct PathEntry {
    path: String,
    off_steps_per_second: f64,
    metrics_steps_per_second: f64,
    tracing_steps_per_second: f64,
    metrics_overhead_percent: f64,
    tracing_overhead_percent: f64,
}

#[derive(Serialize)]
struct BenchTrajectory {
    pr: usize,
    benchmark: String,
    host_available_parallelism: usize,
    pool_threads: usize,
    hidden: usize,
    telemetry_overhead: Vec<PathEntry>,
}

/// Best-of-3 wall time of `reps` invocations of `f`.
fn best_of_3(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Assemble the telemetry-overhead entry and print it to stdout as JSON.
fn print_trajectory(_c: &mut Criterion) {
    const REPS: usize = 4000;
    let mut entries = Vec::new();

    // Walls indexed by state, visited in STATES order so tracing comes last.
    let mut software = [0.0f64; 3];
    let mut quantized = [0.0f64; 3];
    for (i, state) in STATES.iter().enumerate() {
        apply_state(state);

        let (mut agent, mut rng) = build_software_agent();
        let obs = transition(1);
        software[i] = best_of_3(REPS, || {
            let a = agent.act(&obs.state, &mut rng);
            std::hint::black_box(a);
            agent.observe(&obs, &mut rng);
        });
        elmrl_telemetry::reset();

        let (mut agent, mut rng) = build_quantized_agent();
        let obs = transition(1);
        quantized[i] = best_of_3(REPS, || {
            let a = agent.act(&obs.state, &mut rng);
            std::hint::black_box(a);
            agent.observe(&obs, &mut rng);
        });
        elmrl_telemetry::set_enabled(false);
    }

    for (path, walls) in [("software_os_elm", software), ("quantized_fpga", quantized)] {
        let [off, metrics, tracing] = walls.map(|w| REPS as f64 / w);
        entries.push(PathEntry {
            path: path.to_string(),
            off_steps_per_second: off,
            metrics_steps_per_second: metrics,
            tracing_steps_per_second: tracing,
            metrics_overhead_percent: 100.0 * (off / metrics - 1.0),
            tracing_overhead_percent: 100.0 * (off / tracing - 1.0),
        });
    }

    let trajectory = BenchTrajectory {
        pr: 8,
        benchmark: "telemetry overhead: agent act+observe steps/sec with telemetry off / \
                    metrics only / metrics+tracing, software and quantized hot paths"
            .to_string(),
        host_available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        pool_threads: rayon::current_num_threads(),
        hidden: HIDDEN,
        telemetry_overhead: entries,
    };
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    println!("{json}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_telemetry_states, print_trajectory
}
criterion_main!(benches);
