//! Counting-allocator proof of the PR-4 hot-path contract: once an OS-ELM
//! Q-network has initialised and its workspaces have reached steady size,
//! a training step (`act` + `observe` with a forced sequential update)
//! performs **zero heap allocations** — no `P`/β clones, no per-action
//! encoding vectors, no forward-pass temporaries.
//!
//! The counter is scoped to the **measuring thread** through a
//! const-initialised thread-local flag: libtest's harness threads allocate
//! concurrently (event plumbing, output capture), and a process-global
//! counter would intermittently pick those up and fail the zero assert.
//! Only allocations made while this test's own thread holds the flag are
//! counted.

use elmrl_core::agent::{Agent, Observation};
use elmrl_core::checkpoint::RunCheckpoint;
use elmrl_core::oselm_qnet::{OsElmQNet, OsElmQNetConfig};
use elmrl_core::trainer::{CheckpointCtl, Trainer, TrainerConfig};
use elmrl_gym::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serialises the tests in this file: the telemetry variant toggles the
/// process-global enabled flag, and a first-time metric registration landing
/// inside another test's measured window would be counted as an allocation.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// System allocator wrapper that counts (re)allocations made by threads
/// that have opted in via [`COUNTING`].
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Whether the current thread's allocations are being counted. The
    /// `const` initialiser guarantees first access performs no lazy-init
    /// allocation (which would recurse into the allocator).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    // `try_with`: a thread past TLS destruction must not panic inside alloc.
    let _ = COUNTING.try_with(|flag| {
        if flag.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// An allocator is inherently unsafe plumbing; this one only forwards to the
// system allocator and bumps a counter on opted-in threads.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_training_step_allocates_nothing() {
    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = OsElmQNetConfig::for_workload(&spec, 16, 0.5, true);
    config.random_update = false; // every observe performs the RLS update
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = OsElmQNet::new(config, &mut rng);

    // Store phase: fill buffer D with Ñ distinct samples → initial training.
    for i in 0..16 {
        let obs = Observation {
            state: vec![0.01 * i as f64, -0.02, 0.03, 0.01 * (i % 5) as f64],
            action: i % 2,
            reward: if i % 7 == 0 { -1.0 } else { 0.0 },
            next_state: vec![0.01 * i as f64 + 0.005, -0.01, 0.02, 0.01],
            done: i % 7 == 0,
            truncated: false,
        };
        agent.observe(&obs, &mut rng);
    }
    assert!(agent.is_initialized());

    // One reusable transition; the steady-state loop must not clone it.
    let obs = Observation {
        state: vec![0.02, -0.01, 0.04, 0.03],
        action: 1,
        reward: -1.0,
        next_state: vec![0.03, -0.02, 0.03, 0.02],
        done: true,
        truncated: false,
    };

    // Warm-up: let every workspace (scratch matrices, encoding buffers,
    // op-counter map nodes) reach its steady capacity.
    for _ in 0..32 {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        agent.observe(&obs, &mut rng);
    }

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..256 {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        agent.observe(&obs, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));

    assert_eq!(
        after - before,
        0,
        "steady-state act+observe must not allocate ({} allocations over 256 steps)",
        after - before
    );
}

#[test]
fn steady_state_batched_training_tick_allocates_nothing() {
    // The PR-5 contract: with E > 1 episode slots feeding B > 1 transitions
    // per engine tick, the agent-side batched update — gating, the packed
    // next-state matrix, the batched target-network forward, and the
    // batch-B RLS chunk through `seq_train_batch` — is also allocation-free
    // once every workspace has reached its steady size.
    use elmrl_core::batch::BatchAgent;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = OsElmQNetConfig::for_workload(&spec, 16, 0.5, true);
    config.random_update = false; // every tick trains the full chunk
    let mut rng = SmallRng::seed_from_u64(7);
    let mut agent = OsElmQNet::new(config, &mut rng);

    // One reusable tick of B = 4 transitions (distinct states so the
    // initial training's Gram matrix is well-posed).
    let tick: Vec<Observation> = (0..4)
        .map(|i| Observation {
            state: vec![0.02 * i as f64, -0.02, 0.03, 0.01 * (i % 3) as f64],
            action: i % 2,
            reward: if i == 3 { -1.0 } else { 0.0 },
            next_state: vec![0.02 * i as f64 + 0.005, -0.01, 0.02, 0.01],
            done: i == 3,
            truncated: false,
        })
        .collect();

    // Store phase (4 ticks fill buffer D with Ñ = 16 samples) + warm-up so
    // every workspace reaches steady capacity.
    for _ in 0..32 {
        agent.observe_batch(&tick, &mut rng);
    }
    assert!(agent.is_initialized());

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..256 {
        agent.observe_batch(&tick, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));

    assert_eq!(
        after - before,
        0,
        "steady-state batched tick must not allocate ({} allocations over 256 ticks)",
        after - before
    );
}

#[test]
fn steady_state_tiled_update_with_chunk_splitting_allocates_nothing() {
    // The PR-9 contract: the blocked kernels stay allocation-free too. This
    // variant crosses both new tiling seams — a hidden width past
    // `P_UPDATE_TILE` (so the fused P passes run a full row tile plus a
    // remainder) and a tick wider than `DEFAULT_CHUNK_CAP` (so
    // `observe_batch` splits the RLS update into capped chunks while the
    // hoisted target-network forward still covers the whole tick).
    use elmrl_core::batch::BatchAgent;
    use elmrl_core::DEFAULT_CHUNK_CAP;
    use elmrl_elm::os_elm::P_UPDATE_TILE;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let hidden = P_UPDATE_TILE + 8;
    let mut config = OsElmQNetConfig::for_workload(&spec, hidden, 0.5, true);
    config.random_update = false; // every tick trains the full chunk
    let mut rng = SmallRng::seed_from_u64(11);
    let mut agent = OsElmQNet::new(config, &mut rng);

    // B = DEFAULT_CHUNK_CAP + 8 → one full chunk and a chunk of 8. A full
    // chunk at this width is past the pool's fork/join threshold, and the
    // pool's job bookkeeping allocates per dispatch; the contract here is
    // the kernels' own, so the threshold is lifted to keep every product on
    // the sequential kernels (bit-identical to the pooled ones).
    let width = DEFAULT_CHUNK_CAP + 8;
    elmrl_linalg::set_parallel_flop_threshold(usize::MAX);
    let tick: Vec<Observation> = (0..width)
        .map(|i| Observation {
            state: vec![0.02 * i as f64, -0.02, 0.03, 0.01 * (i % 3) as f64],
            action: i % 2,
            reward: if i == width - 1 { -1.0 } else { 0.0 },
            next_state: vec![0.02 * i as f64 + 0.005, -0.01, 0.02, 0.01],
            done: i == width - 1,
            truncated: false,
        })
        .collect();

    // Store phase (buffer D fills with Ñ samples) + warm-up so every
    // workspace — including the packed-panel buffers — reaches steady
    // capacity.
    for t in 0..8 {
        // Perturb one state component per store-phase tick so the initial
        // Gram matrix is well-posed.
        let staged: Vec<Observation> = tick
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let mut o = o.clone();
                o.state[1] += 0.003 * (t * width + i) as f64;
                o
            })
            .collect();
        agent.observe_batch(&staged, &mut rng);
    }
    assert!(agent.is_initialized());
    for _ in 0..8 {
        agent.observe_batch(&tick, &mut rng);
    }

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..64 {
        agent.observe_batch(&tick, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));
    elmrl_linalg::set_parallel_flop_threshold(0);

    assert_eq!(
        after - before,
        0,
        "steady-state tiled + chunk-split tick must not allocate \
         ({} allocations over 64 ticks)",
        after - before
    );
}

#[test]
fn steady_state_training_step_allocates_nothing_with_telemetry_on() {
    // The PR-8 no-perturbation contract: with the metric registry enabled
    // *and* the span-trace ring collecting, the steady-state hot path is
    // still allocation-free — metrics registered during warm-up, call-site
    // `OnceLock`s filled, trace events pushed into the preallocated ring.
    let _serial = serial();
    elmrl_telemetry::enable_tracing(elmrl_telemetry::DEFAULT_TRACE_CAPACITY);

    let spec = Workload::CartPole.spec();
    let mut config = OsElmQNetConfig::for_workload(&spec, 16, 0.5, true);
    config.random_update = false;
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = OsElmQNet::new(config, &mut rng);
    for i in 0..16 {
        let obs = Observation {
            state: vec![0.01 * i as f64, -0.02, 0.03, 0.01 * (i % 5) as f64],
            action: i % 2,
            reward: if i % 7 == 0 { -1.0 } else { 0.0 },
            next_state: vec![0.01 * i as f64 + 0.005, -0.01, 0.02, 0.01],
            done: i % 7 == 0,
            truncated: false,
        };
        agent.observe(&obs, &mut rng);
    }
    assert!(agent.is_initialized());

    let obs = Observation {
        state: vec![0.02, -0.01, 0.04, 0.03],
        action: 1,
        reward: -1.0,
        next_state: vec![0.03, -0.02, 0.03, 0.02],
        done: true,
        truncated: false,
    };

    // Warm-up with telemetry live: registers every metric this loop touches
    // and fills the call-site handle caches.
    for _ in 0..32 {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        agent.observe(&obs, &mut rng);
    }

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..256 {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        agent.observe(&obs, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));
    elmrl_telemetry::set_enabled(false);

    assert!(
        elmrl_telemetry::snapshot()
            .histogram("op.seq_train")
            .is_some_and(|h| h.count > 0),
        "telemetry must actually have recorded during the measured loop"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state act+observe with telemetry + tracing on must not \
         allocate ({} allocations over 256 steps)",
        after - before
    );
}

#[test]
fn steady_state_dqn_step_allocates_nothing_once_replay_is_full() {
    // The DQN baseline's hot path: with the replay ring at capacity, a
    // push overwrites the oldest slot in place, the mini-batch is sampled
    // into reused matrices, the target forward and the fused training step
    // run through persistent workspaces, and `act`/`act_row` forward through
    // the agent's scratch — zero heap allocations per step.
    use elmrl_core::batch::BatchAgent;
    use elmrl_core::dqn::{DqnAgent, DqnConfig};
    use elmrl_core::ops::OpKind;
    use elmrl_linalg::Matrix;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = DqnConfig::for_workload(&spec, 16);
    config.replay_capacity = config.warmup;
    let mut rng = SmallRng::seed_from_u64(11);
    let mut agent = DqnAgent::new(config, &mut rng);

    let observation = |i: usize| Observation {
        state: vec![0.01 * (i % 13) as f64, -0.02, 0.03, 0.01 * (i % 5) as f64],
        action: i % 2,
        reward: if i % 7 == 0 { -1.0 } else { 0.0 },
        next_state: vec![0.01 * (i % 13) as f64 + 0.005, -0.01, 0.02, 0.01],
        done: i % 7 == 0,
        truncated: false,
    };
    let steps: Vec<Observation> = (0..256).map(observation).collect();
    let row = Matrix::from_rows(&[steps[0].state.clone()]);

    // Fill the ring past capacity and let every workspace reach its size.
    for obs in &steps {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        agent.observe(obs, &mut rng);
    }
    std::hint::black_box(agent.act_row(&row, &mut rng));
    assert_eq!(agent.replay_len(), 64, "the ring is at capacity");
    let trained = agent.op_counts().count(OpKind::TrainDqn);
    assert!(trained > 0, "warm-up must already train");

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for obs in &steps {
        let action = agent.act(&obs.state, &mut rng);
        std::hint::black_box(action);
        std::hint::black_box(agent.act_row(&row, &mut rng));
        agent.observe(obs, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));

    assert_eq!(
        agent.op_counts().count(OpKind::TrainDqn),
        trained + 256,
        "every measured observe must run a training step"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state DQN act+act_row+observe must not allocate ({} allocations over 256 steps)",
        after - before
    );
}

#[test]
fn steady_state_act_row_allocates_nothing() {
    // `act_row` (the trait default: `act` on row 0) runs the batched
    // evaluator through the agent's own workspaces, for the OS-ELM and the
    // refill-only ELM datapaths alike.
    use elmrl_core::batch::BatchAgent;
    use elmrl_core::elm_qnet::{ElmQNet, ElmQNetConfig};
    use elmrl_linalg::Matrix;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(31);
    let mut oselm = OsElmQNet::new(
        OsElmQNetConfig::for_workload(&spec, 16, 0.5, true),
        &mut rng,
    );
    let mut elm = ElmQNet::new(ElmQNetConfig::for_workload(&spec, 16), &mut rng);
    let row = Matrix::from_rows(&[vec![0.02, -0.01, 0.04, 0.03]]);
    let agents: [&mut dyn BatchAgent; 2] = [&mut oselm, &mut elm];
    for agent in agents {
        for i in 0..16 {
            let obs = Observation {
                state: vec![0.01 * i as f64, -0.02, 0.03, 0.01 * (i % 5) as f64],
                action: i % 2,
                reward: if i % 7 == 0 { -1.0 } else { 0.0 },
                next_state: vec![0.01 * i as f64 + 0.005, -0.01, 0.02, 0.01],
                done: i % 7 == 0,
                truncated: false,
            };
            agent.observe(&obs, &mut rng);
        }
        for _ in 0..8 {
            std::hint::black_box(agent.act_row(&row, &mut rng));
        }

        COUNTING.with(|flag| flag.set(true));
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..256 {
            std::hint::black_box(agent.act_row(&row, &mut rng));
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        COUNTING.with(|flag| flag.set(false));

        assert_eq!(
            after - before,
            0,
            "steady-state {} act_row must not allocate ({} allocations over 256 rows)",
            agent.name(),
            after - before
        );
    }
}

/// Allocations of one full scalar training run, with the checkpoint
/// schedule either disarmed or armed-but-never-firing. Same seed, same
/// trajectory — any difference is overhead the checkpoint plumbing adds to
/// the episode loop.
fn run_allocations(armed: bool) -> u64 {
    let spec = Workload::CartPole.spec();
    let mut config = OsElmQNetConfig::for_workload(&spec, 16, 0.5, true);
    config.random_update = false;
    let mut rng = SmallRng::seed_from_u64(21);
    let mut agent = OsElmQNet::new(config, &mut rng);
    let mut env = spec.make_env();
    let mut trainer_config = TrainerConfig::for_workload(&spec);
    trainer_config.max_episodes = 6;
    trainer_config.stop_when_solved = false;
    let trainer = Trainer::new(trainer_config);

    let mut sink =
        |_ckpt: RunCheckpoint| unreachable!("the capture boundary lies beyond the episode budget");
    let mut ctl = CheckpointCtl::default();
    if armed {
        // Armed: the driver checks the capture boundary and the
        // fault-injection stop every episode, but never crosses either.
        ctl.every = 1_000_000;
        ctl.stop_after = Some(usize::MAX);
        ctl.sink = Some(&mut sink);
    }

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = trainer
        .run_checkpointed(&mut agent, env.as_mut(), &mut rng, &mut ctl)
        .expect("run cannot fail");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));
    std::hint::black_box(result.total_steps);
    after - before
}

#[test]
fn armed_checkpoint_schedule_adds_no_allocations_between_captures() {
    // The PR-6 contract: snapshots themselves may allocate freely, but the
    // per-episode bookkeeping that decides *whether* to snapshot — the
    // `capture_due`/`stop_now` boundary checks — must be allocation-free,
    // so `--checkpoint-every` never perturbs the training hot path between
    // marks. Armed-but-idle must allocate exactly what disarmed does.
    let _serial = serial();
    // Warm-up run: one-time process-global registrations (the trainer's
    // telemetry call-site caches) must not be charged to either variant.
    let _ = run_allocations(false);
    let disarmed = run_allocations(false);
    let armed = run_allocations(true);
    assert_eq!(
        armed, disarmed,
        "an armed checkpoint schedule must add zero allocations between \
         captures (disarmed: {disarmed}, armed: {armed})"
    );
}
