//! Counting-allocator proof of the PR-7 quantized hot-path contract: once
//! the FPGA agent's initial training has loaded the Q20 core and every
//! workspace has reached steady size, a training step (`act` + `observe`
//! with the update gate forced open) performs **zero heap allocations** —
//! no per-call `Matrix<Q20>` temporaries, no per-action encoding vectors,
//! no quantisation buffers.
//!
//! The counter is scoped to the **measuring thread** through a
//! const-initialised thread-local flag: libtest's harness threads allocate
//! concurrently (event plumbing, output capture), and a process-global
//! counter would intermittently pick those up and fail the zero assert.
//! Only allocations made while this test's own thread holds the flag are
//! counted.

use elmrl_core::agent::{Agent, Observation};
use elmrl_fpga::{FpgaAgent, FpgaAgentConfig};
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

#[test]
fn steady_state_quantized_training_step_allocates_nothing() {
    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = FpgaAgentConfig::for_workload(&spec, 16);
    config.update_prob = 1.0; // every observe performs the Q20 RLS update
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = FpgaAgent::new(config, &mut rng);

    // Store phase: fill buffer D with Ñ distinct samples → initial training
    // on the CPU learner, then the AXI load of the Q20 core.
    for i in 0..16 {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.datapath().core_loaded());

    // One reusable transition; the steady-state loop must not clone it.
    let obs = Observation {
        state: vec![0.02, -0.01, 0.04, 0.03],
        action: 1,
        reward: -1.0,
        next_state: vec![0.03, -0.02, 0.03, 0.02],
        done: true,
        truncated: false,
    };

    // Warm-up: let every workspace (core scratch banks, encoding buffers,
    // target-Q matrices, op-counter map nodes) reach its steady capacity.
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
        "steady-state quantized act+observe must not allocate ({} allocations over 256 steps)",
        after - before
    );
}

#[test]
fn steady_state_quantized_batched_tick_allocates_nothing() {
    // The batched form of the same contract: a B > 1 engine tick through
    // `observe_batch` — gating, the packed next-state matrix, the batched
    // float target forward, quantisation, and B sequential Q20 RLS updates
    // through `seq_train_batch_q` — is also allocation-free at steady state.
    use elmrl_core::batch::BatchAgent;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = FpgaAgentConfig::for_workload(&spec, 16);
    config.update_prob = 1.0;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut agent = FpgaAgent::new(config, &mut rng);

    let tick: Vec<Observation> = (0..4).map(transition).collect();

    // Store phase (4 ticks fill buffer D with Ñ = 16 samples) + warm-up so
    // every workspace reaches steady capacity.
    for _ in 0..32 {
        agent.observe_batch(&tick, &mut rng);
    }
    assert!(agent.datapath().core_loaded());

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
        "steady-state quantized batched tick must not allocate ({} allocations over 256 ticks)",
        after - before
    );
}

#[test]
fn steady_state_quantized_wide_tick_allocates_nothing() {
    // The PR-9 wide-tick shape: a B = 96 engine tick — wider than the
    // chunk cap the float OS-ELM designs split at (the quantized path
    // trains per sample, so it never splits) — must also reach a steady
    // state where every workspace (the B×d next-state matrix, the batched
    // target forward, the Q20 staging banks) has stopped growing.
    use elmrl_core::batch::BatchAgent;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut config = FpgaAgentConfig::for_workload(&spec, 16);
    config.update_prob = 1.0;
    let mut rng = SmallRng::seed_from_u64(23);
    let mut agent = FpgaAgent::new(config, &mut rng);

    let tick: Vec<Observation> = (0..96).map(transition).collect();
    for _ in 0..16 {
        agent.observe_batch(&tick, &mut rng);
    }
    assert!(agent.datapath().core_loaded());

    COUNTING.with(|flag| flag.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..64 {
        agent.observe_batch(&tick, &mut rng);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(false));

    assert_eq!(
        after - before,
        0,
        "steady-state quantized wide tick must not allocate ({} allocations over 64 ticks)",
        after - before
    );
}

#[test]
fn steady_state_quantized_step_allocates_nothing_with_telemetry_on() {
    // The PR-8 no-perturbation contract on the quantized path: with the
    // metric registry enabled *and* the span-trace ring collecting — so the
    // `fpga.predict`/`fpga.rls_update` spans and the guarded-RLS stat flush
    // are all live — the steady-state step is still allocation-free.
    let _serial = serial();
    elmrl_telemetry::enable_tracing(elmrl_telemetry::DEFAULT_TRACE_CAPACITY);

    let spec = Workload::CartPole.spec();
    let mut config = FpgaAgentConfig::for_workload(&spec, 16);
    config.update_prob = 1.0;
    let mut rng = SmallRng::seed_from_u64(99);
    let mut agent = FpgaAgent::new(config, &mut rng);
    for i in 0..16 {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.datapath().core_loaded());

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

    let snap = elmrl_telemetry::snapshot();
    assert!(
        snap.histogram("fpga.rls_update")
            .is_some_and(|h| h.count > 0),
        "telemetry must actually have recorded during the measured loop"
    );
    assert!(
        snap.counter("fixed.rls.calls").is_some_and(|c| c > 0),
        "the guarded-RLS stat flush must have run during the measured loop"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state quantized act+observe with telemetry + tracing on must \
         not allocate ({} allocations over 256 steps)",
        after - before
    );
}

#[test]
fn steady_state_quantized_act_row_allocates_nothing() {
    // `act_row` (the trait default: `act` on row 0) quantises the row and
    // runs the core through the agent's own staging banks.
    use elmrl_core::batch::BatchAgent;
    use elmrl_linalg::Matrix;

    let _serial = serial();
    let spec = Workload::CartPole.spec();
    let mut rng = SmallRng::seed_from_u64(31);
    let mut agent = FpgaAgent::new(FpgaAgentConfig::for_workload(&spec, 16), &mut rng);
    for i in 0..16 {
        agent.observe(&transition(i), &mut rng);
    }
    assert!(agent.datapath().core_loaded());
    let row = Matrix::from_rows(&[vec![0.02, -0.01, 0.04, 0.03]]);
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
        "steady-state quantized act_row must not allocate ({} allocations over 256 rows)",
        after - before
    );
}
