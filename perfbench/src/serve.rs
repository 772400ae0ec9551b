//! `serve-10k`: `elmrl-serve` on the wall clock with 10⁴ closed-loop
//! sessions (each waits for its action before the next request, zero think
//! time) against a warmed OS-ELM-L2-Lipschitz policy at Ñ = 64, `max_batch`
//! 128 and a 200 µs window. Batched inference and coalescing only: no
//! training layer runs while the clock is measured.

use crate::calib::Calibrator;
use crate::trace::{self, Family, Layer, TracedAgent};
use crate::{layer_metrics, median, pass_order, peak_rss_mib, timed, Args, Metric, Outcome};
use elmrl_core::designs::{Design, DesignConfig};
use elmrl_core::{Trainer, TrainerConfig};
use elmrl_gym::{EnvSpec, VecEnv, Workload};
use elmrl_population::split_seed;
use elmrl_serve::{
    build_workers, run_serve, EngineConfig, ServeClock, ServeConfig, ServeEngine, SessionDriver,
    Worker,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// One worker: the engine then dispatches every batch inline on the main
/// thread, so the trace sees every predict call and the rate does not hinge
/// on how two threads share a two-core host.
pub const WORKERS: usize = 1;
const DESIGN: Design = Design::OsElmL2Lipschitz;
const HIDDEN: usize = 64;
const SESSIONS: usize = 10_000;
const MAX_BATCH: usize = 128;
const WINDOW_US: u64 = 200;
const WARMUP_EPISODES: usize = 20;
/// Set-ups timed before and again after the measured loop (with the served
/// instance dropped, so memory peaks stay those of one instance);
/// `setup_s` is their median.
const SETUP_REPS: usize = 8;
/// Rounds of the virtual-clock pass whose response digest must match the
/// library's own `run_serve`.
const CHECK_ROUNDS: u64 = 30;
/// Rounds per block when the traced run alternates the untraced and the
/// traced instance.
const TRACE_BLOCK_ROUNDS: u64 = 50;
/// Rounds per block between two host-speed readings in the untraced run.
const CAL_BLOCK_ROUNDS: u64 = 16;
/// The worker seed stream of `elmrl_serve::build_workers`, which the traced
/// workers replay so they hold bit-identical policies.
const WORKER_STREAM: u64 = 0x5345_5256_0000_0000;
/// Latencies below this many µs are counted exactly per µs; longer ones are
/// kept individually.
const LATENCY_SLOTS: usize = 1 << 18;

/// Exact nearest-rank quantiles over every response's latency.
struct Latencies {
    counts: Vec<u32>,
    overflow: Vec<u64>,
    n: u64,
}

impl Latencies {
    fn new() -> Self {
        Self {
            counts: vec![0; LATENCY_SLOTS],
            overflow: Vec::new(),
            n: 0,
        }
    }

    fn record(&mut self, us: u64) {
        match self.counts.get_mut(us as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(us),
        }
        self.n += 1;
    }

    fn quantile(&mut self, q: f64) -> u64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0u64;
        for (us, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return us as u64;
            }
        }
        self.overflow.sort_unstable();
        self.overflow[(rank - seen - 1) as usize]
    }
}

fn fold(digest: &mut u64, v: u64) {
    *digest ^= v;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

/// What driving one serving instance has produced so far.
struct Drive {
    requests: u64,
    responses: u64,
    failed: u64,
    next_ticket: u64,
    rounds: u64,
    wall_s: f64,
    /// Responses per second of each full round (drain rounds excluded).
    round_rates: Vec<f64>,
    latencies: Latencies,
    /// FNV-1a over `(ticket, session, action, latency)`, as `run_serve`
    /// folds it.
    digest: u64,
}

impl Drive {
    fn new() -> Self {
        Self {
            requests: 0,
            responses: 0,
            failed: 0,
            next_ticket: 0,
            rounds: 0,
            wall_s: 0.0,
            round_rates: Vec::new(),
            latencies: Latencies::new(),
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

struct Serving {
    engine: ServeEngine,
    driver: SessionDriver,
}

fn serving(spec: &EnvSpec, workers: Vec<Worker>, seed: u64) -> Serving {
    Serving {
        engine: ServeEngine::new(
            SESSIONS,
            spec.observation_dim,
            workers,
            EngineConfig {
                max_batch: MAX_BATCH,
                batch_window_us: WINDOW_US,
            },
        ),
        driver: SessionDriver::new(spec, SESSIONS, seed, 0),
    }
}

/// `build_workers` with every warmed policy wrapped in the timing
/// decorator before `Worker::new` takes it.
fn traced_workers(spec: &EnvSpec, seed: u64) -> Vec<Worker> {
    let trainer = Trainer::new(TrainerConfig {
        max_episodes: WARMUP_EPISODES,
        reset_after_episodes: None,
        stop_when_solved: false,
        solve_criterion: spec.solve_criterion,
        solved_window: 100,
        reward_shaping: spec.reward_shaping,
    });
    (0..WORKERS)
        .map(|_| {
            let mut build_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM));
            let mut agent =
                DESIGN.build_batch(&DesignConfig::for_workload(spec, HIDDEN), &mut build_rng);
            let mut train_rng = SmallRng::seed_from_u64(split_seed(seed, WORKER_STREAM + 1));
            let mut vec_env = VecEnv::from_spec(spec, 1);
            trainer.run_vec(agent.as_mut(), &mut vec_env, &mut train_rng);
            let agent = Box::new(TracedAgent::new(agent, Family::of(DESIGN)));
            Worker::new(agent, MAX_BATCH, spec.observation_dim)
        })
        .collect()
}

/// `rounds` closed-loop rounds of submit → pump → respond. On the wall
/// clock the queue is then drained, so every request is answered and
/// nothing is in flight between calls (`run_serve`'s virtual passes stop at
/// once). Each response is checked: tickets come back exactly once and in
/// order, to a real session, with an in-range action.
fn drive(
    s: &mut Serving,
    clock: &mut ServeClock,
    d: &mut Drive,
    rounds: u64,
    num_actions: usize,
    traced: bool,
) {
    let first_round = d.rounds;
    let start = Instant::now();
    loop {
        let draining = d.rounds - first_round >= rounds;
        if draining && (clock.is_virtual() || s.engine.pending() == 0) {
            break;
        }
        let round_start = Instant::now();
        if traced {
            trace::set_round(d.rounds);
            trace::open();
        }
        if !draining {
            let now = clock.now_us();
            if traced {
                trace::span(Layer::ServeSubmit, || {
                    s.driver.submit_ready(&mut s.engine, now)
                });
            } else {
                s.driver.submit_ready(&mut s.engine, now);
            }
        }
        if traced {
            trace::open();
        }
        let responses = s.engine.pump(clock);
        if traced {
            trace::close("serve.pump", Some(Layer::ServeCoalesce));
        }
        for r in responses {
            if r.ticket != d.next_ticket || r.session >= SESSIONS || r.action >= num_actions {
                d.failed += 1;
            }
            d.next_ticket = r.ticket + 1;
            d.latencies.record(r.latency_us);
            fold(&mut d.digest, r.ticket);
            fold(&mut d.digest, r.session as u64);
            fold(&mut d.digest, r.action as u64);
            fold(&mut d.digest, r.latency_us);
        }
        if traced {
            trace::span(Layer::ServeRespond, || s.driver.apply_responses(responses));
            trace::close("round", None);
        } else {
            s.driver.apply_responses(responses);
        }
        if !draining {
            d.rounds += 1;
            d.round_rates
                .push(responses.len() as f64 / round_start.elapsed().as_secs_f64());
        }
    }
    d.wall_s += start.elapsed().as_secs_f64();
    let stats = s.engine.stats();
    d.requests = stats.requests;
    d.responses = stats.responses;
}

pub fn run(args: &Args) -> Outcome {
    let spec = Workload::CartPole.spec();
    let seed = args.seed;
    let setup = || {
        let workers = build_workers(
            DESIGN,
            &spec,
            HIDDEN,
            WORKERS,
            MAX_BATCH,
            seed,
            WARMUP_EPISODES,
        );
        serving(&spec, workers, seed)
    };
    let mut d = Drive::new();
    let mut clock = ServeClock::wall();
    if !args.trace {
        let mut cal = Calibrator::new();
        let setups = |cal: &mut Calibrator| -> Vec<f64> {
            (0..SETUP_REPS)
                .map(|_| timed(setup).0 / cal.mark())
                .collect()
        };
        let mut setup_samples = setups(&mut cal);
        let mut serve = setup();
        // Blocks of rounds between calibration marks; each block's median
        // round rate is scaled by the host's slowdown over the block.
        let mut block_rates = Vec::new();
        let start = Instant::now();
        while d.rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
            let first = d.round_rates.len();
            drive(
                &mut serve,
                &mut clock,
                &mut d,
                CAL_BLOCK_ROUNDS,
                spec.num_actions,
                false,
            );
            block_rates.push(median(&d.round_rates[first..]) * cal.mark());
        }
        drop(serve);
        setup_samples.extend(setups(&mut cal));
        let mut outcome = report(&mut d);
        println!(
            "# serve-10k uncalibrated serve_rps = {} 1/s, calibrated over {} blocks",
            median(&d.round_rates),
            block_rates.len()
        );
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setup_samples), "s"),
            Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
            Metric::new("throughput", median(&block_rates), "1/s"),
        ];
        return outcome;
    }
    let mut serve = setup();

    // Fidelity: on the virtual clock the traced engine must answer exactly
    // as the library's own untraced run_serve.
    let mut config = ServeConfig::new(&spec, DESIGN, HIDDEN);
    config.sessions = SESSIONS;
    config.workers = WORKERS;
    config.max_batch = MAX_BATCH;
    config.batch_window_us = WINDOW_US;
    config.duration_ticks = CHECK_ROUNDS;
    config.seed = seed;
    config.virtual_clock = true;
    config.think_ticks = 0;
    config.warmup_episodes = WARMUP_EPISODES;
    let reference = run_serve(&spec, &config, true).response_digest;
    let mut check = serving(&spec, traced_workers(&spec, seed), seed);
    let mut virtual_pass = Drive::new();
    trace::start();
    drive(
        &mut check,
        &mut ServeClock::virtual_clock(),
        &mut virtual_pass,
        CHECK_ROUNDS,
        spec.num_actions,
        true,
    );
    trace::finish();
    drop(check);
    let faithful = virtual_pass.digest == reference && virtual_pass.failed == 0;
    println!("# serve-10k traced virtual-clock response digest equals run_serve's: {faithful}");

    // Blocks of rounds alternate between the untraced and the traced
    // instance, so both see the same host conditions.
    let mut traced = serving(&spec, traced_workers(&spec, seed), seed);
    let mut t = Drive::new();
    let mut traced_clock = ServeClock::wall();
    trace::start();
    let start = Instant::now();
    let mut blocks = 0;
    while blocks == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for &is_traced in pass_order(true, blocks) {
            if is_traced {
                drive(
                    &mut traced,
                    &mut traced_clock,
                    &mut t,
                    TRACE_BLOCK_ROUNDS,
                    spec.num_actions,
                    true,
                );
            } else {
                drive(
                    &mut serve,
                    &mut clock,
                    &mut d,
                    TRACE_BLOCK_ROUNDS,
                    spec.num_actions,
                    false,
                );
            }
        }
        blocks += 1;
    }
    let rec = trace::finish();
    let consistent = faithful && t.failed == 0 && t.requests == t.responses;
    let mut outcome = Outcome {
        consistent,
        ..report(&mut d)
    };
    if let Some(path) = &args.trace_out {
        rec.write_csv(path).expect("write the trace file");
    }
    outcome.metrics = layer_metrics(
        "serve-10k",
        &rec,
        t.wall_s,
        d.wall_s,
        Some(traced.engine.stats()),
    );
    outcome
}

/// Print the serve figures of the untraced instance and count its
/// failures: a request fails unless it was answered, exactly once, well
/// formed.
fn report(d: &mut Drive) -> Outcome {
    let (p50, p99) = (d.latencies.quantile(0.50), d.latencies.quantile(0.99));
    println!("# serve-10k serve_rps = {} 1/s", median(&d.round_rates));
    println!(
        "# serve-10k serve_p50_us = {p50} us, serve_p99_us = {p99} us (nearest rank over {} responses, {} rounds)",
        d.latencies.n, d.rounds
    );
    Outcome {
        attempted: d.requests,
        failed: d.failed + d.requests.saturating_sub(d.responses),
        consistent: true,
        metrics: Vec::new(),
    }
}
