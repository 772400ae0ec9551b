//! `elmrl-serve` — the long-lived request/response inference engine
//! (ROADMAP item 1: "Q-serving with dynamic batching").
//!
//! N simulated client sessions (each an environment + episode cursor with a
//! private SplitMix64 RNG stream) submit observations to a shared pool of
//! agent workers. A coalescer gathers pending tickets into
//! [`elmrl_core::batch::BatchAgent::predict_batch_into`] calls under a
//! configurable latency budget (`max_batch` / `batch_window_us`), workers
//! evaluate on the PR-4 thread pool with per-worker preallocated scratch,
//! and responses route back to their sessions by ticket.
//!
//! The engine is deterministic by construction on the virtual clock:
//! batches are composed centrally in ticket order, worker policies are
//! bit-identical, and inference consumes no RNG — so the full response
//! stream (and the serialized [`ServeReport`]) is byte-identical at any
//! worker count. See the module docs of [`engine`], [`clock`] and
//! [`session`] for the individual contracts.
//!
//! Entry points: [`run_serve`] executes a complete run from a
//! [`ServeConfig`]; the pieces ([`ServeEngine`], [`SessionDriver`],
//! [`worker::build_workers`]) are public for benches and tests that need
//! finer control.

#![deny(unsafe_code)]

pub mod clock;
pub mod engine;
pub mod report;
pub mod session;
pub mod stats;
pub mod worker;

pub use clock::{ServeClock, VIRTUAL_ROUND_US};
pub use engine::{EngineConfig, Request, Response, ServeEngine};
pub use report::ServeReport;
pub use session::{SessionDriver, SessionStats};
pub use stats::{BatchSizeBucket, LatencySummary, ServeStats};
pub use worker::{build_workers, Worker};

use elmrl_core::designs::Design;
use elmrl_gym::EnvSpec;
use std::time::Instant;

/// Complete configuration of one serve run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Workload slug (echoed into the report; the spec is passed to
    /// [`run_serve`] separately so variant options stay with the caller).
    pub workload_slug: String,
    /// Served design.
    pub design: Design,
    /// Hidden width of the served policy.
    pub hidden_dim: usize,
    /// Number of client sessions.
    pub sessions: usize,
    /// Number of agent workers (policy replicas).
    pub workers: usize,
    /// Batch-size cap of the coalescer (1 = per-request dispatch).
    pub max_batch: usize,
    /// Latency budget: a partial batch flushes once its oldest ticket is
    /// this many µs old (0 = flush everything pending on every pump).
    pub batch_window_us: u64,
    /// Engine rounds to drive.
    pub duration_ticks: u64,
    /// Master seed (sessions and workers split private streams from it).
    pub seed: u64,
    /// Use the deterministic virtual clock instead of wall time.
    pub virtual_clock: bool,
    /// Maximum think-time rounds between a session's response and its next
    /// request (0 = closed loop, >0 draws per session).
    pub think_ticks: u64,
    /// Training episodes used to warm the served policy.
    pub warmup_episodes: usize,
}

impl ServeConfig {
    /// A small, fast default configuration for the given workload/design.
    pub fn new(spec: &EnvSpec, design: Design, hidden_dim: usize) -> Self {
        Self {
            workload_slug: spec.slug.to_string(),
            design,
            hidden_dim,
            sessions: 64,
            workers: 1,
            max_batch: 64,
            batch_window_us: 200,
            duration_ticks: 200,
            seed: 42,
            virtual_clock: false,
            think_ticks: 0,
            warmup_episodes: 5,
        }
    }
}

/// The outcome of [`run_serve`]: the serialized artifact plus the raw
/// response stream digest for callers that assert on it.
pub struct ServeOutcome {
    /// The `serve.json` payload.
    pub report: ServeReport,
    /// Engine-side counters (borrowable before serialization).
    pub engine_stats: ServeStats,
    /// Client-side counters.
    pub session_stats: SessionStats,
    /// FNV-1a digest over the full `(ticket, session, action, latency)`
    /// response stream, in order — a compact determinism witness.
    pub response_digest: u64,
}

/// Run a complete serve session: warm the workers, drive
/// `duration_ticks` rounds of submit → pump → respond, and assemble the
/// report. `zero_wall_time` blanks the host-dependent fields (golden runs).
pub fn run_serve(spec: &EnvSpec, config: &ServeConfig, zero_wall_time: bool) -> ServeOutcome {
    let _span = elmrl_telemetry::hist!("serve.run").span();
    let workers = build_workers(
        config.design,
        spec,
        config.hidden_dim,
        config.workers,
        config.max_batch,
        config.seed,
        config.warmup_episodes,
    );
    let mut engine = ServeEngine::new(
        config.sessions,
        spec.observation_dim,
        workers,
        EngineConfig {
            max_batch: config.max_batch,
            batch_window_us: config.batch_window_us,
        },
    );
    let mut driver = SessionDriver::new(spec, config.sessions, config.seed, config.think_ticks);
    let mut clock = ServeClock::from_flag(config.virtual_clock);

    fn fold(digest: &mut u64, v: u64) {
        *digest ^= v;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let start = Instant::now();
    for _ in 0..config.duration_ticks {
        driver.submit_ready(&mut engine, clock.now_us());
        let responses = engine.pump(&mut clock);
        for r in responses {
            fold(&mut digest, r.ticket);
            fold(&mut digest, r.session as u64);
            fold(&mut digest, r.action as u64);
            fold(&mut digest, r.latency_us);
        }
        driver.apply_responses(responses);
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    let engine_stats = engine.stats().clone();
    let session_stats = driver.stats();
    let report = ServeReport::assemble(
        config,
        &engine_stats,
        &session_stats,
        wall_seconds,
        zero_wall_time,
    );
    ServeOutcome {
        report,
        engine_stats,
        session_stats,
        response_digest: digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmrl_gym::Workload;

    #[test]
    fn run_serve_answers_every_request_under_window_zero() {
        let spec = Workload::CartPole.spec();
        let mut config = ServeConfig::new(&spec, Design::OsElmL2Lipschitz, 16);
        config.sessions = 12;
        config.duration_ticks = 30;
        config.batch_window_us = 0;
        config.virtual_clock = true;
        config.warmup_episodes = 2;
        let outcome = run_serve(&spec, &config, true);
        assert_eq!(outcome.report.requests, 12 * 30);
        assert_eq!(outcome.report.responses, 12 * 30);
        assert_eq!(outcome.report.wall_seconds, 0.0);
        assert_eq!(outcome.report.requests_per_second, 0.0);
        assert!(outcome.report.mean_batch_size > 1.0);
    }
}
