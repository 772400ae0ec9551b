//! The serve engine: ticketed request queue, latency-budgeted batch
//! coalescer, and worker dispatch.
//!
//! # Data flow
//!
//! ```text
//! session ──enqueue(obs)──► staging row + FIFO ticket queue
//!                                   │ pump()
//!                     coalescer: flush when a batch is full
//!                     (≥ max_batch) or the oldest ticket's age
//!                     reaches batch_window_us
//!                                   │ ≤ workers batches per wave
//!                     workers: predict_batch_into + greedy argmax
//!                     (PR-4 pool when more than one worker)
//!                                   │
//! session ◄──Response { ticket, action, latency }── response buffer
//! ```
//!
//! # Determinism
//!
//! Batches are composed *centrally*, by popping the FIFO queue in ticket
//! order — the worker count only decides how many of those batches run
//! concurrently in one wave, never what is in them. All worker policies are
//! bit-identical and inference consumes no RNG, so on the virtual clock the
//! full response stream is byte-identical at any `--workers` value (pinned
//! by `tests/determinism.rs` and the CI `serve_smoke` `cmp`).
//!
//! # Allocation discipline
//!
//! Everything is preallocated at construction: the staging matrix holds one
//! row per session, the queue's ring buffer holds one slot per session
//! (each session has at most one ticket in flight), and every worker owns
//! its batch/Q/action scratch. With one worker the hot loop (enqueue →
//! coalesce → predict → respond) performs **zero** heap allocations at
//! steady state (counting-allocator test); with several workers the only
//! allocations are the pool-dispatch list of one `par_iter` call per wave,
//! the same plumbing every PR-4 parallel section pays.

use crate::clock::ServeClock;
use crate::stats::ServeStats;
use crate::worker::Worker;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One pending inference request: which session asked, when, and the ticket
/// the response will carry. The observation itself lives in the engine's
/// staging matrix (one row per session — a session has at most one request
/// in flight).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Monotonically increasing ticket (unique per request).
    pub ticket: u64,
    /// Index of the submitting session.
    pub session: usize,
    /// Clock reading at enqueue (µs).
    pub enqueued_us: u64,
}

/// One routed response: the greedy action for a session's observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Response {
    /// Ticket of the request this answers.
    pub ticket: u64,
    /// The session the response routes back to.
    pub session: usize,
    /// Greedy action under the served policy.
    pub action: usize,
    /// Enqueue→response latency (µs) on the engine clock.
    pub latency_us: u64,
}

/// Coalescing knobs of a [`ServeEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum rows per dispatched batch (`--max-batch`). 1 degenerates to
    /// per-request dispatch — the bench baseline.
    pub max_batch: usize,
    /// Latency budget (`--batch-window-us`): a partial batch is held back
    /// until its oldest ticket is this old, then flushed regardless of
    /// size. 0 flushes everything pending on every pump.
    pub batch_window_us: u64,
}

/// The request/response inference engine (see the module docs).
pub struct ServeEngine {
    config: EngineConfig,
    obs_dim: usize,
    /// One staged observation row per session.
    staging: elmrl_linalg::Matrix<f64>,
    /// Whether a session currently has a ticket in the queue.
    in_flight: Vec<bool>,
    /// FIFO of pending requests (ring buffer, capacity = sessions).
    queue: VecDeque<Request>,
    /// Worker shards; `Mutex` so a wave can run them via `par_iter` over
    /// `&[Mutex<Worker>]` (the rayon shim has no mutable parallel
    /// iteration). Uncontended by construction — each wave locks a worker
    /// exactly once.
    workers: Vec<Mutex<Worker>>,
    /// Responses of the current pump, in batch-composition order.
    responses: Vec<Response>,
    next_ticket: u64,
    stats: ServeStats,
}

impl ServeEngine {
    /// An engine for `sessions` clients over the given (pre-warmed) workers.
    pub fn new(
        sessions: usize,
        obs_dim: usize,
        workers: Vec<Worker>,
        config: EngineConfig,
    ) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(!workers.is_empty(), "need at least one worker");
        Self {
            config,
            obs_dim,
            staging: elmrl_linalg::Matrix::zeros(sessions.max(1), obs_dim),
            in_flight: vec![false; sessions],
            queue: VecDeque::with_capacity(sessions + 1),
            workers: workers.into_iter().map(Mutex::new).collect(),
            responses: Vec::with_capacity(sessions),
            next_ticket: 0,
            stats: ServeStats::new(config.max_batch),
        }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Requests waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Aggregate counters and latency distribution so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Accept one observation from `session`; returns the response ticket.
    ///
    /// Panics if the session already has a request in flight (the engine
    /// stores exactly one staged observation per session).
    pub fn enqueue(&mut self, session: usize, obs: &[f64], now_us: u64) -> u64 {
        assert!(
            !self.in_flight[session],
            "session {session} already has a request in flight"
        );
        assert_eq!(obs.len(), self.obs_dim, "observation width mismatch");
        self.staging.row_mut(session).copy_from_slice(obs);
        self.in_flight[session] = true;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queue.push_back(Request {
            ticket,
            session,
            enqueued_us: now_us,
        });
        self.stats.requests += 1;
        elmrl_telemetry::counter!("serve.requests").inc();
        ticket
    }

    /// Should the batch at the queue head flush now? Full batches always
    /// flush; partial ones wait out the latency budget of their oldest
    /// ticket.
    fn head_flushable(&self, now_us: u64) -> bool {
        match self.queue.front() {
            None => false,
            Some(_) if self.queue.len() >= self.config.max_batch => true,
            Some(front) => now_us.saturating_sub(front.enqueued_us) >= self.config.batch_window_us,
        }
    }

    /// One engine round: advance the clock, then repeatedly coalesce
    /// flush-ready batches (ticket order, ≤ `max_batch` rows) and dispatch
    /// them across the workers in waves until nothing else may flush.
    /// Returns the responses of this round in batch-composition order.
    pub fn pump(&mut self, clock: &mut ServeClock) -> &[Response] {
        self.responses.clear();
        clock.advance_round();
        self.stats.queue_depth_peak = self.stats.queue_depth_peak.max(self.queue.len());
        elmrl_telemetry::gauge!("serve.queue_depth").set(self.queue.len() as i64);

        loop {
            let now_us = clock.now_us();
            if !self.head_flushable(now_us) {
                break;
            }
            // Compose up to `workers` batches for this wave, strictly in
            // ticket order.
            let mut wave = 0;
            while wave < self.workers.len() && self.head_flushable(now_us) {
                let size = self.queue.len().min(self.config.max_batch);
                let worker = self.workers[wave].get_mut().expect("worker lock poisoned");
                worker.begin_batch(size, self.obs_dim);
                for _ in 0..size {
                    let request = self.queue.pop_front().expect("sized above");
                    worker.push_row(request, self.staging.row(request.session));
                }
                self.stats.batches += 1;
                self.stats.batch_size_counts[size] += 1;
                elmrl_telemetry::hist!("serve.batch_size").record_ns(size as u64);
                wave += 1;
            }
            // Dispatch the wave. A single batch runs inline (this keeps the
            // one-worker hot loop allocation-free); a multi-batch wave fans
            // out over the PR-4 pool. Which path runs never affects
            // results: batches were already composed above.
            {
                let _span = elmrl_telemetry::hist!("serve.dispatch").span();
                if wave == 1 {
                    self.workers[0]
                        .get_mut()
                        .expect("worker lock poisoned")
                        .run_batch();
                } else {
                    self.workers[..wave].par_iter().for_each(|slot| {
                        slot.lock().expect("worker lock poisoned").run_batch();
                    });
                }
            }
            // Route responses in batch-composition order.
            let response_us = clock.now_us();
            for slot in &mut self.workers[..wave] {
                let worker = slot.get_mut().expect("worker lock poisoned");
                for (request, action) in worker.results() {
                    let latency_us = response_us.saturating_sub(request.enqueued_us);
                    self.responses.push(Response {
                        ticket: request.ticket,
                        session: request.session,
                        action,
                        latency_us,
                    });
                    self.in_flight[request.session] = false;
                    self.stats.responses += 1;
                    self.stats.latency.record(latency_us);
                    elmrl_telemetry::hist!("serve.request").record_ns(latency_us * 1_000);
                }
            }
        }
        &self.responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::build_workers;
    use elmrl_core::designs::Design;
    use elmrl_gym::Workload;

    fn engine(sessions: usize, workers: usize, config: EngineConfig) -> ServeEngine {
        let spec = Workload::CartPole.spec();
        let pool = build_workers(
            Design::OsElmL2Lipschitz,
            &spec,
            16,
            workers,
            config.max_batch,
            11,
            2,
        );
        ServeEngine::new(sessions, spec.observation_dim, pool, config)
    }

    #[test]
    fn full_batches_flush_immediately() {
        let mut engine = engine(
            8,
            1,
            EngineConfig {
                max_batch: 4,
                batch_window_us: 1_000_000, // window would hold partials ~forever
            },
        );
        let mut clock = ServeClock::virtual_clock();
        let obs = [0.0, 0.1, 0.0, -0.1];
        for s in 0..4 {
            engine.enqueue(s, &obs, clock.now_us());
        }
        let responses = engine.pump(&mut clock);
        assert_eq!(responses.len(), 4, "a full batch must not wait the window");
        assert_eq!(engine.stats().batch_size_counts[4], 1);
    }

    #[test]
    fn partial_batches_wait_out_the_window() {
        let mut engine = engine(
            8,
            1,
            EngineConfig {
                max_batch: 4,
                batch_window_us: 250, // 3 virtual rounds at 100 µs each
            },
        );
        let mut clock = ServeClock::virtual_clock();
        let obs = [0.0, 0.1, 0.0, -0.1];
        engine.enqueue(0, &obs, clock.now_us());
        assert_eq!(engine.pump(&mut clock).len(), 0, "age 100 < 250: held");
        assert_eq!(engine.pump(&mut clock).len(), 0, "age 200 < 250: held");
        let responses = engine.pump(&mut clock);
        assert_eq!(responses.len(), 1, "age 300 ≥ 250: flushed");
        assert_eq!(responses[0].latency_us, 300);
        assert_eq!(engine.stats().batch_size_counts[1], 1);
    }

    #[test]
    fn tickets_route_back_to_their_sessions() {
        let mut engine = engine(
            6,
            2,
            EngineConfig {
                max_batch: 2,
                batch_window_us: 0,
            },
        );
        let mut clock = ServeClock::virtual_clock();
        let mut tickets = Vec::new();
        for s in 0..6 {
            let obs = [s as f64 * 0.01, 0.0, 0.02, 0.0];
            tickets.push((engine.enqueue(s, &obs, clock.now_us()), s));
        }
        let responses: Vec<Response> = engine.pump(&mut clock).to_vec();
        assert_eq!(responses.len(), 6);
        for (ticket, session) in tickets {
            let r = responses
                .iter()
                .find(|r| r.ticket == ticket)
                .expect("every ticket answered");
            assert_eq!(r.session, session);
        }
        // 6 requests at max_batch 2 → 3 batches over 2 workers (2 waves).
        assert_eq!(engine.stats().batches, 3);
        assert_eq!(engine.stats().batch_size_counts[2], 3);
    }

    #[test]
    #[should_panic(expected = "already has a request in flight")]
    fn double_enqueue_is_rejected() {
        let mut engine = engine(
            2,
            1,
            EngineConfig {
                max_batch: 4,
                batch_window_us: 100,
            },
        );
        let obs = [0.0; 4];
        engine.enqueue(0, &obs, 0);
        engine.enqueue(0, &obs, 0);
    }
}
