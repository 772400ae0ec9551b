//! The `serve.json` result artifact: configuration echo, throughput,
//! batch composition, latency digest and client-side episode statistics.
//!
//! Everything except the two wall-clock fields is a pure function of the
//! configuration and seed, so a virtual-clock run serialized with
//! `zero_wall_time` (the harness's `ELMRL_ZERO_WALL_TIME` convention) is
//! byte-identical across hosts and `--workers` values — the CI golden.

use crate::session::SessionStats;
use crate::stats::{BatchSizeBucket, LatencySummary, ServeStats};
use crate::ServeConfig;
use serde::Serialize;

/// The serialized outcome of one serve run.
#[derive(Clone, Debug, Serialize)]
pub struct ServeReport {
    /// Workload slug the sessions ran.
    pub workload: String,
    /// Served design label.
    pub design: String,
    /// Hidden width of the served policy.
    pub hidden_dim: usize,
    /// Number of client sessions.
    pub sessions: usize,
    /// Number of agent workers.
    pub workers: usize,
    /// Batch-size cap (`--max-batch`).
    pub max_batch: usize,
    /// Latency budget (`--batch-window-us`).
    pub batch_window_us: u64,
    /// Engine rounds driven (`--duration-ticks`).
    pub duration_ticks: u64,
    /// Master seed.
    pub seed: u64,
    /// Whether the deterministic virtual clock was used.
    pub virtual_clock: bool,
    /// Maximum think-time rounds between a response and the session's next
    /// request (0 = closed loop).
    pub think_ticks: u64,
    /// Warm-up training episodes behind the served policy.
    pub warmup_episodes: usize,
    /// Requests accepted.
    pub requests: u64,
    /// Responses routed back.
    pub responses: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
    /// Batch-composition table (non-empty sizes only).
    pub batch_sizes: Vec<BatchSizeBucket>,
    /// Enqueue→response latency digest on the engine clock.
    pub latency: LatencySummary,
    /// Deepest request queue observed at a round boundary.
    pub queue_depth_peak: usize,
    /// Client-side episodes finished across all sessions.
    pub episodes_completed: u64,
    /// Client-side environment steps across all sessions.
    pub env_steps: u64,
    /// Mean return per completed episode (`None` before any completes).
    pub mean_episode_return: Option<f64>,
    /// Host wall-clock seconds of the serve loop (0 when zeroed for golden
    /// comparison).
    pub wall_seconds: f64,
    /// Responses per host wall-clock second (0 when zeroed).
    pub requests_per_second: f64,
}

impl ServeReport {
    /// Assemble the artifact. `wall_seconds` is the measured loop time;
    /// pass `zero_wall_time` to blank both host-dependent fields (the
    /// harness sets it from `ELMRL_ZERO_WALL_TIME`).
    pub fn assemble(
        config: &ServeConfig,
        engine_stats: &ServeStats,
        session_stats: &SessionStats,
        wall_seconds: f64,
        zero_wall_time: bool,
    ) -> Self {
        let (wall_seconds, requests_per_second) = if zero_wall_time || wall_seconds <= 0.0 {
            (0.0, 0.0)
        } else {
            (wall_seconds, engine_stats.responses as f64 / wall_seconds)
        };
        Self {
            workload: config.workload_slug.clone(),
            design: config.design.label().to_string(),
            hidden_dim: config.hidden_dim,
            sessions: config.sessions,
            workers: config.workers,
            max_batch: config.max_batch,
            batch_window_us: config.batch_window_us,
            duration_ticks: config.duration_ticks,
            seed: config.seed,
            virtual_clock: config.virtual_clock,
            think_ticks: config.think_ticks,
            warmup_episodes: config.warmup_episodes,
            requests: engine_stats.requests,
            responses: engine_stats.responses,
            batches: engine_stats.batches,
            mean_batch_size: engine_stats.mean_batch_size(),
            batch_sizes: engine_stats.batch_size_buckets(),
            latency: LatencySummary::of(&engine_stats.latency),
            queue_depth_peak: engine_stats.queue_depth_peak,
            episodes_completed: session_stats.episodes_completed,
            env_steps: session_stats.env_steps,
            mean_episode_return: session_stats.mean_episode_return(),
            wall_seconds,
            requests_per_second,
        }
    }
}
