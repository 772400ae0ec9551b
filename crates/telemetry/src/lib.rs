//! # elmrl-telemetry
//!
//! In-tree observability for the whole training/serving stack — the runtime
//! counterpart of the paper's offline read-outs (Figure 6 is a per-module
//! latency breakdown, Figure 5 a time-to-complete curve). Three pillars:
//!
//! 1. **Metric registry** ([`registry`]) — process-global counters, gauges
//!    and latency histograms (p50/p90/p99 read-out). Every metric is sharded
//!    across [`registry::SHARDS`] cache-line-padded slots indexed by a
//!    per-thread id, so the PR-4 pool and the E-parallel driver record
//!    without cache-line contention. Histograms use the one log-linear
//!    bucketing of [`log_hist`] (32 sub-buckets per octave), so a quantile
//!    is at most 1/32 below the sample it reports; the serve report keeps
//!    its latencies in the same [`LogHistogram`].
//! 2. **Spans** ([`trace`]) — [`Histogram::span`] times a region into its
//!    histogram and, when tracing is on, pushes a duration event into a
//!    preallocated per-shard ring; [`trace::export_chrome_trace`] writes the
//!    events as chrome://tracing JSON (`trace.json`, openable in Perfetto).
//! 3. **No-perturbation contract** — when disabled every record call is a
//!    single relaxed load + branch and takes **no** timestamp; when enabled
//!    the steady state performs **zero heap allocations** (metrics are
//!    registered once, a histogram shard allocates its buckets on its first
//!    enabled record, and the trace ring is preallocated at
//!    [`trace::enable_tracing`]); telemetry never touches an RNG stream or
//!    an accumulation order, so golden artefacts stay byte-identical with
//!    telemetry on. The counting-allocator tests in `elmrl-core` /
//!    `elmrl-fpga` and the golden-`cmp` CI jobs enforce all three.
//!
//! Handles are `&'static`: [`histogram`]/[`counter()`](fn@counter)/[`gauge()`](fn@gauge) get-or-create
//! by name under a mutex (allocating only on first registration), and the
//! [`hist!`]/[`counter!`]/[`gauge!`] macros cache the handle in a per-call-site
//! `OnceLock` so hot paths never touch the registry lock.
//!
//! ```
//! elmrl_telemetry::set_enabled(true);
//! let h = elmrl_telemetry::hist!("env.step");
//! {
//!     let _guard = h.span(); // records on drop
//! }
//! assert_eq!(h.count(), 1);
//! elmrl_telemetry::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod log_hist;
pub mod registry;
pub mod trace;

pub use log_hist::LogHistogram;
pub use registry::{
    counter, gauge, histogram, snapshot, summary_table, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use trace::{
    dropped_events, enable_tracing, export_chrome_trace, tracing_enabled, SpanGuard,
    DEFAULT_TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Serialises tests that toggle the process-global enabled flag.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Global on/off switch. `false` (the default) makes every record call a
/// relaxed load + branch — no timestamps, no atomics touched.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry recording is enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric recording on or off. Tracing additionally requires
/// [`trace::enable_tracing`] (which implies `set_enabled(true)`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable telemetry if the `ELMRL_TELEMETRY` environment variable is set to
/// anything but `0`/empty. Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("ELMRL_TELEMETRY") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    enabled()
}

/// Zero every registered metric and clear the trace ring (registrations and
/// preallocated buffers are kept). For benchmarks and tests; not a hot path.
pub fn reset() {
    registry::reset_values();
    trace::clear();
}

/// Cache a [`Histogram`] handle at the call site: the registry mutex is hit
/// once per call site, after which lookups are a single `OnceLock` load.
#[macro_export]
macro_rules! hist {
    ($name:expr) => {{
        static __ELMRL_HIST: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__ELMRL_HIST.get_or_init(|| $crate::histogram($name))
    }};
}

/// Cache a [`Counter`] handle at the call site (see [`hist!`]).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __ELMRL_CTR: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__ELMRL_CTR.get_or_init(|| $crate::counter($name))
    }};
}

/// Cache a [`Gauge`] handle at the call site (see [`hist!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __ELMRL_GAUGE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__ELMRL_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}
