//! The process-global metric registry: counters, gauges and log2-bucketed
//! latency histograms, each sharded per thread so concurrent recorders never
//! contend on a cache line.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and allocates
//! the metric's shard array **once per name**; the returned handle is
//! `&'static` (the metric is leaked — process lifetime) and every subsequent
//! record is a shard-index lookup plus one relaxed atomic RMW. Recording is
//! gated on [`crate::enabled`] inside the metric itself, so instrumentation
//! sites stay one-liners and compile to a load + branch when telemetry is
//! off.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of per-thread shards of every metric (power of two). Threads hash
/// onto shards by an incrementing thread id, so up to `SHARDS` recorders
/// proceed without sharing a cache line.
pub const SHARDS: usize = 16;

/// Number of log2 latency buckets: bucket `b` covers `[2^b, 2^{b+1})` ns,
/// so 64 buckets span the full `u64` nanosecond range.
pub const BUCKETS: usize = 64;

/// One cache line worth of counter state (padded to avoid false sharing
/// between neighbouring shards).
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// The calling thread's registration number. `const`-initialised so the
    /// first access performs no lazy-init allocation (the counting-allocator
    /// tests record from inside the measured region).
    static THREAD_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small dense id for the current thread (assigned on first use).
#[inline]
pub(crate) fn thread_id() -> usize {
    THREAD_ID.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// The current thread's metric shard.
#[inline]
pub(crate) fn shard_index() -> usize {
    thread_id() & (SHARDS - 1)
}

/// A monotonically increasing event counter.
pub struct Counter {
    name: &'static str,
    shards: Vec<PaddedU64>,
}

impl Counter {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            shards: (0..SHARDS).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` events. No-op when telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() && n > 0 {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event. No-op when telemetry is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }

    /// Sum over all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-writer-wins instantaneous value (e.g. the current `max|P|` bound
/// of the fixed-point RLS guard).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Store a new value. No-op when telemetry is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is larger than the current value.
    /// No-op when telemetry is disabled.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if crate::enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The last stored value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// One shard of a histogram: an event count, a nanosecond sum and the 64
/// log2 buckets. Larger than a cache line, so neighbouring shards do not
/// interfere on the hot fields.
struct HistShard {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistShard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index of a nanosecond sample: `floor(log2(ns))`, with 0 ns mapped
/// into bucket 0.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (63 - ns.max(1).leading_zeros()) as usize
}

/// Representative latency of bucket `b` (its geometric midpoint, ~`1.5·2^b`).
fn bucket_mid_ns(b: usize) -> u64 {
    if b == 0 {
        1
    } else {
        (1u64 << b) + (1u64 << (b - 1))
    }
}

/// A log2-bucketed latency histogram with per-thread shards. Records are
/// O(1) and allocation-free; quantiles are computed at read time from the
/// bucket counts (so p50/p90/p99 are accurate to within a factor of √2).
pub struct Histogram {
    name: &'static str,
    shards: Vec<HistShard>,
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            shards: (0..SHARDS).map(|_| HistShard::new()).collect(),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample of `ns` nanoseconds. No-op when disabled.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if crate::enabled() {
            let shard = &self.shards[shard_index()];
            shard.count.fetch_add(1, Ordering::Relaxed);
            shard.sum_ns.fetch_add(ns, Ordering::Relaxed);
            shard.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Start a span over this histogram: the guard records the elapsed time
    /// on drop (and emits a trace event when tracing is enabled). When
    /// telemetry is disabled the guard is inert and takes no timestamp.
    #[inline]
    #[must_use = "the span records when the guard drops; binding it to `_` drops immediately"]
    pub fn span(&self) -> crate::trace::SpanGuard<'_> {
        crate::trace::SpanGuard::start(self)
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Merged bucket counts over all shards.
    fn merged_buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for shard in &self.shards {
            for (b, bucket) in shard.buckets.iter().enumerate() {
                out[b] += bucket.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Approximate `q`-quantile (0 < q ≤ 1) in nanoseconds, from the log2
    /// buckets (nearest-rank over bucket midpoints). 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let buckets = self.merged_buckets();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (b, &c) in buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_mid_ns(b);
            }
        }
        bucket_mid_ns(BUCKETS - 1)
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.count.store(0, Ordering::Relaxed);
            shard.sum_ns.store(0, Ordering::Relaxed);
            for b in &shard.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The registry: name → leaked metric. One mutex, taken only at
/// registration / read-out time (never on the record path once the call
/// site caches its handle).
#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Get or create the counter registered under `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metric registry poisoned");
    reg.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new(name))))
}

/// Get or create the gauge registered under `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metric registry poisoned");
    reg.gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new(name))))
}

/// Get or create the histogram registered under `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metric registry poisoned");
    reg.histograms
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(name))))
}

/// Zero every registered metric (registrations are kept).
pub(crate) fn reset_values() {
    let reg = registry().lock().expect("metric registry poisoned");
    for c in reg.counters.values() {
        c.reset();
    }
    for g in reg.gauges.values() {
        g.reset();
    }
    for h in reg.histograms.values() {
        h.reset();
    }
}

/// Read-out of one histogram: count, total and nearest-rank quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded nanoseconds.
    pub total_ns: u64,
    /// Approximate median latency in nanoseconds.
    pub p50_ns: u64,
    /// Approximate 90th-percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// Approximate 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
}

/// A point-in-time read-out of the whole registry, in name order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// All counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// All gauges as `(name, value)`.
    pub gauges: Vec<(String, i64)>,
}

impl MetricsSnapshot {
    /// Serialise to a stable, pretty-printed JSON document (the
    /// `--metrics-out` file format; `version` guards against schema drift).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                escape(&h.name),
                h.count,
                h.total_ns,
                h.p50_ns,
                h.p90_ns,
                h.p99_ns
            );
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"value\": {value}}}",
                escape(name)
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"value\": {value}}}",
                escape(name)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Look up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Snapshot every registered metric, in name order.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metric registry poisoned");
    MetricsSnapshot {
        histograms: reg
            .histograms
            .values()
            .map(|h| HistogramSnapshot {
                name: h.name().to_string(),
                count: h.count(),
                total_ns: h.total_ns(),
                p50_ns: h.quantile_ns(0.50),
                p90_ns: h.quantile_ns(0.90),
                p99_ns: h.quantile_ns(0.99),
            })
            .collect(),
        counters: reg
            .counters
            .values()
            .map(|c| (c.name().to_string(), c.value()))
            .collect(),
        gauges: reg
            .gauges
            .values()
            .map(|g| (g.name().to_string(), g.value()))
            .collect(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The Fig-6-style per-module latency table (histograms sorted by total
/// time, then counters and gauges), ready to print on exit.
pub fn summary_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str("== telemetry: per-module latency ==\n");
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "module", "count", "total", "p50", "p90", "p99"
    );
    let mut hists: Vec<&HistogramSnapshot> =
        snap.histograms.iter().filter(|h| h.count > 0).collect();
    hists.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    for h in hists {
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>10} {:>10} {:>10}",
            h.name,
            h.count,
            fmt_ns(h.total_ns),
            fmt_ns(h.p50_ns),
            fmt_ns(h.p90_ns),
            fmt_ns(h.p99_ns)
        );
    }
    let counters: Vec<&(String, u64)> = snap.counters.iter().filter(|(_, v)| *v > 0).collect();
    if !counters.is_empty() {
        out.push_str("== telemetry: counters ==\n");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    let gauges: Vec<&(String, i64)> = snap.gauges.iter().filter(|(_, v)| *v != 0).collect();
    if !gauges.is_empty() {
        out.push_str("== telemetry: gauges ==\n");
        for (name, value) in gauges {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::TEST_FLAG_LOCK as FLAG_LOCK;

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let out = f();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn disabled_records_are_no_ops() {
        let _guard = FLAG_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let c = counter("test.disabled_counter");
        let h = histogram("test.disabled_hist");
        c.add(5);
        h.record_ns(100);
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn counter_and_gauge_record_when_enabled() {
        with_enabled(|| {
            let c = counter("test.counter");
            c.reset();
            c.add(3);
            c.inc();
            assert_eq!(c.value(), 4);
            let g = gauge("test.gauge");
            g.reset();
            g.set(7);
            g.set_max(3);
            assert_eq!(g.value(), 7);
            g.set_max(11);
            assert_eq!(g.value(), 11);
        });
    }

    #[test]
    fn histogram_quantiles_track_the_buckets() {
        with_enabled(|| {
            let h = histogram("test.hist");
            h.reset();
            // 90 fast samples (~1 us) and 10 slow ones (~1 ms).
            for _ in 0..90 {
                h.record_ns(1_000);
            }
            for _ in 0..10 {
                h.record_ns(1_000_000);
            }
            assert_eq!(h.count(), 100);
            assert_eq!(h.total_ns(), 90 * 1_000 + 10 * 1_000_000);
            let p50 = h.quantile_ns(0.50);
            assert!((512..2_048).contains(&p50), "p50 = {p50}");
            let p99 = h.quantile_ns(0.99);
            assert!((524_288..2_097_152).contains(&p99), "p99 = {p99}");
        });
    }

    #[test]
    fn registration_is_idempotent() {
        let a = counter("test.same") as *const Counter;
        let b = counter("test.same") as *const Counter;
        assert_eq!(a, b);
        let h1 = histogram("test.same_h") as *const Histogram;
        let h2 = histogram("test.same_h") as *const Histogram;
        assert_eq!(h1, h2);
    }

    #[test]
    fn snapshot_and_summary_cover_registered_metrics() {
        with_enabled(|| {
            let h = histogram("test.snap_hist");
            h.reset();
            h.record_ns(5_000);
            let c = counter("test.snap_counter");
            c.reset();
            c.add(2);
            let snap = snapshot();
            let hs = snap.histogram("test.snap_hist").expect("registered");
            assert_eq!(hs.count, 1);
            assert_eq!(hs.total_ns, 5_000);
            assert!(hs.p50_ns > 0 && hs.p99_ns >= hs.p50_ns);
            assert_eq!(snap.counter("test.snap_counter"), Some(2));
            let table = summary_table();
            assert!(table.contains("test.snap_hist"));
            assert!(table.contains("test.snap_counter"));
            let json = snap.to_json();
            assert!(json.contains("\"version\": 1"));
            assert!(json.contains("\"test.snap_hist\""));
        });
    }

    #[test]
    fn names_order_the_snapshot() {
        let _ = histogram("test.order_b");
        let _ = histogram("test.order_a");
        let snap = snapshot();
        let names: Vec<&str> = snap
            .histograms
            .iter()
            .map(|h| h.name.as_str())
            .filter(|n| n.starts_with("test.order_"))
            .collect();
        assert_eq!(names, vec!["test.order_a", "test.order_b"]);
    }
}
