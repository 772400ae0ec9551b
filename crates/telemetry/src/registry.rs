//! The process-global metric registry: counters, gauges and log-linear
//! latency histograms, each sharded per thread so concurrent recorders never
//! contend on a cache line.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and allocates
//! the metric's shard array **once per name** (a histogram shard's buckets
//! wait for its first enabled record); the returned handle is `&'static`
//! (the metric is leaked — process lifetime) and every subsequent record is
//! a shard-index lookup plus relaxed atomic RMWs. Recording is
//! gated on [`crate::enabled`] inside the metric itself, so instrumentation
//! sites stay one-liners and compile to a load + branch when telemetry is
//! off.

use crate::log_hist::{bucket_index, LogHistogram, BUCKET_COUNT};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of per-thread shards of every metric (power of two). Threads hash
/// onto shards by an incrementing thread id, so up to `SHARDS` recorders
/// proceed without sharing a cache line.
pub const SHARDS: usize = 16;

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

    /// The last stored value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// One shard of a histogram: an event count, a nanosecond sum and the
/// log-linear buckets. The buckets (15 KiB) are allocated on the shard's
/// first record with telemetry on, so a histogram that `hist!` registers
/// but never records into holds none. Cache-line aligned so neighbouring
/// shards' counts do not share a line.
#[repr(align(64))]
#[derive(Default)]
struct HistShard {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: OnceLock<Box<[AtomicU64]>>,
}

/// A latency histogram with per-thread shards in the [`crate::log_hist`]
/// layout. Records are O(1) and, after a shard's first, allocation-free;
/// p50/p90/p99 are read from the merged shards, each within 1/32 below the
/// sample it reports.
pub struct Histogram {
    name: &'static str,
    shards: Vec<HistShard>,
}

impl Histogram {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            shards: (0..SHARDS).map(|_| HistShard::default()).collect(),
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
            let buckets = shard
                .buckets
                .get_or_init(|| (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect());
            buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
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

    /// The bucket counts of every shard, merged into one plain histogram
    /// (its quantiles are this histogram's; its sum and max are unset).
    fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::default();
        for buckets in self.shards.iter().filter_map(|s| s.buckets.get()) {
            for (i, b) in buckets.iter().enumerate() {
                out.add_to_bucket(i, b.load(Ordering::Relaxed));
            }
        }
        out
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.count.store(0, Ordering::Relaxed);
            shard.sum_ns.store(0, Ordering::Relaxed);
            for b in shard.buckets.get().into_iter().flatten() {
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
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
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
    /// Median latency in nanoseconds (bucket floor, within 1/32 below).
    pub p50_ns: u64,
    /// 90th-percentile latency in nanoseconds (bucket floor).
    pub p90_ns: u64,
    /// 99th-percentile latency in nanoseconds (bucket floor).
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
            .map(|h| {
                let merged = h.merged();
                HistogramSnapshot {
                    name: h.name().to_string(),
                    count: h.count(),
                    total_ns: h.total_ns(),
                    p50_ns: merged.quantile(0.50),
                    p90_ns: merged.quantile(0.90),
                    p99_ns: merged.quantile(0.99),
                }
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
            assert_eq!(g.value(), 7);
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
            // Bucket floors: 1,000 lies in [992, 1,008) and 10⁶ in
            // [999,424, 1,015,808).
            assert_eq!(h.merged().quantile(0.50), 992);
            assert_eq!(h.merged().quantile(0.90), 992);
            assert_eq!(h.merged().quantile(0.99), 999_424);
        });
    }

    #[test]
    fn buckets_wait_for_the_first_enabled_record() {
        let _guard = FLAG_LOCK.lock().unwrap();
        let h = histogram("test.lazy_buckets");
        let allocated = || {
            h.shards
                .iter()
                .filter(|s| s.buckets.get().is_some())
                .count()
        };
        crate::set_enabled(false);
        h.record_ns(100);
        assert_eq!(allocated(), 0, "registered and recorded while off");
        crate::set_enabled(true);
        h.record_ns(100);
        crate::set_enabled(false);
        assert_eq!(allocated(), 1, "only the recording thread's shard");
        assert_eq!(h.merged().quantile(1.0), 100);
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
