//! Deterministic serve-side statistics: the latency histogram and the
//! aggregate counters behind the `serve.json` report.
//!
//! The serve report is a *result artifact* — golden-`cmp`'d in CI — so its
//! latencies are recorded always (not only under `--telemetry`), without
//! allocating, and bit-deterministically, in the workspace's one log-linear
//! [`LogHistogram`]: exact to 64 µs, then within 1/32 below each sample,
//! read by nearest rank (the convention of
//! `elmrl_population::QuantileSummary`). Mean and max are exact. The
//! virtual-clock latencies the golden reports (100 and 200 µs, one and two
//! [`crate::clock::VIRTUAL_ROUND_US`]) are bucket floors, so read exactly.

use elmrl_telemetry::LogHistogram;
use serde::Serialize;

/// Serialized latency digest: nearest-rank p50/p90/p99 (bucket floors, µs).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of responses measured.
    pub count: u64,
    /// Mean enqueue→response latency (µs).
    pub mean_us: f64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 90th-percentile latency (µs).
    pub p90_us: u64,
    /// 99th-percentile tail latency (µs).
    pub p99_us: u64,
    /// Worst observed latency (µs, exact).
    pub max_us: u64,
}

impl LatencySummary {
    /// The summary of a histogram of µs latencies.
    pub fn of(latency: &LogHistogram) -> Self {
        Self {
            count: latency.count(),
            mean_us: latency.mean(),
            p50_us: latency.quantile(0.50),
            p90_us: latency.quantile(0.90),
            p99_us: latency.quantile(0.99),
            max_us: latency.max(),
        }
    }
}

/// Aggregate engine counters, updated in place by the hot loop (all storage
/// preallocated at construction).
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests accepted by [`crate::ServeEngine::enqueue`].
    pub requests: u64,
    /// Responses routed back to sessions.
    pub responses: u64,
    /// Coalesced batches dispatched to workers.
    pub batches: u64,
    /// `batch_size_counts[b]` = number of dispatched batches of size `b`
    /// (length `max_batch + 1`).
    pub batch_size_counts: Vec<u64>,
    /// Enqueue→response latency distribution (µs).
    pub latency: LogHistogram,
    /// Deepest queue observed at a round boundary.
    pub queue_depth_peak: usize,
}

impl ServeStats {
    /// Empty stats for a given batch-size cap.
    pub fn new(max_batch: usize) -> Self {
        Self {
            requests: 0,
            responses: 0,
            batches: 0,
            batch_size_counts: vec![0; max_batch + 1],
            latency: LogHistogram::default(),
            queue_depth_peak: 0,
        }
    }

    /// Mean dispatched batch size (0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.responses as f64 / self.batches as f64
        }
    }

    /// The non-empty `(size, count)` pairs, smallest size first — the
    /// report's batch-composition table (kept as a struct list; the JSON
    /// shim only supports string map keys).
    pub fn batch_size_buckets(&self) -> Vec<BatchSizeBucket> {
        self.batch_size_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(size, &count)| BatchSizeBucket { size, count })
            .collect()
    }
}

/// One row of the batch-composition table.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct BatchSizeBucket {
    /// Dispatched batch size.
    pub size: usize,
    /// How many batches of exactly this size ran.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_in_linear_range() {
        // Buckets are 1 µs wide up to 64 µs.
        let mut h = LogHistogram::default();
        for us in 1..=64u64 {
            h.record(us);
        }
        let s = LatencySummary::of(&h);
        assert_eq!((s.count, s.p50_us, s.p90_us, s.p99_us), (64, 32, 58, 64));
        assert_eq!(s.max_us, 64);
        assert!((s.mean_us - 32.5).abs() < 1e-12);
    }

    #[test]
    fn tail_values_keep_one_32nd_precision() {
        let mut h = LogHistogram::default();
        h.record(5_000); // [4,992, 5,120): 128 µs sub-buckets in 2^12..2^13
        h.record(1_000_000);
        let s = LatencySummary::of(&h);
        assert_eq!((s.p50_us, s.p99_us), (4_992, 999_424));
        assert_eq!(s.max_us, 1_000_000);
        assert!((s.mean_us - 502_500.0).abs() < 1e-9);
        // The sum saturates instead of overflowing; max stays exact.
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = LatencySummary::of(&LogHistogram::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.max_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn batch_size_buckets_skip_empty_sizes() {
        let mut stats = ServeStats::new(8);
        stats.batch_size_counts[1] = 3;
        stats.batch_size_counts[8] = 2;
        stats.batches = 5;
        stats.responses = 19;
        assert_eq!(
            stats.batch_size_buckets(),
            vec![
                BatchSizeBucket { size: 1, count: 3 },
                BatchSizeBucket { size: 8, count: 2 },
            ]
        );
        assert!((stats.mean_batch_size() - 3.8).abs() < 1e-12);
    }
}
