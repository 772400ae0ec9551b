//! The workspace's one latency bucketing: a log-linear histogram with bounded
//! relative error, in the spirit of HdrHistogram (G. Tene) and DDSketch
//! (Masson, Rim & Lee, VLDB 2019).
//!
//! Values below 32 get a bucket each; every octave `[2^e, 2^(e+1))` above
//! splits into 32 equal sub-buckets, so 1,920 buckets cover all of `u64` and
//! values ≤ 64 are exact. A quantile is read by nearest rank `⌈q·N⌉` as the
//! lower bound v̂ of that sample's bucket, so every reported v̂ of a sample v
//! satisfies `v̂ ≤ v < v̂·(1 + 1/32)`. [`LogHistogram`] is the plain form the
//! serve report keeps; the registry's [`crate::Histogram`] keeps per-thread
//! atomic shards in the same layout and merges them into a [`LogHistogram`]
//! to read its quantiles.

/// log₂ of the sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (and the number of unit buckets below 32).
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Buckets over the whole `u64` range: 32 unit buckets, then 32 for each
/// octave `e = 5..=63`.
pub(crate) const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Index of the bucket that holds `v`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    (e - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Lower bound of bucket `i`: the value a quantile read reports.
fn bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let e = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
    ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << (e - SUB_BITS)
}

/// A log-linear histogram of `u64` values (any unit) with an exact count,
/// sum and maximum. All buckets are allocated at construction, so
/// [`LogHistogram::record`] never allocates.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    /// An empty histogram.
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKET_COUNT].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Record one value. The sum saturates at `u64::MAX`, so a pathological
    /// value degrades the mean instead of panicking.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Add `n` samples to bucket `i` without touching the sum or maximum —
    /// the merge of the registry's shards, which read quantiles only.
    pub(crate) fn add_to_bucket(&mut self, i: usize, n: u64) {
        self.buckets[i] += n;
        self.count += n;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value, exactly (not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank `q`-quantile (0 < q ≤ 1): the lower bound of the bucket
    /// that holds the sample of rank `⌈q·N⌉` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        unreachable!("the buckets hold all {} samples", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reported value of a single sample `v`.
    fn read(v: u64) -> u64 {
        bucket_floor(bucket_index(v))
    }

    #[test]
    fn every_octave_edge_is_within_one_32nd() {
        let mut samples = vec![0, 1, 64, u64::MAX];
        for e in 1..64 {
            samples.extend([(1u64 << e) - 1, 1u64 << e]);
        }
        for v in samples {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT, "{v} → bucket {i}");
            let got = read(v);
            if v <= 64 {
                assert_eq!(got, v, "values ≤ 64 are exact");
            } else {
                // v̂ ≤ v < v̂·(1 + 1/32), in integers: 32·(v − v̂) < v̂.
                assert!(got <= v, "{got} > {v}");
                assert!(32 * (v - got) < got, "{v} read as {got}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(read(u64::MAX), 63 << 58);
        // Floors rise strictly, so the buckets tile `u64` without overlap.
        assert!((1..BUCKET_COUNT).all(|i| bucket_floor(i - 1) < bucket_floor(i)));
        assert!((0..BUCKET_COUNT).all(|i| bucket_index(bucket_floor(i)) == i));
    }

    #[test]
    fn quantiles_are_bucket_floors_of_the_exact_nearest_rank() {
        // splitmix64, shifted by a varying amount so the samples span every
        // octave rather than clustering near 2^63.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in [1usize, 2, 7, 100, 1_001] {
            let mut h = LogHistogram::default();
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let x = next();
                    x >> (x % 64)
                })
                .collect();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            for q in [0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                assert_eq!(h.quantile(q), read(samples[rank - 1]), "n = {n}, q = {q}");
            }
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.max(), samples[n - 1]);
        }
    }
}
