//! Quantile estimation for tail-latency (p95) tracking.
//!
//! Two estimators with different memory/accuracy trade-offs:
//!
//! - [`ExactQuantiles`] stores every sample; exact, the reference the
//!   histogram's error bound is tested against.
//! - [`LatencyHistogram`] is an HDR-style geometric-bucket histogram with
//!   bounded relative error; used for 48-hour runs with tens of millions of
//!   samples.

use serde::{Deserialize, Serialize};

/// Exact quantile computation over a stored sample buffer.
#[derive(Debug, Clone, Default)]
pub struct ExactQuantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl ExactQuantiles {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        ExactQuantiles {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method.
    /// Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Sample mean. Returns `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

/// Floor and relative precision of [`LatencyHistogram`]: 10 µs, 1%.
const LATENCY_FLOOR_S: f64 = 1e-5;
const LATENCY_PRECISION: f64 = 0.01;

/// A [`BucketTable`] covers values below `2^TABLE_MAX_EXP` (about 12 days
/// in seconds) from the binary octave holding the floor up; larger values
/// take the logarithm.
const TABLE_MAX_EXP: i32 = 20;
/// Each binary octave splits into `2^SLOT_BITS` slots. One slot spans a
/// ratio of `2^(1/128) ≈ 1.0054`, under the 1% bucket ratio, so it holds
/// at most one bucket edge.
const SLOT_BITS: u32 = 7;

/// The bucket `floor(log(x / min) / log_base) + 1` of `x`, 0 at or below
/// `min` — the histogram's defining formula.
fn log_bucket(min_value: f64, log_base: f64, x: f64) -> usize {
    if x <= min_value {
        0
    } else {
        ((x / min_value).ln() / log_base) as usize + 1
    }
}

/// Exact bucket edges of the histogram, so recording a value is a table
/// lookup and one comparison instead of a logarithm. Each edge is the float
/// where [`log_bucket`] itself steps up, found once by walking ulps from the
/// analytic edge, so lookups agree with the formula bit for bit.
struct BucketTable {
    /// `ln(1 + precision)`, the log-width of one bucket.
    log_base: f64,
    /// `edges[b]` is the smallest value in bucket `b` or above (`b ≥ 1`);
    /// `edges[0]` is the floor and a final `+inf` bounds the last bucket.
    edges: Vec<f64>,
    /// Bucket of each slot's smallest value, slots counted from the octave
    /// holding the floor.
    first: Vec<u16>,
    /// Slot index of that octave's first slot, from the float's top bits.
    slot_base: usize,
}

impl BucketTable {
    fn new(min_value: f64, log_base: f64) -> Self {
        let bucket = |x: f64| log_bucket(min_value, log_base, x);
        let top = 2f64.powi(TABLE_MAX_EXP);
        let n = bucket(top.next_down());
        assert!(n < u16::MAX as usize, "bucket table too large");
        let mut edges = Vec::with_capacity(n + 2);
        edges.push(min_value);
        for b in 1..=n {
            let mut x = min_value * ((b - 1) as f64 * log_base).exp();
            while bucket(x) >= b {
                x = x.next_down();
            }
            while bucket(x) < b {
                x = x.next_up();
            }
            edges.push(x);
        }
        edges.push(f64::INFINITY);
        let slot_of = |x: f64| (x.to_bits() >> (52 - SLOT_BITS)) as usize;
        let slot_base = slot_of(min_value) & !((1 << SLOT_BITS) - 1);
        let slot_floor = |s: usize| f64::from_bits((s as u64) << (52 - SLOT_BITS));
        let first = (slot_base..slot_of(top))
            .map(|s| {
                let b = edges[1..=n].partition_point(|&e| e <= slot_floor(s));
                assert!(
                    edges.get(b + 2).is_none_or(|&e| e >= slot_floor(s + 1)),
                    "a slot holds two bucket edges"
                );
                b as u16
            })
            .collect();
        BucketTable {
            log_base,
            edges,
            first,
            slot_base,
        }
    }

    /// The bucket of `x > edges[0]`, or `None` past the table's range.
    #[inline]
    fn bucket(&self, x: f64) -> Option<usize> {
        let slot = ((x.to_bits() >> (52 - SLOT_BITS)) as usize).wrapping_sub(self.slot_base);
        let b = *self.first.get(slot)? as usize;
        // Branch-free: whether `x` clears the slot's one possible edge.
        Some(b + usize::from(x >= self.edges[b + 1]))
    }
}

impl std::fmt::Debug for BucketTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BucketTable({} buckets)", self.edges.len() - 2)
    }
}

/// The histogram's table, built on first use and shared by every histogram.
fn latency_table() -> &'static BucketTable {
    static TABLE: std::sync::OnceLock<BucketTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| BucketTable::new(LATENCY_FLOOR_S, (1.0 + LATENCY_PRECISION).ln()))
}

/// Geometric-bucket latency histogram with bounded relative error.
///
/// Values are bucketed as `floor(log(x / 10 µs) / log(1.01))`, so any
/// quantile estimate is within 1% of the true value. Covers `[10 µs, +inf)`;
/// values at or below the floor land in bucket 0. Buckets are found in a
/// precomputed table of the formula's exact edges; values past the table
/// (about 12 days) evaluate the logarithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max_seen: f64,
    table: &'static BucketTable,
}

impl LatencyHistogram {
    /// An empty histogram for request latencies: 10 µs floor, 1% error.
    pub fn for_latency() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max_seen: 0.0,
            table: latency_table(),
        }
    }

    #[inline]
    fn bucket_of(&self, x: f64) -> usize {
        if x <= LATENCY_FLOOR_S {
            return 0;
        }
        self.table
            .bucket(x)
            .unwrap_or_else(|| log_bucket(LATENCY_FLOOR_S, self.table.log_base, x))
    }

    fn bucket_value(&self, idx: usize) -> f64 {
        if idx == 0 {
            LATENCY_FLOOR_S
        } else {
            // Midpoint (geometric) of the bucket.
            LATENCY_FLOOR_S * ((idx as f64 - 0.5) * self.table.log_base).exp()
        }
    }

    /// Records one value.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite() && x >= 0.0);
        let b = self.bucket_of(x);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += x;
        self.max_seen = self.max_seen.max(x);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// The `q`-quantile estimate. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return None;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bucket_value(i).min(self.max_seen));
            }
        }
        Some(self.max_seen)
    }

    /// Adds another histogram's values to this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Clears all recorded values.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0.0;
        self.max_seen = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn exact_quantiles_nearest_rank() {
        let mut e = ExactQuantiles::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0] {
            e.record(x);
        }
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(0.5), Some(5.0));
        assert_eq!(e.quantile(0.95), Some(10.0));
        assert_eq!(e.quantile(1.0), Some(10.0));
        assert_eq!(e.mean(), Some(5.5));
        e.clear();
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
    }

    #[test]
    fn exact_quantiles_unsorted_input() {
        let mut e = ExactQuantiles::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            e.record(x);
        }
        assert_eq!(e.quantile(0.2), Some(1.0));
        assert_eq!(e.quantile(0.8), Some(4.0));
        assert_eq!(e.count(), 5);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = LatencyHistogram::for_latency();
        let mut exact = ExactQuantiles::new();
        let mut rng = SimRng::new(77);
        for _ in 0..200_000 {
            // Latencies between ~1 ms and ~1 s, lognormal-ish.
            let x = (0.01 * (rng.normal() * 0.8).exp()).clamp(1e-4, 10.0);
            h.record(x);
            exact.record(x);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            let est = h.quantile(q).unwrap();
            let truth = exact.quantile(q).unwrap();
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.02, "q={q}: est {est} truth {truth} rel {rel}");
        }
        assert_eq!(h.count(), 200_000);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_edge_cases() {
        let mut h = LatencyHistogram::for_latency();
        assert_eq!(h.quantile(0.95), None);
        h.record(0.0); // below floor -> bucket 0, clamped to max_seen
        assert_eq!(h.quantile(0.5), Some(0.0));
        h.record(100.0);
        assert!(h.quantile(1.0).unwrap() <= 100.0);
        assert_eq!(h.max(), 100.0);
        h.clear();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn table_buckets_match_the_logarithm_everywhere() {
        let h = LatencyHistogram::for_latency();
        let table = h.table;
        let formula = |x: f64| log_bucket(LATENCY_FLOOR_S, table.log_base, x);
        // Around every edge, where a lookup could disagree with the formula.
        for &edge in &table.edges[1..table.edges.len() - 1] {
            let mut x = edge;
            for _ in 0..64 {
                x = x.next_down();
            }
            for _ in 0..128 {
                assert_eq!(h.bucket_of(x), formula(x), "x = {x:e}");
                x = x.next_up();
            }
        }
        // Log-uniform values from below the floor to past the table.
        let mut rng = SimRng::new(11);
        for _ in 0..100_000 {
            let x = 10f64.powf(rng.range_f64(-7.0, 8.0));
            assert_eq!(h.bucket_of(x), formula(x), "x = {x:e}");
        }
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = LatencyHistogram::for_latency();
        let mut b = LatencyHistogram::for_latency();
        let mut whole = LatencyHistogram::for_latency();
        let mut rng = SimRng::new(5);
        for i in 0..10_000 {
            let x = 0.001 + rng.f64();
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.95), whole.quantile(0.95));
    }
}
