//! Counters, gauges and log-bucketed histograms.
//!
//! A [`MetricSet`] is the mergeable value store behind recorder shards:
//! counters add, gauges keep the maximum, histograms merge bucket-wise.
//! Histograms bucket by bit length (powers of two), so recording is a
//! couple of integer instructions and merging is exact — no configuration,
//! no floating-point state, deterministic under any merge order.

use std::collections::BTreeMap;

/// Number of histogram buckets: one per bit length of a `u64`, plus the
/// zero bucket.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: 0 for zero, otherwise the value's
/// bit length (1..=64).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket: bucket `i` holds values in
/// `(bucket_upper_bound(i-1), bucket_upper_bound(i)]`.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Merges another histogram into this one (bucket-wise, exact).
    pub fn absorb(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `(inclusive upper bound, sample count)` for each non-empty bucket,
    /// in increasing bound order.
    pub(crate) fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_upper_bound(index), count))
            .collect()
    }
}

/// A mergeable set of named counters, gauges and histograms.
///
/// Metric names are `&'static str` by design: every name in the workspace
/// lives in [`crate::names`], the single source of truth the text summary,
/// the JSON schema and the docs all share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricSet {
    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Raises the named gauge to `value` if larger (high-water mark).
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        let gauge = self.gauges.entry(name).or_insert(0);
        *gauge = (*gauge).max(value);
    }

    /// Records `value` into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Merges another set into this one: counters add, gauges keep the
    /// maximum, histograms merge bucket-wise.  Exact and order-independent.
    pub fn absorb(&mut self, other: &MetricSet) {
        for (&name, &value) in &other.counters {
            self.add(name, value);
        }
        for (&name, &value) in &other.gauges {
            self.gauge_max(name, value);
        }
        for (&name, histogram) in &other.histograms {
            self.histograms.entry(name).or_default().absorb(histogram);
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(&name, &value)| (name, value))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&name, h)| (name, h))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for value in [0u64, 1, 7, 8, 1023, 1024, u64::MAX] {
            let index = bucket_index(value);
            assert!(value <= bucket_upper_bound(index));
            if index > 0 {
                assert!(value > bucket_upper_bound(index - 1));
            }
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn absorb_is_exact_and_order_independent() {
        let mut a = MetricSet::default();
        a.add("x", 2);
        a.gauge_max("g", 10);
        a.observe("h", 5);
        let mut b = MetricSet::default();
        b.add("x", 3);
        b.gauge_max("g", 7);
        b.observe("h", 900);

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["x"], 5);
        assert_eq!(ab.gauges["g"], 10);
        let h = &ab.histograms["h"];
        assert_eq!((h.count(), h.min(), h.max()), (2, 5, 900));
    }
}
