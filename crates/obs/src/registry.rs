//! Metrics registry: named counters and fixed-bucket log2 histograms.
//! `BTreeMap`-keyed so iteration (and therefore every exported rendering)
//! is deterministic.

use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram over `u64` observations. Bucket `0` holds
/// zeros; bucket `i >= 1` holds values in `[2^(i-1), 2^i)`. Fixed storage,
/// no allocation per observation — cheap enough to stay compiled-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value: `0` for zero, else `log2(v) + 1`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied buckets as `(lower_bound_inclusive, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// Named counters and histograms for one query run. Single-owner
/// (the driver) and `&mut`-updated: the parallel workers never touch it, so
/// there is no synchronization on the hot path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A human-readable dump (name-ordered, hence deterministic for
    /// deterministic contents).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "histogram {name}: count {} sum {} mean {:.1}",
                h.count(),
                h.sum(),
                h.mean()
            ));
            for (lo, c) in h.nonzero_buckets() {
                out.push_str(&format!(" [{lo}+]={c}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_accumulates() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.count("morsels", 2);
        r.count("morsels", 3);
        r.observe("span_us", 100);
        r.observe("span_us", 200);
        assert_eq!(r.counters().collect::<Vec<_>>(), [("morsels", 5)]);
        assert_eq!(r.histogram("span_us").unwrap().count(), 2);
        let text = r.text();
        assert!(text.contains("counter morsels = 5"), "{text}");
        assert!(
            text.contains("histogram span_us: count 2 sum 300"),
            "{text}"
        );
    }
}
