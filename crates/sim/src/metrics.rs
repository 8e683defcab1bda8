//! Measurement utilities: duration histograms with quantiles and counters.
//!
//! These are simulation-side metrics (virtual-time latencies, message
//! counts), not host-side profiling. The histogram keeps raw samples —
//! experiments here record at most a few hundred thousand points, so exact
//! quantiles are affordable and simpler than a sketch.

use crate::time::SimDuration;
use std::fmt;

/// Exact-quantile histogram of durations.
#[derive(Clone, Debug, Default)]
pub struct DurationHistogram {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl DurationHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Quantile `q` in [0, 1] (nearest-rank). `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        Some(self.samples[idx])
    }

    /// Arithmetic mean. `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    /// Smallest sample.
    pub(crate) fn min(&mut self) -> Option<SimDuration> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Largest sample.
    pub(crate) fn max(&mut self) -> Option<SimDuration> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Summary snapshot (mean/p50/p90/p99/min/max).
    pub fn summary(&mut self) -> HistogramSummary {
        HistogramSummary {
            count: self.len(),
            mean: self.mean().unwrap_or(SimDuration::ZERO),
            p50: self.quantile(0.50).unwrap_or(SimDuration::ZERO),
            p90: self.quantile(0.90).unwrap_or(SimDuration::ZERO),
            p99: self.quantile(0.99).unwrap_or(SimDuration::ZERO),
            min: self.min().unwrap_or(SimDuration::ZERO),
            max: self.max().unwrap_or(SimDuration::ZERO),
        }
    }

    /// All samples (unsorted order of recording is not preserved once a
    /// quantile has been asked for).
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

/// Point-in-time summary of a histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} min={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let mut h = DurationHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn quantiles_exact() {
        let mut h = DurationHistogram::new();
        // Insert 1..=100 ms shuffled-ish.
        for i in (1..=100u64).rev() {
            h.record(SimDuration::from_millis(i));
        }
        assert_eq!(h.quantile(0.0), Some(SimDuration::from_millis(1)));
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_millis(100)));
        let p50 = h.quantile(0.5).unwrap();
        assert!((SimDuration::from_millis(50)..=SimDuration::from_millis(51)).contains(&p50));
        assert_eq!(h.mean(), Some(SimDuration::from_nanos(50_500_000)));
        assert_eq!(h.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn recording_after_sorting_is_fine() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_millis(10));
        let _ = h.quantile(0.5);
        h.record(SimDuration::from_millis(1));
        assert_eq!(h.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn summary_display_is_readable() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_millis(5));
        let text = h.summary().to_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("mean=5.000ms"));
    }
}
