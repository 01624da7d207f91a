//! Order statistics and the tail-percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it. Percentiles are
//! written in basis points of a percent (`9900` = p99) so the rule is exact
//! integer arithmetic, with no float rounding at the boundary.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in hundredths of a percent, highest first.
pub const TAIL_CANDIDATES: [u32; 5] = [9999, 9990, 9900, 9500, 9000];

/// p95 in hundredths of a percent.
pub const P95: u32 = 9500;

/// p99 in hundredths of a percent.
pub const P99: u32 = 9900;

/// p99.9 in hundredths of a percent.
pub const P999: u32 = 9990;

/// How many of `n` samples lie beyond the `p`-th percentile (`p` in
/// hundredths of a percent).
pub fn samples_beyond(n: usize, p: u32) -> usize {
    assert!(p <= 10_000, "percentile above 100");
    n * (10_000 - p as usize) / 10_000
}

/// Whether `n` samples are enough to report the `p`-th percentile.
pub fn supports(n: usize, p: u32) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is not supported (fewer than 100
/// samples).
pub fn highest_supported(n: usize) -> Option<u32> {
    TAIL_CANDIDATES.into_iter().find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending slice (`p` in hundredths of a
/// percent). Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(10_000).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latency samples cut into consecutive windows of wall time, each
/// summarised by its median and p95. Interference from other tenants of the
/// host comes in episodes of a fraction of a second to a few seconds and
/// slows a CPU-bound loop by up to half; a quantile over windows below the
/// median ([`Windowed::quiet`]) reads the program's own latency whether or
/// not such an episode covered most of a run.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    samples: Vec<f64>,
    opened: Option<std::time::Instant>,
    /// Median of each closed window.
    pub p50: Vec<f64>,
    /// p95 of each closed window.
    pub p95: Vec<f64>,
}

/// Wall time of one window.
pub const WINDOW: std::time::Duration = std::time::Duration::from_millis(100);

/// Fewest samples a window needs to be kept (fifty beyond its p95).
pub const WINDOW_MIN_SAMPLES: usize = 1000;

/// The quantile over windows that [`Windowed::quiet`] reports: the lower
/// quartile, so up to three windows in four may be slowed by the host.
pub const QUIET_QUANTILE: u32 = 2500;

impl Windowed {
    /// Record one sample taken at `now`; closes the window once it has
    /// lasted [`WINDOW`].
    pub fn record(&mut self, now: std::time::Instant, value: f64) {
        let opened = *self.opened.get_or_insert(now);
        self.samples.push(value);
        if now.duration_since(opened) >= WINDOW {
            self.close();
        }
    }

    /// Close the open window, keeping its summary if it holds at least
    /// [`WINDOW_MIN_SAMPLES`] samples.
    pub fn close(&mut self) {
        if self.samples.len() >= WINDOW_MIN_SAMPLES {
            let s = sorted(&self.samples);
            self.p50.push(percentile_sorted(&s, 5000));
            self.p95.push(percentile_sorted(&s, P95));
        }
        self.samples.clear();
        self.opened = None;
    }

    /// Append the closed windows of `other`.
    pub fn absorb(&mut self, other: &Windowed) {
        self.p50.extend_from_slice(&other.p50);
        self.p95.extend_from_slice(&other.p95);
    }

    /// `(median, p95)` of the quiet windows: the [`QUIET_QUANTILE`] of the
    /// windows' medians and of their p95s. `None` without a closed window.
    pub fn quiet(&self) -> Option<(f64, f64)> {
        if self.p50.is_empty() {
            return None;
        }
        Some((
            percentile_sorted(&sorted(&self.p50), QUIET_QUANTILE),
            percentile_sorted(&sorted(&self.p95), QUIET_QUANTILE),
        ))
    }
}

/// A log-bucketed latency histogram: constant memory however many samples
/// it holds, with buckets 0.1% wide, so a percentile read from it is within
/// 0.05% of the exact sample.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Empty until the first sample, then `HIST_BUCKETS` long.
    counts: Vec<u64>,
    total: usize,
}

/// Smallest value the histogram resolves; smaller samples land in bucket 0.
const HIST_MIN: f64 = 1e-3;
/// Relative bucket width.
const HIST_GROWTH: f64 = 1.001;
/// Buckets, so that `HIST_MIN · 1.001^k` reaches 10⁸ (100 s in µs).
const HIST_BUCKETS: usize = 25_342;

impl LogHistogram {
    /// Record one sample (any unit, as long as it is used consistently).
    pub fn record(&mut self, value: f64) {
        let k = if value <= HIST_MIN {
            0
        } else {
            ((value / HIST_MIN).ln() / HIST_GROWTH.ln()) as usize
        };
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[k.min(HIST_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank percentile (`p` in hundredths of a percent): the
    /// geometric middle of the bucket holding that rank.
    pub fn percentile(&self, p: u32) -> f64 {
        assert!(self.total > 0, "percentile of no samples");
        let rank = (self.total * p as usize).div_ceil(10_000).max(1) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return HIST_MIN * HIST_GROWTH.powf(k as f64 + 0.5);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 5000), 50.0);
        assert_eq!(percentile_sorted(&s, 9900), 99.0);
        assert_eq!(percentile_sorted(&s, 10_000), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 9900), 7.0);
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = LogHistogram::default();
        let samples: Vec<f64> = (1..=10_000).map(|i| f64::from(i) * 0.37).collect();
        for &x in &samples {
            h.record(x);
        }
        let exact = sorted(&samples);
        for p in [5000, 9900, 9990] {
            let (a, b) = (h.percentile(p), percentile_sorted(&exact, p));
            assert!((a / b - 1.0).abs() < 1e-3, "p{p}: {a} vs {b}");
        }
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn windows_report_their_lower_quartile() {
        let mut w = Windowed::default();
        let start = std::time::Instant::now();
        // Four windows of 1000 samples; the window's level is its index + 1.
        for level in 1..=4u32 {
            for _ in 0..WINDOW_MIN_SAMPLES {
                w.record(start, f64::from(level));
            }
            w.close();
        }
        // A window too small to keep.
        w.record(start, 100.0);
        w.close();
        assert_eq!(w.p50, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w.quiet(), Some((1.0, 1.0)));
        assert_eq!(Windowed::default().quiet(), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
