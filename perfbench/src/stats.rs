//! Percentiles under the benchmark's sample-size rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it: p99 needs 1 000 samples, p99.9 needs 10 000. Tail
//! latencies are computed per measurement window and the reported value
//! is the median over windows, so one host stall moves one window, not
//! the figure.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A percentile in thousandths of a percent (`Pct(99_900)` is p99.9);
/// integer arithmetic keeps the rank exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct(pub u64);

pub const P50: Pct = Pct(50_000);
pub const P90: Pct = Pct(90_000);
pub const P99: Pct = Pct(99_000);
pub const P999: Pct = Pct(99_900);

/// The percentiles the benchmark knows, lowest first.
const LADDER: [Pct; 5] = [P50, P90, P99, P999, Pct(99_990)];

impl Pct {
    /// 1-based nearest rank of this percentile among `n` samples.
    pub fn rank(self, n: u64) -> u64 {
        (n * self.0).div_ceil(100_000).max(1)
    }

    /// Samples above the percentile's rank.
    pub fn beyond(self, n: u64) -> u64 {
        n.saturating_sub(self.rank(n))
    }

    /// Whether `n` samples support this percentile.
    pub fn supported(self, n: u64) -> bool {
        n > 0 && self.beyond(n) >= MIN_BEYOND
    }

    /// "p99.9"-style label.
    pub fn label(self) -> String {
        let whole = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            format!("p{whole}")
        } else {
            let digits = format!("{frac:03}");
            format!("p{whole}.{}", digits.trim_end_matches('0'))
        }
    }
}

/// The highest known percentile that `n` samples support.
pub fn highest_supported(n: u64) -> Option<Pct> {
    LADDER.iter().rev().copied().find(|p| p.supported(n))
}

/// Nearest-rank percentile of `samples` (reorders the slice).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u64], p: Pct) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let idx = (p.rank(samples.len() as u64) - 1) as usize;
    *samples.select_nth_unstable(idx).1
}

/// Nearest-rank percentile of `values` (ns), in nanoseconds; 0 when
/// there are none, as for a layer the workload bypasses.
pub fn ns_of(values: &[u64], p: Pct) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&mut values.to_vec(), p) as f64
    }
}

/// [`ns_of`] in microseconds.
pub fn us_of(values: &[u64], p: Pct) -> f64 {
    ns_of(values, p) / 1e3
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency percentiles of one measurement window, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct WindowTail {
    pub samples: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl WindowTail {
    /// Summarise one window. `None` when the window holds too few
    /// samples to support p99.9.
    pub fn of(samples: &mut [u64]) -> Option<WindowTail> {
        let n = samples.len() as u64;
        if !P999.supported(n) {
            return None;
        }
        Some(WindowTail {
            samples: n,
            p50: percentile(samples, P50),
            p90: percentile(samples, P90),
            p99: percentile(samples, P99),
            p999: percentile(samples, P999),
        })
    }
}

/// Median-over-windows latency summary (values in microseconds).
#[derive(Debug, Clone)]
pub struct Tail {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    /// How the figures were formed, with their sample counts.
    pub basis: String,
}

impl Tail {
    /// Combine per-window summaries of time windows; `None` without any
    /// window.
    pub fn of_windows(windows: &[WindowTail]) -> Option<Tail> {
        if windows.is_empty() {
            return None;
        }
        let us = |f: fn(&WindowTail) -> u64| {
            median(
                &windows
                    .iter()
                    .map(|w| f(w) as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let smallest = windows.iter().map(|w| w.samples).min().unwrap_or(0);
        Some(Tail {
            p50_us: us(|w| w.p50),
            p90_us: us(|w| w.p90),
            p99_us: us(|w| w.p99),
            p999_us: us(|w| w.p999),
            basis: format!(
                "{} samples in {} windows (smallest {smallest}, supporting up to {}); each figure is the median over windows",
                windows.iter().map(|w| w.samples).sum::<u64>(),
                windows.len(),
                highest_supported(smallest).map_or_else(|| "none".into(), Pct::label)
            ),
        })
    }

    /// Summarise samples in arrival order over windows of consecutive
    /// samples: p50, p90 and p99 over windows of the fewest samples that
    /// support p99, p99.9 over windows of the fewest that support p99.9;
    /// each figure is the median over its windows. `None` when the
    /// samples fill no p99.9 window.
    pub fn of_sequence(samples: &[u64]) -> Option<Tail> {
        let per = |p: Pct, q: Pct| -> Option<(f64, usize)> {
            let w = min_samples(p) as usize;
            let v: Vec<f64> = samples
                .chunks_exact(w)
                .map(|c| percentile(&mut c.to_vec(), q) as f64 / 1e3)
                .collect();
            (!v.is_empty()).then(|| (median(&v), v.len()))
        };
        let (p50_us, _) = per(P99, P50)?;
        let (p90_us, _) = per(P99, P90)?;
        let (p99_us, n99) = per(P99, P99)?;
        let (p999_us, n999) = per(P999, P999)?;
        Some(Tail {
            p50_us,
            p90_us,
            p99_us,
            p999_us,
            basis: format!(
                "{} samples; p50, p90 and p99 are medians over {n99} windows of {} consecutive samples, p99.9 over {n999} windows of {}",
                samples.len(),
                min_samples(P99),
                min_samples(P999)
            ),
        })
    }
}

/// The fewest samples that support `p`.
pub fn min_samples(p: Pct) -> u64 {
    let mut n = MIN_BEYOND;
    while !p.supported(n) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!P99.supported(999));
        assert!(P99.supported(1_000));
        assert_eq!(P99.beyond(1_000), 10);
        assert!(!P999.supported(9_999));
        assert!(P999.supported(10_000));
        assert_eq!(P999.beyond(10_000), 10);
        assert!(P50.supported(20));
        assert!(!P50.supported(19));
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(P50));
        assert_eq!(highest_supported(100), Some(P90));
        assert_eq!(highest_supported(5_000), Some(P99));
        assert_eq!(highest_supported(10_000), Some(P999));
        assert_eq!(highest_supported(100_000), Some(Pct(99_990)));
    }

    #[test]
    fn nearest_rank_is_exact() {
        let mut v: Vec<u64> = (1..=1_000).rev().collect();
        assert_eq!(percentile(&mut v, P50), 500);
        assert_eq!(percentile(&mut v, P99), 990);
        let mut w: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&mut w, P999), 9_990);
    }

    #[test]
    fn labels() {
        assert_eq!(P99.label(), "p99");
        assert_eq!(P999.label(), "p99.9");
        assert_eq!(Pct(99_990).label(), "p99.99");
    }

    #[test]
    fn tail_takes_median_over_windows() {
        let mk = |p99| WindowTail {
            samples: 10_000,
            p50: 1_000,
            p90: 2_000,
            p99,
            p999: p99 * 2,
        };
        let t = Tail::of_windows(&[mk(5_000), mk(90_000), mk(7_000)]).unwrap();
        assert_eq!(t.p99_us, 7.0);
        assert_eq!(t.p999_us, 14.0);
        assert!(WindowTail::of(&mut vec![1; 9_999]).is_none());
    }

    #[test]
    fn sequence_windows_are_the_smallest_supporting_ones() {
        assert_eq!(min_samples(P99), 1_000);
        assert_eq!(min_samples(P999), 10_000);
        // Three p99.9 windows; in the middle one every sample is slow.
        let mut v = vec![1_000u64; 30_000];
        v[10_000..20_000].fill(9_000);
        let t = Tail::of_sequence(&v).unwrap();
        assert_eq!((t.p50_us, t.p99_us, t.p999_us), (1.0, 1.0, 1.0));
        assert!(Tail::of_sequence(&v[..9_999]).is_none());
    }
}
