//! Order statistics for the benchmark: medians, quartiles computed like
//! Python's `statistics.quantiles(values, n=4)` (so spreads agree with
//! that common tool), and tail percentiles that are only reported when
//! enough samples lie beyond them.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: with fewer, one scheduler hiccup decides the number.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`. With one value both
/// quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n`
/// samples: the smallest rank whose sample is at or above a `q` share.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank quantile of `values`, or `None` when fewer than
/// [`TAIL_BEYOND`] samples lie beyond it (p99 needs 1000 samples).
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    if beyond(values.len(), q) < TAIL_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(values.len(), q) - 1])
}

/// Nearest-rank quantile with no sample-count rule (smoke runs only).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    sorted(values)[rank(values.len(), q) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A statistic over trials: its median, quartiles and trial count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over trials.
    pub median: f64,
    /// First quartile over trials.
    pub q1: f64,
    /// Third quartile over trials.
    pub q3: f64,
    /// Number of trials.
    pub n: usize,
}

impl Summary {
    /// Summarizes per-trial values.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&few, 0.99), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990: exactly 991..=1000 lie beyond.
        assert_eq!(tail(&enough, 0.99), Some(990.0));
        assert_eq!(tail(&enough, 0.5), Some(500.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.5), 20.0);
        assert_eq!(quantile(&v, 0.99), 40.0);
        assert_eq!(quantile(&v, 0.01), 10.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.n, 5);
        assert_eq!((s.q1, s.q3), (9.5, 10.5));
        assert!((s.spread() - 0.1).abs() < 1e-12);
    }
}
