//! Order statistics for everything the ledger reports.
//!
//! A timing is reported as its median, its quartiles, its MAD, and the
//! highest percentile that still has at least ten samples beyond it — never
//! as a mean, which one descheduled rep on a two-core box can move by more
//! than any change under test.

/// Percentiles a tail may be reported at, lowest first, in per-mille so
/// the "samples beyond" count is exact integer arithmetic.
const TAIL_LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// A tail percentile is only reported with this many samples beyond it.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice — every caller measured at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so a
/// spread computed here agrees with one computed by a driver script.
/// With fewer than two samples both quartiles are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Interquartile range as a share of the median — the run-to-run "spread"
/// the regression bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The nearest-rank percentile `p` (0–100) of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder (p50, p75, p90, p95, p99, p99.9)
/// that `n` samples support: at least [`TAIL_MIN_BEYOND`] samples must lie
/// beyond it. `None` below 20 samples, where not even the median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rfind(|&&pm| n * (1000 - pm) / 1000 >= TAIL_MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// Everything printed about one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// The supported tail percentile and its value, when there is one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            mad: mad(values),
            tail: supported_tail(values.len()).map(|p| (p, percentile(values, p))),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} [q1 {:.4}, q3 {:.4}] mad {:.4}",
            self.median, self.q1, self.q3, self.mad
        )?;
        match self.tail {
            Some((p, v)) => write!(f, " p{p} {v:.4}")?,
            None => write!(f, " (too few samples for a tail)")?,
        }
        write!(f, " n={}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Hand-computed against `statistics.quantiles(range(1, 11), n=4)` =
    /// `[2.75, 5.5, 8.25]` and `statistics.quantiles([1, 2, 4, 8, 16], n=4)`
    /// = `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // m = 3: q1 cuts at j = 0 -> clamped to 1 with delta = -1: 1*1.25 - 2*0.25.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn mad_and_spread_on_a_known_set() {
        // median 3; deviations 2 1 0 1 6 -> sorted 0 1 1 2 6 -> 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
    }

    /// The rule: ten samples beyond. 19 samples support nothing; 20 support
    /// the median; 40 support p75 (10 beyond) but not p90 (4 beyond); 100
    /// support p90; 200 p95; 1000 p99; 10000 p99.9.
    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_carries_every_statistic() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&hundred);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!((s.q1, s.q3), (25.25, 75.75));
        assert_eq!(s.mad, 25.0);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!(s.to_string().contains("p90 90.0000 n=100"), "{s}");
    }
}
