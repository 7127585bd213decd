//! The benchmark's one sampler: every timing it reports carries its
//! sample count, median and quartiles, and tail percentiles are only
//! given where at least [`MIN_BEYOND`] samples lie beyond them.

/// Samples that must lie beyond a percentile before it is reported —
/// with fewer, the "tail" is a handful of outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// A summary of one sample set. Failed operations enter as `+∞`, so
/// they sort last and push every percentile they reach to infinity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (which need not be sorted).
    ///
    /// # Panics
    /// On an empty sample set: every caller measures at least once.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let sorted = sorted(samples);
        let (q1, q3) = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            median: median_sorted(&sorted),
            q1,
            q3,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
/// spread this benchmark reports matches the one computed over its runs.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (p99 needs 1000 samples,
/// p90 needs 100).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The median, or `+∞` for an empty set (an operation that never
/// completed once).
pub fn median_or_inf(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::INFINITY
    } else {
        Summary::of(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_on_known_vectors() {
        // Values checked against Python's statistics.median/quantiles.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (10, 5.5, 2.75, 8.25));
        let s = Summary::of(&[7.0, 1.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 1.0, 7.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.25, 3.75));
        let s = Summary::of(&[2.5]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 2.5, 2.5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 1.5, 4.5));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 99.0),
            None,
            "p99 is refused below 1000 samples"
        );
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_sort_last_as_infinity() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v[3] = f64::INFINITY;
        v[50] = f64::INFINITY;
        assert_eq!(
            percentile(&v, 90.0),
            Some(92.0),
            "two failures shift the rank"
        );
        v.iter_mut().take(11).for_each(|x| *x = f64::INFINITY);
        assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
        assert_eq!(median_or_inf(&[]), f64::INFINITY);
    }
}
