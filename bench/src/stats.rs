//! The benchmark's own statistics: medians, the "ten samples beyond" tail
//! rule, and the quartile spread the acceptance rule is stated in.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let min = values.iter().copied().min_by(f64::total_cmp)?;
    let max = values.iter().copied().max_by(f64::total_cmp)?;
    Some((min, max))
}

/// A tail percentile together with the percentile actually reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile it is (≤ the one asked for).
    pub pct: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// The `pct`-th percentile (nearest rank) of `values`, lowered to the
/// highest percentile that still has **at least ten samples beyond it**,
/// and never below the median: a tail read off fewer than ten samples is
/// one outlier, not a percentile. `None` when empty.
pub fn tail(values: &[f64], pct: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest-rank index of the requested percentile.
    let asked = (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    // Highest index with ten samples strictly beyond it.
    let supported = n.saturating_sub(11);
    // The upper middle sample, so that a tail is never below `median`.
    let median_idx = n / 2;
    let idx = asked.min(supported).max(median_idx);
    Some(Tail {
        value: v[idx],
        pct: if idx == asked {
            pct
        } else {
            100.0 * (idx + 1) as f64 / n as f64
        },
        n,
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4, one-based, linearly interpolated and clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it -> reported as asked.
        let t = tail(&seq(1000), 99.0).unwrap();
        assert_eq!((t.value, t.pct, t.n), (990.0, 99.0, 1000));
        // 200 samples: p99 would be rank 198 with two beyond; the rule
        // lowers it to rank 190 (= p95), the highest with ten beyond.
        let t = tail(&seq(200), 99.0).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.pct, 95.0);
        // p95 of 200 is rank 190: exactly ten beyond, reported as asked.
        let t = tail(&seq(200), 95.0).unwrap();
        assert_eq!((t.value, t.pct), (190.0, 95.0));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // 15 samples cannot support any tail: the median is reported.
        let t = tail(&seq(15), 99.0).unwrap();
        assert_eq!(t.value, median(&seq(15)).unwrap());
        assert!(t.pct < 99.0);
        let t = tail(&[7.0], 95.0).unwrap();
        assert_eq!(t.value, 7.0);
        let four = [1.0, 2.0, 3.0, 4.0];
        assert!(tail(&four, 99.0).unwrap().value >= median(&four).unwrap());
        assert_eq!(tail(&[], 95.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&seq(3)), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&seq(2)), Some((0.75, 2.25)));
        assert_eq!(iqr_share(&seq(10)), Some(1.0));
    }
}
