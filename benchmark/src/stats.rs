//! The few statistics the benchmark reports: nearest-rank percentiles that
//! carry their sample count, medians over trials, and the quartile spread
//! the A/A mode compares against each metric's bound.

/// A percentile together with the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the statistic is one or two outliers, not a property of the run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`.
///
/// # Errors
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the
/// percentile's rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<Pct, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {} beyond it, need {MIN_BEYOND}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[rank - 1],
        n,
    })
}

/// Median of a small set of per-trial statistics (mean of the two middle
/// values when the count is even).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver uses to judge steadiness.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_count_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.95),
            Ok(Pct {
                value: 190.0,
                n: 200
            })
        );
        assert_eq!(percentile(&v, 0.50).unwrap().value, 100.0);
        // 199 samples leave only 9 beyond rank 190.
        assert!(percentile(&v[..199], 0.95).is_err());
        assert!(percentile(&v[..19], 0.50).is_err());
        assert!(percentile(&[], 0.50).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
