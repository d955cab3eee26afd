//! Robust statistics for the reported metrics.

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile; below it the percentile is really the sample maximum.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank,
/// with the sample count behind it. Refuses (returns `Err`) when fewer
/// than [`MIN_BEYOND`] samples lie beyond the percentile's rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<(f64, usize), String> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok((sorted[rank - 1], n))
}

/// The median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_undersampled_ranks() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        // 19 samples: the median's rank is 10, leaving 9 beyond it.
        assert!(percentile(&xs, 0.5).is_err());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok((10.0, 20)));
        // p90 needs 100 samples; p99 needs 1000.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 0.9).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok((90.0, 100)));
        assert!(percentile(&xs, 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
