//! Order statistics for the benchmark's timings.

/// Samples that must lie beyond a reported high percentile before the
/// percentile is trusted.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`th percentile, refused (`None`) unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it — a tail percentile set by a
/// handful of samples is an outlier, not a statistic.
pub fn percentile(xs: &[f64], q: usize) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || q == 0 || q > 100 {
        return None;
    }
    let idx = (n * q).div_ceil(100) - 1;
    (n - idx > TAIL_SAMPLES).then(|| v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank ceil(0.95 * 200) = 190; samples 191..=200 lie beyond.
        assert_eq!(percentile(&xs, 95), Some(190.0));
        assert_eq!(percentile(&xs[..199], 95), None);
        // p90 needs only 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&xs[..100], 90), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90), None);
        let more: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&more, 95), Some(950.0));
        assert_eq!(percentile(&more, 50), Some(500.0));
        assert_eq!(percentile(&[], 95), None);
        assert_eq!(percentile(&[1.0; 50], 95), None);
    }
}
