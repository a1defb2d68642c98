//! Order statistics over measured samples.

/// Nearest-rank quantile of `values` (`q` in `0..=1`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `q` quantile, or `NaN` — which no result may carry — when fewer
/// than ten samples lie beyond it: a tail read off a handful of samples
/// is noise, not a percentile.
pub fn tail(values: &[f64], q: f64) -> f64 {
    if (values.len() as f64 * (1.0 - q)).floor() < 10.0 {
        return f64::NAN;
    }
    quantile(values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.0), 3.0);
        assert!(tail(&v, 0.95).is_nan());
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&w, 0.95), 190.0);
    }
}
