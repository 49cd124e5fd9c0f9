//! Order statistics over the per-pass samples of one run.

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (the "inclusive" method); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of the ladder that has at least ten samples
/// beyond it, with its value. With fewer than twenty samples no
/// percentile qualifies and the median is reported instead; the caller
/// prints which percentile it got and the sample count.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = values.len() as f64;
    let p = LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(values, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&v).0, 75.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
    }
}
