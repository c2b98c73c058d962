//! Order statistics of operation times.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail statistic: the highest percentile with at least ten samples
/// above it (the eleventh-largest sample), but never below the median.
/// Under 21 samples no percentile above the median has ten beyond it, and
/// the median stands in. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 21 {
        return (median(xs), 50.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // Ten samples (31..=40) lie above the 30th of 40: the 75th percentile.
        assert_eq!(tail(&xs), (30.0, 75.0));
    }
}
