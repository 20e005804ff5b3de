//! Window arithmetic: medians, percentiles, the "ten beyond" tail rule
//! and the quartile spread the acceptance check uses.

/// Percentiles the tail metric may be reported at, lowest first, in
/// per mille so that the "ten beyond" rule is exact integer arithmetic.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Linear-interpolated percentile (`p` in 0..=100) of `values`.
/// Returns NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it (p95 at 200 windows, p99 from 1000).
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(TAIL_LADDER[0]);
    per_mille as f64 / 10.0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so the spread printed by `noise` is the one
/// the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_windows_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
