//! Order statistics over timing samples.

/// The median of `xs` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p <= 100`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that leaves at least
/// ten samples beyond it, with that percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut best = 50.0;
    for p in [90.0, 99.0, 99.9] {
        let beyond = xs.len() as f64 * (1.0 - p / 100.0);
        if beyond >= 10.0 {
            best = p;
        }
    }
    (best, percentile(xs, best))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(tail(&xs), (99.0, 990.0));
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
    }
}
