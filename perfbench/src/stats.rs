//! Order statistics over the samples one run collects.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty sample, so a metric that was never measured cannot
/// pass for a number.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean: the average the per-application rows are folded with,
/// so no one application's absolute size decides the headline.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
