//! Order statistics used for every reported number: medians over
//! stretches, nearest-rank percentiles over samples, and the quartile
//! spread the acceptance rule is written in.

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values`; the mean of the two middle values when the count
/// is even. `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
/// `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) — the rule the acceptance check is stated in.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median — the spread the
/// acceptance rule bounds. `None` with fewer than two values or a zero
/// median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `(max - min) / median` in percent; `0.0` when undefined.
pub fn spread_pct(values: &[f64]) -> f64 {
    let v = sorted(values);
    let med = median(&v);
    if v.is_empty() || med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med.abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let w = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(quartiles(&w), Some((15.0, 30.0, 45.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_and_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_over_median(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12, "{share}");
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
        assert_eq!(spread_pct(&[]), 0.0);
    }
}
