//! Order statistics over measured samples.

/// The `q`-quantile (`q` in `[0, 1]`) of `values`, linearly interpolated
/// between the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of integer samples (nanoseconds and the like),
/// selected in place without a full sort.
pub fn quantile_u64(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut a, rest) = values.select_nth_unstable(lo);
    let b = if hi > lo {
        rest.iter().copied().min().unwrap_or(a)
    } else {
        a
    };
    a as f64 + (b as f64 - a as f64) * (pos - lo as f64)
}

/// Splits `samples` into `windows` consecutive slices and returns the
/// `q`-quantile of each — a run's tail measured window by window, so a
/// single stall moves one window's value instead of the whole run's.
pub fn windowed_quantiles(samples: &[u64], windows: usize, q: f64) -> Vec<f64> {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    samples
        .chunks(size)
        .map(|w| quantile_u64(&mut w.to_vec(), q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let mut u = [40u64, 10, 30, 20];
        assert_eq!(quantile_u64(&mut u, 0.5), 25.0);
        assert_eq!(quantile_u64(&mut u, 1.0), 40.0);
        assert_eq!(
            windowed_quantiles(&[1, 2, 3, 10, 20, 30], 2, 0.5),
            [2.0, 20.0]
        );
    }
}
