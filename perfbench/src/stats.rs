//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between
/// order statistics; `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile, at most `0.95`, that leaves at least ten samples
/// beyond it (never below the median): a tail read from fewer samples
/// would be one or two outliers.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.95)
}
