//! Order statistics for the benchmark's samples.

/// The values sorted ascending (NaN-free input assumed: every sample is
/// a measured duration or a ratio of counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0..=100) of `values`; 0 for an
/// empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    ddsc_util::percentile(&sorted(values), p).unwrap_or(0.0)
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Whether a sample of `n` has at least ten samples beyond percentile
/// `p` — the condition for reporting that percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0
}

/// `name: n=.. min=.. p25=.. median=.. p75=.. max=..` for a human line.
pub fn describe(name: &str, values: &[f64]) -> String {
    let q = |p| percentile(values, p);
    format!(
        "{name}: n={} min={:.6} p25={:.6} median={:.6} p75={:.6} max={:.6}",
        values.len(),
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    )
}

/// Sum of `values`, starting from +0.0.
pub fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |a, b| a + b)
}
