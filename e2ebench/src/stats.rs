//! Summary statistics: nearest-rank percentiles, the tail-percentile rule
//! and medians.

/// The percentiles a tail is reported at, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAILS`] that leaves at least ten samples
/// beyond it among `n`, or 50 when none does.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS.iter().copied().find(|&q| n.saturating_sub(rank(n, q)) >= 10).unwrap_or(50.0)
}

/// The 1-based nearest rank of percentile `q` among `n` samples (the
/// epsilon keeps `99.9 / 100 * 10000` from rounding up past 9990).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` (0–100) of `values` (any order; `NaN`s are
/// not expected). `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Latency summary of one request class: count, p50 and the tail at
/// [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported.
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let tail_q = tail_percentile(values.len());
        Some(Self {
            n: values.len(),
            p50: median(values)?,
            tail_q,
            tail: percentile(values, tail_q)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        for n in [40, 100, 200, 1000, 5000, 20_000] {
            let q = tail_percentile(n);
            assert!(n - rank(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail), (100, 90.0, 90.0));
    }
}
