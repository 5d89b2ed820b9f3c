//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from here: the samples are
//! kept, sorted once, and read by nearest rank. No streaming estimator
//! (P², histogram buckets) is involved, so a later change to the
//! program's own estimators cannot redefine a number this benchmark
//! reports.

/// The percentile ladder the "highest supported percentile" rule climbs.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted copy of a sample set.
#[derive(Debug, Clone, Default)]
pub struct Sorted {
    v: Vec<f64>,
}

impl Sorted {
    /// Sorts `samples` (NaN-free by construction: every caller records
    /// elapsed times or counts).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted { v: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `q * n` samples at or below it. 0 for an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.v[rank(self.v.len(), q) - 1]
    }

    /// Largest sample (0 for an empty set).
    pub fn max(&self) -> f64 {
        self.v.last().copied().unwrap_or(0.0)
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.v.iter().sum::<f64>() / self.v.len() as f64
    }
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples. The
/// tolerance keeps `0.999 * 10_000` (which is not exact in binary) from
/// rounding up one rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Repetitions of one measurement (passes, episodes, windows), each kept
/// sorted. A percentile is computed exactly within every repetition and
/// the median across repetitions is reported, so a host stall that hits
/// one repetition does not move the figure.
#[derive(Debug, Clone, Default)]
pub struct Reps(Vec<Sorted>);

impl Reps {
    /// Sorts every repetition's samples.
    pub fn new(groups: Vec<Vec<f64>>) -> Self {
        Reps(groups.into_iter().map(Sorted::new).collect())
    }

    /// Median across repetitions of each repetition's `q` percentile.
    pub fn pct(&self, q: f64) -> f64 {
        median(&self.0.iter().map(|s| s.pct(q)).collect::<Vec<_>>())
    }

    /// Number of repetitions.
    pub fn reps(&self) -> usize {
        self.0.len()
    }

    /// Samples in the smallest repetition (what bounds the supported
    /// percentile).
    pub fn min_len(&self) -> usize {
        self.0.iter().map(Sorted::len).min().unwrap_or(0)
    }

    /// Samples across all repetitions.
    pub fn total(&self) -> usize {
        self.0.iter().map(Sorted::len).sum()
    }
}

/// Cuts `samples` (in the order they were taken) into consecutive windows
/// of `w`; the remainder joins the last window, so every window holds at
/// least `w` samples when there are that many at all.
pub fn windows(samples: &[f64], w: usize) -> Vec<Vec<f64>> {
    window_bounds(samples.len(), w)
        .into_iter()
        .map(|(a, b)| samples[a..b].to_vec())
        .collect()
}

/// The `[start, end)` index ranges [`windows`] cuts `len` samples into.
pub fn window_bounds(len: usize, w: usize) -> Vec<(usize, usize)> {
    let n = (len / w).max(1);
    (0..n)
        .map(|k| (k * w, if k + 1 == n { len } else { (k + 1) * w }))
        .collect()
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// True when the `q` percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The highest ladder percentile `n` samples support, or `None` when even
/// the median has fewer than [`MIN_BEYOND`] samples above it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&q| supported(n, q))
}

/// Median of a small set of repetitions (e.g. per-pass rates), averaging
/// the middle pair of an even count as Python's `statistics.median` does.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        (v[h - 1] + v[h]) / 2.0
    }
}

/// Inter-quartile range as a share of the median, computed with the
/// exclusive-method quartiles of Python's `statistics.quantiles(n=4)`,
/// so the spread printed here matches the usual Python recomputation. 0 for
/// fewer than two values or a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let quart = |k: f64| {
        // Exclusive method: position m = k (n + 1) / 4, 1-based.
        let m = k * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    ((quart(3.0) - quart(1.0)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_ranks() {
        let s = Sorted::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(s.pct(0.999), 100.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(1.0), 100.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(Sorted::default().pct(0.5), 0.0);
    }

    #[test]
    fn percentile_of_a_bimodal_set_is_a_sample_not_an_average() {
        // 90 fast and 10 slow samples: p90 is the last fast one and p91 the
        // first slow one — never a value in between.
        let mut v = vec![1.0; 90];
        v.extend(vec![1000.0; 10]);
        let s = Sorted::new(v);
        assert_eq!(s.pct(0.90), 1.0);
        assert_eq!(s.pct(0.91), 1000.0);
    }

    #[test]
    fn support_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_999, 0.999));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(150), Some(0.9));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
    }

    #[test]
    fn reps_report_the_median_of_per_repetition_percentiles() {
        // Three repetitions; the middle one's p50 is the median of the
        // three p50s, and the stalled repetition's p99 does not leak.
        let r = Reps::new(vec![
            (1..=100).map(f64::from).collect(),
            (101..=200).map(f64::from).collect(),
            (1..=99).map(f64::from).chain([1e6]).collect(),
        ]);
        assert_eq!(r.reps(), 3);
        assert_eq!(r.pct(0.5), 50.0);
        assert_eq!(r.pct(0.99), 99.0);
        assert_eq!(r.pct(1.0), 200.0);
        assert_eq!(r.min_len(), 100);
        assert_eq!(r.total(), 300);
    }

    #[test]
    fn windows_fold_the_remainder_into_the_last() {
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        let w = windows(&v, 10);
        assert_eq!(w.iter().map(Vec::len).collect::<Vec<_>>(), vec![10, 15]);
        assert_eq!(w[1][0], 10.0);
        assert_eq!(windows(&v[..5], 10), vec![v[..5].to_vec()]);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let expect = (8.25 - 2.75) / 5.5;
        assert!((iqr_share(&v) - expect).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
