//! Percentile, median-of-rounds and quartile arithmetic.
//!
//! Protocol: every timing metric is the **median over rounds of the
//! per-round statistic** (p50 or p99). A tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it, so p99 needs 1000
//! samples in the round.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it (the number would not repeat).
pub fn tail_percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let beyond = ((1.0 - p) * sorted.len() as f64).floor() as usize;
    (beyond >= MIN_BEYOND).then(|| percentile_sorted(sorted, p))
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// p50 of unsorted samples (sorts them); `None` without samples.
pub fn p50(samples: &mut [f64]) -> Option<f64> {
    sort(samples);
    (!samples.is_empty()).then(|| percentile_sorted(samples, 0.5))
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) computes them — the driver's spread
/// check uses that function, so `compare` must agree with it digit for digit.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Per-class sample sink: collects one round's samples, folds them into the
/// round's p50/p99 at [`RoundStat::end_round`], and answers with the median
/// over the kept rounds.
#[derive(Default)]
pub struct RoundStat {
    current: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Samples folded into kept rounds.
    pub samples: usize,
}

impl RoundStat {
    #[inline]
    pub fn push(&mut self, sample: f64) {
        self.current.push(sample);
    }

    /// Close the round. A discarded round (warm-up) drops its samples.
    pub fn end_round(&mut self, keep: bool) {
        if keep && !self.current.is_empty() {
            sort(&mut self.current);
            self.p50s.push(percentile_sorted(&self.current, 0.5));
            if let Some(p99) = tail_percentile_sorted(&self.current, 0.99) {
                self.p99s.push(p99);
            }
            self.samples += self.current.len();
        }
        self.current.clear();
    }

    pub fn rounds(&self) -> usize {
        self.p50s.len()
    }

    /// Median over rounds of the per-round p50; `None` without kept samples.
    pub fn p50(&self) -> Option<f64> {
        (!self.p50s.is_empty()).then(|| median(&self.p50s))
    }

    /// Median over rounds of the per-round p99; `None` when no round had
    /// enough samples for a p99.
    pub fn p99(&self) -> Option<f64> {
        (!self.p99s.is_empty()).then(|| median(&self.p99s))
    }
}

/// What each kept round cost: end-to-end ops and ns inside their timed
/// spans, untraced and traced rounds apart.
#[derive(Default)]
pub struct RoundCosts {
    untraced: Vec<(u64, u64)>,
    traced: Vec<(u64, u64)>,
}

impl RoundCosts {
    pub fn push(&mut self, traced: bool, ops: u64, span_ns: u64) {
        let rounds = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        rounds.push((ops, span_ns));
    }

    /// `ops_per_s`: median over untraced rounds of ops / time in spans.
    pub fn ops_per_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .untraced
            .iter()
            .map(|&(ops, ns)| ops as f64 * 1e9 / ns as f64)
            .collect();
        median(&per_round)
    }

    /// `bench.trace_overhead_frac`: time in the end-to-end spans of a traced
    /// round over that of an untraced round (medians), minus one.
    pub fn trace_overhead(&self) -> f64 {
        let ns = |rounds: &[(u64, u64)]| {
            median(&rounds.iter().map(|&(_, ns)| ns as f64).collect::<Vec<_>>())
        };
        ns(&self.traced) / ns(&self.untraced) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_costs_give_throughput_and_overhead() {
        let mut costs = RoundCosts::default();
        for ns in [1000, 2000, 4000] {
            costs.push(false, 10, ns);
            costs.push(true, 10, ns * 11 / 10);
        }
        assert_eq!(costs.ops_per_s(), 10.0 * 1e9 / 2000.0);
        assert!((costs.trace_overhead() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v999: Vec<f64> = (0..999).map(f64::from).collect();
        let v1000: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile_sorted(&v999, 0.99), None);
        assert_eq!(tail_percentile_sorted(&v1000, 0.99), Some(989.0));
        // p50 of 20 samples has exactly ten beyond it.
        assert!(tail_percentile_sorted(&v1000[..20], 0.5).is_some());
        assert!(tail_percentile_sorted(&v1000[..19], 0.5).is_none());
    }

    #[test]
    fn median_of_rounds_ignores_an_outlier_round_and_the_warm_up() {
        let mut stat = RoundStat::default();
        for (round, base) in [1000.0, 10.0, 11.0, 500.0, 12.0].into_iter().enumerate() {
            for i in 0..1000 {
                stat.push(base + (i % 2) as f64);
            }
            stat.end_round(round > 0);
        }
        assert_eq!(stat.rounds(), 4);
        assert_eq!(stat.samples, 4000);
        // Per-round p50s: 10, 11, 500, 12 -> median 11.5.
        assert_eq!(stat.p50(), Some(11.5));
        assert_eq!(stat.p99(), Some(12.5));
    }

    #[test]
    fn short_rounds_report_no_p99() {
        let mut stat = RoundStat::default();
        for i in 0..999 {
            stat.push(f64::from(i));
        }
        stat.end_round(true);
        assert!(stat.p50().is_some());
        assert_eq!(stat.p99(), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) -> [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), (1.5, 3.0, 7.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
