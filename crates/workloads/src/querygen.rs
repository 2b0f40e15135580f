//! Query workload generation (Sect. 9): point and range queries of a fixed
//! range size, drawn from a configurable distribution, optionally constrained
//! to be *empty* (no key of the dataset falls inside) — the worst case for a
//! filter, used throughout the paper's evaluation.

use crate::distributions::{Distribution, Sampler};

/// A single range query (inclusive bounds). Point queries have `lo == hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeQuery {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl RangeQuery {
    /// Number of values covered.
    pub fn len(&self) -> u64 {
        self.hi.wrapping_sub(self.lo).saturating_add(1)
    }

    /// Range queries are never empty intervals.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Generator of query workloads against a fixed (sorted) key set.
#[derive(Clone, Debug)]
pub struct QueryGenerator {
    sorted_keys: Vec<u64>,
    sampler: Sampler,
}

impl QueryGenerator {
    /// Create a generator; `keys` are sorted internally.
    pub fn new(keys: &[u64], distribution: Distribution, seed: u64) -> Self {
        let mut sorted_keys = keys.to_vec();
        sorted_keys.sort_unstable();
        sorted_keys.dedup();
        Self {
            sorted_keys,
            sampler: Sampler::new(distribution, 64, seed),
        }
    }

    /// Does the key set intersect `[lo, hi]`?
    fn keys_in(&self, lo: u64, hi: u64) -> bool {
        let idx = self.sorted_keys.partition_point(|&k| k < lo);
        idx < self.sorted_keys.len() && self.sorted_keys[idx] <= hi
    }

    /// Generate `count` empty range queries of exactly `range_size` values
    /// (the paper's worst-case workload). Anchors are drawn from the
    /// distribution and rejected while they overlap a key.
    pub fn empty_ranges(&mut self, count: usize, range_size: u64) -> Vec<RangeQuery> {
        assert!(range_size >= 1);
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0usize;
        let max_attempts = count * 1000 + 100_000;
        while out.len() < count {
            attempts += 1;
            if attempts > max_attempts {
                // Degenerate case: the domain is so dense that empty ranges of
                // this size are rare; return what we have (callers check).
                break;
            }
            let lo = self.sampler.sample();
            let hi = match lo.checked_add(range_size - 1) {
                Some(h) => h,
                None => continue,
            };
            if !self.keys_in(lo, hi) {
                out.push(RangeQuery { lo, hi });
            }
        }
        out
    }

    /// Generate `count` empty point queries.
    pub fn empty_points(&mut self, count: usize) -> Vec<u64> {
        self.empty_ranges(count, 1)
            .into_iter()
            .map(|q| q.lo)
            .collect()
    }

    /// Generate `count` range queries anchored near *existing* keys (each range
    /// contains at least one key) — used for non-empty-query experiments.
    pub fn non_empty_ranges(&mut self, count: usize, range_size: u64) -> Vec<RangeQuery> {
        assert!(!self.sorted_keys.is_empty());
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let anchor = self.sampler.sample();
            let idx = self.sorted_keys.partition_point(|&k| k < anchor);
            let key = self.sorted_keys[idx.min(self.sorted_keys.len() - 1)];
            let lo = key.saturating_sub(self.sampler_next_below(range_size));
            let hi = match lo.checked_add(range_size - 1) {
                Some(h) => h.max(key),
                None => u64::MAX,
            };
            debug_assert!(self.keys_in(lo, hi));
            out.push(RangeQuery { lo, hi });
        }
        out
    }

    /// Generate `count` point queries on existing keys.
    pub fn existing_points(&mut self, count: usize) -> Vec<u64> {
        assert!(!self.sorted_keys.is_empty());
        (0..count)
            .map(|_| {
                let anchor = self.sampler.sample();
                let idx = self.sorted_keys.partition_point(|&k| k < anchor);
                self.sorted_keys[idx.min(self.sorted_keys.len() - 1)]
            })
            .collect()
    }

    fn sampler_next_below(&mut self, bound: u64) -> u64 {
        // Re-use the sampler's uniform source for small offsets.
        self.sampler.sample() % bound.max(1)
    }
}

/// Measure the false-positive rate of a predicate over a set of empty queries:
/// `fpr = positives / total` (every positive is false because the queries are
/// empty by construction).
pub fn false_positive_rate<F: FnMut(&RangeQuery) -> bool>(
    queries: &[RangeQuery],
    mut probe: F,
) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let positives = queries.iter().filter(|q| probe(q)).count();
    positives as f64 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Distribution;

    fn keys() -> Vec<u64> {
        (0..10_000u64).map(bloomrf::hashing::mix64).collect()
    }

    #[test]
    fn empty_ranges_contain_no_keys() {
        let keys = keys();
        let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 1);
        let queries = generator.empty_ranges(2000, 1 << 20);
        assert_eq!(queries.len(), 2000);
        for q in &queries {
            assert_eq!(q.len(), 1 << 20);
            assert!(!generator.keys_in(q.lo, q.hi), "query {q:?} overlaps a key");
        }
    }

    #[test]
    fn empty_points_are_absent_from_the_key_set() {
        let keys = keys();
        let set: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let mut generator = QueryGenerator::new(&keys, Distribution::normal(), 2);
        for p in generator.empty_points(1000) {
            assert!(!set.contains(&p));
        }
    }

    #[test]
    fn non_empty_ranges_contain_a_key() {
        let keys = keys();
        let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 3);
        for q in generator.non_empty_ranges(500, 1 << 12) {
            assert!(generator.keys_in(q.lo, q.hi), "query {q:?} misses all keys");
        }
    }

    #[test]
    fn existing_points_are_keys() {
        let keys = keys();
        let set: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let mut generator = QueryGenerator::new(&keys, Distribution::zipfian(), 4);
        for p in generator.existing_points(500) {
            assert!(set.contains(&p));
        }
    }

    #[test]
    fn fpr_helper_counts_positives() {
        let queries = vec![
            RangeQuery { lo: 0, hi: 10 },
            RangeQuery { lo: 20, hi: 30 },
            RangeQuery { lo: 40, hi: 50 },
            RangeQuery { lo: 60, hi: 70 },
        ];
        let fpr = false_positive_rate(&queries, |q| q.lo >= 40);
        assert!((fpr - 0.5).abs() < 1e-12);
        assert_eq!(false_positive_rate(&[], |_| true), 0.0);
    }

    #[test]
    fn works_for_all_distributions() {
        let keys = keys();
        for dist in Distribution::paper_set() {
            let mut generator = QueryGenerator::new(&keys, dist, 5);
            let queries = generator.empty_ranges(200, 64);
            assert_eq!(queries.len(), 200, "{}", dist.label());
        }
    }
}
