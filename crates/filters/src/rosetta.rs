//! Rosetta (Luo et al., SIGMOD 2020): a robust space-time optimized range
//! filter for key-value stores. Every dyadic level up to the design maximum
//! range is covered by its own Bloom filter over key prefixes; range queries
//! decompose the interval into canonical dyadic intervals and apply the
//! *doubting* procedure (recursively probing children of positive intervals)
//! to push the effective FPR down to that of the bottom level.
//!
//! Two memory layouts are provided: the *first-cut* allocation described in
//! the Rosetta paper (and summarized in Sect. 6 of the bloomRF paper) where
//! every upper level gets ~1.44 bits/key (FPR ≈ ½) and the bottom level gets
//! the remainder, and a *bottom-heavy* allocation resembling Rosetta's
//! variable-level variant.

use bloomrf::dyadic::{canonical_decomposition, DyadicInterval};
use bloomrf::hashing::shr;
use bloomrf::traits::{ExclusiveOnlineFilter, FilterBuilder, PointRangeFilter};

use crate::bloom::BloomFilter;

/// Memory allocation strategy across the dyadic levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RosettaVariant {
    /// First-cut solution (F): upper levels at ~1.44 bits/key, the remainder of
    /// the budget on the bottom level.
    #[default]
    FirstCut,
    /// Bottom-heavy allocation (V-like): geometric decay of bits with the
    /// level, boosting the bottom levels further.
    BottomHeavy,
}

/// Safety valves: probing budgets after which a query conservatively answers
/// "maybe" instead of degrading to linear cost.
const MAX_DOUBT_PROBES: usize = 8192;
const MAX_TOP_SPLIT: u64 = 1024;

/// The Rosetta point-range filter.
#[derive(Clone, Debug)]
pub struct RosettaFilter {
    /// One Bloom filter per dyadic level, index = level.
    levels: Vec<BloomFilter>,
    /// Highest indexed level (`L = ceil(log2(max_range))`).
    max_level: u32,
    domain_bits: u32,
}

impl RosettaFilter {
    /// Create a Rosetta filter for `n_keys` keys at `bits_per_key`, designed
    /// for query ranges of at most `max_range` values.
    pub fn new(n_keys: usize, bits_per_key: f64, max_range: u64, variant: RosettaVariant) -> Self {
        Self::with_domain(64, n_keys, bits_per_key, max_range, variant)
    }

    /// As [`RosettaFilter::new`] with an explicit domain width.
    fn with_domain(
        domain_bits: u32,
        n_keys: usize,
        bits_per_key: f64,
        max_range: u64,
        variant: RosettaVariant,
    ) -> Self {
        let n = n_keys.max(1) as f64;
        let total_bits = (n * bits_per_key).max(64.0);
        let max_level = (64 - (max_range.max(2) - 1).leading_zeros()).min(domain_bits);
        let num_levels = max_level as usize + 1;

        let per_level_bits: Vec<f64> = match variant {
            RosettaVariant::FirstCut => {
                // Upper levels: FPR ≈ 1/(2-ε) → ~1.44 bits/key with one hash,
                // but never more than ~35% of the total budget combined — the
                // bottom level (point queries, final doubting step) keeps the
                // lion's share, as in the tuned configurations of the Rosetta
                // paper.
                let upper = (n * std::f64::consts::LOG2_E)
                    .min(0.35 * total_bits / (num_levels as f64 - 1.0).max(1.0));
                let bottom = (total_bits - upper * (num_levels as f64 - 1.0)).max(64.0);
                let mut v = vec![upper; num_levels];
                v[0] = bottom;
                v
            }
            RosettaVariant::BottomHeavy => {
                // Geometric decay: level ℓ gets weight 0.5^ℓ (normalized), with
                // a floor of 1 bit/key per level.
                let mut weights: Vec<f64> =
                    (0..num_levels).map(|l| 0.5f64.powi(l as i32)).collect();
                let sum: f64 = weights.iter().sum();
                weights
                    .iter_mut()
                    .for_each(|w| *w = (*w / sum) * total_bits);
                weights.iter_mut().for_each(|w| *w = w.max(n));
                weights
            }
        };

        let levels = per_level_bits
            .iter()
            .enumerate()
            .map(|(level, &bits)| {
                let bpk = bits / n;
                let k = if level == 0 {
                    ((bpk * std::f64::consts::LN_2).round() as u32).max(1)
                } else {
                    // Upper levels use a single hash (the first-cut design point).
                    ((bpk * std::f64::consts::LN_2).floor() as u32).clamp(1, 4)
                };
                BloomFilter::new(bits as usize, k)
            })
            .collect();
        Self {
            levels,
            max_level,
            domain_bits,
        }
    }

    /// Insert a key: one prefix per maintained level.
    pub fn insert_key(&mut self, key: u64) {
        for level in 0..=self.max_level {
            let prefix = shr(key, level);
            self.levels[level as usize].insert_key(prefix);
        }
    }

    /// Probe one dyadic interval with doubting. Returns `true` if the interval
    /// may contain a key.
    fn doubt(&self, di: DyadicInterval, probes: &mut usize) -> bool {
        if *probes >= MAX_DOUBT_PROBES {
            return true; // give up, stay conservative
        }
        *probes += 1;
        if di.level > self.max_level {
            // No filter for this level: split into maintained-level children.
            let span = di.level - self.max_level;
            let children = 1u64 << span.min(63);
            if children > MAX_TOP_SPLIT {
                return true;
            }
            let base = di.prefix << span;
            return (0..children).any(|c| {
                self.doubt(
                    DyadicInterval {
                        prefix: base + c,
                        level: self.max_level,
                    },
                    probes,
                )
            });
        }
        if !self.levels[di.level as usize].contains(di.prefix) {
            return false;
        }
        if di.level == 0 {
            return true;
        }
        let (l, r) = di.children();
        self.doubt(l, probes) || self.doubt(r, probes)
    }
}

impl PointRangeFilter for RosettaFilter {
    fn name(&self) -> &'static str {
        "Rosetta"
    }
    fn may_contain(&self, key: u64) -> bool {
        self.levels[0].contains(key)
    }
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
        if lo > hi {
            return false;
        }
        if lo == hi {
            return self.may_contain(lo);
        }
        let hi = if self.domain_bits >= 64 {
            hi
        } else {
            hi.min((1u64 << self.domain_bits) - 1)
        };
        if lo > hi {
            return false;
        }
        let mut probes = 0usize;
        canonical_decomposition(lo, hi, self.domain_bits)
            .into_iter()
            .any(|di| self.doubt(di, &mut probes))
    }
    fn memory_bits(&self) -> usize {
        self.levels.iter().map(|b| b.memory_bits()).sum()
    }
}

impl ExclusiveOnlineFilter for RosettaFilter {
    fn insert(&mut self, key: u64) {
        self.insert_key(key);
    }
}

/// Builder for [`RosettaFilter`]s with a fixed design range and variant.
#[derive(Clone, Copy, Debug)]
pub struct RosettaBuilder {
    /// Maximum query-range size the filter is tuned for.
    pub max_range: u64,
    /// Memory allocation strategy.
    pub variant: RosettaVariant,
}

impl Default for RosettaBuilder {
    fn default() -> Self {
        Self {
            max_range: 1 << 14,
            variant: RosettaVariant::FirstCut,
        }
    }
}

impl FilterBuilder for RosettaBuilder {
    type Filter = RosettaFilter;
    fn family(&self) -> &'static str {
        "Rosetta"
    }
    fn build(&self, keys: &[u64], bits_per_key: f64) -> RosettaFilter {
        let mut f = RosettaFilter::new(keys.len(), bits_per_key, self.max_range, self.variant);
        for &k in keys {
            f.insert_key(k);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloomrf::hashing::mix64;

    fn build(keys: &[u64], bpk: f64, max_range: u64) -> RosettaFilter {
        let mut f = RosettaFilter::new(keys.len(), bpk, max_range, RosettaVariant::FirstCut);
        for &k in keys {
            f.insert_key(k);
        }
        f
    }

    #[test]
    fn level_count_follows_max_range() {
        let f = RosettaFilter::new(10, 16.0, 64, RosettaVariant::FirstCut);
        assert_eq!(f.max_level, 6);
        let f = RosettaFilter::new(10, 16.0, 2, RosettaVariant::FirstCut);
        assert_eq!(f.max_level, 1);
        let f = RosettaFilter::new(10, 16.0, 1 << 20, RosettaVariant::FirstCut);
        assert_eq!(f.max_level, 20);
    }

    #[test]
    fn no_false_negatives_points_and_ranges() {
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 7919 + 3).collect();
        let f = build(&keys, 18.0, 1 << 10);
        for &k in keys.iter().step_by(17) {
            assert!(f.may_contain(k));
            assert!(f.may_contain_range(k, k));
            assert!(f.may_contain_range(k.saturating_sub(100), k + 100));
            assert!(f.may_contain_range(k.saturating_sub(5000), k.saturating_add(5000)));
        }
    }

    #[test]
    fn empty_small_ranges_are_rejected() {
        // Rosetta's sweet spot: small ranges. Uniformly placed empty queries of
        // size 32 should be rejected almost always at 18 bits/key.
        let mut keys: Vec<u64> = (0..5000u64).map(mix64).collect();
        keys.sort_unstable();
        let f = build(&keys, 18.0, 64);
        let mut fp = 0usize;
        let mut total = 0usize;
        for i in 0..3000u64 {
            let lo = mix64(i.wrapping_mul(31) + 12345);
            let hi = match lo.checked_add(32) {
                Some(h) => h,
                None => continue,
            };
            let idx = keys.partition_point(|&k| k < lo);
            if idx < keys.len() && keys[idx] <= hi {
                continue;
            }
            total += 1;
            if f.may_contain_range(lo, hi) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / total as f64;
        assert!(fpr < 0.1, "small-range FPR {fpr} too high");
    }

    #[test]
    fn point_fpr_is_low() {
        let n = 20_000;
        let keys: Vec<u64> = (0..n as u64).map(mix64).collect();
        let f = build(&keys, 18.0, 64);
        let mut fp = 0usize;
        let trials = 20_000u64;
        for i in 0..trials {
            if f.may_contain(mix64(i + 777_777_777)) {
                fp += 1;
            }
        }
        // The bottom filter holds most of the budget → very low point FPR.
        assert!(
            (fp as f64 / trials as f64) < 0.02,
            "point FPR {}",
            fp as f64 / trials as f64
        );
    }

    #[test]
    fn ranges_beyond_design_max_are_conservative_but_correct() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i << 30).collect();
        let f = build(&keys, 16.0, 256);
        // A huge range containing keys must be positive.
        assert!(f.may_contain_range(0, u64::MAX));
        // A huge range not containing keys may or may not be pruned, but the
        // call must terminate quickly (budget-capped) and never panic.
        let _ = f.may_contain_range(1 << 62, u64::MAX);
    }

    #[test]
    fn bottom_heavy_variant_builds_and_answers() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 555 + 7).collect();
        let mut f = RosettaFilter::new(keys.len(), 20.0, 1 << 16, RosettaVariant::BottomHeavy);
        for &k in &keys {
            f.insert_key(k);
        }
        for &k in keys.iter().step_by(13) {
            assert!(f.may_contain(k));
            assert!(f.may_contain_range(k, k + 10));
        }
        assert!(f.memory_bits() > 0);
    }

    #[test]
    fn memory_respects_budget_roughly() {
        let keys: Vec<u64> = (0..10_000u64).map(mix64).collect();
        let f = RosettaBuilder {
            max_range: 1 << 10,
            variant: RosettaVariant::FirstCut,
        }
        .build(&keys, 20.0);
        let bpk = f.bits_per_key(keys.len());
        assert!(bpk < 24.0, "bits/key {bpk} exceeds budget by too much");
        assert!(bpk > 10.0, "bits/key {bpk} suspiciously small");
        assert_eq!(RosettaBuilder::default().family(), "Rosetta");
    }
}
