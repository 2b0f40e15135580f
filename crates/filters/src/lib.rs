//! Baseline point/range filters for the bloomRF reproduction.
//!
//! Every filter family the paper's evaluation compares against is implemented
//! here from scratch:
//!
//! | Filter | Point queries | Range queries | Online inserts | Module |
//! |---|---|---|---|---|
//! | Bloom filter (RocksDB/LevelDB style) | yes | no | yes | [`bloom`] |
//! | Prefix Bloom filter | yes | within prefixes | yes | [`prefix_bloom`] |
//! | Fence pointers / min-max (ZoneMap) | coarse | coarse | no | [`fence`] |
//! | Cuckoo filter | yes | no | yes | [`cuckoo`] |
//! | Rosetta (per-level Bloom filters + doubting) | yes | yes | yes | [`rosetta`] |
//! | SuRF (LOUDS-Sparse truncated trie) | yes | yes | no (offline) | [`surf`] |
//!
//! [`FilterKind`] offers a uniform way to construct any of them (plus bloomRF
//! itself) from a key set and a bits/key budget, which is what the LSM
//! substrate and the benchmark harness use.

#![warn(missing_docs)]

pub mod bitvector;
pub mod bloom;
pub mod cuckoo;
pub mod fence;
pub mod prefix_bloom;
pub mod rosetta;
pub mod surf;

pub use bitvector::RankSelectBitVec;
pub use bloom::{BloomFilter, BloomFilterBuilder};
pub use cuckoo::{CuckooFilter, CuckooFilterBuilder};
pub use fence::{FencePointers, FencePointersBuilder};
pub use prefix_bloom::{PrefixBloomBuilder, PrefixBloomFilter};
pub use rosetta::{RosettaBuilder, RosettaFilter, RosettaVariant};
pub use surf::{SurfBuilder, SurfFilter, SurfMode};

use bloomrf::traits::{FilterBuilder, PointRangeFilter};
use bloomrf::{BloomRf, BloomRfBuilder};

/// A dynamically-dispatched filter family, used by the LSM substrate and the
/// benchmark harness to sweep over all competitors uniformly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FilterKind {
    /// bloomRF tuned by the advisor for the given maximum range.
    BloomRf {
        /// Approximate maximum query-range size the advisor tunes for.
        max_range: f64,
    },
    /// Basic (tuning-free) bloomRF with equidistant Δ = 7.
    BloomRfBasic,
    /// Rosetta with the first-cut memory layout.
    Rosetta {
        /// Maximum query-range size the per-level filters are provisioned for.
        max_range: u64,
    },
    /// SuRF with real-key-bit suffixes sized from the budget.
    Surf,
    /// SuRF with hashed suffixes sized from the budget.
    SurfHash,
    /// Standard Bloom filter.
    Bloom,
    /// Prefix Bloom filter.
    PrefixBloom {
        /// Number of low-order bits dropped to form the prefix.
        prefix_shift: u32,
    },
    /// Min/max fence pointers.
    FencePointers,
    /// Cuckoo filter.
    Cuckoo,
}

impl FilterKind {
    /// Human-readable family name (matches the labels used in the paper's plots).
    pub fn label(&self) -> &'static str {
        match self {
            FilterKind::BloomRf { .. } => "bloomRF",
            FilterKind::BloomRfBasic => "bloomRF-basic",
            FilterKind::Rosetta { .. } => "Rosetta",
            FilterKind::Surf => "SuRF",
            FilterKind::SurfHash => "SuRF-Hash",
            FilterKind::Bloom => "Bloom",
            FilterKind::PrefixBloom { .. } => "Prefix-Bloom",
            FilterKind::FencePointers => "FencePointers",
            FilterKind::Cuckoo => "Cuckoo",
        }
    }

    /// The [`BloomRfBuilder`] recipe of the two bloomRF families, `None` for
    /// every other family: advisor-tuned at `max_range` (falling back to
    /// the basic filter when the advisor cannot tune for it), or basic. Its
    /// [`BloomRfBuilder::config_for`] is the configuration [`FilterKind::build`]
    /// gives a key set of a given size.
    pub fn bloomrf_builder(&self) -> Option<BloomRfBuilder> {
        match *self {
            FilterKind::BloomRf { max_range } => Some(BloomRf::builder().max_range(max_range)),
            FilterKind::BloomRfBasic => Some(BloomRf::builder()),
            _ => None,
        }
    }

    /// Build a filter of this family over `keys` with roughly `bits_per_key`
    /// bits per key.
    ///
    /// Every family — bloomRF included — routes through its
    /// [`FilterBuilder`] impl, so this is a dynamic dispatch table over the
    /// per-family builders rather than a second construction path. The
    /// bloomRF arms use [`FilterKind::bloomrf_builder`].
    pub fn build(&self, keys: &[u64], bits_per_key: f64) -> Box<dyn PointRangeFilter> {
        fn boxed<B: FilterBuilder>(
            builder: B,
            keys: &[u64],
            bits_per_key: f64,
        ) -> Box<dyn PointRangeFilter>
        where
            B::Filter: 'static,
        {
            Box::new(builder.build(keys, bits_per_key))
        }
        if let Some(builder) = self.bloomrf_builder() {
            return boxed(builder, keys, bits_per_key);
        }
        match *self {
            FilterKind::Rosetta { max_range } => boxed(
                RosettaBuilder {
                    max_range,
                    variant: RosettaVariant::FirstCut,
                },
                keys,
                bits_per_key,
            ),
            FilterKind::Surf => boxed(SurfBuilder { hash_suffix: false }, keys, bits_per_key),
            FilterKind::SurfHash => boxed(SurfBuilder { hash_suffix: true }, keys, bits_per_key),
            FilterKind::Bloom => boxed(BloomFilterBuilder, keys, bits_per_key),
            FilterKind::PrefixBloom { prefix_shift } => {
                boxed(PrefixBloomBuilder { prefix_shift }, keys, bits_per_key)
            }
            FilterKind::FencePointers => boxed(FencePointersBuilder, keys, bits_per_key),
            FilterKind::Cuckoo => boxed(CuckooFilterBuilder, keys, bits_per_key),
            FilterKind::BloomRf { .. } | FilterKind::BloomRfBasic => {
                unreachable!("built from `bloomrf_builder` above")
            }
        }
    }

    /// The three point-range filters the paper focuses on, tuned for a given
    /// maximum range.
    pub fn point_range_filters(max_range: u64) -> Vec<FilterKind> {
        vec![
            FilterKind::BloomRf {
                max_range: max_range as f64,
            },
            FilterKind::Rosetta { max_range },
            FilterKind::Surf,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_has_no_false_negatives() {
        let keys: Vec<u64> = (0..5_000u64).map(bloomrf::hashing::mix64).collect();
        let kinds = [
            FilterKind::BloomRf { max_range: 1e6 },
            FilterKind::BloomRfBasic,
            FilterKind::Rosetta { max_range: 1 << 16 },
            FilterKind::Surf,
            FilterKind::SurfHash,
            FilterKind::Bloom,
            FilterKind::PrefixBloom { prefix_shift: 32 },
            FilterKind::FencePointers,
            FilterKind::Cuckoo,
        ];
        for kind in kinds {
            let filter = kind.build(&keys, 16.0);
            assert!(!filter.name().is_empty());
            for &k in keys.iter().step_by(211) {
                assert!(filter.may_contain(k), "{} lost key {k}", kind.label());
                assert!(
                    filter.may_contain_range(k.saturating_sub(10), k.saturating_add(10)),
                    "{} lost range around {k}",
                    kind.label()
                );
            }
            assert!(filter.memory_bits() > 0, "{}", kind.label());
        }
    }

    #[test]
    fn labels_and_capabilities() {
        assert_eq!(FilterKind::Bloom.label(), "Bloom");
        assert_eq!(FilterKind::BloomRf { max_range: 1.0 }.label(), "bloomRF");
        assert_eq!(FilterKind::point_range_filters(1024).len(), 3);
    }

    #[test]
    fn range_capable_filters_prune_far_away_ranges() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 1_000_003).collect();
        for kind in FilterKind::point_range_filters(1 << 10) {
            let filter = kind.build(&keys, 18.0);
            let mut rejected = 0;
            let mut total = 0;
            for i in 0..500u64 {
                // Far outside the populated region [0, 5e9].
                let lo = (1u64 << 40) + i * (1 << 20);
                total += 1;
                if !filter.may_contain_range(lo, lo + 100) {
                    rejected += 1;
                }
            }
            assert!(
                rejected * 2 > total,
                "{} rejected only {rejected}/{total} clearly-empty ranges",
                kind.label()
            );
        }
    }
}
