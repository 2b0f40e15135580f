//! Differential tests for the batched probe engine: every batch entry point
//! must be *bit-identical* to the per-key `contains_point` /
//! `contains_range` call — same verdict for every query — across every
//! combination of word layout, query kind (point / range) and configuration
//! family (basic / advisor-tuned / exact-layer / replicated).
//!
//! A filter picks its point probe path from its own size at construction, so
//! every property runs on two filters of the same shape: one sized just
//! below the crossover (the point batch is the early-exit per-key loop) and
//! one at or above it (the two-stage point batch and the prefetched point
//! probe). The range batch is a loop over `contains_range` on both sides.
//! These only regroup pure bit reads, so any divergence from the per-key call
//! is a bug by construction — there is no tolerance in these assertions.
//!
//! Above the crossover both point drivers run the same `PointProbe` slot
//! test, so agreeing with each other proves little. Both are also held to
//! [`reference_points`], which rebuilds every layer's hashes from the public
//! configuration and reads a snapshot of the bit arrays: the exact bit, then
//! every replica bit of every layer.
//!
//! The split point probe (`point_probe_into` → `prefetch_exact` →
//! `exact_admits` → `prefetch_probe` → `contains_probe`, which the filter
//! tree's descent uses) is held to `contains_point` the same way, computed
//! by one filter and tested on another's buffer handle.

use proptest::prelude::*;

use bloomrf::config::LayerSpec;
use bloomrf::hashing::{derive_seeds, shr, Pmhf, WordLayout};
use bloomrf::{BloomRf, BloomRfConfig};

/// Mirrors the crate-private `bloomrf::kernel::KERNEL_MIN_FILTER_BITS` (a
/// unit test next to the constant fails if the two drift apart).
const CROSSOVER_BITS: usize = 1 << 25;

/// The two filter sizes every property runs at, with the side of the
/// crossover `memory_bits()` must land on.
const SIZES: [(usize, bool); 2] = [
    (CROSSOVER_BITS - (1 << 20), false),
    (CROSSOVER_BITS + (1 << 20), true),
];

/// The point verdicts of `filter` on `keys`, from its public configuration
/// and a snapshot of its bit arrays alone (segments in order, then the exact
/// bitmap): a key outside the domain misses; otherwise the exact-layer bit,
/// then every replica bit of every layer must be set. Each layer's hashes
/// are rebuilt the way the configuration defines them — eight seeds per
/// layer from the filter's hash seed, the configuration's word layout, and
/// words counted over the layer's segment.
fn reference_points(filter: &BloomRf, keys: &[u64]) -> Vec<bool> {
    let config = filter.config();
    let arrays = filter.snapshot_bits();
    let seeds = derive_seeds(config.hash_seed, config.layers.len() * 8);
    let layers: Vec<(usize, u64, Vec<Pmhf>)> = (config.layers.iter().enumerate())
        .map(|(i, spec)| {
            let word_count =
                (config.segment_bits[spec.segment] as u64 / u64::from(spec.word_bits())).max(1);
            let hashers = (0..spec.replicas as usize)
                .map(|r| Pmhf {
                    layout: config.word_layout,
                    ..Pmhf::new(spec.level, spec.offset_bits(), seeds[i * 8 + r])
                })
                .collect();
            (spec.segment, word_count, hashers)
        })
        .collect();
    let exact_admits = |key: u64| match config.exact_level {
        Some(e) => arrays[config.segment_bits.len()].get(shr(key, e) as usize),
        None => true,
    };
    keys.iter()
        .map(|&key| {
            key <= config.max_key()
                && exact_admits(key)
                && layers.iter().all(|(segment, word_count, hashers)| {
                    (hashers.iter())
                        .all(|h| arrays[*segment].get(h.bit_position(key, *word_count) as usize))
                })
        })
        .collect()
}

/// Assert the batch entry points answer the per-key calls exactly, for
/// points and ranges, that the point calls answer [`reference_points`], and
/// that the filter sits on the intended side of the crossover.
fn assert_batch_matches_per_key(
    filter: &BloomRf,
    above: bool,
    points: &[u64],
    ranges: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(filter.memory_bits() >= CROSSOVER_BITS, above);
    let point_reference = reference_points(filter, points);
    let per_key: Vec<bool> = points.iter().map(|&k| filter.contains_point(k)).collect();
    prop_assert_eq!(&per_key, &point_reference, "contains_point diverged");
    let range_reference: Vec<bool> = ranges
        .iter()
        .map(|&(lo, hi)| filter.contains_range(lo, hi))
        .collect();
    let mut out = vec![true; 3]; // dirty on purpose
    filter.contains_point_batch_into(points, &mut out);
    prop_assert_eq!(&out, &point_reference, "point batch diverged");
    prop_assert_eq!(&filter.contains_point_batch(points), &point_reference);
    filter.contains_range_batch_into(ranges, &mut out);
    prop_assert_eq!(&out, &range_reference, "range batch diverged");
    prop_assert_eq!(&filter.contains_range_batch(ranges), &range_reference);
    Ok(())
}

/// Mixed probe set: some inserted keys, some arbitrary (mostly absent).
fn probes(keys: &[u64], extra: &[u64]) -> Vec<u64> {
    keys.iter().chain(extra.iter()).copied().collect()
}

fn ranges_around(probes: &[u64], widths: &[u64]) -> Vec<(u64, u64)> {
    probes
        .iter()
        .zip(widths.iter().cycle())
        .map(|(&p, &w)| (p.saturating_sub(w / 2), p.saturating_add(w)))
        .collect()
}

/// `config` with its top layer re-homed into a fresh segment that brings the
/// filter to `total_bits`. The filter lands on the wanted side of the
/// crossover while the lower layers keep the small, heavily loaded segments
/// that make probes die at every depth — and a case stays cheap: the big
/// segment is allocated zeroed and touched once per key.
fn sized(config: &BloomRfConfig, total_bits: usize) -> BloomRfConfig {
    let mut layers = config.layers.clone();
    let mut segment_bits = config.segment_bits.clone();
    layers.last_mut().unwrap().segment = segment_bits.len();
    segment_bits.push(total_bits - config.total_bits());
    BloomRfConfig::new(
        config.domain_bits,
        layers,
        segment_bits,
        config.exact_level,
        config.hash_seed,
    )
    .unwrap()
    .with_word_layout(config.word_layout)
}

fn layout_of(alternating: bool) -> WordLayout {
    if alternating {
        WordLayout::Alternating
    } else {
        WordLayout::Forward
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Basic filter, both word layouts.
    #[test]
    fn kernel_matches_scalar_basic_flat(
        keys in prop::collection::vec(any::<u64>(), 1..300),
        extra in prop::collection::vec(any::<u64>(), 1..100),
        widths in prop::collection::vec(0u64..1 << 45, 1..8),
        alternating in any::<bool>(),
    ) {
        let points = probes(&keys, &extra);
        let ranges = ranges_around(&points, &widths);
        let config = BloomRfConfig::basic(64, keys.len(), 14.0, 7)
            .unwrap()
            .with_word_layout(layout_of(alternating));
        for (bits, above) in SIZES {
            let filter = BloomRf::builder().config(sized(&config, bits)).build().unwrap();
            filter.insert_batch(&keys);
            assert_batch_matches_per_key(&filter, above, &points, &ranges)?;
        }
    }

    /// Advisor-tuned filter: exact-layer bitmap + replicated hashers +
    /// multiple segments — the configuration family that exercises the
    /// kernel's exact-layer batch and replica-major position layout.
    #[test]
    fn kernel_matches_scalar_tuned(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        extra in prop::collection::vec(any::<u64>(), 1..80),
        widths in prop::collection::vec(0u64..1 << 50, 1..8),
    ) {
        let points = probes(&keys, &extra);
        let ranges = ranges_around(&points, &widths);
        let tuned = bloomrf::TuningAdvisor::tune_for(64, keys.len().max(100), 18.0, 1e8).unwrap();
        for (bits, above) in SIZES {
            let filter = BloomRf::builder().config(sized(&tuned.config, bits)).build().unwrap();
            filter.insert_batch(&keys);
            assert_batch_matches_per_key(&filter, above, &points, &ranges)?;
        }
    }

    /// Hand-built replicated layout on a small domain: several hashers per
    /// layer. Up to 2 × 8 + 1 = 17 positions overflow the probe's inline
    /// window of 16, so the point drivers recompute the last one, the top
    /// layer's, from the key. With a 4 096-bit first segment probes die at
    /// every depth; with a saturated 64-bit one every key passes the
    /// replicated layers, so for the neighbours of inserted keys (same
    /// exact-layer prefix, another level-12 prefix) that last position
    /// decides.
    #[test]
    fn kernel_matches_scalar_replicated_small_domain(
        keys in prop::collection::vec(any::<u64>() , 1..150),
        extra in prop::collection::vec(any::<u64>(), 1..60),
        replicas in 1u32..=8,
        seed in any::<u64>(),
    ) {
        let keys: Vec<u64> = keys.iter().map(|k| k & 0xFFFF_FFFF).collect();
        let extra: Vec<u64> = (extra.iter().map(|k| k & 0xFFFF_FFFF))
            .chain(keys.iter().map(|k| k ^ (1 << 12)))
            .collect();
        let points = probes(&keys, &extra);
        let ranges = ranges_around(&points, &[1, 1 << 8, 1 << 16]);
        let layers = vec![
            LayerSpec::new(0, 6, replicas, 0),
            LayerSpec::new(6, 6, replicas, 0),
            LayerSpec::new(12, 6, 1, 1),
        ];
        for first_segment in [1 << 12, 64] {
            // Exact layer sits at the top boundary (18); its bitmap spans
            // the remaining 2^(32-18) prefixes.
            let segments = vec![first_segment, 1 << 10];
            let config = BloomRfConfig::new(32, layers.clone(), segments, Some(18), seed)
                .unwrap();
            for (bits, above) in SIZES {
                let filter = BloomRf::builder().config(sized(&config, bits)).build().unwrap();
                filter.insert_batch(&keys);
                assert_batch_matches_per_key(&filter, above, &points, &ranges)?;
            }
        }
    }

    /// Batch sizes around and past the overlapped batch's window of 16 keys:
    /// empty, 1, 3, 4, 5, 63, 64, 65 …
    #[test]
    fn kernel_matches_scalar_at_boundary_batch_sizes(
        seed_keys in prop::collection::vec(any::<u64>(), 64..80),
        size_pick in 0usize..8,
    ) {
        let sizes = [0usize, 1, 3, 4, 5, 63, 64, 65];
        let n = sizes[size_pick];
        let points: Vec<u64> = seed_keys.iter().copied().take(n).collect();
        let ranges: Vec<(u64, u64)> = points
            .iter()
            .map(|&p| (p.saturating_sub(10), p.saturating_add(10)))
            .collect();
        let config = BloomRfConfig::basic(64, seed_keys.len(), 16.0, 7).unwrap();
        for (bits, above) in SIZES {
            let filter = BloomRf::builder().config(sized(&config, bits)).build().unwrap();
            filter.insert_batch(&seed_keys);
            assert_batch_matches_per_key(&filter, above, &points, &ranges)?;
        }
    }
}

/// The four configuration families of the split-probe property, sized to
/// land on the wanted side of the crossover.
fn split_probe_configs(n_keys: usize, seed: u64, above: bool) -> Vec<BloomRfConfig> {
    let total_bits = SIZES[usize::from(above)].0;
    let basic = BloomRfConfig::basic(64, n_keys, 14.0, 7).unwrap();
    let tuned = bloomrf::TuningAdvisor::tune_for(64, n_keys.max(100), 18.0, 1e8)
        .unwrap()
        .config;
    // Exact layer over saturated 64-bit segments: the exact bitmap decides
    // almost every verdict, and its size (2^(64-e) bits) picks the side.
    let top_gap = if above { 3 } else { 5 };
    let exact_level = 35 + top_gap;
    let mut layers: Vec<LayerSpec> = (0..5).map(|i| LayerSpec::new(i * 7, 7, 1, 0)).collect();
    layers.push(LayerSpec::new(35, top_gap, 1, 0));
    let exact = BloomRfConfig::new(64, layers, vec![64], Some(exact_level), seed).unwrap();
    // Replicated hashers on a 32-bit domain (probe keys above 2^32 are out
    // of it), top layer stored exactly. 17 positions overflow the probe's
    // inline window, so the last one, the top layer's, is recomputed when
    // tested; the layers below it share a saturated 64-bit segment, so that
    // position decides whenever the exact bitmap passes.
    let replicated = BloomRfConfig::new(
        32,
        vec![
            LayerSpec::new(0, 6, 8, 0),
            LayerSpec::new(6, 6, 8, 0),
            LayerSpec::new(12, 6, 1, 0),
        ],
        vec![64],
        Some(18),
        seed,
    )
    .unwrap();
    vec![
        sized(&basic, total_bits),
        sized(&tuned.with_seed(seed), total_bits),
        exact,
        sized(&replicated, total_bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `point_probe_into` → (`prefetch_probe`) → `contains_probe` is
    /// `contains_point`, and `exact_admits` never rejects a key
    /// `contains_point` accepts, on both sides of the crossover. Each
    /// filter computes the probe and tests it on its own buffer and on the
    /// buffer handle of a second filter of the same configuration holding
    /// other keys, where it must answer that filter's `contains_point` —
    /// the way the filter tree tests one level's probe on every sibling's
    /// buffer.
    #[test]
    fn split_probe_matches_contains_point(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        extra in prop::collection::vec(any::<u64>(), 1..80),
        seed in any::<u64>(),
    ) {
        let half = keys.len() / 2;
        let mut probe = bloomrf::PointProbe::default(); // reused, dirty
        for (_, above) in SIZES {
            for config in split_probe_configs(keys.len(), seed, above) {
                let max_key = config.max_key();
                let owned: Vec<u64> = keys.iter().map(|&k| k & max_key).collect();
                let filter = BloomRf::builder().config(config.clone()).build().unwrap();
                let sibling = BloomRf::builder().config(config).build().unwrap();
                prop_assert_eq!(filter.memory_bits() >= CROSSOVER_BITS, above);
                filter.insert_batch(&owned[..half]);
                sibling.insert_batch(&owned[half..]);
                // Inserted keys, absent keys, neighbours on either side of
                // an exact level, and keys outside a narrow domain.
                let points = owned.iter().chain(&extra).flat_map(|&k| {
                    [k, k ^ (1 << 12), k.wrapping_add(1 << 18), k ^ (1 << 40)]
                });
                for k in points {
                    for (hasher, tested) in [
                        (&filter, &filter),
                        (&filter, &sibling),
                        (&sibling, &filter),
                    ] {
                        let expected = tested.contains_point(k);
                        let bits = tested.bits();
                        hasher.point_probe_into(k, &mut probe);
                        prop_assert_eq!(hasher.contains_probe(&probe, bits), expected, "key {}", k);
                        hasher.prefetch_exact(&probe, bits);
                        prop_assert!(hasher.exact_admits(&probe, bits) || !expected, "key {}", k);
                        hasher.prefetch_probe(&mut probe, bits);
                        prop_assert_eq!(hasher.contains_probe(&probe, bits), expected, "key {}", k);
                    }
                }
            }
        }
    }
}

/// The `_into` batch entry points reuse a dirty output buffer correctly.
#[test]
fn into_variants_clear_previous_contents() {
    let config = BloomRfConfig::basic(64, 100, 16.0, 7).unwrap();
    for (bits, _) in SIZES {
        let filter = BloomRf::builder()
            .config(sized(&config, bits))
            .build()
            .unwrap();
        filter.insert_batch(&[1, 2, 3]);
        let mut out = vec![true; 17];
        filter.contains_point_batch_into(&[1, 999_999], &mut out);
        assert_eq!(out, [true, filter.contains_point(999_999)]);
        filter.contains_range_batch_into(&[(0, 10)], &mut out);
        assert_eq!(out, [true]);
    }
}

/// One output buffer survives reuse across filters of different shapes and
/// sides of the crossover.
#[test]
fn scratch_reuse_across_filters() {
    let small = BloomRfConfig::basic(64, 50, 12.0, 7).unwrap();
    let tuned = bloomrf::TuningAdvisor::tune_for(64, 1000, 18.0, 1e6)
        .unwrap()
        .config;
    let mut filters = Vec::new();
    for (bits, _) in SIZES {
        for config in [&small, &tuned] {
            let filter = BloomRf::builder()
                .config(sized(config, bits))
                .build()
                .unwrap();
            filter.insert_batch(&[10, 20, 30]);
            filters.push(filter);
        }
    }
    let mut out = Vec::new();
    for _ in 0..3 {
        for filter in &filters {
            filter.contains_point_batch_into(&[10, 11, 30, 31], &mut out);
            let per_key = [10, 11, 30, 31].map(|k| filter.contains_point(k));
            assert_eq!(out, per_key);
            assert_eq!((out[0], out[2]), (true, true));
        }
    }
}
