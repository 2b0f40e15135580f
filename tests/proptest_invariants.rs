//! Property-based tests (proptest) for the core invariants of every filter:
//! approximate membership structures may return false positives but must never
//! return false negatives, order-preserving encodings must be monotone, and
//! the dyadic machinery must partition intervals exactly.

use proptest::prelude::*;

use bloomrf::dyadic::canonical_decomposition;
use bloomrf::traits::{ExclusiveOnlineFilter, PointRangeFilter};
use bloomrf::{decode_f64, decode_i64, encode_f64, encode_i64, BloomRf};
use bloomrf_filters::{
    BloomFilter, CuckooFilter, RosettaFilter, RosettaVariant, SurfFilter, SurfMode,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// bloomRF never loses a key: every inserted key is found by point
    /// lookups and by any range that contains it.
    #[test]
    fn bloomrf_has_no_false_negatives(
        keys in prop::collection::vec(any::<u64>(), 1..400),
        probes in prop::collection::vec(any::<u64>(), 1..50),
        widths in prop::collection::vec(0u64..1 << 40, 1..50),
    ) {
        let filter = BloomRf::builder().expected_keys(keys.len()).bits_per_key(12.0).build().unwrap();
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            prop_assert!(filter.contains_point(k));
            prop_assert!(filter.contains_range(k, k));
        }
        // Ranges anchored below a key and wide enough to reach it are positive.
        for (&p, &w) in probes.iter().zip(widths.iter()) {
            let lo = p;
            let hi = p.saturating_add(w);
            if let Some(&k) = keys.iter().find(|&&k| k >= lo && k <= hi) {
                prop_assert!(filter.contains_range(lo, hi), "range [{lo},{hi}] contains {k}");
            }
        }
    }

    /// The advisor-tuned (extended) filter also never produces false negatives.
    #[test]
    fn tuned_bloomrf_has_no_false_negatives(
        keys in prop::collection::vec(any::<u64>(), 1..300),
        width in 0u64..1 << 35,
    ) {
        let tuned = bloomrf::TuningAdvisor::tune_for(64, keys.len().max(100), 18.0, 1e8).unwrap();
        let filter = BloomRf::builder().config(tuned.config).build().unwrap();
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            prop_assert!(filter.contains_point(k));
            prop_assert!(filter.contains_range(k.saturating_sub(width), k.saturating_add(width)));
        }
    }

    /// Baseline filters share the no-false-negative contract.
    #[test]
    fn baseline_filters_have_no_false_negatives(
        keys in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let mut bloom = BloomFilter::with_bits_per_key(keys.len(), 12.0);
        let mut cuckoo = CuckooFilter::with_bits_per_key(keys.len(), 12.0);
        let mut rosetta = RosettaFilter::new(keys.len(), 16.0, 1 << 12, RosettaVariant::FirstCut);
        for &k in &keys {
            bloom.insert(k);
            cuckoo.insert(k);
            rosetta.insert(k);
        }
        let surf = SurfFilter::build(&keys, SurfMode::Real(8));
        for &k in &keys {
            prop_assert!(bloom.may_contain(k));
            prop_assert!(cuckoo.may_contain(k));
            prop_assert!(rosetta.may_contain(k));
            prop_assert!(surf.may_contain(k));
            prop_assert!(rosetta.may_contain_range(k.saturating_sub(100), k.saturating_add(100)));
            prop_assert!(surf.may_contain_range(k.saturating_sub(100), k.saturating_add(100)));
        }
    }

    /// The canonical dyadic decomposition partitions the interval exactly:
    /// disjoint, covering, in order, with at most two intervals per level.
    #[test]
    fn dyadic_decomposition_is_exact(lo in any::<u64>(), span in any::<u64>()) {
        let hi = lo.saturating_add(span);
        let parts = canonical_decomposition(lo, hi, 64);
        let mut cursor = lo;
        for (i, di) in parts.iter().enumerate() {
            prop_assert_eq!(di.start(), cursor, "gap before part {}", i);
            prop_assert!(di.end() <= hi);
            if di.end() == hi {
                prop_assert_eq!(i, parts.len() - 1);
                break;
            }
            cursor = di.end() + 1;
        }
        prop_assert_eq!(parts.last().unwrap().end(), hi);
        for level in 0..=64u32 {
            prop_assert!(parts.iter().filter(|d| d.level == level).count() <= 2);
        }
    }

    /// The float coding is a monotone bijection on non-NaN doubles.
    #[test]
    fn float_coding_is_monotone_and_bijective(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let (ea, eb) = (encode_f64(a), encode_f64(b));
        if a < b {
            prop_assert!(ea < eb);
        } else if a > b {
            prop_assert!(ea > eb);
        }
        prop_assert_eq!(decode_f64(ea).to_bits(), a.to_bits());
    }

    /// The signed-integer coding is a monotone bijection.
    #[test]
    fn i64_coding_is_monotone_and_bijective(a in any::<i64>(), b in any::<i64>()) {
        let (ea, eb) = (encode_i64(a), encode_i64(b));
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        prop_assert_eq!(decode_i64(ea), a);
    }

    /// Serialization round-trips preserve every answer the filter gives.
    #[test]
    fn bloomrf_serialization_roundtrip(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        probes in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let filter = BloomRf::builder().expected_keys(keys.len()).bits_per_key(14.0).build().unwrap();
        for &k in &keys {
            filter.insert(k);
        }
        let restored = BloomRf::from_bytes(&filter.to_bytes()).unwrap();
        for &p in &probes {
            prop_assert_eq!(filter.contains_point(p), restored.contains_point(p));
            prop_assert_eq!(
                filter.contains_range(p, p.saturating_add(1 << 20)),
                restored.contains_range(p, p.saturating_add(1 << 20))
            );
        }
    }

    /// Truncating or bit-flipping serialized bytes yields an error, never a
    /// panic and never a silently different filter.
    #[test]
    fn bloomrf_corrupted_bytes_are_rejected(
        keys in prop::collection::vec(any::<u64>(), 1..100),
        cut_frac in 0.0f64..1.0,
        flip_pos in any::<u64>(),
        flip_mask in 1u8..=255,
    ) {
        let filter = BloomRf::builder().expected_keys(keys.len()).bits_per_key(14.0).build().unwrap();
        for &k in &keys {
            filter.insert(k);
        }
        let bytes = filter.to_bytes();
        // Any strict prefix must fail to decode.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(BloomRf::from_bytes(&bytes[..cut]).is_err());
        }
        // A single flipped byte either fails to decode or decodes into a
        // filter that still answers every stored key positively (flips inside
        // the bit arrays only ever add or remove probabilistic bits, and the
        // decoder validates all structural fields).
        let mut flipped = bytes.clone();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        flipped[pos] ^= flip_mask;
        if let Ok(decoded) = BloomRf::from_bytes(&flipped) {
            let _ = decoded.contains_range(0, u64::MAX); // must not panic
        }
    }

    /// Differential: a filter loaded through `insert_batch` and one loaded
    /// key by key hold identical bits, and the batch probe APIs agree
    /// element-wise with the one-at-a-time APIs — on the basic filter and on
    /// advisor-tuned (extended) configurations with replicated hashes,
    /// segments and an exact layer.
    #[test]
    fn batched_matches_sequential(
        keys in prop::collection::vec(any::<u64>(), 1..400),
        probes in prop::collection::vec(any::<u64>(), 1..60),
        spans in prop::collection::vec(any::<u64>(), 1..60),
        tuned in any::<bool>(),
    ) {
        let builder = if tuned {
            BloomRf::builder()
                .expected_keys(keys.len().max(100))
                .bits_per_key(18.0)
                .max_range(1e8)
        } else {
            BloomRf::builder().expected_keys(keys.len()).bits_per_key(12.0)
        };
        let sequential = builder.clone().build().unwrap();
        let batched = builder.build().unwrap();
        for &k in &keys {
            sequential.insert(k);
        }
        batched.insert_batch(&keys);
        prop_assert_eq!(sequential.key_count(), batched.key_count());

        // Bit-identical storage contents...
        prop_assert_eq!(sequential.snapshot_bits(), batched.snapshot_bits());

        // ...and answer-identical probes, including degenerate and reversed
        // ranges and ranges clamped at the domain boundary.
        let ranges: Vec<(u64, u64)> = probes
            .iter()
            .zip(spans.iter())
            .map(|(&p, &s)| (p, p.saturating_add(s)))
            .chain(probes.iter().map(|&p| (p, p)))
            .chain(probes.iter().map(|&p| (p, p.wrapping_sub(1))))
            .chain(probes.iter().map(|&p| (p, p.saturating_add(1 << 33))))
            .collect();
        let batch_points = batched.contains_point_batch(&probes);
        for (i, &p) in probes.iter().enumerate() {
            let want = sequential.contains_point(p);
            prop_assert_eq!(batch_points[i], want, "batch point {}", p);
            prop_assert_eq!(batched.contains_point(p), want, "point {}", p);
        }
        let batch_ranges = batched.contains_range_batch(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let want = sequential.contains_range(lo, hi);
            prop_assert_eq!(batch_ranges[i], want, "batch range [{},{}]", lo, hi);
            prop_assert_eq!(batched.contains_range(lo, hi), want, "range [{},{}]", lo, hi);
        }
    }

    /// SuRF agrees with the exact key set on membership of stored keys and on
    /// ranges that truly contain keys (no false negatives), for arbitrary key
    /// sets including adversarial shared prefixes.
    #[test]
    fn surf_never_misses(
        mut keys in prop::collection::vec(any::<u64>(), 1..200),
        spans in prop::collection::vec(0u64..1 << 30, 1..40),
    ) {
        keys.sort_unstable();
        keys.dedup();
        let surf = SurfFilter::build(&keys, SurfMode::Real(12));
        for &k in &keys {
            prop_assert!(surf.contains(k));
        }
        for (i, &span) in spans.iter().enumerate() {
            let k = keys[i % keys.len()];
            prop_assert!(surf.contains_range(k.saturating_sub(span), k.saturating_add(span)));
        }
    }

    /// Whole persisted SST files under corruption: truncating or bit-flipping
    /// the `BSST` bytes never panics, never allocates unboundedly (every
    /// declared length is validated against the input before allocation), and
    /// any accepted decode has verifiably intact data — at worst the filter
    /// is quarantined and rebuilt, so every stored entry is still served.
    #[test]
    fn persisted_sst_decode_survives_arbitrary_corruption(
        mut keys in prop::collection::vec(any::<u64>(), 1..150),
        cut_frac in 0.0f64..1.0,
        flip_pos in any::<u64>(),
        flip_mask in 1u8..=255,
    ) {
        use bloomrf_lsm::{IoModel, ReadStats, SsTable, Value};
        keys.sort_unstable();
        keys.dedup();
        let entries: Vec<(u64, Value)> = keys
            .iter()
            .map(|&k| (k, Value::Put(vec![(k % 251) as u8; 5])))
            .collect();
        let sst = SsTable::build(
            &entries,
            8,
            bloomrf_filters::FilterKind::BloomRf { max_range: 1e6 },
            14.0,
        );
        let bytes = sst.to_bytes();
        let stats = ReadStats::new();

        // A clean round-trip restores the persisted filter without rebuilds.
        let restored = SsTable::from_bytes(&bytes, &stats).unwrap();
        prop_assert_eq!(stats.snapshot().filters_rebuilt, 0);

        // Any strict prefix (torn tail write) and any single flipped byte:
        // decoding must not panic, and if it succeeds the data is intact.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let corruptions = [
            bytes[..cut.min(bytes.len())].to_vec(),
            {
                let mut flipped = bytes.clone();
                let pos = (flip_pos % bytes.len() as u64) as usize;
                flipped[pos] ^= flip_mask;
                flipped
            },
        ];
        let io = IoModel::default();
        for corrupt in &corruptions {
            if let Ok(table) = SsTable::from_bytes(corrupt, &stats) {
                let probe_stats = ReadStats::new();
                for (k, v) in entries.iter().step_by(7) {
                    let got = table.get(*k, &io, &probe_stats);
                    prop_assert_eq!(got.as_ref(), Some(v), "accepted decode lost key {}", k);
                }
            }
        }
        drop(restored);
    }
}
