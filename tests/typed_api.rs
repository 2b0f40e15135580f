//! Laws of the typed key API.
//!
//! Two families of properties:
//!
//! * **Codec laws** — every [`RangeKey`] impl is order-preserving
//!   (`a < b ⇔ to_domain(a) < to_domain(b)` under the type's documented total
//!   order) and round-trips through `from_domain` where invertible.
//! * **Differential facade tests** — `TypedBloomRf` and `TypedDb`
//!   (single-key *and* batch paths) answer **identically** to
//!   the manual `encode_* + u64` path, because they delegate to the same
//!   core through the codec.

use proptest::prelude::*;

use bloomrf::encode::{encode_string_point, string_range_bounds, RangeKey};
use bloomrf::{encode_f64, encode_i64, BloomRf, TypedBloomRf};
use bloomrf_lsm::{Db, DbOptions, TypedDb};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer codecs: monotone bijections.
    #[test]
    fn integer_codecs_are_monotone_bijections(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(a.cmp(&b), a.to_domain().cmp(&b.to_domain()));
        prop_assert_eq!(i64::from_domain(a.to_domain()), Some(a));
        let (ua, ub) = (a as u64, b as u64);
        prop_assert_eq!(ua.cmp(&ub), ua.to_domain().cmp(&ub.to_domain()));
        prop_assert_eq!(u64::from_domain(ua.to_domain()), Some(ua));
    }

    /// 32-bit codecs: monotone bijections whose image fits a 32-bit domain.
    #[test]
    fn narrow_integer_codecs_fit_their_domain(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(a.cmp(&b), a.to_domain().cmp(&b.to_domain()));
        prop_assert_eq!(i32::from_domain(a.to_domain()), Some(a));
        prop_assert!(a.to_domain() <= u32::MAX as u64);
        let (ua, ub) = (a as u32, b as u32);
        prop_assert_eq!(ua.cmp(&ub), ua.to_domain().cmp(&ub.to_domain()));
        prop_assert_eq!(u32::from_domain(ua.to_domain()), Some(ua));
        prop_assert!(ua.to_domain() <= u32::MAX as u64);
    }

    /// Float codecs: monotone bijections on non-NaN values (the NaN bands of
    /// the totalOrder are pinned by unit tests in `bloomrf::encode`).
    #[test]
    fn float_codecs_are_monotone_bijections(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        // Strictly ordered floats are strictly ordered codes; -0.0 and +0.0
        // compare equal as floats but sit on adjacent codes (totalOrder).
        if a < b {
            prop_assert!(a.to_domain() < b.to_domain());
        } else if a > b {
            prop_assert!(a.to_domain() > b.to_domain());
        }
        prop_assert_eq!(
            a.to_bits() == b.to_bits(),
            a.to_domain() == b.to_domain()
        );
        prop_assert_eq!(f64::from_domain(a.to_domain()).map(f64::to_bits), Some(a.to_bits()));
        let (fa, fb) = (a as f32, b as f32);
        if !fa.is_nan() && !fb.is_nan() {
            if fa < fb {
                prop_assert!(fa.to_domain() < fb.to_domain());
            } else if fa > fb {
                prop_assert!(fa.to_domain() > fb.to_domain());
            }
            prop_assert_eq!(f32::from_domain(fa.to_domain()).map(f32::to_bits), Some(fa.to_bits()));
        }
    }

    /// Pair codec: lexicographic order, invertible, high half is attribute A.
    #[test]
    fn pair_codec_is_lexicographic(a0 in any::<u32>(), a1 in any::<u32>(),
                                   b0 in any::<u32>(), b1 in any::<u32>()) {
        let (p, q) = ((a0, a1), (b0, b1));
        prop_assert_eq!(p.cmp(&q), p.to_domain().cmp(&q.to_domain()));
        prop_assert_eq!(<(u32, u32)>::from_domain(p.to_domain()), Some(p));
        prop_assert_eq!(p.to_domain() >> 32, a0 as u64);
    }

    /// Byte-string codec: prefix-monotone bounds that always contain the
    /// point code of every key in the range; `Vec<u8>` and `&[u8]` agree.
    #[test]
    fn byte_string_codec_bounds_contain_their_keys(
        a in prop::collection::vec(any::<u8>(), 0..20),
        b in prop::collection::vec(any::<u8>(), 0..20),
        c in prop::collection::vec(any::<u8>(), 0..20),
    ) {
        let mut sorted = [&a, &b, &c];
        sorted.sort();
        let [lo, mid, hi] = sorted;
        let bounds = <Vec<u8>>::range_bounds(lo, hi);
        prop_assert_eq!(bounds, string_range_bounds(lo, hi));
        prop_assert!(bounds.0 <= bounds.1);
        // Every key lexicographically inside [lo, hi] — the bounds *and* a
        // strictly interior key — has its point code inside the prefix
        // bounds (containment law).
        for key in [lo, mid, hi] {
            prop_assert_eq!(key.to_domain(), encode_string_point(key));
            prop_assert_eq!(key.as_slice().to_domain(), key.to_domain());
            prop_assert!(
                bounds.0 <= key.to_domain() && key.to_domain() <= bounds.1,
                "point code of {:?} escapes the bounds of [{:?}, {:?}]",
                key, lo, hi
            );
        }
        prop_assert_eq!(<Vec<u8>>::from_domain(lo.to_domain()), None);
    }

    /// `TypedBloomRf<f64>` is bit-identical to the manual
    /// `encode_f64 + BloomRf` path: same storage bits, same answers, single
    /// and batched.
    #[test]
    fn typed_f64_filter_matches_manual_path(
        keys in prop::collection::vec(any::<f64>(), 1..300),
        probes in prop::collection::vec(any::<f64>(), 1..60),
        spans in prop::collection::vec(0.0f64..1e12, 1..60),
    ) {
        let manual = BloomRf::builder().expected_keys(keys.len()).bits_per_key(14.0).build().unwrap();
        let typed = BloomRf::builder()
            .expected_keys(keys.len())
            .bits_per_key(14.0)
            .key_type::<f64>()
            .build()
            .unwrap();
        for &k in &keys {
            manual.insert(encode_f64(k));
            typed.insert(&k);
        }
        prop_assert_eq!(manual.snapshot_bits(), typed.inner().snapshot_bits());
        // Batched insertion hits the same bits.
        let typed_batch = BloomRf::builder()
            .expected_keys(keys.len())
            .bits_per_key(14.0)
            .key_type::<f64>()
            .build()
            .unwrap();
        typed_batch.insert_batch(&keys);
        prop_assert_eq!(manual.snapshot_bits(), typed_batch.inner().snapshot_bits());
        // Serialization round-trips through the typed builder.
        let restored = BloomRf::builder()
            .key_type::<f64>()
            .from_bytes(&typed.to_bytes())
            .unwrap();
        prop_assert_eq!(restored.inner().snapshot_bits(), typed.inner().snapshot_bits());

        let ranges: Vec<(f64, f64)> = probes
            .iter()
            .zip(spans.iter())
            .map(|(&p, &s)| (p, p + s))
            .collect();
        let typed_points = typed.contains_point_batch(&probes);
        let typed_ranges = typed.contains_range_batch(&ranges);
        for (i, &p) in probes.iter().enumerate() {
            let want = manual.contains_point(encode_f64(p));
            prop_assert_eq!(typed.contains_point(&p), want);
            prop_assert_eq!(typed_points[i], want);
        }
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let want = manual.contains_range(encode_f64(lo), encode_f64(hi));
            prop_assert_eq!(typed.contains_range(&lo, &hi), want, "range [{}, {}]", lo, hi);
            prop_assert_eq!(typed_ranges[i], want, "batch range [{}, {}]", lo, hi);
        }
        for &k in &keys {
            prop_assert!(typed.contains_point(&k), "false negative for {}", k);
        }
    }

    /// `TypedDb<i64>` answers identically to the manual `encode_i64 + Db`
    /// path — puts, gets, scans and both batch read paths.
    #[test]
    fn typed_db_matches_manual_path(
        entries in prop::collection::vec((any::<i64>(), any::<u8>()), 1..200),
        probes in prop::collection::vec(any::<i64>(), 1..50),
        spans in prop::collection::vec(0i64..1 << 40, 1..50),
    ) {
        let options = || DbOptions {
            memtable_flush_entries: 64,
            ..Default::default()
        };
        let typed: TypedDb<i64> = TypedDb::new(options());
        let manual = Db::new(options());
        for &(k, v) in &entries {
            typed.put(&k, vec![v]);
            manual.put(encode_i64(k), vec![v]);
        }
        prop_assert_eq!(typed.inner().num_ssts(), manual.num_ssts());
        for &p in &probes {
            prop_assert_eq!(typed.get(&p), manual.get(encode_i64(p)));
        }
        for &(k, _) in &entries {
            prop_assert!(typed.get(&k).is_some(), "typed db lost key {}", k);
        }
        // Scans decode back to the typed keys of the manual scan.
        let (lo, hi) = (probes[0].min(entries[0].0), probes[0].max(entries[0].0));
        let typed_scan = typed.scan(&lo, &hi, 100);
        let manual_scan = manual.scan(encode_i64(lo), encode_i64(hi), 100);
        prop_assert_eq!(typed_scan.len(), manual_scan.len());
        for ((tk, tv), (mk, mv)) in typed_scan.iter().zip(manual_scan.iter()) {
            prop_assert_eq!(tk.to_domain(), *mk);
            prop_assert_eq!(tv, mv);
        }
        // Batch paths, across thread counts.
        let ranges: Vec<(i64, i64)> = probes
            .iter()
            .zip(spans.iter())
            .map(|(&p, &s)| (p, p.saturating_add(s)))
            .collect();
        let manual_ranges: Vec<(u64, u64)> = ranges
            .iter()
            .map(|&(lo, hi)| (encode_i64(lo), encode_i64(hi)))
            .collect();
        let manual_keys: Vec<u64> = probes.iter().map(|&p| encode_i64(p)).collect();
        for threads in [1usize, 4] {
            prop_assert_eq!(
                typed.get_batch(&probes, threads),
                manual.get_batch(&manual_keys, threads)
            );
            prop_assert_eq!(
                typed.range_non_empty_batch(&ranges, threads),
                manual.range_non_empty_batch(&manual_ranges, threads)
            );
        }
    }
}

/// A typed byte-string filter applies the hashed point coding on insert and
/// the prefix coding on range probes — exactly the manual
/// `encode_string_point` / `string_range_bounds` recipe.
#[test]
fn typed_byte_string_filter_matches_manual_recipe() {
    let typed: TypedBloomRf<Vec<u8>> = BloomRf::builder()
        .expected_keys(2000)
        .bits_per_key(16.0)
        .key_type::<Vec<u8>>()
        .build()
        .unwrap();
    let manual = BloomRf::builder()
        .expected_keys(2000)
        .bits_per_key(16.0)
        .build()
        .unwrap();
    let keys: Vec<Vec<u8>> = (0..2000)
        .map(|i| format!("order_{i:06}_item").into_bytes())
        .collect();
    for k in &keys {
        typed.insert(k);
        manual.insert(encode_string_point(k));
    }
    assert_eq!(manual.snapshot_bits(), typed.inner().snapshot_bits());
    for k in keys.iter().step_by(11) {
        assert!(typed.contains_point(k));
    }
    let lo = b"order_000000".to_vec();
    let hi = b"order_001999_zzzz".to_vec();
    let (mlo, mhi) = string_range_bounds(&lo, &hi);
    assert_eq!(
        typed.contains_range(&lo, &hi),
        manual.contains_range(mlo, mhi)
    );
    assert!(typed.contains_range(&lo, &hi));
    // Batch range probes carry the same prefix semantics.
    let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
        .map(|i| {
            (
                format!("order_{:06}", i * 37).into_bytes(),
                format!("order_{:06}~", i * 37 + 5).into_bytes(),
            )
        })
        .collect();
    let manual_bounds: Vec<(u64, u64)> = ranges
        .iter()
        .map(|(lo, hi)| string_range_bounds(lo, hi))
        .collect();
    assert_eq!(
        typed.contains_range_batch(&ranges),
        manual.contains_range_batch(&manual_bounds)
    );
}

/// The shared-reference `OnlineFilter` trait now admits bloomRF behind a
/// plain `&`/`Arc` — including trait objects — while the exclusive baselines
/// go through the `Locked` compat wrapper.
#[test]
fn online_filter_split_allows_shared_trait_object_insertion() {
    use bloomrf::{Locked, OnlineFilter};
    use bloomrf_filters::BloomFilter;
    use std::sync::Arc;

    let filters: Vec<Arc<dyn OnlineFilter>> = vec![
        Arc::new(
            BloomRf::builder()
                .expected_keys(1000)
                .bits_per_key(14.0)
                .build()
                .unwrap(),
        ),
        Arc::new(Locked::new(BloomFilter::with_bits_per_key(1000, 14.0))),
    ];
    for filter in &filters {
        // Insertion through a shared reference to the trait object.
        filter.insert(42);
        filter.insert_all(&[7, 9, 11]);
        assert!(filter.may_contain(42) && filter.may_contain(11));
        let mut verdicts = Vec::new();
        filter.may_contain_batch_into(&[7, 8], &mut verdicts);
        assert_eq!(verdicts, vec![true, false]);
    }
    // Concurrent shared-reference insertion compiles for both.
    std::thread::scope(|s| {
        for filter in &filters {
            let filter = Arc::clone(filter);
            s.spawn(move || {
                for i in 100..200u64 {
                    filter.insert(i);
                }
            });
        }
    });
    for filter in &filters {
        for i in (100..200u64).step_by(13) {
            assert!(filter.may_contain(i), "{} lost {i}", filter.name());
        }
    }
}

/// A `TypedDb` over byte strings: prefix range semantics flow from the codec
/// into the LSM read path.
#[test]
fn typed_db_over_byte_strings_uses_prefix_ranges() {
    let db: TypedDb<Vec<u8>> = TypedDb::new(DbOptions {
        memtable_flush_entries: 500,
        ..Default::default()
    });
    for i in 0..1500 {
        db.put(
            &format!("event_{i:06}").into_bytes(),
            format!("payload{i}").into_bytes(),
        );
    }
    db.flush();
    let probe = b"event_000700".to_vec();
    assert!(db.get(&probe).is_some());
    assert!(db.range_non_empty(&b"event_000000".to_vec(), &b"event_001499".to_vec()));
    // Typed scans cannot decode hashed string codes back — documented to
    // yield nothing; the raw scan on the inner store still works.
    assert!(db
        .scan(&b"event_000000".to_vec(), &b"event_000100".to_vec(), 10)
        .is_empty());
    let (lo, hi) = string_range_bounds(b"event_000000", b"event_000100");
    assert!(!db.inner().scan(lo, hi, 10).is_empty());
}
