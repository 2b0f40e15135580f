//! Typed facades over the `u64` filter core.
//!
//! A [`TypedBloomRf`] pairs a [`BloomRf`] with a [`RangeKey`] codec so that
//! insertion and lookup are expressed directly in the key type — floats,
//! signed integers, byte strings, attribute pairs (Sect. 8 of the paper) —
//! and the coding can no longer be applied on one side of the API but not
//! the other. Every method delegates to the corresponding `u64` entry point
//! through the codec, so a typed filter answers **bit-identically** to the
//! manual `encode_* + u64` path (enforced by the differential tests in
//! `tests/typed_api.rs`).

use std::marker::PhantomData;

use crate::config::BloomRfConfig;
use crate::encode::RangeKey;
use crate::filter::BloomRf;

/// A bloomRF filter over keys of type `K`.
///
/// Construct one with [`crate::BloomRfBuilder::key_type`]
/// (`BloomRf::builder().key_type::<f64>().build()`) or wrap an existing
/// filter with [`TypedBloomRf::wrap`].
///
/// # Example
///
/// ```
/// use bloomrf::BloomRf;
///
/// let filter = BloomRf::builder()
///     .expected_keys(10_000)
///     .bits_per_key(16.0)
///     .key_type::<f64>()
///     .build()
///     .unwrap();
/// filter.insert(&3.25);
/// filter.insert(&-7.5);
/// assert!(filter.contains_point(&3.25));
/// assert!(filter.contains_range(&-10.0, &0.0)); // contains -7.5
/// ```
#[derive(Debug)]
pub struct TypedBloomRf<K: RangeKey> {
    inner: BloomRf,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: RangeKey> TypedBloomRf<K> {
    /// Wrap an existing `u64` filter in the typed facade.
    ///
    /// The caller is responsible for the filter's domain being wide enough
    /// for the codec (`K::DOMAIN_BITS`); [`crate::BloomRfBuilder::key_type`]
    /// picks the right width automatically.
    pub fn wrap(inner: BloomRf) -> Self {
        Self {
            inner,
            _key: PhantomData,
        }
    }

    /// The underlying `u64` filter.
    pub fn inner(&self) -> &BloomRf {
        &self.inner
    }

    /// Unwrap back into the underlying `u64` filter.
    pub fn into_inner(self) -> BloomRf {
        self.inner
    }

    /// Insert a key (the codec's domain code of it).
    pub fn insert(&self, key: &K) {
        self.inner.insert(key.to_domain());
    }

    /// Insert a batch of keys through the level-grouped batch engine
    /// ([`BloomRf::insert_batch`]).
    pub fn insert_batch(&self, keys: &[K]) {
        let codes: Vec<u64> = keys.iter().map(RangeKey::to_domain).collect();
        self.inner.insert_batch(&codes);
    }

    /// Approximate point membership test.
    pub fn contains_point(&self, key: &K) -> bool {
        self.inner.contains_point(key.to_domain())
    }

    /// Batched point membership ([`BloomRf::contains_point_batch`]).
    pub fn contains_point_batch(&self, keys: &[K]) -> Vec<bool> {
        let codes: Vec<u64> = keys.iter().map(RangeKey::to_domain).collect();
        self.inner.contains_point_batch(&codes)
    }

    /// Approximate range emptiness test for the typed inclusive interval
    /// `[lo, hi]`, using the codec's [`RangeKey::range_bounds`] (so e.g.
    /// byte-string ranges get prefix semantics automatically).
    pub fn contains_range(&self, lo: &K, hi: &K) -> bool {
        let (lo, hi) = K::range_bounds(lo, hi);
        self.inner.contains_range(lo, hi)
    }

    /// Batched range emptiness ([`BloomRf::contains_range_batch`]).
    pub fn contains_range_batch(&self, ranges: &[(K, K)]) -> Vec<bool> {
        let bounds: Vec<(u64, u64)> = ranges
            .iter()
            .map(|(lo, hi)| K::range_bounds(lo, hi))
            .collect();
        self.inner.contains_range_batch(&bounds)
    }

    /// Number of keys inserted so far.
    pub fn key_count(&self) -> u64 {
        self.inner.key_count()
    }

    /// Total memory used by the filter payload, in bits.
    pub fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    /// The configuration the underlying filter was built from.
    pub fn config(&self) -> &BloomRfConfig {
        self.inner.config()
    }

    /// Serialize the underlying filter ([`BloomRf::to_bytes`]); restore with
    /// [`crate::TypedBloomRfBuilder::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.inner.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_f64, encode_string_point, string_range_bounds};

    #[test]
    fn typed_f64_matches_manual_encoding_bit_for_bit() {
        let manual = BloomRf::builder()
            .expected_keys(1000)
            .bits_per_key(14.0)
            .build()
            .unwrap();
        let typed = TypedBloomRf::<f64>::wrap(
            BloomRf::builder()
                .expected_keys(1000)
                .bits_per_key(14.0)
                .build()
                .unwrap(),
        );
        for i in 0..1000 {
            let v = (i as f64 - 500.0) * 1.75;
            manual.insert(encode_f64(v));
            typed.insert(&v);
        }
        assert_eq!(manual.snapshot_bits(), typed.inner().snapshot_bits());
        for i in 0..500 {
            let v = (i as f64) * 3.3 - 400.0;
            assert_eq!(
                manual.contains_point(encode_f64(v)),
                typed.contains_point(&v)
            );
            assert_eq!(
                manual.contains_range(encode_f64(v), encode_f64(v + 10.0)),
                typed.contains_range(&v, &(v + 10.0))
            );
        }
        assert_eq!(manual.key_count(), typed.key_count());
        assert_eq!(manual.memory_bits(), typed.memory_bits());
    }

    #[test]
    fn typed_bytes_use_prefix_range_semantics() {
        let typed = TypedBloomRf::<&[u8]>::wrap(
            BloomRf::builder()
                .expected_keys(1000)
                .bits_per_key(16.0)
                .build()
                .unwrap(),
        );
        let keys: Vec<String> = (0..500).map(|i| format!("user_{i:05}_x")).collect();
        for k in &keys {
            typed.insert(&k.as_bytes());
        }
        assert!(typed.contains_point(&keys[17].as_bytes()));
        // Typed range == manual string_range_bounds range.
        let (lo, hi) = string_range_bounds(b"user_00000", b"user_00499_zzz");
        assert_eq!(
            typed.inner().contains_range(lo, hi),
            typed.contains_range(&b"user_00000".as_slice(), &b"user_00499_zzz".as_slice())
        );
        assert!(typed.contains_range(&b"user_00000".as_slice(), &b"user_00499_zzz".as_slice()));
        // And the point code used is the hashed point coding.
        assert!(typed
            .inner()
            .contains_point(encode_string_point(keys[17].as_bytes())));
    }

    #[test]
    fn typed_batches_delegate_to_the_batch_engine() {
        let typed = TypedBloomRf::<i64>::wrap(
            BloomRf::builder()
                .expected_keys(2000)
                .bits_per_key(14.0)
                .build()
                .unwrap(),
        );
        let keys: Vec<i64> = (-1000..1000).map(|i| i * 7919).collect();
        typed.insert_batch(&keys);
        let points = typed.contains_point_batch(&keys);
        assert!(points.iter().all(|&b| b), "no false negatives");
        let ranges: Vec<(i64, i64)> = keys.iter().map(|&k| (k - 3, k + 3)).collect();
        let verdicts = typed.contains_range_batch(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert_eq!(verdicts[i], typed.contains_range(&lo, &hi));
            assert!(verdicts[i]);
        }
        let restored = TypedBloomRf::<i64>::wrap(BloomRf::from_bytes(&typed.to_bytes()).unwrap());
        assert_eq!(restored.key_count(), typed.key_count());
        assert!(restored.contains_point(&keys[42]));
        assert_eq!(restored.config(), typed.config());
        let _ = typed.into_inner();
    }
}
