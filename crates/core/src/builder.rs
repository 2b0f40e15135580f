//! One unified construction surface for every bloomRF variant.
//!
//! [`BloomRfBuilder`] collapses the constructor matrix — basic vs.
//! advisor-tuned, `u64` vs. typed keys, fresh vs. deserialized — behind a
//! single fluent chain:
//!
//! ```
//! use bloomrf::BloomRf;
//!
//! // Advisor-tuned, typed over f64 — one chain.
//! let filter = BloomRf::builder()
//!     .expected_keys(100_000)
//!     .bits_per_key(18.0)
//!     .max_range(1e8)
//!     .key_type::<f64>()
//!     .build()
//!     .unwrap();
//! filter.insert(&1.25);
//! assert!(filter.contains_range(&0.0, &2.0));
//! ```
//!
//! [`BloomRf::from_bytes`] remains as a thin delegate of
//! [`BloomRfBuilder::from_bytes`].

use std::marker::PhantomData;

use crate::advisor::TuningAdvisor;
use crate::config::{BloomRfConfig, RangePolicy};
use crate::encode::RangeKey;
use crate::error::{ConfigError, DecodeError, MergeError};
use crate::filter::BloomRf;
use crate::hashing::WordLayout;
use crate::traits::FilterBuilder;
use crate::typed::TypedBloomRf;

/// Builder for [`BloomRf`] filters over raw `u64` keys; switch the key type
/// with [`BloomRfBuilder::key_type`]. Obtain one via [`BloomRf::builder`].
///
/// Unless overridden, the builder produces the tuning-free basic filter
/// (Sect. 3) for 1 M expected keys at 14 bits/key over the full 64-bit
/// domain. Setting [`BloomRfBuilder::max_range`] switches to an
/// advisor-tuned extended configuration (Sect. 7); setting
/// [`BloomRfBuilder::config`] uses an explicit configuration verbatim.
#[derive(Clone, Debug)]
pub struct BloomRfBuilder {
    domain_bits: Option<u32>,
    expected_keys: usize,
    bits_per_key: f64,
    delta: u32,
    max_range: Option<f64>,
    config: Option<BloomRfConfig>,
    seed: Option<u64>,
    range_policy: Option<RangePolicy>,
    word_layout: Option<WordLayout>,
}

impl Default for BloomRfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BloomRfBuilder {
    /// A builder with the defaults documented on [`BloomRfBuilder`].
    pub fn new() -> Self {
        Self {
            domain_bits: None,
            expected_keys: 1_000_000,
            bits_per_key: 14.0,
            delta: 7,
            max_range: None,
            config: None,
            seed: None,
            range_policy: None,
            word_layout: None,
        }
    }

    /// Width of the key domain in bits (default: 64, or the key type's
    /// [`RangeKey::DOMAIN_BITS`] after [`BloomRfBuilder::key_type`]).
    pub fn domain_bits(mut self, bits: u32) -> Self {
        self.domain_bits = Some(bits);
        self
    }

    /// Expected number of keys `n` the space budget is provisioned for.
    pub fn expected_keys(mut self, n: usize) -> Self {
        self.expected_keys = n;
        self
    }

    /// Space budget in bits per key.
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.bits_per_key = bits;
        self
    }

    /// Level distance Δ of the basic filter (ignored when
    /// [`BloomRfBuilder::max_range`] or [`BloomRfBuilder::config`] is set).
    pub fn delta(mut self, delta: u32) -> Self {
        self.delta = delta;
        self
    }

    /// Approximate maximum query-range size: switches construction to the
    /// advisor-tuned extended configuration (Sect. 7) for this range.
    pub fn max_range(mut self, max_range: f64) -> Self {
        self.max_range = Some(max_range);
        self
    }

    /// Use an explicit configuration verbatim (overrides every geometry
    /// knob; seed / range-policy / word-layout setters still apply).
    pub fn config(mut self, config: BloomRfConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Override the base hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Behaviour for queries larger than the design range (see
    /// [`RangePolicy`]).
    pub fn range_policy(mut self, policy: RangePolicy) -> Self {
        self.range_policy = Some(policy);
        self
    }

    /// Word layout (forward, or alternating for degenerate distributions).
    pub fn word_layout(mut self, layout: WordLayout) -> Self {
        self.word_layout = Some(layout);
        self
    }

    /// Build a typed filter over keys of type `K` ([`TypedBloomRf`]); the
    /// domain width defaults to `K::DOMAIN_BITS` unless
    /// [`BloomRfBuilder::domain_bits`] was set explicitly.
    pub fn key_type<K: RangeKey>(self) -> TypedBloomRfBuilder<K> {
        TypedBloomRfBuilder {
            inner: self,
            _key: PhantomData,
        }
    }

    /// Resolve the final configuration this builder describes.
    fn resolve_config(&self, default_domain: u32) -> Result<BloomRfConfig, ConfigError> {
        let domain = self.domain_bits.unwrap_or(default_domain);
        let mut cfg = match &self.config {
            Some(cfg) => cfg.clone(),
            None => match self.max_range {
                Some(range) => {
                    TuningAdvisor::tune_for(
                        domain,
                        self.expected_keys.max(1),
                        self.bits_per_key,
                        range,
                    )?
                    .config
                }
                None => {
                    BloomRfConfig::basic(domain, self.expected_keys, self.bits_per_key, self.delta)?
                }
            },
        };
        if let Some(seed) = self.seed {
            cfg = cfg.with_seed(seed);
        }
        if let Some(policy) = self.range_policy {
            cfg = cfg.with_range_policy(policy);
        }
        if let Some(layout) = self.word_layout {
            cfg = cfg.with_word_layout(layout);
        }
        Ok(cfg)
    }

    /// Instantiate an empty filter from a resolved configuration.
    fn build_with_domain(&self, default_domain: u32) -> Result<BloomRf, ConfigError> {
        BloomRf::with_config(self.resolve_config(default_domain)?)
    }

    /// Build the empty filter.
    pub fn build(self) -> Result<BloomRf, ConfigError> {
        self.build_with_domain(64)
    }

    /// Reconstruct a filter from [`BloomRf::to_bytes`] output. The serialized
    /// configuration wins over the builder's geometry and seed knobs (the
    /// bits were written under them).
    ///
    /// The stream persists the complete configuration: the serialized
    /// `word_layout` is authoritative (a conflicting builder layout is
    /// ignored — the bits were written under the serialized one) and the
    /// builder's [`BloomRfBuilder::range_policy`] acts as a run-time
    /// override.
    pub fn from_bytes(self, bytes: &[u8]) -> Result<BloomRf, DecodeError> {
        BloomRf::from_bytes_with(bytes, self.range_policy)
    }

    /// Aggregate constructor: build one filter holding the union of `parts`
    /// (a Bloofi-style inner node — it answers *maybe* for every key and
    /// range any part answers *maybe* for). All parts must share the same
    /// configuration, which the aggregate adopts verbatim.
    ///
    /// ```
    /// use bloomrf::BloomRf;
    ///
    /// let cfg = bloomrf::BloomRfConfig::basic(64, 1000, 14.0, 7).unwrap();
    /// let a = BloomRf::builder().config(cfg.clone()).build().unwrap();
    /// let b = BloomRf::builder().config(cfg).build().unwrap();
    /// a.insert(7);
    /// b.insert(4711);
    /// let node = BloomRf::builder().union_of(&[&a, &b]).unwrap();
    /// assert!(node.contains_point(7) && node.contains_point(4711));
    /// ```
    pub fn union_of(self, parts: &[&BloomRf]) -> Result<BloomRf, MergeError> {
        let first = parts.first().ok_or(MergeError::EmptyAggregate)?;
        let aggregate = BloomRf::with_config(first.config().clone())
            .expect("the configuration of an existing filter is always valid");
        for part in parts {
            aggregate.merge_from(part)?;
        }
        Ok(aggregate)
    }
}

/// [`BloomRfBuilder`] specialized to a [`RangeKey`] key type; produced by
/// [`BloomRfBuilder::key_type`], builds a [`TypedBloomRf`].
#[derive(Clone, Debug)]
pub struct TypedBloomRfBuilder<K: RangeKey> {
    inner: BloomRfBuilder,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: RangeKey> TypedBloomRfBuilder<K> {
    /// See [`BloomRfBuilder::domain_bits`].
    pub fn domain_bits(mut self, bits: u32) -> Self {
        self.inner = self.inner.domain_bits(bits);
        self
    }

    /// See [`BloomRfBuilder::expected_keys`].
    pub fn expected_keys(mut self, n: usize) -> Self {
        self.inner = self.inner.expected_keys(n);
        self
    }

    /// See [`BloomRfBuilder::bits_per_key`].
    pub fn bits_per_key(mut self, bits: f64) -> Self {
        self.inner = self.inner.bits_per_key(bits);
        self
    }

    /// See [`BloomRfBuilder::delta`].
    pub fn delta(mut self, delta: u32) -> Self {
        self.inner = self.inner.delta(delta);
        self
    }

    /// See [`BloomRfBuilder::max_range`] (in number of domain codes).
    pub fn max_range(mut self, max_range: f64) -> Self {
        self.inner = self.inner.max_range(max_range);
        self
    }

    /// See [`BloomRfBuilder::config`].
    pub fn config(mut self, config: BloomRfConfig) -> Self {
        self.inner = self.inner.config(config);
        self
    }

    /// See [`BloomRfBuilder::seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// See [`BloomRfBuilder::range_policy`].
    pub fn range_policy(mut self, policy: RangePolicy) -> Self {
        self.inner = self.inner.range_policy(policy);
        self
    }

    /// See [`BloomRfBuilder::word_layout`].
    pub fn word_layout(mut self, layout: WordLayout) -> Self {
        self.inner = self.inner.word_layout(layout);
        self
    }

    /// Re-target the builder to a different key type.
    pub fn key_type<K2: RangeKey>(self) -> TypedBloomRfBuilder<K2> {
        TypedBloomRfBuilder {
            inner: self.inner,
            _key: PhantomData,
        }
    }

    /// Build the empty typed filter; the domain width defaults to
    /// `K::DOMAIN_BITS`.
    pub fn build(self) -> Result<TypedBloomRf<K>, ConfigError> {
        Ok(TypedBloomRf::wrap(
            self.inner.build_with_domain(K::DOMAIN_BITS)?,
        ))
    }

    /// Reconstruct a typed filter from [`BloomRf::to_bytes`] /
    /// [`TypedBloomRf::to_bytes`] output (see [`BloomRfBuilder::from_bytes`]).
    pub fn from_bytes(self, bytes: &[u8]) -> Result<TypedBloomRf<K>, DecodeError> {
        Ok(TypedBloomRf::wrap(self.inner.from_bytes(bytes)?))
    }
}

impl BloomRf {
    /// Start a [`BloomRfBuilder`] chain — the one construction surface for
    /// basic / advisor-tuned and raw / typed filters.
    ///
    /// ```
    /// use bloomrf::BloomRf;
    ///
    /// let filter = BloomRf::builder()
    ///     .expected_keys(10_000)
    ///     .bits_per_key(14.0)
    ///     .build()
    ///     .unwrap();
    /// filter.insert(42);
    /// assert!(filter.contains_range(40, 50));
    /// ```
    pub fn builder() -> BloomRfBuilder {
        BloomRfBuilder::new()
    }
}

/// The per-SST construction path of the LSM substrate: building a bloomRF
/// over a key set with a space budget goes through the same [`FilterBuilder`]
/// trait as every baseline family. Falls back to the basic filter when the
/// advisor cannot tune for the requested range.
impl FilterBuilder for BloomRfBuilder {
    type Filter = BloomRf;

    fn family(&self) -> &'static str {
        if self.max_range.is_some() {
            "bloomRF"
        } else {
            "bloomRF-basic"
        }
    }

    fn build(&self, keys: &[u64], bits_per_key: f64) -> BloomRf {
        let sized = self
            .clone()
            .expected_keys(keys.len().max(1))
            .bits_per_key(bits_per_key);
        let filter = sized.clone().build().unwrap_or_else(|_| {
            // The advisor can reject extreme budget/range combinations the
            // basic construction still handles; never fail the flush path.
            let mut basic = sized;
            basic.max_range = None;
            basic.config = None;
            basic
                .build()
                .expect("basic bloomRF construction cannot fail for valid budgets")
        });
        filter.insert_batch(keys);
        filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerSpec;

    #[test]
    fn builder_defaults_match_the_basic_constructor() {
        let built = BloomRf::builder()
            .expected_keys(5000)
            .bits_per_key(12.0)
            .build()
            .unwrap();
        let cfg = BloomRfConfig::basic(64, 5000, 12.0, 7).unwrap();
        assert_eq!(built.config(), &cfg);
        let explicit = BloomRf::builder()
            .domain_bits(64)
            .expected_keys(5000)
            .bits_per_key(12.0)
            .delta(7)
            .build()
            .unwrap();
        let verbatim = BloomRf::builder().config(cfg).build().unwrap();
        for k in [1u64, 99, 1 << 40] {
            built.insert(k);
            explicit.insert(k);
            verbatim.insert(k);
        }
        assert_eq!(built.snapshot_bits(), explicit.snapshot_bits());
        assert_eq!(built.snapshot_bits(), verbatim.snapshot_bits());
    }

    #[test]
    fn builder_max_range_matches_the_advisor() {
        let built = BloomRf::builder()
            .expected_keys(50_000)
            .bits_per_key(18.0)
            .max_range(1e8)
            .build()
            .unwrap();
        let tuned = TuningAdvisor::tune_for(64, 50_000, 18.0, 1e8).unwrap();
        assert_eq!(built.config(), &tuned.config);
    }

    #[test]
    fn builder_overrides_and_explicit_config() {
        let cfg = BloomRfConfig::new(
            48,
            vec![
                LayerSpec::new(0, 7, 1, 0),
                LayerSpec::new(7, 7, 1, 0),
                LayerSpec::new(14, 7, 1, 0),
                LayerSpec::new(21, 7, 1, 0),
                LayerSpec::new(28, 4, 2, 0),
            ],
            vec![1 << 16],
            Some(32),
            5,
        )
        .unwrap();
        let filter = BloomRf::builder()
            .config(cfg.clone())
            .seed(99)
            .range_policy(RangePolicy::Conservative {
                max_words_per_layer: 4,
            })
            .word_layout(WordLayout::Alternating)
            .build()
            .unwrap();
        assert_eq!(filter.config().hash_seed, 99);
        assert_eq!(
            filter.config().range_policy,
            RangePolicy::Conservative {
                max_words_per_layer: 4
            }
        );
        assert_eq!(filter.config().word_layout, WordLayout::Alternating);
        assert_eq!(filter.config().exact_level, cfg.exact_level);
    }

    #[test]
    fn key_type_picks_the_codec_domain() {
        let narrow = BloomRf::builder()
            .expected_keys(1000)
            .key_type::<u32>()
            .build()
            .unwrap();
        assert_eq!(narrow.config().domain_bits, 32);
        narrow.insert(&u32::MAX);
        assert!(narrow.contains_point(&u32::MAX));

        // An explicit domain_bits wins over the codec default.
        let wide = BloomRf::builder()
            .expected_keys(1000)
            .domain_bits(64)
            .key_type::<u32>()
            .build()
            .unwrap();
        assert_eq!(wide.config().domain_bits, 64);

        // key_type composes with the geometry setters in either order.
        let a = BloomRf::builder()
            .expected_keys(1000)
            .bits_per_key(12.0)
            .key_type::<i64>()
            .build()
            .unwrap();
        let b = BloomRf::builder()
            .key_type::<i64>()
            .expected_keys(1000)
            .bits_per_key(12.0)
            .build()
            .unwrap();
        assert_eq!(a.config(), b.config());
        a.insert(&-7);
        b.insert(&-7);
        assert_eq!(a.inner().snapshot_bits(), b.inner().snapshot_bits());
    }

    #[test]
    fn from_bytes_restores_every_knob_without_overrides() {
        // The wire format carries the complete configuration — word_layout
        // and range_policy included — so a *bare* restore is exact.
        let filter = BloomRf::builder()
            .expected_keys(2000)
            .bits_per_key(14.0)
            .word_layout(WordLayout::Alternating)
            .range_policy(RangePolicy::Conservative {
                max_words_per_layer: 3,
            })
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..2000).map(|i| crate::hashing::mix64(i) >> 8).collect();
        filter.insert_batch(&keys);
        let restored = BloomRf::builder().from_bytes(&filter.to_bytes()).unwrap();
        assert_eq!(restored.config(), filter.config());
        assert_eq!(restored.snapshot_bits(), filter.snapshot_bits());
        assert_eq!(restored.config().word_layout, WordLayout::Alternating);
        for &k in &keys {
            assert!(restored.contains_point(k), "false negative for {k}");
        }
        for i in 0..500u64 {
            let probe = crate::hashing::mix64(i ^ 0xABCD);
            assert_eq!(restored.contains_point(probe), filter.contains_point(probe));
            assert_eq!(
                restored.contains_range(probe, probe.saturating_add(1 << 20)),
                filter.contains_range(probe, probe.saturating_add(1 << 20))
            );
        }
        // A conflicting builder layout cannot corrupt a restore: the
        // serialized layout is authoritative.
        let forced = BloomRf::builder()
            .word_layout(WordLayout::Forward)
            .from_bytes(&filter.to_bytes())
            .unwrap();
        assert_eq!(forced.config().word_layout, WordLayout::Alternating);
        for &k in &keys {
            assert!(forced.contains_point(k), "false negative for {k}");
        }
    }

    #[test]
    fn union_of_aggregates_same_config_filters() {
        let cfg = BloomRfConfig::basic(64, 1000, 14.0, 7).unwrap();
        let parts: Vec<BloomRf> = (0..4u64)
            .map(|p| {
                let f = BloomRf::builder().config(cfg.clone()).build().unwrap();
                let keys: Vec<u64> = (0..500)
                    .map(|i| crate::hashing::mix64(p * 1000 + i))
                    .collect();
                f.insert_batch(&keys);
                f
            })
            .collect();
        let refs: Vec<&BloomRf> = parts.iter().collect();
        let node = BloomRf::builder().union_of(&refs).unwrap();
        assert_eq!(node.config(), &cfg);
        assert_eq!(node.key_count(), 2000);
        for p in 0..4u64 {
            for i in 0..500 {
                assert!(node.contains_point(crate::hashing::mix64(p * 1000 + i)));
            }
        }
        // Empty input and mismatched configs are typed errors.
        let none: Vec<&BloomRf> = Vec::new();
        assert_eq!(
            BloomRf::builder().union_of(&none).unwrap_err(),
            crate::error::MergeError::EmptyAggregate
        );
        let other = BloomRf::builder()
            .config(cfg.with_seed(12345))
            .build()
            .unwrap();
        assert!(matches!(
            BloomRf::builder()
                .union_of(&[&parts[0], &other])
                .unwrap_err(),
            crate::error::MergeError::ConfigMismatch { field: "hash_seed" }
        ));
    }

    #[test]
    fn filter_builder_impl_builds_and_falls_back() {
        let keys: Vec<u64> = (0..3000).map(crate::hashing::mix64).collect();
        let builder = BloomRf::builder().max_range(1e6);
        assert_eq!(FilterBuilder::family(&builder), "bloomRF");
        let filter = FilterBuilder::build(&builder, &keys, 16.0);
        for &k in keys.iter().step_by(97) {
            assert!(filter.contains_point(k));
        }
        assert_eq!(filter.key_count(), keys.len() as u64);
        assert_eq!(FilterBuilder::family(&BloomRf::builder()), "bloomRF-basic");
    }
}
