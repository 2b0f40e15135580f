//! Filter configuration: layer layout, memory segments and the exact layer.
//!
//! *Basic bloomRF* (Sect. 3–5) uses equidistant levels `ℓ_i = i·Δ`, a single
//! memory segment and one PMHF per layer. The *extended* filter (Sect. 7) adds
//! a variable distance vector `Δ = (Δ_{k-1}, …, Δ_0)`, replicated hash
//! functions on upper layers, multiple memory segments and an exactly-stored
//! mid-upper level. Both are expressed by [`BloomRfConfig`]; the
//! [`crate::advisor::TuningAdvisor`] produces extended configurations
//! automatically.

use crate::error::ConfigError;
use crate::hashing::WordLayout;

/// Specification of one probabilistic layer of the filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LayerSpec {
    /// Dyadic level `ℓ_i` handled by this layer (bottom layer is level 0).
    pub level: u32,
    /// Distance `Δ_i` to the next layer above; this layer uses words of
    /// `2^(Δ_i - 1)` bits. Supported values: 1..=7.
    pub gap: u32,
    /// Number of hash functions (the PMHF plus `replicas - 1` replicated hash
    /// functions writing the same word content at independent positions).
    pub replicas: u32,
    /// Index of the memory segment this layer writes to.
    pub segment: usize,
}

impl LayerSpec {
    /// Convenience constructor.
    pub fn new(level: u32, gap: u32, replicas: u32, segment: usize) -> Self {
        Self {
            level,
            gap,
            replicas,
            segment,
        }
    }

    /// Number of in-word offset bits (`Δ_i - 1`).
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.gap - 1
    }

    /// Word size in bits (`2^(Δ_i - 1)`).
    #[inline]
    pub fn word_bits(&self) -> u32 {
        1 << self.offset_bits()
    }

    /// Level of the layer boundary above this layer (`ℓ_i + Δ_i`).
    #[inline]
    pub fn boundary(&self) -> u32 {
        self.level + self.gap
    }
}

/// How the filter treats range queries whose two-path decomposition would
/// require scanning more words than the configured budget allows (this only
/// happens when a query is far larger than the design range `R`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RangePolicy {
    /// Probe every required word; query time degrades linearly for oversized
    /// ranges but the answer is as precise as the filter allows.
    #[default]
    Exact,
    /// Give up after `max_words_per_layer` word accesses on a layer and
    /// conservatively answer "maybe" (never a false negative).
    Conservative {
        /// Maximum number of word accesses per layer before answering `true`.
        max_words_per_layer: usize,
    },
}

/// Complete configuration of a bloomRF filter.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BloomRfConfig {
    /// Width of the key domain in bits (`d`); keys must be `< 2^domain_bits`.
    pub domain_bits: u32,
    /// Probabilistic layers, ordered bottom (level 0) to top.
    pub layers: Vec<LayerSpec>,
    /// Sizes (in bits) of the probabilistic memory segments. Each is rounded up
    /// to a multiple of 64 on construction.
    pub segment_bits: Vec<usize>,
    /// Level stored exactly as a plain bitmap (Sect. 7 "Memory Management").
    /// Must equal the boundary of the top layer when present. Levels above it
    /// are discarded (they saturate).
    pub exact_level: Option<u32>,
    /// Base seed from which all layer/replica hash seeds are derived.
    pub hash_seed: u64,
    /// Behaviour for ranges larger than the design maximum.
    pub range_policy: RangePolicy,
    /// Word layout (forward, or alternating for degenerate distributions).
    ///
    /// The `Forward` default is a measured choice, not an aesthetic one: in
    /// the `fig_probe_kernel` layout A/B (4M keys × 16 bits, batch 64, see
    /// `BENCH_probe_kernel.json`) forward wins on both the per-key loop
    /// (76 vs 131 ns/op) and the batch call (67 vs 105 ns/op). Switch to
    /// `Alternating` for its intended purpose — degenerate key
    /// distributions — not for throughput.
    #[cfg_attr(feature = "serde", serde(skip))]
    pub word_layout: WordLayout,
}

impl BloomRfConfig {
    /// Basic, tuning-free bloomRF (Sect. 3): equidistant levels with distance
    /// `delta`, one segment of `n_keys * bits_per_key` bits, one hash function
    /// per layer and `k = ceil((d - log2 n) / Δ)` layers.
    pub fn basic(
        domain_bits: u32,
        n_keys: usize,
        bits_per_key: f64,
        delta: u32,
    ) -> Result<Self, ConfigError> {
        if domain_bits == 0 || domain_bits > 64 {
            return Err(ConfigError::InvalidDomainBits(domain_bits));
        }
        if !(1..=7).contains(&delta) {
            return Err(ConfigError::InvalidGap {
                layer: 0,
                gap: delta,
            });
        }
        let n = n_keys.max(1);
        let log2n = (usize::BITS - n.leading_zeros()).saturating_sub(1);
        let usable = (domain_bits.saturating_sub(log2n)).max(delta);
        let k = usable.div_ceil(delta).max(1);
        let layers: Vec<LayerSpec> = (0..k)
            .map(|i| LayerSpec::new(i * delta, delta, 1, 0))
            .collect();
        let m = ((n as f64 * bits_per_key).ceil() as usize).max(64);
        let m = m.div_ceil(64) * 64;
        Self::new(domain_bits, layers, vec![m], None, 0x51_70_AD_5E)
    }

    /// Construct and validate a configuration.
    pub fn new(
        domain_bits: u32,
        layers: Vec<LayerSpec>,
        segment_bits: Vec<usize>,
        exact_level: Option<u32>,
        hash_seed: u64,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self {
            domain_bits,
            layers,
            segment_bits,
            exact_level,
            hash_seed,
            range_policy: RangePolicy::default(),
            word_layout: WordLayout::Forward,
        };
        // Round segments up to whole 64-bit words.
        for bits in cfg.segment_bits.iter_mut() {
            *bits = (*bits).div_ceil(64).max(1) * 64;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.domain_bits == 0 || self.domain_bits > 64 {
            return Err(ConfigError::InvalidDomainBits(self.domain_bits));
        }
        if self.layers.is_empty() {
            return Err(ConfigError::NoLayers);
        }
        if self.layers[0].level != 0 {
            return Err(ConfigError::BottomLayerNotAtLevelZero(self.layers[0].level));
        }
        let mut expected = 0u32;
        for (idx, layer) in self.layers.iter().enumerate() {
            if layer.level != expected {
                return Err(ConfigError::NonContiguousLayers {
                    layer: idx,
                    expected_level: expected,
                    found_level: layer.level,
                });
            }
            if !(1..=7).contains(&layer.gap) {
                return Err(ConfigError::InvalidGap {
                    layer: idx,
                    gap: layer.gap,
                });
            }
            // The per-filter seed schedule reserves 8 slots per layer, which
            // bounds the replica count (the paper's advisor uses at most 2).
            if layer.replicas == 0 || layer.replicas > 8 {
                return Err(ConfigError::InvalidReplicas { layer: idx });
            }
            if layer.segment >= self.segment_bits.len() {
                return Err(ConfigError::SegmentOutOfRange {
                    layer: idx,
                    segment: layer.segment,
                });
            }
            expected = layer.boundary();
        }
        for (idx, bits) in self.segment_bits.iter().enumerate() {
            if *bits < 64 {
                return Err(ConfigError::SegmentTooSmall {
                    segment: idx,
                    bits: *bits,
                });
            }
        }
        let top_boundary = self.top_boundary();
        if let Some(e) = self.exact_level {
            if e != top_boundary || e > self.domain_bits {
                return Err(ConfigError::InvalidExactLevel {
                    exact_level: e,
                    top_boundary,
                    domain_bits: self.domain_bits,
                });
            }
        }
        Ok(())
    }

    /// Number of probabilistic layers (`k`).
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Boundary level above the top probabilistic layer (`ℓ_{k-1} + Δ_{k-1}`).
    #[inline]
    pub fn top_boundary(&self) -> u32 {
        self.layers.last().map(|l| l.boundary()).unwrap_or(0)
    }

    /// Total memory in bits: probabilistic segments plus exact-layer bitmap.
    pub fn total_bits(&self) -> usize {
        let prob: usize = self.segment_bits.iter().sum();
        prob + self.exact_bits()
    }

    /// Size of the exact-layer bitmap in bits (0 when no exact layer is used).
    pub fn exact_bits(&self) -> usize {
        match self.exact_level {
            Some(e) => {
                let width = self.domain_bits - e;
                if width >= usize::BITS {
                    usize::MAX
                } else {
                    1usize << width
                }
            }
            None => 0,
        }
    }

    /// Bits of memory per key for a given number of keys.
    pub fn bits_per_key(&self, n_keys: usize) -> f64 {
        self.total_bits() as f64 / n_keys.max(1) as f64
    }

    /// Largest key representable in the configured domain.
    #[inline]
    pub fn max_key(&self) -> u64 {
        if self.domain_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.domain_bits) - 1
        }
    }

    /// The distance vector `Δ = (Δ_{k-1}, …, Δ_0)` as reported by the paper
    /// (top layer first).
    pub fn delta_vector(&self) -> Vec<u32> {
        self.layers.iter().rev().map(|l| l.gap).collect()
    }

    /// The replica vector `r = (r_{k-1}, …, r_0)` (top layer first).
    pub fn replica_vector(&self) -> Vec<u32> {
        self.layers.iter().rev().map(|l| l.replicas).collect()
    }

    /// Builder-style setter for the range policy.
    pub fn with_range_policy(mut self, policy: RangePolicy) -> Self {
        self.range_policy = policy;
        self
    }

    /// Builder-style setter for the word layout.
    pub fn with_word_layout(mut self, layout: WordLayout) -> Self {
        self.word_layout = layout;
        self
    }

    /// Builder-style setter for the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.hash_seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_config_matches_paper_formula() {
        // d = 64, n = 2M, Δ = 7  →  k = ceil((64 - 21) / 7) = ceil(43/7) = 7.
        // (The paper quotes k = 6 for the RocksDB comparison because it floors
        // log2 n = 21 and uses ceil(42/7); both are one-off rounding choices —
        // we follow the formula k = ceil((d - floor(log2 n)) / Δ).)
        let cfg = BloomRfConfig::basic(64, 2_000_000, 10.0, 7).unwrap();
        assert_eq!(cfg.num_layers(), 7);
        assert_eq!(cfg.layers[0].level, 0);
        assert_eq!(cfg.layers[1].level, 7);
        assert_eq!(cfg.top_boundary(), 49);
        assert!(cfg.total_bits() >= 20_000_000);
        assert!(cfg.exact_level.is_none());
        assert_eq!(cfg.delta_vector(), vec![7; 7]);
    }

    #[test]
    fn basic_config_paper_example_d16() {
        // Introductory example: d = 16, n = 3, Δ = 4 → k = ceil((16 - 1)/4) = 4.
        let cfg = BloomRfConfig::basic(16, 3, 10.0, 4).unwrap();
        assert_eq!(cfg.num_layers(), 4);
        assert_eq!(
            cfg.layers.iter().map(|l| l.level).collect::<Vec<_>>(),
            vec![0, 4, 8, 12]
        );
        // 10 bits/key * 3 keys = 30 bits → rounded to 64.
        assert_eq!(cfg.segment_bits, vec![64]);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(matches!(
            BloomRfConfig::basic(0, 10, 10.0, 7),
            Err(ConfigError::InvalidDomainBits(0))
        ));
        assert!(matches!(
            BloomRfConfig::basic(64, 10, 10.0, 9),
            Err(ConfigError::InvalidGap { .. })
        ));
        // Non-contiguous layers.
        let err = BloomRfConfig::new(
            64,
            vec![LayerSpec::new(0, 7, 1, 0), LayerSpec::new(8, 7, 1, 0)],
            vec![1024],
            None,
            1,
        );
        assert!(matches!(
            err,
            Err(ConfigError::NonContiguousLayers { layer: 1, .. })
        ));
        // Bottom layer not at level 0.
        let err = BloomRfConfig::new(64, vec![LayerSpec::new(3, 7, 1, 0)], vec![1024], None, 1);
        assert!(matches!(
            err,
            Err(ConfigError::BottomLayerNotAtLevelZero(3))
        ));
        // Missing segment.
        let err = BloomRfConfig::new(64, vec![LayerSpec::new(0, 7, 1, 1)], vec![1024], None, 1);
        assert!(matches!(err, Err(ConfigError::SegmentOutOfRange { .. })));
        // Zero replicas.
        let err = BloomRfConfig::new(64, vec![LayerSpec::new(0, 7, 0, 0)], vec![1024], None, 1);
        assert!(matches!(err, Err(ConfigError::InvalidReplicas { .. })));
        // More replicas than the seed schedule supports.
        let err = BloomRfConfig::new(64, vec![LayerSpec::new(0, 7, 9, 0)], vec![1024], None, 1);
        assert!(matches!(err, Err(ConfigError::InvalidReplicas { .. })));
        // No layers at all.
        let err = BloomRfConfig::new(64, vec![], vec![1024], None, 1);
        assert!(matches!(err, Err(ConfigError::NoLayers)));
        // Exact level must match the top boundary.
        let err = BloomRfConfig::new(
            64,
            vec![LayerSpec::new(0, 7, 1, 0)],
            vec![1024],
            Some(10),
            1,
        );
        assert!(matches!(err, Err(ConfigError::InvalidExactLevel { .. })));
    }

    #[test]
    fn extended_config_with_exact_layer() {
        // Advisor example of Sect. 7: Δ = (2, 2, 4, 7, 7, 7, 7), exact level 36.
        let gaps_bottom_up = [7u32, 7, 7, 7, 4, 2, 2];
        let mut level = 0;
        let mut layers = Vec::new();
        for (i, gap) in gaps_bottom_up.iter().enumerate() {
            let segment = if *gap == 7 { 1 } else { 0 };
            let replicas = if i == gaps_bottom_up.len() - 1 { 2 } else { 1 };
            layers.push(LayerSpec::new(level, *gap, replicas, segment));
            level += gap;
        }
        let cfg = BloomRfConfig::new(64, layers, vec![1 << 20, 1 << 22], Some(36), 7).unwrap();
        assert_eq!(cfg.top_boundary(), 36);
        assert_eq!(cfg.exact_level, Some(36));
        assert_eq!(cfg.exact_bits(), 1usize << 28);
        assert_eq!(cfg.delta_vector(), vec![2, 2, 4, 7, 7, 7, 7]);
        assert_eq!(cfg.replica_vector(), vec![2, 1, 1, 1, 1, 1, 1]);
        assert_eq!(cfg.total_bits(), (1 << 20) + (1 << 22) + (1 << 28));
    }

    #[test]
    fn segment_rounding_and_bits_per_key() {
        let cfg =
            BloomRfConfig::new(32, vec![LayerSpec::new(0, 7, 1, 0)], vec![100], None, 1).unwrap();
        assert_eq!(cfg.segment_bits, vec![128]);
        assert!((cfg.bits_per_key(16) - 8.0).abs() < 1e-9);
        assert_eq!(cfg.max_key(), u32::MAX as u64);
    }

    #[test]
    fn builder_setters() {
        let cfg = BloomRfConfig::basic(64, 1000, 10.0, 7)
            .unwrap()
            .with_range_policy(RangePolicy::Conservative {
                max_words_per_layer: 8,
            })
            .with_seed(99)
            .with_word_layout(WordLayout::Alternating);
        assert_eq!(cfg.hash_seed, 99);
        assert_eq!(
            cfg.range_policy,
            RangePolicy::Conservative {
                max_words_per_layer: 8
            }
        );
        assert_eq!(cfg.word_layout, WordLayout::Alternating);
    }
}
