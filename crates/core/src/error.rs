//! Error types for filter configuration and construction.

use std::fmt;

/// Errors produced while validating or constructing a [`crate::BloomRfConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // the variant fields are described by the Display impl
pub enum ConfigError {
    /// The domain width is out of the supported range (1..=64 bits).
    InvalidDomainBits(u32),
    /// No layers were specified.
    NoLayers,
    /// The bottom layer must sit at level 0.
    BottomLayerNotAtLevelZero(u32),
    /// Layers must be contiguous: `level[i+1] == level[i] + gap[i]`.
    NonContiguousLayers {
        layer: usize,
        expected_level: u32,
        found_level: u32,
    },
    /// A layer gap must be in 1..=7 (word sizes of 1..=64 bits).
    InvalidGap { layer: usize, gap: u32 },
    /// A layer must have between 1 and 8 hash functions (replicas).
    InvalidReplicas { layer: usize },
    /// A layer references a segment that does not exist.
    SegmentOutOfRange { layer: usize, segment: usize },
    /// A segment must hold at least one 64-bit word.
    SegmentTooSmall { segment: usize, bits: usize },
    /// The exact level must lie above the top probabilistic layer and within the domain.
    InvalidExactLevel {
        exact_level: u32,
        top_boundary: u32,
        domain_bits: u32,
    },
    /// The memory budget is too small to build the requested filter.
    BudgetTooSmall {
        requested_bits: usize,
        minimum_bits: usize,
    },
    /// A key lies outside the configured domain.
    KeyOutOfDomain { key: u64, domain_bits: u32 },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidDomainBits(d) => {
                write!(f, "domain width {d} is not in 1..=64 bits")
            }
            ConfigError::NoLayers => write!(f, "a bloomRF configuration needs at least one layer"),
            ConfigError::BottomLayerNotAtLevelZero(l) => {
                write!(f, "the bottom layer must be at level 0, found level {l}")
            }
            ConfigError::NonContiguousLayers { layer, expected_level, found_level } => write!(
                f,
                "layer {layer} must start at level {expected_level} (previous level + gap), found {found_level}"
            ),
            ConfigError::InvalidGap { layer, gap } => {
                write!(f, "layer {layer} has gap {gap}, supported gaps are 1..=7")
            }
            ConfigError::InvalidReplicas { layer } => {
                write!(
                    f,
                    "layer {layer} must use between 1 and 8 hash functions"
                )
            }
            ConfigError::SegmentOutOfRange { layer, segment } => {
                write!(f, "layer {layer} references segment {segment} which does not exist")
            }
            ConfigError::SegmentTooSmall { segment, bits } => {
                write!(f, "segment {segment} has only {bits} bits, at least 64 are required")
            }
            ConfigError::InvalidExactLevel { exact_level, top_boundary, domain_bits } => write!(
                f,
                "exact level {exact_level} must satisfy top-layer boundary {top_boundary} <= exact level <= domain bits {domain_bits}"
            ),
            ConfigError::BudgetTooSmall { requested_bits, minimum_bits } => write!(
                f,
                "memory budget of {requested_bits} bits is below the minimum of {minimum_bits} bits"
            ),
            ConfigError::KeyOutOfDomain { key, domain_bits } => {
                write!(f, "key {key} does not fit in the configured domain of {domain_bits} bits")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors produced while deserializing a filter from bytes
/// ([`crate::BloomRf::from_bytes`]). Each variant names a distinct way the
/// input can be corrupted, so storage layers can distinguish a short read
/// (`Truncated`) from actual bit rot (`BadMagic`, `BitArrayCorrupted`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the field starting at `offset` could be read.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// The input does not start with the `BLRF` magic bytes.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The decoded configuration failed validation.
    InvalidConfig(ConfigError),
    /// Serialized bit array `index` is malformed or its size disagrees with
    /// the decoded configuration.
    BitArrayCorrupted {
        /// Position of the bit array in the serialized stream (probabilistic
        /// segments first, exact-layer bitmap last).
        index: usize,
    },
    /// The input continues past the end of a well-formed filter.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A v2 section body does not match its stored CRC-32 checksum (bit rot
    /// or a torn write inside the section).
    ChecksumMismatch {
        /// Name of the damaged section (`"header"`, `"config"`, `"bits"`).
        section: &'static str,
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum computed over the section body as read.
        computed: u32,
    },
    /// A required v2 section is missing or out of order.
    MissingSection {
        /// Name of the section that was expected.
        section: &'static str,
    },
    /// An enum field decoded to a discriminant this build does not know.
    BadEnumTag {
        /// Name of the field (`"range_policy"`, `"word_layout"`, …).
        field: &'static str,
        /// The unknown discriminant value.
        tag: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "input truncated at byte offset {offset}")
            }
            DecodeError::BadMagic => write!(f, "missing BLRF magic header"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::InvalidConfig(e) => write!(f, "decoded configuration is invalid: {e}"),
            DecodeError::BitArrayCorrupted { index } => {
                write!(f, "serialized bit array {index} is corrupted")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a well-formed filter")
            }
            DecodeError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "{section} section checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::MissingSection { section } => {
                write!(f, "required {section} section is missing or out of order")
            }
            DecodeError::BadEnumTag { field, tag } => {
                write!(f, "field {field} has unknown discriminant {tag}")
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for DecodeError {
    fn from(e: ConfigError) -> Self {
        DecodeError::InvalidConfig(e)
    }
}

/// Errors produced while unioning filters ([`crate::BloomRf::merge_from`] and
/// the builder's aggregate constructor). Two bloomRF filters can only be
/// merged bit-by-bit when they were built from the *same* configuration —
/// same layers, segment sizes, hash seed, word layout — otherwise the same
/// key maps to different bit positions in the two filters and the union would
/// silently lose keys (false negatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The two filters were built from different configurations.
    ConfigMismatch {
        /// First differing configuration aspect detected (`"domain_bits"`,
        /// `"layers"`, `"segment_bits"`, `"exact_level"`, `"hash_seed"`,
        /// `"range_policy"`, `"word_layout"`).
        field: &'static str,
    },
    /// The aggregate constructor was given no filters to union.
    EmptyAggregate,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::ConfigMismatch { field } => write!(
                f,
                "cannot union filters with different configurations (first mismatch: {field}); \
                 merging requires identical layers, segments, seed and layout"
            ),
            MergeError::EmptyAggregate => {
                write!(f, "an aggregate filter needs at least one input filter")
            }
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (ConfigError::InvalidDomainBits(0), "domain width 0"),
            (ConfigError::NoLayers, "at least one layer"),
            (ConfigError::BottomLayerNotAtLevelZero(3), "level 0"),
            (
                ConfigError::NonContiguousLayers {
                    layer: 2,
                    expected_level: 14,
                    found_level: 12,
                },
                "layer 2",
            ),
            (ConfigError::InvalidGap { layer: 1, gap: 9 }, "gap 9"),
            (ConfigError::InvalidReplicas { layer: 0 }, "layer 0"),
            (
                ConfigError::SegmentOutOfRange {
                    layer: 4,
                    segment: 7,
                },
                "segment 7",
            ),
            (
                ConfigError::SegmentTooSmall {
                    segment: 1,
                    bits: 8,
                },
                "segment 1",
            ),
            (
                ConfigError::InvalidExactLevel {
                    exact_level: 3,
                    top_boundary: 10,
                    domain_bits: 64,
                },
                "exact level 3",
            ),
            (
                ConfigError::BudgetTooSmall {
                    requested_bits: 10,
                    minimum_bits: 64,
                },
                "64 bits",
            ),
            (
                ConfigError::KeyOutOfDomain {
                    key: 300,
                    domain_bits: 8,
                },
                "key 300",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn decode_error_messages_and_source() {
        use std::error::Error as _;
        let cases: Vec<(DecodeError, &str)> = vec![
            (DecodeError::Truncated { offset: 12 }, "offset 12"),
            (DecodeError::BadMagic, "BLRF"),
            (DecodeError::UnsupportedVersion(9), "version 9"),
            (
                DecodeError::InvalidConfig(ConfigError::NoLayers),
                "at least one layer",
            ),
            (DecodeError::BitArrayCorrupted { index: 2 }, "bit array 2"),
            (DecodeError::TrailingBytes { remaining: 5 }, "5 trailing"),
            (
                DecodeError::ChecksumMismatch {
                    section: "config",
                    stored: 0xDEAD_BEEF,
                    computed: 0x1234_5678,
                },
                "config section checksum mismatch",
            ),
            (
                DecodeError::MissingSection { section: "bits" },
                "bits section",
            ),
            (
                DecodeError::BadEnumTag {
                    field: "word_layout",
                    tag: 9,
                },
                "word_layout",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
        let wrapped: DecodeError = ConfigError::NoLayers.into();
        assert!(wrapped.source().is_some());
        assert!(DecodeError::BadMagic.source().is_none());
    }

    #[test]
    fn merge_error_messages() {
        use std::error::Error as _;
        let mismatch = MergeError::ConfigMismatch { field: "hash_seed" };
        assert!(mismatch.to_string().contains("hash_seed"));
        assert!(mismatch.to_string().contains("different configurations"));
        assert!(MergeError::EmptyAggregate
            .to_string()
            .contains("at least one"));
        assert!(mismatch.source().is_none());
    }
}
