//! # bloomRF — a unified point-range filter
//!
//! This crate is a from-scratch Rust implementation of **bloomRF** (Mößner,
//! Riegger, Bernhardt, Petrov: *"bloomRF: On Performing Range-Queries in
//! Bloom-Filters with Piecewise-Monotone Hash Functions and Prefix Hashing"*,
//! EDBT 2023). bloomRF extends Bloom filters with range lookups while keeping
//! their strengths: it is *online* (keys can be inserted at any time, even
//! concurrently with queries), has near-optimal space complexity and answers
//! both point and range queries in constant time, independent of the
//! query-range size.
//!
//! ## Core ideas
//!
//! * **Prefix hashing** — the hash code of a key is a sequence of hashes of its
//!   *prefixes* on a set of dyadic levels, so the code itself encodes range
//!   information: testing a prefix of the code tests a whole dyadic interval.
//! * **Piecewise-monotone hash functions (PMHF)** — each hash preserves the
//!   order of the least-significant bits of its prefix, so sibling dyadic
//!   intervals occupy adjacent bits of one machine word and an entire run can
//!   be probed with a single masked word access.
//! * **Two-path range lookup** — an arbitrary query interval is decomposed
//!   along the prefix paths of its two bounds; coverings are single-bit checks
//!   with early termination, decomposition runs are word probes.
//! * **Extended tuning** (Sect. 7) — variable level distances, replicated hash
//!   functions, memory segments and an exactly-stored mid-upper level extend
//!   the basic filter to very large query ranges; a [`advisor::TuningAdvisor`]
//!   picks the configuration for a given space budget and range size.
//!
//! ## Quick start
//!
//! ```
//! use bloomrf::BloomRf;
//!
//! // 1M keys, ~14 bits/key, tuning-free basic filter.
//! let filter = BloomRf::builder()
//!     .expected_keys(1_000_000)
//!     .bits_per_key(14.0)
//!     .build()
//!     .unwrap();
//! filter.insert(42);
//! filter.insert(4711);
//!
//! assert!(filter.contains_point(42));
//! assert!(filter.contains_range(40, 50));        // contains 42
//! assert!(filter.contains_range(4000, 5000));    // contains 4711
//! // Ranges without keys are rejected with high probability:
//! let _maybe = filter.contains_range(100_000, 200_000);
//! ```
//!
//! For large query ranges, let the advisor pick an extended configuration
//! (`max_range` runs [`advisor::TuningAdvisor::tune_for`]):
//!
//! ```
//! use bloomrf::BloomRf;
//!
//! let filter = BloomRf::builder()
//!     .expected_keys(100_000)
//!     .bits_per_key(16.0)
//!     .max_range(1e8)
//!     .build()
//!     .unwrap();
//! filter.insert(123_456_789);
//! assert!(filter.contains_range(0, 1_000_000_000));
//! ```
//!
//! ## Typed keys and the unified builder
//!
//! The Sect. 8 datatype codings are packaged as the [`encode::RangeKey`]
//! trait; [`BloomRf::builder`] is the single construction surface for
//! basic / advisor-tuned and raw / typed filters:
//!
//! ```
//! use bloomrf::BloomRf;
//!
//! let filter = BloomRf::builder()
//!     .expected_keys(100_000)
//!     .bits_per_key(16.0)
//!     .key_type::<f64>()
//!     .build()
//!     .unwrap();
//! filter.insert(&-12.5);
//! assert!(filter.contains_range(&-20.0, &0.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod bitarray;
pub mod builder;
pub mod config;
pub mod crc32;
pub mod dyadic;
pub mod encode;
pub mod error;
pub mod filter;
pub mod hashing;
pub mod kernel;
pub mod model;
pub mod sync;
pub mod traits;
pub mod typed;

pub use advisor::{AdvisorParams, TunedConfig, TuningAdvisor};
pub use bitarray::AtomicBits;
pub use builder::{BloomRfBuilder, TypedBloomRfBuilder};
pub use config::{BloomRfConfig, LayerSpec, RangePolicy};
pub use encode::{decode_f64, decode_i64, encode_f64, encode_i64, MultiAttrBloomRf, RangeKey};
pub use error::{ConfigError, DecodeError, MergeError};
pub use filter::{BloomRf, PointProbe, ProbeStats, WIRE_FORMAT_VERSION, WIRE_MAGIC};
pub use traits::{ExclusiveOnlineFilter, FilterBuilder, Locked, OnlineFilter, PointRangeFilter};
pub use typed::TypedBloomRf;
