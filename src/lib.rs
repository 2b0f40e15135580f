//! Umbrella crate for the bloomRF reproduction.
//!
//! Re-exports the four workspace crates so that examples and integration
//! tests can use a single dependency:
//!
//! * [`bloomrf`] — the paper's contribution: the bloomRF point-range filter.
//! * [`bloomrf_filters`] — baseline filters (Bloom, Prefix-Bloom, fence
//!   pointers, Cuckoo, Rosetta, SuRF).
//! * [`bloomrf_lsm`] — the RocksDB-like LSM substrate used by the
//!   system-level experiments.
//! * [`bloomrf_workloads`] — workload generators and synthetic datasets.

#![warn(missing_docs)]

pub use bloomrf;
pub use bloomrf_filters;
pub use bloomrf_lsm;
pub use bloomrf_workloads;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use bloomrf::{
        advisor::TuningAdvisor, BloomRf, BloomRfBuilder, BloomRfConfig, ExclusiveOnlineFilter,
        LayerSpec, Locked, OnlineFilter, PointRangeFilter, RangeKey, RangePolicy, TypedBloomRf,
    };
    pub use bloomrf_filters::FilterKind;
    pub use bloomrf_lsm::{Db, DbOptions, TypedDb};
    pub use bloomrf_workloads::{
        Distribution, QueryGenerator, Sampler, YcsbEConfig, YcsbEWorkload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let filter = BloomRf::builder()
            .expected_keys(10)
            .bits_per_key(10.0)
            .build()
            .unwrap();
        filter.insert(1);
        assert!(filter.contains_point(1));
        let _ = FilterKind::Bloom.label();
        let _ = Distribution::Uniform.label();
        // The typed surface is one import away.
        let typed: TypedBloomRf<i64> = BloomRf::builder()
            .expected_keys(10)
            .key_type::<i64>()
            .build()
            .unwrap();
        typed.insert(&-1);
        assert!(typed.contains_range(&-2, &0));
        assert_eq!((-1i64).to_domain(), bloomrf::encode_i64(-1));
        let db: TypedDb<i64> = TypedDb::with_default_options();
        db.put(&-5, vec![1]);
        assert_eq!(db.get(&-5), Some(vec![1]));
    }
}
