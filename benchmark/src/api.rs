//! End-to-end adapter: the *only* file through which the end-to-end ops
//! reach the measured crates, pinned to the smallest API surface.
//!
//! It may name `BloomRf::builder` / `expected_keys` / `bits_per_key` /
//! `max_range` / `build`, `insert`, `contains_point`, `contains_range`,
//! `contains_point_batch`, `memory_bits`; `Db::{new, open_with, put, delete,
//! get, get_batch, range_is_possibly_non_empty, scan, maybe_compact,
//! compact, num_ssts, num_entries}`, `DbOptions { memtable_flush_entries,
//! bits_per_key, ..Default::default() }`, `RealIo`, and the
//! `input_entries` count a compaction returns. It must not name kernel
//! tiers, word layouts, read routing, tree options, any `_with` / `_into` /
//! `_scalar` / `_sharded` variant or the `new` / `basic` filter constructors
//! — the ROADMAP deletes those, and a test greps this file for them.
//! Everything wider lives in `layers.rs`.

use bloomrf::BloomRf;
use bloomrf_lsm::{Db, DbOptions, RealIo};
use std::path::Path;
use std::sync::Arc;

/// Filter space budget of every workload, bits per key.
pub const BITS_PER_KEY: f64 = 16.0;
/// Largest range the filters are tuned for.
pub const MAX_RANGE: f64 = 1e6;

pub struct Filter(BloomRf);

impl Filter {
    pub fn build(expected_keys: usize) -> Self {
        Self(
            BloomRf::builder()
                .expected_keys(expected_keys)
                .bits_per_key(BITS_PER_KEY)
                .max_range(MAX_RANGE)
                .build()
                .expect("the benchmark's filter configuration is valid"),
        )
    }

    #[inline(always)]
    pub fn insert(&self, key: u64) {
        self.0.insert(key);
    }

    #[inline(always)]
    pub fn contains_point(&self, key: u64) -> bool {
        self.0.contains_point(key)
    }

    #[inline(always)]
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        self.0.contains_range(lo, hi)
    }

    #[inline(always)]
    pub fn contains_point_batch(&self, keys: &[u64]) -> Vec<bool> {
        self.0.contains_point_batch(keys)
    }

    pub fn memory_bits(&self) -> usize {
        self.0.memory_bits()
    }

    /// For the per-layer adapter only.
    pub(crate) fn inner(&self) -> &BloomRf {
        &self.0
    }
}

pub struct Store(Db);

fn options(memtable_flush_entries: usize) -> DbOptions {
    DbOptions {
        memtable_flush_entries,
        bits_per_key: BITS_PER_KEY,
        ..Default::default()
    }
}

impl Store {
    /// Ephemeral store (default tree routing, SSTs in memory only).
    pub fn in_memory(memtable_flush_entries: usize) -> Self {
        Self(Db::new(options(memtable_flush_entries)))
    }

    /// Durable store on a real directory; recovers what the directory holds.
    pub fn open(dir: &Path, memtable_flush_entries: usize) -> Result<Self, String> {
        Db::open_with(dir, options(memtable_flush_entries), Arc::new(RealIo))
            .map(Self)
            .map_err(|e| format!("open {}: {e}", dir.display()))
    }

    #[inline(always)]
    pub fn put(&self, key: u64, value: Vec<u8>) {
        self.0.put(key, value);
    }

    #[inline(always)]
    pub fn delete(&self, key: u64) {
        self.0.delete(key);
    }

    #[inline(always)]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    /// Single-threaded batch lookup (the protocol has one client thread).
    #[inline(always)]
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
        self.0.get_batch(keys, 1)
    }

    #[inline(always)]
    pub fn range_is_possibly_non_empty(&self, lo: u64, hi: u64) -> bool {
        self.0.range_is_possibly_non_empty(lo, hi)
    }

    #[inline(always)]
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        self.0.scan(lo, hi, limit)
    }

    /// One size-tiered compaction step; `Some(entries merged)` when it ran.
    #[inline(always)]
    pub fn maybe_compact(&self) -> Result<Option<usize>, String> {
        match self.0.maybe_compact() {
            Ok(done) => Ok(done.map(|c| c.input_entries)),
            Err(e) => Err(format!("maybe_compact: {e}")),
        }
    }

    /// Full compaction; `Some(entries merged)` when it ran.
    pub fn compact(&self) -> Result<Option<usize>, String> {
        match self.0.compact() {
            Ok(done) => Ok(done.map(|c| c.input_entries)),
            Err(e) => Err(format!("compact: {e}")),
        }
    }

    #[inline(always)]
    pub fn num_ssts(&self) -> usize {
        self.0.num_ssts()
    }

    pub fn num_entries(&self) -> usize {
        self.0.num_entries()
    }

    /// For the per-layer adapter only.
    pub(crate) fn inner(&self) -> &Db {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_nothing_the_roadmap_deletes() {
        // Split so this test's own text does not trip the check.
        let code = include_str!("api.rs").split("#[cfg(test)]").next().unwrap();
        let code: String = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect();
        for banned in [
            "KernelTier",
            "WordLayout",
            "ReadRouting",
            "TreeOptions",
            "_with(",
            "_into(",
            "_scalar(",
            "_sharded(",
            "BloomRf::new",
            "BloomRf::basic",
            "stats(",
            "SsTable",
            "FilterTree",
            "MemTable",
            "to_bytes",
            "from_bytes",
        ] {
            let allowed = if banned == "_with(" {
                code.matches("open_with(").count()
            } else {
                0
            };
            assert_eq!(
                code.matches(banned).count(),
                allowed,
                "api.rs names {banned}"
            );
        }
    }
}
