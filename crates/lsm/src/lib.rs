//! A compact, RocksDB-like LSM key-value substrate for the bloomRF
//! system-level experiments.
//!
//! The paper integrates bloomRF into RocksDB v6.3.6 as a *full filter block*
//! of each compaction-disabled SST file and extends the filter policy to pass
//! range bounds down to the filter. This crate reproduces that read path at
//! laptop scale:
//!
//! * [`memtable::MemTable`] — ordered in-memory write buffer; reads consult it
//!   before any SST (this is how RocksDB sidesteps the offline-construction
//!   problem for the freshest data).
//! * [`sst::SsTable`] — an immutable sorted run with data blocks, a block
//!   index (fence pointers) and one filter block per table, built by any
//!   [`bloomrf_filters::FilterKind`] (bloomRF, Rosetta, SuRF, Bloom, …).
//! * [`db::Db`] — level-0 LSM store: put / delete / get / scan /
//!   range-emptiness, with per-query statistics (filter probes, simulated I/O
//!   wait, residual CPU) feeding the cost-breakdown experiment (Fig. 12.G).
//!   Deletes buffer [`value::Value::Tombstone`] markers; size-tiered
//!   [`db::Db::compact`] merges table windows, drops shadowed versions and
//!   expired tombstones, and retires input files crash-safely
//!   (`docs/compaction.md`).
//! * [`tree::FilterTree`] — Bloofi-style filter tree over the live SST set:
//!   inner bloomRF filters aggregate their children, so point *and* range
//!   reads descend fan-out-`F` levels and prune whole subtrees instead of
//!   probing every table's filter (`docs/filter-tree.md`).
//! * [`typed::TypedDb`] — the same store over any
//!   [`bloomrf::encode::RangeKey`] key type (floats, signed integers, byte
//!   strings, attribute pairs), delegating to the `u64` core through the
//!   codec.
//! * [`stats`] — the simulated I/O cost model and read-path counters,
//!   including recovery counters (filters quarantined/rebuilt, tail SSTs
//!   skipped, read retries, persistence failures).
//! * [`persist`] — durable on-disk formats: checksummed `BSST` SST files and
//!   the MANIFEST, both committed by atomic write-then-rename.
//! * [`io`] — the [`io::StorageIo`] abstraction the persistence layer runs
//!   on, with [`io::FaultyIo`] injecting deterministic, seed-driven faults
//!   (torn tail writes, bit flips, transient read errors) to exercise the
//!   recovery path.
//!
//! Substitution note: *query-path* I/O stays simulated — SST
//! blocks are served from memory and block reads are charged a configurable
//! latency instead of hitting a disk, so the decision structure of the read
//! path (filter probe → index → block reads) is identical to RocksDB's while
//! experiments stay deterministic. Durability is real, though: a store opened
//! with [`db::Db::open`] persists every flushed SST and recovers the table
//! set — surviving injected corruption gracefully — on reopen.

#![warn(missing_docs)]

pub mod db;
pub mod io;
pub mod memtable;
pub mod persist;
pub mod sst;
pub mod stats;
pub mod tree;
pub mod typed;
pub mod value;

/// Lock ranks for the crate's [`bloomrf::sync::OrderedMutex`] /
/// [`bloomrf::sync::OrderedRwLock`] instances. A thread may only acquire a
/// lock of *strictly greater* rank than every lock it already holds, so any
/// execution that violates the documented hierarchy
///
/// ```text
/// flush → memtable → tables → io
/// ```
///
/// panics immediately in debug builds instead of deadlocking some future run.
/// Gaps between the constants leave room for new locks without renumbering;
/// see `docs/concurrency.md` for the full contract.
pub mod ranks {
    /// `Db::flush_lock` — serializes whole flushes, taken before anything
    /// else so a flush may traverse the entire hierarchy below it.
    pub const FLUSH: u16 = 5;
    /// `MemTable::entries` — the write buffer's ordered map.
    pub const MEMTABLE: u16 = 10;
    /// `Db::tables` — the live table set: the level-0 tables, the files
    /// backing them and the router (filter tree) over them, one lock.
    pub const SSTS: u16 = 20;
    /// `FaultyIo::transient` — innermost: I/O helpers may be called with any
    /// of the structural locks held.
    pub const IO: u16 = 50;
}

pub use db::{CompactionStats, Db, DbOptions, ReadRouting};
pub use io::{FaultConfig, FaultyIo, RealIo, StorageIo};
pub use memtable::MemTable;
pub use persist::{Corruption, PersistError};
pub use sst::SsTable;
pub use stats::{IoModel, ReadStats, ReadStatsSnapshot};
pub use tree::{FilterTree, TreeOptions};
pub use typed::TypedDb;
pub use value::Value;
