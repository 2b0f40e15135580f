//! End-to-end compaction and tombstone-delete tests: deleted keys stay
//! deleted across flush, compaction and reopen; compaction reclaims disk
//! space and retires input files from the directory, the MANIFEST and the
//! filter tree; and a crash or torn write at *any* point inside the
//! compaction commit protocol leaves the store recoverable to exactly the
//! pre- or post-compaction state — never a mix, never a resurrected key.
//!
//! Also pins the two flush-path fixes that ride along with compaction:
//! concurrent flushes commit every acknowledged key (nothing is tail-skipped
//! on reopen), and a failed SST persist is surfaced in the
//! `unpersisted_ssts` gauge, excluded from the MANIFEST prefix, and retried
//! by the next flush.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use bloomrf_filters::FilterKind;
use bloomrf_lsm::io::{FaultConfig, FaultyIo, RealIo, StorageIo};
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, TreeOptions, TypedDb};
use proptest::prelude::*;

/// Self-cleaning std-only temporary directory (the environment has no
/// `tempfile` crate; see vendor/README.md).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bloomrf-compact-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Base seed for the fault-injection schedules; CI's `fault-injection` job
/// replays under several seeds via `FAULT_SEED` (decimal or `0x`-hex).
fn fault_seed(default: u64) -> u64 {
    match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparsable FAULT_SEED {s:?}"))
        }
        Err(_) => default,
    }
}

fn options(flush_entries: usize, routing: ReadRouting) -> DbOptions {
    DbOptions {
        memtable_flush_entries: flush_entries,
        entries_per_block: 8,
        filter_kind: FilterKind::BloomRf { max_range: 1e6 },
        bits_per_key: 16.0,
        io_model: IoModel::default(),
        routing,
    }
}

fn tree_routing() -> ReadRouting {
    ReadRouting::FilterTree(TreeOptions {
        fanout: 4,
        leaf_keys: None,
        bits_per_key: None,
    })
}

/// Sum of `*.sst` file sizes in a store directory.
fn disk_sst_bytes(dir: &Path) -> (usize, u64) {
    let mut count = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.path().extension().is_some_and(|e| e == "sst") {
            count += 1;
            bytes += entry.metadata().unwrap().len();
        }
    }
    (count, bytes)
}

/// Assert the store answers exactly like the model: every model key present
/// with its value, every deleted/absent key `None`, scans identical, and no
/// false negatives from the range-emptiness verdict.
fn assert_matches_model(db: &Db, model: &BTreeMap<u64, Vec<u8>>, key_space: u64, context: &str) {
    for k in 0..key_space {
        assert_eq!(db.get(k), model.get(&k).cloned(), "{context}: get({k})");
    }
    let scanned = db.scan(0, key_space, usize::MAX);
    let expected: Vec<(u64, Vec<u8>)> = model
        .range(0..=key_space)
        .map(|(&k, v)| (k, v.clone()))
        .collect();
    assert_eq!(scanned, expected, "{context}: full scan");
    for lo in (0..key_space).step_by(17) {
        let hi = lo + 11;
        if model.range(lo..=hi).next().is_some() {
            assert!(
                db.range_is_possibly_non_empty(lo, hi),
                "{context}: false negative on non-empty range [{lo}, {hi}]"
            );
        }
    }
}

/// Deletes shadow committed data through flush, compaction, reopen — and the
/// typed facade routes them through the codec.
#[test]
fn tombstones_shadow_committed_data_and_survive_reopen() {
    let dir = TempDir::new("tombstones");
    {
        let db = Db::open_with(dir.path(), options(100, tree_routing()), Arc::new(RealIo)).unwrap();
        for k in 0..300u64 {
            db.put(k, vec![k as u8; 4]);
        }
        db.flush();
        for k in (0..300u64).step_by(3) {
            db.delete(k);
        }
        db.flush();
        for k in (0..300u64).step_by(3) {
            assert_eq!(db.get(k), None, "deleted before reopen");
        }
    }
    // Tombstones persisted into SSTs: the deletes survive a reopen ...
    let db = Db::open_with(dir.path(), options(100, tree_routing()), Arc::new(RealIo)).unwrap();
    for k in 0..300u64 {
        let want = if k % 3 == 0 {
            None
        } else {
            Some(vec![k as u8; 4])
        };
        assert_eq!(db.get(k), want, "after reopen, key {k}");
    }
    assert_eq!(db.scan(0, 300, usize::MAX).len(), 200);
    // ... and through a compaction plus another reopen.
    let stats = db.compact().unwrap().expect("shadowed versions to drop");
    assert_eq!(stats.tombstones_dropped, 100);
    drop(db);
    let db = Db::open_with(dir.path(), options(100, tree_routing()), Arc::new(RealIo)).unwrap();
    assert_eq!(db.num_ssts(), 1);
    for k in 0..300u64 {
        let want = if k % 3 == 0 {
            None
        } else {
            Some(vec![k as u8; 4])
        };
        assert_eq!(db.get(k), want, "after compact + reopen, key {k}");
    }

    // The typed facade forwards deletes through the key codec.
    let typed: TypedDb<i64> = TypedDb::new(options(100, tree_routing()));
    typed.put(&-5, vec![1]);
    typed.put(&7, vec![2]);
    typed.flush();
    typed.delete(&-5);
    assert_eq!(typed.get(&-5), None);
    assert_eq!(typed.get(&7), Some(vec![2]));
}

/// The ISSUE's acceptance scenario: an overwrite- and delete-heavy workload,
/// then `compact()` — the on-disk SST count and byte total must drop, the
/// retired inputs must be gone from the directory, and reads must be
/// identical to the model before and after a reopen.
#[test]
fn compaction_reclaims_disk_space_and_retires_input_files() {
    let dir = TempDir::new("reclaim");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let db = Db::open_with(dir.path(), options(250, tree_routing()), Arc::new(RealIo)).unwrap();
    // Three full overwrite waves over the same 1000 keys, then delete 40%.
    for wave in 0..3u64 {
        for k in 0..1000u64 {
            let v = vec![k as u8, wave as u8, 0xC3];
            db.put(k, v.clone());
            model.insert(k, v);
        }
    }
    for k in (0..1000u64).step_by(5) {
        db.delete(k);
        db.delete(k + 2);
        model.remove(&k);
        model.remove(&(k + 2));
    }
    db.flush();

    let ssts_before = db.num_ssts();
    let (files_before, bytes_before) = disk_sst_bytes(dir.path());
    assert_eq!(files_before, ssts_before);
    assert!(ssts_before >= 10, "workload must span many tables");
    assert_matches_model(&db, &model, 1100, "pre-compaction");

    let stats = db.compact().unwrap().expect("heavy overwrites to merge");
    assert_eq!(stats.input_tables, ssts_before);
    assert_eq!(stats.output_tables, 1);
    assert_eq!(stats.output_entries, model.len());
    assert_eq!(stats.tombstones_dropped, 400);
    assert!(stats.output_bytes < stats.input_bytes);

    // Retired files are gone from the directory; one merged table remains.
    let (files_after, bytes_after) = disk_sst_bytes(dir.path());
    assert_eq!(db.num_ssts(), 1);
    assert_eq!(files_after, 1);
    assert!(
        bytes_after < bytes_before,
        "compaction must reclaim disk space: {bytes_after} vs {bytes_before}"
    );
    assert_matches_model(&db, &model, 1100, "post-compaction");

    // The tree shrank with the table set and still routes every read.
    let (_, nodes, _) = db.tree_shape().expect("tree routing is on");
    assert_eq!(nodes, 1, "one leaf for one table");

    // Reopen: the MANIFEST names exactly the merged table, nothing else.
    drop(db);
    let db = Db::open_with(dir.path(), options(250, tree_routing()), Arc::new(RealIo)).unwrap();
    assert_eq!(db.num_ssts(), 1);
    assert_eq!(
        db.stats().tail_ssts_skipped,
        0,
        "nothing to skip after a clean commit"
    );
    assert_matches_model(&db, &model, 1100, "post-reopen");
}

/// Crash simulator: after `budget` mutating operations (writes, renames,
/// removes), every further mutation fails — as if the process died there.
/// Reads pass through untouched.
struct CrashingIo {
    inner: RealIo,
    budget: AtomicI64,
}

impl CrashingIo {
    fn new(budget: i64) -> Self {
        Self {
            inner: RealIo,
            budget: AtomicI64::new(budget),
        }
    }

    fn alive(&self) -> io::Result<()> {
        if self.budget.fetch_sub(1, Ordering::Relaxed) > 0 {
            Ok(())
        } else {
            Err(io::Error::other("injected crash"))
        }
    }
}

impl StorageIo for CrashingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.alive()?;
        self.inner.write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.alive()?;
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.alive()?;
        self.inner.remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Sweep a simulated crash across *every* point of the compaction commit
/// protocol (including the abort path's own cleanup failing). Whatever the
/// crash point, reopening must succeed and serve exactly the logical
/// pre-compaction contents — deleted keys never resurrect, committed data is
/// never lost. (Pre- and post-compaction contents are logically identical;
/// the sweep proves no crash point exposes anything else.)
#[test]
fn crash_mid_compaction_never_loses_or_resurrects_data() {
    let golden = TempDir::new("crash-golden");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    {
        let db =
            Db::open_with(golden.path(), options(80, tree_routing()), Arc::new(RealIo)).unwrap();
        for wave in 0..2u64 {
            for k in 0..240u64 {
                let v = vec![k as u8, wave as u8];
                db.put(k, v.clone());
                model.insert(k, v);
            }
        }
        for k in (0..240u64).step_by(4) {
            db.delete(k);
            model.remove(&k);
        }
        db.flush();
        assert_eq!(db.num_ssts(), 7);
    }

    // A full compaction of these seven tables is 13 mutating ops: merged SST
    // write + rename, verified manifest write + rename, seven retired-file
    // removes, redo-log clear write + rename. Budget 0 crashes before the
    // first op; budgets from 13 up complete cleanly — the sweep brackets the
    // whole protocol.
    for budget in 0..20i64 {
        let trial = TempDir::new(&format!("crash-{budget}"));
        copy_dir(golden.path(), trial.path());
        {
            let db = Db::open_with(
                trial.path(),
                options(80, tree_routing()),
                Arc::new(CrashingIo::new(budget)),
            )
            .unwrap();
            let _ = db.compact(); // may Err at any point — the "crash"
        }
        let db = Db::open_with(trial.path(), options(80, tree_routing()), Arc::new(RealIo))
            .unwrap_or_else(|e| panic!("reopen after crash at budget {budget}: {e}"));
        assert_matches_model(&db, &model, 260, &format!("crash budget {budget}"));
    }
}

/// Torn-write fault sweep: under `FaultyIo` a write can silently persist
/// only a prefix. The verified commit protocol must either detect this and
/// abort (store stays pre-compaction) or push through a verified commit
/// (store is post-compaction); a reopen under clean I/O must always succeed
/// with identical logical contents.
#[test]
fn torn_write_compaction_is_detected_or_committed_never_mixed() {
    let base_seed = fault_seed(0xC0DE);
    for salt in 0..6u64 {
        let seed = base_seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9));
        let dir = TempDir::new(&format!("torn-{salt}"));
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        {
            let db =
                Db::open_with(dir.path(), options(60, tree_routing()), Arc::new(RealIo)).unwrap();
            for wave in 0..2u64 {
                for k in 0..180u64 {
                    let v = vec![k as u8, wave as u8];
                    db.put(k, v.clone());
                    model.insert(k, v);
                }
            }
            for k in (0..180u64).step_by(3) {
                db.delete(k);
                model.remove(&k);
            }
            db.flush();
        }
        {
            let faulty = Arc::new(FaultyIo::new(
                seed,
                FaultConfig {
                    torn_write: 0.35,
                    ..Default::default()
                },
            ));
            let db = Db::open_with(dir.path(), options(60, tree_routing()), faulty).unwrap();
            // Either outcome is legal; a torn write must never be committed.
            let _ = db.compact();
        }
        let db = Db::open_with(dir.path(), options(60, tree_routing()), Arc::new(RealIo))
            .unwrap_or_else(|e| panic!("reopen after torn-write compaction (seed {seed:#x}): {e}"));
        assert_matches_model(&db, &model, 200, &format!("torn writes, seed {seed:#x}"));
    }
}

/// A merged table is committed *sealed*: it holds data merged from older
/// tables, so recovery must never apply the tail-skip escape hatch to it.
/// Corrupting it makes the open fail loudly instead of silently dropping
/// committed data.
#[test]
fn sealed_merged_output_is_never_tail_skipped() {
    let dir = TempDir::new("sealed");
    {
        let db = Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo)).unwrap();
        for k in 0..100u64 {
            db.put(k, vec![k as u8]);
        }
        db.flush();
        assert_eq!(db.num_ssts(), 2);
        db.compact().unwrap().expect("two tables merge");
    }
    // Exactly one (sealed, merged) table remains; corrupt it mid-file.
    let (count, _) = disk_sst_bytes(dir.path());
    assert_eq!(count, 1);
    let merged = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .unwrap();
    let mut bytes = std::fs::read(&merged).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&merged, &bytes).unwrap();

    let err = Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo))
        .err()
        .expect("a corrupt sealed table must fail the open, not be skipped");
    let msg = err.to_string();
    assert!(
        msg.contains(merged.file_name().unwrap().to_str().unwrap()) || !msg.is_empty(),
        "error should name the broken artifact: {msg}"
    );
}

/// Concurrent writers racing the flushes they trigger: every table commit
/// happens under the table-set lock, so after a clean reopen every
/// acknowledged key is readable and no tail table was skipped.
#[test]
fn concurrent_flushes_keep_every_acknowledged_key_across_reopen() {
    let dir = TempDir::new("flush-race");
    let writers = 4u64;
    let per_writer = 300u64;
    {
        let db = Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..writers {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        db.put(t * 10_000 + i, vec![t as u8, i as u8]);
                    }
                });
            }
        });
        db.flush();
        assert_eq!(db.stats().persist_failures, 0);
        assert_eq!(db.stats().unpersisted_ssts, 0);
    }
    let db = Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo)).unwrap();
    assert_eq!(db.stats().tail_ssts_skipped, 0);
    for t in 0..writers {
        for i in 0..per_writer {
            assert_eq!(
                db.get(t * 10_000 + i),
                Some(vec![t as u8, i as u8]),
                "writer {t} key {i}"
            );
        }
    }
}

/// I/O layer whose writes and renames can be switched off, simulating a
/// full-disk / dead-device episode that later recovers.
struct ToggleIo {
    inner: RealIo,
    fail_writes: AtomicBool,
}

impl ToggleIo {
    fn new() -> Self {
        Self {
            inner: RealIo,
            fail_writes: AtomicBool::new(false),
        }
    }

    fn check(&self) -> io::Result<()> {
        if self.fail_writes.load(Ordering::Relaxed) {
            Err(io::Error::other("injected write failure"))
        } else {
            Ok(())
        }
    }
}

impl StorageIo for ToggleIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.check()?;
        self.inner.write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check()?;
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Regression for the silently-degrading flush: a flush whose SST persist
/// fails keeps the table in memory, *reports* it via the `unpersisted_ssts`
/// gauge, never lets a newer file into the MANIFEST past the gap, and the
/// next flush retries the backlog.
#[test]
fn failed_persist_is_surfaced_excluded_from_manifest_and_retried() {
    let dir = TempDir::new("persist-retry");
    let io = Arc::new(ToggleIo::new());
    let db = Db::open_with(
        dir.path(),
        options(50, tree_routing()),
        Arc::clone(&io) as _,
    )
    .unwrap();

    // Wave A persists normally.
    for k in 0..50u64 {
        db.put(k, vec![0xA]);
    }
    db.flush();
    assert_eq!(db.stats().unpersisted_ssts, 0);

    // Wave B flushes while the device is dead: reads still work, the gauge
    // reports the backlog, the failure is counted.
    io.fail_writes.store(true, Ordering::Relaxed);
    for k in 100..150u64 {
        db.put(k, vec![0xB]);
    }
    db.flush();
    assert_eq!(db.num_ssts(), 2);
    assert_eq!(db.stats().unpersisted_ssts, 1, "backlog must be visible");
    assert!(db.stats().persist_failures > 0);
    assert_eq!(
        db.get(120),
        Some(vec![0xB]),
        "memory-only table still serves"
    );

    // The on-disk MANIFEST stops at the gap: a reopen sees wave A only —
    // wave B was never committed, so nothing newer could sneak past it.
    {
        let snapshot =
            Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo)).unwrap();
        assert_eq!(snapshot.num_ssts(), 1);
        assert_eq!(snapshot.get(10), Some(vec![0xA]));
        assert_eq!(snapshot.get(120), None, "unpersisted table is not on disk");
    }

    // Device recovers; the next flush retries wave B before committing C.
    io.fail_writes.store(false, Ordering::Relaxed);
    for k in 200..250u64 {
        db.put(k, vec![0xC]);
    }
    db.flush();
    assert_eq!(db.stats().unpersisted_ssts, 0, "backlog must drain");
    drop(db);

    let db = Db::open_with(dir.path(), options(50, tree_routing()), Arc::new(RealIo)).unwrap();
    assert_eq!(db.num_ssts(), 3, "all three waves recovered in age order");
    assert_eq!(db.get(10), Some(vec![0xA]));
    assert_eq!(db.get(120), Some(vec![0xB]));
    assert_eq!(db.get(220), Some(vec![0xC]));
}

/// One differential step, decoded from a `(key, value, weight)` tuple (the
/// vendored proptest shim has no mapping combinators): weights 0..=5 put,
/// 6..=8 delete, 9 flush.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u64, u8),
    Delete(u64),
    Flush,
}

fn decode_op((k, v, w): (u64, u8, u8)) -> Op {
    match w {
        0..=5 => Op::Put(k, v),
        6..=8 => Op::Delete(k),
        _ => Op::Flush,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential correctness: a durable store that compacts mid-stream
    /// and at the end answers `get`/`scan` exactly like an in-memory
    /// BTreeMap model and a never-compacted reference store — before and
    /// after a reopen — and the range-emptiness verdict never returns a
    /// false negative. Tombstones must keep shadowing across partial
    /// compactions and expire only with the full window.
    #[test]
    fn compacted_store_matches_model_and_uncompacted_reference(
        raw_ops in proptest::collection::vec((0u64..160, any::<u8>(), 0u8..10), 20..160),
        compact_at in 5usize..100,
    ) {
        let dir = TempDir::new("differential");
        let subject =
            Db::open_with(dir.path(), options(24, ReadRouting::ScanAll), Arc::new(RealIo))
                .unwrap();
        let reference = Db::new(options(24, tree_routing()));
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        let ops: Vec<Op> = raw_ops.iter().map(|&t| decode_op(t)).collect();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Put(k, v) => {
                    subject.put(k, vec![v]);
                    reference.put(k, vec![v]);
                    model.insert(k, vec![v]);
                }
                Op::Delete(k) => {
                    subject.delete(k);
                    reference.delete(k);
                    model.remove(&k);
                }
                Op::Flush => {
                    subject.flush();
                    reference.flush();
                }
            }
            if i == compact_at {
                subject.flush();
                // A partial window first (tombstones must survive it) ...
                let n = subject.num_ssts();
                if n >= 3 {
                    subject.compact_range(n / 2..n).unwrap();
                }
                // ... then the full window.
                subject.compact().unwrap();
            }
        }
        subject.flush();
        reference.flush();
        subject.compact().unwrap();

        for k in 0..160u64 {
            prop_assert_eq!(&subject.get(k), &model.get(&k).cloned(), "get({})", k);
            prop_assert_eq!(&subject.get(k), &reference.get(k), "reference get({})", k);
        }
        let expected: Vec<(u64, Vec<u8>)> =
            model.iter().map(|(&k, v)| (k, v.clone())).collect();
        prop_assert_eq!(&subject.scan(0, 200, usize::MAX), &expected);
        prop_assert_eq!(&reference.scan(0, 200, usize::MAX), &expected);
        for lo in (0..160u64).step_by(13) {
            if model.range(lo..=lo + 7).next().is_some() {
                prop_assert!(subject.range_is_possibly_non_empty(lo, lo + 7));
            }
        }

        // The whole history survives a reopen with identical answers.
        drop(subject);
        let reopened =
            Db::open_with(dir.path(), options(24, tree_routing()), Arc::new(RealIo)).unwrap();
        for k in 0..160u64 {
            prop_assert_eq!(&reopened.get(k), &model.get(&k).cloned(), "reopened get({})", k);
        }
        prop_assert_eq!(&reopened.scan(0, 200, usize::MAX), &expected);
    }
}
