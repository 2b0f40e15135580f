//! A compact LSM key-value store: memtable + level-0 SST files with filter
//! blocks, mirroring the RocksDB setup of the paper's system-level
//! experiments — now with deletes and size-tiered compaction so SST
//! retirement is exercised end-to-end.
//!
//! A store is either *ephemeral* ([`Db::new`], SSTs live only in memory — the
//! original behaviour) or *durable* ([`Db::open`]): every flush additionally
//! serializes the new SST to the store directory with an atomic
//! write-then-rename and commits it to a MANIFEST, and reopening the
//! directory recovers the table set, restoring persisted filter blocks
//! instead of rebuilding them, and builds the read router from those tables.
//! Recovery degrades gracefully — see [`Db::open_with`] for the exact rules.
//!
//! Every read — [`Db::get`], [`Db::get_batch`], [`Db::scan`],
//! [`Db::range_is_possibly_non_empty`], [`Db::range_non_empty_batch`] — has
//! the same three steps: answer what the memtable can, ask the table set
//! which tables are candidates for the rest, read only those. The
//! candidates step is the only place a table's filter is tested, so a
//! candidate goes straight to its fences and blocks.
//!
//! Deletes ([`Db::delete`]) buffer a tombstone in the memtable; the tombstone
//! flushes into the SST like any put and shadows every older version of its
//! key until compaction drops it. [`Db::compact`] merges a window of adjacent
//! tables into (at most) one, dropping shadowed versions always and expired
//! tombstones only when the window includes the oldest table. For durable
//! stores the merged SST is read back and byte-verified *before* the MANIFEST
//! commit, the commit itself is verified, and input files are deleted only
//! after the verified commit — a crash at any point leaves the store
//! recoverable to exactly the pre- or post-compaction state, never a mix.
//! See `docs/compaction.md` for the full protocol.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bloomrf::sync::atomic::{AtomicU64, Ordering};
use bloomrf::sync::{OrderedMutex, OrderedRwLock};
use bloomrf_filters::FilterKind;

use crate::io::{read_with_retry, RealIo, StorageIo};
use crate::memtable::MemTable;
use crate::persist::{self, ManifestEntry, PersistError};
use crate::ranks;
use crate::sst::{merge, Record, SsTable, SstProbeScratch};
use crate::stats::{IoModel, ReadStats, ReadStatsSnapshot};
use crate::tree::{FilterTree, TreeOptions};
use crate::value::Value;

/// Name of the manifest file inside a store directory.
const MANIFEST_NAME: &str = "MANIFEST";
/// Retry budget for transient read errors during recovery.
const READ_RETRY_ATTEMPTS: u32 = 4;
/// Base backoff between read retries (linear: 1·b, 2·b, …).
const READ_RETRY_BACKOFF: Duration = Duration::from_millis(1);
/// Write-then-verify attempts for compaction commits (merged SST and
/// MANIFEST). Each attempt rewrites the file and reads it back.
const COMMIT_VERIFY_ATTEMPTS: u32 = 3;

/// Configuration of the store.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Number of entries after which the memtable is flushed into an SST.
    pub memtable_flush_entries: usize,
    /// Entries per data block (RocksDB block-size knob).
    pub entries_per_block: usize,
    /// Filter family installed as the full-filter block of every SST.
    pub filter_kind: FilterKind,
    /// Filter space budget.
    pub bits_per_key: f64,
    /// Simulated storage cost model.
    pub io_model: IoModel,
    /// How reads select the SSTs to probe.
    pub routing: ReadRouting,
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            memtable_flush_entries: 64 * 1024,
            entries_per_block: 8, // ≈ 4 KiB blocks with 512-byte values
            filter_kind: FilterKind::BloomRf { max_range: 1e6 },
            bits_per_key: 22.0,
            io_model: IoModel::default(),
            routing: ReadRouting::default(),
        }
    }
}

/// How [`Db::get`], [`Db::get_batch`], [`Db::scan`],
/// [`Db::range_is_possibly_non_empty`] and [`Db::range_non_empty_batch`]
/// select the SSTs to probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReadRouting {
    /// Every live SST is a candidate for every query — the pre-tree
    /// behaviour, kept as the reference the differential tests compare tree
    /// routing against.
    ScanAll,
    /// Descend a Bloofi-style [`FilterTree`] and probe only the surviving
    /// candidate SSTs (see `docs/filter-tree.md`). Routed reads return
    /// exactly what [`ReadRouting::ScanAll`] would: the tree has no false
    /// negatives, so pruned tables can never contribute an answer.
    FilterTree(TreeOptions),
}

impl Default for ReadRouting {
    fn default() -> Self {
        ReadRouting::FilterTree(TreeOptions::default())
    }
}

/// What one [`Db::compact`] / [`Db::compact_range`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Tables merged (the window size).
    pub input_tables: usize,
    /// Tables produced: `1`, or `0` when every entry was dropped.
    pub output_tables: usize,
    /// Entries across all input tables, shadowed versions included.
    pub input_entries: usize,
    /// Entries in the merged output (tombstones included unless expired).
    pub output_entries: usize,
    /// Older versions of keys dropped because a newer table shadowed them.
    pub shadowed_dropped: usize,
    /// Tombstones dropped because the window included the oldest table, so
    /// nothing older could resurrect the key.
    pub tombstones_dropped: usize,
    /// Data and filter blocks of the input tables, in bytes.
    pub input_bytes: usize,
    /// Data and filter blocks of the output table, in bytes (0 when empty).
    pub output_bytes: usize,
}

/// Durable-store state: where SSTs are persisted and through which I/O layer.
struct Persistence {
    dir: PathBuf,
    io: Arc<dyn StorageIo>,
    /// Number the next flushed SST file will get.
    next_file_no: AtomicU64,
}

/// Which tables a read has to consult.
enum Router {
    /// Every table, for every query ([`ReadRouting::ScanAll`]).
    All,
    /// The tree's candidates; leaf `i` ⇔ `ssts[i]`.
    Tree(FilterTree),
}

/// The live table set: the tables, the files backing them and the router
/// over them. The three are index-aligned and only ever change together,
/// under the one `Db::tables` write guard, so no reader observes a
/// half-spliced store. The router is derived from the tables and never
/// persisted.
struct TableSet {
    /// Level-0 tables, oldest first. Compaction splices a window in place;
    /// age order is always preserved.
    ssts: Vec<SsTable>,
    /// `files[i]` is the persisted file backing `ssts[i]`, as the MANIFEST
    /// records it; `None` while that table is memory-only (every table of an
    /// ephemeral store, or one whose persist failed).
    files: Vec<Option<ManifestEntry>>,
    router: Router,
}

/// The candidates step's buffers: its answer, `(table, query)` pairs with
/// each query's tables ascending, and scan-all's fence and filter buffers.
#[derive(Default)]
struct Candidates {
    pairs: Vec<(usize, usize)>,
    admit: SstProbeScratch,
}

thread_local! {
    /// This thread's candidates buffers for one-query reads, while no read
    /// holds them. One query has at most one candidate per table, so they
    /// never outgrow the table set. Boxed, so taking and returning them
    /// moves one pointer.
    static LONE: Cell<Option<Box<Candidates>>> = const { Cell::new(None) };
}

/// Run a one-query read with this thread's candidates buffers: it takes
/// them and puts them back, so a warm thread's lone reads allocate nothing
/// for their candidates.
fn with_lone_buffers<R>(read: impl FnOnce(&mut Candidates) -> R) -> R {
    let mut buffers = LONE.take().unwrap_or_default();
    let out = read(&mut buffers);
    LONE.set(Some(buffers));
    out
}

/// One input of [`Db::scan`]'s merge: a candidate table's rows, or the
/// memtable's.
enum Source<T, M> {
    Table(T),
    Memtable(M),
}

impl<'a, T, M> Iterator for Source<T, M>
where
    T: Iterator<Item = Record<'a>>,
    M: Iterator<Item = Record<'a>>,
{
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        match self {
            Source::Table(rows) => rows.next(),
            Source::Memtable(rows) => rows.next(),
        }
    }
}

impl TableSet {
    /// The candidates step of every read: the `(table, query)` pairs whose
    /// table's key range and filter admit the query, into `buffers.pairs`
    /// (cleared first). Every read relies only on each query's tables
    /// coming in ascending order: the tree groups the pairs by query,
    /// scan-all by table. The router's descent (`descend`) ends in the
    /// leaves, which are the tables' filters; scan-all tests every table's
    /// fences and filter itself (`admit` leaves the admitted queries in the
    /// scratch). Either way each
    /// table's filter is tested at most once per query, and a table that
    /// does hold a queried key is never missing (filters and fences have no
    /// false negatives), so reading only the candidates is
    /// answer-preserving. Counts the pairs the router selected in
    /// `ssts_probed`: the candidates, or under scan-all every table.
    fn candidates<'b>(
        &self,
        n_queries: usize,
        stats: &ReadStats,
        buffers: &'b mut Candidates,
        descend: impl FnOnce(&FilterTree, &mut Vec<(usize, usize)>),
        admit: impl Fn(&SsTable, &mut SstProbeScratch),
    ) -> &'b [(usize, usize)] {
        let Candidates {
            pairs,
            admit: scratch,
        } = buffers;
        match &self.router {
            Router::Tree(tree) => {
                descend(tree, pairs);
                stats.record_ssts_probed(pairs.len() as u64);
            }
            Router::All => {
                pairs.clear();
                for (table, sst) in self.ssts.iter().enumerate() {
                    admit(sst, scratch);
                    pairs.extend(scratch.admitted().iter().map(|&q| (table, q)));
                }
                stats.record_ssts_probed((n_queries * self.ssts.len()) as u64);
            }
        }
        pairs
    }

    /// The `(table, key index)` pairs whose table may hold the key.
    fn candidates_points<'b>(
        &self,
        keys: &[u64],
        stats: &ReadStats,
        buffers: &'b mut Candidates,
    ) -> &'b [(usize, usize)] {
        self.candidates(
            keys.len(),
            stats,
            buffers,
            |tree, pairs| tree.candidates_points_into(keys, stats, pairs),
            |sst, scratch| sst.admit_points(keys, stats, scratch),
        )
    }

    /// The `(table, range index)` pairs whose table may hold an entry — a
    /// tombstone included — inside its `[lo, hi]` range. The tree passes
    /// reversed bounds to every table, which reads nothing for them.
    fn candidates_ranges<'b>(
        &self,
        ranges: &[(u64, u64)],
        stats: &ReadStats,
        buffers: &'b mut Candidates,
    ) -> &'b [(usize, usize)] {
        self.candidates(
            ranges.len(),
            stats,
            buffers,
            |tree, pairs| tree.candidates_ranges_into(ranges, stats, pairs),
            |sst, scratch| sst.admit_ranges(ranges, stats, scratch),
        )
    }

    /// Append a freshly flushed, not yet persisted table.
    fn push(&mut self, sst: SsTable) {
        self.ssts.push(sst);
        self.files.push(None);
        if let Router::Tree(tree) = &mut self.router {
            tree.push_leaf(&self.ssts);
        }
    }

    /// Replace the tables in `window` by `output` (the merged table, or
    /// nothing when the merge dropped every entry), backed by `file`.
    fn splice(
        &mut self,
        window: std::ops::Range<usize>,
        output: Option<SsTable>,
        file: Option<ManifestEntry>,
        stats: &ReadStats,
    ) {
        let has_output = output.is_some();
        self.files
            .splice(window.clone(), has_output.then_some(file));
        self.ssts.splice(window.clone(), output);
        if let Router::Tree(tree) = &mut self.router {
            let replacement = has_output.then(|| &self.ssts[window.start]);
            tree.retire_and_splice(window, replacement, &self.ssts, stats);
        }
    }
}

/// The manifest view of a file ledger: its longest persisted prefix — a gap
/// must not let a newer file resurrect past an unpersisted older table.
fn manifest_entries(files: &[Option<ManifestEntry>]) -> Vec<ManifestEntry> {
    files.iter().map_while(Clone::clone).collect()
}

/// Tables of a durable store that are still memory-only.
fn unpersisted(files: &[Option<ManifestEntry>]) -> u64 {
    files.iter().filter(|s| s.is_none()).count() as u64
}

/// The LSM store.
///
/// Lock order is `flush` → `memtable` → `tables` → `io`, for writers and
/// readers alike — machine-enforced in debug builds by the [`crate::ranks`]
/// hierarchy.
pub struct Db {
    options: DbOptions,
    memtable: MemTable,
    /// Serializes flushes. The snapshot → build → publish → forget sequence
    /// in [`Db::flush`] is only correct when flushes do not interleave (two
    /// flushes snapshotting the same entries would publish duplicate SSTs),
    /// and the lock must be taken *before* any other store lock — hence the
    /// lowest rank in the hierarchy.
    flush_lock: OrderedMutex<(), { ranks::FLUSH }>,
    /// The live tables, their files and their router. Flush and compaction
    /// hold the write guard across their whole commit (table-set mutation
    /// and MANIFEST).
    tables: OrderedRwLock<TableSet, { ranks::SSTS }>,
    stats: ReadStats,
    /// Present for durable stores opened via [`Db::open`] / [`Db::open_with`].
    persist: Option<Persistence>,
}

impl Db {
    /// A store over `ssts` (backed by `files`), with the router the options
    /// ask for built from those tables.
    fn with_tables(
        options: DbOptions,
        ssts: Vec<SsTable>,
        files: Vec<Option<ManifestEntry>>,
        stats: ReadStats,
        persist: Option<Persistence>,
    ) -> Self {
        let router = match options.routing {
            ReadRouting::ScanAll => Router::All,
            ReadRouting::FilterTree(t) => Router::Tree(FilterTree::build_from_ssts(
                t.fanout,
                t.leaf_keys.unwrap_or(options.memtable_flush_entries),
                t.bits_per_key.unwrap_or(options.bits_per_key),
                &ssts,
            )),
        };
        Self {
            options,
            memtable: MemTable::new(),
            flush_lock: OrderedMutex::new("db.flush", ()),
            tables: OrderedRwLock::new(
                "db.tables",
                TableSet {
                    ssts,
                    files,
                    router,
                },
            ),
            stats,
            persist,
        }
    }

    /// Open an empty, ephemeral store (SSTs live only in memory).
    pub fn new(options: DbOptions) -> Self {
        Self::with_tables(options, Vec::new(), Vec::new(), ReadStats::new(), None)
    }

    /// Open with default options but a specific filter family and budget.
    pub fn with_filter(filter_kind: FilterKind, bits_per_key: f64) -> Self {
        Self::new(DbOptions {
            filter_kind,
            bits_per_key,
            ..Default::default()
        })
    }

    /// Open (or create) a durable store at `dir` with default options,
    /// recovering any previously flushed SSTs. See [`Db::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_with(dir, DbOptions::default(), Arc::new(RealIo))
    }

    /// Open (or create) a durable store at `dir` with explicit options and
    /// I/O layer (tests inject [`crate::io::FaultyIo`] here).
    ///
    /// Recovery rules, in order of degradation:
    ///
    /// * The MANIFEST names the live SSTs. If it is corrupt, recovery falls
    ///   back to scanning the directory for `*.sst` files in number order.
    /// * The MANIFEST's retired list is a deletion redo log: files named
    ///   there were retired by a committed compaction and are re-deleted on
    ///   open before anything else.
    /// * Transient read errors are retried with bounded linear backoff
    ///   (counted in `read_retries`).
    /// * An SST whose *filter* section is corrupt is loaded anyway: the
    ///   filter is quarantined and rebuilt from the verified data blocks
    ///   (counted in `filters_quarantined` / `filters_rebuilt`).
    /// * The *newest* SST being corrupt (or missing) is the signature of a
    ///   crash mid-flush: the tail file is skipped and dropped from the
    ///   manifest (counted in `tail_ssts_skipped`) — **unless** it is marked
    ///   sealed. A sealed file is a verified compaction output holding data
    ///   merged from older tables; dropping it would lose committed data, so
    ///   a corrupt sealed file is a hard [`PersistError::CorruptSst`].
    /// * Any *older* SST with corrupt data likewise surfaces a typed
    ///   [`PersistError::CorruptSst`] naming the file and section — silently
    ///   dropping committed non-tail data is never acceptable.
    /// * When the MANIFEST decoded cleanly it is authoritative: orphaned
    ///   `*.sst` files it does not name (e.g. a merged output whose commit
    ///   never landed) are removed. After a directory-scan fallback nothing
    ///   is removed — the scan adopted everything it found.
    ///
    /// The filter tree is not persisted: it is built from the recovered
    /// tables. A `TREE` file left by an older build is removed.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DbOptions,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir).map_err(|e| PersistError::Io {
            path: dir.clone(),
            source: e,
        })?;
        let stats = ReadStats::new();

        // Discover the live file set: MANIFEST first, directory scan as the
        // degraded fallback. Only a cleanly decoded MANIFEST is authoritative
        // enough to justify deleting files it does not name.
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut authoritative = false;
        let (listed, retired, mut next_file_no) = if io.exists(&manifest_path) {
            let (bytes, retries) = read_with_retry(
                &*io,
                &manifest_path,
                READ_RETRY_ATTEMPTS,
                READ_RETRY_BACKOFF,
            )
            .map_err(|e| PersistError::Io {
                path: manifest_path.clone(),
                source: e,
            })?;
            stats.record_read_retries(retries);
            match persist::decode_manifest(&bytes) {
                Ok(data) => {
                    authoritative = true;
                    (data.files, data.retired, data.next_file_no)
                }
                Err(_) => Self::scan_dir(&*io, &dir)?,
            }
        } else {
            Self::scan_dir(&*io, &dir)?
        };
        // Never reuse a file number that exists (or recently existed) on
        // disk, even if the manifest's counter was lost.
        let on_disk_max = listed
            .iter()
            .map(|e| e.name.as_str())
            .chain(retired.iter().map(String::as_str))
            .filter_map(persist::parse_sst_file_name)
            .max()
            .unwrap_or(0);
        next_file_no = next_file_no.max(on_disk_max + 1);

        // Replay the deletion redo log: these retirements were committed by a
        // compaction whose file removals may not have completed.
        for name in &retired {
            let _ = io.remove(&dir.join(name));
        }

        // Load every listed SST, oldest first. Only an unsealed tail may be
        // skipped.
        let mut ssts = Vec::new();
        let mut files: Vec<Option<ManifestEntry>> = Vec::new();
        let mut skipped_tail = false;
        let last = listed.len().saturating_sub(1);
        for (i, entry) in listed.iter().enumerate() {
            let path = dir.join(&entry.name);
            let tail_skippable = i == last && !entry.sealed;
            let bytes = match read_with_retry(&*io, &path, READ_RETRY_ATTEMPTS, READ_RETRY_BACKOFF)
            {
                Ok((bytes, retries)) => {
                    stats.record_read_retries(retries);
                    bytes
                }
                Err(e) if tail_skippable && e.kind() == std::io::ErrorKind::NotFound => {
                    stats.record_tail_sst_skipped();
                    skipped_tail = true;
                    continue;
                }
                Err(e) => return Err(PersistError::Io { path, source: e }),
            };
            match SsTable::from_bytes(&bytes, &stats) {
                Ok(sst) => {
                    ssts.push(sst);
                    files.push(Some(ManifestEntry {
                        name: entry.name.clone(),
                        sealed: entry.sealed,
                    }));
                }
                Err(_) if tail_skippable => {
                    stats.record_tail_sst_skipped();
                    skipped_tail = true;
                    let _ = io.remove(&path);
                }
                Err(corruption) => {
                    return Err(PersistError::CorruptSst {
                        path,
                        source: corruption,
                    })
                }
            }
        }

        // Remove leftover temporaries from interrupted writes, a `TREE` file
        // from a build that persisted the router, and — when the MANIFEST was
        // authoritative — orphaned SSTs it does not name (a merged output
        // whose commit never landed must not linger: a later manifest loss
        // would make the dir-scan fallback adopt it as newest).
        if let Ok(listing) = io.list(&dir) {
            let live: std::collections::HashSet<&str> =
                files.iter().flatten().map(|s| s.name.as_str()).collect();
            for path in listing {
                if path.extension().is_some_and(|e| e == "tmp") || path.ends_with("TREE") {
                    let _ = io.remove(&path);
                } else if authoritative {
                    let orphan_sst = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                        persist::parse_sst_file_name(n).is_some() && !live.contains(n)
                    });
                    if orphan_sst {
                        let _ = io.remove(&path);
                    }
                }
            }
        }

        let persistence = Persistence {
            dir,
            io,
            next_file_no: AtomicU64::new(next_file_no),
        };
        // If the tail was dropped or retirements were replayed, commit the
        // cleaned manifest right away so the next open starts consistent.
        if (skipped_tail || !retired.is_empty())
            && persistence
                .write_manifest_with(&manifest_entries(&files), &[])
                .is_err()
        {
            stats.record_persist_failure();
        }
        Ok(Self::with_tables(
            options,
            ssts,
            files,
            stats,
            Some(persistence),
        ))
    }

    /// Degraded manifest recovery: list `*.sst` files in number order. Every
    /// adopted file is unsealed (the sealed flags lived in the lost
    /// manifest), so recovery keeps its tail-skip escape hatch.
    fn scan_dir(
        io: &dyn StorageIo,
        dir: &Path,
    ) -> Result<(Vec<ManifestEntry>, Vec<String>, u64), PersistError> {
        let listing = io.list(dir).map_err(|e| PersistError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        let mut numbered: Vec<(u64, String)> = listing
            .iter()
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                Some((persist::parse_sst_file_name(name)?, name.to_string()))
            })
            .collect();
        numbered.sort();
        let next = numbered.last().map_or(1, |&(n, _)| n + 1);
        let entries = numbered
            .into_iter()
            .map(|(_, name)| ManifestEntry {
                name,
                sealed: false,
            })
            .collect();
        Ok((entries, Vec::new(), next))
    }

    /// The directory this store persists to, if it is durable.
    pub fn path(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Store a key-value pair; flushes the memtable when it reaches the
    /// configured size.
    pub fn put(&self, key: u64, value: Vec<u8>) {
        self.memtable.put(key, value);
        if self.memtable.len() >= self.options.memtable_flush_entries {
            self.flush();
        }
    }

    /// Delete a key: buffers a tombstone that shadows every older version of
    /// the key until a full-window compaction drops both. Like [`Db::put`],
    /// flushes the memtable when it reaches the configured size.
    pub fn delete(&self, key: u64) {
        self.memtable.delete(key);
        if self.memtable.len() >= self.options.memtable_flush_entries {
            self.flush();
        }
    }

    /// Stream ascending, unique records into a table with the store's
    /// options; `None` when there are none.
    fn build_table<'a>(&self, records: impl IntoIterator<Item = Record<'a>>) -> Option<SsTable> {
        SsTable::from_records(
            records,
            self.options.entries_per_block,
            self.options.filter_kind,
            self.options.bits_per_key,
        )
    }

    /// Force-flush the memtable into a new level-0 SST. For durable stores
    /// the SST is also serialized to disk (atomic write-then-rename) and
    /// committed to the MANIFEST; if persistence fails the flush degrades to
    /// memory-only, the failure is counted in `persist_failures`, the
    /// `unpersisted_ssts` gauge reports the backlog, and the *next* flush
    /// retries every still-unpersisted table before committing. The MANIFEST
    /// only ever names the longest fully-persisted prefix of the table set,
    /// so a newer file can never commit past an unpersisted older one.
    ///
    /// Under tree routing the flush also appends the SST's leaf to the
    /// in-memory [`FilterTree`] and folds its keys into the ancestors. The
    /// table-set mutation and the MANIFEST commit happen under the one
    /// table-set write guard.
    ///
    /// Readers never lose sight of a key mid-flush: the memtable is
    /// *snapshotted* (not drained), the SST is built and published, and only
    /// then are the snapshotted entries dropped from the memtable — and only
    /// those whose value is still the snapshotted one, so writes racing the
    /// flush survive it. (Draining first opened a window where a key was in
    /// neither the memtable nor any SST; the loom model test
    /// `flush_never_hides_a_published_key` fails on that ordering.)
    pub fn flush(&self) {
        let _flushing = self.flush_lock.lock();
        let entries = self.memtable.snapshot_sorted();
        let records = entries.iter().map(|(key, value)| (*key, value.as_put()));
        let Some(sst) = self.build_table(records) else {
            return;
        };
        let mut tables = self.tables.write();
        tables.push(sst);
        if let Some(p) = &self.persist {
            let TableSet { ssts, files, .. } = &mut *tables;
            for (sst, file) in ssts.iter().zip(files.iter_mut()) {
                if file.is_none() {
                    match p.persist_sst(sst) {
                        Ok(name) => {
                            *file = Some(ManifestEntry {
                                name,
                                sealed: false,
                            })
                        }
                        Err(_) => self.stats.record_persist_failure(),
                    }
                }
            }
            self.stats.record_unpersisted_ssts(unpersisted(files));
            if p.write_manifest_with(&manifest_entries(files), &[])
                .is_err()
            {
                self.stats.record_persist_failure();
            }
        }
        // The SST is visible from here on; release the table-set lock before
        // re-entering the memtable (rank order) and drop the flushed entries.
        drop(tables);
        self.memtable.forget(&entries);
    }

    /// Compact the entire table set into (at most) one SST. Because the
    /// window includes the oldest table, shadowed versions *and* tombstones
    /// are dropped. Returns `Ok(None)` when there was nothing to do. The
    /// memtable is not flushed first — only on-disk tables participate.
    pub fn compact(&self) -> Result<Option<CompactionStats>, PersistError> {
        let len = self.num_ssts();
        self.compact_range(0..len)
    }

    /// Size-tiered compaction trigger: find the first run of ≥ 2 adjacent
    /// tables whose entry counts are within 4× of each other and compact it.
    /// Returns `Ok(None)` when no such run exists.
    pub fn maybe_compact(&self) -> Result<Option<CompactionStats>, PersistError> {
        let window = {
            let tables = self.tables.read();
            let sizes: Vec<usize> = tables.ssts.iter().map(|s| s.num_entries()).collect();
            pick_tier(&sizes)
        };
        match window {
            Some(w) => self.compact_range(w),
            None => Ok(None),
        }
    }

    /// Merge the adjacent tables `ssts[window]` into at most one table,
    /// spliced back at the window's position (age order is preserved).
    /// The inputs stream through the store's one newest-wins merge straight
    /// into the new table's blocks. Shadowed versions are always dropped;
    /// tombstones are dropped only when `window.start == 0` (nothing older
    /// remains that they could be shadowing). A single table has no shadowed
    /// versions, so a one-table window is a no-op unless it is the oldest
    /// table and holds tombstones.
    ///
    /// Durable stores commit the merge crash-safely:
    ///
    /// 1. The merged SST is written and read back until the bytes verify
    ///    (bounded attempts); it is marked *sealed* in the manifest so
    ///    recovery never tail-skips it.
    /// 2. The MANIFEST is rewritten naming the new table set plus the
    ///    retired inputs (a deletion redo log), and is itself read back and
    ///    verified — the manifest rename is the commit point.
    /// 3. Only after the verified commit are the input files deleted and the
    ///    redo log cleared.
    ///
    /// On any persistence error the merged file is removed, the previous
    /// manifest is restored best-effort, the in-memory store is left
    /// untouched, and the error is returned — reopening the directory yields
    /// exactly the pre-compaction state.
    pub fn compact_range(
        &self,
        window: std::ops::Range<usize>,
    ) -> Result<Option<CompactionStats>, PersistError> {
        let mut tables = self.tables.write();
        let start = window.start;
        let end = window.end.min(tables.ssts.len());
        if start >= end {
            return Ok(None);
        }

        let inputs = &tables.ssts[start..end];
        if inputs.len() == 1 && (start > 0 || inputs[0].num_tombstones() == 0) {
            return Ok(None);
        }
        let mut winners = 0;
        let merged = merge(inputs.iter().map(SsTable::records)).inspect(|_| winners += 1);
        // A tombstone expires only once nothing older is left to shadow.
        let output =
            self.build_table(merged.filter(|&(_, payload)| start > 0 || payload.is_some()));
        let input_entries: usize = inputs.iter().map(SsTable::num_entries).sum();
        let output_entries = output.as_ref().map_or(0, SsTable::num_entries);
        let table_bytes = |sst: &SsTable| sst.data_bytes() + sst.filter_bits().div_ceil(8);
        let compaction = CompactionStats {
            input_tables: inputs.len(),
            output_tables: output.is_some() as usize,
            input_entries,
            output_entries,
            shadowed_dropped: input_entries - winners,
            tombstones_dropped: winners - output_entries,
            input_bytes: inputs.iter().map(table_bytes).sum(),
            output_bytes: output.as_ref().map_or(0, table_bytes),
        };

        let mut merged_file = None;
        if let Some(p) = &self.persist {
            if let Some(sst) = &output {
                match p.write_sst_verified(sst, &self.stats) {
                    Ok(name) => merged_file = Some(ManifestEntry { name, sealed: true }),
                    Err(e) => {
                        self.stats.record_persist_failure();
                        return Err(e);
                    }
                }
            }
            let mut new_files = tables.files.clone();
            new_files.splice(start..end, output.is_some().then(|| merged_file.clone()));
            let retired: Vec<String> = tables.files[start..end]
                .iter()
                .flatten()
                .map(|s| s.name.clone())
                .collect();
            if let Err(e) =
                p.write_manifest_verified(&manifest_entries(&new_files), &retired, &self.stats)
            {
                // Abort: remove the merged file first (`remove` cannot be
                // torn), then restore the previous manifest best-effort.
                // Every recovery path now lands on the pre-compaction state.
                if let Some(file) = &merged_file {
                    let _ = p.io.remove(&p.dir.join(&file.name));
                }
                let _ = p.write_manifest_with(&manifest_entries(&tables.files), &[]);
                self.stats.record_persist_failure();
                return Err(e);
            }
            // Committed. Delete the retired inputs and clear the redo log;
            // both are best-effort — open replays the log if this is cut
            // short.
            for name in &retired {
                let _ = p.io.remove(&p.dir.join(name));
            }
            let _ = p.write_manifest_with(&manifest_entries(&new_files), &[]);
            self.stats.record_unpersisted_ssts(unpersisted(&new_files));
        }

        // Splice the in-memory table set the same way.
        tables.splice(start..end, output, merged_file, &self.stats);
        Ok(Some(compaction))
    }

    /// Point lookup: memtable first, then the candidate SSTs newest to
    /// oldest, so the freshest version wins. A tombstone answers the lookup
    /// with `None` — older tables are never consulted past it.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        if let Some(v) = self.memtable.get(key) {
            return v.into_put();
        }
        let tables = self.tables.read();
        with_lone_buffers(|buffers| {
            let candidates = tables.candidates_points(&[key], &self.stats, buffers);
            candidates.iter().rev().find_map(|&(i, _)| {
                tables.ssts[i].read_point(key, &self.options.io_model, &self.stats)
            })
        })
        .and_then(Value::into_put)
    }

    /// Range scan over `[lo, hi]`, returning up to `limit` entries in key
    /// order (newest version wins for duplicate keys; deleted keys are
    /// absent). The candidate SSTs — those whose filter passes `[lo, hi]` —
    /// and the memtable's rows are read in place through the store's one
    /// newest-wins merge, which stops after `limit` live rows: only those
    /// are copied, and of the memtable only the entries up to its
    /// `limit`-th put, past which the merge cannot read.
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        // Memtable before tables, like every read: a flush publishes the SST
        // before it forgets the memtable entries, never the other way round.
        let buffered = self.memtable.scan_through_puts(lo, hi, limit);
        let tables = self.tables.read();
        let blocks_read = Cell::new(0);
        let rows = with_lone_buffers(|buffers| {
            let candidates = tables.candidates_ranges(&[(lo, hi)], &self.stats, buffers);
            // Oldest first: the memtable is the newest source.
            let sources = candidates
                .iter()
                .filter_map(|&(i, _)| tables.ssts[i].first_rows(lo, hi, &blocks_read, &self.stats))
                .map(Source::Table)
                .chain([Source::Memtable(
                    buffered.iter().map(|(key, value)| (*key, value.as_put())),
                )]);
            let live = merge(sources).filter_map(|(key, payload)| Some((key, payload?.to_vec())));
            live.take(limit).collect()
        });
        self.stats
            .record_block_reads(blocks_read.get(), &self.options.io_model);
        rows
    }

    /// Batched, multi-threaded point lookup: element `i` equals
    /// `self.get(keys[i])`. The batch is split across `threads` worker
    /// threads (`0` = one per available core); each worker consults the
    /// memtable, routes its still-unresolved keys in one candidates step —
    /// which tests each table's filter once per routed key, batched — and
    /// reads every candidate SST's blocks for the keys routed to it.
    pub fn get_batch(&self, keys: &[u64], threads: usize) -> Vec<Option<Vec<u8>>> {
        fan_out(keys, threads, |part| self.get_chunk(part))
    }

    /// One worker's share of [`Db::get_batch`]. Tracks versioned values
    /// internally so a tombstone hit in a newer table blocks older tables,
    /// exactly like [`Db::get`].
    fn get_chunk(&self, keys: &[u64]) -> Vec<Option<Vec<u8>>> {
        let mut out: Vec<Option<Value>> = keys.iter().map(|&k| self.memtable.get(k)).collect();
        // Memtable hits are already answered and skip routing entirely.
        let open: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        let open_keys: Vec<u64> = open.iter().map(|&i| keys[i]).collect();
        let tables = self.tables.read();
        let mut buffers = Candidates::default();
        let candidates = tables.candidates_points(&open_keys, &self.stats, &mut buffers);
        // Newest table first; each reads only the keys routed to it that no
        // newer table has answered.
        for &(table, j) in candidates.iter().rev() {
            let slot = &mut out[open[j]];
            if slot.is_none() {
                *slot = tables.ssts[table].read_point(
                    open_keys[j],
                    &self.options.io_model,
                    &self.stats,
                );
            }
        }
        out.into_iter()
            .map(|v| v.and_then(Value::into_put))
            .collect()
    }

    /// Batched, multi-threaded range-emptiness check: element `i` equals
    /// `self.range_is_possibly_non_empty(ranges[i])` (reversed bounds are an
    /// empty interval). Same structure as [`Db::get_batch`]: the candidates
    /// step tests each table's filter once per routed range, batched.
    pub fn range_non_empty_batch(&self, ranges: &[(u64, u64)], threads: usize) -> Vec<bool> {
        fan_out(ranges, threads, |part| self.range_chunk(part))
    }

    /// One worker's share of [`Db::range_non_empty_batch`].
    fn range_chunk(&self, ranges: &[(u64, u64)]) -> Vec<bool> {
        let mut out: Vec<bool> = ranges
            .iter()
            .map(|&(lo, hi)| self.memtable.any_in_range(lo, hi))
            .collect();
        let open: Vec<usize> = (0..ranges.len()).filter(|&i| !out[i]).collect();
        let open_ranges: Vec<(u64, u64)> = open.iter().map(|&i| ranges[i]).collect();
        let tables = self.tables.read();
        let mut buffers = Candidates::default();
        let candidates = tables.candidates_ranges(&open_ranges, &self.stats, &mut buffers);
        let blocks_read = Cell::new(0);
        // Oldest table first, like `range_is_possibly_non_empty`; a range
        // one table has answered reads no further table.
        for &(table, j) in candidates {
            let (lo, hi) = open_ranges[j];
            let hit = &mut out[open[j]];
            *hit = *hit
                || tables.ssts[table]
                    .first_rows(lo, hi, &blocks_read, &self.stats)
                    .is_some();
        }
        self.stats
            .record_block_reads(blocks_read.get(), &self.options.io_model);
        out
    }

    /// Range emptiness check (the filter-driven fast path the paper measures):
    /// like [`Db::scan`] with `limit = 1` but without materializing values.
    ///
    /// This is a *possibly*-non-empty verdict with no false negatives: any
    /// entry in the range — a tombstone included — counts as a possible hit,
    /// so a range whose keys were all deleted may still report `true`. Use
    /// [`Db::scan`] for the exact answer.
    pub fn range_is_possibly_non_empty(&self, lo: u64, hi: u64) -> bool {
        if self.memtable.any_in_range(lo, hi) {
            return true;
        }
        let tables = self.tables.read();
        let blocks_read = Cell::new(0);
        let found = with_lone_buffers(|buffers| {
            let candidates = tables.candidates_ranges(&[(lo, hi)], &self.stats, buffers);
            candidates.iter().any(|&(i, _)| {
                tables.ssts[i]
                    .first_rows(lo, hi, &blocks_read, &self.stats)
                    .is_some()
            })
        });
        self.stats
            .record_block_reads(blocks_read.get(), &self.options.io_model);
        found
    }

    /// Number of level-0 SST files.
    pub fn num_ssts(&self) -> usize {
        self.tables.read().ssts.len()
    }

    /// Total number of entries across memtable and SSTs (tombstones
    /// included — they are entries until compaction drops them).
    pub fn num_entries(&self) -> usize {
        let in_tables: usize = self
            .tables
            .read()
            .ssts
            .iter()
            .map(|s| s.num_entries())
            .sum();
        self.memtable.len() + in_tables
    }

    /// Total size of all filter blocks in bits.
    pub fn total_filter_bits(&self) -> usize {
        self.tables
            .read()
            .ssts
            .iter()
            .map(|s| s.filter_bits())
            .sum()
    }

    /// Sum of per-SST filter construction times (Fig. 12.C).
    pub fn total_filter_build_time(&self) -> std::time::Duration {
        let tables = self.tables.read();
        tables.ssts.iter().map(|s| s.filter_build_time()).sum()
    }

    /// Shape of the filter tree — `(levels, nodes, memory_bits)` — when tree
    /// routing is active.
    pub fn tree_shape(&self) -> Option<(usize, usize, usize)> {
        match &self.tables.read().router {
            Router::All => None,
            Router::Tree(tree) => Some((tree.depth(), tree.num_nodes(), tree.memory_bits())),
        }
    }

    /// Read-path statistics accumulated since the last reset.
    pub fn stats(&self) -> ReadStatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the read-path statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// The configured options.
    pub fn options(&self) -> &DbOptions {
        &self.options
    }
}

/// Find the first run of ≥ 2 adjacent tables whose sizes are within 4× of
/// each other (sizes clamped to ≥ 1 so empty tables group with anything).
fn pick_tier(sizes: &[usize]) -> Option<std::ops::Range<usize>> {
    let mut start = 0;
    while start < sizes.len() {
        let mut min = sizes[start].max(1);
        let mut max = sizes[start].max(1);
        let mut end = start + 1;
        while end < sizes.len() {
            let s = sizes[end].max(1);
            let (new_min, new_max) = (min.min(s), max.max(s));
            if new_max > 4 * new_min {
                break;
            }
            min = new_min;
            max = new_max;
            end += 1;
        }
        if end - start >= 2 {
            return Some(start..end);
        }
        start += 1;
    }
    None
}

impl Persistence {
    /// Write `data` to `<dir>/<name>` atomically: the bytes go to a `.tmp`
    /// sibling first and are renamed into place, so a crash leaves either the
    /// old file or the new one, never a torn live file.
    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), PersistError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let path = self.dir.join(name);
        self.io.write(&tmp, data).map_err(|e| PersistError::Io {
            path: tmp.clone(),
            source: e,
        })?;
        self.io
            .rename(&tmp, &path)
            .map_err(|e| PersistError::Io { path, source: e })
    }

    /// Commit a manifest naming `entries` live and `retired` pending
    /// deletion (no read-back verification — flush-path commits accept the
    /// tail-skip recovery story instead).
    fn write_manifest_with(
        &self,
        entries: &[ManifestEntry],
        retired: &[String],
    ) -> Result<(), PersistError> {
        // ordering: counter only grows; persisting a slightly stale value is
        // benign — recovery re-derives the floor from on-disk file names.
        let manifest =
            persist::encode_manifest(entries, retired, self.next_file_no.load(Ordering::Relaxed));
        self.write_atomic(MANIFEST_NAME, &manifest)
    }

    /// Commit a manifest and read it back until the bytes verify — the
    /// compaction commit point must not be a torn write that decodes as
    /// garbage *or* silently reverts to the dir-scan fallback.
    fn write_manifest_verified(
        &self,
        entries: &[ManifestEntry],
        retired: &[String],
        stats: &ReadStats,
    ) -> Result<(), PersistError> {
        // ordering: same stale-counter tolerance as `write_manifest_with`.
        let manifest =
            persist::encode_manifest(entries, retired, self.next_file_no.load(Ordering::Relaxed));
        self.write_verified(MANIFEST_NAME, &manifest, stats)
    }

    /// Persist a freshly flushed SST under the next file number. The caller
    /// commits the manifest separately.
    fn persist_sst(&self, sst: &SsTable) -> Result<String, PersistError> {
        // ordering: fetch_add's atomicity alone guarantees unique file
        // numbers; no other state is published through the counter.
        let n = self.next_file_no.fetch_add(1, Ordering::Relaxed);
        let name = persist::sst_file_name(n);
        self.write_atomic(&name, &sst.to_bytes())?;
        Ok(name)
    }

    /// Persist a merged SST and read it back until the bytes verify. The
    /// merged table will be sealed (recovery cannot tail-skip it), so a torn
    /// write that survives to the manifest commit would poison the store —
    /// verify before committing. On exhaustion the file is removed.
    fn write_sst_verified(&self, sst: &SsTable, stats: &ReadStats) -> Result<String, PersistError> {
        // ordering: unique-ticket fetch_add, as in `persist_sst`.
        let name = persist::sst_file_name(self.next_file_no.fetch_add(1, Ordering::Relaxed));
        let written = self.write_verified(&name, &sst.to_bytes(), stats);
        if written.is_err() {
            let _ = self.io.remove(&self.dir.join(&name));
        }
        written.map(|()| name)
    }

    /// Write `data` to `name` atomically and read it back until the bytes
    /// verify, at most [`COMMIT_VERIFY_ATTEMPTS`] times.
    fn write_verified(
        &self,
        name: &str,
        data: &[u8],
        stats: &ReadStats,
    ) -> Result<(), PersistError> {
        let path = self.dir.join(name);
        let mut last_err = None;
        for _ in 0..COMMIT_VERIFY_ATTEMPTS {
            if let Err(e) = self.write_atomic(name, data) {
                last_err = Some(e);
                continue;
            }
            match read_with_retry(&*self.io, &path, READ_RETRY_ATTEMPTS, READ_RETRY_BACKOFF) {
                Ok((got, retries)) => {
                    stats.record_read_retries(retries);
                    if got == data {
                        return Ok(());
                    }
                    last_err = Some(verify_failed(&path));
                }
                Err(e) => {
                    last_err = Some(PersistError::Io {
                        path: path.clone(),
                        source: e,
                    })
                }
            }
        }
        Err(last_err.unwrap_or_else(|| verify_failed(&path)))
    }
}

/// Typed error for a write whose read-back never matched.
fn verify_failed(path: &Path) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        source: std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "written bytes failed read-back verification",
        ),
    }
}

/// Split `items` across `threads` scoped workers (`0` = one per available
/// core, never more workers than items) and concatenate their answers in
/// order.
fn fan_out<Q: Sync, R: Send>(
    items: &[Q],
    threads: usize,
    work: impl Fn(&[Q]) -> Vec<R> + Sync,
) -> Vec<R> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .clamp(1, items.len().max(1));
    if threads == 1 {
        return work(items);
    }
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|part| scope.spawn(move || work(part)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reader thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db(filter_kind: FilterKind) -> Db {
        small_db_routed(filter_kind, ReadRouting::default())
    }

    fn small_db_routed(filter_kind: FilterKind, routing: ReadRouting) -> Db {
        Db::new(DbOptions {
            memtable_flush_entries: 1000,
            entries_per_block: 8,
            filter_kind,
            bits_per_key: 18.0,
            io_model: IoModel::default(),
            routing,
        })
    }

    #[test]
    fn put_get_roundtrip_across_flushes() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        for i in 0..5000u64 {
            db.put(i * 100, vec![i as u8; 16]);
        }
        assert!(db.num_ssts() >= 4, "flushes should have produced SSTs");
        for i in (0..5000u64).step_by(97) {
            assert_eq!(db.get(i * 100), Some(vec![i as u8; 16]));
        }
        assert_eq!(db.get(50), None);
        assert_eq!(db.num_entries(), 5000);
    }

    #[test]
    fn scans_merge_memtable_and_ssts() {
        let db = small_db(FilterKind::Rosetta { max_range: 1 << 16 });
        for i in 0..2500u64 {
            db.put(i * 4, vec![1]);
        }
        // 2 flushes (2000 entries) + 500 still in the memtable.
        assert!(db.num_ssts() >= 2);
        assert!(db.memtable_len() > 0);
        let result = db.scan(100, 140, 100);
        assert_eq!(
            result.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140]
        );
        let newest = db.scan(9900, 10_000, 100);
        assert!(
            !newest.is_empty(),
            "entries still in the memtable must be visible"
        );
    }

    #[test]
    fn overwrites_prefer_newest_value() {
        let db = small_db(FilterKind::Bloom);
        db.put(42, vec![1]);
        db.flush();
        db.put(42, vec![2]);
        db.flush();
        db.put(42, vec![3]);
        assert_eq!(db.get(42), Some(vec![3]));
        let scanned = db.scan(0, 100, 10);
        assert_eq!(scanned, vec![(42, vec![3])]);
    }

    #[test]
    fn deletes_shadow_older_versions_without_compaction() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        db.put(5, vec![1]);
        db.put(6, vec![2]);
        db.flush();
        db.delete(5);
        // Tombstone still in the memtable shadows the flushed value.
        assert_eq!(db.get(5), None);
        db.flush();
        // ... and keeps shadowing once flushed into its own SST.
        assert_eq!(db.get(5), None);
        assert_eq!(db.get(6), Some(vec![2]));
        assert_eq!(db.scan(0, 10, 10), vec![(6, vec![2])]);
        assert_eq!(db.get_batch(&[5, 6], 1), vec![None, Some(vec![2])]);
        // The emptiness check is a *possibly* verdict: the tombstone entry
        // counts as a hit even though the live range is empty.
        assert!(db.range_is_possibly_non_empty(5, 5));
    }

    #[test]
    fn compact_merges_shadowed_versions_and_drops_tombstones() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        for i in 0..1000u64 {
            db.put(i, vec![1]); // auto-flushes at 1000 entries
        }
        for i in 0..1000u64 {
            db.put(i, vec![2]);
        }
        for i in 0..500u64 {
            db.delete(i * 2);
        }
        db.flush();
        assert_eq!(db.num_ssts(), 3);
        assert_eq!(db.num_entries(), 2500);

        let stats = db.compact().unwrap().expect("compaction had work to do");
        assert_eq!(stats.input_tables, 3);
        assert_eq!(stats.output_tables, 1);
        assert_eq!(stats.input_entries, 2500);
        assert_eq!(stats.shadowed_dropped, 1500);
        assert_eq!(stats.tombstones_dropped, 500);
        assert_eq!(stats.output_entries, 500);
        assert!(stats.output_bytes < stats.input_bytes);
        assert_eq!(db.num_ssts(), 1);
        assert_eq!(db.num_entries(), 500);

        for i in 0..500u64 {
            assert_eq!(db.get(i * 2), None, "deleted key {} resurrected", i * 2);
            assert_eq!(db.get(i * 2 + 1), Some(vec![2]));
        }
        assert_eq!(db.scan(0, 2000, 10_000).len(), 500);
        // Compacting again is a no-op: one table, nothing shadowed.
        assert_eq!(db.compact().unwrap(), None);
    }

    #[test]
    fn compact_window_keeps_tombstones_when_older_tables_remain() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        db.put(1, vec![9]);
        db.flush();
        db.put(2, vec![1]);
        db.flush();
        db.delete(1);
        db.flush();
        assert_eq!(db.num_ssts(), 3);

        // Merging the two newest tables must keep the tombstone: table 0
        // still holds an older version of key 1 it has to shadow.
        let stats = db.compact_range(1..3).unwrap().unwrap();
        assert_eq!(stats.input_tables, 2);
        assert_eq!(stats.tombstones_dropped, 0);
        assert_eq!(stats.output_entries, 2);
        assert_eq!(db.num_ssts(), 2);
        assert_eq!(db.get(1), None, "tombstone must survive a partial window");
        assert_eq!(db.get(2), Some(vec![1]));

        // A full-window compaction finally expires it.
        let stats = db.compact().unwrap().unwrap();
        assert_eq!(stats.tombstones_dropped, 1);
        assert_eq!(db.num_ssts(), 1);
        assert_eq!(db.get(1), None);
        assert_eq!(db.get(2), Some(vec![1]));
        assert_eq!(db.scan(0, 10, 10), vec![(2, vec![1])]);
    }

    #[test]
    fn compacting_only_tombstones_can_empty_the_store() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        db.put(7, vec![1]);
        db.flush();
        db.delete(7);
        db.flush();
        let stats = db.compact().unwrap().unwrap();
        assert_eq!(stats.output_tables, 0);
        assert_eq!(stats.output_entries, 0);
        assert_eq!(db.num_ssts(), 0);
        assert_eq!(db.get(7), None);
        assert!(db.scan(0, 100, 10).is_empty());
        // The store keeps working after shrinking to empty.
        db.put(8, vec![2]);
        db.flush();
        assert_eq!(db.get(8), Some(vec![2]));
    }

    #[test]
    fn maybe_compact_picks_a_similar_sized_run() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        for i in 0..1000u64 {
            db.put(i, vec![0u8; 64]); // one big table
        }
        for t in 0..4u64 {
            for i in 0..20u64 {
                db.put(10_000 + t * 100 + i, vec![0u8; 8]);
            }
            db.flush(); // four small tables
        }
        assert_eq!(db.num_ssts(), 5);
        let stats = db.maybe_compact().unwrap().expect("run of small tables");
        assert_eq!(stats.input_tables, 4, "the big table must stay out");
        assert_eq!(db.num_ssts(), 2);
        // No similar-sized run remains: [1000, 80] is beyond the 4× band.
        assert_eq!(db.maybe_compact().unwrap(), None);
        for t in 0..4u64 {
            assert_eq!(db.get(10_000 + t * 100), Some(vec![0u8; 8]));
        }
        assert_eq!(db.get(500), Some(vec![0u8; 64]));
    }

    #[test]
    fn pick_tier_finds_first_similar_run() {
        assert_eq!(pick_tier(&[]), None);
        assert_eq!(pick_tier(&[100]), None);
        assert_eq!(pick_tier(&[100, 90]), Some(0..2));
        assert_eq!(pick_tier(&[1000, 20, 20, 20, 20]), Some(1..5));
        assert_eq!(pick_tier(&[1000, 80]), None);
        // Empty tables clamp to size 1 and group with small neighbours.
        assert_eq!(pick_tier(&[0, 3]), Some(0..2));
        // The run stops where the size band would break.
        assert_eq!(pick_tier(&[10, 12, 100, 110]), Some(0..2));
    }

    #[test]
    fn empty_range_scans_are_pruned_by_range_filters() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e4 });
        for i in 0..4000u64 {
            db.put(i << 32, vec![0u8; 8]);
        }
        db.flush();
        db.reset_stats();
        // Empty ranges placed uniformly: the filter should prune most block reads.
        let mut pruned = 0;
        for i in 0..200u64 {
            let lo = bloomrf::hashing::mix64(i) | 1;
            let hi = lo + 1000;
            if !db.range_is_possibly_non_empty(lo, hi) {
                pruned += 1;
            }
        }
        let stats = db.stats();
        assert!(stats.filter_probes > 0);
        assert!(pruned > 150, "only {pruned}/200 empty scans pruned");
        assert!(
            stats.blocks_read < 200,
            "pruning should avoid most block reads, read {}",
            stats.blocks_read
        );
    }

    #[test]
    fn stats_and_filter_metadata_exposed() {
        let db = small_db(FilterKind::Surf);
        for i in 0..1500u64 {
            db.put(i * 7, vec![0u8; 4]);
        }
        db.flush();
        assert!(db.total_filter_bits() > 0);
        let _ = db.total_filter_build_time();
        db.reset_stats();
        let _ = db.get(3);
        assert!(db.stats().filter_probes <= db.num_ssts() as u64);
        assert_eq!(db.options().entries_per_block, 8);
    }

    impl Db {
        fn memtable_len(&self) -> usize {
            self.memtable.len()
        }
    }

    #[test]
    fn get_batch_matches_sequential_gets_across_thread_counts() {
        let db = small_db(FilterKind::BloomRf { max_range: 1e6 });
        for i in 0..3500u64 {
            db.put(i * 50, vec![(i % 200) as u8; 12]);
        }
        // Sprinkle deletes across flushed tables and the memtable so the
        // batch path has tombstones to honour.
        for i in (0..3500u64).step_by(31) {
            db.delete(i * 50);
        }
        // Leave some entries in the memtable so the batch path covers it too.
        assert!(db.memtable_len() > 0);
        let probes: Vec<u64> = (0..1200u64)
            .map(|i| if i % 2 == 0 { i * 50 } else { i * 50 + 13 })
            .collect();
        let expected: Vec<Option<Vec<u8>>> = probes.iter().map(|&k| db.get(k)).collect();
        assert!(expected.iter().any(|v| v.is_none()));
        for threads in [1usize, 2, 4, 0] {
            assert_eq!(
                db.get_batch(&probes, threads),
                expected,
                "threads={threads}"
            );
        }
        assert!(db.get_batch(&[], 4).is_empty());
    }

    /// Under both routings — scan-all is where each table's fences and
    /// filter admit the batch's ranges itself — a range batch answers what
    /// one check per range does, and, with every key flushed and no
    /// tombstone, what a one-row scan finds.
    #[test]
    fn range_batch_matches_sequential_checks_across_thread_counts() {
        for routing in [ReadRouting::default(), ReadRouting::ScanAll] {
            let db = small_db_routed(FilterKind::BloomRf { max_range: 1e6 }, routing);
            for i in 0..3000u64 {
                db.put(i * 100, vec![1]);
            }
            assert_eq!(db.num_ssts(), 3);
            let ranges: Vec<(u64, u64)> = (0..1200u64)
                .map(|i| match i % 6 {
                    0 => (i * 100, i * 100 + 150),         // hits keys
                    1 => (i * 100 + 1, i * 100 + 50),      // gap
                    2 => (i * 100 + 50, i * 100 + 10),     // reversed → empty
                    3 => (i * 100, i * 100),               // one stored key
                    4 => (i * 250 + 5, i * 250 + 60),      // gap or straddling
                    _ => (300_000 + i, 400_000 + i * 100), // beyond every table
                })
                .collect();
            let expected: Vec<bool> = ranges
                .iter()
                .map(|&(lo, hi)| lo <= hi && db.range_is_possibly_non_empty(lo, hi))
                .collect();
            let scanned: Vec<bool> = ranges
                .iter()
                .map(|&(lo, hi)| !db.scan(lo, hi, 1).is_empty())
                .collect();
            assert_eq!(expected, scanned, "{routing:?}");
            for threads in [1usize, 3, 8, 0] {
                assert_eq!(
                    db.range_non_empty_batch(&ranges, threads),
                    expected,
                    "{routing:?}: threads={threads}"
                );
            }
        }
    }

    #[test]
    fn concurrent_batch_readers_share_one_db() {
        use std::sync::Arc;
        let db = Arc::new(small_db(FilterKind::BloomRf { max_range: 1e6 }));
        for i in 0..2000u64 {
            db.put(i * 10, vec![i as u8]);
        }
        db.flush();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let probes: Vec<u64> = (0..500u64).map(|i| (i + t * 13) * 10).collect();
                let got = db.get_batch(&probes, 2);
                for (i, &p) in probes.iter().enumerate() {
                    let want = if p < 20_000 {
                        Some(vec![(p / 10) as u8])
                    } else {
                        None
                    };
                    assert_eq!(got[i], want, "key {p}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
