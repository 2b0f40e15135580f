//! The SST and `Db` read paths copy only what they return, compaction
//! allocates in proportion to its output, and a table is one data buffer.
//! A thread-local counting global allocator pins all three: a point hit
//! allocates exactly its value, a miss allocates nothing, a `Db` range check
//! nothing, a scan only its output vector, the rows in it and — for a `Db`
//! — its merge's fixed buffers, a batch its output, its values and a fixed
//! count whatever its size, a compaction at most a small multiple of the
//! table it writes, and building, encoding or decoding a table as many
//! buffers whatever its block count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, ReadStats, SsTable, TreeOptions, Value};

/// Counts, per thread, the allocations (not reallocations) and the bytes
/// requested: the size of every allocation and the new size of every
/// growing reallocation, which may move the block.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(allocations: usize, bytes: usize) {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down; those allocations are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(0, new_size);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Run `f` and return its result with the bytes it requested.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// 512 keys spaced 10 apart, 8 entries (128-byte values) per block — the
/// block shape of the benchmark's `store_read` tables.
fn table() -> SsTable {
    let entries: Vec<(u64, Value)> = (0..512u64)
        .map(|i| (i * 10, Value::Put(vec![i as u8; 128])))
        .collect();
    SsTable::build(&entries, 8, FilterKind::BloomRf { max_range: 1e6 }, 6.0)
}

/// An absent key strictly inside a block (not next to a fence) for which
/// the filter answers `positive`.
fn absent_key(sst: &SsTable, positive: bool) -> u64 {
    (0..512u64)
        .filter(|i| i % 8 != 7)
        .flat_map(|i| (1..10).map(move |d| i * 10 + d))
        .find(|&key| sst.filter().may_contain(key) == positive)
        .expect("a 6 bits/key filter has both verdicts among 4 000 absent keys")
}

#[test]
fn a_point_hit_allocates_only_its_value() {
    let (sst, io, stats) = (table(), IoModel::default(), ReadStats::new());
    for key in [0, 10, 70, 2_550, 5_110] {
        let (value, n) = allocations(|| sst.get(key, &io, &stats));
        assert_eq!(value, Some(Value::Put(vec![(key / 10) as u8; 128])));
        assert_eq!(n, 1, "get({key}) must allocate exactly the returned value");
    }
    assert_eq!(stats.snapshot().blocks_read, 5);
}

#[test]
fn a_point_miss_allocates_nothing() {
    let (sst, io, stats) = (table(), IoModel::default(), ReadStats::new());
    let filtered = absent_key(&sst, false);
    let in_block = absent_key(&sst, true);
    for key in [filtered, in_block, 6_000] {
        let (value, n) = allocations(|| sst.get(key, &io, &stats));
        assert_eq!(value, None);
        assert_eq!(n, 0, "get({key}) must not allocate");
    }
    let snap = stats.snapshot();
    assert_eq!(
        snap.filter_probes, 2,
        "the out-of-range key skips the filter"
    );
    assert_eq!(
        snap.blocks_read, 1,
        "only the in-block miss reads its block"
    );
    assert_eq!(snap.false_positives, 1);
}

#[test]
fn a_scan_allocates_only_its_output_and_rows() {
    let (sst, io, stats) = (table(), IoModel::default(), ReadStats::new());
    // (lo, hi, limit, rows returned): inside one block, across blocks,
    // stopped by the limit mid-block, and a gap between two keys.
    for (lo, hi, limit, rows) in [
        (100, 140, 100, 5),
        (35, 205, usize::MAX, 17),
        (0, 5_110, 3, 3),
        (41, 49, 10, 0),
    ] {
        let (out, n) = allocations(|| sst.scan(lo, hi, limit, &io, &stats));
        assert_eq!(out.len(), rows, "scan({lo}, {hi}, {limit})");
        let output_vec = usize::from(rows > 0);
        assert_eq!(
            n,
            output_vec + rows,
            "scan({lo}, {hi}, {limit}) may allocate only its output and {rows} rows"
        );
    }
}

/// The 512 entries of [`table`] in 8, 64 and 512 blocks: building each
/// table, encoding it and decoding it back make the same number of
/// allocations whatever the block count, because the blocks share one data
/// buffer instead of taking one each.
#[test]
fn a_table_allocates_no_buffer_per_block() {
    let entries: Vec<(u64, Value)> = (0..512u64)
        .map(|i| (i * 10, Value::Put(vec![i as u8; 128])))
        .collect();
    let kind = FilterKind::BloomRf { max_range: 1e6 };
    // The advisor remembers its tunings: only the first build pays for them.
    SsTable::build(&entries, 8, kind, 6.0);
    let mut blocks = Vec::new();
    let mut counts = Vec::new();
    for entries_per_block in [64, 8, 1] {
        let (sst, built) = allocations(|| SsTable::build(&entries, entries_per_block, kind, 6.0));
        let (bytes, encoded) = allocations(|| sst.to_bytes());
        let (decoded, decoded_n) =
            allocations(|| SsTable::from_bytes(&bytes, &ReadStats::new()).unwrap());
        assert_eq!(decoded.num_blocks(), sst.num_blocks());
        assert_eq!(decoded.data_bytes(), sst.data_bytes());
        blocks.push(sst.num_blocks());
        counts.push((built, encoded, decoded_n));
    }
    assert_eq!(blocks, [8, 64, 512]);
    assert!(
        counts.windows(2).all(|pair| pair[0] == pair[1]),
        "(build, encode, decode) allocations at 8, 64 and 512 blocks: {counts:?}"
    );
}

/// Eight flushed tables that each overwrite the same 512 keys with 256-byte
/// values merge into one table of 512 entries. The merge streams the inputs'
/// records straight into the output's blocks, so the bytes it requests stay
/// within 3x the output's data and filter blocks, instead of growing with
/// the eight tables it reads.
#[test]
fn a_compaction_allocates_in_proportion_to_its_output() {
    let options = DbOptions {
        memtable_flush_entries: 512,
        routing: ReadRouting::ScanAll,
        ..DbOptions::default()
    };
    let db = Db::new(options.clone());
    for round in 0..8u8 {
        for key in 0..512u64 {
            db.put(key * 7, vec![round; 256]);
        }
    }
    assert_eq!(db.num_ssts(), 8, "every 512 puts flush one table");

    let (stats, bytes) = allocated_bytes(|| db.compact().unwrap().unwrap());
    let output: Vec<(u64, Value)> = (0..512u64)
        .map(|key| (key * 7, Value::Put(vec![7; 256])))
        .collect();
    let output = SsTable::build(
        &output,
        options.entries_per_block,
        options.filter_kind,
        options.bits_per_key,
    );
    let output_bytes = output.data_bytes() + output.filter_bits().div_ceil(8);
    assert!(
        bytes <= 3 * output_bytes,
        "compact() requested {bytes} bytes for an output of {output_bytes} bytes"
    );
    assert_eq!(stats.output_entries, 512);
    assert_eq!(stats.shadowed_dropped, 7 * 512);
    assert_eq!(stats.output_bytes, output_bytes);
    assert_eq!(db.get(7 * 511), Some(vec![7; 256]));
}

/// Both ways a `Db` selects the tables a read consults.
const ROUTINGS: [ReadRouting; 2] = [
    ReadRouting::FilterTree(TreeOptions {
        fanout: 16,
        leaf_keys: None,
        bits_per_key: None,
    }),
    ReadRouting::ScanAll,
];

/// 32 flushed tables of 512 keys each — keys `i * 10`, value `i as u8`
/// repeated 128 times — read through `routing`, with an empty memtable.
fn store(routing: ReadRouting) -> Db {
    let db = Db::new(DbOptions {
        memtable_flush_entries: 512,
        routing,
        ..DbOptions::default()
    });
    for i in 0..32 * 512u64 {
        db.put(i * 10, vec![i as u8; 128]);
    }
    assert_eq!(db.num_ssts(), 32);
    db
}

/// The one-query reads run one warm-up call first: it sizes this thread's
/// read buffers and, in debug builds, the lock-rank bookkeeping.
#[test]
fn db_point_and_range_reads_allocate_only_their_values() {
    for routing in ROUTINGS {
        let db = store(routing);
        assert!(db.range_is_possibly_non_empty(0, u64::MAX));
        assert!(db.get(0).is_some());
        for key in [0, 10, 35_910, 163_830] {
            let (value, n) = allocations(|| db.get(key));
            assert_eq!(value, Some(vec![(key / 10) as u8; 128]));
            assert_eq!(
                n, 1,
                "{routing:?}: get({key}) must allocate exactly its value"
            );
        }
        for key in [5, 35_915, 163_835, u64::MAX] {
            let (value, n) = allocations(|| db.get(key));
            assert_eq!(value, None);
            assert_eq!(n, 0, "{routing:?}: get({key}) must not allocate");
        }
        for (lo, hi, found) in [
            (15, 45, true),
            (21, 29, false),
            (0, u64::MAX, true),
            (9, 1, false),
            (1 << 40, 1 << 41, false),
        ] {
            let (verdict, n) = allocations(|| db.range_is_possibly_non_empty(lo, hi));
            assert_eq!(verdict, found, "{routing:?}: [{lo}, {hi}]");
            assert_eq!(n, 0, "{routing:?}: range [{lo}, {hi}] must not allocate");
        }
    }
}

/// A batch allocates its output, one buffer per value it returns and a
/// fixed number of buffers whatever its size: the indices and keys the
/// memtable left open and the candidate pairs, plus scan-all's three fence
/// and filter buffers. The tree's descent walks one query at a time on
/// per-thread buffers and allocates nothing.
#[test]
fn a_db_batch_allocates_its_output_values_and_a_constant() {
    for routing in ROUTINGS {
        let db = store(routing);
        let want = match routing {
            ReadRouting::ScanAll => 6,
            ReadRouting::FilterTree(_) => 3,
        };
        let mut fixed = Vec::new();
        for n in [8u64, 64] {
            // Every other key is absent.
            let keys: Vec<u64> = (0..n).map(|i| i * 2_555).collect();
            db.get_batch(&keys, 1);
            let (values, count) = allocations(|| db.get_batch(&keys, 1));
            let found = values.iter().flatten().count();
            assert_eq!(found as u64, n / 2);
            fixed.push(count - 1 - found);
        }
        assert_eq!(
            fixed, [want; 2],
            "{routing:?}: buffers beyond output and values"
        );
    }
}

/// A range batch allocates its verdicts and a fixed number of buffers
/// whatever its size: the indices and ranges the memtable left open and the
/// candidate pairs, plus scan-all's fence buffer. A table's filter tests the
/// ranges one by one and needs no buffer.
#[test]
fn a_db_range_batch_allocates_its_verdicts_and_a_constant() {
    // A key's range, a gap, a range over 512 keys, one stored key and
    // reversed bounds, shifted by whole tables.
    let cases = [(15, 45), (21, 29), (0, 5_110), (40, 40), (9, 1)];
    for routing in ROUTINGS {
        let db = store(routing);
        let want = match routing {
            ReadRouting::ScanAll => 4,
            ReadRouting::FilterTree(_) => 3,
        };
        let mut fixed = Vec::new();
        for n in [1u64, 8] {
            let ranges: Vec<(u64, u64)> = (0..n)
                .flat_map(|j| cases.map(|(lo, hi)| (lo + j * 5_120, hi + j * 5_120)))
                .collect();
            db.range_non_empty_batch(&ranges, 1);
            let (verdicts, count) = allocations(|| db.range_non_empty_batch(&ranges, 1));
            assert_eq!(
                verdicts,
                [true, false, true, true, false].repeat(n as usize)
            );
            fixed.push(count - 1);
        }
        assert_eq!(fixed, [want; 2], "{routing:?}: buffers beyond the verdicts");
    }
}

/// A scan allocates its output, its rows and its merge's buffers: the list
/// of sources, and the heap of their heads when any source has a row.
#[test]
fn a_db_scan_allocates_its_output_rows_and_a_constant() {
    for routing in ROUTINGS {
        let db = store(routing);
        db.scan(0, u64::MAX, 1);
        // (lo, hi, limit, rows returned): inside one table, across two,
        // stopped by the limit with every table a candidate, and a gap.
        for (lo, hi, limit, rows) in [
            (100, 140, 100, 5),
            (5_000, 5_300, 100, 31),
            (0, u64::MAX, 3, 3),
            (41, 49, 10, 0),
        ] {
            let (out, n) = allocations(|| db.scan(lo, hi, limit));
            assert_eq!(out.len(), rows, "{routing:?}: scan({lo}, {hi}, {limit})");
            let fixed = if rows > 0 { 3 } else { 1 };
            assert_eq!(
                n,
                rows + fixed,
                "{routing:?}: scan({lo}, {hi}, {limit}) may allocate only its output, \
                 {rows} rows and the merge's buffers"
            );
        }
    }
}

/// A scan copies of the memtable only what its merge can consume: the
/// entries up to its `limit`-th buffered put. Buffered tombstones shadow
/// the first table rows and thousands of buffered puts lie in range;
/// `scan(.., 1)` and `scan(.., 5)` answer like a model map and allocate as
/// much at 1 000 buffered puts as at 10 000.
#[test]
fn a_db_scan_copies_only_the_memtable_prefix_it_merges() {
    for routing in ROUTINGS {
        let mut counts = Vec::new();
        for buffered in [1_000u64, 10_000] {
            let db = Db::new(DbOptions {
                memtable_flush_entries: 1 << 20,
                routing,
                ..DbOptions::default()
            });
            let mut model = BTreeMap::new();
            // Two tables of the even keys below 400.
            for table in 0..2u64 {
                for i in 0..100 {
                    let key = (table * 100 + i) * 2;
                    db.put(key, vec![1; 16]);
                    model.insert(key, vec![1; 16]);
                }
                db.flush();
            }
            // Buffered: tombstones over the first 50 table rows, then puts
            // at odd keys from 101 on.
            for key in (0..100).step_by(2) {
                db.delete(key);
                model.remove(&key);
            }
            for i in 0..buffered {
                db.put(101 + 2 * i, vec![2; 16]);
                model.insert(101 + 2 * i, vec![2; 16]);
            }
            db.scan(0, u64::MAX, 5);
            let mut n = Vec::new();
            for limit in [1, 5] {
                let (rows, allocated) = allocations(|| db.scan(0, u64::MAX, limit));
                let want: Vec<(u64, Vec<u8>)> = model
                    .iter()
                    .take(limit)
                    .map(|(&k, v)| (k, v.clone()))
                    .collect();
                assert_eq!(rows, want, "{routing:?}: scan(.., {limit})");
                n.push(allocated);
            }
            counts.push(n);
        }
        assert_eq!(
            counts[0], counts[1],
            "{routing:?}: scan allocations grew with the memtable"
        );
    }
}
