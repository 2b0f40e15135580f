//! The SST read path copies only what it returns, compaction allocates in
//! proportion to its output, and a table is one data buffer. A thread-local
//! counting global allocator pins all three: a point hit allocates exactly
//! its value, a miss allocates nothing, a range check allocates only its
//! verdict vector, a scan only its output vector and the rows in it, a
//! compaction at most a small multiple of the table it writes, and
//! building, encoding or decoding a table as many buffers whatever its
//! block count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bloomrf_filters::FilterKind;
use bloomrf_lsm::{
    Db, DbOptions, IoModel, ReadRouting, ReadStats, SsTable, SstProbeScratch, Value,
};

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
fn a_range_check_allocates_only_its_verdicts() {
    let (sst, io, stats) = (table(), IoModel::default(), ReadStats::new());
    let ranges = [(15, 45), (21, 29), (0, 5_110), (40, 40), (9, 1)];
    let mut scratch = SstProbeScratch::default();
    let warm = sst.range_non_empty_many_with(&ranges, &io, &stats, &mut scratch);
    let (verdicts, n) =
        allocations(|| sst.range_non_empty_many_with(&ranges, &io, &stats, &mut scratch));
    assert_eq!(verdicts, warm);
    assert_eq!(verdicts, [true, false, true, true, false]);
    assert_eq!(n, 1, "only the verdict vector may be allocated");
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
