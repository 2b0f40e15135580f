//! Sorted string tables (SST files) of the LSM substrate.
//!
//! Each SST holds a sorted run of `(u64 key, value)` entries split into fixed
//! size data blocks, a block index (the per-block fence pointers RocksDB keeps
//! in the index block), and one *full filter block* built by a configurable
//! [`FilterKind`] — exactly how the paper integrates bloomRF into RocksDB
//! ("placing it as regular full filter block in each compaction-disabled SST
//! file of a block-based table format"). Blocks live in memory; reads charge
//! the simulated I/O model.
//!
//! Entries are typed [`Value`]s: a block record is `key (u64) | meta (u32) |
//! payload`, where bit 31 of `meta` marks a tombstone (no payload follows)
//! and the low 31 bits are the payload length. Tombstone keys are inserted
//! into the filter block like any other key, so a lookup for a deleted key
//! routes to the table holding the tombstone instead of falling through to an
//! older version.

use bloomrf::traits::{FilterBuilder, PointRangeFilter};
use bloomrf::BloomRf;
use bloomrf_filters::FilterKind;
use bytes::BufMut;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::iter::Peekable;
use std::sync::Arc;
use std::time::Instant;

use crate::persist::{self, Corruption, TOMBSTONE_FLAG};
use crate::stats::{Clock, IoModel, ReadStats, SampledClock};
use crate::value::Value;

/// One version of a key, borrowed: `(key, Some(payload))` for a put and
/// `(key, None)` for a tombstone.
pub(crate) type Record<'a> = (u64, Option<&'a [u8]>);

/// The one parser of the block layout: a borrowing cursor over `count (u32)
/// | (key | meta | payload)*` that yields `(key, None)` for a tombstone and
/// `(key, Some(payload))` for a put, copying nothing. It stops early, with
/// `left > 0`, at a truncated record or a tombstone with length bits.
pub(crate) struct Records<'a> {
    /// The bytes after the last yielded record.
    pub(crate) rest: &'a [u8],
    /// Records the block declares that have not been yielded.
    pub(crate) left: u32,
}

impl<'a> Records<'a> {
    /// A truncated count reads its missing bytes as zero.
    pub(crate) fn new(block: &'a [u8]) -> Self {
        let (count, rest) = block.split_at(block.len().min(4));
        let left = persist::le_u32(count);
        Self { rest, left }
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let key = persist::le_u64(self.rest.get(..8)?);
        let (payload, end) = match persist::le_u32(self.rest.get(8..12)?) {
            TOMBSTONE_FLAG => (None, 12),
            len if len < TOMBSTONE_FLAG => {
                let end = 12 + len as usize;
                (Some(self.rest.get(12..end)?), end)
            }
            _ => return None,
        };
        self.rest = self.rest.get(end..)?;
        self.left -= 1;
        Some((key, payload))
    }
}

/// The owned [`Value`] of a record [`Records`] yielded.
fn to_value(payload: Option<&[u8]>) -> Value {
    payload.map_or(Value::Tombstone, |bytes| Value::Put(bytes.to_vec()))
}

/// The one k-way newest-wins merge, behind [`crate::Db::scan`] and
/// compaction: over sources given oldest first, each ascending with unique
/// keys, it yields every key once, ascending, in the newest source's
/// version. Tombstones pass through; each caller decides what they mean.
/// A max-heap holds each source's next record keyed by `(Reverse(key),
/// source index)`: the smallest key comes first and, among equal keys, the
/// newest source. O(log k) per record read.
pub(crate) fn merge<'a, I>(sources: impl IntoIterator<Item = I>) -> impl Iterator<Item = Record<'a>>
where
    I: Iterator<Item = Record<'a>>,
{
    let head = |source: usize, (key, payload): Record<'a>| (Reverse(key), source, payload);
    let mut sources: Vec<I> = sources.into_iter().collect();
    let mut heads: BinaryHeap<_> = (sources.iter_mut().enumerate())
        .filter_map(|(i, source)| Some(head(i, source.next()?)))
        .collect();
    std::iter::from_fn(move || {
        let (Reverse(key), _, payload) = *heads.peek()?;
        // Move every source holding `key`, the winner first, to its next key.
        while let Some(mut top) = heads.peek_mut().filter(|top| top.0 == Reverse(key)) {
            let source = top.1;
            match sources[source].next() {
                Some(record) => *top = head(source, record),
                None => drop(PeekMut::pop(top)),
            }
        }
        Some((key, payload))
    })
}

/// Reusable buffers of the fence and filter steps of a batched read
/// ([`SsTable::admit_points`], [`SsTable::admit_ranges`]): a scan-all `Db`
/// batch tests every table with one scratch, so that loop allocates nothing
/// per table. All buffers are cleared on entry, so a scratch can be shared
/// freely between point and range calls.
#[derive(Default)]
pub(crate) struct SstProbeScratch {
    /// Indices of the batch elements that survive the fence check, then
    /// those the filter admits too.
    selected: Vec<usize>,
    /// Keys handed to the filter's batch call (point path).
    probe_keys: Vec<u64>,
    /// Filter verdicts for the selected keys (point path).
    verdicts: Vec<bool>,
}

impl SstProbeScratch {
    /// The batch elements the last [`SsTable::admit_points`] /
    /// [`SsTable::admit_ranges`] admitted, ascending.
    pub(crate) fn admitted(&self) -> &[usize] {
        &self.selected
    }
}

/// Keep only the `selected` batch elements the filter `admits`, recording
/// one filter test per selected element and the time since `clock` started.
fn keep_admitted(
    selected: &mut Vec<usize>,
    stats: &ReadStats,
    clock: SampledClock,
    admits: impl FnMut(&usize) -> bool,
) {
    let tested = selected.len();
    selected.retain(admits);
    let positives = selected.len();
    stats.record_filter_probes(
        positives as u64,
        (tested - positives) as u64,
        clock.estimate_ns(),
    );
}

/// A table's data blocks in one buffer, with their fence pointers: block
/// `i` is `data[offsets[i]..offsets[i + 1]]` and holds the keys
/// `first_keys[i]..=last_keys[i]`. Building, encoding and decoding a table
/// append to and read from this one buffer, so a table is one data
/// allocation however many blocks it has.
#[derive(Debug)]
pub struct DataBlocks {
    /// Every block, back to back.
    data: Vec<u8>,
    /// Where each block starts in `data`, then `data.len()`.
    offsets: Vec<usize>,
    /// First key of each block.
    first_keys: Vec<u64>,
    /// Last key of each block.
    last_keys: Vec<u64>,
}

impl DataBlocks {
    /// Room for `blocks` blocks of `bytes` bytes in total.
    pub(crate) fn with_capacity(bytes: usize, blocks: usize) -> Self {
        let mut offsets = Vec::with_capacity(blocks + 1);
        offsets.push(0);
        Self {
            data: Vec::with_capacity(bytes),
            offsets,
            first_keys: Vec::with_capacity(blocks),
            last_keys: Vec::with_capacity(blocks),
        }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.first_keys.len()
    }

    /// First key of each block.
    pub(crate) fn first_keys(&self) -> &[u64] {
        &self.first_keys
    }

    /// Last key of each block.
    pub(crate) fn last_keys(&self) -> &[u64] {
        &self.last_keys
    }

    /// Block `i`'s bytes: `count (u32) | (key | meta | payload)*`.
    pub(crate) fn block(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Every block, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.block(i))
    }

    /// Total size of the blocks in bytes.
    pub(crate) fn data_len(&self) -> usize {
        self.data.len()
    }

    /// The buffer the next block is appended to; [`DataBlocks::seal`]
    /// closes it.
    pub(crate) fn buffer(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Close the bytes appended since the last seal as the next block,
    /// holding the keys `first..=last`.
    pub(crate) fn seal(&mut self, first: u64, last: u64) {
        self.offsets.push(self.data.len());
        self.first_keys.push(first);
        self.last_keys.push(last);
    }
}

/// A table's filter, shared: the filter tree's leaf for the table holds the
/// same allocation, so the descent's leaf stage is the table's filter test
/// (see [`crate::tree`]).
pub(crate) enum TableFilter {
    /// A bloomRF filter, kept typed so the tree can test it with the probe
    /// it shares across a level.
    BloomRf(Arc<BloomRf>),
    /// Any other family.
    Other(Arc<dyn PointRangeFilter>),
}

impl TableFilter {
    /// What [`FilterKind::build`] builds, kept typed for bloomRF: both
    /// bloomRF families build through their [`FilterKind::bloomrf_builder`].
    fn build(kind: FilterKind, keys: &[u64], bits_per_key: f64) -> Self {
        match kind.bloomrf_builder() {
            Some(builder) => {
                Self::BloomRf(Arc::new(FilterBuilder::build(&builder, keys, bits_per_key)))
            }
            None => Self::Other(Arc::from(kind.build(keys, bits_per_key))),
        }
    }

    /// The filter, whatever its family.
    pub(crate) fn as_dyn(&self) -> &dyn PointRangeFilter {
        match self {
            Self::BloomRf(filter) => filter.as_ref(),
            Self::Other(filter) => filter.as_ref(),
        }
    }
}

/// One immutable sorted run with a filter block.
pub struct SsTable {
    /// The data blocks and their fence pointers.
    blocks: DataBlocks,
    /// The filter covering every key of the table (tombstones included).
    filter: TableFilter,
    /// Smallest and largest key of the table.
    key_range: (u64, u64),
    num_entries: usize,
    /// How many of the entries are tombstones.
    num_tombstones: usize,
    /// Filter family the table was built with (persisted so recovery can
    /// rebuild the filter block from data blocks if its bytes rot).
    filter_kind: FilterKind,
    /// Filter space budget the table was built with.
    bits_per_key: f64,
    /// Time spent building + serializing the filter (Fig. 12.C).
    filter_build_time: std::time::Duration,
}

impl SsTable {
    /// Build an SST from sorted, deduplicated entries (tombstones included).
    ///
    /// `entries_per_block` mimics RocksDB's block size knob (a 4-KiB block with
    /// 512-byte values holds ~8 entries).
    pub fn build(
        entries: &[(u64, Value)],
        entries_per_block: usize,
        filter_kind: FilterKind,
        bits_per_key: f64,
    ) -> Self {
        let records = entries.iter().map(|(key, value)| (*key, value.as_put()));
        Self::from_records(records, entries_per_block, filter_kind, bits_per_key)
            .unwrap_or_else(|| panic!("an SST must contain at least one entry"))
    }

    /// Stream ascending, unique records into a table, or `None` when there
    /// are none. Every block is written straight into the table's one data
    /// buffer and sealed every `entries_per_block` records, so each payload
    /// is copied exactly once; the keys are collected for the filter.
    pub(crate) fn from_records<'a>(
        records: impl IntoIterator<Item = Record<'a>>,
        entries_per_block: usize,
        filter_kind: FilterKind,
        bits_per_key: f64,
    ) -> Option<Self> {
        let mut records = records.into_iter().peekable();
        let n_hint = records.size_hint().0;
        let entries_per_block = entries_per_block.max(1);
        let mut keys: Vec<u64> = Vec::with_capacity(n_hint);
        let mut blocks = DataBlocks::with_capacity(0, n_hint.div_ceil(entries_per_block));
        let mut num_tombstones = 0usize;
        while let Some(&(first, _)) = records.peek() {
            let block = blocks.buffer();
            let start = block.len();
            block.put_u32_le(0);
            let mut count = 0u32;
            for (key, payload) in records.by_ref().take(entries_per_block) {
                debug_assert!(
                    keys.last().map_or(true, |&last| last < key),
                    "records must be sorted and unique"
                );
                keys.push(key);
                block.put_u64_le(key);
                match payload {
                    Some(bytes) => {
                        assert!(
                            (bytes.len() as u64) < TOMBSTONE_FLAG as u64,
                            "value too large for the 31-bit length field"
                        );
                        block.put_u32_le(bytes.len() as u32);
                        block.put_slice(bytes);
                    }
                    None => {
                        num_tombstones += 1;
                        block.put_u32_le(TOMBSTONE_FLAG);
                    }
                }
                count += 1;
            }
            block[start..start + 4].copy_from_slice(&count.to_le_bytes());
            blocks.seal(first, *keys.last()?);
        }

        let start = Instant::now();
        let filter = TableFilter::build(filter_kind, &keys, bits_per_key);
        let filter_build_time = start.elapsed();
        Some(Self {
            blocks,
            filter,
            key_range: (*keys.first()?, *keys.last()?),
            num_entries: keys.len(),
            num_tombstones,
            filter_kind,
            bits_per_key,
            filter_build_time,
        })
    }

    /// Serialize the table into the durable `BSST` v2 file format (see
    /// [`crate::persist`]): data blocks, fence-pointer index and — for filter
    /// families with a wire format — the filter block itself, each section
    /// protected by a CRC-32 checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let filter_bytes = self.filter.as_dyn().serialize();
        persist::encode_sst(
            &self.blocks,
            self.num_entries,
            self.key_range,
            self.filter_kind,
            self.bits_per_key,
            filter_bytes.as_deref(),
        )
    }

    /// Decode and fully verify a persisted table (recovery path).
    ///
    /// Every section is checksum- and structure-verified before the table is
    /// accepted. The filter block degrades gracefully: if its persisted bytes
    /// fail to decode it is *quarantined* and a replacement is rebuilt from
    /// the already-verified data blocks (recorded in `stats` as
    /// `filters_quarantined` / `filters_rebuilt`); families that never
    /// persist their filter are always rebuilt. Corruption anywhere else is a
    /// hard error — the caller decides whether the file is a skippable tail.
    pub fn from_bytes(bytes: &[u8], stats: &ReadStats) -> Result<Self, Corruption> {
        let decoded = persist::decode_sst(bytes)?;
        let start = Instant::now();
        let rebuild = |quarantined: bool| {
            if quarantined {
                stats.record_filter_quarantined();
            }
            stats.record_filter_rebuilt();
            TableFilter::build(decoded.filter_kind, &decoded.keys, decoded.bits_per_key)
        };
        let filter = if decoded.filter_damaged {
            rebuild(true)
        } else {
            match &decoded.filter_bytes {
                Some(fb) => match BloomRf::from_bytes(fb) {
                    Ok(f) => TableFilter::BloomRf(Arc::new(f)),
                    Err(_) => rebuild(true),
                },
                None => rebuild(false),
            }
        };
        Ok(Self {
            blocks: decoded.data,
            filter,
            key_range: decoded.key_range,
            num_entries: decoded.num_entries,
            num_tombstones: decoded.num_tombstones,
            filter_kind: decoded.filter_kind,
            bits_per_key: decoded.bits_per_key,
            filter_build_time: start.elapsed(),
        })
    }

    /// Number of entries (tombstones included).
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Number of tombstone entries.
    pub fn num_tombstones(&self) -> usize {
        self.num_tombstones
    }

    /// Number of data blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Smallest and largest key.
    pub fn key_range(&self) -> (u64, u64) {
        self.key_range
    }

    /// Size of the filter block in bits.
    pub fn filter_bits(&self) -> usize {
        self.filter.as_dyn().memory_bits()
    }

    /// Wall-clock time spent constructing the filter block.
    pub fn filter_build_time(&self) -> std::time::Duration {
        self.filter_build_time
    }

    /// The filter itself (for experiments probing filters directly).
    pub fn filter(&self) -> &dyn PointRangeFilter {
        self.filter.as_dyn()
    }

    /// The filter as the handle the filter tree's leaf shares.
    pub(crate) fn shared_filter(&self) -> &TableFilter {
        &self.filter
    }

    /// The filter family the table was built with.
    pub(crate) fn filter_kind(&self) -> FilterKind {
        self.filter_kind
    }

    /// Every key in the table, ascending (tombstones included), without
    /// copying any value; the filter tree builds its inner nodes from this
    /// authoritative key set.
    pub(crate) fn keys(&self) -> Vec<u64> {
        self.records().map(|(key, _)| key).collect()
    }

    /// Every record of the table, ascending, read in place: the compaction
    /// merge's input.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        self.blocks.iter().flat_map(Records::new)
    }

    /// Point lookup through the filter, index and data blocks. A hit on a
    /// tombstone returns `Some(Value::Tombstone)` — the caller must treat the
    /// key as deleted rather than consult older tables.
    pub fn get(&self, key: u64, io: &IoModel, stats: &ReadStats) -> Option<Value> {
        if key < self.key_range.0 || key > self.key_range.1 {
            return None;
        }
        let clock = SampledClock::start(Clock::FilterProbe);
        let positive = self.filter.as_dyn().may_contain(key);
        stats.record_filter_probe(positive, clock.estimate_ns());
        if !positive {
            return None;
        }
        self.read_point(key, io, stats)
    }

    /// Fence walk + in-place block search for a key whose filter test has
    /// passed — here, or in the candidates step of a `Db` read; only a
    /// matching payload is copied.
    pub(crate) fn read_point(&self, key: u64, io: &IoModel, stats: &ReadStats) -> Option<Value> {
        let blocks_read = Cell::new(0);
        let rows = self.first_rows(key, key, &blocks_read, stats);
        let result = rows
            .and_then(|mut rows| rows.next())
            .map(|(_, payload)| to_value(payload));
        stats.record_block_reads(blocks_read.get(), io);
        result
    }

    /// The fence and filter steps of a batched point read: leaves in
    /// `scratch` ([`SstProbeScratch::admitted`]) the indices of the keys
    /// inside the table's key range that its filter admits, probing the
    /// filter once for the whole batch via
    /// [`PointRangeFilter::may_contain_batch_into`] and recording every
    /// test.
    pub(crate) fn admit_points(
        &self,
        keys: &[u64],
        stats: &ReadStats,
        scratch: &mut SstProbeScratch,
    ) {
        scratch.selected.clear();
        scratch.selected.extend(
            (0..keys.len()).filter(|&i| keys[i] >= self.key_range.0 && keys[i] <= self.key_range.1),
        );
        if scratch.selected.is_empty() {
            return;
        }
        scratch.probe_keys.clear();
        scratch
            .probe_keys
            .extend(scratch.selected.iter().map(|&i| keys[i]));
        let clock = SampledClock::start(Clock::FilterProbe);
        self.filter
            .as_dyn()
            .may_contain_batch_into(&scratch.probe_keys, &mut scratch.verdicts);
        let mut verdicts = scratch.verdicts.iter();
        keep_admitted(&mut scratch.selected, stats, clock, |_| {
            verdicts.next() == Some(&true)
        });
    }

    /// The range counterpart of [`SsTable::admit_points`]: the ranges that
    /// overlap the table's key range (reversed bounds never do) and that
    /// its filter admits, each tested with
    /// [`PointRangeFilter::may_contain_range`].
    pub(crate) fn admit_ranges(
        &self,
        ranges: &[(u64, u64)],
        stats: &ReadStats,
        scratch: &mut SstProbeScratch,
    ) {
        scratch.selected.clear();
        scratch.selected.extend((0..ranges.len()).filter(|&i| {
            let (lo, hi) = ranges[i];
            lo <= hi && hi >= self.key_range.0 && lo <= self.key_range.1
        }));
        if scratch.selected.is_empty() {
            return;
        }
        let clock = SampledClock::start(Clock::FilterProbe);
        let filter = self.filter.as_dyn();
        keep_admitted(&mut scratch.selected, stats, clock, |&i| {
            filter.may_contain_range(ranges[i].0, ranges[i].1)
        });
    }

    /// Batched point lookup: probes the filter once for the whole batch via
    /// [`PointRangeFilter::may_contain_batch_into`], then reads blocks only
    /// for the positives. Element `i` equals `self.get(keys[i], ..)`.
    pub fn get_many(&self, keys: &[u64], io: &IoModel, stats: &ReadStats) -> Vec<Option<Value>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let mut scratch = SstProbeScratch::default();
        self.admit_points(keys, stats, &mut scratch);
        for &i in scratch.admitted() {
            out[i] = self.read_point(keys[i], io, stats);
        }
        out
    }

    /// Range scan: return up to `limit` entries with keys in `[lo, hi]`,
    /// consulting the filter first (the RocksDB `SeekForPrev`/`Seek` path with
    /// range-filter support). Tombstones are returned like any entry — the
    /// store-level merge needs them to shadow older tables.
    pub fn scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        io: &IoModel,
        stats: &ReadStats,
    ) -> Vec<(u64, Value)> {
        if hi < self.key_range.0 || lo > self.key_range.1 || lo > hi {
            return Vec::new();
        }
        let clock = SampledClock::start(Clock::FilterProbe);
        let positive = self.filter.as_dyn().may_contain_range(lo, hi);
        stats.record_filter_probe(positive, clock.estimate_ns());
        if !positive {
            return Vec::new();
        }
        let blocks_read = Cell::new(0);
        let rows = self.first_rows(lo, hi, &blocks_read, stats);
        let out = (rows.into_iter().flatten())
            .take(limit)
            .map(|(key, payload)| (key, to_value(payload)))
            .collect();
        stats.record_block_reads(blocks_read.get(), io);
        out
    }

    /// The records of `[lo, hi]` after a positive filter test, read in
    /// place from the blocks the fences admit, once the search has found the
    /// first; `None`, counted as a false positive, when there is none (a
    /// found tombstone is a *true* positive). Reversed bounds are empty and
    /// no false positive. `blocks_read` counts the blocks reached: callers
    /// charge it after the search, as an atomic add ahead of the block loads
    /// would hold them back.
    pub(crate) fn first_rows<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        blocks_read: &'a Cell<u64>,
        stats: &ReadStats,
    ) -> Option<Peekable<impl Iterator<Item = Record<'a>> + 'a>> {
        if lo > hi {
            return None;
        }
        let clock = SampledClock::start(Clock::Cpu);
        let blocks = &self.blocks;
        let first = blocks.last_keys.partition_point(|&last| last < lo);
        let mut rows = (first..blocks.len())
            .take_while(move |&i| blocks.first_keys[i] <= hi)
            .flat_map(move |i| {
                blocks_read.set(blocks_read.get() + 1);
                Records::new(blocks.block(i))
            })
            .skip_while(move |&(key, _)| key < lo)
            .take_while(move |&(key, _)| key <= hi)
            .peekable();
        let found = rows.peek().is_some();
        stats.record_cpu(clock.estimate_ns());
        if !found {
            stats.record_false_positive();
        }
        found.then_some(rows)
    }

    /// Total serialized size of the data blocks in bytes.
    pub fn data_bytes(&self) -> usize {
        self.blocks.data_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every entry of `sst`, owned, through the full-table cursor.
    fn entries_of(sst: &SsTable) -> Vec<(u64, Value)> {
        sst.records()
            .map(|(key, payload)| (key, to_value(payload)))
            .collect()
    }

    fn put_entries(entries: &[(u64, Vec<u8>)]) -> Vec<(u64, Value)> {
        entries
            .iter()
            .map(|(k, v)| (*k, Value::Put(v.clone())))
            .collect()
    }

    fn entries(n: u64, value_size: usize) -> Vec<(u64, Value)> {
        (0..n)
            .map(|i| (i * 10, Value::Put(vec![(i % 251) as u8; value_size])))
            .collect()
    }

    fn build(n: u64) -> SsTable {
        SsTable::build(
            &entries(n, 32),
            8,
            FilterKind::BloomRf { max_range: 1e6 },
            16.0,
        )
    }

    #[test]
    fn point_lookups_find_existing_keys() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        assert_eq!(sst.num_entries(), 1000);
        assert_eq!(sst.num_blocks(), 125);
        for i in (0..1000u64).step_by(17) {
            let v = sst.get(i * 10, &io, &stats);
            assert_eq!(
                v,
                Some(Value::Put(vec![(i % 251) as u8; 32])),
                "key {}",
                i * 10
            );
        }
        // Keys between stored keys are absent.
        assert_eq!(sst.get(5, &io, &stats), None);
        assert_eq!(sst.get(99_999, &io, &stats), None);
        let snap = stats.snapshot();
        assert!(snap.filter_probes > 0);
        assert!(snap.blocks_read > 0);
    }

    #[test]
    fn tombstones_roundtrip_through_build_and_bytes() {
        let entries = vec![
            (10u64, Value::Put(b"alive".to_vec())),
            (20, Value::Tombstone),
            (30, Value::Put(b"also alive".to_vec())),
            (40, Value::Tombstone),
        ];
        let sst = SsTable::build(&entries, 2, FilterKind::BloomRf { max_range: 1e6 }, 16.0);
        assert_eq!(sst.num_entries(), 4);
        assert_eq!(sst.num_tombstones(), 2);
        assert_eq!(sst.keys(), vec![10, 20, 30, 40]);
        assert_eq!(entries_of(&sst), entries);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // A tombstone is found (filter + block), not treated as absent...
        assert_eq!(sst.get(20, &io, &stats), Some(Value::Tombstone));
        // ...and is not a false positive.
        assert_eq!(stats.snapshot().false_positives, 0);
        // Tombstones keep ranges "possibly non-empty" (no false negatives).
        assert_eq!(
            sst.scan(19, 21, 10, &io, &stats),
            vec![(20, Value::Tombstone)]
        );
        // Serialization roundtrips tombstones bit-exactly.
        let restored = SsTable::from_bytes(&sst.to_bytes(), &stats).unwrap();
        assert_eq!(restored.num_tombstones(), 2);
        assert_eq!(entries_of(&restored), entries);
        assert_eq!(restored.get(40, &io, &stats), Some(Value::Tombstone));
    }

    #[test]
    fn scans_return_expected_entries() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        let result = sst.scan(100, 149, 100, &io, &stats);
        assert_eq!(
            result.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![100, 110, 120, 130, 140]
        );
        let limited = sst.scan(0, 10_000, 3, &io, &stats);
        assert_eq!(limited.len(), 3);
        assert!(sst.scan(10_001, 10_100, 10, &io, &stats).is_empty());
        assert!(
            sst.scan(5, 9, 10, &io, &stats).is_empty(),
            "gap between keys"
        );
        assert!(
            sst.scan(100, 50, 10, &io, &stats).is_empty(),
            "reversed bounds"
        );
    }

    #[test]
    fn filter_prunes_out_of_range_lookups_without_io() {
        let sst = build(100);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // Key range is [0, 990]; a far away key is pruned by the range check
        // before the filter, a nearby missing key by the filter.
        assert_eq!(sst.get(10_000, &io, &stats), None);
        assert_eq!(stats.snapshot().filter_probes, 0);
        let _ = sst.get(985, &io, &stats);
        assert!(stats.snapshot().filter_probes >= 1);
    }

    #[test]
    fn stats_track_false_positives_on_empty_scans() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        let mut positives = 0;
        for i in 0..500u64 {
            // All these ranges are empty (between the 10-spaced keys).
            let lo = i * 10 + 1;
            let result = sst.scan(lo, lo + 5, 10, &io, &stats);
            assert!(result.is_empty());
            if stats.snapshot().false_positives > positives {
                positives = stats.snapshot().false_positives;
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.filter_probes, 500);
        assert_eq!(snap.filter_positives, snap.false_positives);
        assert!(snap.io_wait_ns >= snap.blocks_read * 90_000);
    }

    #[test]
    fn different_filter_kinds_build_ssts() {
        for kind in [
            FilterKind::Bloom,
            FilterKind::Rosetta { max_range: 1 << 12 },
            FilterKind::Surf,
            FilterKind::FencePointers,
        ] {
            let sst = SsTable::build(&entries(200, 8), 16, kind, 14.0);
            let io = IoModel::default();
            let stats = ReadStats::new();
            assert_eq!(
                sst.get(500, &io, &stats),
                Some(Value::Put(vec![50_u8; 8])),
                "{}",
                kind.label()
            );
            assert!(sst.filter_bits() > 0);
            assert!(sst.filter_build_time() >= std::time::Duration::ZERO);
        }
    }

    #[test]
    #[should_panic]
    fn empty_sst_is_rejected() {
        let _ = SsTable::build(&[], 8, FilterKind::Bloom, 10.0);
    }

    #[test]
    fn get_many_matches_sequential_gets() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // Mix present keys, gaps between keys, and out-of-range keys.
        let probes: Vec<u64> = (0..600u64)
            .map(|i| match i % 3 {
                0 => (i / 3) * 30, // stored (multiples of 10)
                1 => i * 7 + 3,    // mostly absent
                _ => 20_000 + i,   // beyond the key range
            })
            .collect();
        let batched = sst.get_many(&probes, &io, &stats);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], sst.get(p, &io, &stats), "key {p}");
        }
        assert!(sst.get_many(&[], &io, &stats).is_empty());
    }

    #[test]
    fn put_entries_helper_preserves_layout() {
        // Guard the helper other test files mirror: plain puts must produce
        // the same table as the pre-tombstone encoding did.
        let raw: Vec<(u64, Vec<u8>)> = (0..50u64).map(|i| (i * 3, vec![i as u8; 4])).collect();
        let sst = SsTable::build(&put_entries(&raw), 8, FilterKind::Bloom, 12.0);
        assert_eq!(sst.num_tombstones(), 0);
        assert_eq!(sst.num_entries(), 50);
    }

    /// The model of a generated table: `(key, kind, len)` triples, kind 0 a
    /// tombstone, the last triple of a key winning.
    fn model_of(raw: &[(u64, u8, u16)]) -> BTreeMap<u64, Value> {
        let value = |key: u64, kind: u8, len: u16| match kind {
            0 => Value::Tombstone,
            _ => Value::Put(vec![key as u8 ^ kind; len as usize]),
        };
        raw.iter()
            .map(|&(key, kind, len)| (key, value(key, kind, len)))
            .collect()
    }

    /// Every in-place reader of `sst` answers what `model` does.
    fn agrees_with_model(
        sst: &SsTable,
        model: &BTreeMap<u64, Value>,
        probes: &[u64],
        ranges: &[(u64, u64)],
    ) -> Result<(), TestCaseError> {
        let (io, stats) = (IoModel::default(), ReadStats::new());
        let entries: Vec<(u64, Value)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
        prop_assert_eq!(entries_of(sst), entries);
        prop_assert_eq!(sst.keys(), model.keys().copied().collect::<Vec<_>>());
        let tombstones = model.values().filter(|v| v.is_tombstone()).count();
        prop_assert_eq!(sst.num_tombstones(), tombstones);

        let keys: Vec<u64> = model.keys().chain(probes).copied().collect();
        let expected: Vec<Option<Value>> = keys.iter().map(|k| model.get(k).cloned()).collect();
        for (&key, want) in keys.iter().zip(&expected) {
            prop_assert_eq!(&sst.get(key, &io, &stats), want, "get({})", key);
        }
        prop_assert_eq!(sst.get_many(&keys, &io, &stats), expected);

        let in_range = |lo: u64, hi: u64| -> Vec<(u64, Value)> {
            if lo > hi {
                return Vec::new();
            }
            model.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect()
        };
        for &(lo, hi) in ranges {
            let rows = in_range(lo, hi);
            for limit in [1, 3, usize::MAX] {
                let want = &rows[..rows.len().min(limit)];
                let got = sst.scan(lo, hi, limit, &io, &stats);
                prop_assert_eq!(got.as_slice(), want, "scan({}, {}, {})", lo, hi, limit);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `get`, `get_many`, `scan`, `keys` and `records` read blocks in
        /// place and must equal a `BTreeMap` model — tombstones, zero-length
        /// and up-to-300-byte values, one to 64 entries per block — before
        /// and after a `to_bytes` round trip.
        #[test]
        fn in_place_readers_equal_a_model(
            raw in prop::collection::vec((0u64..3000, 0u8..4, 0u16..=300), 1..160),
            epb in 0usize..4,
            probes in prop::collection::vec(0u64..3100, 0..40),
            spans in prop::collection::vec((0u64..3100, 0u64..200, 0u8..4), 0..24),
        ) {
            let model = model_of(&raw);
            let entries: Vec<(u64, Value)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
            let epb = [1, 3, 8, 64][epb];
            // One span in four has its bounds reversed.
            let ranges: Vec<(u64, u64)> = spans
                .iter()
                .map(|&(lo, width, flip)| match flip {
                    0 => (lo + width, lo),
                    _ => (lo, lo + width),
                })
                .collect();
            let sst = SsTable::build(&entries, epb, FilterKind::BloomRf { max_range: 1e4 }, 12.0);
            agrees_with_model(&sst, &model, &probes, &ranges)?;
            let restored = SsTable::from_bytes(&sst.to_bytes(), &ReadStats::new()).unwrap();
            agrees_with_model(&restored, &model, &probes, &ranges)?;
        }

        /// The merge equals a `BTreeMap` extended oldest → newest: 1–8
        /// sources (empty ones included) over overlapping keys, with
        /// tombstones and zero-length values, read with the compaction rule
        /// (tombstones kept or dropped) and the scan rule (live rows up to a
        /// random limit).
        #[test]
        fn merge_equals_a_newest_wins_model(
            raw in prop::collection::vec(
                prop::collection::vec((0u64..48, 0u8..4, 0u16..4), 0..40),
                1..=8,
            ),
            drop_tombstones in any::<bool>(),
            limit in 0usize..64,
        ) {
            // Source `i` writes payloads of byte `i`, so a non-empty version
            // shows which source won; kind 0 is a tombstone.
            let sources: Vec<BTreeMap<u64, Value>> = raw
                .iter()
                .enumerate()
                .map(|(i, rows)| {
                    rows.iter()
                        .map(|&(key, kind, len)| match kind {
                            0 => (key, Value::Tombstone),
                            _ => (key, Value::Put(vec![i as u8; len as usize])),
                        })
                        .collect()
                })
                .collect();
            let mut model: BTreeMap<u64, Value> = BTreeMap::new();
            for source in &sources {
                model.extend(source.iter().map(|(&k, v)| (k, v.clone())));
            }
            let merge = || {
                merge(sources.iter().map(|source| {
                    source.iter().map(|(&key, value)| (key, value.as_put()))
                }))
                .map(|(key, payload)| (key, to_value(payload)))
            };

            let kept: Vec<(u64, Value)> = merge()
                .filter(|(_, value)| !(drop_tombstones && value.is_tombstone()))
                .collect();
            let want: Vec<(u64, Value)> = model
                .iter()
                .filter(|(_, value)| !(drop_tombstones && value.is_tombstone()))
                .map(|(&k, v)| (k, v.clone()))
                .collect();
            prop_assert_eq!(kept, want);

            let live: Vec<(u64, Value)> = merge()
                .filter(|(_, value)| !value.is_tombstone())
                .take(limit)
                .collect();
            let want: Vec<(u64, Value)> = model
                .iter()
                .filter(|(_, value)| !value.is_tombstone())
                .take(limit)
                .map(|(&k, v)| (k, v.clone()))
                .collect();
            prop_assert_eq!(live, want);
        }
    }
}
