//! The in-memory write buffer (memtable) of the LSM substrate.
//!
//! RocksDB absorbs new writes in a skip-list based memtable and only builds
//! filters when the memtable is flushed to an SST file — the system-level
//! mitigation of the offline-filter problem the paper discusses (Problem 2).
//! Our memtable is an ordered map behind a read-write lock, which preserves
//! the relevant behaviour: point and range reads must consult it *in addition
//! to* the filtered SST files.
//!
//! Deletes are buffered as [`Value::Tombstone`] entries: a tombstone is a
//! real entry (it flushes into the SST like any put) that shadows every older
//! version of its key until compaction drops it.

use bloomrf::sync::OrderedRwLock;
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::ranks;
use crate::value::Value;

/// An ordered, thread-safe write buffer.
#[derive(Debug)]
pub struct MemTable {
    entries: OrderedRwLock<BTreeMap<u64, Value>, { ranks::MEMTABLE }>,
}

impl Default for MemTable {
    fn default() -> Self {
        Self {
            entries: OrderedRwLock::new("memtable.entries", BTreeMap::new()),
        }
    }
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: u64, value: Vec<u8>) {
        self.entries.write().insert(key, Value::Put(value));
    }

    /// Record a delete for `key`: a tombstone entry that shadows every older
    /// version of the key in the SSTs below.
    pub fn delete(&self, key: u64) {
        self.entries.write().insert(key, Value::Tombstone);
    }

    /// Point lookup. `Some(Value::Tombstone)` means the key was deleted here
    /// — callers must *not* fall through to older tables.
    pub fn get(&self, key: u64) -> Option<Value> {
        self.entries.read().get(&key).cloned()
    }

    /// Smallest entry (tombstones included) with key in `[lo, hi]`, if any.
    /// Reversed bounds are an empty interval (`BTreeMap::range` would panic
    /// on them).
    pub fn first_in_range(&self, lo: u64, hi: u64) -> Option<(u64, Value)> {
        if lo > hi {
            return None;
        }
        let map = self.entries.read();
        map.range((Bound::Included(lo), Bound::Included(hi)))
            .next()
            .map(|(k, v)| (*k, v.clone()))
    }

    /// Whether any entry (tombstones included) has its key in `[lo, hi]`:
    /// [`MemTable::first_in_range`]`.is_some()` without copying the value.
    pub fn any_in_range(&self, lo: u64, hi: u64) -> bool {
        lo <= hi && self.entries.read().range(lo..=hi).next().is_some()
    }

    /// The entries (tombstones included) with keys in `[lo, hi]`, in key
    /// order, up to and including the `puts`-th put. A buffered put is
    /// always a live row, so a newest-wins merge that stops after `puts`
    /// live rows never reads past it: this is all of the memtable such a
    /// merge consumes. Reversed bounds are an empty interval.
    pub(crate) fn scan_through_puts(&self, lo: u64, hi: u64, puts: usize) -> Vec<(u64, Value)> {
        let mut out = Vec::new();
        if lo > hi || puts == 0 {
            return out;
        }
        let map = self.entries.read();
        let mut left = puts;
        for (key, value) in map.range(lo..=hi) {
            out.push((*key, value.clone()));
            if matches!(value, Value::Put(_)) {
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
        out
    }

    /// All entries (tombstones included) with keys in `[lo, hi]`, up to
    /// `limit`. Reversed bounds are an empty interval.
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Value)> {
        if lo > hi {
            return Vec::new();
        }
        let map = self.entries.read();
        map.range((Bound::Included(lo), Bound::Included(hi)))
            .take(limit)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True if the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Clone every entry in key order *without* draining. The flush path
    /// snapshots, builds and publishes the SST, and only then calls
    /// [`MemTable::forget`] — so readers see every key in the memtable or the
    /// table set at all times (never in neither, which draining before the
    /// publish would allow).
    pub fn snapshot_sorted(&self) -> Vec<(u64, Value)> {
        let map = self.entries.read();
        map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Drop the snapshotted entries that are still current. An entry whose
    /// value changed since the snapshot (overwrite or delete during the
    /// flush) is kept: the newer version is not in the SST the snapshot
    /// built, so it must stay visible here. An unchanged entry is safe to
    /// drop — the published SST holds an identical copy.
    pub fn forget(&self, snapshot: &[(u64, Value)]) {
        let mut map = self.entries.write();
        for (key, value) in snapshot {
            if map.get(key) == Some(value) {
                map.remove(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_overwrite() {
        let mt = MemTable::new();
        assert!(mt.is_empty());
        mt.put(5, vec![1, 2, 3]);
        mt.put(10, vec![4]);
        assert_eq!(mt.get(5), Some(Value::Put(vec![1, 2, 3])));
        assert_eq!(mt.get(11), None);
        assert_eq!(mt.len(), 2);
        mt.put(5, vec![9; 100]);
        assert_eq!(mt.get(5), Some(Value::Put(vec![9; 100])));
        assert_eq!(mt.len(), 2);
    }

    #[test]
    fn deletes_leave_tombstones() {
        let mt = MemTable::new();
        mt.put(7, vec![1; 64]);
        mt.delete(7);
        assert_eq!(mt.get(7), Some(Value::Tombstone));
        assert_eq!(mt.len(), 1, "a tombstone is an entry, not an absence");
        // Deleting an absent key still records the tombstone (it may shadow
        // an older SST version the memtable cannot see).
        mt.delete(8);
        assert_eq!(mt.get(8), Some(Value::Tombstone));
        // A later put resurrects the key.
        mt.put(7, vec![2]);
        assert_eq!(mt.get(7), Some(Value::Put(vec![2])));
    }

    #[test]
    fn range_operations() {
        let mt = MemTable::new();
        for k in [10u64, 20, 30, 40] {
            mt.put(k, vec![k as u8]);
        }
        assert_eq!(mt.first_in_range(15, 35).map(|(k, _)| k), Some(20));
        assert_eq!(mt.first_in_range(31, 39), None);
        assert_eq!(mt.scan(0, 100, 10).len(), 4);
        assert_eq!(mt.scan(0, 100, 2).len(), 2);
        assert_eq!(mt.scan(21, 29, 10).len(), 0);
        assert_eq!(mt.scan(20, 20, 10), vec![(20, Value::Put(vec![20]))]);
        // Tombstones are visible to range reads (they shadow older tables).
        mt.delete(25);
        assert_eq!(mt.first_in_range(21, 29), Some((25, Value::Tombstone)));
        assert_eq!(mt.scan(21, 29, 10), vec![(25, Value::Tombstone)]);
        assert!(mt.any_in_range(21, 29) && mt.any_in_range(0, u64::MAX));
        assert!(!mt.any_in_range(31, 39) && !mt.any_in_range(29, 21));
        // Through the 2nd put: the tombstone before it rides along.
        let through = |lo, hi, puts| -> Vec<u64> {
            mt.scan_through_puts(lo, hi, puts)
                .iter()
                .map(|e| e.0)
                .collect()
        };
        assert_eq!(through(15, 100, 2), [20, 25, 30]);
        assert_eq!(through(15, 100, 9), [20, 25, 30, 40]);
        assert_eq!(through(21, 29, 1), [25]);
        assert!(through(0, 100, 0).is_empty() && through(40, 10, 3).is_empty());
    }

    #[test]
    fn forget_keeps_entries_that_changed_after_the_snapshot() {
        let mt = MemTable::new();
        mt.put(1, vec![1]);
        mt.put(2, vec![2]);
        mt.put(3, vec![3]);
        let snapshot = mt.snapshot_sorted();
        assert_eq!(snapshot.len(), 3);
        assert_eq!(mt.len(), 3, "snapshotting must not drain");
        // Mutations racing the (simulated) flush: an overwrite and a delete.
        mt.put(2, vec![99]);
        mt.delete(3);
        mt.forget(&snapshot);
        assert_eq!(mt.get(1), None, "unchanged entry leaves with the flush");
        assert_eq!(mt.get(2), Some(Value::Put(vec![99])));
        assert_eq!(mt.get(3), Some(Value::Tombstone));
        assert_eq!(mt.len(), 2);
        // Forgetting everything empties the table.
        let rest = mt.snapshot_sorted();
        mt.forget(&rest);
        assert!(mt.is_empty());
    }

    #[test]
    fn concurrent_writers() {
        use std::sync::Arc;
        let mt = Arc::new(MemTable::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let mt = Arc::clone(&mt);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        mt.put(t * 1000 + i, vec![0u8; 8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mt.len(), 4000);
    }
}
