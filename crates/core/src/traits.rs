//! Common traits implemented by bloomRF and all baseline filters so that the
//! LSM substrate and the benchmark harness can treat them uniformly.

/// An approximate membership filter supporting point and (optionally) range
/// queries over `u64` keys. "May contain" semantics: `false` is definite,
/// `true` may be a false positive.
pub trait PointRangeFilter: Send + Sync {
    /// Human-readable name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Approximate point membership test.
    fn may_contain(&self, key: u64) -> bool;

    /// Approximate range emptiness test for the inclusive interval `[lo, hi]`.
    ///
    /// Filters that do not support range queries (e.g. a plain Bloom filter)
    /// must answer conservatively (`true`).
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool;

    /// Memory footprint of the filter payload in bits.
    fn memory_bits(&self) -> usize;

    /// Bits per key for a given key count.
    fn bits_per_key(&self, n_keys: usize) -> f64 {
        self.memory_bits() as f64 / n_keys.max(1) as f64
    }

    /// Batched point membership into a caller-owned buffer (cleared first):
    /// element `i` answers `may_contain(keys[i])`. The LSM read path probes
    /// every SST filter once per batch through this, reusing the buffer to
    /// stay allocation-free. bloomRF overrides it with its batch engine; the
    /// default simply loops.
    fn may_contain_batch_into(&self, keys: &[u64], out: &mut Vec<bool>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.may_contain(k)));
    }

    /// Serialize the filter payload for persistence, if the family supports
    /// it. Storage layers that persist filter blocks call this instead of
    /// downcasting; families without a wire format (the default) answer
    /// `None` and are rebuilt from the key set on recovery.
    fn serialize(&self) -> Option<Vec<u8>> {
        None
    }

    /// The filter as a [`crate::BloomRf`], when it is one, so an aggregate
    /// (a Bloofi tree node) can union its bits with
    /// [`crate::BloomRf::merge_from`] instead of re-hashing its keys.
    fn as_bloomrf(&self) -> Option<&crate::BloomRf> {
        None
    }
}

/// A filter that supports *concurrent* online insertion through a shared
/// reference (bloomRF: its bit arrays are atomic, so `insert` takes `&self`
/// and may run while lookups are in flight — the property Experiment 4 of
/// the paper evaluates).
///
/// Baseline filters whose insertion needs exclusive access implement
/// [`ExclusiveOnlineFilter`] instead; wrap them in [`Locked`] to obtain this
/// trait (at the cost of a lock). SuRF is built offline from sorted keys and
/// implements neither.
pub trait OnlineFilter: PointRangeFilter {
    /// Insert a key. Duplicate inserts are permitted and idempotent from the
    /// caller's perspective.
    fn insert(&self, key: u64);

    /// Bulk-insert convenience; concurrent filters with a batched probe
    /// engine (bloomRF) override this with their batch path.
    fn insert_all(&self, keys: &[u64]) {
        for &k in keys {
            self.insert(k);
        }
    }
}

/// A filter that supports online insertion but requires exclusive access
/// (the single-threaded baselines: Bloom, Prefix-Bloom, Rosetta, Cuckoo).
///
/// The compat path to the shared-reference [`OnlineFilter`] world is
/// [`Locked`], which serializes inserts behind an `RwLock`.
pub trait ExclusiveOnlineFilter: PointRangeFilter {
    /// Insert a key. Duplicate inserts are permitted and idempotent from the
    /// caller's perspective.
    fn insert(&mut self, key: u64);

    /// Bulk-insert convenience.
    fn insert_all(&mut self, keys: &[u64]) {
        for &k in keys {
            self.insert(k);
        }
    }
}

/// Adapter that lifts an [`ExclusiveOnlineFilter`] into the shared-reference
/// [`OnlineFilter`] world by serializing inserts behind an `RwLock` (reads
/// take the shared lock, inserts the exclusive one).
///
/// This is the compat path for the `&mut self` baselines: it lets them flow
/// through APIs — and trait objects — written against `&dyn OnlineFilter`,
/// at the cost of lock traffic that the genuinely concurrent filters
/// (bloomRF) don't pay.
///
/// ```
/// use bloomrf::traits::{ExclusiveOnlineFilter, Locked, OnlineFilter};
/// # use bloomrf::traits::PointRangeFilter;
/// # struct Toy(Vec<u64>);
/// # impl PointRangeFilter for Toy {
/// #     fn name(&self) -> &'static str { "toy" }
/// #     fn may_contain(&self, key: u64) -> bool { self.0.contains(&key) }
/// #     fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
/// #         self.0.iter().any(|&k| k >= lo && k <= hi)
/// #     }
/// #     fn memory_bits(&self) -> usize { 64 * self.0.len() }
/// # }
/// # impl ExclusiveOnlineFilter for Toy {
/// #     fn insert(&mut self, key: u64) { self.0.push(key); }
/// # }
/// let shared = Locked::new(Toy(Vec::new()));
/// let dyn_filter: &dyn OnlineFilter = &shared;
/// dyn_filter.insert(42); // shared-reference insertion through the trait object
/// assert!(dyn_filter.may_contain(42));
/// ```
#[derive(Debug)]
pub struct Locked<F> {
    inner: crate::sync::RwLock<F>,
}

impl<F: ExclusiveOnlineFilter> Locked<F> {
    /// Wrap an exclusive filter for shared-reference insertion.
    pub fn new(filter: F) -> Self {
        Self {
            inner: crate::sync::RwLock::new(filter),
        }
    }

    /// Unwrap back into the exclusive filter.
    pub fn into_inner(self) -> F {
        self.inner.into_inner()
    }

    fn read(&self) -> crate::sync::RwLockReadGuard<'_, F> {
        self.inner.read()
    }

    fn write(&self) -> crate::sync::RwLockWriteGuard<'_, F> {
        self.inner.write()
    }
}

impl<F: ExclusiveOnlineFilter> PointRangeFilter for Locked<F> {
    fn name(&self) -> &'static str {
        self.read().name()
    }
    fn may_contain(&self, key: u64) -> bool {
        self.read().may_contain(key)
    }
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
        self.read().may_contain_range(lo, hi)
    }
    fn memory_bits(&self) -> usize {
        self.read().memory_bits()
    }
    fn may_contain_batch_into(&self, keys: &[u64], out: &mut Vec<bool>) {
        self.read().may_contain_batch_into(keys, out);
    }
    fn serialize(&self) -> Option<Vec<u8>> {
        self.read().serialize()
    }
}

impl<F: ExclusiveOnlineFilter> OnlineFilter for Locked<F> {
    fn insert(&self, key: u64) {
        self.write().insert(key);
    }
    fn insert_all(&self, keys: &[u64]) {
        self.write().insert_all(keys);
    }
}

/// Builder for filters constructed from the full (not necessarily sorted) key
/// set with a target space budget, mirroring how RocksDB constructs a filter
/// block per SST file.
pub trait FilterBuilder: Send + Sync {
    /// The concrete filter type produced.
    type Filter: PointRangeFilter;

    /// Descriptive name of the family (e.g. `"bloomRF"`, `"Rosetta"`).
    fn family(&self) -> &'static str;

    /// Build a filter over `keys` using roughly `bits_per_key` bits per key.
    fn build(&self, keys: &[u64], bits_per_key: f64) -> Self::Filter;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysYes;
    impl PointRangeFilter for AlwaysYes {
        fn name(&self) -> &'static str {
            "yes"
        }
        fn may_contain(&self, _key: u64) -> bool {
            true
        }
        fn may_contain_range(&self, _lo: u64, _hi: u64) -> bool {
            true
        }
        fn memory_bits(&self) -> usize {
            128
        }
    }

    #[test]
    fn default_bits_per_key() {
        let f = AlwaysYes;
        assert!((f.bits_per_key(16) - 8.0).abs() < f64::EPSILON);
        assert!((f.bits_per_key(0) - 128.0).abs() < f64::EPSILON);
        assert!(f.may_contain(1) && f.may_contain_range(0, 10));
        assert_eq!(f.name(), "yes");
    }

    struct CountingFilter {
        keys: Vec<u64>,
    }
    impl PointRangeFilter for CountingFilter {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn may_contain(&self, key: u64) -> bool {
            self.keys.contains(&key)
        }
        fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
            self.keys.iter().any(|&k| k >= lo && k <= hi)
        }
        fn memory_bits(&self) -> usize {
            self.keys.len() * 64
        }
    }
    impl ExclusiveOnlineFilter for CountingFilter {
        fn insert(&mut self, key: u64) {
            self.keys.push(key);
        }
    }

    #[test]
    fn insert_all_uses_insert() {
        let mut f = CountingFilter { keys: vec![] };
        f.insert_all(&[1, 2, 3]);
        assert!(f.may_contain(2));
        assert!(!f.may_contain(5));
        assert!(f.may_contain_range(3, 10));
        assert!(!f.may_contain_range(4, 10));
    }

    #[test]
    fn locked_lifts_exclusive_filters_to_shared_insertion() {
        let locked = Locked::new(CountingFilter { keys: vec![] });
        // Shared-reference insertion, also through the trait object.
        locked.insert(1);
        let dyn_filter: &dyn OnlineFilter = &locked;
        dyn_filter.insert(2);
        dyn_filter.insert_all(&[3, 4]);
        assert_eq!(dyn_filter.name(), "counting");
        assert!(dyn_filter.may_contain(1) && dyn_filter.may_contain(4));
        let mut verdicts = vec![true; 5];
        dyn_filter.may_contain_batch_into(&[2, 9], &mut verdicts);
        assert_eq!(verdicts, vec![true, false]);
        assert!(dyn_filter.may_contain_range(0, 10) && !dyn_filter.may_contain_range(5, 10));
        assert_eq!(locked.memory_bits(), 4 * 64);
        // Concurrent use compiles and behaves: writers and readers share &self.
        std::thread::scope(|s| {
            s.spawn(|| locked.insert(100));
            s.spawn(|| {
                let _ = locked.may_contain(1);
            });
        });
        let inner = locked.into_inner();
        assert!(inner.may_contain(100));
    }
}
