//! Bit-array primitives used by bloomRF and the baseline filters.
//!
//! Two flavours are provided:
//!
//! * [`BitVec`] — a plain, single-threaded bit vector with word-granular access.
//!   Used for snapshots and serialization, baseline filters and succinct
//!   structures.
//! * [`AtomicBits`] — a lock-free bit array backed by `AtomicU64`. bloomRF is an
//!   *online* filter (Problem 2 in the paper): keys can be inserted while queries
//!   run concurrently, so a [`crate::BloomRf`] keeps every segment and its
//!   exact-layer bitmap in one shared `AtomicBits` buffer.
//!
//! Both types address sub-words of `1..=64` bits. bloomRF's piecewise-monotone
//! hash functions read and write *words* of `2^(Δ-1)` bits; because every
//! supported word size divides 64 and segments are 64-bit aligned, a logical
//! word never straddles two physical `u64` words.

use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};

/// Round a bit count up to a whole number of 64-bit words.
#[inline]
pub(crate) fn words_for_bits(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A plain growable-free bit vector with word-level helpers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    bits: usize,
}

impl BitVec {
    /// Create a zeroed bit vector with room for `bits` bits (rounded up to 64).
    pub fn new(bits: usize) -> Self {
        Self {
            words: vec![0u64; words_for_bits(bits)],
            bits,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Total memory consumed by the payload, in bits (multiple of 64).
    #[inline]
    pub fn capacity_bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Set bit `idx` to one.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        debug_assert!(
            idx < self.bits,
            "bit index {idx} out of range {}",
            self.bits
        );
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Clear bit `idx`.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        debug_assert!(idx < self.bits);
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Read bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(
            idx < self.bits,
            "bit index {idx} out of range {}",
            self.bits
        );
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Load a logical word of `width` bits (1..=64, dividing 64) starting at the
    /// `width`-aligned bit position `start`.
    #[inline]
    pub fn load_word(&self, start: usize, width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width) && 64 % width == 0);
        debug_assert_eq!(start % width as usize, 0, "unaligned word load");
        let word = self.words[start / 64];
        let shift = (start % 64) as u32;
        if width == 64 {
            word
        } else {
            (word >> shift) & ((1u64 << width) - 1)
        }
    }

    /// OR a logical word of `width` bits into the array at aligned position `start`.
    #[cfg(test)]
    pub(crate) fn or_word(&mut self, start: usize, width: u32, value: u64) {
        debug_assert!((1..=64).contains(&width) && 64 % width == 0);
        debug_assert_eq!(start % width as usize, 0, "unaligned word store");
        let shift = (start % 64) as u32;
        self.words[start / 64] |= value << shift;
    }

    /// Count of set bits in the whole array.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if any bit in the inclusive bit range `[lo, hi]` is set.
    pub fn any_set_in(&self, lo: usize, hi: usize) -> bool {
        if lo > hi {
            return false;
        }
        debug_assert!(hi < self.bits);
        let (lw, hw) = (lo / 64, hi / 64);
        if lw == hw {
            let mask = mask_between(lo % 64, hi % 64);
            return self.words[lw] & mask != 0;
        }
        if self.words[lw] & mask_between(lo % 64, 63) != 0 {
            return true;
        }
        for w in lw + 1..hw {
            if self.words[w] != 0 {
                return true;
            }
        }
        self.words[hw] & mask_between(0, hi % 64) != 0
    }

    /// Access the raw backing words (read-only).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate over the lengths of maximal runs of zero bits, as used by the
    /// PMHF random-scatter analysis (Fig. 5.B of the paper).
    pub fn zero_run_lengths(&self) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut current = 0usize;
        for idx in 0..self.bits {
            if self.get(idx) {
                if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            } else {
                current += 1;
            }
        }
        if current > 0 {
            runs.push(current);
        }
        runs
    }

    /// Distances (in bits) between the starts of consecutive zero runs
    /// (Fig. 5.C of the paper).
    pub fn zero_run_distances(&self) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut in_run = false;
        for idx in 0..self.bits {
            if !self.get(idx) {
                if !in_run {
                    starts.push(idx);
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Serialize into a little-endian byte vector (length header + words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.bits as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from the representation produced by [`BitVec::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?) as usize;
        let nwords = words_for_bits(bits);
        if bytes.len() < 8 + nwords * 8 {
            return None;
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let off = 8 + i * 8;
            words.push(u64::from_le_bytes(bytes[off..off + 8].try_into().ok()?));
        }
        Some(Self { words, bits })
    }
}

/// Inclusive bit mask covering bit positions `lo..=hi` within a 64-bit word.
#[inline]
pub fn mask_between(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi < 64);
    let width = hi - lo + 1;
    if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    }
}

/// A fixed-size, lock-free bit array for concurrent insert/lookup: one
/// buffer of whole 64-bit words, shared through an [`Arc`]. Cloning the
/// handle shares the buffer; [`AtomicBits::snapshot`] copies it.
///
/// A [`crate::BloomRf`] keeps all of its bits — every segment and the exact
/// bitmap — in one such buffer, each region at a fixed word offset, so a
/// caller holding only the handle can test probe positions computed by any
/// filter of the same configuration.
///
/// All loads and stores use relaxed ordering: the filter tolerates observing a
/// slightly stale bit array (a concurrent insert may not yet be visible), which
/// only ever produces a *false negative for a key inserted concurrently with
/// the query* — the same semantics RocksDB exposes for its memtable/filter pair.
/// Once an insert has returned, subsequent queries on the same thread observe it.
#[derive(Clone, Debug)]
pub struct AtomicBits {
    words: Arc<[AtomicU64]>,
}

impl AtomicBits {
    /// Create a zeroed atomic bit array with room for `bits` bits, rounded
    /// up to whole 64-bit words.
    pub fn new(bits: usize) -> Self {
        Self {
            words: (0..words_for_bits(bits))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Number of addressable bits (a multiple of 64).
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() * 64
    }

    /// True if the array holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total payload bits; equal to [`AtomicBits::len`].
    #[inline]
    pub fn capacity_bits(&self) -> usize {
        self.len()
    }

    /// True if `self` and `other` are handles of the same buffer.
    #[inline]
    pub fn same_buffer(&self, other: &AtomicBits) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }

    /// Atomically set bit `idx`.
    #[inline]
    pub fn set(&self, idx: usize) {
        // ordering: idempotent bit-set; cross-thread visibility is provided by
        // the caller's synchronization (join/lock), per the type's contract.
        self.words[idx / 64].fetch_or(1u64 << (idx % 64), Ordering::Relaxed);
    }

    /// Read bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        self.word_has(idx / 64, 1u64 << (idx % 64))
    }

    /// True if physical word `word` has any bit of `mask` set.
    #[inline]
    fn word_has(&self, word: usize, mask: u64) -> bool {
        // ordering: a stale read only yields a false negative for a key
        // inserted concurrently with this query (documented contract).
        self.words[word].load(Ordering::Relaxed) & mask != 0
    }

    /// Best-effort hint that bit `idx` will be read soon: request the cache
    /// line holding its physical word. Purely a scheduling hint — no memory
    /// is accessed architecturally and nothing synchronizes — so it is sound
    /// to call concurrently with writers for the same reason `get` is.
    #[inline]
    pub fn prefetch_bit(&self, idx: usize) {
        crate::kernel::prefetch_read(&self.words[idx / 64]);
    }

    /// Load a logical word of `width` bits (1..=64, dividing 64) at the aligned
    /// bit position `start`.
    #[inline]
    pub fn load_word(&self, start: usize, width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width) && 64 % width == 0);
        debug_assert_eq!(start % width as usize, 0, "unaligned word load");
        // ordering: stale probe reads are tolerated (false negative for
        // concurrent inserts only); see the type-level contract.
        let word = self.words[start / 64].load(Ordering::Relaxed);
        let shift = (start % 64) as u32;
        if width == 64 {
            word
        } else {
            (word >> shift) & ((1u64 << width) - 1)
        }
    }

    /// OR a logical word of `width` bits into the array at aligned position `start`.
    #[inline]
    pub(crate) fn or_word(&self, start: usize, width: u32, value: u64) {
        debug_assert!((1..=64).contains(&width) && 64 % width == 0);
        debug_assert_eq!(start % width as usize, 0, "unaligned word store");
        let shift = (start % 64) as u32;
        // ordering: idempotent bit-OR; visibility via caller synchronization.
        self.words[start / 64].fetch_or(value << shift, Ordering::Relaxed);
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        self.count_ones_in(0..self.words.len())
    }

    /// Count of set bits in the physical words `words`.
    pub(crate) fn count_ones_in(&self, words: std::ops::Range<usize>) -> usize {
        self.words[words]
            .iter()
            // ordering: diagnostic census; exactness under concurrent writes
            // is not promised.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// True if any bit in the inclusive bit range `[lo, hi]` is set.
    pub fn any_set_in(&self, lo: usize, hi: usize) -> bool {
        if lo > hi {
            return false;
        }
        let (lw, hw) = (lo / 64, hi / 64);
        if lw == hw {
            return self.word_has(lw, mask_between(lo % 64, hi % 64));
        }
        // Range probes tolerate stale words — a miss on a concurrently-set
        // bit is the documented false-negative case.
        self.word_has(lw, mask_between(lo % 64, 63))
            || (lw + 1..hw).any(|w| self.word_has(w, u64::MAX))
            || self.word_has(hw, mask_between(0, hi % 64))
    }

    /// Snapshot the array into a plain [`BitVec`] (used for serialization and
    /// the scatter analysis).
    pub fn snapshot(&self) -> BitVec {
        self.snapshot_region(0, self.len())
    }

    /// Snapshot the `bits`-bit region starting at physical word `first` as a
    /// plain [`BitVec`] of `bits` bits.
    pub(crate) fn snapshot_region(&self, first: usize, bits: usize) -> BitVec {
        let words = self.words[first..first + words_for_bits(bits)]
            .iter()
            // ordering: callers snapshot quiescent or externally-synchronized
            // arrays; a torn-across-words view is acceptable otherwise.
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        BitVec { words, bits }
    }

    /// OR every set bit of `other` into this array (set union of the two bit
    /// sets). Both must have the same capacity. Zero words of the source are
    /// skipped, so unioning a sparse snapshot touches only the words that
    /// carry bits; concurrent readers may observe the union partially applied
    /// (the same relaxed visibility as [`AtomicBits::set`]).
    pub fn union_from(&self, other: &BitVec) {
        assert_eq!(
            other.capacity_bits(),
            self.capacity_bits(),
            "bit-store union requires equal capacities"
        );
        self.or_words(0, other.words());
    }

    /// OR `words` into the physical words starting at `first`, skipping the
    /// zero ones.
    pub(crate) fn or_words(&self, first: usize, words: &[u64]) {
        for (i, word) in words.iter().enumerate() {
            if *word != 0 {
                self.or_word((first + i) * 64, 64, *word);
            }
        }
    }

    /// Restore an atomic array from a plain snapshot.
    #[cfg(test)]
    pub(crate) fn from_bitvec(bv: &BitVec) -> Self {
        let bits = Self::new(bv.capacity_bits());
        bits.or_words(0, bv.words());
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::new(200);
        assert_eq!(bv.len(), 200);
        assert!(!bv.get(0));
        bv.set(0);
        bv.set(63);
        bv.set(64);
        bv.set(199);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(199));
        assert!(!bv.get(1) && !bv.get(65) && !bv.get(198));
        assert_eq!(bv.count_ones(), 4);
        bv.clear(63);
        assert!(!bv.get(63));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn word_access_respects_alignment_and_width() {
        let mut bv = BitVec::new(128);
        // Word width 8 at position 16..24
        bv.or_word(16, 8, 0b1010_0001);
        assert_eq!(bv.load_word(16, 8), 0b1010_0001);
        assert!(bv.get(16));
        assert!(!bv.get(17));
        assert!(bv.get(21));
        assert!(bv.get(23));
        // Width 64 word
        bv.or_word(64, 64, u64::MAX);
        assert_eq!(bv.load_word(64, 64), u64::MAX);
        // Width 1 behaves like a single bit
        let mut one = BitVec::new(64);
        one.or_word(5, 1, 1);
        assert!(one.get(5));
        assert_eq!(one.load_word(5, 1), 1);
        assert_eq!(one.load_word(6, 1), 0);
    }

    #[test]
    fn mask_between_is_inclusive() {
        assert_eq!(mask_between(0, 0), 1);
        assert_eq!(mask_between(0, 63), u64::MAX);
        assert_eq!(mask_between(3, 5), 0b111000);
        assert_eq!(mask_between(63, 63), 1u64 << 63);
    }

    #[test]
    fn any_set_in_spanning_words() {
        let mut bv = BitVec::new(512);
        bv.set(130);
        assert!(bv.any_set_in(0, 511));
        assert!(bv.any_set_in(130, 130));
        assert!(bv.any_set_in(64, 191));
        assert!(!bv.any_set_in(0, 129));
        assert!(!bv.any_set_in(131, 511));
        assert!(!bv.any_set_in(200, 100)); // empty range
    }

    #[test]
    fn zero_runs_and_distances() {
        let mut bv = BitVec::new(16);
        // pattern: 0 1 1 0 0 0 1 0 ... (rest zero)
        bv.set(1);
        bv.set(2);
        bv.set(6);
        let runs = bv.zero_run_lengths();
        assert_eq!(runs, vec![1, 3, 9]);
        let dists = bv.zero_run_distances();
        assert_eq!(dists, vec![3, 4]);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut bv = BitVec::new(300);
        for i in (0..300).step_by(7) {
            bv.set(i);
        }
        let bytes = bv.to_bytes();
        let restored = BitVec::from_bytes(&bytes).expect("valid bytes");
        assert_eq!(bv, restored);
        assert!(BitVec::from_bytes(&bytes[..4]).is_none());
    }

    #[test]
    fn atomic_bits_basic_operations() {
        let ab = AtomicBits::new(256);
        ab.set(7);
        ab.set(200);
        ab.or_word(8, 8, 0xF0);
        assert!(ab.get(7));
        assert!(ab.get(200));
        assert_eq!(ab.load_word(8, 8), 0xF0);
        assert!(ab.any_set_in(0, 255));
        assert!(!ab.any_set_in(16, 199));
        let snap = ab.snapshot();
        assert_eq!(snap.count_ones(), ab.count_ones());
        let back = AtomicBits::from_bitvec(&snap);
        assert_eq!(back.count_ones(), ab.count_ones());

        // Every operation the filter performs agrees with the plain BitVec.
        let atomic = AtomicBits::new(4096);
        let mut plain = BitVec::new(4096);
        for i in 0..4096u64 {
            let bit = (crate::hashing::mix64(i) % 4096) as usize;
            atomic.set(bit);
            plain.set(bit);
        }
        atomic.or_word(128, 8, 0xA5);
        plain.or_word(128, 8, 0xA5);
        assert_eq!((atomic.len(), atomic.capacity_bits()), (4096, 4096));
        assert!(!atomic.is_empty());
        assert_eq!(atomic.count_ones(), plain.count_ones());
        for i in 0..4096usize {
            assert_eq!(atomic.get(i), plain.get(i), "bit {i}");
        }
        for start in (0..4096).step_by(64) {
            assert_eq!(atomic.load_word(start, 64), plain.load_word(start, 64));
        }
        for (lo, hi) in [(0usize, 4095usize), (100, 100), (63, 64), (1000, 3000)] {
            assert_eq!(
                atomic.any_set_in(lo, hi),
                plain.any_set_in(lo, hi),
                "range [{lo},{hi}]"
            );
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn atomic_bits_concurrent_inserts() {
        use std::sync::Arc;
        let ab = Arc::new(AtomicBits::new(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ab = Arc::clone(&ab);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000usize {
                    ab.set((t as usize * 1000 + i) % ab.len());
                    // Every thread also races the others on the same 500
                    // bits, so concurrent sets of one word must not lose any.
                    if i % 2 == 0 {
                        ab.set(8000 + i / 2);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ab.count_ones(), 4500);
    }

    #[test]
    fn union_from_merges_bits() {
        let src = AtomicBits::new(1024);
        for i in (0..1024).step_by(13) {
            src.set(i);
        }
        let snap = src.snapshot();
        let dst = AtomicBits::new(1024);
        dst.set(5);
        dst.union_from(&snap);
        for i in 0..1024usize {
            assert_eq!(dst.get(i), i == 5 || i % 13 == 0, "bit {i}");
        }
        // Union is idempotent.
        let before = dst.snapshot();
        dst.union_from(&snap);
        assert_eq!(dst.snapshot(), before);
    }

    #[test]
    #[should_panic(expected = "equal capacities")]
    fn union_from_rejects_capacity_mismatch() {
        let dst = AtomicBits::new(128);
        dst.union_from(&BitVec::new(256));
    }

    #[test]
    fn words_for_bits_rounding() {
        assert_eq!(words_for_bits(0), 0);
        assert_eq!(words_for_bits(1), 1);
        assert_eq!(words_for_bits(64), 1);
        assert_eq!(words_for_bits(65), 2);
        assert_eq!(words_for_bits(640), 10);
    }
}
