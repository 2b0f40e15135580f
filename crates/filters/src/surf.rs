//! SuRF (Zhang et al., SIGMOD 2018): the Fast Succinct Trie point-range filter.
//!
//! Keys (here: 64-bit integers, treated as 8 big-endian bytes) are stored in a
//! *truncated* trie: each key is represented by its shortest unique byte
//! prefix. The trie is encoded in the LOUDS-Sparse format — three parallel
//! per-label arrays (`labels`, `has_child`, `louds`) navigated with rank/select
//! — which costs ~10 bits per key plus optional suffix bits:
//!
//! * **SuRF-Base** — no suffixes; point queries accept any key sharing a stored
//!   prefix (high point FPR, smallest size).
//! * **SuRF-Hash** — an `h`-bit hash of the full key per leaf; cuts the point
//!   FPR by `2^-h`, does not help range queries.
//! * **SuRF-Real** — the next `r` real key bits after the truncated prefix;
//!   helps both point and (boundary of) range queries.
//!
//! Range queries locate the first stored prefix whose represented key range
//! ends at or after the query's lower bound and check whether it starts at or
//! before the upper bound (the `seek`/`moveToNext` operation of the original
//! implementation). This reproduces SuRF's known behaviour: excellent FPR for
//! large ranges, weaker for short ranges that fall inside truncated regions.
//!
//! SuRF is an *offline* structure: it is built from the complete (sorted) key
//! set and does not support inserts — one of the motivating limitations
//! (Problem 2) that bloomRF addresses.

use bloomrf::bitarray::BitVec;
use bloomrf::hashing::mix64;
use bloomrf::traits::{FilterBuilder, PointRangeFilter};
use std::collections::VecDeque;

use crate::bitvector::RankSelectBitVec;

/// Suffix mode of the filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SurfMode {
    /// No suffixes (SuRF-Base).
    Base,
    /// `h`-bit hash suffix per key (SuRF-Hash).
    Hash(u8),
    /// `r` real key bits per key (SuRF-Real).
    Real(u8),
}

impl SurfMode {
    fn suffix_bits(&self) -> u32 {
        match self {
            SurfMode::Base => 0,
            SurfMode::Hash(b) | SurfMode::Real(b) => *b as u32,
        }
    }
}

/// The SuRF filter (LOUDS-Sparse truncated trie over u64 keys).
#[derive(Clone, Debug)]
pub struct SurfFilter {
    labels: Vec<u8>,
    has_child: RankSelectBitVec,
    louds: RankSelectBitVec,
    suffixes: BitVec,
    mode: SurfMode,
    num_keys: usize,
}

impl SurfFilter {
    /// Build a SuRF filter over `keys` (deduplicated and sorted internally).
    pub fn build(keys: &[u64], mode: SurfMode) -> Self {
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let n = sorted.len();
        let bytes: Vec<[u8; 8]> = sorted.iter().map(|k| k.to_be_bytes()).collect();

        let mut labels: Vec<u8> = Vec::with_capacity(n * 2);
        let mut has_child_bits: Vec<bool> = Vec::with_capacity(n * 2);
        let mut louds_bits: Vec<bool> = Vec::with_capacity(n * 2);
        // (key index, consumed byte depth) per leaf, in label-position order.
        let mut leaves: Vec<(usize, usize)> = Vec::with_capacity(n);

        if n > 0 {
            let mut queue: VecDeque<(usize, usize, usize)> = VecDeque::new();
            queue.push_back((0, n, 0));
            while let Some((start, end, depth)) = queue.pop_front() {
                let mut i = start;
                let mut first = true;
                while i < end {
                    let b = bytes[i][depth];
                    let mut j = i + 1;
                    while j < end && bytes[j][depth] == b {
                        j += 1;
                    }
                    labels.push(b);
                    louds_bits.push(first);
                    first = false;
                    if j - i == 1 || depth == 7 {
                        has_child_bits.push(false);
                        leaves.push((i, depth + 1));
                    } else {
                        has_child_bits.push(true);
                        queue.push_back((i, j, depth + 1));
                    }
                    i = j;
                }
            }
        }

        let to_rs = |bits: &[bool]| {
            let mut bv = BitVec::new(bits.len().max(1));
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    bv.set(i);
                }
            }
            RankSelectBitVec::new(bv)
        };
        let has_child = to_rs(&has_child_bits);
        let louds = to_rs(&louds_bits);

        // Suffix storage, one fixed-width entry per leaf in position order.
        let sbits = mode.suffix_bits();
        let mut suffixes = BitVec::new((leaves.len() * sbits as usize).max(1));
        if sbits > 0 {
            for (leaf_id, &(key_idx, depth)) in leaves.iter().enumerate() {
                let key = sorted[key_idx];
                let value = match mode {
                    SurfMode::Base => 0,
                    SurfMode::Hash(_) => mix64(key) & low_mask(sbits),
                    SurfMode::Real(_) => real_suffix(key, depth, sbits),
                };
                write_bits(&mut suffixes, leaf_id * sbits as usize, sbits, value);
            }
        }

        Self {
            labels,
            has_child,
            louds,
            suffixes,
            mode,
            num_keys: n,
        }
    }

    /// Number of keys the filter was built from.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// The suffix mode.
    pub fn mode(&self) -> SurfMode {
        self.mode
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.louds.count_ones()
    }

    /// First label position of the child node of the internal label at `pos`.
    #[inline]
    fn child_start(&self, pos: usize) -> usize {
        let child_node = self.has_child.rank1(pos) + 1;
        self.louds.select1(child_node)
    }

    /// `[start, end)` label range of the node whose first label is at `start`.
    #[inline]
    fn node_end(&self, start: usize) -> usize {
        let node_id = self.louds.rank1(start);
        if node_id + 1 < self.num_nodes() {
            self.louds.select1(node_id + 1)
        } else {
            self.labels.len()
        }
    }

    #[inline]
    fn leaf_suffix(&self, pos: usize) -> u64 {
        let sbits = self.mode.suffix_bits();
        if sbits == 0 {
            return 0;
        }
        let leaf_id = self.has_child.rank0(pos);
        read_bits(&self.suffixes, leaf_id * sbits as usize, sbits)
    }

    /// Point membership test.
    pub fn contains(&self, key: u64) -> bool {
        if self.num_keys == 0 {
            return false;
        }
        let bytes = key.to_be_bytes();
        let mut node_start = 0usize;
        for (depth, &b) in bytes.iter().enumerate() {
            let node_end = self.node_end(node_start);
            let mut found = None;
            for pos in node_start..node_end {
                match self.labels[pos].cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        found = Some(pos);
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Less => {}
                }
            }
            let Some(pos) = found else { return false };
            if self.has_child.get(pos) {
                node_start = self.child_start(pos);
            } else {
                // Leaf: the stored prefix matches; verify the suffix if any.
                return match self.mode {
                    SurfMode::Base => true,
                    SurfMode::Hash(bits) => {
                        self.leaf_suffix(pos) == (mix64(key) & low_mask(bits as u32))
                    }
                    SurfMode::Real(bits) => {
                        self.leaf_suffix(pos) == real_suffix(key, depth + 1, bits as u32)
                    }
                };
            }
        }
        // All 8 bytes consumed inside internal nodes: cannot happen for 8-byte
        // keys (leaves appear by depth 8); answer conservatively.
        true
    }

    /// Smallest `path_min` over leaves whose represented range ends at or after
    /// `lo` (the trie analogue of `lowerBound(lo)`).
    fn seek_ge(
        &self,
        node_start: usize,
        depth: usize,
        prefix: u64,
        lo: &[u8; 8],
        tight: bool,
    ) -> Option<u64> {
        let node_end = self.node_end(node_start);
        let want = if tight { lo[depth] } else { 0 };
        for pos in node_start..node_end {
            let b = self.labels[pos];
            if b < want {
                continue;
            }
            let now_tight = tight && b == want;
            let path = prefix | ((b as u64) << (8 * (7 - depth)));
            if self.has_child.get(pos) {
                if depth + 1 < 8 {
                    if let Some(v) =
                        self.seek_ge(self.child_start(pos), depth + 1, path, lo, now_tight)
                    {
                        return Some(v);
                    }
                    // Subtree exhausted below lo; continue with the next label,
                    // which is strictly greater and therefore not tight.
                    continue;
                }
                return Some(path);
            }
            // Leaf: its represented range is [path, path | low_bytes_all_ones],
            // whose end is >= lo because either the path is a prefix of lo
            // (now_tight) or the path already exceeds lo's prefix.
            return Some(path);
        }
        None
    }

    /// Approximate range emptiness test.
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        if lo > hi || self.num_keys == 0 {
            return false;
        }
        if lo == hi {
            return self.contains(lo);
        }
        match self.seek_ge(0, 0, 0, &lo.to_be_bytes(), true) {
            Some(path_min) => path_min <= hi,
            None => false,
        }
    }
}

fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The `bits` key bits immediately following the first `consumed_bytes` bytes.
fn real_suffix(key: u64, consumed_bytes: usize, bits: u32) -> u64 {
    let start_bit = consumed_bytes * 8;
    if start_bit >= 64 || bits == 0 {
        return 0;
    }
    let shifted = key << start_bit;
    shifted >> (64 - bits.min(64 - start_bit as u32)) & low_mask(bits)
}

fn write_bits(bv: &mut BitVec, start: usize, bits: u32, value: u64) {
    for i in 0..bits as usize {
        if (value >> (bits as usize - 1 - i)) & 1 == 1 {
            bv.set(start + i);
        }
    }
}

fn read_bits(bv: &BitVec, start: usize, bits: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..bits as usize {
        out = (out << 1) | u64::from(bv.get(start + i));
    }
    out
}

impl PointRangeFilter for SurfFilter {
    fn name(&self) -> &'static str {
        "SuRF"
    }
    fn may_contain(&self, key: u64) -> bool {
        self.contains(key)
    }
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
        self.contains_range(lo, hi)
    }
    fn memory_bits(&self) -> usize {
        self.labels.len() * 8
            + self.has_child.memory_bits()
            + self.louds.memory_bits()
            + self.suffixes.capacity_bits()
    }
}

/// Builder that picks the suffix length from the bits/key budget: the
/// LOUDS-Sparse base structure costs ~10 bits per label; whatever remains of
/// the budget is spent on real (or hash) suffix bits, capped at 32.
#[derive(Clone, Copy, Debug, Default)]
pub struct SurfBuilder {
    /// Use hash suffixes instead of real key bits.
    pub hash_suffix: bool,
}

impl FilterBuilder for SurfBuilder {
    type Filter = SurfFilter;
    fn family(&self) -> &'static str {
        "SuRF"
    }
    fn build(&self, keys: &[u64], bits_per_key: f64) -> SurfFilter {
        // Probe the base size first, then spend the remainder on suffixes.
        let base = SurfFilter::build(keys, SurfMode::Base);
        let n = base.num_keys().max(1);
        let base_bpk = base.memory_bits() as f64 / n as f64;
        let spare = (bits_per_key - base_bpk).floor().clamp(0.0, 32.0) as u8;
        if spare == 0 {
            return base;
        }
        let mode = if self.hash_suffix {
            SurfMode::Hash(spare)
        } else {
            SurfMode::Real(spare)
        };
        SurfFilter::build(keys, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_keys() -> Vec<u64> {
        vec![
            0x0000_0000_0000_0001,
            0x0000_0000_0000_00FF,
            0x0000_0000_0001_0000,
            0x0102_0304_0506_0708,
            0x0102_0304_0506_0709,
            0x0102_0304_FFFF_FFFF,
            0x8000_0000_0000_0000,
            0xFFFF_FFFF_FFFF_FFFE,
        ]
    }

    #[test]
    fn no_false_negatives_all_modes() {
        let keys = sample_keys();
        for mode in [SurfMode::Base, SurfMode::Hash(8), SurfMode::Real(8)] {
            let f = SurfFilter::build(&keys, mode);
            assert_eq!(f.num_keys(), keys.len());
            for &k in &keys {
                assert!(f.contains(k), "{mode:?}: missing key {k:#x}");
                assert!(f.contains_range(k, k));
                assert!(f.contains_range(k.saturating_sub(10), k.saturating_add(10)));
            }
        }
    }

    #[test]
    fn truncated_prefixes_cause_point_false_positives_base_mode() {
        // Keys sharing long prefixes with a probe: SuRF-Base answers positive
        // for any key sharing a stored (truncated) prefix — the documented
        // weakness that Hash/Real suffixes mitigate.
        let keys = vec![0x1111_0000_0000_0000u64, 0x2222_0000_0000_0000u64];
        let base = SurfFilter::build(&keys, SurfMode::Base);
        // The trie truncates after the first distinguishing byte (0x11 / 0x22).
        assert!(
            base.contains(0x1111_2222_3333_4444),
            "same first byte → accepted by Base"
        );
        let real = SurfFilter::build(&keys, SurfMode::Real(16));
        assert!(
            !real.contains(0x11FF_2222_3333_4444),
            "real suffix rejects differing bits"
        );
        assert!(real.contains(0x1111_0000_0000_0000));
        let hash = SurfFilter::build(&keys, SurfMode::Hash(16));
        assert!(!hash.contains(0x11FF_2222_3333_4444));
    }

    #[test]
    fn range_queries_over_large_gaps_are_rejected() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i << 40).collect();
        let f = SurfFilter::build(&keys, SurfMode::Real(8));
        // Empty gap far from any stored prefix region.
        assert!(!f.contains_range((1500u64 << 40) + 5, (1500u64 << 40) + 500));
        // Range spanning a stored key is positive.
        assert!(f.contains_range((499u64 << 40) - 5, (499u64 << 40) + 5));
        assert!(f.contains_range(0, u64::MAX));
        // Range entirely before the first key / after the last key.
        assert!(
            f.contains_range(0, 10),
            "0 is below the smallest key but range contains key 0? no"
        );
    }

    #[test]
    fn range_before_first_and_after_last() {
        let keys = vec![1000u64 << 32, 2000u64 << 32];
        let f = SurfFilter::build(&keys, SurfMode::Base);
        assert!(!f.contains_range(0, 500));
        assert!(!f.contains_range(u64::MAX - 1000, u64::MAX));
        assert!(f.contains_range(500, 1000u64 << 32));
        assert!(f.contains_range(1500u64 << 32, u64::MAX));
    }

    #[test]
    fn short_ranges_in_truncated_regions_are_false_positives() {
        // The known SuRF weakness (Problem 1 in the bloomRF paper): short
        // ranges that fall inside a truncated suffix region cannot be pruned.
        let keys = vec![0xABCD_0000_1234_5678u64];
        let f = SurfFilter::build(&keys, SurfMode::Base);
        // Truncation keeps only the first byte (single key → unique immediately),
        // so any short range within 0xAB........ is accepted.
        assert!(f.contains_range(0xAB00_0000_0000_0100, 0xAB00_0000_0000_01FF));
    }

    #[test]
    fn point_fpr_decreases_with_suffix_bits() {
        let keys: Vec<u64> = (0..20_000u64).map(mix64).collect();
        let probe = |f: &SurfFilter| {
            let mut fp = 0usize;
            for i in 0..20_000u64 {
                if f.contains(mix64(i + 123_456_789)) {
                    fp += 1;
                }
            }
            fp
        };
        let base = probe(&SurfFilter::build(&keys, SurfMode::Base));
        let hash4 = probe(&SurfFilter::build(&keys, SurfMode::Hash(4)));
        let hash8 = probe(&SurfFilter::build(&keys, SurfMode::Hash(8)));
        assert!(
            hash4 < base,
            "4-bit suffix must reduce FPs: {hash4} vs {base}"
        );
        assert!(
            hash8 < hash4,
            "8-bit suffix must reduce further: {hash8} vs {hash4}"
        );
        assert!(hash8 as f64 / 20_000.0 < 0.02);
    }

    #[test]
    fn memory_is_about_ten_bits_per_key_plus_suffix() {
        let keys: Vec<u64> = (0..50_000u64).map(mix64).collect();
        let base = SurfFilter::build(&keys, SurfMode::Base);
        let bpk = base.memory_bits() as f64 / keys.len() as f64;
        assert!(bpk < 18.0, "base bits/key {bpk} too large");
        assert!(bpk > 6.0, "base bits/key {bpk} implausibly small");
        let real8 = SurfFilter::build(&keys, SurfMode::Real(8));
        let delta = (real8.memory_bits() - base.memory_bits()) as f64 / keys.len() as f64;
        assert!(
            (delta - 8.0).abs() < 1.0,
            "suffix adds ~8 bits/key, got {delta}"
        );
    }

    #[test]
    fn builder_respects_budget() {
        let keys: Vec<u64> = (0..10_000u64).map(mix64).collect();
        for bpk in [10.0, 14.0, 18.0, 22.0] {
            let f = SurfBuilder::default().build(&keys, bpk);
            let actual = f.memory_bits() as f64 / keys.len() as f64;
            assert!(actual <= bpk + 4.0, "budget {bpk}: actual {actual}");
            for &k in keys.iter().step_by(101) {
                assert!(f.may_contain(k));
            }
        }
        assert_eq!(SurfBuilder::default().family(), "SuRF");
    }

    #[test]
    fn empty_and_duplicate_inputs() {
        let empty = SurfFilter::build(&[], SurfMode::Real(8));
        assert!(!empty.contains(0));
        assert!(!empty.contains_range(0, u64::MAX));
        let dups = SurfFilter::build(&[5, 5, 5, 7, 7], SurfMode::Real(8));
        assert_eq!(dups.num_keys(), 2);
        assert!(dups.contains(5) && dups.contains(7));
        assert!(dups.contains_range(0, 6));
    }

    use bloomrf::hashing::mix64;

    #[test]
    fn matches_exact_set_semantics_on_dense_keys() {
        // With 8 full bytes of separation the trie needs all bytes for some
        // keys; validate lookups against the exact set.
        let keys: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(3)).collect();
        let set: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let f = SurfFilter::build(&keys, SurfMode::Real(16));
        for probe in 0..6000u64 {
            if set.contains(&probe) {
                assert!(f.contains(probe), "false negative for {probe}");
            }
        }
        // Range sanity against the exact set.
        for start in (0..6000u64).step_by(97) {
            let end = start + 2;
            let truth = (start..=end).any(|v| set.contains(&v));
            if truth {
                assert!(
                    f.contains_range(start, end),
                    "false negative range [{start},{end}]"
                );
            }
        }
    }
}
