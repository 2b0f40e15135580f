//! Hash functions: generic 64-bit mixers and the piecewise-monotone hash
//! functions (PMHF) at the heart of bloomRF (Sect. 3.2 of the paper).
//!
//! A PMHF `MH_i` for layer `i` with level `ℓ_i` and gap `Δ_i` maps a key `x`
//! to a bit position
//!
//! ```text
//! MH_i(x) = ( h_i( x >> (ℓ_i + Δ_i - 1) ) mod W ) * 2^(Δ_i-1)  +  ( (x >> ℓ_i) & (2^(Δ_i-1) - 1) )
//! ```
//!
//! where `W` is the number of `2^(Δ_i-1)`-bit words in the layer's segment.
//! The high part selects a word pseudo-randomly from the prefix of `x` on
//! level `ℓ_i + Δ_i - 1`; the low part keeps the least-significant `Δ_i - 1`
//! bits of the level-`ℓ_i` prefix *in order*, so adjacent prefixes land in
//! adjacent bits of the same word and a range of up to `2^(Δ_i-1)` sibling
//! dyadic intervals can be probed with a single word access.

/// Right shift that is well defined for shift amounts `>= 64` (returns 0).
#[inline(always)]
pub fn shr(x: u64, shift: u32) -> u64 {
    if shift >= 64 {
        0
    } else {
        x >> shift
    }
}

/// Left shift that saturates for shift amounts `>= 64` (returns 0).
#[inline(always)]
pub fn shl(x: u64, shift: u32) -> u64 {
    if shift >= 64 {
        0
    } else {
        x << shift
    }
}

/// A strong 64-bit finalizer (SplitMix64 / Murmur3-style avalanche).
///
/// Used as the base hash `h_i` of every PMHF as well as by the baseline
/// Bloom-style filters. It is cheap (3 multiplications) and passes the
/// avalanche requirements needed for the "random scatter at word granularity"
/// property (Fig. 5 of the paper).
#[inline(always)]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// Derive `count` independent sub-seeds from a base seed with SplitMix64.
pub fn derive_seeds(base: u64, count: usize) -> Vec<u64> {
    let mut seeds = Vec::with_capacity(count);
    let mut state = base;
    for _ in 0..count {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        seeds.push(mix64(state));
    }
    seeds
}

/// Double hashing helper for classical Bloom filters (Kirsch–Mitzenmacher):
/// produces the `i`-th probe position from two base hashes.
#[inline(always)]
pub fn double_hash(h1: u64, h2: u64, i: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    h1.wrapping_add(i.wrapping_mul(h2 | 1)) % m
}

/// The base hash used inside a PMHF.
///
/// `Mix` is the production hash; `Affine` reproduces the textbook
/// `h_i(x) = a_i + b_i·x` functions from the paper's worked examples
/// (Fig. 3 / Fig. 4) so the unit tests can pin exact bit positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashKind {
    /// `mix64(x ^ seed)`
    Mix {
        /// Per-layer / per-replica seed.
        seed: u64,
    },
    /// `a + b·x` (wrapping), as in the paper's examples.
    Affine {
        /// Additive constant `a_i`.
        a: u64,
        /// Multiplicative constant `b_i`.
        b: u64,
    },
}

impl HashKind {
    /// Apply the base hash to a (already shifted) prefix value.
    #[inline(always)]
    pub fn hash(&self, x: u64) -> u64 {
        match *self {
            HashKind::Mix { seed } => mix64(x ^ seed),
            HashKind::Affine { a, b } => a.wrapping_add(b.wrapping_mul(x)),
        }
    }
}

/// Word-placement strategy for a PMHF (Sect. 3.2, "Degenerate data
/// distributions"). `Forward` is the default layout; `Alternating` writes the
/// word in reverse bit order for half of the keys (selected by one extra hash
/// bit), which breaks up pathological key patterns that would otherwise pile
/// onto the same in-word offset on every layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WordLayout {
    /// Keep the natural in-word order of prefixes.
    #[default]
    Forward,
    /// Reverse the in-word order for half of the hashed-prefix space.
    Alternating,
}

/// A piecewise-monotone hash function for one layer (and one replica).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pmhf {
    /// Dyadic level `ℓ_i` handled by this layer.
    pub level: u32,
    /// Number of in-word offset bits `Δ_i - 1`; the word holds `2^offset_bits` bits.
    pub offset_bits: u32,
    /// Base hash applied to the hashed prefix.
    pub hash: HashKind,
    /// Word layout (forward or alternating).
    pub layout: WordLayout,
}

impl Pmhf {
    /// Construct a PMHF with the production mixer.
    pub fn new(level: u32, offset_bits: u32, seed: u64) -> Self {
        debug_assert!(
            offset_bits <= 6,
            "word sizes above 64 bits are not supported"
        );
        Self {
            level,
            offset_bits,
            hash: HashKind::Mix { seed },
            layout: WordLayout::Forward,
        }
    }

    /// Construct a PMHF with the paper's affine example hash.
    #[cfg(test)]
    fn with_affine(level: u32, offset_bits: u32, a: u64, b: u64) -> Self {
        Self {
            level,
            offset_bits,
            hash: HashKind::Affine { a, b },
            layout: WordLayout::Forward,
        }
    }

    /// Size of this layer's words in bits.
    #[inline(always)]
    fn word_size_bits(&self) -> u32 {
        1u32 << self.offset_bits
    }

    /// The prefix that feeds the pseudo-random part of the hash:
    /// `x >> (ℓ_i + Δ_i - 1)`.
    #[inline(always)]
    pub fn hashed_prefix(&self, x: u64) -> u64 {
        shr(x, self.level + self.offset_bits)
    }

    /// Word index (in units of this layer's word size) within a region of
    /// `word_count` words, for key `x`.
    #[inline(always)]
    fn word_index(&self, x: u64, word_count: u64) -> u64 {
        self.word_index_of_hashed(self.hashed_prefix(x), word_count)
    }

    /// Word index for an already-computed hashed prefix (`prefix >> (Δ_i-1)`
    /// of the level-`ℓ_i` prefix). Exposed so range lookups can reuse the
    /// value when walking a run of sibling prefixes.
    #[inline(always)]
    pub fn word_index_of_hashed(&self, hashed_prefix: u64, word_count: u64) -> u64 {
        debug_assert!(word_count > 0);
        self.hash.hash(hashed_prefix) % word_count
    }

    /// Order-preserving in-word offset: the least significant `Δ_i - 1` bits of
    /// the level-`ℓ_i` prefix of `x` (possibly reversed for the alternating layout).
    #[inline(always)]
    pub fn offset(&self, x: u64) -> u64 {
        let raw = shr(x, self.level) & ((1u64 << self.offset_bits) - 1);
        self.apply_layout(self.hashed_prefix(x), raw)
    }

    /// Map a raw in-word offset according to the layout. The layout decision
    /// depends only on the hashed prefix, so it is constant within a word and
    /// order within the word is still piecewise monotone (forward or reversed).
    #[inline(always)]
    pub fn apply_layout(&self, hashed_prefix: u64, raw_offset: u64) -> u64 {
        match self.layout {
            WordLayout::Forward => raw_offset,
            WordLayout::Alternating => {
                // The orientation depends only on the hashed prefix (not on the
                // per-replica seed) so that all replicas of a layer agree and
                // replica words can still be combined with a bitwise AND.
                if mix64(hashed_prefix ^ 0xa076_1d64_78bd_642f) & 1 == 0 {
                    raw_offset
                } else {
                    (self.word_size_bits() as u64 - 1) - raw_offset
                }
            }
        }
    }

    /// Absolute bit position inside a region of `word_count` words for key `x`:
    /// `word_index * word_size + offset` — this is `MH_i(x)` of the paper.
    #[inline(always)]
    pub fn bit_position(&self, x: u64, word_count: u64) -> u64 {
        self.word_index(x, word_count) * self.word_size_bits() as u64 + self.offset(x)
    }

    /// Starting bit of the word that key `x` maps to.
    #[cfg(test)]
    fn word_start(&self, x: u64, word_count: u64) -> u64 {
        self.word_index(x, word_count) * self.word_size_bits() as u64
    }

    /// Level-`ℓ_i` prefix of `x`.
    #[inline(always)]
    pub fn prefix(&self, x: u64) -> u64 {
        shr(x, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Fig. 3 / Fig. 4: keys {42, 1414, 50000}, d=16,
    /// Δ=4 (8-bit words), m=32 bits → 4 words, affine hashes
    /// h_i(x) = a_i + b_i·x with a=(2,3,5,7), b=(29,31,37,41) for layers 3..0.
    fn paper_pmhfs() -> [Pmhf; 4] {
        // layer index 0..3 (bottom to top); levels 0,4,8,12; offset_bits = Δ-1 = 3
        [
            Pmhf::with_affine(0, 3, 7, 41),
            Pmhf::with_affine(4, 3, 5, 37),
            Pmhf::with_affine(8, 3, 3, 31),
            Pmhf::with_affine(12, 3, 2, 29),
        ]
    }

    #[test]
    fn paper_figure4_codes_are_reproduced() {
        let word_count = 4; // m = 32 bits, 8-bit words
        let mh = paper_pmhfs();
        // Expected positions from Fig. 4 (layers MH3, MH2, MH1, MH0 columns),
        // listed here bottom-to-top (MH0..MH3).
        let expected: &[(u64, [u64; 4])] = &[
            (42, [2, 10, 24, 16]),
            (1414, [30, 0, 29, 16]),
            (50000, [8, 29, 27, 28]),
            (43, [3, 10, 24, 16]),
            (48, [8, 11, 24, 16]),
        ];
        for &(key, positions) in expected {
            for (layer, want) in positions.iter().enumerate() {
                let got = mh[layer].bit_position(key, word_count);
                assert_eq!(
                    got, *want,
                    "key {key} layer {layer}: expected bit {want}, got {got}"
                );
            }
        }
    }

    #[test]
    fn paper_figure4_bitarray_contents() {
        use crate::bitarray::BitVec;
        let word_count = 4;
        let mh = paper_pmhfs();
        let mut bv = BitVec::new(32);
        for &key in &[42u64, 1414, 50000] {
            for pm in &mh {
                bv.set(pm.bit_position(key, word_count) as usize);
            }
        }
        // Paper: bits 0, 2, 8, 10, 16, 24, 27, 28, 29 and 30 are set.
        let want: Vec<usize> = vec![0, 2, 8, 10, 16, 24, 27, 28, 29, 30];
        let got: Vec<usize> = (0..32).filter(|&i| bv.get(i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn monotonicity_within_a_word() {
        // Keys sharing the same hashed prefix must land in the same word with
        // offsets in key order — the defining PMHF property.
        let pm = Pmhf::new(0, 6, 0xdeadbeef);
        let word_count = 1024;
        let base = 0xABCD_1234_0000u64; // any 64-aligned base
        let w0 = pm.word_index(base, word_count);
        for off in 0..64u64 {
            let key = base + off;
            assert_eq!(
                pm.word_index(key, word_count),
                w0,
                "same word for offset {off}"
            );
            assert_eq!(pm.bit_position(key, word_count), w0 * 64 + off);
        }
        // The next sibling group lands (almost surely) elsewhere but still in order.
        let next = base + 64;
        assert_eq!(pm.offset(next), 0);
    }

    #[test]
    fn prefix_hashing_property_holds() {
        // Keys with identical prefixes on level ℓ_i obtain identical positions
        // for every layer at level >= ℓ_i (eq. 4 of the paper).
        let layers: Vec<Pmhf> = (0..8).map(|i| Pmhf::new(i * 7, 6, 42 + i as u64)).collect();
        let word_count = 4096;
        let a = 0x0123_4567_89AB_CDEFu64;
        let b = a ^ 0x3F; // differs only in the low 6 bits → same prefix on level >= 6
        for pm in &layers {
            if pm.level >= 6 {
                assert_eq!(
                    pm.bit_position(a, word_count),
                    pm.bit_position(b, word_count),
                    "layer at level {} must agree",
                    pm.level
                );
            }
        }
    }

    #[test]
    fn shift_helpers_handle_large_shifts() {
        assert_eq!(shr(u64::MAX, 64), 0);
        assert_eq!(shr(u64::MAX, 200), 0);
        assert_eq!(shr(8, 3), 1);
        assert_eq!(shl(1, 64), 0);
        assert_eq!(shl(1, 3), 8);
    }

    #[test]
    fn mix64_avalanches() {
        // Flipping one input bit should flip roughly half of the output bits.
        let mut total = 0u32;
        let samples = 256;
        for i in 0..samples {
            let x = mix64(i as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let flipped = x ^ 1;
            total += (mix64(x) ^ mix64(flipped)).count_ones();
        }
        let avg = total as f64 / samples as f64;
        assert!(
            (20.0..44.0).contains(&avg),
            "average flipped bits {avg} not avalanche-like"
        );
    }

    #[test]
    fn derive_seeds_are_distinct() {
        let seeds = derive_seeds(7, 16);
        assert_eq!(seeds.len(), 16);
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
        // Deterministic for the same base seed.
        assert_eq!(seeds, derive_seeds(7, 16));
        assert_ne!(seeds, derive_seeds(8, 16));
    }

    #[test]
    fn double_hash_stays_in_range() {
        for i in 0..100 {
            let pos = double_hash(mix64(i), mix64(i ^ 0xff), i, 1031);
            assert!(pos < 1031);
        }
    }

    #[test]
    fn alternating_layout_is_a_permutation_within_the_word() {
        let mut pm = Pmhf::new(0, 3, 99);
        pm.layout = WordLayout::Alternating;
        let word_count = 128;
        // For a fixed hashed prefix, the 8 offsets must map to 8 distinct bits
        // of the same word (forward or reversed — still a single word access).
        let base = 0x5150u64 & !0x7;
        let word = pm.word_start(base, word_count);
        let mut seen: Vec<u64> = (0..8)
            .map(|o| pm.bit_position(base + o, word_count))
            .collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..8).map(|o| word + o).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn affine_hash_matches_paper_layer_values() {
        // Fig. 3.A: plain prefix hashing (not piecewise monotone): h_i(x) = (a_i + b_i * (x >> ℓ_i)) mod 30
        // code(42) = (2, 3, 19, 19) for layers 3..0.
        let m = 30u64;
        let params = [(7u64, 41u64, 0u32), (5, 37, 4), (3, 31, 8), (2, 29, 12)]; // (a, b, level) bottom→top
        let key = 42u64;
        let code: Vec<u64> = params
            .iter()
            .map(|&(a, b, level)| (a.wrapping_add(b.wrapping_mul(shr(key, level)))) % m)
            .collect();
        assert_eq!(code, vec![19, 19, 3, 2]);
    }
}
