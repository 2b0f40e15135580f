//! Seeded inputs: the bijective key mixer, values, and a small RNG.
//!
//! Keys are `mix64(seed, i)`. The mixer is a bijection on `u64` for a fixed
//! seed, so index `< n` is present and index `>= n` is *provably* absent —
//! the hot loop needs no key array, and [`KeySpace::index_of`] inverts a key
//! back to its index for the oracle.

const M1: u64 = 0xBF58_476D_1CE4_E5B9;
const M2: u64 = 0x94D0_49BB_1331_11EB;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative inverse of an odd `a` modulo 2^64 (Newton iteration; each
/// step doubles the number of correct low bits).
const fn inv_odd(a: u64) -> u64 {
    let mut x = a;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}
const M1_INV: u64 = inv_odd(M1);
const M2_INV: u64 = inv_odd(M2);

/// The splitmix64 finalizer: a bijection on `u64`.
#[inline]
fn fin(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(M1);
    z = (z ^ (z >> 27)).wrapping_mul(M2);
    z ^ (z >> 31)
}

#[inline]
fn unfin(mut z: u64) -> u64 {
    z ^= (z >> 31) ^ (z >> 62);
    z = z.wrapping_mul(M2_INV);
    z ^= (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(M1_INV);
    z ^ (z >> 30) ^ (z >> 60)
}

/// `i`-th value of the seeded stream; bijective in `i`.
#[inline]
pub fn mix64(seed: u64, i: u64) -> u64 {
    fin(i.wrapping_add(seed.wrapping_mul(GOLDEN)))
}

/// Inverse of [`mix64`]: the `i` with `mix64(seed, i) == x`.
#[inline]
pub fn unmix64(seed: u64, x: u64) -> u64 {
    unfin(x).wrapping_sub(seed.wrapping_mul(GOLDEN))
}

/// The key set of one workload: indices `0..n` are present.
#[derive(Clone, Copy, Debug)]
pub struct KeySpace {
    pub seed: u64,
    pub n: u64,
}

impl KeySpace {
    #[inline]
    pub fn key(&self, index: u64) -> u64 {
        mix64(self.seed, index)
    }

    /// A key that is not in the set, for any `j` (index `n + j`, wrapping
    /// only after `2^64 - n` values).
    #[inline]
    pub fn absent(&self, j: u64) -> u64 {
        debug_assert!(j < u64::MAX - self.n);
        mix64(self.seed, self.n + j)
    }

    #[inline]
    pub fn index_of(&self, key: u64) -> u64 {
        unmix64(self.seed, key)
    }

    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.index_of(key) < self.n
    }

    /// Oracle for a short range: does any present key lie in `[lo, hi]`?
    /// Walks the range through the inverse mixer (used only outside timed
    /// spans, on ranges of at most 2^16 keys).
    pub fn range_non_empty(&self, lo: u64, hi: u64) -> bool {
        (lo..=hi).any(|x| self.contains(x))
    }
}

/// Values are 128 bytes derived from `(key, version)`, with the version in
/// the first eight bytes so a stale read is recognisable as such.
pub const VALUE_LEN: usize = 128;

pub fn value_for(key: u64, version: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(VALUE_LEN);
    out.extend_from_slice(&version.to_le_bytes());
    let mut word = 0u64;
    while out.len() < VALUE_LEN {
        out.extend_from_slice(&mix64(key ^ version.rotate_left(32), word).to_le_bytes());
        word += 1;
    }
    out
}

/// Version recorded in a value written by [`value_for`], if the bytes are
/// such a value for `key`.
pub fn version_of(key: u64, value: &[u8]) -> Option<u64> {
    let version = u64::from_le_bytes(value.get(..8)?.try_into().ok()?);
    (value == value_for(key, version).as_slice()).then_some(version)
}

/// Deterministic RNG over the mixer (one stream per `(seed, salt)`).
pub struct Rng {
    seed: u64,
    counter: u64,
}

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        Self {
            seed: mix64(seed, salt),
            counter: 0,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        mix64(self.seed, self.counter)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-40
    /// for every bound used here.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over a stream of words: the op-stream fingerprint the determinism
/// tests compare.
#[derive(Clone, Copy)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    #[inline]
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixer_is_invertible() {
        for seed in [0, 1, 42, u64::MAX] {
            for i in [0, 1, 2, 1 << 20, u64::MAX - 1, u64::MAX] {
                assert_eq!(unmix64(seed, mix64(seed, i)), i);
                assert_eq!(mix64(seed, unmix64(seed, i)), i);
            }
        }
    }

    #[test]
    fn present_and_absent_key_sets_are_disjoint() {
        let space = KeySpace { seed: 7, n: 10_000 };
        let present: std::collections::HashSet<u64> = (0..space.n).map(|i| space.key(i)).collect();
        assert_eq!(present.len() as u64, space.n, "present keys are distinct");
        for j in 0..50_000 {
            let k = space.absent(j);
            assert!(!present.contains(&k));
            assert!(!space.contains(k));
        }
        assert!(present.iter().all(|&k| space.contains(k)));
    }

    #[test]
    fn range_oracle_finds_exactly_the_present_keys() {
        let space = KeySpace { seed: 3, n: 1000 };
        let k = space.key(17);
        assert!(space.range_non_empty(k.saturating_sub(5), k.saturating_add(5)));
        // 1000 keys in 2^64: a 2^10 window right after a key is empty.
        assert!(!space.range_non_empty(k + 1, k + 1024));
    }

    #[test]
    fn values_carry_their_version() {
        let v = value_for(99, 5);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(version_of(99, &v), Some(5));
        assert_eq!(version_of(98, &v), None);
        assert_ne!(value_for(99, 5), value_for(99, 6));
    }

    #[test]
    fn rng_streams_depend_on_seed_and_salt() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(1, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(1, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(2, 1), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(1, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let mut items: Vec<u32> = (0..100).collect();
        Rng::new(5, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
