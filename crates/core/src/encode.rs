//! Datatype support (Sect. 8): order-preserving encodings that map floats,
//! variable-length strings and attribute pairs onto the `u64` domain bloomRF
//! filters operate on.
//!
//! The preferred entry point is the [`RangeKey`] trait: it packages the codec
//! (`to_domain` / `from_domain`) together with the range-bound semantics of
//! each key type, so the typed facades ([`crate::TypedBloomRf`] and the LSM
//! layer's typed store) can expose `insert`/`contains_range` directly in terms
//! of the key type — making it impossible to insert through one coding and
//! probe through another. The free functions ([`encode_f64`], [`encode_i64`],
//! [`encode_string_point`], …) remain available as the low-level building
//! blocks the trait impls delegate to.

use crate::filter::BloomRf;

/// Monotone coding `φ` for IEEE-754 doubles (Sect. 8, "Floating-Point Numbers"):
/// `φ(x) = bits(x) + 2^63` for non-negative values (sign bit 0) and the bitwise
/// complement of `bits(x)` for negative values. The coding is total-order
/// preserving: `φ(x) < φ(y) ⇔ x < y` (with `-0.0` and `+0.0` adjacent).
///
/// # NaN policy
///
/// The coding is defined on **every** bit pattern and realizes exactly the
/// IEEE-754 `totalOrder` predicate:
///
/// * NaNs with a clear sign bit land **above `+∞`** in the domain,
/// * NaNs with a set sign bit land **below `-∞`**,
/// * `-0.0` and `+0.0` map to the *adjacent* codes `2^63 - 1` and `2^63`
///   (so `-0.0 < +0.0` in the domain even though `-0.0 == +0.0` as floats).
///
/// Inserting or probing with a NaN is therefore well-defined (it behaves like
/// a regular key beyond the infinities) but a range query with a NaN bound
/// covers the NaN band, not a numeric interval — callers that want NaN-free
/// semantics should filter NaNs before encoding. [`RangeKey`]`for f64`
/// inherits this exact total order.
#[inline]
pub fn encode_f64(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 0 {
        bits | (1u64 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`encode_f64`].
#[inline]
pub fn decode_f64(code: u64) -> f64 {
    if code >> 63 == 1 {
        f64::from_bits(code & !(1u64 << 63))
    } else {
        f64::from_bits(!code)
    }
}

/// Monotone coding for `f32`, produced by widening to `f64` (sufficient and
/// keeps a single filter domain).
#[inline]
fn encode_f32(value: f32) -> u64 {
    encode_f64(value as f64)
}

/// Monotone coding for signed 64-bit integers (flip the sign bit).
#[inline]
pub fn encode_i64(value: i64) -> u64 {
    (value as u64) ^ (1u64 << 63)
}

/// Inverse of [`encode_i64`].
#[inline]
pub fn decode_i64(code: u64) -> i64 {
    (code ^ (1u64 << 63)) as i64
}

/// Encode a variable-length byte string into a `u64` the way SuRF-Hash and
/// bloomRF do (Sect. 8): the first seven bytes fill the seven most-significant
/// bytes; the least-significant byte holds a one-byte hash of the *remaining*
/// bytes and the total length so that point queries distinguish strings that
/// share a 7-byte prefix.
#[inline]
pub fn encode_string_point(s: &[u8]) -> u64 {
    let mut value = encode_string_prefix(s);
    let mut h: u64 = 0xcbf29ce484222325; // FNV offset basis
    h = h.wrapping_mul(0x100000001b3) ^ (s.len() as u64);
    for &b in s.iter().skip(7) {
        h = h.wrapping_mul(0x100000001b3) ^ (b as u64);
    }
    value |= crate::hashing::mix64(h) & 0xFF;
    value
}

/// Prefix-only encoding of a string: the first seven bytes in the top seven
/// byte positions, low byte zero. Range queries over strings use this with a
/// `0x00` / `0xFF` low byte for the lower / upper bound respectively.
#[inline]
fn encode_string_prefix(s: &[u8]) -> u64 {
    let mut value = 0u64;
    for i in 0..7 {
        let byte = s.get(i).copied().unwrap_or(0);
        value |= (byte as u64) << (8 * (7 - i));
    }
    value
}

/// Inclusive `u64` bounds for a range query over strings `[lo, hi]`.
pub fn string_range_bounds(lo: &[u8], hi: &[u8]) -> (u64, u64) {
    (encode_string_prefix(lo), encode_string_prefix(hi) | 0xFF)
}

/// An order-preserving codec between a key type and the `u64` domain bloomRF
/// filters operate on (Sect. 8, "Support for further Datatypes").
///
/// # Laws
///
/// Every implementation upholds:
///
/// * **Monotonicity** — `a < b ⇔ a.to_domain() < b.to_domain()` under the
///   type's documented total order (for floats that is IEEE-754 `totalOrder`;
///   see [`encode_f64`]). This is what makes typed range queries exact: a
///   value lies in `[lo, hi]` iff its code lies in `range_bounds(lo, hi)`.
/// * **Round-trip** — where the codec is invertible,
///   `K::from_domain(k.to_domain()) == Some(k)`. Non-invertible codecs (byte
///   strings, which hash their tail) return `None`.
/// * **Containment** — `k.to_domain()` lies inside `range_bounds(lo, hi)`
///   whenever `lo <= k <= hi` (byte strings override `range_bounds` so that
///   this holds for their prefix coding despite the hashed point code).
///
/// These laws are enforced by property tests (`tests/typed_api.rs`), and the
/// typed facades ([`crate::TypedBloomRf`], the LSM layer's typed store)
/// delegate to the `u64` core through this trait so their answers are
/// bit-identical to the manual `encode_* + u64` path by construction.
///
/// # Example
///
/// ```
/// use bloomrf::encode::RangeKey;
///
/// // Floats: IEEE-754 totalOrder, invertible.
/// assert!((-1.5f64).to_domain() < 2.5f64.to_domain());
/// assert_eq!(f64::from_domain(2.5f64.to_domain()), Some(2.5));
///
/// // Byte strings: 7-byte prefix + hashed tail, range bounds cover prefixes.
/// let key: &[u8] = b"user_00042_suffix";
/// let (lo, hi) = <&[u8]>::range_bounds(&b"user_00042".as_slice(), &b"user_00042~".as_slice());
/// assert!(lo <= key.to_domain() && key.to_domain() <= hi);
/// ```
pub trait RangeKey {
    /// Number of domain bits the codec needs; filters built for this key type
    /// (e.g. through [`crate::BloomRfBuilder::key_type`]) default to this
    /// domain width. 64 for every codec except the 32-bit integers.
    const DOMAIN_BITS: u32;

    /// Order-preserving map into the `u64` filter domain.
    fn to_domain(&self) -> u64;

    /// Inverse of [`RangeKey::to_domain`] where the codec is invertible;
    /// `None` for codes outside the codec's image and for non-invertible
    /// codecs (byte strings).
    fn from_domain(code: u64) -> Option<Self>
    where
        Self: Sized;

    /// Inclusive `u64` domain bounds of the typed range `[lo, hi]`.
    ///
    /// The default is `(lo.to_domain(), hi.to_domain())`, which is exact for
    /// every invertible codec. Byte strings override this with the prefix
    /// coding of [`string_range_bounds`] so that string-prefix range
    /// semantics live in one place.
    fn range_bounds(lo: &Self, hi: &Self) -> (u64, u64) {
        (lo.to_domain(), hi.to_domain())
    }
}

/// Identity codec: `u64` keys are the filter domain.
impl RangeKey for u64 {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        *self
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        Some(code)
    }
}

/// Sign-flip codec for `i64` (see [`encode_i64`]).
impl RangeKey for i64 {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        encode_i64(*self)
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        Some(decode_i64(code))
    }
}

/// Widening codec for `u32`; codes stay below `2^32`, so a 32-bit filter
/// domain suffices.
impl RangeKey for u32 {
    const DOMAIN_BITS: u32 = 32;
    #[inline]
    fn to_domain(&self) -> u64 {
        *self as u64
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        u32::try_from(code).ok()
    }
}

/// Sign-flip codec for `i32`; codes stay below `2^32`.
impl RangeKey for i32 {
    const DOMAIN_BITS: u32 = 32;
    #[inline]
    fn to_domain(&self) -> u64 {
        ((*self as u32) ^ (1u32 << 31)) as u64
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        u32::try_from(code).ok().map(|c| (c ^ (1u32 << 31)) as i32)
    }
}

/// Monotone float codec (see [`encode_f64`]); the total order is IEEE-754
/// `totalOrder`, so NaNs are ordinary keys beyond the infinities.
impl RangeKey for f64 {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        encode_f64(*self)
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        Some(decode_f64(code))
    }
}

/// `f32` codec: widened to `f64` (see `encode_f32`), so `f32` and `f64`
/// keys share one filter domain. `from_domain` rejects codes that did not
/// come from an `f32`.
impl RangeKey for f32 {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        encode_f32(*self)
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        let wide = decode_f64(code);
        let narrow = wide as f32;
        ((narrow as f64).to_bits() == wide.to_bits()).then_some(narrow)
    }
}

/// Byte-string codec: points use [`encode_string_point`] (7-byte prefix plus
/// a hashed tail byte), ranges use the prefix coding of
/// [`string_range_bounds`]. Not invertible — `from_domain` is always `None`.
impl RangeKey for &[u8] {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        encode_string_point(self)
    }
    #[inline]
    fn from_domain(_code: u64) -> Option<Self> {
        None
    }
    #[inline]
    fn range_bounds(lo: &Self, hi: &Self) -> (u64, u64) {
        string_range_bounds(lo, hi)
    }
}

/// Owned byte-string codec; same coding as `&[u8]`.
impl RangeKey for Vec<u8> {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        encode_string_point(self)
    }
    #[inline]
    fn from_domain(_code: u64) -> Option<Self> {
        None
    }
    #[inline]
    fn range_bounds(lo: &Self, hi: &Self) -> (u64, u64) {
        string_range_bounds(lo, hi)
    }
}

/// Two-attribute codec (Sect. 8, "Multi-Attribute bloomRF"): the pair is the
/// concatenation `<A, B>` with `A` in the high 32 bits. A conjunctive
/// predicate `A = a AND B ∈ [lo, hi]` is a single typed range query
/// `[(a, lo), (a, hi)]`; insert both orders (`(a, b)` and `(b, a)`) to answer
/// equality on either attribute, as [`MultiAttrBloomRf`] does internally.
impl RangeKey for (u32, u32) {
    const DOMAIN_BITS: u32 = 64;
    #[inline]
    fn to_domain(&self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    #[inline]
    fn from_domain(code: u64) -> Option<Self> {
        Some(((code >> 32) as u32, code as u32))
    }
}

/// Reduce a 64-bit attribute value to `bits` of precision (keeping the most
/// significant bits), used by the multi-attribute filter to pack two
/// attributes into one 64-bit key.
#[inline]
fn reduce_precision(value: u64, bits: u32) -> u64 {
    debug_assert!(bits > 0 && bits <= 64);
    value >> (64 - bits)
}

/// Which of the two attributes carries the equality predicate in a
/// multi-attribute probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EqAttribute {
    /// Equality on attribute A, range on attribute B.
    A,
    /// Equality on attribute B, range on attribute A.
    B,
}

/// A two-attribute bloomRF (Sect. 8, "Multi-Attribute bloomRF").
///
/// Both attribute values are reduced to 32 bits of precision, concatenated in
/// both orders (`<A,B>` and `<B,A>`) and inserted into a single underlying
/// filter. A conjunctive predicate with an equality on one attribute and a
/// range (or equality) on the other is answered by a single range probe on the
/// concatenation that has the equality attribute in the high half.
pub struct MultiAttrBloomRf {
    filter: BloomRf,
    precision_bits: u32,
}

impl MultiAttrBloomRf {
    /// Wrap an existing 64-bit bloomRF; `precision_bits` (usually 32) is the
    /// precision each attribute is reduced to.
    pub fn new(filter: BloomRf, precision_bits: u32) -> Self {
        assert!(precision_bits > 0 && precision_bits * 2 <= 64);
        Self {
            filter,
            precision_bits,
        }
    }

    /// The underlying filter.
    pub fn inner(&self) -> &BloomRf {
        &self.filter
    }

    fn pack(&self, high: u64, low: u64) -> u64 {
        let p = self.precision_bits;
        (reduce_precision(high, p) << p) | reduce_precision(low, p)
    }

    /// Insert the tuple `(a, b)`: both concatenation orders are inserted.
    pub fn insert(&self, a: u64, b: u64) {
        self.filter.insert(self.pack(a, b));
        self.filter.insert(self.pack(b, a));
    }

    /// Probe `eq_attr = eq_value AND other ∈ [range_lo, range_hi]`.
    pub fn may_match(
        &self,
        eq_attr: EqAttribute,
        eq_value: u64,
        range_lo: u64,
        range_hi: u64,
    ) -> bool {
        if range_lo > range_hi {
            return false;
        }
        let p = self.precision_bits;
        let eq_reduced = reduce_precision(eq_value, p);
        let lo_reduced = reduce_precision(range_lo, p);
        let hi_reduced = reduce_precision(range_hi, p);
        let (lo_key, hi_key) = match eq_attr {
            // <A,B> has A in the high half; <B,A> has B in the high half.
            EqAttribute::A | EqAttribute::B => (
                (eq_reduced << p) | lo_reduced,
                (eq_reduced << p) | hi_reduced,
            ),
        };
        self.filter.contains_range(lo_key, hi_key)
    }

    /// Probe an equality on both attributes (`A = a AND B = b`).
    pub fn may_match_point(&self, a: u64, b: u64) -> bool {
        self.filter.contains_point(self.pack(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_coding_is_monotone() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -4711.5,
            -1.0,
            -1.0e-300,
            -0.0,
            0.0,
            1.0e-300,
            0.5,
            1.0,
            4711.25,
            1.0e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                encode_f64(w[0]) <= encode_f64(w[1]),
                "{} -> {} must be monotone",
                w[0],
                w[1]
            );
        }
        // Strictly monotone for distinct values other than ±0.
        assert!(encode_f64(-1.0) < encode_f64(1.0));
        assert!(encode_f64(1.0) < encode_f64(1.0 + f64::EPSILON));
    }

    #[test]
    fn f64_nan_policy_is_ieee_total_order() {
        // The documented NaN policy: sign-clear NaNs above +inf, sign-set
        // NaNs below -inf — exactly IEEE-754 totalOrder.
        let pos_nan = f64::NAN.abs();
        let neg_nan = -f64::NAN.abs();
        assert!(encode_f64(f64::INFINITY) < encode_f64(pos_nan));
        assert!(encode_f64(neg_nan) < encode_f64(f64::NEG_INFINITY));
        assert!(encode_f64(neg_nan) < encode_f64(pos_nan));
        // NaN codes round-trip bit-exactly like every other pattern.
        assert_eq!(decode_f64(encode_f64(pos_nan)).to_bits(), pos_nan.to_bits());
        assert_eq!(decode_f64(encode_f64(neg_nan)).to_bits(), neg_nan.to_bits());
        // Infinities sit strictly outside every finite value.
        assert!(encode_f64(f64::MAX) < encode_f64(f64::INFINITY));
        assert!(encode_f64(f64::NEG_INFINITY) < encode_f64(f64::MIN));
        // -0.0 and +0.0 occupy adjacent codes around 2^63.
        assert_eq!(encode_f64(-0.0), (1u64 << 63) - 1);
        assert_eq!(encode_f64(0.0), 1u64 << 63);
        assert_eq!(encode_f64(0.0), encode_f64(-0.0) + 1);
        // RangeKey for f64 inherits the same order verbatim.
        assert_eq!(pos_nan.to_domain(), encode_f64(pos_nan));
        assert!(f64::INFINITY.to_domain() < pos_nan.to_domain());
        assert!((-0.0f64).to_domain() < 0.0f64.to_domain());
    }

    #[test]
    fn range_key_impls_are_monotone_and_roundtrip() {
        // u64 is the identity.
        assert_eq!(7u64.to_domain(), 7);
        assert_eq!(u64::from_domain(7), Some(7));
        // i64 / i32 sign flips.
        assert!((-3i64).to_domain() < 4i64.to_domain());
        assert_eq!(i64::from_domain((-3i64).to_domain()), Some(-3));
        assert!((-3i32).to_domain() < 4i32.to_domain());
        assert_eq!(i32::from_domain(i32::MIN.to_domain()), Some(i32::MIN));
        assert_eq!(i32::MIN.to_domain(), 0);
        assert_eq!(i32::MAX.to_domain(), u32::MAX as u64);
        // 32-bit codecs fit a 32-bit domain.
        assert_eq!(<u32 as RangeKey>::DOMAIN_BITS, 32);
        assert_eq!(<i32 as RangeKey>::DOMAIN_BITS, 32);
        assert!(u32::MAX.to_domain() <= u32::MAX as u64);
        assert_eq!(u32::from_domain(1 << 40), None, "code outside u32 image");
        // f32 widens to the f64 coding and rejects non-f32 codes.
        assert_eq!(1.5f32.to_domain(), encode_f64(1.5));
        assert_eq!(f32::from_domain(1.5f32.to_domain()), Some(1.5));
        assert_eq!(f32::from_domain(encode_f64(1.0 + f64::EPSILON)), None);
        // Pair concatenation: lexicographic order, invertible.
        assert!((1u32, u32::MAX).to_domain() < (2u32, 0u32).to_domain());
        assert_eq!(
            <(u32, u32)>::from_domain((3u32, 9u32).to_domain()),
            Some((3, 9))
        );
        // Byte strings: point code inside own range bounds, not invertible.
        let s: &[u8] = b"prefix__one";
        let (lo, hi) = <&[u8]>::range_bounds(&s, &s);
        assert!(lo <= s.to_domain() && s.to_domain() <= hi);
        assert_eq!(<&[u8]>::from_domain(s.to_domain()), None);
        let v = s.to_vec();
        assert_eq!(v.to_domain(), s.to_domain());
        assert_eq!(
            <Vec<u8>>::range_bounds(&b"a".to_vec(), &b"b".to_vec()),
            string_range_bounds(b"a", b"b")
        );
    }

    #[test]
    fn f64_coding_roundtrips() {
        for &v in &[-123.456, -0.0, 0.0, 1.5, 1e-12, -1e12, f64::MAX, f64::MIN] {
            let back = decode_f64(encode_f64(v));
            assert_eq!(back.to_bits(), v.to_bits(), "roundtrip of {v}");
        }
    }

    #[test]
    fn f32_and_i64_codings() {
        assert!(encode_f32(-3.5) < encode_f32(2.5));
        assert!(encode_i64(-5) < encode_i64(3));
        assert!(encode_i64(i64::MIN) < encode_i64(0));
        assert!(encode_i64(0) < encode_i64(i64::MAX));
        assert_eq!(decode_i64(encode_i64(-42)), -42);
        assert_eq!(decode_i64(encode_i64(i64::MAX)), i64::MAX);
    }

    #[test]
    fn string_prefix_encoding_preserves_order() {
        let words: Vec<&[u8]> = vec![b"", b"a", b"apple", b"applesauce", b"banana", b"zebra"];
        for w in words.windows(2) {
            assert!(
                encode_string_prefix(w[0]) <= encode_string_prefix(w[1]),
                "{:?} <= {:?}",
                w[0],
                w[1]
            );
        }
        // Strings sharing a 7-byte prefix map to the same prefix code but
        // (almost surely) different point codes.
        let a = b"prefix__one";
        let b = b"prefix__two";
        assert_eq!(encode_string_prefix(a), encode_string_prefix(b));
        assert_ne!(encode_string_point(a), encode_string_point(b));
        // Point code lies within the range bounds of its own prefix.
        let (lo, hi) = string_range_bounds(a, a);
        let point = encode_string_point(a);
        assert!(lo <= point && point <= hi);
    }

    #[test]
    fn string_filter_end_to_end() {
        let filter = BloomRf::builder()
            .expected_keys(1000)
            .bits_per_key(16.0)
            .build()
            .unwrap();
        let keys: Vec<String> = (0..500).map(|i| format!("user_{i:05}_suffix")).collect();
        for k in &keys {
            filter.insert(encode_string_point(k.as_bytes()));
        }
        for k in keys.iter().step_by(13) {
            assert!(filter.contains_point(encode_string_point(k.as_bytes())));
        }
        // Range over the shared prefix region must be positive.
        let (lo, hi) = string_range_bounds(b"user_00000", b"user_00499_zzz");
        assert!(filter.contains_range(lo, hi));
    }

    #[test]
    fn reduce_precision_keeps_msbs() {
        assert_eq!(reduce_precision(u64::MAX, 32), u32::MAX as u64);
        assert_eq!(reduce_precision(1u64 << 63, 1), 1);
        assert_eq!(reduce_precision(0x0123_4567_89AB_CDEF, 16), 0x0123);
    }

    #[test]
    fn multi_attribute_filter_answers_conjunctive_predicates() {
        let inner = BloomRf::builder()
            .expected_keys(20_000)
            .bits_per_key(18.0)
            .build()
            .unwrap();
        let filter = MultiAttrBloomRf::new(inner, 32);
        // Insert tuples (run, object_id) with run < 1000 and clustered object ids.
        let tuples: Vec<(u64, u64)> = (0..5_000u64)
            .map(|i| ((i % 997) << 32, (i * 37 + 11) << 32))
            .collect();
        for &(a, b) in &tuples {
            filter.insert(a, b);
        }
        // Every inserted tuple matches an equality probe on either attribute.
        for &(a, b) in tuples.iter().step_by(17) {
            assert!(filter.may_match_point(a, b));
            assert!(filter.may_match(EqAttribute::A, a, b, b));
            assert!(filter.may_match(EqAttribute::B, b, a, a));
            assert!(filter.may_match(EqAttribute::A, a, 0, u64::MAX));
        }
        // Reversed range is empty.
        assert!(!filter.may_match(EqAttribute::A, tuples[0].0, 10, 5));
    }

    #[test]
    fn multi_attribute_rejects_most_nonexistent_combinations() {
        let inner = BloomRf::builder()
            .expected_keys(4_000)
            .bits_per_key(20.0)
            .build()
            .unwrap();
        let filter = MultiAttrBloomRf::new(inner, 32);
        for i in 0..1_000u64 {
            filter.insert(i << 40, (i + 7) << 40);
        }
        let mut fp = 0;
        let trials = 1000;
        for i in 0..trials {
            // Equality values that were never inserted.
            let a = (i as u64 + 5_000) << 40;
            if filter.may_match(EqAttribute::A, a, 0, u64::MAX) {
                fp += 1;
            }
        }
        assert!(
            (fp as f64) / (trials as f64) < 0.2,
            "false-positive rate too high: {fp}/{trials}"
        );
    }
}
