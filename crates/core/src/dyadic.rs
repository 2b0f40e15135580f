//! Dyadic intervals, prefixes and range decompositions (Sect. 2 and 4).
//!
//! A *dyadic interval* (DI) on level `ℓ` spans `2^ℓ` consecutive values and is
//! aligned to a multiple of `2^ℓ`; it is identified by its *prefix*
//! `p = start >> ℓ`. The DIs of a `d`-bit domain form a complete binary tree
//! with `d + 1` levels. bloomRF's range lookup decomposes an arbitrary query
//! interval into dyadic intervals along two root-to-leaf paths (one per query
//! bound), walking them layer by layer inside the filter; Rosetta uses the
//! classical canonical decomposition, which is provided here.

use crate::hashing::{shl, shr};

/// A dyadic interval, identified by its prefix and level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DyadicInterval {
    /// Prefix of the interval: `start >> level`.
    pub prefix: u64,
    /// Dyadic level; the interval spans `2^level` values.
    pub level: u32,
}

impl DyadicInterval {
    /// The DI on `level` containing `key`.
    #[inline]
    pub fn containing(key: u64, level: u32) -> Self {
        Self {
            prefix: shr(key, level),
            level,
        }
    }

    /// Inclusive lower bound of the interval.
    #[inline]
    pub fn start(&self) -> u64 {
        shl(self.prefix, self.level)
    }

    /// Inclusive upper bound of the interval.
    #[inline]
    pub fn end(&self) -> u64 {
        if self.level >= 64 {
            u64::MAX
        } else {
            self.start() | ((1u64 << self.level) - 1)
        }
    }

    /// Number of values covered (saturating at `u64::MAX` for level 64).
    #[inline]
    pub fn len(&self) -> u64 {
        if self.level >= 64 {
            u64::MAX
        } else {
            1u64 << self.level
        }
    }

    /// Dyadic intervals are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does the interval contain `key`?
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        shr(key, self.level) == self.prefix
    }

    /// Does this interval overlap `[lo, hi]`?
    #[inline]
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.start() <= hi && self.end() >= lo
    }

    /// Parent interval one level up.
    #[inline]
    pub fn parent(&self) -> Self {
        Self {
            prefix: self.prefix >> 1,
            level: self.level + 1,
        }
    }

    /// Left / right children one level down (level must be > 0).
    #[inline]
    pub fn children(&self) -> (Self, Self) {
        debug_assert!(self.level > 0);
        let l = Self {
            prefix: self.prefix << 1,
            level: self.level - 1,
        };
        let r = Self {
            prefix: (self.prefix << 1) | 1,
            level: self.level - 1,
        };
        (l, r)
    }
}

/// Canonical dyadic decomposition of the inclusive interval `[lo, hi]` within a
/// `domain_bits`-wide domain: the unique minimal set of disjoint DIs whose
/// union is exactly `[lo, hi]`, at most two per level. This is the
/// decomposition Rosetta probes directly; bloomRF's two-path lookup visits the
/// same intervals grouped by layer.
pub fn canonical_decomposition(lo: u64, hi: u64, domain_bits: u32) -> Vec<DyadicInterval> {
    assert!(lo <= hi, "empty interval [{lo}, {hi}]");
    let mut out = Vec::new();
    let mut lo = lo;
    let max = if domain_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << domain_bits) - 1
    };
    debug_assert!(hi <= max, "interval exceeds the domain");
    loop {
        // Largest aligned DI starting at `lo` and not exceeding `hi`.
        let align = if lo == 0 {
            domain_bits.min(63)
        } else {
            lo.trailing_zeros()
        };
        let remaining = hi - lo; // inclusive span minus one
        let fit = if remaining == u64::MAX {
            64
        } else {
            64 - (remaining + 1).leading_zeros() - 1
        };
        let level = align.min(fit).min(domain_bits);
        out.push(DyadicInterval {
            prefix: shr(lo, level),
            level,
        });
        let end = shl(shr(lo, level), level)
            | if level >= 64 {
                u64::MAX
            } else {
                (1u64 << level) - 1
            };
        if end >= hi {
            break;
        }
        lo = end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_geometry() {
        let di = DyadicInterval {
            prefix: 0b11,
            level: 1,
        };
        assert_eq!(di.start(), 6);
        assert_eq!(di.end(), 7);
        assert_eq!(di.len(), 2);
        assert!(di.contains(6) && di.contains(7) && !di.contains(5));
        assert!(di.overlaps(7, 20));
        assert!(!di.overlaps(8, 20));
        assert_eq!(
            di.parent(),
            DyadicInterval {
                prefix: 1,
                level: 2
            }
        );
        let (l, r) = di.parent().children();
        assert_eq!(
            l,
            DyadicInterval {
                prefix: 0b10,
                level: 1
            }
        );
        assert_eq!(r, di);
    }

    #[test]
    fn paper_prefix_examples_section2() {
        // d = 3: prefixes of key 5 = 0b101 are 1 on level 2, 2 on level 1, 5 on level 0.
        assert_eq!(DyadicInterval::containing(5, 2).prefix, 1);
        assert_eq!(DyadicInterval::containing(5, 1).prefix, 2);
        assert_eq!(DyadicInterval::containing(5, 0).prefix, 5);
        // Prefix 0b11 on level 1 corresponds to the DI [6, 7].
        let di = DyadicInterval {
            prefix: 0b11,
            level: 1,
        };
        assert_eq!((di.start(), di.end()), (6, 7));
        // Exactly keys 6 and 7 share that prefix.
        assert_eq!(DyadicInterval::containing(6, 1), di);
        assert_eq!(DyadicInterval::containing(7, 1), di);
        assert_ne!(DyadicInterval::containing(5, 1), di);
    }

    #[test]
    fn full_domain_interval() {
        let di = DyadicInterval {
            prefix: 0,
            level: 64,
        };
        assert_eq!(di.start(), 0);
        assert_eq!(di.end(), u64::MAX);
        assert!(di.contains(u64::MAX));
        assert!(di.contains(0));
    }

    fn check_decomposition(lo: u64, hi: u64, d: u32) {
        let parts = canonical_decomposition(lo, hi, d);
        // Disjoint, sorted, covering exactly [lo, hi].
        let mut cursor = lo;
        for di in &parts {
            assert_eq!(
                di.start(),
                cursor,
                "gap or overlap at {cursor} in {parts:?}"
            );
            assert!(di.end() <= hi);
            cursor = di.end().wrapping_add(1);
        }
        assert_eq!(cursor, hi.wrapping_add(1));
        // Minimality: at most two intervals per level.
        for level in 0..=d {
            assert!(parts.iter().filter(|p| p.level == level).count() <= 2);
        }
    }

    #[test]
    fn canonical_decomposition_paper_example() {
        // Fig. 7: [45, 60] = [45,45] ∪ [46,47] ∪ [48,55] ∪ [56,59] ∪ [60,60]
        let parts = canonical_decomposition(45, 60, 16);
        let spans: Vec<(u64, u64)> = parts.iter().map(|p| (p.start(), p.end())).collect();
        assert_eq!(
            spans,
            vec![(45, 45), (46, 47), (48, 55), (56, 59), (60, 60)]
        );
    }

    #[test]
    fn canonical_decomposition_edge_cases() {
        check_decomposition(0, 0, 16);
        check_decomposition(0, 65535, 16);
        check_decomposition(1, 65534, 16);
        check_decomposition(42, 43, 16);
        check_decomposition(7, 7, 16);
        check_decomposition(0, u64::MAX, 64);
        check_decomposition(1, u64::MAX, 64);
        check_decomposition(u64::MAX - 5, u64::MAX, 64);
        check_decomposition(1 << 40, (1 << 41) + 12345, 64);
    }
}
