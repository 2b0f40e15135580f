//! Analytical FPR models (Sect. 5–7 of the paper).
//!
//! Three families of estimates are provided:
//!
//! 1. The **basic model** (Sect. 5): point FPR `(1 - e^{-kn/m})^k` and the
//!    range-FPR bound of eq. (6), `ε ≤ 2 (1 - e^{-kn/m})^{k - log2(R)/Δ}`.
//! 2. The **comparison models** (Sect. 6): the information-theoretic lower
//!    bounds of Carter et al. (point) and Goswami et al. (range), plus the
//!    space model of Rosetta's first-cut solution.
//! 3. The **extended model** (Sect. 7): a per-level recursion of
//!    `(tp_ℓ, fp_ℓ, tn_ℓ)` that evaluates the FPR of an arbitrary
//!    [`BloomRfConfig`], including replicated hash functions, memory segments
//!    and the exact layer. The tuning advisor minimizes over this model.

use crate::config::BloomRfConfig;

/// Probability that a single bit of a Bloom-style array of `m` bits remains
/// zero after `writes` independent bit writes, `p = (1 - C/m)^{writes}`.
/// `c` models the influence of the data distribution; `C = 1` for uniform,
/// normal and zipfian data (Fig. 5 of the paper).
#[inline]
fn zero_bit_probability(writes: f64, m_bits: f64, c: f64) -> f64 {
    if m_bits <= 0.0 {
        return 0.0;
    }
    (-c * writes / m_bits).exp()
}

/// Point-query FPR of basic bloomRF (and of a standard Bloom filter with `k`
/// hash functions): `(1 - e^{-kn/m})^k`.
pub fn point_fpr(k: u32, n_keys: f64, m_bits: f64) -> f64 {
    let p = zero_bit_probability(k as f64 * n_keys, m_bits, 1.0);
    (1.0 - p).powi(k as i32)
}

/// Range-query FPR bound of basic bloomRF, eq. (6):
/// `ε ≤ 2 (1 - e^{-kn/m})^{k - log2(R)/Δ}` for ranges of at most `range` values.
pub fn basic_range_fpr(k: u32, delta: u32, n_keys: f64, m_bits: f64, range: f64) -> f64 {
    let p = zero_bit_probability(k as f64 * n_keys, m_bits, 1.0);
    let exponent = k as f64 - range.max(1.0).log2() / delta as f64;
    if exponent <= 0.0 {
        return 1.0;
    }
    (2.0 * (1.0 - p).powf(exponent)).min(1.0)
}

/// Number of layers of basic bloomRF: `k = ceil((d - log2 n) / Δ)`.
pub fn basic_layer_count(domain_bits: u32, n_keys: usize, delta: u32) -> u32 {
    let log2n = (usize::BITS - n_keys.max(1).leading_zeros()).saturating_sub(1);
    (domain_bits.saturating_sub(log2n))
        .max(delta)
        .div_ceil(delta)
        .max(1)
}

/// Bits/key basic bloomRF needs for a target range FPR `epsilon` at maximum
/// range `range` (solves eq. (6) for `m/n`).
pub fn basic_bits_per_key_for_fpr(
    domain_bits: u32,
    n_keys: usize,
    delta: u32,
    range: f64,
    epsilon: f64,
) -> f64 {
    let k = basic_layer_count(domain_bits, n_keys, delta) as f64;
    let exponent = k - range.max(1.0).log2() / delta as f64;
    if exponent <= 0.0 {
        return f64::INFINITY;
    }
    // epsilon = 2 (1 - p)^exponent  =>  p = 1 - (epsilon/2)^(1/exponent)
    let p = 1.0 - (epsilon / 2.0).powf(1.0 / exponent);
    if p <= 0.0 || p >= 1.0 {
        return f64::INFINITY;
    }
    // p = e^{-k n / m}  =>  m/n = -k / ln p
    -k / p.ln()
}

/// Carter et al. lower bound for point filters: `m/n >= log2(1/ε)`.
pub fn point_lower_bound_bits_per_key(epsilon: f64) -> f64 {
    (1.0 / epsilon).log2()
}

/// Goswami et al. family of lower bounds for range filters with range size `R`
/// and domain `2^d`, maximized over the free parameter `γ > 1`:
/// `m/n >= log2(R^{1-γε}/ε) + log2( (1 - 4nR/2^d)·(1 - 1/γ)·e )`.
pub fn range_lower_bound_bits_per_key(
    epsilon: f64,
    range: f64,
    n_keys: f64,
    domain_bits: u32,
) -> f64 {
    let domain = (domain_bits as f64).exp2();
    let density = (1.0 - 4.0 * n_keys * range / domain).max(f64::MIN_POSITIVE);
    let mut best = 0.0f64;
    // Scan γ over a geometric grid; the maximum is flat, a coarse grid suffices.
    let mut gamma = 1.0 + 1e-6;
    while gamma < 1.0e6 {
        let exp = 1.0 - gamma * epsilon;
        if exp > 0.0 {
            let value = (range.powf(exp) / epsilon).log2()
                + (density * (1.0 - 1.0 / gamma) * std::f64::consts::E)
                    .max(f64::MIN_POSITIVE)
                    .log2();
            if value > best {
                best = value;
            }
        }
        gamma *= 1.25;
    }
    best.max(point_lower_bound_bits_per_key(epsilon))
}

/// Space model of Rosetta's first-cut solution (Sect. 6):
/// `m ≈ log2(e) · n · log2(R/ε)` bits for range size `R` and FPR `ε`.
pub fn rosetta_first_cut_bits_per_key(epsilon: f64, range: f64) -> f64 {
    std::f64::consts::LOG2_E * (range / epsilon).log2()
}

/// Bits/key bloomRF needs for a point-query FPR of `epsilon` given that `k` is
/// fixed by the domain (Sect. 6, point-query comparison).
pub fn bloomrf_point_bits_per_key(epsilon: f64, k: u32) -> f64 {
    // epsilon = (1 - p)^k with p = e^{-k n/m}
    let p = 1.0 - epsilon.powf(1.0 / k as f64);
    if p <= 0.0 || p >= 1.0 {
        return f64::INFINITY;
    }
    -(k as f64) / p.ln()
}

/// Result of evaluating the extended FPR model for one configuration.
#[derive(Clone, Debug)]
pub struct FprProfile {
    /// `fpr_ℓ` for every dyadic level `0..=domain_bits`.
    pub per_level: Vec<f64>,
    /// Point-query FPR (`fpr_0`).
    pub point: f64,
}

impl FprProfile {
    /// Maximum FPR over the levels used by ranges of at most `range` values
    /// (`fpr_m` in the advisor's objective).
    pub fn max_up_to_range(&self, range: f64) -> f64 {
        let top = (range.max(1.0).log2().floor() as usize).min(self.per_level.len() - 1);
        self.per_level[..=top].iter().cloned().fold(0.0, f64::max)
    }
}

/// Evaluate the extended FPR model (Sect. 7) for a configuration holding
/// `n_keys` keys, assuming a data-distribution constant `c` (1.0 for uniform,
/// normal and zipfian data).
pub fn evaluate_config(config: &BloomRfConfig, n_keys: usize, c: f64) -> FprProfile {
    let d = config.domain_bits;
    let n = n_keys.max(1) as f64;
    let num_levels = d as usize + 1;
    let mut tp = vec![0.0f64; num_levels];
    let mut fp = vec![0.0f64; num_levels];
    let mut tn = vec![0.0f64; num_levels];

    let intervals_at = |level: u32| -> f64 { ((d - level) as f64).exp2() };
    // Uniform-keys estimate: n keys occupy ~min(n, #intervals) DIs per level,
    // refined by the standard occupancy formula #I (1 - (1-1/#I)^n).
    let occupied_at = |level: u32| -> f64 {
        let total = intervals_at(level);
        if total <= 1.0 {
            return 1.0f64.min(n);
        }
        total * (1.0 - (1.0 - 1.0 / total).powf(n))
    };

    // Writes per segment: Σ replicas of layers assigned to it, times n.
    let mut writes_per_segment = vec![0.0f64; config.segment_bits.len()];
    for layer in &config.layers {
        writes_per_segment[layer.segment] += layer.replicas as f64 * n;
    }
    let p_zero_for_segment: Vec<f64> = config
        .segment_bits
        .iter()
        .zip(writes_per_segment.iter())
        .map(|(&bits, &writes)| zero_bit_probability(writes, bits as f64, c))
        .collect();

    // Levels at and above the filter's top (exact level or saturated top
    // boundary): the exact level has zero FPR; saturated levels answer "yes"
    // for every non-empty probe and therefore have fp = all non-occupied.
    let top_boundary = config.top_boundary();
    let exact = config.exact_level;
    for level in (0..num_levels as u32).rev() {
        tp[level as usize] = occupied_at(level);
        if level >= top_boundary {
            match exact {
                Some(_) if level == top_boundary => {
                    // Exact layer: no false positives at this level.
                    fp[level as usize] = 0.0;
                    tn[level as usize] = intervals_at(level) - tp[level as usize];
                }
                _ => {
                    // Saturated / discarded levels: treated as always positive.
                    fp[level as usize] = intervals_at(level) - tp[level as usize];
                    tn[level as usize] = 0.0;
                }
            }
        }
    }

    // Recursion downward through the probabilistic layers.
    // For layer i (level ℓ_i), the levels ℓ in [ℓ_i, ℓ_{i+1}) are answered by
    // layer i's words; the parent statistics come from level ℓ_{i+1}.
    for (i, layer) in config.layers.iter().enumerate().rev() {
        let parent_level = if i + 1 < config.layers.len() {
            config.layers[i + 1].level
        } else {
            top_boundary
        };
        let p_zero = p_zero_for_segment[layer.segment];
        for level in (layer.level..parent_level).rev() {
            let span = parent_level - level;
            let expand = (span as f64).exp2();
            let parent = parent_level as usize;
            let potential = (expand * (fp[parent] + tp[parent]) - tp[level as usize]).max(0.0);
            // Bits probed per hash function for a DI on this level: it spans
            // 2^(level - ℓ_i) sibling prefixes of layer i, probed via one mask.
            let bits = ((level - layer.level) as f64).exp2();
            let p_probe_true = (1.0 - p_zero.powf(bits)).powi(layer.replicas as i32);
            fp[level as usize] = p_probe_true * potential;
            tn[level as usize] = expand * tn[parent] + (1.0 - p_probe_true) * potential;
        }
    }

    let per_level: Vec<f64> = (0..num_levels)
        .map(|l| {
            let denom = fp[l] + tn[l];
            if denom <= 0.0 {
                if tp[l] >= intervals_at(l as u32) {
                    1.0
                } else {
                    0.0
                }
            } else {
                (fp[l] / denom).clamp(0.0, 1.0)
            }
        })
        .collect();
    let point = per_level[0];
    FprProfile { per_level, point }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BloomRfConfig;

    #[test]
    fn zero_bit_probability_behaviour() {
        assert!((zero_bit_probability(0.0, 100.0, 1.0) - 1.0).abs() < 1e-12);
        let p = zero_bit_probability(100.0, 100.0, 1.0);
        assert!((p - (-1.0f64).exp()).abs() < 1e-12);
        assert!(zero_bit_probability(1000.0, 100.0, 1.0) < p);
        assert!(zero_bit_probability(100.0, 100.0, 2.0) < p);
        assert_eq!(zero_bit_probability(10.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn point_fpr_matches_bloom_theory() {
        // Classic check: 10 bits/key with k = 7 hash functions → FPR ≈ 0.8 %.
        let fpr = point_fpr(7, 1.0, 10.0);
        assert!((fpr - 0.008).abs() < 0.002, "got {fpr}");
        // More space → lower FPR; more keys → higher FPR.
        assert!(point_fpr(7, 1.0, 14.0) < fpr);
        assert!(point_fpr(7, 2.0, 10.0) > fpr);
    }

    #[test]
    fn basic_range_fpr_decreases_with_space_and_grows_with_range() {
        let f1 = basic_range_fpr(7, 7, 1.0, 14.0, 16.0);
        let f2 = basic_range_fpr(7, 7, 1.0, 20.0, 16.0);
        let f3 = basic_range_fpr(7, 7, 1.0, 14.0, 1024.0);
        assert!(f2 < f1, "more bits/key must reduce the FPR");
        assert!(f3 > f1, "larger ranges must increase the FPR bound");
        assert!(basic_range_fpr(4, 7, 1.0, 10.0, (1u64 << 40) as f64) >= 1.0 - 1e-9);
    }

    #[test]
    fn section6_quotes_are_in_the_right_ballpark() {
        // Sect. 6: "Given 17 bits/key, basic bloomRF can handle ranges of
        // R = 2^14 with an FPR of 1.5%" (for 64-bit domains, Δ = 7).
        let n = 50_000_000usize;
        let k = basic_layer_count(64, n, 7);
        let fpr = basic_range_fpr(k, 7, n as f64, 17.0 * n as f64, (1u64 << 14) as f64);
        assert!(fpr < 0.05, "expected a small FPR, got {fpr}");
        assert!(fpr > 0.001, "expected a non-trivial FPR, got {fpr}");
        // Rosetta's first-cut needs ~17 bits/key for 2% at R = 2^6 and ~28 at 2^14.
        let r6 = rosetta_first_cut_bits_per_key(0.02, 64.0);
        let r14 = rosetta_first_cut_bits_per_key(0.02, 16384.0);
        assert!((r6 - 17.0).abs() < 1.5, "got {r6}");
        assert!((r14 - 28.5).abs() < 1.5, "got {r14}");
    }

    #[test]
    fn lower_bounds_are_consistent() {
        let point = point_lower_bound_bits_per_key(0.01);
        assert!((point - 6.64).abs() < 0.05);
        let range16 = range_lower_bound_bits_per_key(0.01, 16.0, 1e6, 64);
        let range64 = range_lower_bound_bits_per_key(0.01, 64.0, 1e6, 64);
        assert!(
            range16 >= point,
            "range bound must dominate the point bound"
        );
        assert!(range64 > range16, "larger ranges need more space");
        // Rosetta sits above the lower bound by a near-constant factor.
        assert!(rosetta_first_cut_bits_per_key(0.01, 64.0) > range64);
    }

    #[test]
    fn bloomrf_point_bits_per_key_monotone() {
        let a = bloomrf_point_bits_per_key(0.01, 6);
        let b = bloomrf_point_bits_per_key(0.001, 6);
        assert!(b > a);
        assert!(a > point_lower_bound_bits_per_key(0.01) * 0.9);
    }

    #[test]
    fn extended_model_paper_toy_example() {
        // Sect. 7 example: d = 16, n = 3 keys, Δ = (4,4,4,4), one segment of 32
        // bits → p ≈ 0.683, point FPR ≈ 1 %, and the level-15 intervals have an
        // FPR around 95 %.
        let cfg = BloomRfConfig::basic(16, 3, 32.0 / 3.0, 4).unwrap();
        assert_eq!(cfg.segment_bits, vec![64]);
        // The paper uses exactly 32 bits; build the config by hand to match.
        let cfg = BloomRfConfig::new(16, cfg.layers.clone(), vec![32], None, 1).unwrap();
        // (rounding pushes the segment to 64 bits; evaluate with the paper's 32
        // by scaling the key count instead: p = e^{-k n C/m})
        let p = zero_bit_probability(4.0 * 3.0, 32.0, 1.0);
        assert!((p - 0.687).abs() < 0.02, "p = {p}");
        let profile = evaluate_config(&cfg, 3, 1.0);
        assert!(profile.point < 0.05, "point FPR {}", profile.point);
        assert!(
            profile.per_level[15] > 0.5,
            "level-15 FPR {}",
            profile.per_level[15]
        );
        // FPR decreases monotonically (roughly) towards the bottom levels.
        assert!(profile.per_level[2] < profile.per_level[12]);
    }

    #[test]
    fn extended_model_exact_layer_zeroes_its_level() {
        use crate::config::LayerSpec;
        let layers = vec![
            LayerSpec::new(0, 7, 1, 1),
            LayerSpec::new(7, 7, 1, 1),
            LayerSpec::new(14, 7, 1, 1),
            LayerSpec::new(21, 7, 1, 1),
            LayerSpec::new(28, 4, 2, 0),
        ];
        let cfg = BloomRfConfig::new(48, layers, vec![1 << 16, 1 << 20], Some(32), 7).unwrap();
        let profile = evaluate_config(&cfg, 100_000, 1.0);
        assert_eq!(
            profile.per_level[32], 0.0,
            "exact level has no false positives"
        );
        assert!(
            profile.per_level[33] > 0.0,
            "levels above the exact level saturate"
        );
        assert!(profile.point < 0.2);
        assert!(profile.max_up_to_range(1e6) <= 1.0);
    }

    #[test]
    fn extended_model_more_memory_helps() {
        let small = BloomRfConfig::basic(64, 100_000, 10.0, 7).unwrap();
        let large = BloomRfConfig::basic(64, 100_000, 20.0, 7).unwrap();
        let fpr_small = evaluate_config(&small, 100_000, 1.0);
        let fpr_large = evaluate_config(&large, 100_000, 1.0);
        assert!(fpr_large.point < fpr_small.point);
        assert!(fpr_large.max_up_to_range(1e4) <= fpr_small.max_up_to_range(1e4) + 1e-12);
    }

    #[test]
    fn basic_bits_per_key_for_fpr_inverse() {
        let bpk = basic_bits_per_key_for_fpr(64, 1_000_000, 7, 16384.0, 0.02);
        assert!(bpk.is_finite() && bpk > 5.0 && bpk < 40.0, "bpk = {bpk}");
        let k = basic_layer_count(64, 1_000_000, 7);
        let eps = basic_range_fpr(k, 7, 1e6, bpk * 1e6, 16384.0);
        assert!((eps - 0.02).abs() < 0.002, "round trip fpr {eps}");
    }
}
