//! Tuning advisor (Sect. 7): given the number of keys `n`, a memory budget `m`
//! and an (approximate maximum) query-range size `R`, compute a full extended
//! bloomRF configuration — exact level, distance vector Δ, replica counts,
//! segment assignment and segment sizes — by minimizing the weighted FPR norm
//! `fpr_w² = fpr_m² + C²·fpr_p²` over the extended FPR model.

use std::cell::RefCell;

use crate::config::{BloomRfConfig, LayerSpec};
use crate::error::ConfigError;
use crate::model::{evaluate_config, FprProfile};

/// Input parameters for the advisor.
#[derive(Clone, Copy, Debug)]
pub struct AdvisorParams {
    /// Width of the key domain in bits.
    pub domain_bits: u32,
    /// Expected number of keys.
    pub n_keys: usize,
    /// Total memory budget in bits (all segments plus the exact bitmap).
    pub memory_bits: usize,
    /// Approximate maximum query-range size (number of values).
    pub max_range: f64,
    /// Weight `C` of the point-query FPR in the objective (1.0 by default;
    /// larger values prioritise point queries).
    pub point_weight: f64,
    /// Data-distribution constant `C` of the FPR model (1.0 for uniform,
    /// normal and zipfian data).
    pub distribution_constant: f64,
    /// Base hash seed of the generated configuration.
    pub hash_seed: u64,
}

impl AdvisorParams {
    /// Parameters with the defaults used throughout the paper's evaluation.
    pub fn new(domain_bits: u32, n_keys: usize, bits_per_key: f64, max_range: f64) -> Self {
        Self {
            domain_bits,
            n_keys,
            memory_bits: (n_keys as f64 * bits_per_key).ceil() as usize,
            max_range,
            point_weight: 1.0,
            distribution_constant: 1.0,
            hash_seed: 0x00B1_00FB_100F,
        }
    }
}

/// A tuned configuration together with its predicted FPR profile.
#[derive(Clone, Debug)]
pub struct TunedConfig {
    /// The configuration to instantiate [`crate::BloomRf`] with.
    pub config: BloomRfConfig,
    /// Predicted per-level FPR profile.
    pub profile: FprProfile,
    /// Predicted maximum FPR over dyadic ranges up to `max_range`.
    pub range_fpr: f64,
    /// Predicted point-query FPR.
    pub point_fpr: f64,
    /// Objective value `sqrt(fpr_m² + C²·fpr_p²)` that was minimized.
    pub objective: f64,
}

/// The tuning advisor.
#[derive(Clone, Copy, Debug)]
pub struct TuningAdvisor {
    params: AdvisorParams,
}

impl TuningAdvisor {
    /// Create an advisor for the given parameters.
    pub fn new(params: AdvisorParams) -> Self {
        Self { params }
    }

    /// Convenience: tune directly from `(domain_bits, n, bits/key, R)`.
    ///
    /// Each thread remembers its last call's parameters and result, so a
    /// store that builds every table with the same parameters runs the
    /// advisor once; any other call recomputes. [`TuningAdvisor::tune`] is a
    /// pure function of the parameters, so a remembered result is exactly
    /// what a fresh call returns.
    pub fn tune_for(
        domain_bits: u32,
        n_keys: usize,
        bits_per_key: f64,
        max_range: f64,
    ) -> Result<TunedConfig, ConfigError> {
        type Memo = Option<((u32, usize, u64, u64), Result<TunedConfig, ConfigError>)>;
        thread_local! {
            static LAST: RefCell<Memo> = const { RefCell::new(None) };
        }
        let key = (
            domain_bits,
            n_keys,
            bits_per_key.to_bits(),
            max_range.to_bits(),
        );
        LAST.with(|last| {
            if let Some((seen, result)) = &*last.borrow() {
                if *seen == key {
                    return result.clone();
                }
            }
            let result = Self::new(AdvisorParams::new(
                domain_bits,
                n_keys,
                bits_per_key,
                max_range,
            ))
            .tune();
            *last.borrow_mut() = Some((key, result.clone()));
            result
        })
    }

    /// Compute the best configuration for the stored parameters.
    ///
    /// Candidates considered:
    /// * the basic, tuning-free configuration (always valid, best for small R);
    /// * extended configurations for each exact-level candidate `ℓ_e`, `ℓ_e+1`
    ///   (where `ℓ_e = min{ℓ : 2^(d-ℓ) < 0.6·m}`), with the heuristic Δ vector
    ///   (7 on the bottom, shrinking towards the exact layer), one replica per
    ///   layer except two on the topmost probabilistic layer, and a swept
    ///   mid-segment share.
    pub fn tune(&self) -> Result<TunedConfig, ConfigError> {
        let p = self.params;
        if p.domain_bits == 0 || p.domain_bits > 64 {
            return Err(ConfigError::InvalidDomainBits(p.domain_bits));
        }
        if p.memory_bits < 64 {
            return Err(ConfigError::BudgetTooSmall {
                requested_bits: p.memory_bits,
                minimum_bits: 64,
            });
        }
        let n = p.n_keys.max(1);
        let bits_per_key = p.memory_bits as f64 / n as f64;

        let mut best: Option<TunedConfig> = None;
        let mut consider = |candidate: Result<BloomRfConfig, ConfigError>| {
            let Ok(config) = candidate else { return };
            let profile = evaluate_config(&config, n, p.distribution_constant);
            let range_fpr = profile.max_up_to_range(p.max_range);
            let point_fpr = profile.point;
            let objective = (range_fpr * range_fpr
                + p.point_weight * p.point_weight * point_fpr * point_fpr)
                .sqrt();
            let better = match &best {
                None => true,
                Some(b) => objective < b.objective,
            };
            if better {
                best = Some(TunedConfig {
                    config,
                    profile,
                    range_fpr,
                    point_fpr,
                    objective,
                });
            }
        };

        // Candidate 0: basic configuration spending the whole budget on one segment.
        consider(
            BloomRfConfig::basic(p.domain_bits, n, bits_per_key, 7)
                .map(|c| c.with_seed(p.hash_seed)),
        );

        // Extended candidates with an exact layer.
        if let Some(exact_base) = self.exact_level_candidate() {
            for exact_level in [exact_base, (exact_base + 1).min(p.domain_bits)] {
                let exact_bits = exact_bitmap_bits(p.domain_bits, exact_level);
                if exact_bits == 0 || exact_bits >= p.memory_bits {
                    continue;
                }
                let remaining = p.memory_bits - exact_bits;
                let gaps = delta_vector_for(exact_level);
                for mid_share in [0.15, 0.25, 0.35, 0.5, 0.65] {
                    consider(self.build_extended(exact_level, &gaps, remaining, mid_share));
                }
            }
        }

        best.ok_or(ConfigError::BudgetTooSmall {
            requested_bits: p.memory_bits,
            minimum_bits: 64,
        })
    }

    /// Exact-level heuristic: `ℓ_e = min{ℓ : 2^(d-ℓ) < 0.6·m}`.
    fn exact_level_candidate(&self) -> Option<u32> {
        let p = self.params;
        let budget = 0.6 * p.memory_bits as f64;
        (0..=p.domain_bits).find(|&l| {
            let bits = ((p.domain_bits - l) as f64).exp2();
            bits < budget
        })
    }

    fn build_extended(
        &self,
        exact_level: u32,
        gaps_bottom_up: &[u32],
        probabilistic_bits: usize,
        mid_share: f64,
    ) -> Result<BloomRfConfig, ConfigError> {
        let p = self.params;
        // Segment 0: mid layers (gap < 7), segment 1: bottom layers (gap == 7).
        let has_mid = gaps_bottom_up.iter().any(|&g| g < 7);
        let has_bottom = gaps_bottom_up.contains(&7);
        let (mid_bits, bottom_bits) = if has_mid && has_bottom {
            let mid = ((probabilistic_bits as f64) * mid_share) as usize;
            (mid.max(64), probabilistic_bits.saturating_sub(mid).max(64))
        } else {
            (probabilistic_bits.max(64), probabilistic_bits.max(64))
        };
        let segment_bits = if has_mid && has_bottom {
            vec![mid_bits, bottom_bits]
        } else {
            vec![probabilistic_bits.max(64)]
        };
        let mut layers = Vec::with_capacity(gaps_bottom_up.len());
        let mut level = 0u32;
        for (i, &gap) in gaps_bottom_up.iter().enumerate() {
            let segment = if has_mid && has_bottom {
                if gap == 7 {
                    1
                } else {
                    0
                }
            } else {
                0
            };
            // Replicated hash functions only on the topmost probabilistic layer.
            let replicas = if i == gaps_bottom_up.len() - 1 { 2 } else { 1 };
            layers.push(LayerSpec::new(level, gap, replicas, segment));
            level += gap;
        }
        debug_assert_eq!(level, exact_level);
        BloomRfConfig::new(
            p.domain_bits,
            layers,
            segment_bits,
            Some(exact_level),
            p.hash_seed,
        )
    }
}

/// Size in bits of an exact bitmap at `exact_level` for a `domain_bits` domain
/// (0 if it would overflow a usize or the level is outside the domain).
fn exact_bitmap_bits(domain_bits: u32, exact_level: u32) -> usize {
    if exact_level > domain_bits {
        return 0;
    }
    let width = domain_bits - exact_level;
    if width >= 48 {
        // > 32 TiB of bitmap — never a sensible configuration.
        return 0;
    }
    1usize << width
}

/// Heuristic distance vector (bottom to top) for a stack of probabilistic
/// layers reaching exactly `exact_level`: gaps of 7 on the bottom, then a
/// shrinking tail (e.g. 36 → `[7, 7, 7, 7, 4, 2, 2]` as in the paper).
pub fn delta_vector_for(exact_level: u32) -> Vec<u32> {
    let mut gaps = Vec::new();
    let mut remaining = exact_level;
    while remaining >= 14 {
        gaps.push(7);
        remaining -= 7;
    }
    // Split the remainder (1..=13) into decreasing gaps of at most 4 so that
    // precision increases towards the exact layer (e.g. 8 → [4, 2, 2]).
    let mut rem = remaining;
    while rem > 6 {
        gaps.push(4);
        rem -= 4;
    }
    if rem > 0 {
        if rem <= 2 {
            gaps.push(rem);
        } else {
            gaps.push(rem.div_ceil(2));
            gaps.push(rem / 2);
        }
    }
    if gaps.is_empty() {
        gaps.push(1);
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::BloomRf;

    #[test]
    fn delta_vector_matches_paper_example() {
        // Sect. 7: exact level 36 → Δ = (2, 2, 4, 7, 7, 7, 7) top-to-bottom,
        // i.e. [7, 7, 7, 7, 4, 2, 2] bottom-to-top.
        assert_eq!(delta_vector_for(36), vec![7, 7, 7, 7, 4, 2, 2]);
        // Always sums to the exact level and uses gaps in 1..=7.
        for level in 1..=64u32 {
            let v = delta_vector_for(level);
            assert_eq!(v.iter().sum::<u32>(), level, "level {level}: {v:?}");
            assert!(
                v.iter().all(|&g| (1..=7).contains(&g)),
                "level {level}: {v:?}"
            );
        }
    }

    #[test]
    fn advisor_paper_scenario_50m_keys() {
        // Sect. 7: n = 50e6 keys, 14 bits/key, d = 64 → exact level 36.
        let params = AdvisorParams::new(64, 50_000_000, 14.0, 1e4);
        let advisor = TuningAdvisor::new(params);
        let exact = advisor.exact_level_candidate().unwrap();
        assert_eq!(exact, 36, "lowest level with 2^(64-l) < 0.6·m");
        let tuned = advisor.tune().unwrap();
        assert!(tuned.config.total_bits() <= (14.5 * 50_000_000.0) as usize);
        assert!(tuned.point_fpr < 0.05, "point FPR {}", tuned.point_fpr);
        assert!(tuned.range_fpr <= 1.0);
    }

    #[test]
    fn advisor_prefers_exact_layer_for_large_ranges() {
        // For very large ranges the extended configuration (with an exact
        // layer) must beat the basic one, which saturates.
        let tuned = TuningAdvisor::tune_for(64, 1_000_000, 18.0, 1e10).unwrap();
        assert!(
            tuned.config.exact_level.is_some(),
            "large ranges need the exact layer, got {:?}",
            tuned.config
        );
        assert!(tuned.range_fpr < 0.5, "range FPR {}", tuned.range_fpr);
    }

    #[test]
    fn advisor_basic_is_fine_for_small_ranges() {
        let tuned = TuningAdvisor::tune_for(64, 1_000_000, 14.0, 256.0).unwrap();
        // Either candidate may win, but the resulting FPRs must be small.
        assert!(tuned.range_fpr < 0.1, "range FPR {}", tuned.range_fpr);
        assert!(tuned.point_fpr < 0.02, "point FPR {}", tuned.point_fpr);
    }

    #[test]
    fn tuned_config_builds_a_working_filter() {
        let tuned = TuningAdvisor::tune_for(64, 100_000, 16.0, 1e6).unwrap();
        let filter = BloomRf::builder()
            .config(tuned.config.clone())
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..100_000u64).map(crate::hashing::mix64).collect();
        for &k in &keys {
            filter.insert(k);
        }
        for &k in keys.iter().step_by(997) {
            assert!(filter.contains_point(k));
            assert!(filter.contains_range(k.saturating_sub(1000), k.saturating_add(1000)));
        }
        // Memory stays within ~12% of the budget (segment rounding + exact bitmap).
        let budget_bits = 16.0 * 100_000.0;
        assert!(
            (filter.memory_bits() as f64) < budget_bits * 1.12,
            "memory {} exceeds budget {budget_bits}",
            filter.memory_bits()
        );
    }

    #[test]
    fn advisor_rejects_tiny_budgets() {
        let params = AdvisorParams {
            domain_bits: 64,
            n_keys: 10,
            memory_bits: 10,
            max_range: 100.0,
            point_weight: 1.0,
            distribution_constant: 1.0,
            hash_seed: 1,
        };
        assert!(matches!(
            TuningAdvisor::new(params).tune(),
            Err(ConfigError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn remembered_tunings_equal_fresh_ones() {
        // Alternating and repeated parameter sets: each call either reuses
        // or replaces the one remembered result.
        let a = (64, 512, 16.0, 1e6);
        let b = (64, 8192, 16.0, 1e6);
        for (i, (d, n, bpk, r)) in [a, b, a, a, b, b, a].into_iter().enumerate() {
            let remembered = TuningAdvisor::tune_for(d, n, bpk, r).unwrap();
            let fresh = TuningAdvisor::new(AdvisorParams::new(d, n, bpk, r))
                .tune()
                .unwrap();
            assert_eq!(remembered.config, fresh.config, "call {i}: n = {n}");
            assert_eq!(remembered.objective, fresh.objective, "call {i}");
        }
        // A rejected budget is remembered as the same error.
        for _ in 0..2 {
            assert_eq!(
                TuningAdvisor::tune_for(64, 10, 1.0, 100.0).unwrap_err(),
                TuningAdvisor::new(AdvisorParams::new(64, 10, 1.0, 100.0))
                    .tune()
                    .unwrap_err()
            );
        }
    }

    #[test]
    fn point_weight_trades_point_for_range_fpr() {
        let base = AdvisorParams::new(64, 500_000, 14.0, 1e8);
        let range_heavy = TuningAdvisor::new(AdvisorParams {
            point_weight: 0.1,
            ..base
        })
        .tune()
        .unwrap();
        let point_heavy = TuningAdvisor::new(AdvisorParams {
            point_weight: 10.0,
            ..base
        })
        .tune()
        .unwrap();
        assert!(point_heavy.point_fpr <= range_heavy.point_fpr + 1e-9);
    }
}
