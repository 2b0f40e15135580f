//! Quickstart: build a bloomRF filter, insert keys, run point and range
//! queries, and let the tuning advisor pick an extended configuration for
//! large ranges.
//!
//! Run with: `cargo run --release --example quickstart`

use bloomrf::advisor::TuningAdvisor;
use bloomrf::BloomRf;

fn main() {
    // --- 1. The tuning-free basic filter --------------------------------
    let n_keys = 1_000_000usize;
    let filter = BloomRf::builder()
        .expected_keys(n_keys)
        .bits_per_key(14.0)
        .build()
        .expect("valid configuration");

    // bloomRF is an online filter: inserts take &self and can run while
    // queries are in flight.
    for key in (0..n_keys as u64).map(|i| i * 977 + 13) {
        filter.insert(key);
    }

    println!(
        "basic bloomRF: {} keys, {:.1} bits/key",
        filter.key_count(),
        filter.memory_bits() as f64 / n_keys as f64
    );

    // Point queries behave like a Bloom filter.
    assert!(filter.contains_point(13));
    assert!(filter.contains_point(977 + 13));
    let missing = 977 * 500 + 20; // between two keys
    println!(
        "point query for a missing key  -> {}",
        filter.contains_point(missing)
    );

    // Range queries: "is there any key in [lo, hi]?"
    assert!(filter.contains_range(0, 1000), "contains key 13");
    let empty_range = (977 * 1000 + 20, 977 * 1000 + 500);
    println!(
        "range query on an empty interval -> {} (false positives possible, negatives exact)",
        filter.contains_range(empty_range.0, empty_range.1)
    );

    // Probe statistics show the constant cost of the two-path lookup.
    let (_, stats) = filter.contains_range_counted(1 << 40, (1 << 40) + (1 << 30));
    println!(
        "range of 2^30 values probed with {} word accesses and {} covering bits",
        stats.word_accesses, stats.bit_checks
    );

    // --- 2. Advisor-tuned filter for large ranges ------------------------
    // The unified builder is the one construction surface: `.max_range(..)`
    // switches to the advisor-tuned extended configuration (Sect. 7), and
    // the same chain takes `.key_type::<f64>()` when needed.
    let tuned = TuningAdvisor::tune_for(64, 200_000, 18.0, 1e9).expect("tunable");
    println!(
        "advisor picked {} layers, Δ = {:?}, exact level = {:?}, predicted point FPR = {:.4}",
        tuned.config.num_layers(),
        tuned.config.delta_vector(),
        tuned.config.exact_level,
        tuned.point_fpr
    );
    let big = BloomRf::builder()
        .expected_keys(200_000)
        .bits_per_key(18.0)
        .max_range(1e9)
        .build()
        .expect("valid configuration");
    assert_eq!(big.config(), &tuned.config, "builder == advisor");
    for key in (0..200_000u64).map(|i| i << 20) {
        big.insert(key);
    }
    println!(
        "tuned filter answers a 10^9-wide empty range with {}",
        big.contains_range(3, 1_000_000_000)
    );
    println!("quickstart finished OK");
}
