//! Figure 5: PMHF random scatter.
//!
//! (A) How often are words of each bloomRF layer overlaid on the same 64-bit
//!     bit-array element, per data distribution?
//! (B) Lengths of 0-bit runs in the final bit array, bloomRF vs a standard
//!     Bloom filter at the same space budget.
//! (C) Distances between consecutive 0-bit runs.
//!
//! The paper concludes that PMHF scatter words essentially randomly for
//! uniform, normal and zipfian data (C = 1 in the FPR model); the same
//! comparison is reproduced here.

use bloomrf::hashing::Pmhf;
use bloomrf::traits::ExclusiveOnlineFilter;
use bloomrf::BloomRf;
use bloomrf_bench::{ExpScale, Report};
use bloomrf_filters::BloomFilter;
use bloomrf_workloads::{Distribution, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(2_000_000);
    let bits_per_key = 10.0;

    let mut overlay = Report::new(
        "fig05a_word_overlay",
        &[
            "distribution",
            "layer",
            "mean_words_per_element",
            "p95_words_per_element",
        ],
    );
    let mut runs = Report::new(
        "fig05bc_zero_runs",
        &[
            "distribution",
            "filter",
            "zero_runs",
            "mean_run_len",
            "mean_run_distance",
            "load_factor",
        ],
    );

    for dist in Distribution::paper_set() {
        let keys = Sampler::new(dist, 64, 5_2023).sample_many(n_keys);

        // --- bloomRF (basic, Δ = 7 → 64-bit words) --------------------------
        let filter = BloomRf::builder()
            .expected_keys(n_keys)
            .bits_per_key(bits_per_key)
            .build()
            .expect("config");
        for &k in &keys {
            filter.insert(k);
        }

        // (A) overlay of words per layer on 64-bit elements.
        let config = filter.config().clone();
        let segment_bits = config.segment_bits[0];
        let elements = segment_bits / 64;
        for (layer_idx, layer) in config.layers.iter().enumerate() {
            let pm = Pmhf::new(layer.level, layer.offset_bits(), 1);
            let word_count = (segment_bits as u64) / layer.word_bits() as u64;
            let mut counts = vec![0u32; elements];
            let mut seen = std::collections::HashSet::new();
            for &k in &keys {
                let prefix = pm.hashed_prefix(k);
                if seen.insert(prefix) {
                    // Each distinct word is written once; find its element.
                    let bit =
                        pm.word_index_of_hashed(prefix, word_count) * layer.word_bits() as u64;
                    counts[(bit / 64) as usize] += 1;
                }
            }
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / elements as f64;
            let p95 = sorted[(elements as f64 * 0.95) as usize];
            overlay.row(&[
                dist.label().to_string(),
                layer_idx.to_string(),
                format!("{mean:.3}"),
                p95.to_string(),
            ]);
        }

        // (B)/(C) zero-run statistics, bloomRF vs standard Bloom filter.
        let snapshot = filter.snapshot_bits().remove(0);
        let mut bloom = BloomFilter::with_bits_per_key(n_keys, bits_per_key);
        for &k in &keys {
            bloom.insert(k);
        }
        for (name, bits) in [("bloomRF", &snapshot), ("Bloom", bloom.bits())] {
            let lens = bits.zero_run_lengths();
            let dists = bits.zero_run_distances();
            let mean_len = lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
            let mean_dist = dists.iter().sum::<usize>() as f64 / dists.len().max(1) as f64;
            let load = bits.count_ones() as f64 / bits.capacity_bits() as f64;
            runs.row(&[
                dist.label().to_string(),
                name.to_string(),
                lens.len().to_string(),
                format!("{mean_len:.3}"),
                format!("{mean_dist:.3}"),
                format!("{load:.4}"),
            ]);
        }
    }

    overlay.finish();
    runs.finish();
}
