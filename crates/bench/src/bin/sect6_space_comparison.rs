//! Section 6 "Space efficiency, FPR and Query-range size": the worked numeric
//! comparison — bits/key Rosetta's first-cut solution needs for a 2 % FPR at
//! range sizes 2^6, 2^10, 2^14 versus what basic bloomRF achieves with
//! 17 / 22 bits per key — plus a measured validation of the bloomRF side.

use bloomrf::{model, BloomRf};
use bloomrf_bench::{range_fpr, sig, ExpScale, Report};
use bloomrf_workloads::{Distribution, QueryGenerator, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_model = 50_000_000usize; // the paper's analytical setting
    let n_measured = scale.keys(500_000);
    let delta = 7u32;

    let mut report = Report::new(
        "sect6_space_comparison",
        &[
            "range",
            "rosetta_bpk_for_2pct",
            "bloomrf_bpk_for_2pct(model)",
            "bloomrf_fpr_at_17bpk(model)",
            "bloomrf_fpr_at_22bpk(model)",
            "bloomrf_fpr_at_17bpk(measured)",
        ],
    );

    let keys = Sampler::new(Distribution::Uniform, 64, 6).sample_distinct(n_measured);
    let filter17 = BloomRf::builder()
        .expected_keys(n_measured)
        .bits_per_key(17.0)
        .delta(delta)
        .build()
        .expect("config");
    for &k in &keys {
        filter17.insert(k);
    }
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 66);

    let k_model = model::basic_layer_count(64, n_model, delta);
    let k_measured = model::basic_layer_count(64, n_measured, delta);
    let _ = k_measured;

    for exp in [6u32, 10, 14, 21] {
        let range = (1u64 << exp) as f64;
        let rosetta = model::rosetta_first_cut_bits_per_key(0.02, range);
        let bloomrf_bpk = model::basic_bits_per_key_for_fpr(64, n_model, delta, range, 0.02);
        let fpr17 =
            model::basic_range_fpr(k_model, delta, n_model as f64, 17.0 * n_model as f64, range);
        let fpr22 =
            model::basic_range_fpr(k_model, delta, n_model as f64, 22.0 * n_model as f64, range);
        let queries = generator.empty_ranges(scale.queries(3_000), 1u64 << exp);
        let measured = range_fpr(&filter17, &queries);
        report.row(&[
            format!("2^{exp}"),
            sig(rosetta),
            sig(bloomrf_bpk),
            sig(fpr17),
            sig(fpr22),
            sig(measured),
        ]);
    }
    report.finish();

    println!(
        "Shape check (paper): Rosetta needs ~17 bits/key for 2% at R=2^6 but ~28 bits/key at \
         R=2^14, while basic bloomRF stays in the same budget class (~1.5% at 17 bits/key for \
         R=2^14, ~2.5% at 22 bits/key for R=2^21)."
    );
}
