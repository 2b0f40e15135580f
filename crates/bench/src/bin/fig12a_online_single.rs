//! Figure 12.A: online behaviour, single-threaded — overall throughput of a
//! mixed insert/lookup workload as the share of lookups varies from 10 % to
//! 100 %, for point and range operations on a standalone bloomRF.

use bloomrf::BloomRf;
use bloomrf_bench::{mops, sig, timed, ExpScale, Report};
use bloomrf_workloads::{Distribution, Rng, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_ops = scale.keys(2_000_000);
    let range_size = 1u64 << 10;

    let keys = Sampler::new(Distribution::Uniform, 64, 0x12A).sample_many(n_ops);
    let mut report = Report::new(
        "fig12a_online_single",
        &["lookup_pct", "point_mops", "range_mops"],
    );

    for lookup_pct in (10..=100).step_by(10) {
        for (mode, is_range) in [("point", false), ("range", true)] {
            let filter = BloomRf::builder()
                .expected_keys(n_ops)
                .bits_per_key(14.0)
                .build()
                .expect("config");
            let mut rng = Rng::new(lookup_pct as u64);
            let (_, secs) = timed(|| {
                let mut inserted = 0usize;
                for (i, &k) in keys.iter().enumerate() {
                    let do_lookup = (rng.next_below(100) as usize) < lookup_pct;
                    if do_lookup {
                        let probe = keys[rng.next_below((inserted.max(1)) as u64) as usize];
                        if is_range {
                            std::hint::black_box(filter.contains_range(probe, probe + range_size));
                        } else {
                            std::hint::black_box(filter.contains_point(probe));
                        }
                    } else {
                        filter.insert(k);
                        inserted = i + 1;
                    }
                }
            });
            if mode == "point" {
                // defer row emission until both modes measured
                std::hint::black_box(secs);
            }
            // Store via a small stack: emit one row per pct with both numbers.
            // (Measured separately to keep the loop bodies branch-free.)
            if is_range {
                // Recompute the point number for the same pct to pair them.
                let filter = BloomRf::builder()
                    .expected_keys(n_ops)
                    .bits_per_key(14.0)
                    .build()
                    .expect("config");
                let mut rng = Rng::new(lookup_pct as u64);
                let (_, point_secs) = timed(|| {
                    let mut inserted = 0usize;
                    for (i, &k) in keys.iter().enumerate() {
                        if (rng.next_below(100) as usize) < lookup_pct {
                            let probe = keys[rng.next_below((inserted.max(1)) as u64) as usize];
                            std::hint::black_box(filter.contains_point(probe));
                        } else {
                            filter.insert(k);
                            inserted = i + 1;
                        }
                    }
                });
                report.row(&[
                    lookup_pct.to_string(),
                    sig(mops(n_ops, point_secs)),
                    sig(mops(n_ops, secs)),
                ]);
            }
        }
    }
    report.finish();
    println!(
        "Shape check (paper): overall throughput rises with the lookup share (lookups are \
         cheaper than inserts which touch every layer); concurrent inserts have an acceptable \
         impact on probe performance — bloomRF is an online filter."
    );
}
