//! Figure 10: efficiency across space budgets (10–22 bits/key) in the LSM
//! substrate, for small (8/16/32), medium (10^4/10^5/10^6) and large
//! (10^9/10^10/10^11) query ranges, plus point-query FPR per workload
//! distribution including a plain Bloom filter.
//!
//! Every table is probed (`ReadRouting::ScanAll`), as in the paper's setup,
//! which has no filter tree in front of the SST filters. Range FPR is
//! `observed_fpr`: false positives per SST filter probe.

use bloomrf_bench::{point_fpr, sig, timed, ExpScale, Report};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting};
use bloomrf_workloads::{Distribution, QueryGenerator, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(500_000);
    let n_queries = scale.queries(3_000);
    let budgets = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0];
    let ranges: Vec<(&str, u64)> = vec![
        ("A_range_8", 8),
        ("B_range_16", 16),
        ("C_range_32", 32),
        ("D_range_1e4", 10_000),
        ("E_range_1e5", 100_000),
        ("F_range_1e6", 1_000_000),
        ("G_range_1e9", 1_000_000_000),
        ("H_range_1e10", 10_000_000_000),
        ("I_range_1e11", 100_000_000_000),
    ];

    let keys = Sampler::new(Distribution::Uniform, 64, 0x10F1).sample_distinct(n_keys);
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 0x10F2);

    let mut report = Report::new(
        "fig10_space_budgets",
        &["panel", "bits_per_key", "filter", "fpr", "exec_time_s"],
    );
    let mut point_report = Report::new(
        "fig10_point_insets",
        &["workload", "bits_per_key", "filter", "point_fpr"],
    );

    for &(panel, range) in &ranges {
        let queries = generator.empty_ranges(n_queries, range);
        for &bpk in &budgets {
            for kind in FilterKind::point_range_filters(range.max(1 << 14)) {
                let db = Db::new(DbOptions {
                    memtable_flush_entries: (n_keys / 4).max(1024),
                    entries_per_block: 8,
                    filter_kind: kind,
                    bits_per_key: bpk,
                    io_model: IoModel::default(),
                    routing: ReadRouting::ScanAll,
                });
                for &k in &keys {
                    db.put(k, vec![0u8; 16]);
                }
                db.flush();
                db.reset_stats();
                let ((), secs) = timed(|| {
                    for q in &queries {
                        db.range_is_possibly_non_empty(q.lo, q.hi);
                    }
                });
                let stats = db.stats();
                assert!(
                    stats.filter_probes > 0,
                    "{panel} {bpk} {}: no filter probes",
                    kind.label()
                );
                report.row(&[
                    panel.to_string(),
                    format!("{bpk}"),
                    kind.label().to_string(),
                    sig(stats.observed_fpr()),
                    sig(secs + stats.io_wait_ns as f64 * 1e-9),
                ]);
            }
        }
    }

    // Point-query insets per workload distribution, including the plain Bloom filter.
    for dist in Distribution::paper_set() {
        let mut point_generator = QueryGenerator::new(&keys, dist, 0x10F3);
        let probes = point_generator.empty_points(n_queries);
        for &bpk in &budgets {
            for kind in [
                FilterKind::BloomRf { max_range: 1e4 },
                FilterKind::Rosetta { max_range: 1 << 14 },
                FilterKind::Surf,
                FilterKind::Bloom,
            ] {
                let filter = kind.build(&keys, bpk);
                point_report.row(&[
                    dist.label().to_string(),
                    format!("{bpk}"),
                    kind.label().to_string(),
                    sig(point_fpr(filter.as_ref(), &probes)),
                ]);
            }
        }
    }

    report.finish();
    point_report.finish();
    println!(
        "Shape check (paper): bloomRF keeps the best FPR/latency across budgets; Rosetta is \
         competitive only for very small ranges at >=18 bits/key; SuRF only for ranges >=10^11; \
         bloomRF beats the plain Bloom filter on point queries at equal budgets."
    );
}
