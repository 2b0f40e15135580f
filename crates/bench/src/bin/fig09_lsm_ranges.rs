//! Figure 9: system-level (LSM) comparison at a fixed 22 bits/key budget.
//!
//! A1–C1: end-to-end execution time and FPR of empty range scans for bloomRF,
//!        Rosetta and SuRF over query-range sizes from 2 to 10^11, with
//!        uniform, normal and zipfian query workloads over uniform data.
//! A2–C2: point-query FPR insets for the same setting.
//! D:     Prefix Bloom filters and fence pointers as classical baselines.
//!
//! Every table is probed (`ReadRouting::ScanAll`), as in the paper's setup,
//! which has no filter tree in front of the SST filters. FPR is
//! `observed_fpr`: false positives per SST filter probe.

use bloomrf_bench::{mops, sig, timed, ExpScale, Report};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, ReadStatsSnapshot};
use bloomrf_workloads::{Distribution, QueryGenerator, YcsbEConfig, YcsbEWorkload};

fn load_db(kind: FilterKind, bits_per_key: f64, workload: &YcsbEWorkload) -> Db {
    let db = Db::new(DbOptions {
        memtable_flush_entries: (workload.load_keys.len() / 8).max(1024),
        entries_per_block: 8,
        filter_kind: kind,
        bits_per_key,
        io_model: IoModel::default(),
        routing: ReadRouting::ScanAll,
    });
    for &k in &workload.load_keys {
        db.put(k, workload.value_for(k));
    }
    db.flush();
    db
}

/// The stats of one measured row, which must have reached the filters.
fn row_stats(db: &Db, row: &str, kind: FilterKind) -> ReadStatsSnapshot {
    let stats = db.stats();
    assert!(
        stats.filter_probes > 0,
        "{row} {}: no filter probes",
        kind.label()
    );
    stats
}

fn main() {
    let scale = ExpScale::from_env();
    let bits_per_key = 22.0;
    let n_keys = scale.keys(500_000);
    let n_queries = scale.queries(5_000);

    let range_sizes: Vec<u64> = vec![
        2,
        16,
        64,
        1_000,
        100_000,
        10_000_000,
        1_000_000_000,
        100_000_000_000,
    ];

    let mut ranges_report = Report::new(
        "fig09_range_scans",
        &[
            "workload",
            "range",
            "filter",
            "fpr",
            "exec_time_s",
            "blocks_read",
            "scan_mops",
        ],
    );
    let mut points_report = Report::new("fig09_point_insets", &["workload", "filter", "point_fpr"]);
    let mut baselines_report = Report::new(
        "fig09d_classical_baselines",
        &["range", "filter", "fpr", "exec_time_s"],
    );

    // Uniform data, as in the paper; the workload distribution varies.
    let base_workload = YcsbEWorkload::generate(&YcsbEConfig {
        num_keys: n_keys,
        num_queries: 1,
        value_size: 64, // keep memory reasonable; value size does not affect FPR
        ..Default::default()
    });

    for query_dist in Distribution::paper_set() {
        let mut generator = QueryGenerator::new(&base_workload.load_keys, query_dist, 0x09F1);
        let point_probes = generator.empty_points(n_queries);

        for kind in FilterKind::point_range_filters(1 << 14) {
            let db = load_db(kind, bits_per_key, &base_workload);

            // Point-query inset (A2–C2).
            db.reset_stats();
            for &p in &point_probes {
                assert_eq!(db.get(p), None, "point {p} is not an empty query");
            }
            let stats = row_stats(&db, "points", kind);
            points_report.row(&[
                query_dist.label().to_string(),
                kind.label().to_string(),
                sig(stats.observed_fpr()),
            ]);

            // Range scans (A1–C1).
            for &range in &range_sizes {
                let queries = generator.empty_ranges(n_queries, range);
                db.reset_stats();
                let ((), secs) = timed(|| {
                    for q in &queries {
                        db.range_is_possibly_non_empty(q.lo, q.hi);
                    }
                });
                let stats = row_stats(&db, &format!("range {range}"), kind);
                ranges_report.row(&[
                    query_dist.label().to_string(),
                    range.to_string(),
                    kind.label().to_string(),
                    sig(stats.observed_fpr()),
                    sig(secs + stats.io_wait_ns as f64 * 1e-9),
                    stats.blocks_read.to_string(),
                    sig(mops(queries.len(), secs)),
                ]);
            }
        }
    }

    // D: Prefix Bloom filter and fence pointers (uniform workload only).
    let mut generator = QueryGenerator::new(&base_workload.load_keys, Distribution::Uniform, 0x09D);
    for &range in &range_sizes {
        let queries = generator.empty_ranges(n_queries, range);
        for kind in [
            FilterKind::PrefixBloom { prefix_shift: 24 },
            FilterKind::FencePointers,
        ] {
            let db = load_db(kind, bits_per_key, &base_workload);
            db.reset_stats();
            let ((), secs) = timed(|| {
                for q in &queries {
                    db.range_is_possibly_non_empty(q.lo, q.hi);
                }
            });
            let stats = row_stats(&db, &format!("range {range}"), kind);
            baselines_report.row(&[
                range.to_string(),
                kind.label().to_string(),
                sig(stats.observed_fpr()),
                sig(secs + stats.io_wait_ns as f64 * 1e-9),
            ]);
        }
    }

    ranges_report.finish();
    points_report.finish();
    baselines_report.finish();
    println!(
        "Shape check (paper): bloomRF has the lowest probe latency everywhere and the best FPR \
         for small-to-large ranges; Rosetta wins only for very short ranges (<=8); SuRF wins for \
         the very largest ranges (~10^11); prefix Bloom filters and fence pointers are far worse."
    );
}
