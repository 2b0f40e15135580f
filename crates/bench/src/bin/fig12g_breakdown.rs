//! Figure 12.G: probe-cost breakdown in the LSM read path — filter probe time,
//! residual CPU, and (simulated) I/O wait — per query-range size at 22
//! bits/key, for bloomRF, Rosetta and SuRF.
//!
//! Every table is probed (`ReadRouting::ScanAll`), as in the paper's setup,
//! which has no filter tree in front of the SST filters. The probe and
//! residual-CPU columns are the store's 1-in-64 sampled clock estimates;
//! `blocks_read`, the I/O column and `fpr` (`observed_fpr`: false positives
//! per SST filter probe) come from exact counts.

use bloomrf_bench::{sig, ExpScale, Report};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting};
use bloomrf_workloads::{Distribution, QueryGenerator, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(500_000);
    let n_queries = scale.queries(5_000);
    let ranges = [1u64, 2, 4, 8, 16, 32, 64, 100, 1000];

    let keys = Sampler::new(Distribution::Uniform, 64, 0x12_61).sample_distinct(n_keys);
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 0x12_62);

    let mut report = Report::new(
        "fig12g_breakdown",
        &[
            "range",
            "filter",
            "filter_probe_ms",
            "cpu_residual_ms",
            "io_wait_ms",
            "total_ms",
            "blocks_read",
            "fpr",
        ],
    );

    for &range in &ranges {
        let queries = generator.empty_ranges(n_queries, range);
        for kind in FilterKind::point_range_filters(1 << 14) {
            let db = Db::new(DbOptions {
                memtable_flush_entries: (n_keys / 8).max(1024),
                entries_per_block: 8,
                filter_kind: kind,
                bits_per_key: 22.0,
                io_model: IoModel::default(),
                routing: ReadRouting::ScanAll,
            });
            for &k in &keys {
                db.put(k, vec![0u8; 64]);
            }
            db.flush();
            db.reset_stats();
            for q in &queries {
                db.range_is_possibly_non_empty(q.lo, q.hi);
            }
            let stats = db.stats();
            assert!(
                stats.filter_probes > 0,
                "{range} {}: no filter probes",
                kind.label()
            );
            assert!(
                stats.filter_probe_ns > 0,
                "{range} {}: sampled probe time never reached the figure",
                kind.label()
            );
            report.row(&[
                range.to_string(),
                kind.label().to_string(),
                sig(stats.filter_probe_ns as f64 / 1e6),
                sig(stats.cpu_ns as f64 / 1e6),
                sig(stats.io_wait_ns as f64 / 1e6),
                sig(stats.total_ns() as f64 / 1e6),
                stats.blocks_read.to_string(),
                sig(stats.observed_fpr()),
            ]);
        }
    }
    report.finish();
    println!(
        "Shape check (paper): bloomRF has the lowest filter-probe (CPU) cost and the lowest \
         total cost; Rosetta's probe cost grows with the range size (doubting), SuRF pays a \
         constant but higher trie-traversal cost plus extra I/O from its higher short-range FPR."
    );
}
