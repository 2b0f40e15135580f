//! Figure 12.C: filter-construction cost. The 50M-key uniform dataset is
//! flushed into level-0 SSTs and the total filter build (+ serialization for
//! bloomRF) time is reported per filter family and space budget.

use bloomrf::BloomRf;
use bloomrf_bench::{sig, timed, ExpScale, Report};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel};
use bloomrf_workloads::{Distribution, Sampler};

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(1_000_000);
    let keys = Sampler::new(Distribution::Uniform, 64, 0x12C).sample_distinct(n_keys);

    let mut report = Report::new(
        "fig12c_creation",
        &[
            "bits_per_key",
            "filter",
            "build_s",
            "serialize_s",
            "filter_MiB",
        ],
    );

    for bpk in [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0] {
        for kind in FilterKind::point_range_filters(1 << 14) {
            // Build through the LSM flush path (25 SSTs in the paper; here the
            // number of SSTs follows from the memtable size).
            let db = Db::new(DbOptions {
                memtable_flush_entries: (n_keys / 8).max(1024),
                entries_per_block: 8,
                filter_kind: kind,
                bits_per_key: bpk,
                io_model: IoModel::default(),
                ..Default::default()
            });
            let (_, _load_secs) = timed(|| {
                for &k in &keys {
                    db.put(k, vec![0u8; 16]);
                }
                db.flush();
            });
            let build = db.total_filter_build_time().as_secs_f64();

            // Serialization: measured for bloomRF (the paper implements its own
            // ser/deserialization); other baselines report 0 here.
            let serialize = if matches!(kind, FilterKind::BloomRf { .. }) {
                let filter = BloomRf::builder()
                    .expected_keys(n_keys)
                    .bits_per_key(bpk)
                    .build()
                    .expect("config");
                for &k in &keys {
                    filter.insert(k);
                }
                let (bytes, secs) = timed(|| filter.to_bytes());
                std::hint::black_box(bytes.len());
                secs
            } else {
                0.0
            };

            report.row(&[
                format!("{bpk}"),
                kind.label().to_string(),
                sig(build),
                sig(serialize),
                sig(db.total_filter_bits() as f64 / 8.0 / 1024.0 / 1024.0),
            ]);
        }
    }
    report.finish();
    println!(
        "Shape check (paper): bloomRF has the lowest creation time (plain hashing inserts); \
         SuRF is the most expensive due to sorting + trie construction + suffix tuning."
    );
}
