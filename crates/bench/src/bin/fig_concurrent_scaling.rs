//! Concurrent scaling: throughput of one shared bloomRF filter and the
//! batched LSM read path under 1–16 worker threads.
//!
//! This experiment is not a figure of the paper — it measures the serving
//! layer this reproduction adds on top of it (the online `BloomRf` + the
//! batched probe engine + `Db::get_batch`). Two sweeps are reported:
//!
//! * `filter_mixed` — worker threads replay deterministic mixed
//!   insert/read/scan streams (from `bloomrf_workloads::concurrent`) against
//!   one shared `BloomRf`, flushing operations through the batch APIs
//!   in fixed-size groups.
//! * `lsm_points` — `Db::get_batch` fans one fixed probe batch across
//!   1–16 reader threads over a multi-SST store.
//!
//! Output: ops/s per thread count plus the speedup over the single-threaded
//! row, as `results/fig_concurrent_scaling_*.csv`.

use bloomrf::BloomRf;
use bloomrf_bench::{mops, sig, timed, ExpScale, Report};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions};
use bloomrf_workloads::{ConcurrentConfig, ConcurrentWorkload, Operation};

/// Operations buffered per thread before a flush through the batch APIs.
const BATCH: usize = 512;

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(500_000);
    let total_ops = scale.queries(400_000);
    let thread_counts = [1usize, 2, 4, 8, 16];

    // --- Sweep 1: mixed workload against one shared filter ----------------
    let mut filter_report = Report::new(
        "fig_concurrent_scaling_filter",
        &["threads", "ops", "secs", "mops_per_s", "speedup"],
    );
    let mut baseline_mops = 0.0f64;
    for &threads in &thread_counts {
        let filter = BloomRf::builder()
            .expected_keys(n_keys)
            .bits_per_key(14.0)
            .build()
            .expect("config");
        // Pre-load half of the keys so reads and scans hit realistic occupancy.
        let preload: Vec<u64> = (0..n_keys as u64 / 2)
            .map(bloomrf::hashing::mix64)
            .collect();
        filter.insert_batch(&preload);

        let workload = ConcurrentWorkload::generate(&ConcurrentConfig {
            num_threads: threads,
            ops_per_thread: total_ops / threads,
            read_fraction: 0.4,
            scan_fraction: 0.2,
            range_size: 1 << 12,
            seed: 0xF1_6C0C + threads as u64,
            ..Default::default()
        });
        let ops = workload.total_ops();
        let (_, secs) = timed(|| {
            std::thread::scope(|scope| {
                for stream in &workload.streams {
                    let filter = &filter;
                    scope.spawn(move || run_stream(filter, stream));
                }
            });
        });
        let throughput = mops(ops, secs);
        if threads == 1 {
            baseline_mops = throughput;
        }
        filter_report.push(&[
            threads.to_string(),
            ops.to_string(),
            sig(secs),
            sig(throughput),
            sig(throughput / baseline_mops.max(1e-12)),
        ]);
    }
    filter_report.finish();

    // --- Sweep 2: batched LSM point reads ----------------------------------
    let mut lsm_report = Report::new(
        "fig_concurrent_scaling_lsm",
        &["threads", "ssts", "probes", "secs", "mops_per_s", "speedup"],
    );
    let db = Db::new(DbOptions {
        memtable_flush_entries: 32 * 1024,
        filter_kind: FilterKind::BloomRf { max_range: 1e6 },
        ..Default::default()
    });
    let lsm_keys = n_keys / 2;
    for i in 0..lsm_keys as u64 {
        db.put(i * 64, vec![(i % 251) as u8; 16]);
    }
    db.flush();
    let probes: Vec<u64> = (0..total_ops as u64)
        .map(|i| {
            if i % 2 == 0 {
                (i % lsm_keys as u64) * 64 // present
            } else {
                bloomrf::hashing::mix64(i) | 1 // almost surely absent
            }
        })
        .collect();
    baseline_mops = 0.0;
    for &threads in &thread_counts {
        let (hits, secs) = timed(|| {
            db.get_batch(&probes, threads)
                .iter()
                .filter(|v| v.is_some())
                .count()
        });
        assert!(hits > 0, "sanity: some probes must hit");
        let throughput = mops(probes.len(), secs);
        if threads == 1 {
            baseline_mops = throughput;
        }
        lsm_report.push(&[
            threads.to_string(),
            db.num_ssts().to_string(),
            probes.len().to_string(),
            sig(secs),
            sig(throughput),
            sig(throughput / baseline_mops.max(1e-12)),
        ]);
    }
    lsm_report.finish();
}

/// Replay one thread's operation stream against the shared filter, grouping
/// operations into fixed-size batches for the batched probe engine.
fn run_stream(filter: &BloomRf, stream: &[Operation]) -> (usize, usize) {
    let mut inserts: Vec<u64> = Vec::with_capacity(BATCH);
    let mut reads: Vec<u64> = Vec::with_capacity(BATCH);
    let mut scans: Vec<(u64, u64)> = Vec::with_capacity(BATCH);
    let mut positives = 0usize;
    let mut total = 0usize;
    let flush = |inserts: &mut Vec<u64>, reads: &mut Vec<u64>, scans: &mut Vec<(u64, u64)>| {
        let mut hits = 0usize;
        if !inserts.is_empty() {
            filter.insert_batch(inserts);
            inserts.clear();
        }
        if !reads.is_empty() {
            hits += filter
                .contains_point_batch(reads)
                .iter()
                .filter(|&&b| b)
                .count();
            reads.clear();
        }
        if !scans.is_empty() {
            hits += filter
                .contains_range_batch(scans)
                .iter()
                .filter(|&&b| b)
                .count();
            scans.clear();
        }
        hits
    };
    for op in stream {
        total += 1;
        match op {
            Operation::Insert(k) => inserts.push(*k),
            Operation::Read(k) => reads.push(*k),
            Operation::Scan(q) => scans.push((q.lo, q.hi)),
        }
        if inserts.len() >= BATCH || reads.len() >= BATCH || scans.len() >= BATCH {
            positives += flush(&mut inserts, &mut reads, &mut scans);
        }
    }
    positives += flush(&mut inserts, &mut reads, &mut scans);
    (total, positives)
}
