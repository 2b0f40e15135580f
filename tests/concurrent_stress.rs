//! Multi-threaded stress tests for the concurrent serving layer: N writer
//! threads and M reader threads share one filter (or one LSM store); after
//! joining, every inserted key must be visible — the zero-false-negative
//! contract of an online filter survives arbitrary interleavings.
//!
//! Thread counts scale with the `STRESS_WRITERS` / `STRESS_READERS`
//! environment variables (the heavy CI job raises them; defaults stay
//! laptop-friendly).
//!
//! Data-race coverage: `cargo test` exercises the atomics under real
//! contention, and the heavy CI job re-runs this suite with elevated thread
//! counts. ThreadSanitizer itself needs a nightly toolchain plus a std
//! rebuild (`RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test
//! -Zbuild-std --target x86_64-unknown-linux-gnu --test concurrent_stress`),
//! which the offline CI runners cannot do — see the note in
//! `.github/workflows/ci.yml`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bloomrf::BloomRf;
use bloomrf_lsm::{Db, DbOptions};
use bloomrf_workloads::{ConcurrentConfig, ConcurrentWorkload, Operation};

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn writers() -> usize {
    env_count("STRESS_WRITERS", 4)
}

fn readers() -> usize {
    env_count("STRESS_READERS", 4)
}

/// N writers insert disjoint key partitions through the single and batch
/// APIs while M readers hammer per-key and batched point and range probes;
/// after join, every key every writer inserted must test positive as a point
/// and inside ranges.
#[test]
fn flat_filter_has_no_false_negatives_under_contention() {
    let writers = writers();
    let readers = readers();
    let keys_per_writer = 20_000usize;
    let workload = ConcurrentWorkload::generate(&ConcurrentConfig {
        num_threads: writers,
        ops_per_thread: keys_per_writer * 2,
        read_fraction: 0.3,
        scan_fraction: 0.2,
        range_size: 1 << 12,
        seed: 0x57_2E55,
        ..Default::default()
    });
    let total_keys: usize = (0..writers).map(|t| workload.inserted_keys(t).len()).sum();
    let filter = Arc::new(
        BloomRf::builder()
            .expected_keys(total_keys.max(1))
            .bits_per_key(14.0)
            .build()
            .expect("config"),
    );
    let probes_done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for t in 0..writers {
            let filter = Arc::clone(&filter);
            let keys = workload.inserted_keys(t);
            scope.spawn(move || {
                // Mix batch sizes: singles and batches must interleave safely.
                for chunk in keys.chunks(97) {
                    if chunk.len() == 1 {
                        filter.insert(chunk[0]);
                    } else {
                        filter.insert_batch(chunk);
                    }
                }
            });
        }
        for r in 0..readers {
            let filter = Arc::clone(&filter);
            let stream = workload.streams[r % workload.streams.len()].clone();
            let probes_done = Arc::clone(&probes_done);
            scope.spawn(move || {
                let mut points = Vec::new();
                let mut ranges = Vec::new();
                for op in &stream {
                    match op {
                        Operation::Read(k) => points.push(*k),
                        Operation::Scan(q) => ranges.push((q.lo, q.hi)),
                        Operation::Insert(k) => points.push(*k),
                    }
                }
                // Results are unasserted here (concurrent reads may miss
                // in-flight inserts); the point is exercising the probe
                // paths under write contention.
                for &k in &points {
                    std::hint::black_box(filter.contains_point(k));
                }
                let a = filter.contains_point_batch(&points);
                let b = filter.contains_range_batch(&ranges);
                probes_done.fetch_add(a.len() + b.len(), Ordering::Relaxed);
            });
        }
    });

    assert!(probes_done.load(Ordering::Relaxed) > 0);
    assert_eq!(filter.key_count(), total_keys as u64);
    // Post-join: zero false negatives, via both the single and batch APIs.
    for t in 0..writers {
        let keys = workload.inserted_keys(t);
        let batch = filter.contains_point_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert!(batch[i], "batched false negative for {k} (writer {t})");
            assert!(
                filter.contains_point(k),
                "false negative for {k} (writer {t})"
            );
        }
        let ranges: Vec<(u64, u64)> = keys
            .iter()
            .step_by(37)
            .map(|&k| (k.saturating_sub(1000), k.saturating_add(1000)))
            .collect();
        for (i, hit) in filter.contains_range_batch(&ranges).iter().enumerate() {
            assert!(hit, "range false negative around {:?}", ranges[i]);
        }
    }
}

/// Concurrent writers + batched readers on the LSM store: after joining,
/// every written key is readable through `get_batch` at several thread
/// counts, and the batched answers match sequential `get`s.
#[test]
fn lsm_store_batched_reads_survive_concurrent_writes() {
    let writers = writers().min(4);
    let readers = readers();
    let keys_per_writer = 2_000u64;
    let db = Arc::new(Db::new(DbOptions {
        memtable_flush_entries: 1024,
        ..Default::default()
    }));
    // Writer keys are disjoint by construction (tagged with the writer id).
    let key_of = |t: u64, i: u64| (i * writers as u64 + t) * 10;
    std::thread::scope(|scope| {
        for t in 0..writers as u64 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                for i in 0..keys_per_writer {
                    db.put(key_of(t, i), key_of(t, i).to_le_bytes().to_vec());
                }
            });
        }
        for _ in 0..readers {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let probes: Vec<u64> = (0..500u64).map(|i| i * 10).collect();
                let _ = db.get_batch(&probes, 2);
                let ranges: Vec<(u64, u64)> =
                    (0..100u64).map(|i| (i * 100, i * 100 + 50)).collect();
                let _ = db.range_non_empty_batch(&ranges, 2);
            });
        }
    });
    db.flush();
    assert_eq!(
        db.num_entries(),
        writers * keys_per_writer as usize,
        "no write was lost"
    );
    let all_keys: Vec<u64> = (0..writers as u64)
        .flat_map(|t| (0..keys_per_writer).map(move |i| key_of(t, i)))
        .collect();
    for threads in [1usize, 4, 0] {
        let got = db.get_batch(&all_keys, threads);
        for (i, &k) in all_keys.iter().enumerate() {
            assert_eq!(
                got[i],
                Some(k.to_le_bytes().to_vec()),
                "key {k} at threads={threads}"
            );
        }
    }
}
