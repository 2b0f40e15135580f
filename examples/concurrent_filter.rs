//! Concurrent serving with one shared `Arc<BloomRf>` and the batched probe
//! engine: writer threads insert disjoint key partitions through
//! `insert_batch` while reader threads issue batched point probes, then the
//! answers are differentially checked against a filter loaded on one thread.
//!
//! Run with `cargo run --release --example concurrent_filter`.

use std::sync::Arc;

use bloomrf::BloomRf;

fn main() {
    let writers = 4usize;
    let keys_per_writer = 100_000usize;
    let n_keys = writers * keys_per_writer;

    // `insert` and `insert_batch` take `&self` (every write is an atomic OR
    // into the filter's bit array), so one `Arc<BloomRf>` is shared by all
    // threads without a lock.
    let filter = Arc::new(
        BloomRf::builder()
            .expected_keys(n_keys)
            .bits_per_key(14.0)
            .build()
            .expect("config"),
    );
    println!(
        "shared filter: {} keys budgeted, {:.1} KiB",
        n_keys,
        filter.memory_bits() as f64 / 8.0 / 1024.0
    );

    // Writers insert disjoint partitions concurrently; readers probe while
    // the writes are in flight.
    let keys_of = |w: usize| -> Vec<u64> {
        (0..keys_per_writer as u64)
            .map(|i| bloomrf::hashing::mix64(w as u64 * 0x1_0000_0000 + i))
            .collect()
    };
    std::thread::scope(|scope| {
        for w in 0..writers {
            let filter = Arc::clone(&filter);
            scope.spawn(move || {
                for chunk in keys_of(w).chunks(4096) {
                    filter.insert_batch(chunk);
                }
            });
        }
        for r in 0..2 {
            let filter = Arc::clone(&filter);
            scope.spawn(move || {
                let probes: Vec<u64> = (0..50_000u64)
                    .map(|i| bloomrf::hashing::mix64(i ^ (r as u64) << 40))
                    .collect();
                let hits = filter
                    .contains_point_batch(&probes)
                    .iter()
                    .filter(|&&b| b)
                    .count();
                println!(
                    "reader {r}: {hits}/{} concurrent probes positive",
                    probes.len()
                );
            });
        }
    });
    println!(
        "inserted {} keys across {writers} writer threads",
        filter.key_count()
    );

    // After joining, every inserted key is visible — zero false negatives.
    for w in 0..writers {
        let keys = keys_of(w);
        let found = filter
            .contains_point_batch(&keys)
            .iter()
            .filter(|&&b| b)
            .count();
        assert_eq!(found, keys.len(), "writer {w} lost keys");
    }
    println!("zero false negatives after join");

    // Differential check: a filter loaded on one thread from the same keys
    // holds the same bits and answers identically, point and range.
    let sequential = BloomRf::builder()
        .expected_keys(n_keys)
        .bits_per_key(14.0)
        .build()
        .expect("config");
    for w in 0..writers {
        sequential.insert_batch(&keys_of(w));
    }
    assert_eq!(sequential.snapshot_bits(), filter.snapshot_bits());
    let probes: Vec<u64> = (0..20_000u64)
        .map(|i| bloomrf::hashing::mix64(i + 7))
        .collect();
    let ranges: Vec<(u64, u64)> = probes
        .iter()
        .map(|&p| (p, p.saturating_add(1 << 16)))
        .collect();
    assert_eq!(
        sequential.contains_point_batch(&probes),
        filter.contains_point_batch(&probes)
    );
    assert_eq!(
        sequential.contains_range_batch(&ranges),
        filter.contains_range_batch(&ranges)
    );
    println!("concurrent answers are bit-identical to the sequential filter");
}
