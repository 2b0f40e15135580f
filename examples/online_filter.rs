//! bloomRF is an *online* filter (Problem 2 of the paper): keys can be
//! inserted while point and range queries run concurrently on other threads —
//! no offline construction pass over the full dataset is needed.
//!
//! Run with: `cargo run --release --example online_filter`

use bloomrf::BloomRf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let n_keys = 2_000_000u64;
    let filter = Arc::new(
        BloomRf::builder()
            .expected_keys(n_keys as usize)
            .bits_per_key(14.0)
            .build()
            .expect("config"),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let lookups_done = Arc::new(AtomicUsize::new(0));

    // Writer: streams keys into the filter.
    let writer = {
        let filter = Arc::clone(&filter);
        std::thread::spawn(move || {
            let start = Instant::now();
            for i in 0..n_keys {
                filter.insert(bloomrf::hashing::mix64(i));
            }
            start.elapsed()
        })
    };

    // Readers: issue point and range lookups while the writer is running.
    let readers: Vec<_> = (0..2)
        .map(|t| {
            let filter = Arc::clone(&filter);
            let stop = Arc::clone(&stop);
            let lookups_done = Arc::clone(&lookups_done);
            std::thread::spawn(move || {
                let mut positives = 0usize;
                let mut i = t as u64;
                // ordering: stop flag and lookup counter are advisory — a
                // few extra loop turns or a slightly stale count are fine.
                while !stop.load(Ordering::Relaxed) {
                    let key = bloomrf::hashing::mix64(i % n_keys);
                    if filter.contains_point(key) {
                        positives += 1;
                    }
                    // ordering: telemetry counter, see above.
                    if filter.contains_range(key, key.saturating_add(1 << 16)) {
                        positives += 1;
                    }
                    lookups_done.fetch_add(2, Ordering::Relaxed);
                    i += 13;
                }
                positives
            })
        })
        .collect();

    let insert_time = writer.join().expect("writer");
    std::thread::sleep(Duration::from_millis(100));
    // ordering: the joins below are the real synchronization points.
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let _ = r.join().expect("reader");
    }

    println!(
        "inserted {} keys in {:.2}s ({:.2} M inserts/s) while {} concurrent lookups ran",
        n_keys,
        insert_time.as_secs_f64(),
        n_keys as f64 / insert_time.as_secs_f64() / 1e6,
        // ordering: readers are joined; this is the final counter value.
        lookups_done.load(Ordering::Relaxed),
    );

    // After the writer finished, every inserted key is visible — no false negatives.
    for i in (0..n_keys).step_by(10_007) {
        assert!(filter.contains_point(bloomrf::hashing::mix64(i)));
    }
    println!("no false negatives after concurrent insertion — online_filter example finished OK");
}
