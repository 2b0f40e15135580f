//! Figure 12.B: online behaviour, multi-threaded — per-thread point/range
//! lookup and insert throughput while varying the number of concurrent
//! lookup threads and insert threads over one shared bloomRF.

use bloomrf::BloomRf;
use bloomrf_bench::{mops, sig, ExpScale, Report};
use bloomrf_workloads::{Distribution, Sampler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let scale = ExpScale::from_env();
    let n_keys = scale.keys(1_000_000);
    let run_for = if scale.quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(500)
    };
    let range_size = 1u64 << 10;

    let keys = Arc::new(Sampler::new(Distribution::Uniform, 64, 0x12B).sample_many(n_keys));

    let mut report = Report::new(
        "fig12b_online_multi",
        &[
            "lookup_threads",
            "insert_threads",
            "point_lookup_mops_per_thread",
            "range_lookup_mops_per_thread",
            "insert_mops_per_thread",
        ],
    );

    for lookup_threads in [1usize, 2, 4] {
        for insert_threads in [0usize, 1, 2, 4] {
            let filter = Arc::new(
                BloomRf::builder()
                    .expected_keys(n_keys)
                    .bits_per_key(14.0)
                    .build()
                    .expect("config"),
            );
            // Preload half of the keys so lookups have something to find.
            for &k in keys.iter().take(n_keys / 2) {
                filter.insert(k);
            }
            let stop = Arc::new(AtomicBool::new(false));
            let mut handles = Vec::new();

            for t in 0..lookup_threads {
                let filter = Arc::clone(&filter);
                let keys = Arc::clone(&keys);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    let mut point_ops = 0usize;
                    let mut range_ops = 0usize;
                    let mut i = t;
                    let start = Instant::now();
                    // ordering: stop flag only ends the timed loop; a few
                    // extra iterations after the store are harmless.
                    while !stop.load(Ordering::Relaxed) {
                        let probe = keys[i % keys.len()];
                        std::hint::black_box(filter.contains_point(probe));
                        std::hint::black_box(
                            filter.contains_range(probe, probe.saturating_add(range_size)),
                        );
                        point_ops += 1;
                        range_ops += 1;
                        i += 7;
                    }
                    (point_ops, range_ops, 0usize, start.elapsed())
                }));
            }
            for t in 0..insert_threads {
                let filter = Arc::clone(&filter);
                let keys = Arc::clone(&keys);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    let mut ops = 0usize;
                    let mut i = t;
                    let start = Instant::now();
                    // ordering: same run-a-little-longer tolerance as above.
                    while !stop.load(Ordering::Relaxed) {
                        filter.insert(keys[(n_keys / 2 + i) % keys.len()]);
                        ops += 1;
                        i += 3;
                    }
                    (0usize, 0usize, ops, start.elapsed())
                }));
            }

            std::thread::sleep(run_for);
            // ordering: the join below is the real synchronization point.
            stop.store(true, Ordering::Relaxed);

            let mut point_tp = 0.0;
            let mut range_tp = 0.0;
            let mut insert_tp = 0.0;
            for h in handles {
                let (p, r, ins, elapsed) = h.join().expect("worker");
                let secs = elapsed.as_secs_f64();
                if p > 0 {
                    point_tp += mops(p, secs);
                    range_tp += mops(r, secs);
                }
                if ins > 0 {
                    insert_tp += mops(ins, secs);
                }
            }
            report.row(&[
                lookup_threads.to_string(),
                insert_threads.to_string(),
                sig(point_tp / lookup_threads.max(1) as f64),
                sig(range_tp / lookup_threads.max(1) as f64),
                sig(if insert_threads == 0 {
                    0.0
                } else {
                    insert_tp / insert_threads as f64
                }),
            ]);
        }
    }
    report.finish();
    println!(
        "Shape check (paper): per-thread lookup throughput is barely affected by concurrent \
         insert threads (bloomRF is a parallel data structure); aggregate insert throughput \
         grows with more insert threads while per-thread insert throughput declines."
    );
}
