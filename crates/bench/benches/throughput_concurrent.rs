//! Criterion microbenchmarks for the batched probe engine and the sharded
//! concurrent filter: batch vs one-at-a-time APIs, and mixed-stream
//! throughput under multiple writer/reader threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bloomrf::BloomRf;
use bloomrf_workloads::{Distribution, Sampler};

const N_KEYS: usize = 100_000;
const N_PROBES: usize = 10_000;
const BITS_PER_KEY: f64 = 14.0;

fn keys() -> Vec<u64> {
    Sampler::new(Distribution::Uniform, 64, 0xC0_1D).sample_distinct(N_KEYS)
}

fn probes() -> Vec<u64> {
    Sampler::new(Distribution::Uniform, 64, 0xBEEF).sample_many(N_PROBES)
}

fn loaded_filter(keys: &[u64]) -> BloomRf {
    let f = BloomRf::basic(64, keys.len(), BITS_PER_KEY, 7).unwrap();
    f.insert_batch(keys);
    f
}

fn bench_batch_vs_single(c: &mut Criterion) {
    let keys = keys();
    let probes = probes();
    let ranges: Vec<(u64, u64)> = probes
        .iter()
        .map(|&p| (p, p.saturating_add(1 << 12)))
        .collect();
    let filter = loaded_filter(&keys);

    let mut group = c.benchmark_group("point_probe");
    group.sample_size(20);
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("single", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &p in &probes {
                if filter.contains_point(black_box(p)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            black_box(
                filter
                    .contains_point_batch(black_box(&probes))
                    .iter()
                    .filter(|&&x| x)
                    .count(),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("range_probe");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ranges.len() as u64));
    group.bench_function("single", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(lo, hi) in &ranges {
                if filter.contains_range(black_box(lo), black_box(hi)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            black_box(
                filter
                    .contains_range_batch(black_box(&ranges))
                    .iter()
                    .filter(|&&x| x)
                    .count(),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("insert");
    group.sample_size(10);
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("single", |b| {
        b.iter(|| {
            let f = BloomRf::basic(64, keys.len(), BITS_PER_KEY, 7).unwrap();
            for &k in &keys {
                f.insert(black_box(k));
            }
            black_box(f.key_count())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            let f = BloomRf::basic(64, keys.len(), BITS_PER_KEY, 7).unwrap();
            f.insert_batch(black_box(&keys));
            black_box(f.key_count())
        })
    });
    group.finish();
}

fn bench_concurrent_mixed(c: &mut Criterion) {
    let keys = keys();
    let probes = probes();
    let mut group = c.benchmark_group("concurrent_mixed");
    group.sample_size(10);
    group.throughput(Throughput::Elements((keys.len() + probes.len()) as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    // Half the threads insert disjoint key slices in batches,
                    // the other half probe points and ranges concurrently.
                    let filter = BloomRf::builder()
                        .expected_keys(keys.len())
                        .bits_per_key(BITS_PER_KEY)
                        .sharded(16)
                        .build()
                        .unwrap();
                    let writers = threads.div_ceil(2);
                    std::thread::scope(|scope| {
                        for chunk in keys.chunks(keys.len().div_ceil(writers)) {
                            let filter = &filter;
                            scope.spawn(move || filter.insert_batch(chunk));
                        }
                        for chunk in probes.chunks(probes.len().div_ceil(threads - writers + 1)) {
                            let filter = &filter;
                            scope.spawn(move || {
                                let points = filter.contains_point_batch(chunk);
                                let ranges: Vec<(u64, u64)> = chunk
                                    .iter()
                                    .map(|&p| (p, p.saturating_add(1 << 10)))
                                    .collect();
                                let spans = filter.contains_range_batch(&ranges);
                                black_box(points.len() + spans.len())
                            });
                        }
                    });
                    black_box(filter.key_count())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_vs_single, bench_concurrent_mixed);
criterion_main!(benches);
