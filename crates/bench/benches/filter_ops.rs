//! Criterion microbenchmarks: insert and point-lookup throughput of bloomRF
//! versus every baseline filter at a fixed 16 bits/key budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use bloomrf::BloomRf;
use bloomrf_filters::FilterKind;
use bloomrf_workloads::{Distribution, Sampler};

const N_KEYS: usize = 100_000;
const BITS_PER_KEY: f64 = 16.0;

fn keys() -> Vec<u64> {
    Sampler::new(Distribution::Uniform, 64, 42).sample_distinct(N_KEYS)
}

fn bench_insert(c: &mut Criterion) {
    let keys = keys();
    let mut group = c.benchmark_group("insert");
    group.sample_size(10);
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("bloomRF_basic", |b| {
        b.iter(|| {
            let filter = BloomRf::builder()
                .expected_keys(keys.len())
                .bits_per_key(BITS_PER_KEY)
                .build()
                .unwrap();
            for &k in &keys {
                filter.insert(black_box(k));
            }
            black_box(filter.key_count())
        })
    });
    for kind in [
        FilterKind::Bloom,
        FilterKind::Cuckoo,
        FilterKind::Rosetta { max_range: 1 << 12 },
        FilterKind::Surf,
    ] {
        group.bench_with_input(BenchmarkId::new("build", kind.label()), &kind, |b, kind| {
            b.iter(|| black_box(kind.build(&keys, BITS_PER_KEY)).memory_bits())
        });
    }
    group.finish();
}

fn bench_point_lookup(c: &mut Criterion) {
    let keys = keys();
    let probes: Vec<u64> = Sampler::new(Distribution::Uniform, 64, 7).sample_many(10_000);
    let mut group = c.benchmark_group("point_lookup");
    group.sample_size(20);
    group.throughput(Throughput::Elements(probes.len() as u64));
    for kind in [
        FilterKind::BloomRf { max_range: 1e4 },
        FilterKind::Bloom,
        FilterKind::Cuckoo,
        FilterKind::Rosetta { max_range: 1 << 12 },
        FilterKind::Surf,
    ] {
        let filter = kind.build(&keys, BITS_PER_KEY);
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &filter,
            |b, filter| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for &p in &probes {
                        if filter.may_contain(black_box(p)) {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_point_lookup);
criterion_main!(benches);
