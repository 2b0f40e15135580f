//! Ablation benchmarks for four of the filter's design choices:
//!
//! * basic vs advisor-tuned (extended) bloomRF at equal bits/key;
//! * exact range policy vs the conservative word-budget policy;
//! * forward vs alternating word layout on a degenerate key distribution;
//! * the effect of the level distance Δ (Δ = 1 disables word-level probing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bloomrf::config::RangePolicy;
use bloomrf::hashing::WordLayout;
use bloomrf::{BloomRf, BloomRfConfig, TuningAdvisor};
use bloomrf_workloads::{Distribution, QueryGenerator, Sampler};

const N_KEYS: usize = 50_000;
const BITS_PER_KEY: f64 = 18.0;

fn loaded(config: BloomRfConfig, keys: &[u64]) -> BloomRf {
    let filter = BloomRf::builder().config(config).build().unwrap();
    for &k in keys {
        filter.insert(k);
    }
    filter
}

fn bench_basic_vs_extended(c: &mut Criterion) {
    let keys = Sampler::new(Distribution::Uniform, 64, 1).sample_distinct(N_KEYS);
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 2);
    let queries = generator.empty_ranges(2_000, 1 << 24);

    let basic = loaded(
        BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, 7).unwrap(),
        &keys,
    );
    let tuned = loaded(
        TuningAdvisor::tune_for(64, N_KEYS, BITS_PER_KEY, (1u64 << 24) as f64)
            .unwrap()
            .config,
        &keys,
    );

    let mut group = c.benchmark_group("ablation_basic_vs_extended");
    group.sample_size(20);
    for (name, filter) in [("basic", &basic), ("advisor_tuned", &tuned)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), filter, |b, filter| {
            b.iter(|| {
                let mut fp = 0usize;
                for q in &queries {
                    if filter.contains_range(black_box(q.lo), black_box(q.hi)) {
                        fp += 1;
                    }
                }
                black_box(fp)
            })
        });
    }
    group.finish();
}

fn bench_range_policy(c: &mut Criterion) {
    let keys = Sampler::new(Distribution::Uniform, 64, 3).sample_distinct(N_KEYS);
    let exact = loaded(
        BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, 7).unwrap(),
        &keys,
    );
    let conservative = loaded(
        BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, 7)
            .unwrap()
            .with_range_policy(RangePolicy::Conservative {
                max_words_per_layer: 4,
            }),
        &keys,
    );
    // Oversized ranges (beyond the basic design maximum) stress the policy.
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 4);
    let queries = generator.empty_ranges(200, 1 << 50);

    let mut group = c.benchmark_group("ablation_range_policy");
    group.sample_size(20);
    for (name, filter) in [("exact", &exact), ("conservative", &conservative)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), filter, |b, filter| {
            b.iter(|| {
                let mut positives = 0usize;
                for q in &queries {
                    if filter.contains_range(black_box(q.lo), black_box(q.hi)) {
                        positives += 1;
                    }
                }
                black_box(positives)
            })
        });
    }
    group.finish();
}

fn bench_degenerate_layout(c: &mut Criterion) {
    // Keys with constant low bits — the degenerate case of Sect. 3.2.
    let keys: Vec<u64> = (0..N_KEYS as u64).map(|i| i << 32).collect();
    let forward = loaded(
        BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, 7)
            .unwrap()
            .with_word_layout(WordLayout::Forward),
        &keys,
    );
    let alternating = loaded(
        BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, 7)
            .unwrap()
            .with_word_layout(WordLayout::Alternating),
        &keys,
    );
    let probes: Vec<u64> = (0..10_000u64).map(|i| (i << 32) | (1 << 20)).collect();

    let mut group = c.benchmark_group("ablation_degenerate_layout");
    group.sample_size(20);
    for (name, filter) in [("forward", &forward), ("alternating", &alternating)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), filter, |b, filter| {
            b.iter(|| {
                let mut positives = 0usize;
                for &p in &probes {
                    if filter.contains_point(black_box(p)) {
                        positives += 1;
                    }
                }
                black_box(positives)
            })
        });
    }
    group.finish();
}

fn bench_delta_word_sizes(c: &mut Criterion) {
    // Δ = 1 degenerates the PMHF to single-bit words (no word-level probing):
    // the speed difference quantifies what the piecewise-monotone layout buys.
    let keys = Sampler::new(Distribution::Uniform, 64, 5).sample_distinct(N_KEYS);
    let mut generator = QueryGenerator::new(&keys, Distribution::Uniform, 6);
    let queries = generator.empty_ranges(2_000, 1 << 12);

    let mut group = c.benchmark_group("ablation_delta");
    group.sample_size(20);
    for delta in [1u32, 4, 7] {
        let filter = loaded(
            BloomRfConfig::basic(64, N_KEYS, BITS_PER_KEY, delta).unwrap(),
            &keys,
        );
        group.bench_with_input(BenchmarkId::from_parameter(delta), &filter, |b, filter| {
            b.iter(|| {
                let mut fp = 0usize;
                for q in &queries {
                    if filter.contains_range(black_box(q.lo), black_box(q.hi)) {
                        fp += 1;
                    }
                }
                black_box(fp)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_basic_vs_extended,
    bench_range_policy,
    bench_degenerate_layout,
    bench_delta_word_sizes
);
criterion_main!(benches);
