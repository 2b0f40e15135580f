//! Probe-path microbenchmark: a loop over the per-key lookups vs the batch
//! entry points, both through the public API only (see
//! `docs/probe-kernel.md`), measured honestly — explicit warm-up, Tukey
//! outlier rejection and a 95% confidence interval per cell, via the same
//! [`bloomrf_bench::SampleStats`] pipeline the criterion shim reports with.
//!
//! A filter picks its point probe path from its own size at construction,
//! so below the crossover the point `batch` rows *are* the loop (plus the
//! call overhead) and at or above it they are the two-stage batch against
//! the prefetched per-key probe. A range batch is the loop on both sides.
//! The sweep is the evidence for where the crossover constant sits: no cell
//! may have `batch` slower than `loop` by more than 10%, which
//! `cargo run -p xtask -- bench-check` enforces on the committed snapshot.
//!
//! Three experiments in one binary:
//!
//! 1. **Probe sweep** — point and range batches across key counts, space
//!    budgets, batch sizes and the two paths. This is the regression surface
//!    `cargo run -p xtask -- bench-check` guards.
//! 2. **Layout A/B** — `WordLayout::Forward` vs `WordLayout::Alternating`
//!    at the headline configuration, backing the measured default in
//!    [`bloomrf::BloomRfConfig`].
//! 3. **Headline** — loop vs batch at 64-key batches and 16 bits/key on the
//!    largest filter, reported as a single speedup number.
//!
//! Run with: `cargo run --release --bin fig_probe_kernel`
//! (`QUICK=1` measures a reduced grid; unmeasured rows are emitted with
//! `"skipped": true` so QUICK and full snapshots stay diffable.)
//!
//! # Snapshot format (`BENCH_probe_kernel.json`)
//!
//! Schema `probe_kernel_v2`:
//!
//! ```json
//! {
//!   "snapshot": "probe_kernel_v2",
//!   "config": { "samples": .., "quick": .., "queries_per_run": ..,
//!               "range_width": .. },
//!   "probe_rows": [ { "keys": .., "bits_per_key": .., "batch": ..,
//!                     "path": "loop|batch",
//!                     "mode": "point|range", "skipped": false,
//!                     "ns_per_op": .., "min_ns_per_op": ..,
//!                     "ci95_ns": .., "outliers": .. }, .. ],
//!   "layout_rows": [ { "layout": "forward|alternating", "path": ..,
//!                      "skipped": false, "ns_per_op": .., .. }, .. ],
//!   "headline": { "keys": .., "bits_per_key": 16, "batch": 64,
//!                 "mode": "point", "loop_ns": .., "batch_ns": ..,
//!                 "speedup": .. }
//! }
//! ```
//!
//! The snapshot path defaults to `BENCH_probe_kernel.json` in the working
//! directory; override with the `BENCH_SNAPSHOT` environment variable.

use bloomrf::hashing::WordLayout;
use bloomrf::{BloomRf, BloomRfConfig};
use bloomrf_bench::{sig, ExpScale, Report, SampleStats};
use std::time::Instant;

/// Deterministic multiplicative permutation: unique pseudo-random keys.
fn key_of(j: u64) -> u64 {
    j.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Level distance of the basic configuration under test.
const DELTA: u32 = 7;
/// Inclusive width of every range query.
const RANGE_WIDTH: u64 = 1 << 10;

/// Row tags of the two ways a chunk of queries reaches the filter, in the
/// order [`time_paths`] returns them: one `contains_point` / `contains_range`
/// call per query, or one `contains_*_batch_into` call per chunk.
const PATHS: [&str; 2] = ["loop", "batch"];

fn build_filter(n_keys: usize, bits_per_key: f64, layout: WordLayout) -> BloomRf {
    let config = BloomRfConfig::basic(64, n_keys, bits_per_key, DELTA)
        .expect("basic config")
        .with_word_layout(layout);
    let filter = BloomRf::builder().config(config).build().expect("filter");
    let keys: Vec<u64> = (0..n_keys as u64).map(key_of).collect();
    filter.insert_batch(&keys);
    filter
}

/// Half present, half absent probe keys (absent keys are permutation values
/// past the loaded prefix — distinct from every present key).
fn probe_keys(n_keys: usize, n_queries: usize) -> Vec<u64> {
    (0..n_queries as u64)
        .map(|i| {
            if i % 2 == 0 {
                key_of(i.wrapping_mul(7919) % n_keys as u64)
            } else {
                key_of(n_keys as u64 + i)
            }
        })
        .collect()
}

/// Ranges of width [`RANGE_WIDTH`], half anchored just below a present key,
/// half at absent keys (empty with near certainty in a 2^64 domain).
fn probe_ranges(n_keys: usize, n_queries: usize) -> Vec<(u64, u64)> {
    probe_keys(n_keys, n_queries)
        .into_iter()
        .map(|lo| (lo, lo.saturating_add(RANGE_WIDTH)))
        .collect()
}

/// Time both paths over the whole query set, `batch` queries at a time:
/// `one` answers a single query (the loop path calls it per query), `many` is
/// the batch entry point. Samples alternate between the paths, so a pace
/// shift of the (shared) host lands on both sides of the comparison instead
/// of on whichever was measured second. Returns `[loop, batch]`.
fn time_paths<Q: Copy>(
    queries: &[Q],
    batch: usize,
    samples: usize,
    one: impl Fn(Q) -> bool,
    mut many: impl FnMut(&[Q], &mut Vec<bool>),
) -> [SampleStats; 2] {
    let mut out: Vec<bool> = Vec::new();
    let mut per_op = [Vec::new(), Vec::new()];
    // Round 0 is the warm-up of both paths.
    for round in 0..=samples {
        for (slot, ns) in per_op.iter_mut().enumerate() {
            let start = Instant::now();
            for chunk in queries.chunks(batch) {
                if slot == 0 {
                    out.clear();
                    out.extend(chunk.iter().map(|&q| one(q)));
                } else {
                    many(chunk, &mut out);
                }
                std::hint::black_box(&out);
            }
            if round > 0 {
                ns.push(start.elapsed().as_nanos() as f64 / queries.len() as f64);
            }
        }
    }
    per_op.map(|ns| SampleStats::from_ns(&ns).expect("at least one sample"))
}

/// [`time_paths`] for point lookups.
fn time_points(
    filter: &BloomRf,
    queries: &[u64],
    batch: usize,
    samples: usize,
) -> [SampleStats; 2] {
    time_paths(
        queries,
        batch,
        samples,
        |k| filter.contains_point(k),
        |chunk, out| filter.contains_point_batch_into(chunk, out),
    )
}

/// One snapshot row: the identifying `tags`, then the measured statistics —
/// or nulls with `"skipped": true` when the cell was not measured.
fn row_json(tags: &str, value_key: &str, stats: Option<&SampleStats>) -> String {
    match stats {
        Some(s) => format!(
            "    {{ {tags}, \"skipped\": false, \"{value_key}\": {:.2}, \
             \"min_ns_per_op\": {:.2}, \"ci95_ns\": {:.2}, \"outliers\": {} }}",
            s.mean_ns, s.min_ns, s.ci95_ns, s.outliers
        ),
        None => format!(
            "    {{ {tags}, \"skipped\": true, \"{value_key}\": null, \
             \"min_ns_per_op\": null, \"ci95_ns\": null, \"outliers\": null }}"
        ),
    }
}

/// The three statistics columns of the printed table.
fn stat_cells(stats: Option<&SampleStats>) -> [String; 3] {
    match stats {
        Some(s) => [sig(s.mean_ns), sig(s.min_ns), sig(s.ci95_ns)],
        None => ["skipped".to_string(), "-".to_string(), "-".to_string()],
    }
}

fn main() {
    let scale = ExpScale::from_env();
    let samples = if scale.quick { 3 } else { 10 };
    let n_queries = scale.queries(100_000);

    let key_counts: &[usize] = &[100_000, 1_000_000, 4_000_000];
    let budgets: &[f64] = &[10.0, 16.0];
    let batches: &[usize] = &[16, 64, 256];
    // QUICK measures one filter configuration and one batch size; every
    // other cell is emitted as skipped so the row sets stay identical.
    let measure_cell = |keys: usize, batch: usize| !scale.quick || (keys == 100_000 && batch == 64);

    let mut report = Report::new(
        "fig_probe_kernel",
        &[
            "keys",
            "bits_per_key",
            "batch",
            "path",
            "mode",
            "ns_per_op",
            "min_ns",
            "ci95_ns",
        ],
    );
    let mut probe_rows: Vec<String> = Vec::new();
    let mut headline: Option<String> = None;
    // Speedup reference cell: 64-key batches at 16 bits/key at the largest
    // measured key count — the out-of-cache regime the kernel exists for.
    let headline_keys = if scale.quick { 100_000 } else { 4_000_000 };

    for &n_keys in key_counts {
        for &bits_per_key in budgets {
            let needs_filter = batches.iter().any(|&b| measure_cell(n_keys, b));
            let filter =
                needs_filter.then(|| build_filter(n_keys, bits_per_key, WordLayout::Forward));
            let points = probe_keys(n_keys, n_queries);
            let ranges = probe_ranges(n_keys, n_queries);
            for &batch in batches {
                let measured = filter.as_ref().filter(|_| measure_cell(n_keys, batch));
                let point = measured.map(|f| time_points(f, &points, batch, samples));
                let range = measured.map(|f| {
                    time_paths(
                        &ranges,
                        batch,
                        samples,
                        |(lo, hi)| f.contains_range(lo, hi),
                        |chunk, out| f.contains_range_batch_into(chunk, out),
                    )
                });
                for (slot, path) in PATHS.into_iter().enumerate() {
                    for (mode, stats) in [("point", &point), ("range", &range)] {
                        let stats = stats.as_ref().map(|s| &s[slot]);
                        let [mean, min, ci] = stat_cells(stats);
                        report.push(&[
                            n_keys.to_string(),
                            bits_per_key.to_string(),
                            batch.to_string(),
                            path.to_string(),
                            mode.to_string(),
                            mean,
                            min,
                            ci,
                        ]);
                        probe_rows.push(row_json(
                            &format!(
                                "\"keys\": {n_keys}, \"bits_per_key\": {bits_per_key}, \
                                 \"batch\": {batch}, \"path\": \"{path}\", \"mode\": \"{mode}\""
                            ),
                            "ns_per_op",
                            stats,
                        ));
                    }
                }
                if let (true, Some([loop_stats, batch_stats])) = (
                    n_keys == headline_keys && bits_per_key == 16.0 && batch == 64,
                    &point,
                ) {
                    headline = Some(format!(
                        "  \"headline\": {{ \"keys\": {headline_keys}, \"bits_per_key\": 16, \
                         \"batch\": 64, \"mode\": \"point\", \"loop_ns\": {:.2}, \
                         \"batch_ns\": {:.2}, \"speedup\": {:.2} }}",
                        loop_stats.mean_ns,
                        batch_stats.mean_ns,
                        loop_stats.mean_ns / batch_stats.mean_ns.max(1e-9),
                    ));
                }
            }
        }
    }

    // Layout A/B at the headline configuration: does reversing in-word
    // offsets for half the prefix space (Alternating) cost anything at
    // lookup time? Forward is the measured default.
    let mut layout_rows: Vec<String> = Vec::new();
    for (name, layout) in [
        ("forward", WordLayout::Forward),
        ("alternating", WordLayout::Alternating),
    ] {
        let filter = (!scale.quick).then(|| build_filter(headline_keys, 16.0, layout));
        let points = probe_keys(headline_keys, n_queries);
        let stats = filter
            .as_ref()
            .map(|f| time_points(f, &points, 64, samples));
        for (slot, path) in PATHS.into_iter().enumerate() {
            let stats = stats.as_ref().map(|s| &s[slot]);
            if let Some(s) = stats {
                report.push(&[
                    headline_keys.to_string(),
                    "16".to_string(),
                    "64".to_string(),
                    format!("{path}[{name}]"),
                    "point".to_string(),
                    sig(s.mean_ns),
                    sig(s.min_ns),
                    sig(s.ci95_ns),
                ]);
            }
            layout_rows.push(row_json(
                &format!("\"layout\": \"{name}\", \"path\": \"{path}\""),
                "ns_per_op",
                stats,
            ));
        }
    }

    report.finish();

    let snapshot = format!(
        "{{\n  \"snapshot\": \"probe_kernel_v2\",\n  \"config\": {{ \
         \"samples\": {samples}, \"quick\": {}, \"queries_per_run\": {n_queries}, \
         \"range_width\": {RANGE_WIDTH} }},\n  \
         \"probe_rows\": [\n{}\n  ],\n  \"layout_rows\": [\n{}\n  ],\n{}\n}}\n",
        scale.quick,
        probe_rows.join(",\n"),
        layout_rows.join(",\n"),
        headline.unwrap_or_else(|| "  \"headline\": null".to_string()),
    );
    let path = std::env::var("BENCH_SNAPSHOT").unwrap_or_else(|_| "BENCH_probe_kernel.json".into());
    std::fs::write(&path, snapshot).expect("write snapshot");
    println!("[written] {path}");
}
