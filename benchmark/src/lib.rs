//! The repo's one performance yardstick: four named workloads, end-to-end
//! metrics with regression bounds, and an outside-in per-layer trace.
//! See `README.md` for why each workload exists and how to read the numbers.

pub mod api;
pub mod compare;
pub mod filter_wl;
pub mod json;
pub mod keys;
pub mod layers;
pub mod metrics;
pub mod procio;
pub mod stats;
pub mod store_mixed;
pub mod store_read;
pub mod trace;

use metrics::Report;
use std::path::{Path, PathBuf};

/// Data sizes and per-round op counts: constants of the workloads, never
/// derived from time. `--seconds` only decides how many rounds run.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub filter_small_keys: usize,
    pub filter_large_keys: usize,
    /// Keys re-inserted into the write-only twin filter per round.
    pub filter_write_keys: usize,
    /// Base number of 256-call groups per class per round.
    pub filter_groups: usize,
    pub read_segments: usize,
    pub read_flush_entries: usize,
    /// Base number of calls per class per round.
    pub read_calls: usize,
    /// Ops in the `store_mixed` stream (one round replays the whole stream).
    pub mixed_ops: usize,
    pub mixed_flush_entries: usize,
    /// Fewest set-ups per run; `setup_s` is the median of all of them.
    pub setup_repeats: usize,
}

/// Rounds run even when `--seconds` is already spent: the warm-up and two
/// measured ones (one untraced and one traced in a traced run).
pub const MIN_ROUNDS: usize = 3;

impl Sizes {
    pub fn full() -> Self {
        Self {
            filter_small_keys: 200_000,
            filter_large_keys: 16_000_000,
            filter_write_keys: 131_072,
            filter_groups: 128,
            read_segments: 2048,
            read_flush_entries: 512,
            read_calls: 256,
            mixed_ops: 200_000,
            mixed_flush_entries: 4096,
            setup_repeats: 3,
        }
    }

    /// Same code paths at toy data sizes, for the tests. The per-round op
    /// counts stay large enough for a p99 (1000 point samples per round).
    pub fn tiny() -> Self {
        Self {
            filter_small_keys: 4_000,
            filter_large_keys: 40_000,
            filter_write_keys: 2_048,
            filter_groups: 128,
            read_segments: 24,
            read_flush_entries: 64,
            read_calls: 128,
            mixed_ops: 16_000,
            mixed_flush_entries: 128,
            setup_repeats: 2,
        }
    }
}

/// One invocation: a workload, its seed, and how long to measure.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory (inside the checkout): store files and span dumps.
    pub dir: &'a Path,
    pub sizes: &'a Sizes,
}

/// Set up at least `sizes.setup_repeats` times — more while set-up is cheap
/// (under a second in total, up to 15 times), so the median of a
/// millisecond-sized set-up is as steady as that of a long one. Returns the
/// last set-up's product and the median seconds; each product is dropped
/// before the next is built.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    clock: &trace::Clock,
    mut setup: impl FnMut(usize) -> T,
) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut product = None;
    while seconds.len() < ctx.sizes.setup_repeats
        || (seconds.len() < 15 && seconds.iter().sum::<f64>() < 1.0)
    {
        drop(product.take());
        let t = clock.seconds();
        product = Some(setup(seconds.len()));
        seconds.push(clock.seconds() - t);
    }
    (
        product.expect("at least one set-up"),
        stats::median(&seconds),
    )
}

/// Default scratch directory: `benchmark/out/`, ignored by git.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        "filter_small" => Ok(filter_wl::run(
            "filter_small",
            ctx.sizes.filter_small_keys,
            ctx,
        )),
        "filter_large" => Ok(filter_wl::run(
            "filter_large",
            ctx.sizes.filter_large_keys,
            ctx,
        )),
        "store_read" => Ok(store_read::run(ctx)),
        "store_mixed" => store_mixed::run(ctx),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            metrics::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}
