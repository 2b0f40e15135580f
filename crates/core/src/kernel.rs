//! Support code of the batched probe kernel: the filter-size crossover that
//! selects it, the software-prefetch hint, and the scratch buffers it runs on.
//!
//! The per-layer probes of a bloomRF lookup are independent memory reads —
//! the bit position of layer `k+1` depends only on the key, never on the
//! outcome of layer `k` — so a lookup can compute *all* word indices of a
//! layer up front, request the cache lines early with a software prefetch,
//! and test them 4-wide, short-circuiting only at layer boundaries. That
//! overlap pays only when the lines miss cache; on a cache-resident filter
//! the early-exit per-key loop wins. Each filter therefore picks one of the
//! two at construction from its own size (`KERNEL_MIN_FILTER_BITS`). See
//! `docs/probe-kernel.md` for the pipeline and the measurements (committed
//! as `BENCH_probe_kernel.json` at the workspace root).
//!
//! The kernel never changes *which* logical bits are probed — only the order
//! and grouping of the (pure) reads — so it is answer-identical to the
//! per-key calls; `tests/kernel_differential.rs` proves this on both sides
//! of the crossover for every `WordLayout` × query-shape combination.

/// Filter size (`memory_bits()`) at and above which every lookup overlaps its
/// probes — the phase-split batch kernel, the prefetched single-point probe
/// and the range staging pass — instead of running the early-exit per-key
/// loop. 2²⁵ bits = 4 MiB, the private L2 of the measurement host.
///
/// Placed by edit-and-rerun of `fig_probe_kernel` with the constant forced to
/// `0` and to `usize::MAX` (every run is listed in `docs/probe-kernel.md`):
/// the point kernel loses to the plain loop through 16 Mbit (61–64 vs
/// 57–60 ns at 1M keys × 16 bits), is a coin flip at 20–32 Mbit, and wins
/// every point cell from 40 Mbit up (66–70 vs 77–80 ns at 4M × 10). The
/// committed `BENCH_probe_kernel.json` (`probe_kernel_v2`, `path=loop` vs
/// `path=batch` over the public API) brackets it with those two grid sizes:
/// at 1M × 16 the batch rows *are* the loop (56.3–58.5 vs 56.1–58.3 ns), at
/// 4M × 10 they are the kernel (72.2–74.3 vs 75.0–78.4 ns; 65.7–68.1 vs
/// 75.5–78.2 at 4M × 16). There is no runtime override.
pub(crate) const KERNEL_MIN_FILTER_BITS: usize = 1 << 25;

/// Request the cache line holding `*p` into L1, if the target has a prefetch
/// instruction. A pure scheduling hint: no memory is accessed architecturally,
/// no fault can be raised, and nothing synchronizes — which is why
/// [`crate::bitarray::AtomicBits::prefetch_bit`] is sound to call
/// concurrently with writers.
///
/// Under `--cfg bloomrf_loom` the atomics are the model checker's
/// instrumented types, which have no meaningful raw address, and Miri has no
/// notion of caches: there the hint compiles to nothing, so the kernel
/// explores exactly the schedule space of the per-key loop (asserted in
/// `tests/loom_model.rs`).
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(bloomrf_loom), not(miri)))]
    // SAFETY: PREFETCHT0 is a hint instruction — it performs no architectural
    // memory access and never faults, for any address value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(all(target_arch = "aarch64", not(bloomrf_loom), not(miri)))]
    // SAFETY: PRFM PLDL1KEEP is a hint instruction — it performs no
    // architectural memory access and never faults, for any address value.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{addr}]",
            addr = in(reg) p as u64,
            options(nostack, preserves_flags)
        );
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        bloomrf_loom,
        miri
    ))]
    let _ = p;
}

/// Reusable buffers for the batched point kernel.
///
/// [`crate::BloomRf::contains_point_batch_into`] takes one so that a caller
/// probing many batches can hold it across calls and keep the steady state
/// allocation-free (`fig_probe_kernel` does; the batch conveniences such as
/// `may_contain_batch_into` build a fresh one per call). The LSM tree
/// descent does not use it: it probes one key per node with
/// [`crate::BloomRf::point_probe_into`]. Filters below the crossover never
/// touch it.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Indices (into the caller's key slice) of queries still alive.
    pub(crate) alive: Vec<u32>,
    /// Compaction target for `alive` at each layer boundary.
    pub(crate) next_alive: Vec<u32>,
    /// Bit positions of the layer being probed, replica-major.
    pub(crate) cur_pos: Vec<u64>,
    /// Bit positions of the *next* layer, computed (and prefetched) while the
    /// current layer resolves.
    pub(crate) next_pos: Vec<u64>,
    /// Per-alive-query survival flags for the layer being probed (branch-free
    /// accumulation target; `1` = all replicas so far set).
    pub(crate) flags: Vec<u8>,
}

impl ProbeScratch {
    /// A fresh scratch; equivalent to `ProbeScratch::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_callable_on_any_address() {
        // A hint must tolerate arbitrary addresses, including null.
        let x = 42u64;
        prefetch_read(&x);
        prefetch_read(std::ptr::null::<u64>());
    }
}
