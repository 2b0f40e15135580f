//! Support code of the overlapped probe paths: the filter-size crossover
//! that selects them and the software-prefetch hint they issue.
//!
//! The per-layer probes of a bloomRF lookup are independent memory reads —
//! the bit position of layer `k+1` depends only on the key, never on the
//! outcome of layer `k` — so a lookup can compute every position up front,
//! request the cache lines early with a software prefetch, and only then
//! test them. That overlap pays only when the lines miss cache; on a
//! cache-resident filter the early-exit per-key loop wins. Each filter
//! therefore picks one of the two at construction from its own size
//! (`KERNEL_MIN_FILTER_BITS`).
//!
//! Point lookups have three schedules; the two overlapped ones run the one
//! point computation of the crate, [`crate::PointProbe`]:
//!
//! 1. below the crossover, `contains_point` (and the batch calls, which loop
//!    over it) tests the exact-layer bit, then each layer in turn, stopping
//!    at the first unset bit;
//! 2. at or above it, `contains_point` tests the exact-layer bit, and only a
//!    key it admits is hashed into a probe whose positions are all
//!    prefetched before any is tested;
//! 3. at or above it, the batch calls run the filter tree's two-stage
//!    schedule over a window of 16 keys: every key's exact-layer bit is
//!    requested, the admitted keys are hashed and their positions
//!    requested, and then the positions are tested.
//!
//! Range lookups have one schedule on both sides of the crossover: the
//! two-path lookup reads a bounded number of words per layer, so a range
//! batch is a loop over `contains_range`.
//!
//! `docs/probe-kernel.md` has the measurements behind each ordering
//! (committed as `BENCH_probe_kernel.json` at the workspace root).
//!
//! No schedule changes *which* logical bits are probed — only the order and
//! grouping of the (pure) reads — so all are answer-identical to one
//! another; `tests/kernel_differential.rs` proves this on both sides of the
//! crossover for every `WordLayout` × query-shape combination, and holds the
//! point drivers to a reference built from the public API alone.

/// Filter size (`memory_bits()`) at and above which every point lookup
/// overlaps its probes — the prefetched [`crate::PointProbe`] drivers —
/// instead of running the early-exit per-key loop. Range lookups ignore it.
/// 2²⁵ bits = 4 MiB, the private L2 of the measurement host.
///
/// Placed by edit-and-rerun of `fig_probe_kernel` with the constant forced to
/// `0` and to `usize::MAX` (every run is listed in `docs/probe-kernel.md`),
/// when the overlapped batch was a layer-major kernel: it lost to the plain
/// loop through 16 Mbit (61–64 vs 57–60 ns at 1M keys × 16 bits), was a
/// coin flip at 20–32 Mbit, and won every point cell from 40 Mbit up (66–70
/// vs 77–80 ns at 4M × 10). The committed `BENCH_probe_kernel.json`
/// (`probe_kernel_v2`, `path=loop` vs `path=batch` over the public API)
/// brackets it with those two grid sizes. There is no runtime override.
pub(crate) const KERNEL_MIN_FILTER_BITS: usize = 1 << 25;

/// Request the cache line holding `*p` into L1, if the target has a prefetch
/// instruction. A pure scheduling hint: no memory is accessed architecturally,
/// no fault can be raised, and nothing synchronizes — which is why
/// [`crate::bitarray::AtomicBits::prefetch_bit`] is sound to call
/// concurrently with writers.
///
/// Under `--cfg bloomrf_loom` the atomics are the model checker's
/// instrumented types, which have no meaningful raw address, and Miri has no
/// notion of caches: there the hint compiles to nothing, so the batch path
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
