//! Model-checked concurrency tests for the bloomRF core, run under
//! `RUSTFLAGS='--cfg bloomrf_loom' cargo test -p bloomrf --test loom_model`.
//!
//! Under that cfg the `bloomrf::sync` facade swaps its std/parking_lot
//! backends for the vendored `shuttle_loom` model checker, which explores
//! thread interleavings exhaustively (bounded DFS over every scheduling
//! decision) instead of relying on whatever the OS scheduler happens to do.
//! `report.exhausted` asserts that *every* schedule was covered, so these are
//! proofs over the interleaving space of the test body — within the checker's
//! fidelity limits (sequentially consistent interleavings only; see
//! `docs/concurrency.md`).
#![cfg(bloomrf_loom)]

use bloomrf::bitarray::AtomicBits;
use bloomrf::BloomRf;
use shuttle_loom::{thread, Builder};
use std::sync::Arc;

/// Two threads set different bits of the *same* word through
/// `AtomicBits::set`'s atomic `fetch_or`. Every interleaving must keep both
/// updates — the classic lost-update bug (plain read-modify-write) fails
/// this under the checker.
#[test]
fn word_set_loses_no_update_across_two_threads() {
    let report = Builder::default().check(|| {
        let bits = Arc::new(AtomicBits::new(64));
        let handles: Vec<_> = [1usize, 5]
            .into_iter()
            .map(|idx| {
                let bits = Arc::clone(&bits);
                thread::spawn(move || bits.set(idx))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(bits.get(1) && bits.get(5), "a word update was lost");
        assert_eq!(bits.count_ones(), 2);
    });
    assert!(report.exhausted, "exploration must be exhaustive");
    assert!(
        report.iterations > 1,
        "two racing writers must produce more than one schedule"
    );
}

/// Three threads on one word, two of them racing on the *same* bit (the
/// second `fetch_or` of that bit changes nothing). No schedule may lose the
/// third thread's neighbouring-bit update. Full DFS over three writers is
/// combinatorially infeasible, so this explores every schedule with at most
/// two preemptions — the CHESS bound that catches virtually all real
/// interleaving bugs.
#[test]
fn word_set_three_threads_with_same_bit_race() {
    let mut builder = Builder::default();
    builder.preemption_bound = Some(2);
    let report = builder.check(|| {
        let bits = Arc::new(AtomicBits::new(64));
        let handles: Vec<_> = [3usize, 3, 9]
            .into_iter()
            .map(|idx| {
                let bits = Arc::clone(&bits);
                thread::spawn(move || bits.set(idx))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(bits.get(3) && bits.get(9));
        assert_eq!(bits.count_ones(), 2);
    });
    assert!(
        report.exhausted,
        "exploration must be exhaustive within the preemption bound"
    );
}

/// Online use: one thread inserts a batch while another runs point queries.
/// The documented contract is *no false negatives for keys inserted before
/// the query began*; keys inserted concurrently may or may not be seen, and
/// after the writer is joined they must all be visible. Preemption-bounded
/// (the filter touches one word per level, so full DFS would be huge).
#[test]
fn insert_batch_vs_point_queries_never_lose_settled_keys() {
    let mut builder = Builder::default();
    builder.preemption_bound = Some(2);
    let report = builder.check(|| {
        let filter = Arc::new(
            BloomRf::builder()
                .expected_keys(16)
                .bits_per_key(12.0)
                .build()
                .unwrap(),
        );
        filter.insert(42);
        let writer = {
            let filter = Arc::clone(&filter);
            thread::spawn(move || filter.insert_batch(&[7, 4711]))
        };
        // Settled key: visible in every schedule, even mid-insert_batch.
        let seen = filter.contains_point_batch(&[42]);
        assert!(seen[0], "a key inserted before the query went missing");
        writer.join().unwrap();
        // Writer joined: its keys are settled now.
        let after = filter.contains_point_batch(&[7, 4711, 42]);
        assert!(after.iter().all(|&b| b), "a joined writer's key is missing");
    });
    assert!(report.iterations > 1);
}

/// The overlapped batch introduces no new synchronization: under `bloomrf_loom`
/// the prefetch hint compiles to a no-op, so on a filter above the size
/// crossover (2²⁵ bits, mirrored from the crate-private
/// `KERNEL_MIN_FILTER_BITS`) the batch call performs the same atomic loads as
/// a loop over the per-key call — each key's exact-layer bit once, then its
/// layer positions up to the first unset one — only grouped differently.
/// Running the same writer-vs-reader scenario once per path must (a) uphold
/// the settled-key contract in every schedule and (b) explore *identical*
/// schedule counts — a batch that acquired a lock or added an atomic op
/// would change the interleaving space and the iteration count with it.
#[test]
fn batch_kernel_adds_no_synchronization() {
    type Probe = fn(&BloomRf, &[u64], &mut Vec<bool>);
    let per_key: Probe = |filter, keys, out| {
        out.clear();
        out.extend(keys.iter().map(|&k| filter.contains_point(k)));
    };
    let batch: Probe = |filter, keys, out| filter.contains_point_batch_into(keys, out);
    let explore = |probe: Probe| {
        let mut builder = Builder::default();
        builder.preemption_bound = Some(2);
        let report = builder.check(move || {
            let filter = Arc::new(
                BloomRf::builder()
                    .expected_keys(1 << 21)
                    .bits_per_key(16.0)
                    .build()
                    .unwrap(),
            );
            assert!(
                filter.memory_bits() >= 1 << 25,
                "filter must run the overlapped batch"
            );
            filter.insert(42);
            let writer = {
                let filter = Arc::clone(&filter);
                thread::spawn(move || filter.insert_batch(&[7, 4711]))
            };
            let mut out = Vec::new();
            probe(&filter, &[42], &mut out);
            assert!(out[0], "a key inserted before the query went missing");
            writer.join().unwrap();
            probe(&filter, &[7, 4711, 42], &mut out);
            assert!(out.iter().all(|&b| b), "a joined writer's key is missing");
        });
        assert!(report.exhausted, "exploration must be exhaustive");
        report.iterations
    };
    assert_eq!(
        explore(per_key),
        explore(batch),
        "the overlapped batch changed the schedule space"
    );
}
