//! Model-checked concurrency tests for the LSM store, run under
//! `RUSTFLAGS='--cfg bloomrf_loom' cargo test -p bloomrf_lsm --test loom_model`.
//!
//! Every lock in the store goes through the `bloomrf::sync` facade, so under
//! this cfg the vendored `shuttle_loom` checker instruments each acquisition
//! and atomic op and explores the interleavings systematically. Lock-rank
//! checking stays active inside the model (debug builds), so these runs also
//! verify the `flush → memtable → tables → io` hierarchy on every
//! explored schedule. Preemption bound 2 is the CHESS bound: exhaustive over
//! all schedules with at most two forced context switches.
#![cfg(bloomrf_loom)]

use bloomrf_filters::FilterKind;
use bloomrf_lsm::db::{Db, DbOptions, ReadRouting};
use bloomrf_lsm::stats::IoModel;
use shuttle_loom::{thread, Builder};
use std::sync::Arc;

fn tiny_options(routing: ReadRouting) -> DbOptions {
    DbOptions {
        // High flush threshold: tests trigger flushes explicitly.
        memtable_flush_entries: 1000,
        entries_per_block: 8,
        // Fence pointers only — no filter bit array, so the model spends its
        // schedule budget on the store's locks rather than filter internals.
        filter_kind: FilterKind::FencePointers,
        bits_per_key: 8.0,
        io_model: IoModel::default(),
        routing,
    }
}

/// A key must be visible to a concurrent reader at *every* point of a flush:
/// in the memtable before the SST is published, in the SST (or still in the
/// memtable) afterwards. The pre-snapshot flush drained the memtable before
/// pushing the SST, leaving a schedule where `get` saw the key in neither —
/// this test fails on that implementation in a handful of iterations.
#[test]
fn flush_never_hides_a_published_key() {
    let mut builder = Builder::default();
    builder.preemption_bound = Some(2);
    let report = builder.check(|| {
        let db = Arc::new(Db::new(tiny_options(ReadRouting::ScanAll)));
        db.put(1, vec![7]);
        let reader = {
            let db = Arc::clone(&db);
            thread::spawn(move || db.get(1))
        };
        db.flush();
        let seen = reader.join().unwrap();
        assert_eq!(seen, Some(vec![7]), "reader lost the key mid-flush");
        assert_eq!(db.get(1), Some(vec![7]), "key missing after the flush");
        assert_eq!(db.num_ssts(), 1);
    });
    assert!(
        report.exhausted,
        "exploration must be exhaustive within the preemption bound"
    );
    assert!(report.iterations > 1);
}

/// Tree routing: a reader descends the filter tree while a flush appends a
/// new leaf (`push_leaf`) and re-unions the ancestors. The settled key —
/// flushed into an SST before the reader started — must be found on every
/// schedule; the tree has no false negatives, so a concurrent leaf append
/// may never un-route an existing table.
#[test]
fn push_leaf_never_unroutes_a_settled_leaf() {
    let mut builder = Builder::default();
    builder.preemption_bound = Some(2);
    let report = builder.check(|| {
        let db = Arc::new(Db::new(tiny_options(ReadRouting::FilterTree(
            Default::default(),
        ))));
        // Settled state: one SST, one tree leaf.
        db.put(1, vec![7]);
        db.flush();
        // Racing flush of a second table (push_leaf + ancestor re-union).
        db.put(2, vec![8]);
        let reader = {
            let db = Arc::clone(&db);
            thread::spawn(move || db.get(1))
        };
        db.flush();
        let seen = reader.join().unwrap();
        assert_eq!(seen, Some(vec![7]), "tree descent lost a settled leaf");
        assert_eq!(db.get(2), Some(vec![8]));
        assert_eq!(db.num_ssts(), 2);
    });
    assert!(
        report.exhausted,
        "exploration must be exhaustive within the preemption bound"
    );
    assert!(report.iterations > 1);
}

/// Writes racing a flush survive it: an overwrite during the flush window
/// must win over the snapshotted value on every schedule (the forget step
/// only drops entries whose value is unchanged).
#[test]
fn overwrite_racing_a_flush_is_never_lost() {
    let mut builder = Builder::default();
    builder.preemption_bound = Some(2);
    let report = builder.check(|| {
        let db = Arc::new(Db::new(tiny_options(ReadRouting::ScanAll)));
        db.put(1, vec![7]);
        let writer = {
            let db = Arc::clone(&db);
            thread::spawn(move || db.put(1, vec![9]))
        };
        db.flush();
        writer.join().unwrap();
        assert_eq!(
            db.get(1),
            Some(vec![9]),
            "an overwrite racing the flush was lost"
        );
    });
    assert!(
        report.exhausted,
        "exploration must be exhaustive within the preemption bound"
    );
}
