//! Lock-rank checker coverage: the `flush → memtable → tables → io`
//! hierarchy from `docs/concurrency.md` is machine-enforced in debug builds
//! and must be zero-cost in release builds. CI runs this file in both
//! profiles.

use bloomrf::sync::{rank_checking_enabled, OrderedMutex, OrderedRwLock};
use bloomrf_lsm::ranks;
use std::panic::AssertUnwindSafe;

/// A seeded inversion — taking the `io`-ranked lock before the table-set
/// lock — must panic immediately in debug builds, naming both locks, instead
/// of waiting for a second thread to complete the deadlock.
#[test]
fn seeded_io_before_tables_inversion_panics_in_debug() {
    if !rank_checking_enabled() {
        // Release builds: ranks compile away; the inversion is not detected
        // (the release job asserts zero cost instead).
        return;
    }
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let io = OrderedMutex::<(), { ranks::IO }>::new("faulty_io.transient", ());
        let tables = OrderedRwLock::<(), { ranks::SSTS }>::new("db.tables", ());
        let _io_guard = io.lock();
        let _tables_guard = tables.read(); // rank 20 after rank 50: inversion
    }));
    let payload = result.expect_err("the seeded inversion must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload should be a message");
    assert!(
        message.contains("lock-order inversion"),
        "unexpected panic message: {message}"
    );
    assert!(message.contains("db.tables"), "message must name the lock");
    assert!(
        message.contains("faulty_io.transient"),
        "message must name the held lock"
    );
}

/// The documented order — flush → memtable → tables → io — is accepted with
/// every lock held simultaneously.
#[test]
fn full_documented_order_is_accepted() {
    let flush = OrderedMutex::<(), { ranks::FLUSH }>::new("db.flush", ());
    let memtable = OrderedRwLock::<(), { ranks::MEMTABLE }>::new("memtable.entries", ());
    let tables = OrderedRwLock::<(), { ranks::SSTS }>::new("db.tables", ());
    let io = OrderedMutex::<(), { ranks::IO }>::new("faulty_io.transient", ());
    let _f = flush.lock();
    let _m = memtable.write();
    let _t = tables.write();
    let _i = io.lock();
}

/// Skipping ranks is fine (a flush takes `flush` then `tables` without the
/// memtable in between), and re-acquiring after a full release is fine too.
#[test]
fn partial_chains_and_reacquisition_are_accepted() {
    let flush = OrderedMutex::<(), { ranks::FLUSH }>::new("db.flush", ());
    let tables = OrderedRwLock::<(), { ranks::SSTS }>::new("db.tables", ());
    let io = OrderedMutex::<(), { ranks::IO }>::new("faulty_io.transient", ());
    {
        let _f = flush.lock();
        let _t = tables.read();
    }
    {
        // Fresh acquisition from rank zero: taking `io` alone is legal.
        let _i = io.lock();
    }
    let _t = tables.write();
}

/// The rank constants themselves must encode the documented hierarchy —
/// a refactor that reorders them should fail loudly here.
#[test]
fn rank_constants_are_strictly_increasing_along_the_hierarchy() {
    let chain = [ranks::FLUSH, ranks::MEMTABLE, ranks::SSTS, ranks::IO];
    assert!(
        chain.windows(2).all(|w| w[0] < w[1]),
        "lock ranks must strictly increase along flush → … → io: {chain:?}"
    );
}

/// Release builds: the ranked wrappers must cost nothing — same size as the
/// raw lock (no name field, no token bookkeeping).
#[cfg(not(debug_assertions))]
#[test]
fn release_wrappers_are_zero_cost() {
    use std::mem::size_of;
    assert!(!rank_checking_enabled());
    assert_eq!(
        size_of::<OrderedRwLock<Vec<u64>, { ranks::SSTS }>>(),
        size_of::<bloomrf::sync::RwLock<Vec<u64>>>(),
    );
    assert_eq!(
        size_of::<OrderedMutex<(), { ranks::FLUSH }>>(),
        size_of::<bloomrf::sync::Mutex<()>>(),
    );
}
