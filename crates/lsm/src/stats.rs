//! Read-path statistics and the simulated I/O cost model.
//!
//! The paper's system-level experiments (Fig. 9, 10, 12.G) measure end-to-end
//! probe cost inside RocksDB: filter probe time, residual CPU, filter-block
//! deserialization and I/O wait. Our LSM substrate keeps SST blocks in memory
//! and *simulates* the I/O component: every block read is counted and charged
//! a configurable latency, so the cost breakdown has the same structure while
//! remaining deterministic and laptop-friendly.
//!
//! The two clocks of the read path (`filter_probe_ns`, `cpu_ns`) are read
//! on one call in 64 per thread and the sample is scaled up, so they are
//! estimates; every count is exact.

use bloomrf::sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// One call in this many, per thread and per [`Clock`], reads the time.
pub(crate) const CLOCK_SAMPLE_PERIOD: u32 = 64;

/// The read-path clocks. Each keeps its own per-thread call counter, so a
/// call that reads both (a point hit) cannot alias one onto the other's
/// samples.
#[derive(Clone, Copy)]
pub(crate) enum Clock {
    /// Time inside SST filter probes (`filter_probe_ns`).
    FilterProbe,
    /// Time searching data blocks (`cpu_ns`).
    Cpu,
}

thread_local! {
    static CLOCK_CALLS: [Cell<u32>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// A 1-in-[`CLOCK_SAMPLE_PERIOD`] sampled stopwatch: the only reader of the
/// time on the SST read path. Unsampled calls cost one thread-local
/// increment; sampled ones report their duration × the period, an unbiased
/// estimate of the time all calls of the period took.
pub(crate) struct SampledClock(Option<Instant>);

impl SampledClock {
    /// Count one call of `clock` on this thread; start timing if it is due.
    pub(crate) fn start(clock: Clock) -> Self {
        let due = CLOCK_CALLS.with(|calls| {
            let calls = &calls[clock as usize];
            let n = calls.get();
            calls.set(n.wrapping_add(1));
            n % CLOCK_SAMPLE_PERIOD == 0
        });
        Self(due.then(Instant::now))
    }

    /// Nanoseconds to record: the scaled sample, or 0 when not sampled.
    pub(crate) fn estimate_ns(self) -> u64 {
        self.0.map_or(0, |start| {
            start.elapsed().as_nanos() as u64 * u64::from(CLOCK_SAMPLE_PERIOD)
        })
    }
}

/// Cost model for simulated storage accesses.
#[derive(Clone, Copy, Debug)]
pub struct IoModel {
    /// Simulated latency charged per data-block read.
    pub block_read_latency: Duration,
}

impl Default for IoModel {
    fn default() -> Self {
        // A 4-KiB random read from a SATA SSD (the paper's 2016-era testbed).
        Self {
            block_read_latency: Duration::from_micros(100),
        }
    }
}

/// Aggregated read-path counters. All counters are atomic so that concurrent
/// readers can share one instance.
///
/// Every count is exact. The two durations the SST read path records,
/// `filter_probe_ns` and `cpu_ns`, are 1-in-64 sampled estimates: one call
/// in 64 per thread is timed and counted 64 times.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Number of filter probes executed (point + range).
    pub filter_probes: AtomicU64,
    /// Filter probes that answered "maybe".
    pub filter_positives: AtomicU64,
    /// Filter probes that answered "no" (saved I/O).
    pub filter_negatives: AtomicU64,
    /// Filter positives that turned out to contain no matching key
    /// (false positives observed end-to-end).
    pub false_positives: AtomicU64,
    /// Data blocks read (and charged simulated I/O latency).
    pub blocks_read: AtomicU64,
    /// Nanoseconds spent inside filter probes (wall clock, sampled estimate).
    pub filter_probe_ns: AtomicU64,
    /// Nanoseconds of simulated I/O wait (exact: blocks × latency).
    pub io_wait_ns: AtomicU64,
    /// Nanoseconds spent searching data blocks and copying the values they
    /// return (CPU residual, sampled estimate).
    pub cpu_ns: AtomicU64,
    /// Filter blocks whose persisted bytes failed verification on recovery
    /// and were set aside (each one is also counted in `filters_rebuilt`
    /// once its replacement has been constructed).
    pub filters_quarantined: AtomicU64,
    /// Filter blocks rebuilt from verified data blocks during recovery
    /// (quarantined blocks plus families that never persist their filter).
    pub filters_rebuilt: AtomicU64,
    /// Incomplete tail SSTs (torn by a crash mid-flush) skipped on recovery.
    pub tail_ssts_skipped: AtomicU64,
    /// Transient read errors that were retried successfully.
    pub read_retries: AtomicU64,
    /// Flushes whose persistence step failed (the SST stays memory-only).
    pub persist_failures: AtomicU64,
    /// Filter-tree node probes executed during query routing (one per
    /// `(node, query)` pair the descent visited, fence checks included).
    pub tree_probes: AtomicU64,
    /// `(query, SST)` pairs the filter tree pruned: an inner node, the
    /// table's key fence or the table's own filter — the tree's leaf, whose
    /// tests also count in `filter_probes` — rejected the query. Each
    /// pruned pair is an *implicit true negative* — see
    /// [`ReadStatsSnapshot::effective_fpr`].
    pub ssts_pruned: AtomicU64,
    /// `(query, SST)` pairs the router selected (tree routing: the
    /// candidates, whose filters passed; scan-all: every live SST, whose
    /// fences and filter the candidates step then tests).
    pub ssts_probed: AtomicU64,
    /// Filter-tree rebuild events: one per compaction splice, which rebuilds
    /// the inner levels around the merged leaf. Building the tree when a
    /// store opens is not counted.
    pub tree_rebuilds: AtomicU64,
    /// Gauge (not a counter): SSTs currently serving reads from memory whose
    /// persistence failed — they would be missing after a reopen until a
    /// later flush or compaction re-attempts and succeeds.
    pub unpersisted_ssts: AtomicU64,
}

/// Bump one telemetry counter. All [`ReadStats`] fields are independent,
/// monotonic counters: nothing is ever published *through* them, no reader
/// derives a decision from a cross-counter invariant, and snapshots are
/// explicitly allowed to be an inconsistent cut — so relaxed ordering is
/// sufficient everywhere in this module.
fn add(counter: &AtomicU64, n: u64) {
    // ordering: independent telemetry counter (see `add`'s doc comment).
    counter.fetch_add(n, Ordering::Relaxed);
}

impl ReadStats {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for counter in [
            &self.filter_probes,
            &self.filter_positives,
            &self.filter_negatives,
            &self.false_positives,
            &self.blocks_read,
            &self.filter_probe_ns,
            &self.io_wait_ns,
            &self.cpu_ns,
            &self.filters_quarantined,
            &self.filters_rebuilt,
            &self.tail_ssts_skipped,
            &self.read_retries,
            &self.persist_failures,
            &self.tree_probes,
            &self.ssts_pruned,
            &self.ssts_probed,
            &self.tree_rebuilds,
            &self.unpersisted_ssts,
        ] {
            // ordering: counters are independent; a reset racing recorders
            // may zero some counters before others, which snapshots tolerate.
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Record one filter probe outcome and its duration.
    pub fn record_filter_probe(&self, positive: bool, nanos: u64) {
        add(&self.filter_probes, 1);
        add(&self.filter_probe_ns, nanos);
        if positive {
            add(&self.filter_positives, 1);
        } else {
            add(&self.filter_negatives, 1);
        }
    }

    /// Record a batch of filter probes at once: `positives` answered
    /// "maybe", `negatives` "no", taking `nanos` in total.
    pub(crate) fn record_filter_probes(&self, positives: u64, negatives: u64, nanos: u64) {
        add(&self.filter_probes, positives + negatives);
        add(&self.filter_positives, positives);
        add(&self.filter_negatives, negatives);
        add(&self.filter_probe_ns, nanos);
    }

    /// Record `blocks` simulated block reads under the given model.
    pub fn record_block_reads(&self, blocks: u64, model: &IoModel) {
        add(&self.blocks_read, blocks);
        add(
            &self.io_wait_ns,
            blocks * model.block_read_latency.as_nanos() as u64,
        );
    }

    /// Record residual CPU time.
    pub fn record_cpu(&self, nanos: u64) {
        add(&self.cpu_ns, nanos);
    }

    /// Record an observed end-to-end false positive.
    pub fn record_false_positive(&self) {
        add(&self.false_positives, 1);
    }

    /// Record a filter block quarantined (persisted bytes failed verification).
    pub fn record_filter_quarantined(&self) {
        add(&self.filters_quarantined, 1);
    }

    /// Record a filter block rebuilt from verified data blocks.
    pub fn record_filter_rebuilt(&self) {
        add(&self.filters_rebuilt, 1);
    }

    /// Record an incomplete tail SST skipped during recovery.
    pub fn record_tail_sst_skipped(&self) {
        add(&self.tail_ssts_skipped, 1);
    }

    /// Record `n` transient read errors that bounded retry absorbed.
    pub fn record_read_retries(&self, n: u64) {
        add(&self.read_retries, n);
    }

    /// Record a failed persistence attempt (flush kept memory-only).
    pub fn record_persist_failure(&self) {
        add(&self.persist_failures, 1);
    }

    /// Record `n` filter-tree node probes.
    pub fn record_tree_probes(&self, n: u64) {
        add(&self.tree_probes, n);
    }

    /// Record `n` `(query, SST)` pairs pruned by the filter tree.
    pub fn record_ssts_pruned(&self, n: u64) {
        add(&self.ssts_pruned, n);
    }

    /// Record `n` `(query, SST)` pairs selected for probing.
    pub fn record_ssts_probed(&self, n: u64) {
        add(&self.ssts_probed, n);
    }

    /// Record one filter-tree rebuild event (recovery fallback or subtree
    /// rebuild after retirement).
    pub fn record_tree_rebuild(&self) {
        add(&self.tree_rebuilds, 1);
    }

    /// Set the unpersisted-SST gauge to the current count (store, not add:
    /// the flush path recomputes the number of memory-only tables after every
    /// persistence attempt).
    pub fn record_unpersisted_ssts(&self, n: u64) {
        // ordering: last-writer-wins gauge; writers already serialize on the
        // file ledger lock, readers tolerate a stale value.
        self.unpersisted_ssts.store(n, Ordering::Relaxed);
    }

    /// Snapshot into a plain struct. The snapshot is *not* a consistent cut:
    /// counters recorded concurrently may be split across it (e.g. a probe
    /// counted but its outcome not yet). Callers quiesce writers when they
    /// need exact totals — every experiment in this repo does.
    pub fn snapshot(&self) -> ReadStatsSnapshot {
        // ordering: independent telemetry counters; consistency across
        // counters is explicitly not promised (see doc comment above).
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ReadStatsSnapshot {
            filter_probes: read(&self.filter_probes),
            filter_positives: read(&self.filter_positives),
            filter_negatives: read(&self.filter_negatives),
            false_positives: read(&self.false_positives),
            blocks_read: read(&self.blocks_read),
            filter_probe_ns: read(&self.filter_probe_ns),
            io_wait_ns: read(&self.io_wait_ns),
            cpu_ns: read(&self.cpu_ns),
            filters_quarantined: read(&self.filters_quarantined),
            filters_rebuilt: read(&self.filters_rebuilt),
            tail_ssts_skipped: read(&self.tail_ssts_skipped),
            read_retries: read(&self.read_retries),
            persist_failures: read(&self.persist_failures),
            tree_probes: read(&self.tree_probes),
            ssts_pruned: read(&self.ssts_pruned),
            ssts_probed: read(&self.ssts_probed),
            tree_rebuilds: read(&self.tree_rebuilds),
            unpersisted_ssts: read(&self.unpersisted_ssts),
        }
    }
}

/// A plain copy of [`ReadStats`] counters. Counts are exact;
/// `filter_probe_ns` and `cpu_ns` are 1-in-64 sampled estimates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStatsSnapshot {
    /// Number of filter probes executed.
    pub filter_probes: u64,
    /// Probes answering "maybe".
    pub filter_positives: u64,
    /// Probes answering "no".
    pub filter_negatives: u64,
    /// End-to-end false positives.
    pub false_positives: u64,
    /// Data blocks read.
    pub blocks_read: u64,
    /// Time in filter probes (ns, 1-in-64 sampled estimate).
    pub filter_probe_ns: u64,
    /// Simulated I/O wait (ns).
    pub io_wait_ns: u64,
    /// Residual CPU time (ns, 1-in-64 sampled estimate).
    pub cpu_ns: u64,
    /// Filter blocks quarantined on recovery.
    pub filters_quarantined: u64,
    /// Filter blocks rebuilt from verified data blocks.
    pub filters_rebuilt: u64,
    /// Incomplete tail SSTs skipped on recovery.
    pub tail_ssts_skipped: u64,
    /// Transient read errors absorbed by bounded retry.
    pub read_retries: u64,
    /// Failed persistence attempts.
    pub persist_failures: u64,
    /// Filter-tree node probes executed during query routing.
    pub tree_probes: u64,
    /// `(query, SST)` probe pairs the filter tree pruned (probes avoided).
    pub ssts_pruned: u64,
    /// `(query, SST)` probe pairs the router selected for probing.
    pub ssts_probed: u64,
    /// Filter-tree rebuild events (one per compaction splice).
    pub tree_rebuilds: u64,
    /// SSTs currently serving reads from memory only (persistence failed).
    pub unpersisted_ssts: u64,
}

impl ReadStatsSnapshot {
    /// Observed filter false-positive rate: false positives / probes on
    /// queries whose true answer is empty. (Callers that issue only empty
    /// queries can use this directly.)
    ///
    /// The denominator counts only *executed* SST-filter probes. Under tree
    /// routing most SSTs are never probed at all, which deflates the
    /// denominator and makes this rate look worse than the workload actually
    /// experienced — use [`ReadStatsSnapshot::effective_fpr`] for
    /// FPR-by-predicate reporting that credits pruned SSTs.
    pub fn observed_fpr(&self) -> f64 {
        if self.filter_probes == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.filter_probes as f64
        }
    }

    /// Pruning-adjusted false-positive rate over every `(query, SST)` pair
    /// the query *logically* asked about: the pairs selected for probing
    /// (`ssts_probed`) plus the pairs the filter tree pruned (`ssts_pruned`)
    /// — the same per-SST denominator as
    /// [`ReadStatsSnapshot::pruning_ratio`]. A pruned pair is an implicit
    /// true negative (the tree only prunes when no key can match), so it
    /// belongs in the denominator; without it, FPR-by-predicate reporting
    /// degrades as pruning improves. `filter_probes` deliberately does *not*
    /// appear here: it counts executed probe calls rather than `(query, SST)`
    /// pairs, which diverges from the per-SST accounting (early-out on a hit,
    /// key-range prechecks) and made the rate inconsistent with
    /// [`ReadStatsSnapshot::pruning_ratio`].
    pub fn effective_fpr(&self) -> f64 {
        let denominator = self.ssts_probed + self.ssts_pruned;
        if denominator == 0 {
            0.0
        } else {
            self.false_positives as f64 / denominator as f64
        }
    }

    /// Fraction of `(query, SST)` pairs the filter tree pruned away:
    /// `ssts_pruned / (ssts_pruned + ssts_probed)`. Zero when scan-all
    /// routing is active (nothing is ever pruned).
    pub fn pruning_ratio(&self) -> f64 {
        let total = self.ssts_pruned + self.ssts_probed;
        if total == 0 {
            0.0
        } else {
            self.ssts_pruned as f64 / total as f64
        }
    }

    /// Total end-to-end cost in nanoseconds (probe + CPU + simulated I/O).
    pub fn total_ns(&self) -> u64 {
        self.filter_probe_ns + self.io_wait_ns + self.cpu_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = ReadStats::new();
        let model = IoModel::default();
        stats.record_filter_probe(true, 100);
        stats.record_filter_probe(false, 50);
        stats.record_block_reads(3, &model);
        stats.record_cpu(10);
        stats.record_false_positive();
        let snap = stats.snapshot();
        assert_eq!(snap.filter_probes, 2);
        assert_eq!(snap.filter_positives, 1);
        assert_eq!(snap.filter_negatives, 1);
        assert_eq!(snap.blocks_read, 3);
        assert_eq!(snap.filter_probe_ns, 150);
        assert_eq!(snap.io_wait_ns, 3 * 100_000);
        assert_eq!(snap.cpu_ns, 10);
        assert_eq!(snap.false_positives, 1);
        assert!((snap.observed_fpr() - 0.5).abs() < 1e-12);
        assert_eq!(snap.total_ns(), 150 + 300_000 + 10);
        stats.reset();
        assert_eq!(stats.snapshot(), ReadStatsSnapshot::default());
        assert_eq!(ReadStatsSnapshot::default().observed_fpr(), 0.0);
    }

    #[test]
    fn recovery_counters_accumulate_and_reset() {
        let stats = ReadStats::new();
        stats.record_filter_quarantined();
        stats.record_filter_rebuilt();
        stats.record_filter_rebuilt();
        stats.record_tail_sst_skipped();
        stats.record_read_retries(3);
        stats.record_persist_failure();
        let snap = stats.snapshot();
        assert_eq!(snap.filters_quarantined, 1);
        assert_eq!(snap.filters_rebuilt, 2);
        assert_eq!(snap.tail_ssts_skipped, 1);
        assert_eq!(snap.read_retries, 3);
        assert_eq!(snap.persist_failures, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), ReadStatsSnapshot::default());
    }

    #[test]
    fn tree_counters_accumulate_and_reset() {
        let stats = ReadStats::new();
        stats.record_tree_probes(5);
        stats.record_ssts_pruned(90);
        stats.record_ssts_probed(10);
        stats.record_tree_rebuild();
        let snap = stats.snapshot();
        assert_eq!(snap.tree_probes, 5);
        assert_eq!(snap.ssts_pruned, 90);
        assert_eq!(snap.ssts_probed, 10);
        assert_eq!(snap.tree_rebuilds, 1);
        assert!((snap.pruning_ratio() - 0.9).abs() < 1e-12);
        stats.reset();
        assert_eq!(stats.snapshot(), ReadStatsSnapshot::default());
        assert_eq!(ReadStatsSnapshot::default().pruning_ratio(), 0.0);
    }

    #[test]
    fn effective_fpr_credits_pruned_ssts() {
        let stats = ReadStats::new();
        // 10 probed (query, SST) pairs, 1 end-to-end false positive, 90
        // pruned pairs: per executed probe the rate is 0.1, but over
        // everything the query logically asked about it is 1/100.
        for _ in 0..10 {
            stats.record_filter_probe(true, 0);
        }
        stats.record_ssts_probed(10);
        stats.record_false_positive();
        stats.record_ssts_pruned(90);
        let snap = stats.snapshot();
        assert!((snap.observed_fpr() - 0.1).abs() < 1e-12);
        assert!((snap.effective_fpr() - 0.01).abs() < 1e-12);
        assert_eq!(ReadStatsSnapshot::default().effective_fpr(), 0.0);
    }

    #[test]
    fn effective_fpr_and_pruning_ratio_share_a_denominator() {
        // Regression: effective_fpr used to divide by
        // filter_probes + ssts_pruned, so extra probe calls that are not
        // per-SST pairs (early-outs, batch confirmations) skewed it against
        // pruning_ratio. Both must now use ssts_probed + ssts_pruned.
        let stats = ReadStats::new();
        for _ in 0..25 {
            stats.record_filter_probe(true, 0); // more probe calls than pairs
        }
        stats.record_ssts_probed(10);
        stats.record_ssts_pruned(40);
        stats.record_false_positive();
        let snap = stats.snapshot();
        assert!((snap.effective_fpr() - 1.0 / 50.0).abs() < 1e-12);
        assert!((snap.pruning_ratio() - 40.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn unpersisted_gauge_stores_rather_than_adds() {
        let stats = ReadStats::new();
        stats.record_unpersisted_ssts(3);
        stats.record_unpersisted_ssts(1);
        assert_eq!(stats.snapshot().unpersisted_ssts, 1);
        stats.record_unpersisted_ssts(0);
        assert_eq!(stats.snapshot().unpersisted_ssts, 0);
        stats.record_unpersisted_ssts(2);
        stats.reset();
        assert_eq!(stats.snapshot(), ReadStatsSnapshot::default());
    }

    #[test]
    fn each_clock_times_one_call_in_the_period() {
        // Two clocks read alternately, as a point hit does: each still
        // samples its own first call and then one in every period.
        let calls = 4 * CLOCK_SAMPLE_PERIOD as usize;
        let (mut probes, mut cpu) = (0, 0);
        for _ in 0..calls {
            probes += usize::from(SampledClock::start(Clock::FilterProbe).0.is_some());
            cpu += usize::from(SampledClock::start(Clock::Cpu).0.is_some());
        }
        assert_eq!((probes, cpu), (4, 4));
        let first = std::thread::spawn(|| SampledClock::start(Clock::Cpu).0.is_some());
        assert!(first.join().unwrap(), "a fresh thread times its first call");
        // The loop ended on a period boundary: the next call is timed, the
        // one after it is not.
        assert!(SampledClock::start(Clock::Cpu).0.is_some());
        assert_eq!(SampledClock::start(Clock::Cpu).estimate_ns(), 0);
    }

    #[test]
    fn io_model_default_is_ssd_like() {
        let model = IoModel::default();
        assert!(model.block_read_latency >= Duration::from_micros(10));
        assert!(model.block_read_latency <= Duration::from_millis(1));
    }
}
