//! Differential tests for Bloofi-style filter-tree routing: tree-routed
//! reads must be byte-identical to the scan-all reference path — for every
//! read API, for every fan-out, with data split across memtable and SSTs,
//! after fault-injected recovery quarantined filters, and after open removed
//! a leftover `TREE` file. `Db::scan` is additionally held to a `BTreeMap`
//! model across put / overwrite / delete / flush / compact streams and a
//! durable reopen.
//! Plus the headline acceptance checks: at 1 000 SSTs a point get probes
//! O(fan-out · depth) filters, not 1 000, and a narrow scan visits only the
//! tables the router selects.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bloomrf_filters::FilterKind;
use bloomrf_lsm::io::{FaultConfig, FaultyIo, RealIo};
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, ReadStatsSnapshot, TreeOptions};
use proptest::prelude::*;

/// Self-cleaning std-only temporary directory (the environment has no
/// `tempfile` crate; see vendor/README.md).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bloomrf-tree-diff-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Base seed for the fault-injection schedules; CI's `fault-injection` job
/// replays under several seeds via `FAULT_SEED` (decimal or `0x`-hex).
fn fault_seed(default: u64) -> u64 {
    match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparsable FAULT_SEED {s:?}"))
        }
        Err(_) => default,
    }
}

fn options(flush_entries: usize, routing: ReadRouting) -> DbOptions {
    DbOptions {
        memtable_flush_entries: flush_entries,
        entries_per_block: 8,
        filter_kind: FilterKind::BloomRf { max_range: 1e6 },
        bits_per_key: 16.0,
        io_model: IoModel::default(),
        routing,
    }
}

fn tree_routing(fanout: usize) -> ReadRouting {
    ReadRouting::FilterTree(TreeOptions {
        fanout,
        leaf_keys: None,
        bits_per_key: None,
    })
}

fn value_for(key: u64, version: usize) -> Vec<u8> {
    vec![(key % 251) as u8, (version % 97) as u8, 0xA5]
}

/// Assert every read API answers identically on the two stores.
fn assert_reads_identical(
    scan: &Db,
    routed: &Db,
    probes: &[u64],
    ranges: &[(u64, u64)],
    context: &str,
) {
    for &k in probes {
        assert_eq!(scan.get(k), routed.get(k), "{context}: get({k})");
    }
    for threads in [1usize, 3] {
        assert_eq!(
            scan.get_batch(probes, threads),
            routed.get_batch(probes, threads),
            "{context}: get_batch(threads={threads})"
        );
        assert_eq!(
            scan.range_non_empty_batch(ranges, threads),
            routed.range_non_empty_batch(ranges, threads),
            "{context}: range_non_empty_batch(threads={threads})"
        );
    }
    for &(lo, hi) in ranges {
        assert_eq!(
            scan.range_is_possibly_non_empty(lo, hi),
            routed.range_is_possibly_non_empty(lo, hi),
            "{context}: range [{lo}, {hi}]"
        );
        assert_eq!(
            scan.scan(lo, hi, 16),
            routed.scan(lo, hi, 16),
            "{context}: scan [{lo}, {hi}]"
        );
    }
}

/// The ISSUE's acceptance criterion: with 1 000 SSTs and a point-sparse
/// keyspace, a tree-routed `Db::get` visits O(fan-out · depth) filter nodes
/// and selects a handful of candidate SSTs — the other ~999 are pruned
/// without ever probing their per-SST filters.
#[test]
fn thousand_ssts_point_gets_probe_fanout_times_depth_not_one_thousand() {
    let fanout = 16usize;
    let db = Db::new(options(8, tree_routing(fanout)));
    for i in 0..8_000u64 {
        db.put(i * 1_000, value_for(i * 1_000, 0)); // sparse: gaps of 1000
    }
    assert_eq!(db.num_ssts(), 1_000);
    let (levels, nodes, _bits) = db.tree_shape().expect("tree routing is on");
    assert_eq!(levels, 4, "1000 leaves at fan-out 16 need 4 levels");
    assert!(nodes >= 1_000, "one leaf per SST plus inner nodes");

    // Present keys: the descent re-probes the children of each positive
    // node, so a clean root-to-leaf walk costs at most fanout · (depth − 1)
    // + 1 tree probes; false positives add a bounded extra. The candidate
    // set is the one owning SST plus rare false-positive leaves.
    let queries = 200u64;
    db.reset_stats();
    for i in 0..queries {
        let k = (i * 37 % 8_000) * 1_000;
        assert!(db.get(k).is_some(), "present key {k}");
    }
    let stats = db.stats();
    let probe_budget = (fanout * levels) as f64; // O(fan-out · depth)
    let tree_probes_per_get = stats.tree_probes as f64 / queries as f64;
    let ssts_probed_per_get = stats.ssts_probed as f64 / queries as f64;
    assert!(
        tree_probes_per_get <= 2.0 * probe_budget,
        "descent must stay within O(fanout*depth): {tree_probes_per_get:.1} probes/get \
         vs budget {probe_budget}"
    );
    assert!(
        ssts_probed_per_get <= 8.0,
        "candidates must be the owner plus rare false positives, \
         got {ssts_probed_per_get:.1} SSTs/get out of 1000"
    );
    assert!(
        stats.ssts_pruned as f64 / queries as f64 >= 990.0,
        "nearly all 1000 tables must be pruned per get"
    );

    // Absent keys between the gaps: usually rejected high in the tree.
    db.reset_stats();
    for i in 0..queries {
        assert_eq!(db.get(i * 1_000 + 500), None, "absent key");
    }
    let stats = db.stats();
    assert!(
        stats.ssts_probed as f64 / queries as f64 <= 4.0,
        "absent keys must select (almost) no SSTs"
    );
    assert!(stats.pruning_ratio() > 0.99);
    assert!(stats.effective_fpr() < 0.05);
}

/// `Db::scan` goes through the router like every other read: on a
/// many-table store a narrow scan selects a handful of tables under tree
/// routing and every table under scan-all, with identical rows.
#[test]
fn narrow_scan_probes_only_routed_tables() {
    let routed = Db::new(options(8, tree_routing(8)));
    let scan = Db::new(options(8, ReadRouting::ScanAll));
    for i in 0..1_600u64 {
        for db in [&routed, &scan] {
            db.put(i * 1_000, value_for(i * 1_000, 0));
        }
    }
    assert_eq!(routed.num_ssts(), 200);
    assert_eq!(scan.num_ssts(), 200);

    routed.reset_stats();
    scan.reset_stats();
    // 21 keys straddling three adjacent tables.
    let rows = routed.scan(795_000, 815_000, 100);
    assert_eq!(rows.len(), 21);
    assert_eq!(rows, scan.scan(795_000, 815_000, 100));
    let probed = routed.stats().ssts_probed;
    assert!(
        (3..=12).contains(&probed),
        "a narrow scan must visit the owners plus rare false positives, \
         got {probed} of 200 tables"
    );
    assert!(routed.stats().ssts_pruned >= 188);
    assert_eq!(scan.stats().ssts_probed, 200, "scan-all visits every table");
    assert_eq!(scan.stats().ssts_pruned, 0);
}

/// The router prunes ranges as well as the tables' own filters do: its
/// levels are tuned by the tables' recipe (the advisor at their
/// `max_range`) and its leaves are the tables' filters, so on a
/// `store_read`-shaped store a routed 20-row scan reads no more tables than
/// the filter positives a scan-all store sees on the same scans.
#[test]
fn routed_scans_read_no_more_tables_than_scan_all_filter_positives() {
    let store = |routing| {
        Db::new(DbOptions {
            memtable_flush_entries: 512,
            bits_per_key: 16.0,
            routing,
            ..DbOptions::default()
        })
    };
    let routed = store(ReadRouting::default());
    let scan = store(ReadRouting::ScanAll);
    // SplitMix64 finalizer: uniform keys, so every table spans the domain
    // and only filters prune.
    let mix = |i: u64| {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut keys: Vec<u64> = (0..256 * 512).map(mix).collect();
    for &key in &keys {
        for db in [&routed, &scan] {
            db.put(key, [key.to_le_bytes(), (!key).to_le_bytes()].concat());
        }
    }
    assert_eq!((routed.num_ssts(), scan.num_ssts()), (256, 256));
    keys.sort_unstable();

    routed.reset_stats();
    scan.reset_stats();
    let scans = 200u64;
    for s in 0..scans {
        let first = (mix(s ^ 0xA5A5) % (keys.len() as u64 - 20)) as usize;
        let (lo, hi) = (keys[first], keys[first + 19]);
        let rows = routed.scan(lo, hi, 100);
        assert_eq!(rows.len(), 20, "scan {s}");
        assert_eq!(rows, scan.scan(lo, hi, 100), "scan {s}");
    }
    let read = routed.stats().ssts_probed as f64 / scans as f64;
    let positives = scan.stats().filter_positives as f64 / scans as f64;
    assert!(
        read <= 1.25 * positives,
        "routed scans read {read:.1} tables per scan, scan-all's filters \
         passed {positives:.1}"
    );
}

/// A tombstone in a newer table shadows the older table's entry even when
/// `limit` would have stopped a per-table scan before reaching it, under
/// both routings.
#[test]
fn scan_limit_counts_live_rows_after_tombstone_shadowing() {
    for routing in [ReadRouting::ScanAll, tree_routing(2)] {
        let db = Db::new(options(100, routing));
        for k in 1..=5u64 {
            db.put(k * 10, value_for(k, 0));
        }
        db.flush();
        db.delete(20);
        db.put(30, value_for(3, 1));
        db.flush();
        db.delete(10); // still in the memtable
        let keys = |rows: Vec<(u64, Vec<u8>)>| rows.into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys(db.scan(0, 100, 2)), vec![30, 40], "{routing:?}");
        assert_eq!(db.scan(0, 100, 1), vec![(30, value_for(3, 1))]);
        assert_eq!(keys(db.scan(0, u64::MAX, usize::MAX)), vec![30, 40, 50]);
        assert!(db.scan(100, 0, 10).is_empty(), "reversed bounds");
        assert!(db.scan(0, 100, 0).is_empty(), "zero limit");
    }
}

proptest! {
    /// Tree-routed `get`/`get_batch`/`range_non_empty{,_batch}`/`scan` are
    /// byte-identical to the scan-all path across random keyspaces,
    /// fan-outs, overwrites (newest-wins) and reversed ranges, with data
    /// split between memtable and SSTs.
    #[test]
    fn tree_routed_reads_match_scan_all(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        extra_probes in proptest::collection::vec(any::<u64>(), 1..80),
        ranges in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..50),
        fanout in 2usize..9,
        flush_entries in 8usize..64,
        final_flush in any::<bool>(),
    ) {
        let scan = Db::new(options(flush_entries, ReadRouting::ScanAll));
        let routed = Db::new(options(flush_entries, tree_routing(fanout)));
        for (i, &k) in keys.iter().enumerate() {
            let v = value_for(k, i);
            scan.put(k, v.clone());
            routed.put(k, v);
            if i % 3 == 0 {
                // Overwrite an earlier key so newest-wins crosses SSTs.
                let older = keys[i / 2];
                let v = value_for(older, i + 1);
                scan.put(older, v.clone());
                routed.put(older, v);
            }
        }
        if final_flush {
            scan.flush();
            routed.flush();
        }
        prop_assert_eq!(scan.num_ssts(), routed.num_ssts());

        let mut probes: Vec<u64> = keys.clone();
        probes.extend_from_slice(&extra_probes);
        // Deliberately include reversed ranges: they must answer exactly
        // like scan-all (the tree never prunes a reversed interval).
        let mut all_ranges = ranges.clone();
        all_ranges.extend(keys.iter().map(|&k| (k.saturating_add(10), k.saturating_sub(10))));
        assert_reads_identical(&scan, &routed, &probes, &all_ranges, "in-memory");
    }

    /// `Db::scan` under tree routing ≡ scan-all ≡ a `BTreeMap` model on a
    /// put / overwrite / delete / flush / compact stream — for limits below
    /// and above the hit count, reversed bounds and the full domain — and
    /// again after both durable stores are reopened.
    #[test]
    fn routed_scan_matches_scan_all_and_model(
        raw_ops in proptest::collection::vec((0u64..200, any::<u8>(), 0u8..12), 20..200),
        raw_ranges in proptest::collection::vec((0u64..200, 0u64..48, 0usize..4), 1..24),
        fanout in 2usize..6,
    ) {
        // Sparse keys, so ranges fall between tables as well as across them.
        let spread = |k: u64| k * 0x0101_0101_0101;
        let scan_dir = TempDir::new("scan-all");
        let routed_dir = TempDir::new("scan-routed");
        let open = |dir: &TempDir, routing| {
            Db::open_with(dir.path(), options(16, routing), Arc::new(RealIo)).unwrap()
        };
        let mut scan = open(&scan_dir, ReadRouting::ScanAll);
        let mut routed = open(&routed_dir, tree_routing(fanout));
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        // Weights: 0..=5 put (overwrites whenever the key repeats), 6..=8
        // delete, 9 flush, 10 partial compaction, 11 full compaction.
        for &(k, v, w) in &raw_ops {
            let key = spread(k);
            for db in [&scan, &routed] {
                match w {
                    0..=5 => db.put(key, vec![v]),
                    6..=8 => db.delete(key),
                    9 => db.flush(),
                    10 => {
                        let n = db.num_ssts();
                        db.compact_range(n / 2..n).unwrap();
                    }
                    _ => {
                        db.compact().unwrap();
                    }
                }
            }
            match w {
                0..=5 => {
                    model.insert(key, vec![v]);
                }
                6..=8 => {
                    model.remove(&key);
                }
                _ => {}
            }
        }
        prop_assert_eq!(scan.num_ssts(), routed.num_ssts());

        let mut queries: Vec<(u64, u64, usize)> = raw_ranges
            .iter()
            .map(|&(a, width, l)| {
                let lo = spread(a).saturating_sub(l as u64);
                (lo, spread(a + width) + 1, [1, 3, 40, usize::MAX][l])
            })
            .collect();
        queries.push((0, u64::MAX, usize::MAX)); // the full domain
        queries.push((0, u64::MAX, 5));
        queries.push((spread(150), spread(20), usize::MAX)); // reversed
        for reopened in [false, true] {
            if reopened {
                // The memtable is volatile: flush so the model still holds.
                scan.flush();
                routed.flush();
                drop(scan);
                drop(routed);
                scan = open(&scan_dir, ReadRouting::ScanAll);
                routed = open(&routed_dir, tree_routing(fanout));
            }
            for &(lo, hi, limit) in &queries {
                let expected: Vec<(u64, Vec<u8>)> = if lo > hi {
                    Vec::new()
                } else {
                    model.range(lo..=hi).take(limit).map(|(&k, v)| (k, v.clone())).collect()
                };
                prop_assert_eq!(
                    &routed.scan(lo, hi, limit), &expected,
                    "routed scan [{}, {}] limit {} reopened={}", lo, hi, limit, reopened
                );
                prop_assert_eq!(
                    &scan.scan(lo, hi, limit), &expected,
                    "scan-all scan [{}, {}] limit {} reopened={}", lo, hi, limit, reopened
                );
            }
        }
    }
}

/// SplitMix64 finalizer: uniform keys, so every table spans the domain.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zero both stores' stats, run `read` on each and require equal answers;
/// return both stores' stats.
fn read_both<T: PartialEq + std::fmt::Debug>(
    scan: &Db,
    routed: &Db,
    read: impl Fn(&Db) -> T,
    context: &str,
) -> (ReadStatsSnapshot, ReadStatsSnapshot) {
    scan.reset_stats();
    routed.reset_stats();
    assert_eq!(read(routed), read(scan), "{context}");
    (scan.stats(), routed.stats())
}

/// A routed read tests each table's filter once, in its candidates step:
/// the descent's leaves are the tables' filters, and a candidate goes
/// straight to its fences and blocks. The store holds flushed tables (their
/// filters have the leaf configuration), a compaction output (another
/// configuration) and a table of another family. The tree has one root
/// over every leaf, so a query the root admits reaches every leaf, and the
/// leaves whose fences admit it — the tables scan-all tests — are the leaf
/// pairs the descent tests: `filter_probes` must equal that count, and
/// every candidate must be one positive test.
#[test]
fn routed_reads_test_each_table_filter_once() {
    let dir = TempDir::new("filter-once");
    let store = |kind, routing| {
        let options = DbOptions {
            filter_kind: kind,
            bits_per_key: 8.0,
            ..options(64, routing)
        };
        Db::open_with(dir.path(), options, Arc::new(RealIo)).unwrap()
    };
    let bloomrf = FilterKind::BloomRf { max_range: 1e6 };
    let keys: Vec<u64> = (0..7 * 64).map(mix).collect();
    {
        let db = store(bloomrf, tree_routing(64));
        for &k in &keys[..6 * 64] {
            db.put(k, value_for(k, 0));
        }
        assert_eq!(db.num_ssts(), 6);
        let merged = db.compact_range(1..3).unwrap().unwrap();
        assert_eq!(merged.output_entries, 128);
    }
    {
        let db = store(FilterKind::Bloom, tree_routing(64));
        for &k in &keys[6 * 64..] {
            db.put(k, value_for(k, 0));
        }
        assert_eq!(db.num_ssts(), 6);
    }
    let scan = store(bloomrf, ReadRouting::ScanAll);
    let routed = store(bloomrf, tree_routing(64));
    let tables = routed.num_ssts() as u64;
    // A few rows stay in the memtables.
    for i in 0..8 {
        for db in [&scan, &routed] {
            db.put(mix(1_000 + i), value_for(i, 1));
        }
    }

    // Present keys, absent keys (mostly rejected by the leaves) and
    // memtable keys.
    let probes: Vec<u64> = (keys.iter().step_by(5).copied())
        .chain((0..120).map(|i| mix(5_000 + i)))
        .chain((0..4).map(|i| mix(1_000 + i)))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let ranges: Vec<(u64, u64)> = (sorted.iter().step_by(9))
        .map(|&k| (k.saturating_sub(1 << 20), k.saturating_add(1 << 20)))
        .chain((0..80).map(|i| {
            let lo = mix(9_000 + i);
            (lo, lo.saturating_add(1 << 30))
        }))
        .chain([(u64::MAX / 2, u64::MAX / 4)])
        .collect();

    // One query: the descent reached the leaves iff it visited more than
    // the root, and then it tested the leaves scan-all tests. Reversed
    // bounds are tested nowhere: the tree passes them to every table, which
    // reads nothing for them.
    let tested_once =
        |(scan, routed): (ReadStatsSnapshot, ReadStatsSnapshot), reversed: bool, context: &str| {
            assert!(
                [0, 1, 1 + tables].contains(&routed.tree_probes),
                "{context}: one root over {tables} leaves, {} probes",
                routed.tree_probes
            );
            let leaf_tests = if routed.tree_probes > 1 {
                scan.filter_probes
            } else {
                0
            };
            assert_eq!(routed.filter_probes, leaf_tests, "{context}: filter tests");
            if !reversed {
                assert_eq!(
                    routed.filter_positives, routed.ssts_probed,
                    "{context}: a candidate is one positive test"
                );
            }
            routed.filter_probes
        };
    let (mut point_tests, mut range_tests) = (0, 0);
    for &k in &probes {
        let stats = read_both(&scan, &routed, |db| db.get(k), "get");
        point_tests += tested_once(stats, false, &format!("get({k})"));
    }
    for &(lo, hi) in &ranges {
        let context = format!("range [{lo}, {hi}]");
        let stats = read_both(&scan, &routed, |db| db.scan(lo, hi, 8), &context);
        tested_once(stats, lo > hi, &context);
        let stats = read_both(
            &scan,
            &routed,
            |db| db.range_is_possibly_non_empty(lo, hi),
            &context,
        );
        range_tests += tested_once(stats, lo > hi, &context);
    }
    assert!(point_tests > probes.len() as u64, "gets reached the leaves");
    assert!(range_tests > 0, "range checks reached the leaves");

    // A batch tests the union of its members' leaf pairs.
    for threads in [1, 2] {
        let (_, routed_stats) = read_both(
            &scan,
            &routed,
            |db| db.get_batch(&probes, threads),
            "get_batch",
        );
        assert_eq!(routed_stats.filter_probes, point_tests, "get_batch");
        assert_eq!(routed_stats.filter_positives, routed_stats.ssts_probed);
        let (_, routed_stats) = read_both(
            &scan,
            &routed,
            |db| db.range_non_empty_batch(&ranges, threads),
            "range_non_empty_batch",
        );
        assert_eq!(routed_stats.filter_probes, range_tests, "range batch");
        let reversed = ranges.iter().filter(|(lo, hi)| lo > hi).count() as u64;
        assert_eq!(
            routed_stats.filter_positives + reversed * tables,
            routed_stats.ssts_probed
        );
    }
}

/// Fault-injected recovery: persist a tree-routed store, flip a bit inside
/// a committed SST's filter block (quarantine + rebuild), then reopen under
/// a sweep of `FaultyIo` transient-read seeds — once per routing — and
/// require the two recovered stores to answer every read identically.
#[test]
fn faulty_recovery_keeps_tree_and_scan_all_identical() {
    let base_seed = fault_seed(0xD1FF);
    let dir = TempDir::new("recovery");
    let keys: Vec<u64> = (0..1_200u64).map(|i| i * 7_919).collect();
    {
        let db =
            Db::open_with(dir.path(), options(100, tree_routing(4)), Arc::new(RealIo)).unwrap();
        for &k in &keys {
            db.put(k, value_for(k, 1));
        }
        db.flush();
        assert_eq!(db.num_ssts(), 12);
        assert!(
            !dir.path().join("TREE").exists(),
            "the router is never persisted"
        );
    }

    // Flip one bit deep inside the oldest SST's serialized filter block —
    // recovery must quarantine and rebuild it with zero false negatives.
    let sst1 = dir.path().join("000001.sst");
    let mut bytes = std::fs::read(&sst1).unwrap();
    let filter_pos = bytes
        .windows(4)
        .position(|w| w == b"BLRF")
        .expect("persisted SST embeds the serialized filter");
    bytes[filter_pos + 64] ^= 0x04;
    std::fs::write(&sst1, &bytes).unwrap();

    let probes: Vec<u64> = keys
        .iter()
        .copied()
        .chain(keys.iter().map(|k| k + 1)) // absent neighbours
        .collect();
    let ranges: Vec<(u64, u64)> = keys
        .iter()
        .step_by(37)
        .map(|&k| (k.saturating_sub(3), k + 3))
        .chain([(500, 400)]) // reversed
        .collect();

    for salt in 0..3u64 {
        let seed = base_seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9));
        let faulty = || {
            Arc::new(FaultyIo::new(
                seed,
                FaultConfig {
                    transient_read_error: 0.2,
                    max_transient_failures: 2,
                    ..Default::default()
                },
            ))
        };
        let scan = Db::open_with(dir.path(), options(100, ReadRouting::ScanAll), faulty()).unwrap();
        let routed = Db::open_with(dir.path(), options(100, tree_routing(4)), faulty()).unwrap();

        let routed_stats = routed.stats();
        assert_eq!(routed_stats.filters_quarantined, 1, "flipped filter block");
        assert_eq!(routed_stats.filters_rebuilt, 1);
        assert_eq!(scan.num_ssts(), 12);
        assert_eq!(routed.num_ssts(), 12);

        assert_reads_identical(&scan, &routed, &probes, &ranges, "post-recovery");
        for &k in &keys {
            assert_eq!(
                routed.get(k),
                Some(value_for(k, 1)),
                "zero false negatives after recovery (key {k})"
            );
        }
    }
}

/// A `TREE` file left by a build that persisted the router is garbage to
/// this one: open removes it, and the tree it builds from the tables routes
/// every read exactly like `ScanAll`.
#[test]
fn leftover_tree_file_is_removed_at_open() {
    let dir = TempDir::new("leftover-tree");
    let keys: Vec<u64> = (0..600u64).map(|i| i * 104_729).collect();
    {
        let db =
            Db::open_with(dir.path(), options(100, tree_routing(4)), Arc::new(RealIo)).unwrap();
        for &k in &keys {
            db.put(k, value_for(k, 1));
        }
        db.flush();
    }
    let tree_path = dir.path().join("TREE");
    std::fs::write(&tree_path, b"BTRE\x01\x00\x00\x00 not a tree").unwrap();

    let routed =
        Db::open_with(dir.path(), options(100, tree_routing(4)), Arc::new(RealIo)).unwrap();
    assert!(
        !tree_path.exists(),
        "open must remove the leftover TREE file"
    );
    let scan = Db::open_with(
        dir.path(),
        options(100, ReadRouting::ScanAll),
        Arc::new(RealIo),
    )
    .unwrap();
    assert_eq!(routed.num_ssts(), 6);
    assert_eq!(
        routed.stats().tree_rebuilds,
        0,
        "building the router at open is not a rebuild"
    );

    let probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k + 1]).collect();
    let ranges: Vec<(u64, u64)> = keys
        .iter()
        .step_by(11)
        .map(|&k| (k.saturating_sub(5), k + 5))
        .chain([(10_000, 20_000), (500, 400)])
        .collect();
    assert_reads_identical(&scan, &routed, &probes, &ranges, "leftover TREE");
    for &k in &keys {
        assert_eq!(routed.get(k), Some(value_for(k, 1)), "key {k}");
    }
}
