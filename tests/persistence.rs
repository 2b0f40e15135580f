//! Durability and fault-injection recovery tests for the LSM store and the
//! filter wire format: round-trips through disk, kill-the-process style
//! corruption (bit flips, torn tail writes, transient read errors) and the
//! committed cross-version fixture snapshots.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bloomrf::bitarray::BitVec;
use bloomrf::hashing::WordLayout;
use bloomrf::{BloomRf, DecodeError};
use bloomrf_filters::FilterKind;
use bloomrf_lsm::io::{FaultConfig, FaultyIo, RealIo};
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting};
use proptest::prelude::*;

/// Self-cleaning std-only temporary directory (the environment has no
/// `tempfile` crate; see vendor/README.md).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bloomrf-persistence-{tag}-{}-{}",
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

/// Base seed for the fault-injection schedules. CI's `fault-injection` job
/// replays the deterministic tests under several seeds by setting
/// `FAULT_SEED` (decimal or `0x`-hex); local runs use each test's default.
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

fn small_options() -> DbOptions {
    DbOptions {
        memtable_flush_entries: 10_000, // flush manually in tests
        entries_per_block: 8,
        filter_kind: FilterKind::BloomRf { max_range: 1e6 },
        bits_per_key: 16.0,
        io_model: IoModel::default(),
        routing: ReadRouting::default(),
    }
}

/// Three flushes of disjoint key ranges; returns the keys per flush.
fn populate_three_ssts(db: &Db) -> Vec<Vec<u64>> {
    let mut per_flush = Vec::new();
    for batch in 0..3u64 {
        let keys: Vec<u64> = (0..400u64).map(|i| batch * 1_000_000 + i * 97).collect();
        for &k in &keys {
            db.put(k, value_for(k));
        }
        db.flush();
        per_flush.push(keys);
    }
    assert_eq!(db.num_ssts(), 3);
    per_flush
}

fn value_for(k: u64) -> Vec<u8> {
    vec![(k % 251) as u8; 9]
}

#[test]
fn reopen_recovers_every_key_with_zero_false_negatives() {
    let dir = TempDir::new("roundtrip");
    let per_flush = {
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        populate_three_ssts(&db)
    };
    let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
    assert_eq!(db.num_ssts(), 3);
    for keys in &per_flush {
        for &k in keys {
            assert_eq!(db.get(k), Some(value_for(k)), "lost key {k}");
        }
    }
    let stats = db.stats();
    assert_eq!(
        stats.filters_quarantined, 0,
        "clean files must not quarantine"
    );
    assert_eq!(stats.tail_ssts_skipped, 0);
    // bloomRF filter blocks are restored from their persisted bytes, not
    // rebuilt from the data blocks.
    assert_eq!(stats.filters_rebuilt, 0);
}

#[test]
fn non_serializable_filters_are_rebuilt_on_reopen() {
    let dir = TempDir::new("rebuild");
    let options = DbOptions {
        filter_kind: FilterKind::Rosetta { max_range: 1 << 16 },
        ..small_options()
    };
    {
        let db = Db::open_with(dir.path(), options.clone(), Arc::new(RealIo)).unwrap();
        for i in 0..300u64 {
            db.put(i * 11, value_for(i * 11));
        }
        db.flush();
    }
    let db = Db::open_with(dir.path(), options, Arc::new(RealIo)).unwrap();
    for i in 0..300u64 {
        assert_eq!(db.get(i * 11), Some(value_for(i * 11)));
    }
    let stats = db.stats();
    assert_eq!(stats.filters_rebuilt, 1, "Rosetta has no wire format");
    assert_eq!(
        stats.filters_quarantined, 0,
        "a rebuild is not a quarantine"
    );
}

/// The ISSUE's kill-the-process scenario: persist, corrupt (a bit flip inside
/// the filter block of a committed SST, plus a torn tail SST), reopen. The
/// store must serve every surviving key with zero false negatives and report
/// the damage through its statistics.
#[test]
fn bit_flipped_filter_is_quarantined_and_torn_tail_skipped() {
    let dir = TempDir::new("killed");
    let per_flush = {
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        populate_three_ssts(&db)
    };

    // Flip one bit inside the persisted filter block of the first (oldest,
    // definitely committed) SST. The serialized bloomRF bytes start with the
    // BLRF wire magic — locate them inside the BSST container and damage a
    // byte well inside the filter payload.
    let sst1 = dir.path().join("000001.sst");
    let mut bytes = std::fs::read(&sst1).unwrap();
    let filter_pos = bytes
        .windows(4)
        .position(|w| w == b"BLRF")
        .expect("persisted SST must embed the serialized filter block");
    bytes[filter_pos + 100] ^= 0x10;
    std::fs::write(&sst1, &bytes).unwrap();

    // Tear the tail SST, as a crash mid-flush would.
    let sst3 = dir.path().join("000003.sst");
    let torn = std::fs::read(&sst3).unwrap();
    std::fs::write(&sst3, &torn[..torn.len() / 3]).unwrap();

    let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
    let stats = db.stats();
    assert_eq!(stats.filters_quarantined, 1, "flipped filter block");
    assert_eq!(stats.filters_rebuilt, 1, "quarantined filter was rebuilt");
    assert_eq!(stats.tail_ssts_skipped, 1, "torn tail SST");
    assert_eq!(db.num_ssts(), 2);

    // Every key of the two surviving SSTs is served — the rebuilt filter has
    // zero false negatives — and the torn tail's keys are definitively gone.
    for &k in per_flush[0].iter().chain(per_flush[1].iter()) {
        assert_eq!(db.get(k), Some(value_for(k)), "lost surviving key {k}");
    }
    for &k in &per_flush[2] {
        assert_eq!(db.get(k), None, "torn tail key {k} resurrected");
    }

    // The cleaned manifest was committed: a second reopen is pristine except
    // for the quarantine, which repeats because the damaged file is still on
    // disk (rebuilds are in-memory, the persisted bytes stay untouched).
    let db2 = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
    assert_eq!(db2.num_ssts(), 2);
    assert_eq!(db2.stats().tail_ssts_skipped, 0);
}

#[test]
fn corrupt_non_tail_data_surfaces_a_typed_error() {
    let dir = TempDir::new("nontail");
    {
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        populate_three_ssts(&db);
    }
    // Damage a data byte of the *first* SST (committed, non-tail): recovery
    // must refuse rather than silently drop it. Flip early in the file, well
    // before the filter section.
    let sst1 = dir.path().join("000001.sst");
    let mut bytes = std::fs::read(&sst1).unwrap();
    let filter_pos = bytes.windows(4).position(|w| w == b"BLRF").unwrap();
    bytes[filter_pos / 2] ^= 0x01;
    std::fs::write(&sst1, &bytes).unwrap();

    let err = match Db::open_with(dir.path(), small_options(), Arc::new(RealIo)) {
        Ok(_) => panic!("corrupt non-tail SST must not open"),
        Err(e) => e,
    };
    match &err {
        bloomrf_lsm::PersistError::CorruptSst { path, source } => {
            assert!(path.ends_with("000001.sst"));
            assert!(!source.section.is_empty());
        }
        other => panic!("expected CorruptSst, got {other}"),
    }
    // The error chain is a regular std error.
    let mut chain = 0;
    let mut e: &dyn std::error::Error = &err;
    while let Some(src) = e.source() {
        chain += 1;
        e = src;
    }
    assert!(chain >= 1);
}

#[test]
fn transient_read_errors_are_absorbed_by_bounded_retry() {
    let dir = TempDir::new("transient");
    {
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        populate_three_ssts(&db);
    }
    let io = Arc::new(FaultyIo::new(
        fault_seed(42),
        FaultConfig {
            transient_read_error: 1.0, // every file's first reads fail
            max_transient_failures: 2, // below the retry budget of 4
            ..Default::default()
        },
    ));
    let db = Db::open_with(dir.path(), small_options(), io).unwrap();
    assert_eq!(db.num_ssts(), 3);
    assert!(db.stats().read_retries > 0, "retries must be reported");
    assert_eq!(db.stats().tail_ssts_skipped, 0);
}

/// A flush through tearing I/O behaves like a crash mid-flush: the already
/// committed SSTs survive, the torn artifacts degrade gracefully on reopen.
#[test]
fn torn_writes_during_flush_lose_only_the_tail() {
    let dir = TempDir::new("torn");
    let committed = {
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        populate_three_ssts(&db)
    };
    // A fourth flush through I/O that tears every write (SST and MANIFEST).
    {
        let io = Arc::new(FaultyIo::new(
            fault_seed(0xBEEF),
            FaultConfig {
                torn_write: 1.0,
                ..Default::default()
            },
        ));
        let db = Db::open_with(dir.path(), small_options(), io).unwrap();
        for i in 0..400u64 {
            db.put(5_000_000 + i * 13, vec![7]);
        }
        db.flush();
        assert_eq!(db.num_ssts(), 4, "flush keeps the SST in memory");
    }
    // Reopen with clean I/O: the torn MANIFEST falls back to the directory
    // scan, the torn tail SST is skipped or — if the tear only clipped the
    // filter section — quarantined, and every committed key is served.
    let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
    let stats = db.stats();
    assert!(
        stats.tail_ssts_skipped == 1 || stats.filters_quarantined == 1,
        "torn tail neither skipped nor quarantined: {stats:?}"
    );
    for keys in &committed {
        for &k in keys {
            assert_eq!(db.get(k), Some(value_for(k)), "lost committed key {k}");
        }
    }
}

/// Deterministic seed sweep over read-time bit flips: recovery must never
/// panic, never serve a wrong value, and both graceful-degradation paths
/// (filter quarantine, tail skip) must be exercised across the sweep.
#[test]
fn bit_flip_seed_sweep_degrades_gracefully() {
    let master = TempDir::new("sweep-master");
    let keys: Vec<u64> = {
        let db = Db::open_with(master.path(), small_options(), Arc::new(RealIo)).unwrap();
        let keys: Vec<u64> = (0..400u64).map(|i| i * 131).collect();
        for &k in &keys {
            db.put(k, value_for(k));
        }
        db.flush();
        keys
    };
    let (mut quarantined, mut skipped) = (0u32, 0u32);
    let base = fault_seed(0);
    for offset in 0..48u64 {
        let seed = base.wrapping_add(offset);
        // Fresh copy per seed: recovery may legitimately delete a
        // corrupt-looking tail SST, which must not leak into the next seed.
        let dir = TempDir::new(&format!("sweep-{seed}"));
        for name in ["000001.sst", "MANIFEST"] {
            std::fs::copy(master.path().join(name), dir.path().join(name)).unwrap();
        }
        let io = Arc::new(FaultyIo::new(
            seed,
            FaultConfig {
                bit_flip_on_read: 1.0, // one flipped bit per file read
                ..Default::default()
            },
        ));
        let db = Db::open_with(dir.path(), small_options(), io)
            .unwrap_or_else(|e| panic!("seed {seed}: recovery must not hard-fail: {e}"));
        let stats = db.stats();
        if stats.filters_quarantined > 0 {
            quarantined += 1;
        }
        if stats.tail_ssts_skipped > 0 {
            skipped += 1;
            assert_eq!(db.num_ssts(), 0, "seed {seed}");
            continue;
        }
        // The single SST survived (flip landed in the filter section or the
        // flipped read was of the MANIFEST): every key must still be exact.
        assert_eq!(db.num_ssts(), 1, "seed {seed}");
        for &k in &keys {
            assert_eq!(db.get(k), Some(value_for(k)), "seed {seed} lost key {k}");
        }
    }
    assert!(quarantined > 0, "sweep never hit the filter section");
    assert!(skipped > 0, "sweep never hit the data sections");
}

#[test]
fn fresh_and_reopened_empty_stores_work() {
    let dir = TempDir::new("empty");
    {
        let db = Db::open(dir.path()).unwrap();
        assert_eq!(db.num_ssts(), 0);
        assert!(db.path().is_some());
        db.flush(); // empty flush is a no-op, persists nothing
    }
    let db = Db::open(dir.path()).unwrap();
    assert_eq!(db.num_ssts(), 0);
    assert_eq!(db.get(42), None);
    // Ephemeral stores advertise no path.
    assert!(Db::new(DbOptions::default()).path().is_none());
}

// ---------------------------------------------------------------------------
// Error-trait composition (satellite: std::error::Error everywhere)
// ---------------------------------------------------------------------------

#[test]
fn decode_and_persist_errors_compose_with_question_mark() {
    fn load(bytes: &[u8], dir: &Path) -> Result<usize, Box<dyn std::error::Error>> {
        let filter = BloomRf::from_bytes(bytes)?; // DecodeError via `?`
        let db = Db::open(dir)?; // PersistError via `?`
        Ok(filter.key_count() as usize + db.num_ssts())
    }
    let dir = TempDir::new("boxed");
    let err = load(b"not a filter", dir.path()).unwrap_err();
    assert!(!err.to_string().is_empty());
    // A config-level failure carries a source chain through the Box.
    let nested: Box<dyn std::error::Error> =
        Box::new(DecodeError::InvalidConfig(bloomrf::ConfigError::NoLayers));
    assert!(nested.source().is_some());
}

// ---------------------------------------------------------------------------
// Cross-version wire-format fixtures (committed byte snapshots)
// ---------------------------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The exact key set the committed fixtures were built from (500 keys,
/// `expected_keys(500)`, `bits_per_key(16.0)`, `seed(0xF1A7)`).
fn fixture_keys() -> Vec<u64> {
    (0..500u64)
        .map(|i| bloomrf::hashing::mix64(i) >> 4)
        .collect()
}

#[test]
fn v1_fixture_is_rejected_as_unsupported_version() {
    // The v1 layout (no sections, no checksums, no word layout) is retired;
    // a stream stamped with it — stating the layout or not — is a typed
    // error, never a panic or a mis-parse.
    let bytes = std::fs::read(fixture_path("filter_v1_forward.blrf")).unwrap();
    assert_eq!(
        BloomRf::from_bytes(&bytes).unwrap_err(),
        DecodeError::UnsupportedVersion(1)
    );
    assert_eq!(
        BloomRf::builder()
            .word_layout(WordLayout::Forward)
            .from_bytes(&bytes)
            .unwrap_err(),
        DecodeError::UnsupportedVersion(1)
    );
}

#[test]
fn v2_fixture_decodes_bare_with_layout_from_the_wire() {
    let absent: Vec<u64> = (0..2_000u64)
        .map(|i| bloomrf::hashing::mix64(i ^ 0x5EED) >> 4)
        .collect();
    for (name, original) in v2_fixtures() {
        let bytes = std::fs::read(fixture_path(name)).unwrap();
        assert_eq!(&bytes[..4], bloomrf::WIRE_MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            bloomrf::WIRE_FORMAT_VERSION
        );
        let filter = BloomRf::from_bytes(&bytes).unwrap();
        assert_eq!(filter.key_count(), 500);
        for k in fixture_keys() {
            assert!(filter.contains_point(k), "{name}: false negative for {k}");
        }
        // The decoded filter is the one the snapshot was written from: it
        // answers every point and range alike.
        assert_eq!(filter.config(), original.config(), "{name}");
        for &k in fixture_keys().iter().chain(&absent) {
            assert_eq!(
                filter.contains_point(k),
                original.contains_point(k),
                "{name}: {k}"
            );
            for width in [1u64 << 4, 1 << 12, 1 << 20] {
                let (lo, hi) = (k.saturating_sub(width / 2), k.saturating_add(width));
                assert_eq!(
                    filter.contains_range(lo, hi),
                    original.contains_range(lo, hi),
                    "{name}: [{lo}, {hi}]"
                );
            }
        }
    }
}

/// The filter the committed alternating-layout v2 snapshot holds, built
/// afresh.
fn v2_fixture_filter() -> BloomRf {
    let filter = BloomRf::builder()
        .expected_keys(500)
        .bits_per_key(16.0)
        .seed(0xF1A7)
        .word_layout(WordLayout::Alternating)
        .build()
        .unwrap();
    for k in fixture_keys() {
        filter.insert(k);
    }
    filter
}

/// The filter the committed tuned v2 snapshot holds, built afresh: the
/// advisor tunes it into several segments and an exact bitmap.
fn v2_tuned_fixture_filter() -> BloomRf {
    let filter = BloomRf::builder()
        .expected_keys(500)
        .bits_per_key(16.0)
        .max_range(1e6)
        .seed(0xF1A7)
        .build()
        .unwrap();
    let config = filter.config();
    assert!(
        config.segment_bits.len() >= 2 && config.exact_level.is_some(),
        "the tuned fixture must have several segments and an exact bitmap: {config:?}"
    );
    filter.insert_batch(&fixture_keys());
    filter
}

/// The committed v2 snapshots by file name, each with its filter built
/// afresh. The alternating one has one segment and no exact layer; the
/// tuned one has several regions, so a pin on it also sees their order and
/// contents on the wire.
fn v2_fixtures() -> [(&'static str, BloomRf); 2] {
    [
        ("filter_v2_alternating.blrf", v2_fixture_filter()),
        ("filter_v2_tuned.blrf", v2_tuned_fixture_filter()),
    ]
}

/// The encoder writes the committed v2 snapshots byte for byte: moving the
/// bits in memory must not move them on the wire.
#[test]
fn v2_fixture_is_what_the_encoder_writes() {
    for (name, filter) in v2_fixtures() {
        let bytes = std::fs::read(fixture_path(name)).unwrap();
        assert!(
            filter.to_bytes() == bytes,
            "the v2 encoding of the {name} fixture filter changed"
        );
    }
}

/// The bit arrays of a v2 stream's bits section, in wire order.
fn wire_arrays(bytes: &[u8]) -> Vec<BitVec> {
    let le_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut cur = 8;
    loop {
        let tag = u32::from_le_bytes(bytes[cur..cur + 4].try_into().unwrap());
        let len = le_u64(cur + 4);
        let body = cur + 12;
        cur = body + len + 4;
        if tag != 3 {
            continue;
        }
        let count = u32::from_le_bytes(bytes[body..body + 4].try_into().unwrap());
        let mut at = body + 4;
        return (0..count)
            .map(|_| {
                let len = le_u64(at);
                let array = BitVec::from_bytes(&bytes[at + 8..at + 8 + len]).unwrap();
                at += 8 + len;
                array
            })
            .collect();
    }
}

/// The order of the bit arrays on a filter with several regions: the
/// segments in configuration order at their declared sizes, then the exact
/// bitmap, holding exactly the keys' exact-level prefixes — wherever the
/// filter keeps each region in memory.
#[test]
fn wire_arrays_follow_the_configuration_order() {
    let keys = fixture_keys();
    let filter = v2_tuned_fixture_filter();
    let config = filter.config();
    let exact = config
        .exact_level
        .expect("a tuned filter has an exact layer");
    let arrays = wire_arrays(&filter.to_bytes());
    let sizes: Vec<usize> = arrays.iter().map(BitVec::len).collect();
    let mut want = config.segment_bits.clone();
    want.push(1 << (config.domain_bits - exact));
    assert_eq!(sizes, want);
    let mut exact_bits = BitVec::new(want[want.len() - 1]);
    for &k in &keys {
        exact_bits.set((k >> exact) as usize);
    }
    assert_eq!(arrays.last(), Some(&exact_bits));
}

/// Regenerates the committed v2 snapshots. Run manually after an intentional
/// format change: `cargo test --test persistence -- --ignored regenerate`.
#[test]
#[ignore = "writes the v2 snapshots under tests/fixtures"]
fn regenerate_v2_fixture() {
    for (name, filter) in v2_fixtures() {
        std::fs::write(fixture_path(name), filter.to_bytes()).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Property: a reopened store is observably identical to the live one
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Db::open` after put/flush/drop answers exactly like the live store:
    /// every stored key returns its newest value (zero false negatives) and
    /// arbitrary probes (hits, misses and ranges) agree with a model map.
    #[test]
    fn reopened_store_is_bit_identical_to_live(
        keys in prop::collection::vec(any::<u64>(), 1..300),
        probes in prop::collection::vec(any::<u64>(), 1..80),
        flush_every in 50usize..150,
    ) {
        let dir = TempDir::new("prop");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        {
            let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                let v = vec![(k % 251) as u8, (i % 13) as u8];
                db.put(k, v.clone());
                model.insert(k, v);
                if (i + 1) % flush_every == 0 {
                    db.flush();
                }
            }
            db.flush();
        }
        let db = Db::open_with(dir.path(), small_options(), Arc::new(RealIo)).unwrap();
        prop_assert_eq!(db.stats().filters_quarantined, 0);
        prop_assert_eq!(db.stats().tail_ssts_skipped, 0);
        for (&k, v) in &model {
            prop_assert_eq!(db.get(k), Some(v.clone()), "stored key {}", k);
        }
        for &p in &probes {
            prop_assert_eq!(db.get(p), model.get(&p).cloned(), "probe {}", p);
            let hi = p.saturating_add(1000);
            let want: Vec<(u64, Vec<u8>)> = model
                .range(p..=hi)
                .map(|(&k, v)| (k, v.clone()))
                .collect();
            prop_assert_eq!(db.scan(p, hi, usize::MAX), want, "scan [{}, {}]", p, hi);
        }
    }
}
