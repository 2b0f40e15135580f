//! Per-layer adapter: the *only* file that names the wide API surface
//! (`SsTable`, `FilterTree`, `MemTable`, `ReadStats`, `Db::stats`,
//! `Db::options`, `Db::range_non_empty_batch`, `contains_range_counted`,
//! `contains_range_batch`, `insert_batch`, `segment_load_factors`,
//! `to_bytes` / `from_bytes`, `StorageIo::{write, rename, remove}`), so an
//! API change in `crates/*` costs a one-file `benchmark` PR.
//!
//! Per-layer numbers are taken from outside the program, by timing calls into
//! each module's public functions on *shadow* structures built from the same
//! entries as the workload's `Db`, replaying its read and flush paths layer
//! by layer. The replay's spans name the `Db` call's span as parent, so
//! `*_self_*` = the `Db` span minus the child spans that replay it.

use crate::api::{Filter, Store};
use crate::keys::{mix64, value_for, KeySpace};
use crate::metrics::Report;
use crate::stats::{median, p50, RoundStat};
use crate::trace::{self_times, Clock, Tracer, ROOT};
use crate::Ctx;
use bloomrf::BloomRf;
use bloomrf_lsm::{
    DbOptions, FilterTree, MemTable, ReadRouting, ReadStats, RealIo, SsTable, StorageIo, Value,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------- core ----

pub fn contains_range_batch(filter: &Filter, ranges: &[(u64, u64)]) -> Vec<bool> {
    filter.inner().contains_range_batch(ranges)
}

pub fn insert_batch(filter: &Filter, keys: &[u64]) {
    filter.inner().insert_batch(keys);
}

/// Median seconds of `reps` runs of `f`.
fn time_median<T>(clock: &Clock, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = clock.now_ns();
            black_box(f());
            (clock.now_ns() - t) as f64 / 1e9
        })
        .collect();
    median(&runs)
}

/// Counts and codec times of the standalone filter (exact, or taken once).
pub fn filter_census(
    filter: &Filter,
    space: &KeySpace,
    qseed: u64,
    clock: &Clock,
    report: &mut Report,
) {
    let f: &BloomRf = filter.inner();
    // Probe-cost counters over empty ranges of the three widths, mixed.
    let (mut words, mut layers) = (0usize, 0usize);
    const QUERIES: u64 = 3 * 4096;
    for j in 0..QUERIES {
        let lo = space.absent(mix64(qseed, j) >> 24);
        let (_, cost) = f.contains_range_counted(
            lo,
            lo.saturating_add((1u64 << [4, 10, 16][j as usize % 3]) - 1),
        );
        words += cost.word_accesses;
        layers += cost.layers_visited;
    }
    report.set_layer("core.range_word_accesses", words as f64 / QUERIES as f64);
    report.set_layer("core.range_layers_visited", layers as f64 / QUERIES as f64);
    let load = f.segment_load_factors().into_iter().fold(0.0, f64::max);
    report.set_layer("core.load_factor_max", load);

    let bytes = f.to_bytes();
    let kib = bytes.len() as f64 / 1024.0;
    report.set_layer(
        "core.to_bytes_ns_per_kib",
        time_median(clock, 3, || f.to_bytes()) * 1e9 / kib,
    );
    report.set_layer(
        "core.from_bytes_ns_per_kib",
        time_median(clock, 3, || {
            BloomRf::builder()
                .from_bytes(&bytes)
                .expect("own bytes decode")
        }) * 1e9
            / kib,
    );
    // The decoded filter must answer like the original.
    let decoded = BloomRf::builder()
        .from_bytes(&bytes)
        .expect("own bytes decode");
    report.attempted += 1024;
    for j in 0..1024 {
        let key = if j % 2 == 0 {
            space.key(j % space.n)
        } else {
            space.absent(j)
        };
        report.failed += u64::from(decoded.contains_point(key) != f.contains_point(key));
    }
}

/// Harness metrics and the span dump; the last step of every traced run.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, clock: &Clock, ctx: &Ctx) {
    let mut pairs: Vec<f64> = (0..10_000)
        .map(|_| {
            let t = clock.now_ns();
            (clock.now_ns() - t) as f64
        })
        .collect();
    report.set_layer(
        "bench.timer_ns",
        pairs.iter().sum::<f64>() / pairs.len() as f64,
    );
    report.note("timer_p50_ns", p50(&mut pairs).expect("10k pairs"));
    report.set_layer("bench.ops_attempted", report.attempted as f64);
    report.set_layer("bench.ops_failed", report.failed as f64);
    let path = ctx
        .dir
        .join(format!("spans-{}-{}.csv", report.workload, ctx.seed));
    match tracer.write_csv(&path) {
        Ok(()) => report.note("spans_file", path.display()),
        Err(e) => report.note("spans_file", format!("not written: {e}")),
    }
    report.note("spans_kept", tracer.spans.len());
    report.note("spans_dropped", tracer.dropped);
}

// ----------------------------------------------------- span aggregation ----

/// Folds each traced round's spans into per-name round statistics.
#[derive(Default)]
pub struct SpanStats {
    /// Duration per span name.
    dur: BTreeMap<&'static str, RoundStat>,
    /// Self time (duration minus children) per *parent* span name.
    own: BTreeMap<&'static str, RoundStat>,
    /// Children's summed duration as a share of the parent's, per name.
    share: BTreeMap<&'static str, RoundStat>,
}

impl SpanStats {
    /// Fold the spans recorded since `mark` (one round).
    pub fn fold_round(&mut self, tracer: &Tracer, mark: usize, keep: bool) {
        let spans = &tracer.spans[mark..];
        let own = self_times(&tracer.spans, mark);
        for (span, own_ns) in spans.iter().zip(own) {
            let dur = span.duration_ns() as f64;
            self.dur.entry(span.name).or_default().push(dur);
            if span.parent == ROOT && own_ns as f64 != dur {
                self.own.entry(span.name).or_default().push(own_ns as f64);
                self.share
                    .entry(span.name)
                    .or_default()
                    .push((dur - own_ns as f64) / dur.max(1.0));
            }
        }
        for stat in self
            .dur
            .values_mut()
            .chain(self.own.values_mut())
            .chain(self.share.values_mut())
        {
            stat.end_round(keep);
        }
    }

    pub fn dur(&self, name: &str) -> Option<f64> {
        self.dur.get(name).and_then(RoundStat::p50)
    }

    pub fn own(&self, name: &str) -> Option<f64> {
        self.own.get(name).and_then(RoundStat::p50)
    }

    pub fn share(&self, name: &str) -> Option<f64> {
        self.share.get(name).and_then(RoundStat::p50)
    }
}

// ------------------------------------------------------ shadow read path ----

fn tree_geometry(options: &DbOptions) -> (usize, usize, f64) {
    match options.routing {
        ReadRouting::FilterTree(t) => (
            t.fanout,
            t.leaf_keys.unwrap_or(options.memtable_flush_entries),
            t.bits_per_key.unwrap_or(options.bits_per_key),
        ),
        ReadRouting::ScanAll => panic!("the benchmark measures the default (tree) routing"),
    }
}

/// The read path's layers, rebuilt beside the `Db` from the same entries.
pub struct Shadow {
    options: DbOptions,
    stats: ReadStats,
    memtable: MemTable,
    ssts: Vec<SsTable>,
    tree: FilterTree,
}

/// Identifies the `Db` span a replay belongs to.
#[derive(Clone, Copy)]
pub struct Parent {
    pub span: u32,
    pub op: u64,
}

impl Shadow {
    pub fn new(store: &Store) -> Self {
        Self::with_options(store.inner().options().clone())
    }

    fn with_options(options: DbOptions) -> Self {
        let (fanout, leaf_keys, bpk) = tree_geometry(&options);
        Self {
            stats: ReadStats::new(),
            memtable: MemTable::new(),
            ssts: Vec::new(),
            tree: FilterTree::new(fanout, leaf_keys, bpk),
            options,
        }
    }

    fn build_table(&self, entries: &[(u64, Value)]) -> SsTable {
        SsTable::build(
            entries,
            self.options.entries_per_block,
            self.options.filter_kind,
            self.options.bits_per_key,
        )
    }

    /// Append one table built from `pairs` (sorted by key), as a flush
    /// would; returns `(build ns, push_leaf ns)`.
    pub fn push_table(&mut self, pairs: Vec<(u64, Vec<u8>)>, clock: &Clock) -> (u64, u64) {
        let entries: Vec<(u64, Value)> =
            pairs.into_iter().map(|(k, v)| (k, Value::Put(v))).collect();
        let t0 = clock.now_ns();
        let sst = self.build_table(&entries);
        let t1 = clock.now_ns();
        self.ssts.push(sst);
        self.tree.push_leaf(&self.ssts);
        let t2 = clock.now_ns();
        (t1 - t0, t2 - t1)
    }

    pub fn tables(&self) -> usize {
        self.ssts.len()
    }

    /// Replay `Db::get`: memtable, tree descent, candidate tables newest
    /// first.
    pub fn get(
        &self,
        key: u64,
        hit: bool,
        parent: Parent,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Option<Vec<u8>> {
        let mut span = |name, t0, t1| {
            tracer.record(name, t0, t1, parent.span, parent.op);
        };
        let t0 = clock.now_ns();
        let buffered = self.memtable.get(key);
        let t1 = clock.now_ns();
        span("lsm.memtable.get", t0, t1);
        if let Some(v) = buffered {
            return v.into_put();
        }
        let candidates = self.tree.candidates_point(key, &self.stats);
        let t2 = clock.now_ns();
        span(
            if hit {
                "lsm.tree.candidates_point.hit"
            } else {
                "lsm.tree.candidates_point.miss"
            },
            t1,
            t2,
        );
        for &i in candidates.iter().rev() {
            let t = clock.now_ns();
            let found = self.ssts[i].get(key, &self.options.io_model, &self.stats);
            span(
                if found.is_some() {
                    "lsm.sst.get.hit"
                } else {
                    "lsm.sst.get.false_candidate"
                },
                t,
                clock.now_ns(),
            );
            if let Some(v) = found {
                return v.into_put();
            }
        }
        None
    }

    /// Replay `Db::get_batch(.., 1)`: memtable, one batched descent, then
    /// one `get_many` per table with exactly the keys routed to it. What the
    /// `Db` does beyond that (its routing loop) is its self time.
    pub fn get_batch(
        &self,
        keys: &[u64],
        parent: Parent,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Vec<Option<Vec<u8>>> {
        let mut span = |name, t0, t1| {
            tracer.record(name, t0, t1, parent.span, parent.op);
        };
        let t0 = clock.now_ns();
        let mut out: Vec<Option<Value>> = keys.iter().map(|&k| self.memtable.get(k)).collect();
        let t1 = clock.now_ns();
        span("lsm.memtable.get.b64", t0, t1);
        let candidates = self.tree.candidates_points(keys, &self.stats);
        let t2 = clock.now_ns();
        span("lsm.tree.candidates_points.b64", t1, t2);
        let mut routed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (q, tables) in candidates.iter().enumerate() {
            for &i in tables {
                routed.entry(i).or_default().push(q);
            }
        }
        for (&i, queries) in routed.iter().rev() {
            let open: Vec<usize> = queries
                .iter()
                .copied()
                .filter(|&q| out[q].is_none())
                .collect();
            let sub: Vec<u64> = open.iter().map(|&q| keys[q]).collect();
            let t = clock.now_ns();
            let found = self.ssts[i].get_many(&sub, &self.options.io_model, &self.stats);
            span("lsm.sst.get_many.routed", t, clock.now_ns());
            for (q, value) in open.into_iter().zip(found) {
                if value.is_some() {
                    out[q] = value;
                }
            }
        }
        out.into_iter()
            .map(|v| v.and_then(Value::into_put))
            .collect()
    }

    /// Replay `Db::range_is_possibly_non_empty`.
    pub fn range(
        &self,
        lo: u64,
        hi: u64,
        empty: bool,
        parent: Parent,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> bool {
        let mut span = |name, t0, t1| {
            tracer.record(name, t0, t1, parent.span, parent.op);
        };
        let t0 = clock.now_ns();
        let buffered = self.memtable.first_in_range(lo, hi).is_some();
        let t1 = clock.now_ns();
        span("lsm.memtable.first_in_range", t0, t1);
        if buffered {
            return true;
        }
        let candidates = self.tree.candidates_range(lo, hi, &self.stats);
        let t2 = clock.now_ns();
        span(
            if empty {
                "lsm.tree.candidates_range.empty"
            } else {
                "lsm.tree.candidates_range.nonempty"
            },
            t1,
            t2,
        );
        for &i in &candidates {
            let t = clock.now_ns();
            let found = !self.ssts[i]
                .scan(lo, hi, 1, &self.options.io_model, &self.stats)
                .is_empty();
            span(
                if found {
                    "lsm.sst.scan.first"
                } else {
                    "lsm.sst.scan.false_candidate"
                },
                t,
                clock.now_ns(),
            );
            if found {
                return true;
            }
        }
        false
    }

    /// Replay `Db::scan`: every table is scanned (the `Db` ignores fences and
    /// the tree here) and the rows are merged newest-wins.
    pub fn scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        parent: Parent,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Vec<(u64, Vec<u8>)> {
        let t0 = clock.now_ns();
        let mut merged: BTreeMap<u64, Value> = BTreeMap::new();
        for sst in &self.ssts {
            merged.extend(sst.scan(lo, hi, usize::MAX, &self.options.io_model, &self.stats));
        }
        let t1 = clock.now_ns();
        tracer.record("lsm.sst.scan.all_tables", t0, t1, parent.span, parent.op);
        merged.extend(self.memtable.scan(lo, hi, usize::MAX));
        tracer.record(
            "lsm.memtable.scan",
            t1,
            clock.now_ns(),
            parent.span,
            parent.op,
        );
        merged
            .into_iter()
            .filter_map(|(k, v)| v.into_put().map(|v| (k, v)))
            .take(limit)
            .collect()
    }

    /// Layer metrics that need no `Db` span: direct calls on the shadow
    /// tables, tree and a memtable of one flush's size, plus the `Db`'s own
    /// counters over a fixed set of lookups.
    pub fn census(
        &self,
        store: &Store,
        space: &KeySpace,
        sorted: &[u64],
        clock: &Clock,
        report: &mut Report,
    ) {
        const N: usize = CENSUS_CALLS as usize;
        let pick = |j: u64| mix64(space.seed ^ 0xCE_05, j);
        // lsm.sst: a key the table's own filter rejects (absent, inside the
        // table's key range — every table spans the whole domain).
        let before = self.stats.snapshot();
        let filtered = time_each(clock, |j| {
            let sst = &self.ssts[(pick(j) % self.ssts.len() as u64) as usize];
            black_box(sst.get(
                space.absent(pick(j) >> 24),
                &self.options.io_model,
                &self.stats,
            ));
        });
        let after = self.stats.snapshot();
        report.set_layer("lsm.sst.get_filtered_ns", filtered);
        report.set_layer(
            "lsm.sst.filter_fpr",
            (after.false_positives - before.false_positives) as f64 / N as f64,
        );
        // 64 keys against one table, half of them its own.
        let per_table = sorted.len() / self.ssts.len();
        let many = time_each(clock, |j| {
            let table = (pick(j) % self.ssts.len() as u64) as usize;
            let keys: Vec<u64> = (0..64u64)
                .map(|q| {
                    if q % 2 == 0 {
                        space.key((table * per_table) as u64 + pick(j ^ q << 32) % per_table as u64)
                    } else {
                        space.absent(pick(j ^ q << 32) >> 24)
                    }
                })
                .collect();
            let found = self.ssts[table].get_many(&keys, &self.options.io_model, &self.stats);
            black_box(found);
        });
        report.set_layer("lsm.sst.get_many_b64_ns", many / 64.0);
        let before = self.stats.snapshot();
        let mut hits = 0u64;
        for j in 0..N as u64 {
            let index = pick(j) % space.n;
            let table = (index as usize / per_table).min(self.ssts.len() - 1);
            hits += u64::from(
                self.ssts[table]
                    .get(space.key(index), &self.options.io_model, &self.stats)
                    .is_some(),
            );
        }
        let after = self.stats.snapshot();
        report.attempted += N as u64;
        report.failed += N as u64 - hits;
        report.set_layer(
            "lsm.sst.blocks_read_per_hit",
            (after.blocks_read - before.blocks_read) as f64 / N as f64,
        );
        // Codec, on a few tables.
        let sample: Vec<&SsTable> = self
            .ssts
            .iter()
            .step_by((self.ssts.len() / 8).max(1))
            .collect();
        let entries: usize = sample.iter().map(|s| s.num_entries()).sum();
        let encoded: Vec<Vec<u8>> = sample.iter().map(|s| s.to_bytes()).collect();
        report.set_layer(
            "lsm.sst.to_bytes_ns_per_entry",
            time_median(clock, 5, || {
                sample.iter().map(|s| s.to_bytes().len()).sum::<usize>()
            }) * 1e9
                / entries as f64,
        );
        report.set_layer(
            "lsm.sst.from_bytes_ns_per_entry",
            time_median(clock, 5, || {
                encoded
                    .iter()
                    .map(|b| {
                        SsTable::from_bytes(b, &self.stats)
                            .expect("own bytes decode")
                            .num_entries()
                    })
                    .sum::<usize>()
            }) * 1e9
                / entries as f64,
        );

        // lsm.tree
        let tree_bytes = self.tree.to_bytes();
        report.set_layer("lsm.tree.bytes", tree_bytes.len() as f64);
        report.set_layer(
            "lsm.tree.to_bytes_ns_per_kib",
            time_median(clock, 3, || self.tree.to_bytes()) * 1e9
                / (tree_bytes.len() as f64 / 1024.0),
        );
        report.set_layer(
            "lsm.tree.bits_per_key",
            self.tree.memory_bits() as f64 / sorted.len() as f64,
        );

        memtable_census(self.options.memtable_flush_entries, space, clock, report);

        // lsm.db counters over fixed lookups, from the store's own stats.
        let db = store.inner();
        db.reset_stats();
        for j in 0..N as u64 {
            black_box(db.get(space.key(pick(j) % space.n)));
        }
        let hit = db.stats();
        db.reset_stats();
        for j in 0..N as u64 {
            black_box(db.get(space.absent(pick(j) >> 24)));
        }
        let miss = db.stats();
        let per = |count: u64| count as f64 / N as f64;
        report.set_layer("lsm.tree.probes_per_hit", per(hit.tree_probes));
        report.set_layer("lsm.tree.candidates_per_hit", per(hit.ssts_probed));
        report.set_layer("lsm.tree.candidates_per_miss", per(miss.ssts_probed));
        report.set_layer("lsm.db.filter_probes_per_lookup", per(hit.filter_probes));
        report.set_layer("lsm.db.ssts_probed_per_lookup", per(hit.ssts_probed));
        report.set_layer("lsm.db.blocks_read_per_lookup", per(hit.blocks_read));
        report.set_layer("lsm.db.false_positives_per_miss", per(miss.false_positives));

        // Batched range check: not an end-to-end op, timed here.
        let batch = time_each(clock, |j| {
            let ranges: Vec<(u64, u64)> = (0..64u64)
                .map(|q| {
                    let lo = space.absent(pick(j ^ q << 32) >> 24);
                    (lo, lo.saturating_add(1023))
                })
                .collect();
            black_box(db.range_non_empty_batch(&ranges, 1));
        });
        report.set_layer("lsm.db.range_batch_b64_ns", batch / 64.0);
    }
}

/// Calls per census measurement.
const CENSUS_CALLS: u64 = 2048;

/// p50 of [`CENSUS_CALLS`] timed calls of `f(j)`, in ns.
fn time_each(clock: &Clock, mut f: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<f64> = (0..CENSUS_CALLS)
        .map(|j| {
            let t = clock.now_ns();
            f(j);
            (clock.now_ns() - t) as f64
        })
        .collect();
    p50(&mut samples).expect("CENSUS_CALLS > 0")
}

/// `lsm.memtable.*`, on a memtable holding one flush's worth of entries.
pub fn memtable_census(flush_entries: usize, space: &KeySpace, clock: &Clock, report: &mut Report) {
    let flush_entries = flush_entries as u64;
    let pick = |j: u64| mix64(space.seed ^ 0x3E3, j);
    let table = MemTable::new();
    let mut puts: Vec<f64> = (0..flush_entries)
        .map(|i| {
            let (key, value) = (space.key(i), value_for(space.key(i), 0));
            let t = clock.now_ns();
            table.put(key, value);
            (clock.now_ns() - t) as f64
        })
        .collect();
    report.set_layer_opt("lsm.memtable.put_ns", p50(&mut puts));
    report.set_layer(
        "lsm.memtable.get_ns",
        time_each(clock, |j| {
            black_box(table.get(space.key(pick(j) % flush_entries)));
        }),
    );
    report.set_layer(
        "lsm.memtable.first_in_range_ns",
        time_each(clock, |j| {
            let lo = space.absent(pick(j) >> 24);
            black_box(table.first_in_range(lo, lo.saturating_add(1023)));
        }),
    );
    report.set_layer(
        "lsm.memtable.snapshot_sorted_ns_per_entry",
        time_median(clock, 5, || table.snapshot_sorted().len()) * 1e9 / flush_entries as f64,
    );
}

// ----------------------------------------------------- shadow flush path ----

/// Mirrors the `Db`'s memtable during a traced `store_mixed` round and
/// replays each flush layer by layer: snapshot, table build, encode, file
/// write + rename, tree leaf, tree encode. Totals accumulate over rounds.
pub struct FlushShadow {
    shadow: Shadow,
    scratch: PathBuf,
    /// `(units, ns)` per replayed step; units are entries or bytes.
    snapshots: Vec<(u64, u64)>,
    builds: Vec<(u64, u64)>,
    encodes: Vec<(u64, u64)>,
    decodes: Vec<(u64, u64)>,
    writes: Vec<(u64, u64)>,
    tree_encodes: Vec<(u64, u64)>,
    push_leaf_ns: Vec<f64>,
}

impl FlushShadow {
    pub fn new(store: &Store) -> Self {
        Self {
            shadow: Shadow::new(store),
            scratch: PathBuf::new(),
            snapshots: Vec::new(),
            builds: Vec::new(),
            encodes: Vec::new(),
            decodes: Vec::new(),
            writes: Vec::new(),
            tree_encodes: Vec::new(),
            push_leaf_ns: Vec::new(),
        }
    }

    /// Start mirroring a fresh store living in `dir`.
    pub fn begin_round(&mut self, dir: &Path) {
        self.shadow = Shadow::with_options(self.shadow.options.clone());
        self.scratch = dir.join("flush-replay.scratch");
    }

    pub fn put(&self, key: u64, value: Vec<u8>) {
        self.shadow.memtable.put(key, value);
    }

    pub fn delete(&self, key: u64) {
        self.shadow.memtable.delete(key);
    }

    /// The `Db` compacted: its tree shrank, so the shadow tree starts over
    /// and stays the size of the real one (at most eight leaves).
    pub fn reset_tables(&mut self) {
        let memtable = std::mem::take(&mut self.shadow.memtable);
        self.shadow = Shadow::with_options(self.shadow.options.clone());
        self.shadow.memtable = memtable;
    }

    /// Replay the flush the `Db` just did inside the call spanned by `parent`.
    pub fn replay_flush(&mut self, parent: Parent, clock: &Clock, tracer: &mut Tracer) {
        let mut span = |name, t0: u64, t1: u64| {
            tracer.record(name, t0, t1, parent.span, parent.op);
            t1 - t0
        };
        let sh = &mut self.shadow;
        let t0 = clock.now_ns();
        let entries = sh.memtable.snapshot_sorted();
        let t1 = clock.now_ns();
        let sst = sh.build_table(&entries);
        let t2 = clock.now_ns();
        let bytes = sst.to_bytes();
        let t3 = clock.now_ns();
        let tmp = self.scratch.with_extension("tmp");
        let wrote = RealIo
            .write(&tmp, &bytes)
            .and_then(|()| RealIo.rename(&tmp, &self.scratch));
        let t4 = clock.now_ns();
        sh.ssts.push(sst);
        let t5 = clock.now_ns();
        sh.tree.push_leaf(&sh.ssts);
        let t6 = clock.now_ns();
        let tree_bytes = sh.tree.to_bytes();
        let t7 = clock.now_ns();

        let n = entries.len() as u64;
        self.snapshots
            .push((n, span("lsm.memtable.snapshot_sorted", t0, t1)));
        self.builds.push((n, span("lsm.sst.build", t1, t2)));
        self.encodes.push((n, span("lsm.sst.to_bytes", t2, t3)));
        if wrote.is_ok() {
            self.writes
                .push((bytes.len() as u64, span("lsm.io.write_rename", t3, t4)));
        }
        self.push_leaf_ns
            .push(span("lsm.tree.push_leaf", t5, t6) as f64);
        self.tree_encodes
            .push((tree_bytes.len() as u64, span("lsm.tree.to_bytes", t6, t7)));

        // Not part of a flush, but the same bytes: what a reopen decodes.
        let t8 = clock.now_ns();
        let decoded = SsTable::from_bytes(&bytes, &sh.stats);
        self.decodes.push((n, clock.now_ns() - t8));
        debug_assert!(decoded.is_ok());
        let _ = RealIo.remove(&self.scratch);
        // The flushed entries leave the memtable, as in `Db::flush`.
        sh.memtable.forget(&entries);
    }

    /// The write path's per-layer metrics, over every replayed flush.
    pub fn report(&self, report: &mut Report) {
        // ns per unit over all `(units, ns)` samples.
        let rate = |samples: &[(u64, u64)]| {
            let units: u64 = samples.iter().map(|s| s.0).sum();
            (units > 0).then(|| samples.iter().map(|s| s.1).sum::<u64>() as f64 / units as f64)
        };
        report.set_layer_opt(
            "lsm.memtable.snapshot_sorted_ns_per_entry",
            rate(&self.snapshots),
        );
        report.set_layer_opt("lsm.sst.build_ns_per_entry", rate(&self.builds));
        report.set_layer_opt("lsm.sst.to_bytes_ns_per_entry", rate(&self.encodes));
        report.set_layer_opt("lsm.sst.from_bytes_ns_per_entry", rate(&self.decodes));
        report.set_layer_opt(
            "lsm.io.write_ns_per_mib",
            rate(&self.writes).map(|per_byte| per_byte * 1048576.0),
        );
        report.set_layer_opt(
            "lsm.tree.to_bytes_ns_per_kib",
            rate(&self.tree_encodes).map(|per_byte| per_byte * 1024.0),
        );
        if !self.push_leaf_ns.is_empty() {
            report.set_layer("lsm.tree.push_leaf_ns", median(&self.push_leaf_ns));
        }
    }
}
