//! `store_read`: a read-only `Db` over 2048 in-memory SSTs of 512 uniform
//! 64-bit keys each, so every table spans the whole domain and pruning comes
//! from filters, not fences — the fan-in regime. Store ops are timed per
//! call; the load happens in set-up (and supplies the write-side samples).

use crate::api::Store;
use crate::keys::{mix64, value_for, KeySpace, Rng, StreamHash};
use crate::layers::{Parent, Shadow, SpanStats};
use crate::metrics::Report;
use crate::stats::{p50, RoundCosts, RoundStat};
use crate::trace::{Clock, Tracer, ROOT, SPAN_CAP};
use crate::Ctx;

/// Keys per `get_batch` call, half of them present.
const BATCH: usize = 64;
/// Rows a scan returns (of a limit of 100).
const SCAN_ROWS: usize = 20;
const SCAN_LIMIT: usize = 100;
const RANGE_WIDTH: u64 = 1 << 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    GetHit,
    GetMiss,
    RangeEmpty,
    RangeNonEmpty,
    GetBatch,
    Scan,
}
use Class::*;

const CLASSES: [Class; 6] = [GetHit, GetMiss, RangeEmpty, RangeNonEmpty, GetBatch, Scan];

impl Class {
    fn name(self) -> &'static str {
        match self {
            GetHit => "lsm.db.get.hit",
            GetMiss => "lsm.db.get.miss",
            RangeEmpty => "lsm.db.range.empty",
            RangeNonEmpty => "lsm.db.range.nonempty",
            GetBatch => "lsm.db.get_batch.b64",
            Scan => "lsm.db.scan",
        }
    }

    /// Calls per class-pure group.
    fn group_calls(self) -> usize {
        match self {
            GetBatch | Scan => 4,
            _ => 32,
        }
    }

    /// Groups per round: 2048 present gets (enough for a p99 with ten
    /// samples beyond it), 1024 absent gets and empty ranges, 256 non-empty
    /// ranges, 32 batches and 32 scans at the full size.
    fn groups(self, base_calls: usize) -> usize {
        let calls = match self {
            GetHit => 8 * base_calls,
            GetMiss | RangeEmpty => 4 * base_calls,
            RangeNonEmpty => base_calls,
            GetBatch | Scan => base_calls / 8,
        };
        calls.div_ceil(self.group_calls())
    }

    /// Logical ops per call (batch keys count singly).
    fn ops(self) -> u64 {
        if self == GetBatch {
            BATCH as u64
        } else {
            1
        }
    }
}

/// A `Db` call of a traced round, kept until its group is through: what was
/// asked and what the `Db` answered, for the shadow layers to reproduce.
enum Replay {
    Get {
        key: u64,
        hit: bool,
        got: Option<Vec<u8>>,
    },
    Range {
        lo: u64,
        hi: u64,
        empty: bool,
        got: bool,
    },
    Batch {
        keys: Vec<u64>,
        got: Vec<Option<Vec<u8>>>,
    },
    Scan {
        lo: u64,
        hi: u64,
        rows: Vec<(u64, Vec<u8>)>,
    },
}

impl Replay {
    /// Replay the call layer by layer (child spans of `parent`); true when
    /// the layers return what the `Db` returned.
    fn matches(self, shadow: &Shadow, parent: Parent, clock: &Clock, tracer: &mut Tracer) -> bool {
        match self {
            Replay::Get { key, hit, got } => shadow.get(key, hit, parent, clock, tracer) == got,
            Replay::Range { lo, hi, empty, got } => {
                shadow.range(lo, hi, empty, parent, clock, tracer) == got
            }
            Replay::Batch { keys, got } => shadow.get_batch(&keys, parent, clock, tracer) == got,
            Replay::Scan { lo, hi, rows } => {
                shadow.scan(lo, hi, SCAN_LIMIT, parent, clock, tracer) == rows
            }
        }
    }
}

struct Loaded {
    store: Store,
    /// Latencies of the `put`s that did not flush / that did, in ns.
    put_ns: Vec<f64>,
    flush_ns: Vec<f64>,
    /// The oracle: every key, ascending.
    sorted: Vec<u64>,
}

/// Set-up: load `segments x flush_entries` keys through `put` (each call
/// timed; a call during which `num_ssts()` grew is a flush sample) and sort
/// the oracle.
fn load(ctx: &Ctx, space: &KeySpace, clock: &Clock) -> Loaded {
    let store = Store::in_memory(ctx.sizes.read_flush_entries);
    let mut put_ns = Vec::with_capacity(space.n as usize);
    let mut flush_ns = Vec::with_capacity(ctx.sizes.read_segments);
    let mut tables = 0;
    for i in 0..space.n {
        let key = space.key(i);
        let value = value_for(key, 0);
        let t0 = clock.now_ns();
        store.put(key, value);
        let t1 = clock.now_ns();
        let now = store.num_ssts();
        if now > tables {
            flush_ns.push((t1 - t0) as f64);
        } else {
            put_ns.push((t1 - t0) as f64);
        }
        tables = now;
    }
    let mut sorted: Vec<u64> = (0..space.n).map(|i| space.key(i)).collect();
    sorted.sort_unstable();
    Loaded {
        store,
        put_ns,
        flush_ns,
        sorted,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let clock = Clock::start();
    let mut report = Report::new("store_read", ctx.seed, ctx.trace);
    let space = KeySpace {
        seed: ctx.seed,
        n: (ctx.sizes.read_segments * ctx.sizes.read_flush_entries) as u64,
    };

    let mut loads = 0u64;
    let (loaded, setup_s) = crate::repeat_setup(ctx, &clock, |_| {
        loads += 1;
        load(ctx, &space, &clock)
    });
    let Loaded {
        store,
        mut put_ns,
        mut flush_ns,
        sorted,
    } = loaded;
    report.set("setup_s", setup_s);
    report.attempted += loads * space.n;
    report.failed += u64::from(store.num_entries() as u64 != space.n);
    report.note("ssts", store.num_ssts());

    // Traced runs rebuild the read path's layers beside the `Db`, one table
    // per flush, from the same entries in the same order.
    let mut shadow = ctx.trace.then(|| Shadow::new(&store));
    let (mut build_ns, mut push_leaf_ns) = (Vec::new(), Vec::new());
    if let Some(shadow) = shadow.as_mut() {
        for chunk in 0..ctx.sizes.read_segments as u64 {
            let per = ctx.sizes.read_flush_entries as u64;
            let mut entries: Vec<(u64, Vec<u8>)> = (chunk * per..(chunk + 1) * per)
                .map(|i| (space.key(i), value_for(space.key(i), 0)))
                .collect();
            entries.sort_unstable_by_key(|e| e.0);
            let (build, leaf) = shadow.push_table(entries, &clock);
            build_ns.push(build as f64 / per as f64);
            push_leaf_ns.push(leaf as f64);
        }
        report.failed += u64::from(shadow.tables() != store.num_ssts());
    }

    let qseed = mix64(ctx.seed, 0x5EAD);
    let mut slots: Vec<(Class, u32)> = CLASSES
        .into_iter()
        .flat_map(|c| (0..c.groups(ctx.sizes.read_calls) as u32).map(move |g| (c, g)))
        .collect();
    Rng::new(ctx.seed, 3).shuffle(&mut slots);

    let mut untraced: Vec<RoundStat> = CLASSES.iter().map(|_| RoundStat::default()).collect();
    let mut traced: Vec<RoundStat> = CLASSES.iter().map(|_| RoundStat::default()).collect();
    let mut round_costs = RoundCosts::default();
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut span_stats = SpanStats::default();
    let mut hash = StreamHash::default();
    let mut range_false_positives = 0u64;
    let mut pending: Vec<(Parent, Replay)> = Vec::new();

    let measure_start = clock.seconds();
    let mut round = 0usize;
    loop {
        let is_traced = ctx.trace && round % 2 == 1;
        let keep = round > 0; // round 0 is the warm-up
        let stats = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let mark = tracer.spans.len();
        let (mut ops, mut span_ns) = (0u64, 0u64);
        let mut op = (round as u64) << 32;
        for &(class, group) in &slots {
            let calls = class.group_calls();
            for j in 0..calls {
                let h = mix64(
                    qseed ^ (class as u64) << 56,
                    u64::from(group) * calls as u64 + j as u64,
                );
                op += 1;
                if round == 0 {
                    hash.add(h ^ class as u64);
                }
                // Inputs first, then the timed span, then the checks.
                let present = space.key(h % space.n);
                let absent = space.absent(h >> 24);
                let (t0, t1, ok, replay) = match class {
                    GetHit | GetMiss => {
                        let hit = class == GetHit;
                        let key = if hit { present } else { absent };
                        let t0 = clock.now_ns();
                        let got = store.get(key);
                        let t1 = clock.now_ns();
                        let ok = got == hit.then(|| value_for(key, 0));
                        (t0, t1, ok, Replay::Get { key, hit, got })
                    }
                    RangeEmpty | RangeNonEmpty => {
                        let empty = class == RangeEmpty;
                        let lo = if empty {
                            absent
                        } else {
                            present.saturating_sub((h >> 40) % RANGE_WIDTH)
                        };
                        let hi = lo.saturating_add(RANGE_WIDTH - 1);
                        let t0 = clock.now_ns();
                        let got = store.range_is_possibly_non_empty(lo, hi);
                        let t1 = clock.now_ns();
                        let first = sorted.partition_point(|&k| k < lo);
                        let non_empty = sorted.get(first).is_some_and(|&k| k <= hi);
                        range_false_positives += u64::from(got && !non_empty);
                        // "Possibly non-empty" may err on the side of yes only.
                        (
                            t0,
                            t1,
                            got || !non_empty,
                            Replay::Range { lo, hi, empty, got },
                        )
                    }
                    GetBatch => {
                        let keys: Vec<u64> = (0..BATCH as u64)
                            .map(|q| {
                                let hq = mix64(h, q);
                                if hq >> 63 == 1 {
                                    space.key(hq % space.n)
                                } else {
                                    space.absent(hq >> 24)
                                }
                            })
                            .collect();
                        let t0 = clock.now_ns();
                        let got = store.get_batch(&keys);
                        let t1 = clock.now_ns();
                        let ok = got.len() == keys.len()
                            && keys
                                .iter()
                                .zip(&got)
                                .all(|(&k, v)| *v == space.contains(k).then(|| value_for(k, 0)));
                        (t0, t1, ok, Replay::Batch { keys, got })
                    }
                    Scan => {
                        let first = (h % (sorted.len() - SCAN_ROWS) as u64) as usize;
                        let want = &sorted[first..first + SCAN_ROWS];
                        let (lo, hi) = (want[0], want[SCAN_ROWS - 1]);
                        let t0 = clock.now_ns();
                        let rows = store.scan(lo, hi, SCAN_LIMIT);
                        let t1 = clock.now_ns();
                        let ok = rows.len() == SCAN_ROWS
                            && rows
                                .iter()
                                .zip(want)
                                .all(|((k, v), &w)| *k == w && *v == value_for(w, 0));
                        (t0, t1, ok, Replay::Scan { lo, hi, rows })
                    }
                };
                if is_traced {
                    let span = tracer.record(class.name(), t0, t1, ROOT, op);
                    pending.push((Parent { span, op }, replay));
                }
                stats[class as usize].push((t1 - t0) as f64 / class.ops() as f64);
                ops += class.ops();
                span_ns += t1 - t0;
                report.attempted += class.ops();
                report.failed += u64::from(!ok);
            }
            // Replay the group's calls only now, so that within a group the
            // `Db` calls run back to back as they do untraced (the shadow
            // structures would otherwise evict the `Db`'s own between calls).
            // Every call is replayed: replaying fewer halves the overhead but
            // leaves the shadow cold, and a cold replay overstates the layers
            // (children 1.2-1.4x the `Db` span instead of 1.0x).
            if let Some(shadow) = &shadow {
                for (parent, replay) in pending.drain(..) {
                    let same = replay.matches(shadow, parent, &clock, &mut tracer);
                    report.failed += u64::from(!same);
                }
            }
        }
        for stat in stats.iter_mut() {
            stat.end_round(keep);
        }
        if keep {
            round_costs.push(is_traced, ops, span_ns);
        }
        if is_traced {
            span_stats.fold_round(&tracer, mark, keep);
        }
        tracer.trim_to_cap(mark);
        round += 1;
        if round >= crate::MIN_ROUNDS && clock.seconds() - measure_start >= ctx.seconds {
            break;
        }
    }
    report.stream_hash = hash.0;

    report.set("ops_per_s", round_costs.ops_per_s());
    report.set_opt("point_p50_ns", untraced[GetHit as usize].p50());
    report.set_opt("point_p99_ns", untraced[GetHit as usize].p99());
    report.set_opt("miss_p50_ns", untraced[GetMiss as usize].p50());
    report.set_opt("range_p50_ns", untraced[RangeEmpty as usize].p50());
    report.set_opt("batch_point_p50_ns", untraced[GetBatch as usize].p50());
    report.set_opt("scan_p50_ns", untraced[Scan as usize].p50());
    // Write side: the load's own calls (the measured rounds are read-only).
    let flushes = flush_ns.len();
    report.set_opt("write_p50_ns", p50(&mut put_ns));
    report.set_opt("flush_p50_ns", p50(&mut flush_ns));
    report.note("rounds_kept", untraced[GetHit as usize].rounds());
    report.note("point_samples", untraced[GetHit as usize].samples);
    report.note("flush_samples", flushes);
    report.note("range_false_positives", range_false_positives);

    if let Some(shadow) = &shadow {
        let t = |name: &str| span_stats.dur(name);
        report.set_layer_opt("lsm.db.get_hit_ns", t("lsm.db.get.hit"));
        report.set_layer_opt("lsm.db.get_hit_p99_ns", traced[GetHit as usize].p99());
        report.set_layer_opt("lsm.db.get_miss_ns", t("lsm.db.get.miss"));
        report.set_layer_opt("lsm.db.get_self_ns", span_stats.own("lsm.db.get.hit"));
        report.set_layer_opt(
            "lsm.db.get_children_share",
            span_stats.share("lsm.db.get.hit"),
        );
        report.set_layer_opt(
            "lsm.db.get_batch_b64_ns",
            t("lsm.db.get_batch.b64").map(|ns| ns / BATCH as f64),
        );
        report.set_layer_opt(
            "lsm.db.get_batch_self_ns",
            span_stats
                .own("lsm.db.get_batch.b64")
                .map(|ns| ns / BATCH as f64),
        );
        report.set_layer_opt("lsm.db.range_empty_ns", t("lsm.db.range.empty"));
        report.set_layer_opt("lsm.db.range_nonempty_ns", t("lsm.db.range.nonempty"));
        report.set_layer_opt("lsm.db.scan_p50_ns", t("lsm.db.scan"));
        report.set_layer_opt(
            "lsm.db.scan_ns_per_row",
            t("lsm.db.scan").map(|ns| ns / SCAN_ROWS as f64),
        );
        report.set_layer_opt(
            "lsm.tree.candidates_point_hit_ns",
            t("lsm.tree.candidates_point.hit"),
        );
        report.set_layer_opt(
            "lsm.tree.candidates_point_miss_ns",
            t("lsm.tree.candidates_point.miss"),
        );
        report.set_layer_opt(
            "lsm.tree.candidates_range_empty_ns",
            t("lsm.tree.candidates_range.empty"),
        );
        report.set_layer_opt(
            "lsm.tree.candidates_points_b64_ns",
            t("lsm.tree.candidates_points.b64").map(|ns| ns / BATCH as f64),
        );
        report.set_layer_opt("lsm.sst.get_hit_ns", t("lsm.sst.get.hit"));
        report.set_layer_opt("lsm.sst.range_non_empty_ns", t("lsm.sst.scan.first"));
        report.set_layer_opt(
            "lsm.sst.scan_ns_per_row",
            t("lsm.sst.scan.all_tables").map(|ns| ns / SCAN_ROWS as f64),
        );
        report.set_layer_opt("lsm.sst.build_ns_per_entry", p50(&mut build_ns));
        report.set_layer_opt("lsm.tree.push_leaf_ns", p50(&mut push_leaf_ns));
        report.set_layer_opt("lsm.db.put_ns", report.e2e.get("write_p50_ns").copied());
        report.set_layer_opt(
            "lsm.db.flush_ms",
            report.e2e.get("flush_p50_ns").map(|ns| ns / 1e6),
        );
        report.set_layer("lsm.db.flushes", flushes as f64);
        report.set_layer("lsm.db.ssts_final", store.num_ssts() as f64);
        shadow.census(&store, &space, &sorted, &clock, &mut report);
        report.set_layer("bench.trace_overhead_frac", round_costs.trace_overhead());
        crate::layers::finish_trace(&mut report, &tracer, &clock, ctx);
    }
    report
}
