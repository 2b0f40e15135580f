//! `store_mixed`: one seeded stream of writes beside reads on a real
//! directory, with a fixed maintenance policy, then a process-kill
//! equivalent, reopens, a full verification sweep and a full compaction.
//!
//! One *round* replays the whole stream on a fresh directory, so every count
//! (write amplification, space, lost writes) is exact per seed and must
//! repeat from round to round; `--seconds` only decides how many rounds run.
//!
//! Maintenance policy (identical on both sides of any comparison): after a
//! write during which `num_ssts()` grew to 8 or more, call `maybe_compact()`
//! until it has nothing to do; each call is a timed op.

use crate::api::Store;
use crate::keys::{value_for, version_of, KeySpace, Rng, StreamHash, VALUE_LEN};
use crate::layers::{FlushShadow, Parent, SpanStats};
use crate::metrics::Report;
use crate::procio;
use crate::stats::{median, sort, tail_percentile_sorted, RoundCosts, RoundStat};
use crate::trace::{Clock, Tracer, ROOT, SPAN_CAP};
use crate::Ctx;
use std::path::Path;

const BATCH: usize = 64;
const RANGE_WIDTH: u64 = 1 << 10;
/// `num_ssts()` at which maintenance runs.
const COMPACT_AT: usize = 8;
/// Reopens of the post-kill directory; `open_s` is the median of 2..=5.
const REOPENS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PutNew,
    Overwrite,
    Delete,
    /// `get` of a key written earlier (live, or deleted if none was found).
    GetKnown,
    GetAbsent,
    RangeEmpty,
    GetBatch,
}

/// Op mix, per mille: 70 % put-new, 10 % overwrite, 5 % delete, 9 % get of
/// an acknowledged key, 4 % get absent, 1.5 % empty-range check, 0.5 %
/// 64-key batch get.
const MIX: [(Kind, u64); 7] = [
    (Kind::PutNew, 700),
    (Kind::Overwrite, 100),
    (Kind::Delete, 50),
    (Kind::GetKnown, 90),
    (Kind::GetAbsent, 40),
    (Kind::RangeEmpty, 15),
    (Kind::GetBatch, 5),
];

fn pick_kind(draw: u64) -> Kind {
    let mut below = 0;
    for (kind, share) in MIX {
        below += share;
        if draw < below {
            return kind;
        }
    }
    unreachable!("shares sum to 1000")
}

/// Op counts at which the four quarters of a stream end.
fn quarter_ends(n_ops: usize) -> [usize; 4] {
    [n_ops / 4, n_ops / 2, n_ops * 3 / 4, n_ops]
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Key index (writes, known gets), absent-key counter (absent gets,
    /// ranges) or index into [`Stream::batches`].
    pub index: u64,
    /// Version a `GetKnown` must return (`None` = deleted).
    pub expect: Option<u64>,
}

/// The op stream with its oracle: what every read must return and the state
/// of every key after the last acknowledged write. A put's version is its op
/// index, so a lost overwrite is always visible in the value.
pub struct Stream {
    pub ops: Vec<Op>,
    /// `(key, expected version)` of each batch get.
    pub batches: Vec<Vec<(u64, Option<u64>)>>,
    /// Per key index: version of the last put, or `None` once deleted.
    pub final_state: Vec<Option<u64>>,
    /// Bytes submitted: 8 + len per put, 8 per delete.
    pub user_bytes: u64,
    /// User bytes submitted up to the end of each quarter of the stream.
    pub user_bytes_at_quarter: [u64; 4],
    pub hash: u64,
}

pub fn generate(seed: u64, n_ops: usize, flush_entries: usize) -> Stream {
    let space = KeySpace {
        seed,
        n: n_ops as u64,
    };
    let mut rng = Rng::new(seed, 0x3A1D);
    let mut state: Vec<Option<u64>> = Vec::new();
    let mut ops = Vec::with_capacity(n_ops);
    let mut batches = Vec::new();
    let mut hash = StreamHash::default();
    let (mut user_bytes, mut at_quarter) = (0u64, [0u64; 4]);
    let quarter_ends = quarter_ends(n_ops);
    // A live key among the first `bound` indices, if a few draws find one.
    let live = |rng: &mut Rng, state: &[Option<u64>], bound: u64| {
        (0..if bound == 0 { 0 } else { 8 })
            .map(|_| rng.below(bound))
            .find(|&i| state[i as usize].is_some())
    };
    for i in 0..n_ops as u64 {
        let mut kind = pick_kind(rng.below(1000));
        let created = state.len() as u64;
        // Writes target live keys, and deletes only keys at least one
        // memtable's worth of puts old, whose put has therefore been flushed:
        // a write lost with the memtable then always shows as a stale value,
        // never as an unchanged state, so lost keys = memtable residue.
        let target = match kind {
            Kind::Overwrite => live(&mut rng, &state, created),
            Kind::Delete => live(
                &mut rng,
                &state,
                created.saturating_sub(flush_entries as u64),
            ),
            Kind::GetKnown if created > 0 => {
                Some(live(&mut rng, &state, created).unwrap_or(rng.below(created)))
            }
            _ => None,
        };
        if target.is_none() && matches!(kind, Kind::Overwrite | Kind::Delete | Kind::GetKnown) {
            kind = Kind::PutNew;
        }
        let op = match kind {
            Kind::PutNew => {
                state.push(Some(i));
                user_bytes += 8 + VALUE_LEN as u64;
                Op {
                    kind,
                    index: created,
                    expect: None,
                }
            }
            Kind::Overwrite => {
                let index = target.expect("checked above");
                state[index as usize] = Some(i);
                user_bytes += 8 + VALUE_LEN as u64;
                Op {
                    kind,
                    index,
                    expect: None,
                }
            }
            Kind::Delete => {
                let index = target.expect("checked above");
                state[index as usize] = None;
                user_bytes += 8;
                Op {
                    kind,
                    index,
                    expect: None,
                }
            }
            Kind::GetKnown => {
                let index = target.expect("checked above");
                Op {
                    kind,
                    index,
                    expect: state[index as usize],
                }
            }
            Kind::GetAbsent | Kind::RangeEmpty => Op {
                kind,
                index: rng.next_u64() >> 24,
                expect: None,
            },
            Kind::GetBatch => {
                let keys = (0..BATCH)
                    .map(|_| match live(&mut rng, &state, created) {
                        Some(index) if rng.below(2) == 1 => {
                            (space.key(index), state[index as usize])
                        }
                        _ => (space.absent(rng.next_u64() >> 24), None),
                    })
                    .collect();
                batches.push(keys);
                Op {
                    kind,
                    index: batches.len() as u64 - 1,
                    expect: None,
                }
            }
        };
        hash.add(op.kind as u64);
        hash.add(op.index);
        hash.add(op.expect.map_or(u64::MAX, |v| v));
        ops.push(op);
        for (q, end) in quarter_ends.into_iter().enumerate() {
            if i as usize + 1 == end {
                at_quarter[q] = user_bytes;
            }
        }
    }
    Stream {
        ops,
        batches,
        final_state: state,
        user_bytes,
        user_bytes_at_quarter: at_quarter,
        hash: hash.0,
    }
}

/// Everything one round (one replay of the stream) measured.
#[derive(Default)]
struct Round {
    ops: u64,
    span_ns: u64,
    failed: u64,
    attempted: u64,
    flushes: u64,
    compactions: u64,
    compact_ns: Vec<u64>,
    compact_entries: u64,
    /// `wchar` / `syscw` growth at the end of each quarter; `None` off Linux.
    wchar_at_quarter: Option<[u64; 4]>,
    write_syscalls: Option<u64>,
    dir_files: u64,
    dir_bytes: u64,
    tree_file_bytes: u64,
    open_s: Vec<f64>,
    bytes_read_open: Option<u64>,
    entries_before_kill: u64,
    entries_after_reopen: u64,
    lost: u64,
    created: u64,
    live_bytes: u64,
    full_compact_s: f64,
    ssts_final: u64,
    range_false_positives: u64,
}

/// The counts of a round that must repeat exactly from round to round.
type Exact = (u64, u64, u64, u64, u64, u64, Option<[u64; 4]>);

impl Round {
    fn exact(&self) -> Exact {
        (
            self.flushes,
            self.compactions,
            self.dir_bytes,
            self.lost,
            self.entries_before_kill,
            self.entries_after_reopen,
            self.wchar_at_quarter,
        )
    }
}

/// Per-class samples, one `RoundStat` round per replay of the stream.
#[derive(Default)]
struct Samples {
    hit: RoundStat,
    miss: RoundStat,
    range: RoundStat,
    batch: RoundStat,
    write: RoundStat,
    flush: RoundStat,
    /// Every `put` of the round, flushing or not (for the tail metrics).
    puts: Vec<f64>,
    deletes: RoundStat,
}

fn dir_usage(dir: &Path) -> std::io::Result<(u64, u64, u64)> {
    let (mut files, mut bytes, mut tree) = (0, 0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let len = entry.metadata()?.len();
        files += 1;
        bytes += len;
        if entry.file_name() == "TREE" {
            tree = len;
        }
    }
    Ok((files, bytes, tree))
}

struct Tracing<'a> {
    tracer: &'a mut Tracer,
    shadow: &'a mut FlushShadow,
}

/// What every round of a run shares.
struct Replay<'a> {
    stream: &'a Stream,
    space: KeySpace,
    flush_entries: usize,
    clock: Clock,
}

impl Replay<'_> {
    /// One round: replay the stream on the fresh `store` in `dir`, kill, reopen,
    /// sweep, compact.
    fn round(
        &self,
        store: Store,
        dir: &Path,
        round_no: usize,
        samples: &mut Samples,
        mut tracing: Option<Tracing>,
    ) -> Result<Round, String> {
        let Replay {
            stream,
            space,
            flush_entries,
            clock,
        } = self;
        let flush_entries = *flush_entries;
        let mut r = Round::default();
        let n_ops = stream.ops.len();
        let warm = n_ops / 20; // the first slice is excluded from timing statistics
        let quarter_ends = quarter_ends(n_ops);
        let io_start = procio::read();
        let mut wchar = [0u64; 4];
        let mut tables = store.num_ssts();
        let mut created = 0u64;
        let op_base = (round_no as u64) << 32;

        for (i, op) in stream.ops.iter().enumerate() {
            let timed = i >= warm;
            let op_id = op_base | i as u64;
            let span = |name: &'static str, t0: u64, t1: u64, tracing: &mut Option<Tracing>| {
                tracing.as_mut().map(|t| Parent {
                    span: t.tracer.record(name, t0, t1, ROOT, op_id),
                    op: op_id,
                })
            };
            r.ops += 1;
            r.attempted += 1;
            match op.kind {
                Kind::PutNew | Kind::Overwrite | Kind::Delete => {
                    let key = space.key(op.index);
                    created += u64::from(op.kind == Kind::PutNew);
                    let is_put = op.kind != Kind::Delete;
                    let value = is_put.then(|| value_for(key, i as u64));
                    let mirror = if tracing.is_some() {
                        value.clone()
                    } else {
                        None
                    };
                    let t0 = clock.now_ns();
                    match value {
                        Some(value) => store.put(key, value),
                        None => store.delete(key),
                    }
                    let t1 = clock.now_ns();
                    r.span_ns += t1 - t0;
                    let now = store.num_ssts();
                    let flushed = now > tables;
                    tables = now;
                    let ns = (t1 - t0) as f64;
                    if timed {
                        if flushed {
                            samples.flush.push(ns);
                        } else {
                            samples.write.push(ns);
                        }
                        if tracing.is_some() {
                            if is_put {
                                samples.puts.push(ns);
                            } else if !flushed {
                                samples.deletes.push(ns);
                            }
                        }
                    }
                    r.flushes += u64::from(flushed);
                    let name = match (flushed, is_put) {
                        (true, _) => "lsm.db.write.flush",
                        (false, true) => "lsm.db.put",
                        (false, false) => "lsm.db.delete",
                    };
                    let parent = span(name, t0, t1, &mut tracing);
                    if let (Some(t), Some(parent)) = (tracing.as_mut(), parent) {
                        match mirror {
                            Some(value) => t.shadow.put(key, value),
                            None => t.shadow.delete(key),
                        }
                        if flushed {
                            t.shadow.replay_flush(parent, clock, t.tracer);
                        }
                    }
                    if flushed && now >= COMPACT_AT {
                        loop {
                            let t0 = clock.now_ns();
                            let merged = store.maybe_compact()?;
                            let t1 = clock.now_ns();
                            r.ops += 1;
                            r.attempted += 1;
                            r.span_ns += t1 - t0;
                            span("lsm.db.maybe_compact", t0, t1, &mut tracing);
                            let Some(entries) = merged else { break };
                            r.compactions += 1;
                            r.compact_ns.push(t1 - t0);
                            r.compact_entries += entries as u64;
                        }
                        tables = store.num_ssts();
                        if let Some(t) = tracing.as_mut() {
                            t.shadow.reset_tables();
                        }
                    }
                }
                Kind::GetKnown | Kind::GetAbsent => {
                    let key = if op.kind == Kind::GetKnown {
                        space.key(op.index)
                    } else {
                        space.absent(op.index)
                    };
                    let t0 = clock.now_ns();
                    let got = store.get(key);
                    let t1 = clock.now_ns();
                    r.span_ns += t1 - t0;
                    let expected = op.expect.map(|version| value_for(key, version));
                    r.failed += u64::from(got != expected);
                    let name = match (op.kind, expected.is_some()) {
                        (Kind::GetKnown, true) => {
                            if timed {
                                samples.hit.push((t1 - t0) as f64);
                            }
                            "lsm.db.get.hit"
                        }
                        (Kind::GetKnown, false) => "lsm.db.get.deleted",
                        _ => {
                            if timed {
                                samples.miss.push((t1 - t0) as f64);
                            }
                            "lsm.db.get.miss"
                        }
                    };
                    span(name, t0, t1, &mut tracing);
                }
                Kind::RangeEmpty => {
                    let lo = space.absent(op.index);
                    let hi = lo.saturating_add(RANGE_WIDTH - 1);
                    let t0 = clock.now_ns();
                    let got = store.range_is_possibly_non_empty(lo, hi);
                    let t1 = clock.now_ns();
                    r.span_ns += t1 - t0;
                    if timed {
                        samples.range.push((t1 - t0) as f64);
                    }
                    span("lsm.db.range.empty", t0, t1, &mut tracing);
                    // Oracle: has any key ever written (deleted ones leave
                    // tombstones that may answer yes) fallen into the range?
                    let touched = KeySpace {
                        seed: space.seed,
                        n: created,
                    }
                    .range_non_empty(lo, hi);
                    r.failed += u64::from(touched && !got);
                    r.range_false_positives += u64::from(got && !touched);
                }
                Kind::GetBatch => {
                    let batch = &stream.batches[op.index as usize];
                    let keys: Vec<u64> = batch.iter().map(|&(key, _)| key).collect();
                    let t0 = clock.now_ns();
                    let got = store.get_batch(&keys);
                    let t1 = clock.now_ns();
                    r.ops += BATCH as u64 - 1; // batch keys count singly
                    r.attempted += BATCH as u64 - 1;
                    r.span_ns += t1 - t0;
                    if timed {
                        samples.batch.push((t1 - t0) as f64 / BATCH as f64);
                    }
                    span("lsm.db.get_batch.b64", t0, t1, &mut tracing);
                    let wrong = batch
                        .iter()
                        .zip(&got)
                        .filter(|(&(key, version), v)| {
                            **v != version.map(|version| value_for(key, version))
                        })
                        .count();
                    r.failed += (wrong + batch.len().abs_diff(got.len())) as u64;
                }
            }
            for (q, end) in quarter_ends.into_iter().enumerate() {
                if i + 1 == end {
                    if let (Some(start), Some(now)) = (io_start, procio::read()) {
                        wchar[q] = now.wchar - start.wchar;
                        r.write_syscalls = Some(now.syscw - start.syscw);
                    }
                }
            }
        }
        r.wchar_at_quarter = io_start.map(|_| wchar);
        r.created = created;
        r.entries_before_kill = store.num_entries() as u64;

        // Kill equivalent: drop the `Db` without flushing. There is no `Drop`
        // flush, so the memtable is lost while the OS cache stays intact.
        drop(store);
        let (files, bytes, tree) =
            dir_usage(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        (r.dir_files, r.dir_bytes, r.tree_file_bytes) = (files, bytes, tree);

        let mut reopened = None;
        for attempt in 0..REOPENS {
            drop(reopened.take());
            let io_before = procio::read();
            let t = clock.seconds();
            reopened = Some(Store::open(dir, flush_entries)?);
            r.open_s.push(clock.seconds() - t);
            if attempt == 0 {
                r.bytes_read_open = io_before
                    .zip(procio::read())
                    .map(|(a, b)| b.rchar - a.rchar);
            }
        }
        let store = reopened.expect("REOPENS >= 1");
        r.entries_after_reopen = store.num_entries() as u64;

        // Sweep every key ever written against the last acknowledged state. A
        // difference is a lost acknowledged write (today: the unlogged memtable),
        // not a failure — unless the store returns bytes no put ever wrote, or
        // loses more than the memtable held.
        let sweep = |store: &Store, r: &mut Round| -> Vec<Option<u64>> {
            (0..created)
                .map(|index| {
                    let key = space.key(index);
                    r.attempted += 1;
                    store.get(key).map(|value| {
                        version_of(key, &value).unwrap_or_else(|| {
                            r.failed += 1;
                            u64::MAX
                        })
                    })
                })
                .collect()
        };
        let observed = sweep(&store, &mut r);
        for (seen, last) in observed.iter().zip(&stream.final_state) {
            if seen != last {
                r.lost += 1;
                // A stale read may only be older than the last acknowledged put.
                r.failed += u64::from(matches!((seen, last), (Some(s), Some(l)) if s > l));
            }
        }
        r.failed += u64::from(r.lost != r.entries_before_kill - r.entries_after_reopen);
        r.live_bytes = stream.final_state.iter().flatten().count() as u64 * (8 + VALUE_LEN as u64);

        // A full compaction must not change what any key reads.
        let t = clock.seconds();
        store.compact()?;
        r.full_compact_s = clock.seconds() - t;
        r.ssts_final = store.num_ssts() as u64;
        let after = sweep(&store, &mut r);
        r.failed += observed.iter().zip(&after).filter(|(a, b)| a != b).count() as u64;
        Ok(r)
    }
}

fn fresh_dir(ctx: &Ctx, round_no: usize) -> Result<std::path::PathBuf, String> {
    let dir = ctx.dir.join(format!(
        "store_mixed-{}-{}-{round_no}",
        std::process::id(),
        ctx.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let clock = Clock::start();
    let mut report = Report::new("store_mixed", ctx.seed, ctx.trace);
    let n_ops = ctx.sizes.mixed_ops;
    let flush_entries = ctx.sizes.mixed_flush_entries;
    let space = KeySpace {
        seed: ctx.seed,
        n: n_ops as u64,
    };

    // Set-up: generate the stream with its oracle, create the directory and
    // open the empty store. Several times; the last one is used.
    let (prepared, setup_s) = crate::repeat_setup(ctx, &clock, |repeat| {
        let stream = generate(ctx.seed, n_ops, flush_entries);
        let dir = fresh_dir(ctx, repeat)?;
        let store = Store::open(&dir, flush_entries);
        let _ = std::fs::remove_dir_all(&dir);
        Ok::<_, String>((stream, store?))
    });
    let (stream, empty_store) = prepared?;
    report.set("setup_s", setup_s);
    report.stream_hash = stream.hash;

    let replay = Replay {
        stream: &stream,
        space,
        flush_entries,
        clock,
    };
    let mut modes: [Samples; 2] = [Samples::default(), Samples::default()];
    let mut rounds: [Vec<Round>; 2] = [Vec::new(), Vec::new()];
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut span_stats = SpanStats::default();
    let mut shadow = ctx.trace.then(|| FlushShadow::new(&empty_store));
    let (mut puts_p9999, mut puts_max) = (Vec::new(), 0f64);

    let measure_start = clock.seconds();
    let mut round_no = 0usize;
    loop {
        // Traced runs alternate untraced and traced replays of the stream.
        let is_traced = ctx.trace && round_no % 2 == 1;
        let dir = fresh_dir(ctx, round_no)?;
        let store = Store::open(&dir, flush_entries)?;
        let mark = tracer.spans.len();
        let tracing = match shadow.as_mut() {
            Some(shadow) if is_traced => {
                shadow.begin_round(&dir);
                Some(Tracing {
                    tracer: &mut tracer,
                    shadow,
                })
            }
            _ => None,
        };
        let samples = &mut modes[is_traced as usize];
        let round = replay.round(store, &dir, round_no, samples, tracing);
        let _ = std::fs::remove_dir_all(&dir);
        let round = round?;
        for stat in [
            &mut samples.hit,
            &mut samples.miss,
            &mut samples.range,
            &mut samples.batch,
            &mut samples.write,
            &mut samples.flush,
            &mut samples.deletes,
        ] {
            stat.end_round(true);
        }
        if is_traced {
            sort(&mut samples.puts);
            puts_p9999.extend(tail_percentile_sorted(&samples.puts, 0.9999));
            puts_max = puts_max.max(samples.puts.last().copied().unwrap_or(0.0));
            samples.puts.clear();
            span_stats.fold_round(&tracer, mark, true);
            tracer.trim_to_cap(mark);
        }
        report.attempted += round.attempted;
        report.failed += round.failed;
        rounds[is_traced as usize].push(round);
        round_no += 1;
        let enough = if ctx.trace { 2 } else { 1 };
        if round_no >= enough && clock.seconds() - measure_start >= ctx.seconds {
            break;
        }
    }

    // Every count must repeat exactly from round to round (the traced
    // replay's own file writes are the one thing that differs by design).
    let first = &rounds[0][0];
    let untraced_differ = rounds[0].iter().any(|r| r.exact() != first.exact());
    let without_io = |r: &Round| {
        let e = r.exact();
        (e.0, e.1, e.2, e.3, e.4, e.5)
    };
    let traced_differ = rounds[1].iter().any(|r| without_io(r) != without_io(first));
    if untraced_differ || traced_differ {
        report.failed += 1;
        report.note("nondeterministic", "exact counts differ between rounds");
    }

    let over_rounds = |mode: usize, f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&rounds[mode].iter().map(f).collect::<Vec<_>>())
    };
    let untraced = &modes[0];
    let mut round_costs = RoundCosts::default();
    for (mode, rounds) in rounds.iter().enumerate() {
        for r in rounds {
            round_costs.push(mode == 1, r.ops, r.span_ns);
        }
    }
    report.set("ops_per_s", round_costs.ops_per_s());
    report.set_opt("point_p50_ns", untraced.hit.p50());
    report.set_opt("point_p99_ns", untraced.hit.p99());
    report.set_opt("miss_p50_ns", untraced.miss.p50());
    report.set_opt("range_p50_ns", untraced.range.p50());
    report.set_opt("batch_point_p50_ns", untraced.batch.p50());
    report.set_opt("write_p50_ns", untraced.write.p50());
    report.set_opt("flush_p50_ns", untraced.flush.p50());
    let write_amp = first
        .wchar_at_quarter
        .map(|w| w[3] as f64 / stream.user_bytes as f64);
    report.set_opt("write_amp", write_amp);
    let space_amp = first.dir_bytes as f64 / first.live_bytes as f64;
    report.set("space_amp", space_amp);
    let open_s = over_rounds(0, &|r| median(&r.open_s[1..]));
    report.set("open_s", open_s);
    let lost_frac = first.lost as f64 / first.created.max(1) as f64;
    report.set("lost_acked_frac", lost_frac);
    report.note("rounds", rounds[0].len() + rounds[1].len());
    report.note("point_samples", untraced.hit.samples);
    report.note("flush_samples", untraced.flush.samples);
    report.note("keys_written", first.created);
    report.note("lost_keys", first.lost);
    report.note(
        "memtable_residue",
        first.entries_before_kill - first.entries_after_reopen,
    );
    report.note("compactions_per_round", first.compactions);
    report.note("range_false_positives", first.range_false_positives);

    if let Some(shadow) = &shadow {
        let t = |name: &str| span_stats.dur(name);
        report.set_layer_opt("lsm.db.put_ns", t("lsm.db.put"));
        report.set_layer_opt("lsm.db.delete_ns", t("lsm.db.delete"));
        report.set_layer_opt("lsm.db.get_hit_ns", t("lsm.db.get.hit"));
        report.set_layer_opt("lsm.db.get_hit_p99_ns", modes[1].hit.p99());
        report.set_layer_opt("lsm.db.get_miss_ns", t("lsm.db.get.miss"));
        report.set_layer_opt("lsm.db.range_empty_ns", t("lsm.db.range.empty"));
        report.set_layer_opt(
            "lsm.db.get_batch_b64_ns",
            t("lsm.db.get_batch.b64").map(|ns| ns / BATCH as f64),
        );
        report.set_layer_opt(
            "lsm.db.flush_ms",
            t("lsm.db.write.flush").map(|ns| ns / 1e6),
        );
        report.set_layer_opt(
            "lsm.db.flush_self_ms",
            span_stats.own("lsm.db.write.flush").map(|ns| ns / 1e6),
        );
        if !puts_p9999.is_empty() {
            report.set_layer("lsm.db.put_p9999_ns", median(&puts_p9999));
        }
        report.set_layer("lsm.db.put_max_ms", puts_max / 1e6);
        report.set_layer("lsm.db.flushes", first.flushes as f64);
        report.set_layer("lsm.db.compactions", first.compactions as f64);
        let busy = |r: &Round| r.compact_ns.iter().sum::<u64>() as f64;
        report.set_layer("lsm.db.compact_busy_s", over_rounds(0, &|r| busy(r) / 1e9));
        report.set_layer(
            "lsm.db.compact_max_s",
            over_rounds(0, &|r| {
                r.compact_ns.iter().copied().max().unwrap_or(0) as f64 / 1e9
            }),
        );
        report.set_layer(
            "lsm.db.compact_ns_per_entry",
            over_rounds(0, &|r| busy(r) / r.compact_entries.max(1) as f64),
        );
        report.set_layer(
            "lsm.db.full_compact_s",
            over_rounds(0, &|r| r.full_compact_s),
        );
        report.set_layer("lsm.db.open_first_s", over_rounds(0, &|r| r.open_s[0]));
        report.set_layer("lsm.db.open_s", open_s);
        report.set_layer("lsm.db.ssts_final", first.ssts_final as f64);
        report.set_layer("lsm.db.lost_acked_frac", lost_frac);

        if let Some(wchar) = first.wchar_at_quarter {
            report.set_layer("lsm.io.bytes_written", wchar[3] as f64);
            let user = stream.user_bytes_at_quarter;
            for (q, name) in [
                "lsm.io.write_amp_q1",
                "lsm.io.write_amp_q2",
                "lsm.io.write_amp_q3",
                "lsm.io.write_amp_q4",
            ]
            .into_iter()
            .enumerate()
            {
                let (w0, u0) = if q == 0 {
                    (0, 0)
                } else {
                    (wchar[q - 1], user[q - 1])
                };
                report.set_layer(name, (wchar[q] - w0) as f64 / (user[q] - u0).max(1) as f64);
            }
        }
        report.set_layer_opt("lsm.io.write_amp", write_amp);
        report.set_layer_opt(
            "lsm.io.write_syscalls",
            first.write_syscalls.map(|n| n as f64),
        );
        report.set_layer_opt(
            "lsm.io.bytes_read_open",
            first.bytes_read_open.map(|n| n as f64),
        );
        report.set_layer("lsm.io.dir_files", first.dir_files as f64);
        report.set_layer("lsm.io.dir_bytes", first.dir_bytes as f64);
        report.set_layer("lsm.io.tree_file_bytes", first.tree_file_bytes as f64);
        report.set_layer("lsm.io.space_amp", space_amp);
        shadow.report(&mut report);
        crate::layers::memtable_census(flush_entries, &space, &clock, &mut report);
        report.set_layer("bench.trace_overhead_frac", round_costs.trace_overhead());
        crate::layers::finish_trace(&mut report, &tracer, &clock, ctx);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = generate(11, 5000, 128);
        let b = generate(11, 5000, 128);
        let c = generate(12, 5000, 128);
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
        assert_eq!(a.ops.len(), 5000);
        assert_eq!(a.user_bytes_at_quarter[3], a.user_bytes);
        assert!(a.user_bytes_at_quarter.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stream_follows_the_mix_and_its_own_oracle() {
        let s = generate(5, 40_000, 128);
        let share = |kind: Kind| {
            s.ops.iter().filter(|o| o.kind == kind).count() as f64 / s.ops.len() as f64
        };
        assert!((share(Kind::PutNew) - 0.70).abs() < 0.02);
        assert!((share(Kind::Overwrite) - 0.10).abs() < 0.01);
        assert!((share(Kind::Delete) - 0.05).abs() < 0.01);
        assert!((share(Kind::GetKnown) - 0.09).abs() < 0.01);
        assert!((share(Kind::GetBatch) - 0.005).abs() < 0.002);
        // Replaying the writes reproduces the recorded expectations.
        let mut state: Vec<Option<u64>> = Vec::new();
        for (i, op) in s.ops.iter().enumerate() {
            match op.kind {
                Kind::PutNew => state.push(Some(i as u64)),
                Kind::Overwrite => state[op.index as usize] = Some(i as u64),
                Kind::Delete => {
                    assert!(
                        state[op.index as usize].is_some(),
                        "deletes target live keys"
                    );
                    assert!(
                        op.index + 128 <= state.len() as u64,
                        "and only flushed ones"
                    );
                    state[op.index as usize] = None;
                }
                Kind::GetKnown => assert_eq!(op.expect, state[op.index as usize]),
                _ => {}
            }
        }
        assert_eq!(state, s.final_state);
        assert!(s.batches.iter().all(|b| b.len() == BATCH));
    }
}
