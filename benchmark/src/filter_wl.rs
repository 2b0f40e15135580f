//! `filter_small` / `filter_large`: one standalone bloomRF filter, probed and
//! written in class-pure groups of 256 calls (one sample = group ns / 256).
//!
//! The two workloads differ only in the key count, i.e. in whether the filter
//! fits the private L2 (400 KB) or exceeds it eight times over (32 MB), so a
//! change that helps one cache regime and costs the other shows.

use crate::api::Filter;
use crate::keys::{mix64, KeySpace, Rng, StreamHash};
use crate::layers;
use crate::metrics::Report;
use crate::stats::{RoundCosts, RoundStat};
use crate::trace::{Clock, Tracer, ROOT, SPAN_CAP};
use crate::Ctx;
use std::hint::black_box;

/// Calls per timed group.
const GROUP: usize = 256;
/// Keys per `contains_point_batch` call of the end-to-end batch class.
const BATCH: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    // End-to-end classes (every run).
    PointHit,
    PointMiss,
    RangeEmpty,
    RangeNonEmpty,
    RangeNearMiss,
    BatchPoint,
    Write,
    // Per-layer classes (traced rounds only).
    RangeW4,
    RangeW10,
    RangeW16,
    BatchHit,
    BatchMiss,
    Batch16,
    Batch256,
    BatchRange,
    InsertBatch,
}
use Class::*;

const CLASSES: [Class; 16] = [
    PointHit,
    PointMiss,
    RangeEmpty,
    RangeNonEmpty,
    RangeNearMiss,
    BatchPoint,
    Write,
    RangeW4,
    RangeW10,
    RangeW16,
    BatchHit,
    BatchMiss,
    Batch16,
    Batch256,
    BatchRange,
    InsertBatch,
];

impl Class {
    fn end_to_end(self) -> bool {
        (self as usize) <= (Write as usize)
    }

    fn name(self) -> &'static str {
        match self {
            PointHit => "core.contains_point.hit",
            PointMiss => "core.contains_point.miss",
            RangeEmpty => "core.contains_range.empty",
            RangeNonEmpty => "core.contains_range.nonempty",
            RangeNearMiss => "core.contains_range.nearmiss",
            BatchPoint => "core.contains_point_batch.b64",
            Write => "core.insert",
            RangeW4 => "core.contains_range.empty_w4",
            RangeW10 => "core.contains_range.empty_w10",
            RangeW16 => "core.contains_range.empty_w16",
            BatchHit => "core.contains_point_batch.hit",
            BatchMiss => "core.contains_point_batch.miss",
            Batch16 => "core.contains_point_batch.b16",
            Batch256 => "core.contains_point_batch.b256",
            BatchRange => "core.contains_range_batch.b64",
            InsertBatch => "core.insert_batch",
        }
    }

    /// Groups per round. Point hits get 1024 so a round holds enough samples
    /// for a p99 with ten beyond it; writes cover `write_keys`.
    fn groups(self, base: usize, write_keys: usize) -> usize {
        match self {
            PointHit => 8 * base,
            PointMiss | RangeEmpty => 4 * base,
            RangeNonEmpty | RangeNearMiss | BatchPoint => 2 * base,
            Write => write_keys.div_ceil(GROUP),
            _ => base,
        }
    }

    /// Width exponent of the `j`-th range of a group, for the empty-range
    /// classes; the end-to-end class mixes the three widths within a group.
    fn width_bits(self, j: usize) -> u32 {
        match self {
            RangeW4 => 4,
            RangeW16 => 16,
            RangeEmpty => [4, 10, 16][j % 3],
            _ => 10,
        }
    }
}

/// One scheduled group; `answers` is the bitmap of its first (oracle-checked)
/// execution, which every later execution must reproduce.
struct Slot {
    class: Class,
    group: u32,
    answers: Option<[u64; GROUP / 64]>,
}

struct Buffers {
    a: [u64; GROUP],
    b: [u64; GROUP],
    pairs: Vec<(u64, u64)>,
    out: [bool; GROUP],
}

fn fill(class: Class, group: u32, space: &KeySpace, qseed: u64, buf: &mut Buffers) {
    // Write classes give no answers; never let a previous group's show through.
    buf.out.fill(false);
    for j in 0..GROUP {
        let h = mix64(
            qseed ^ (class as u64) << 56,
            u64::from(group) * GROUP as u64 + j as u64,
        );
        let present = space.key(h % space.n);
        let absent = space.absent(h >> 24);
        let (a, b) = match class {
            PointHit | BatchHit => (present, 0),
            PointMiss | BatchMiss => (absent, 0),
            BatchPoint | Batch16 | Batch256 => (if h >> 63 == 1 { present } else { absent }, 0),
            RangeEmpty | RangeW4 | RangeW10 | RangeW16 | BatchRange => (
                absent,
                absent.saturating_add((1u64 << class.width_bits(j)) - 1),
            ),
            RangeNonEmpty => {
                let lo = present.saturating_sub((h >> 40) % 1024);
                (lo, lo.saturating_add(1023))
            }
            RangeNearMiss => (present.saturating_add(1), present.saturating_add(1024)),
            Write | InsertBatch => (
                space.key((u64::from(group) * GROUP as u64 + j as u64) % space.n),
                0,
            ),
        };
        buf.a[j] = a;
        buf.b[j] = b;
    }
    if class == BatchRange {
        buf.pairs.clear();
        buf.pairs
            .extend(buf.a.iter().copied().zip(buf.b.iter().copied()));
    }
}

/// The timed span of one group: 256 calls of one class, nothing else.
#[inline(never)]
fn timed(
    class: Class,
    filter: &Filter,
    twin: &Filter,
    buf: &mut Buffers,
    clock: &Clock,
) -> (u64, u64) {
    let (a, b, out) = (black_box(&buf.a), black_box(&buf.b), &mut buf.out);
    let batched = |chunk: usize, out: &mut [bool; GROUP]| {
        for (keys, slot) in a.chunks(chunk).zip(out.chunks_mut(chunk)) {
            slot.copy_from_slice(&filter.contains_point_batch(keys));
        }
    };
    let t0 = clock.now_ns();
    match class {
        PointHit | PointMiss => {
            for j in 0..GROUP {
                out[j] = filter.contains_point(a[j]);
            }
        }
        RangeEmpty | RangeNonEmpty | RangeNearMiss | RangeW4 | RangeW10 | RangeW16 => {
            for j in 0..GROUP {
                out[j] = filter.contains_range(a[j], b[j]);
            }
        }
        BatchPoint | BatchHit | BatchMiss => batched(BATCH, out),
        Batch16 => batched(16, out),
        Batch256 => batched(256, out),
        BatchRange => {
            for (ranges, slot) in buf.pairs.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
                slot.copy_from_slice(&layers::contains_range_batch(filter, ranges));
            }
        }
        Write => {
            for &key in a.iter() {
                twin.insert(key);
            }
        }
        InsertBatch => layers::insert_batch(twin, a),
    }
    let t1 = clock.now_ns();
    black_box(&buf.out);
    (t0, t1)
}

/// Negative queries and false positives seen by one class.
#[derive(Clone, Copy, Default)]
struct Negatives {
    queries: u64,
    false_positives: u64,
}

impl Negatives {
    fn rate(self) -> f64 {
        self.false_positives as f64 / self.queries.max(1) as f64
    }
}

/// Check a group's first execution against the oracle; returns failed ops.
fn verify(
    class: Class,
    space: &KeySpace,
    filter: &Filter,
    buf: &Buffers,
    neg: &mut Negatives,
) -> u64 {
    let mut failed = 0;
    for j in 0..GROUP {
        let (a, b, answer) = (buf.a[j], buf.b[j], buf.out[j]);
        match class {
            PointHit | RangeNonEmpty | BatchHit => failed += u64::from(!answer),
            PointMiss | BatchMiss => {
                neg.queries += 1;
                neg.false_positives += u64::from(answer);
                // A batch must answer exactly like the single-key call.
                failed += u64::from(class == BatchMiss && answer != filter.contains_point(a));
            }
            RangeEmpty | RangeNearMiss | RangeW4 | RangeW10 | RangeW16 | BatchRange => {
                // Only an oracle-verified empty range counts as negative; a
                // "no" needs no check (it is what an empty range should get).
                if answer && space.range_non_empty(a, b) {
                    continue;
                }
                neg.queries += 1;
                neg.false_positives += u64::from(answer);
                failed += u64::from(class == BatchRange && answer != filter.contains_range(a, b));
            }
            BatchPoint | Batch16 | Batch256 => {
                failed +=
                    u64::from((space.contains(a) && !answer) || answer != filter.contains_point(a));
            }
            Write | InsertBatch => {}
        }
    }
    failed
}

fn bitmap(out: &[bool; GROUP]) -> [u64; GROUP / 64] {
    let mut words = [0u64; GROUP / 64];
    for (j, &bit) in out.iter().enumerate() {
        words[j / 64] |= u64::from(bit) << (j % 64);
    }
    words
}

fn schedule(
    classes: impl Iterator<Item = Class>,
    ctx: &Ctx,
    write_keys: usize,
    salt: u64,
) -> Vec<Slot> {
    let mut slots: Vec<Slot> = classes
        .flat_map(|class| {
            (0..class.groups(ctx.sizes.filter_groups, write_keys) as u32).map(move |group| Slot {
                class,
                group,
                answers: None,
            })
        })
        .collect();
    // Classes are interleaved in seeded shuffled order.
    Rng::new(ctx.seed, salt).shuffle(&mut slots);
    slots
}

pub fn run(name: &'static str, keys: usize, ctx: &Ctx) -> Report {
    let clock = Clock::start();
    let mut report = Report::new(name, ctx.seed, ctx.trace);
    let space = KeySpace {
        seed: ctx.seed,
        n: keys as u64,
    };
    let write_keys = ctx.sizes.filter_write_keys.min(keys);

    // Set-up, several times; the last build is the one measured.
    let mut inserted = 0u64;
    let ((filter, twin), setup_s) = crate::repeat_setup(ctx, &clock, |_| {
        let filter = Filter::build(keys);
        for i in 0..space.n {
            filter.insert(space.key(i));
        }
        inserted += space.n;
        (filter, Filter::build(keys))
    });
    report.set("setup_s", setup_s);
    report.attempted += inserted;

    let qseed = mix64(ctx.seed, 0x51_7E57);
    let mut e2e_slots = schedule(
        CLASSES.into_iter().filter(|c| c.end_to_end()),
        ctx,
        write_keys,
        1,
    );
    let mut layer_slots = if ctx.trace {
        schedule(
            CLASSES.into_iter().filter(|c| !c.end_to_end()),
            ctx,
            write_keys,
            2,
        )
    } else {
        Vec::new()
    };

    let mut buf = Buffers {
        a: [0; GROUP],
        b: [0; GROUP],
        pairs: Vec::with_capacity(GROUP),
        out: [false; GROUP],
    };
    let mut untraced: Vec<RoundStat> = CLASSES.iter().map(|_| RoundStat::default()).collect();
    let mut traced: Vec<RoundStat> = CLASSES.iter().map(|_| RoundStat::default()).collect();
    let mut negatives = [Negatives::default(); CLASSES.len()];
    let mut round_costs = RoundCosts::default();
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut hash = StreamHash::default();

    let measure_start = clock.seconds();
    let mut round = 0usize;
    loop {
        // Round 0 is the warm-up: it checks every answer against the oracle
        // and is discarded. Traced runs then alternate traced and untraced
        // rounds, so both see the same machine state.
        let is_traced = ctx.trace && round % 2 == 1;
        let keep = round > 0;
        let stats = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let mark = tracer.spans.len();
        let (mut ops, mut span_ns) = (0u64, 0u64);
        let slots = e2e_slots
            .iter_mut()
            .chain(layer_slots.iter_mut().filter(|_| is_traced));
        for (i, slot) in slots.enumerate() {
            fill(slot.class, slot.group, &space, qseed, &mut buf);
            let (t0, t1) = timed(slot.class, &filter, &twin, &mut buf, &clock);
            stats[slot.class as usize].push((t1 - t0) as f64 / GROUP as f64);
            report.attempted += GROUP as u64;
            if slot.class.end_to_end() {
                ops += GROUP as u64;
                span_ns += t1 - t0;
            }
            if is_traced {
                tracer.record(
                    slot.class.name(),
                    t0,
                    t1,
                    ROOT,
                    (round as u64) << 32 | i as u64,
                );
            }
            let answers = bitmap(&buf.out);
            match slot.answers {
                None => {
                    if round == 0 {
                        hash.add(slot.class as u64 ^ u64::from(slot.group) << 8);
                        buf.a.iter().chain(buf.b.iter()).for_each(|&w| hash.add(w));
                    }
                    report.failed += verify(
                        slot.class,
                        &space,
                        &filter,
                        &buf,
                        &mut negatives[slot.class as usize],
                    );
                    slot.answers = Some(answers);
                }
                Some(first) => {
                    let differing: u32 = first
                        .iter()
                        .zip(&answers)
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum();
                    report.failed += u64::from(differing);
                }
            }
        }
        for stat in stats.iter_mut() {
            stat.end_round(keep);
        }
        if keep {
            round_costs.push(is_traced, ops, span_ns);
        }
        tracer.trim_to_cap(mark);
        round += 1;
        if round >= crate::MIN_ROUNDS && clock.seconds() - measure_start >= ctx.seconds {
            break;
        }
    }

    // Every key written to the twin must be found there.
    for i in 0..write_keys as u64 {
        report.failed += u64::from(!twin.contains_point(space.key(i)));
    }
    report.attempted += write_keys as u64;
    report.stream_hash = hash.0;

    let p50 = |stats: &[RoundStat], class: Class| stats[class as usize].p50();
    // Absent points and far empty ranges; near-miss ranges answer "maybe"
    // almost always (their own per-layer ratio), which would drown the rest.
    let combined = [PointMiss, RangeEmpty]
        .iter()
        .fold(Negatives::default(), |acc, &c| Negatives {
            queries: acc.queries + negatives[c as usize].queries,
            false_positives: acc.false_positives + negatives[c as usize].false_positives,
        });
    let bits_per_key = filter.memory_bits() as f64 / keys as f64;

    report.set("ops_per_s", round_costs.ops_per_s());
    report.set_opt("point_p50_ns", p50(&untraced, PointHit));
    report.set_opt("point_p99_ns", untraced[PointHit as usize].p99());
    report.set_opt("miss_p50_ns", p50(&untraced, PointMiss));
    report.set_opt("range_p50_ns", p50(&untraced, RangeEmpty));
    report.set_opt("batch_point_p50_ns", p50(&untraced, BatchPoint));
    report.set_opt("write_p50_ns", p50(&untraced, Write));
    report.set("fpr", combined.rate());
    report.set("bits_per_key", bits_per_key);
    report.note("rounds_kept", untraced[PointHit as usize].rounds());
    report.note("point_samples", untraced[PointHit as usize].samples);
    report.note("negative_queries", combined.queries);
    report.note("filter_bytes", filter.memory_bits() / 8);

    if ctx.trace {
        for (metric, class) in [
            ("core.point_hit_ns", PointHit),
            ("core.point_miss_ns", PointMiss),
            ("core.range_empty_w4_ns", RangeW4),
            ("core.range_empty_w10_ns", RangeW10),
            ("core.range_empty_w16_ns", RangeW16),
            ("core.range_nonempty_ns", RangeNonEmpty),
            ("core.range_nearmiss_ns", RangeNearMiss),
            ("core.batch_point_hit_ns", BatchHit),
            ("core.batch_point_miss_ns", BatchMiss),
            ("core.batch_point_b16_ns", Batch16),
            ("core.batch_point_b256_ns", Batch256),
            ("core.batch_range_ns", BatchRange),
            ("core.insert_ns", Write),
            ("core.insert_batch_ns", InsertBatch),
        ] {
            report.set_layer_opt(metric, p50(&traced, class));
        }
        report.set_layer_opt("core.point_hit_p99_ns", traced[PointHit as usize].p99());
        report.set_layer("core.fpr", combined.rate());
        report.set_layer("core.fpr_point", negatives[PointMiss as usize].rate());
        report.set_layer("core.fpr_range_w4", negatives[RangeW4 as usize].rate());
        report.set_layer("core.fpr_range_w10", negatives[RangeW10 as usize].rate());
        report.set_layer("core.fpr_range_w16", negatives[RangeW16 as usize].rate());
        report.set_layer(
            "core.fpr_range_nearmiss",
            negatives[RangeNearMiss as usize].rate(),
        );
        report.set_layer("core.bits_per_key", bits_per_key);
        layers::filter_census(&filter, &space, qseed, &clock, &mut report);
        report.set_layer("bench.trace_overhead_frac", round_costs.trace_overhead());
        layers::finish_trace(&mut report, &tracer, &clock, ctx);
    }
    report
}
