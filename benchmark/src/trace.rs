//! In-memory spans, written out when the benchmark ends.
//!
//! The spans are recorded from the benchmark's own files, around the calls
//! into each layer. A store operation's children are the *replay* of its
//! path on shadow structures (memtable → tree → SST), taken right after the
//! real call, so they do not nest in time: a span's self time is its
//! duration minus the summed durations of the spans naming it as parent.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Raw spans a run keeps (and writes out); later rounds are still folded
/// into the statistics, their spans counted as dropped.
pub const SPAN_CAP: usize = 1 << 20;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Operation identifier shared by every span of one request.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Monotonic clock relative to process-local epoch, in ns.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Span sink. Raw spans beyond [`Tracer::cap`] are counted, not kept, so a
/// long run cannot exhaust memory; metrics are folded per round before that.
pub struct Tracer {
    pub spans: Vec<Span>,
    pub dropped: u64,
    cap: usize,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Self {
            spans: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Record a span; returns its index for children to name as parent.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Drop the raw spans recorded since `mark` if the cap is exceeded
    /// (called after a round's spans were folded into metrics).
    pub fn trim_to_cap(&mut self, mark: usize) {
        if self.spans.len() > self.cap {
            self.dropped += (self.spans.len() - mark) as u64;
            self.spans.truncate(mark);
        }
    }

    /// Write `name,start_ns,end_ns,parent,op` lines.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# spans kept {} dropped {}",
            self.spans.len(),
            self.dropped
        )?;
        writeln!(out, "name,start_ns,end_ns,parent,op")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in `spans[base..]`: duration minus the summed
/// durations of its children (signed: a replay that runs slower than the
/// real call shows as negative self time instead of being clipped away).
/// Parent indices are absolute; parents before `base` are ignored.
pub fn self_times(spans: &[Span], base: usize) -> Vec<i64> {
    let mut own: Vec<i64> = spans[base..]
        .iter()
        .map(|s| s.duration_ns() as i64)
        .collect();
    for span in &spans[base..] {
        if span.parent != ROOT && span.parent as usize >= base {
            own[span.parent as usize - base] -= span.duration_ns() as i64;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let mut t = Tracer::new(100);
        let get = t.record("db.get", 0, 1000, ROOT, 1);
        t.record("tree.candidates", 1000, 1300, get, 1);
        t.record("sst.get", 1300, 1900, get, 1);
        let other = t.record("db.get", 2000, 2100, ROOT, 2);
        t.record("tree.candidates", 2100, 2350, other, 2);
        assert_eq!(self_times(&t.spans, 0), vec![100, 300, 600, -150, 250]);
        // A window starting at the second op ignores the first op's spans.
        assert_eq!(self_times(&t.spans, 3), vec![-150, 250]);
    }

    #[test]
    fn cap_drops_whole_rounds_and_counts_them() {
        let mut t = Tracer::new(3);
        t.record("a", 0, 1, ROOT, 0);
        t.record("a", 1, 2, ROOT, 1);
        t.trim_to_cap(0);
        assert_eq!((t.spans.len(), t.dropped), (2, 0));
        let mark = t.spans.len();
        t.record("a", 2, 3, ROOT, 2);
        t.record("a", 3, 4, ROOT, 3);
        t.trim_to_cap(mark);
        assert_eq!((t.spans.len(), t.dropped), (2, 2));
    }
}
