//! Bloofi-style filter tree over the live SST set.
//!
//! With compaction disabled (the paper's RocksDB setup), every point or
//! range read must consult *every* level-0 SST's filter block: lookup cost
//! grows linearly with the number of tables even when almost all of them are
//! irrelevant. Bloofi (Crainiceanu & Lemire, *Bloofi: Multidimensional Bloom
//! filters*, Inf. Syst. 2015) fixes the analogous problem for distributed
//! Bloom filters by arranging them as a fan-out-`F` tree whose inner nodes
//! are the *union* of their children — one negative probe prunes an entire
//! subtree.
//!
//! [`FilterTree`] is that structure over bloomRF filters, so pruning works
//! for **range predicates too**: descent probes each node with
//! [`BloomRf::contains_range_batch_into`], which reuses the paper's two-path
//! dyadic decomposition, once per node with every range that reached it.
//!
//! The descent is **level-synchronous**. It keeps a frontier of
//! `(node, query)` pairs and walks it one level at a time, root first. Every
//! node of a level shares one configuration (`configs[h]`), which is the
//! property Bloofi's flat variant rests on, so a point query's PMHF probe
//! positions are computed at most once per level
//! ([`BloomRf::point_probe_into`], then the first
//! [`BloomRf::prefetch_probe`]). A level is tested in two stages, each
//! requesting the cache lines of every sibling before testing any, so the
//! misses of one level overlap instead of queueing one after another: the
//! exact-layer bit of every sibling that passed its fence
//! ([`BloomRf::prefetch_exact`], [`BloomRf::exact_admits`]), then every
//! position of the survivors ([`BloomRf::prefetch_probe`],
//! [`BloomRf::contains_probe`]).
//!
//! Three deliberate deviations from textbook Bloofi, all documented in
//! `docs/filter-tree.md`:
//!
//! * **Level-scaled capacity.** A node at height `h` covers up to `F^h`
//!   SSTs, so its filter is provisioned for `leaf_keys · F^h` keys (uniform
//!   per-level *memory*, bounded per-level FPR). Same-size nodes — Bloofi's
//!   choice — saturate a few levels up and stop pruning. The price is that
//!   parent and child configurations differ, so ancestors absorb the *keys*
//!   of a new leaf rather than bit-unioning its filter.
//! * **Level tuning.** Height `h` is configured by the recipe that builds
//!   the tables: for `FilterKind::BloomRf { max_range }` tables, the paper's
//!   advisor at that `max_range` for `leaf_keys · F^h` keys (basic when it
//!   cannot tune); for every other kind, the basic configuration. The first
//!   table the tree indexes fixes the kind, and each height's configuration
//!   is resolved once and cached, so no descent or node creation runs the
//!   advisor. A node then prunes a range about as well as a table filter
//!   does.
//! * **Leaves are the tables' filters.** A leaf holds its table's own
//!   filter, shared (an [`Arc`]), never a copy: the descent's leaf stage
//!   *is* the table-filter test, so a routed read tests each table's filter
//!   once and goes from a candidate straight to its fences and blocks. A
//!   table built by the tree's recipe for `leaf_keys` keys has exactly the
//!   leaf configuration `configs[0]`, so its leaf is tested with the probe
//!   the leaf level shares; any other table (a compaction output of another
//!   size, a table of another kind) is tested through its own
//!   [`PointRangeFilter`] methods. Which case a leaf is gets decided once,
//!   when it is pushed.
//!
//! Each node also keeps its subtree's min/max key as a fence, pruning
//! out-of-range queries before any hash is computed (free ZoneMap-style
//! rejection).
//!
//! Maintenance mirrors Bloofi: a flush appends a leaf and folds its keys
//! into the ancestors on the root path ([`FilterTree::push_leaf`]).
//! Compaction — which replaces a contiguous window of tables with one merged
//! table, shifting every later slot — is the only way a table leaves the
//! set, and because Bloom bits cannot be deleted it rebuilds the inner
//! levels around the spliced leaf row ([`FilterTree::retire_and_splice`]).
//! The tree is derived state and is never persisted: opening a store builds
//! it from the recovered tables ([`FilterTree::build_from_ssts`]).

use std::sync::Arc;

use bloomrf::traits::PointRangeFilter;
use bloomrf::{BloomRf, BloomRfConfig, PointProbe};
use bloomrf_filters::FilterKind;

use crate::persist;
use crate::sst::{SsTable, TableFilter};
use crate::stats::{Clock, ReadStats, SampledClock};

/// One entry of the descent frontier: (node index within the level being
/// visited, query index within the caller's batch).
type Pair = (usize, usize);

/// A point query's probe positions at the level being descended, and the
/// height they were computed for.
#[derive(Clone, Default)]
struct Lane {
    probe: PointProbe,
    height: Option<usize>,
}

/// The frontier cut into runs of pairs that share a node.
fn node_runs(frontier: &[Pair]) -> impl Iterator<Item = &[Pair]> {
    let mut rest = frontier;
    std::iter::from_fn(move || {
        let node = rest.first()?.0;
        let (run, tail) = rest.split_at(rest.iter().take_while(|p| p.0 == node).count());
        rest = tail;
        Some(run)
    })
}

/// Magic number of [`FilterTree::to_bytes`].
const TREE_MAGIC: &[u8; 4] = b"BTRE";
/// Version of [`FilterTree::to_bytes`].
const TREE_FORMAT_VERSION: u32 = 1;
/// Section tag: tree geometry and options.
const SECTION_META: u32 = 1;
/// Section tag: serialized node payloads, leaves first.
const SECTION_NODES: u32 = 2;

/// Tuning knobs for the [`FilterTree`], carried by
/// [`crate::db::ReadRouting::FilterTree`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeOptions {
    /// Fan-out `F`: children per inner node (min 2).
    pub fanout: usize,
    /// Key capacity a leaf filter is provisioned for; `None` derives it from
    /// [`crate::db::DbOptions::memtable_flush_entries`].
    pub leaf_keys: Option<usize>,
    /// Space budget per key for every tree node; `None` derives it from
    /// [`crate::db::DbOptions::bits_per_key`].
    pub bits_per_key: Option<f64>,
}

impl Default for TreeOptions {
    fn default() -> Self {
        Self {
            fanout: 16,
            leaf_keys: None,
            bits_per_key: None,
        }
    }
}

/// One inner node: a bloomRF filter over every key in the node's leaf span,
/// plus the span's min/max key fence.
struct TreeNode {
    filter: BloomRf,
    /// Smallest key in the span (`u64::MAX` while empty, so fences fail).
    lo: u64,
    /// Largest key in the span (`0` while empty).
    hi: u64,
}

impl TreeNode {
    /// Fold a sorted key run into the node (filter bits + fences).
    fn absorb(&mut self, sorted_keys: &[u64]) {
        let (Some(&first), Some(&last)) = (sorted_keys.first(), sorted_keys.last()) else {
            return;
        };
        self.filter.insert_batch(sorted_keys);
        self.lo = self.lo.min(first);
        self.hi = self.hi.max(last);
    }
}

/// How the descent tests a leaf, decided when the leaf is pushed.
enum LeafFilter {
    /// A bloomRF table filter of exactly the leaf configuration: tested
    /// with the probe the leaf level shares, like an inner node.
    Level(Arc<BloomRf>),
    /// Any other table filter: tested through its own methods.
    Own(Arc<dyn PointRangeFilter>),
}

/// One leaf: its table's own filter and key range.
struct Leaf {
    filter: LeafFilter,
    lo: u64,
    hi: u64,
}

/// A node's filter as the descent tests it.
#[derive(Clone, Copy)]
enum Probe<'a> {
    /// A filter of the level's configuration: the level's shared probe
    /// applies.
    Level(&'a BloomRf),
    /// A filter of its own configuration or family.
    Own(&'a dyn PointRangeFilter),
}

/// The nodes of the level being descended.
#[derive(Clone, Copy)]
enum Nodes<'a> {
    Leaves(&'a [Leaf]),
    Inner(&'a [TreeNode]),
}

impl<'a> Nodes<'a> {
    /// Number of nodes.
    fn len(self) -> usize {
        match self {
            Nodes::Leaves(leaves) => leaves.len(),
            Nodes::Inner(nodes) => nodes.len(),
        }
    }

    /// Node `n`'s key fence.
    fn fence(self, n: usize) -> (u64, u64) {
        match self {
            Nodes::Leaves(leaves) => (leaves[n].lo, leaves[n].hi),
            Nodes::Inner(nodes) => (nodes[n].lo, nodes[n].hi),
        }
    }

    /// Node `n`'s filter.
    fn probe(self, n: usize) -> Probe<'a> {
        match self {
            Nodes::Inner(nodes) => Probe::Level(&nodes[n].filter),
            Nodes::Leaves(leaves) => match &leaves[n].filter {
                LeafFilter::Level(filter) => Probe::Level(filter),
                LeafFilter::Own(filter) => Probe::Own(filter.as_ref()),
            },
        }
    }
}

/// Number of levels (leaves included) a tree over `n` leaves needs so that
/// the top level is a single root: smallest `H` with `F^(H-1) >= n`.
fn required_levels(n: usize, fanout: usize) -> usize {
    let mut levels = 1;
    let mut span = 1usize;
    while span < n {
        span = span.saturating_mul(fanout);
        levels += 1;
    }
    levels
}

/// A fan-out-`F` tree of bloomRF filters over the live SST set; leaf `i`
/// is SST `i`'s own filter, in age order. See the module docs for the
/// design.
pub struct FilterTree {
    fanout: usize,
    leaf_keys: usize,
    bits_per_key: f64,
    /// The filter family of the first table the tree indexed, kept for the
    /// tree's life: it picks the recipe of every level's configuration.
    kind: Option<FilterKind>,
    /// `configs[h]` is the configuration shared by every node at height
    /// `h` — at height 0, by every leaf tested with the level's probe —
    /// resolved once ([`FilterTree::resolve_levels`]).
    configs: Vec<BloomRfConfig>,
    /// One leaf per table, in age order.
    leaves: Vec<Leaf>,
    /// `inner[h - 1]` holds the nodes at height `h ≥ 1`; `inner[h - 1][i]`
    /// covers leaves `[i·F^h, (i+1)·F^h)`. The top level is always a single
    /// root.
    inner: Vec<Vec<TreeNode>>,
}

impl FilterTree {
    /// Create an empty tree. `fanout` is clamped to at least 2, `leaf_keys`
    /// to at least 1 and `bits_per_key` to at least 1.0.
    pub fn new(fanout: usize, leaf_keys: usize, bits_per_key: f64) -> Self {
        Self {
            fanout: fanout.max(2),
            leaf_keys: leaf_keys.max(1),
            bits_per_key: bits_per_key.max(1.0),
            kind: None,
            configs: Vec::new(),
            leaves: Vec::new(),
            inner: Vec::new(),
        }
    }

    /// Keys a node at height `h` is provisioned for: `leaf_keys · F^h`.
    fn capacity(&self, height: usize) -> usize {
        self.leaf_keys
            .saturating_mul(self.fanout.saturating_pow(height as u32))
    }

    /// Cache the configuration of every height below `levels`, taking the
    /// recipe from `sst` if the tree has not indexed a table yet. A
    /// `FilterKind::BloomRf { max_range }` tree resolves height `h` exactly
    /// as that kind builds a table of [`Self::capacity`] keys — the advisor
    /// at `max_range`, else basic — so a flushed table's filter has the
    /// leaf configuration. Every other kind gets the basic configuration.
    fn resolve_levels(&mut self, levels: usize, sst: &SsTable) {
        let kind = *self.kind.get_or_insert(sst.filter_kind());
        let recipe = kind.bloomrf_builder().unwrap_or_default();
        while self.configs.len() < levels {
            let config = recipe.config_for(self.capacity(self.configs.len()), self.bits_per_key);
            self.configs.push(config);
        }
    }

    /// An empty node for height `h`, whose configuration is resolved.
    fn empty_node(&self, height: usize) -> TreeNode {
        match BloomRf::builder()
            .config(self.configs[height].clone())
            .build()
        {
            Ok(filter) => TreeNode {
                filter,
                lo: u64::MAX,
                hi: 0,
            },
            // `BloomRfBuilder::config_for` validates every configuration it
            // returns.
            Err(e) => unreachable!("filter tree level {height} config rejected: {e}"),
        }
    }

    /// The leaf for one SST: its own filter, shared, tested with the leaf
    /// level's probe when its configuration is the leaf configuration.
    fn make_leaf(&self, sst: &SsTable) -> Leaf {
        let filter = match sst.shared_filter() {
            TableFilter::BloomRf(filter) if *filter.config() == self.configs[0] => {
                LeafFilter::Level(Arc::clone(filter))
            }
            TableFilter::BloomRf(filter) => LeafFilter::Own(Arc::clone(filter) as _),
            TableFilter::Other(filter) => LeafFilter::Own(Arc::clone(filter)),
        };
        let (lo, hi) = sst.key_range();
        Leaf { filter, lo, hi }
    }

    /// Number of leaves, one per SST.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of levels, leaves included (0 while empty).
    pub fn depth(&self) -> usize {
        if self.leaves.is_empty() {
            0
        } else {
            1 + self.inner.len()
        }
    }

    /// Total node count across all levels, leaves included.
    pub fn num_nodes(&self) -> usize {
        self.leaves.len() + self.inner.iter().map(Vec::len).sum::<usize>()
    }

    /// Filter payload the tree owns, in bits: its inner nodes. The leaves
    /// are the tables' own filters, counted by the tables.
    pub fn memory_bits(&self) -> usize {
        self.inner
            .iter()
            .flatten()
            .map(|n| n.filter.memory_bits())
            .sum()
    }

    /// The configured fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The nodes at `height`.
    fn nodes(&self, height: usize) -> Nodes<'_> {
        match height {
            0 => Nodes::Leaves(&self.leaves),
            h => Nodes::Inner(&self.inner[h - 1]),
        }
    }

    /// Append the leaf for the newest SST (`ssts.last()`) and fold its keys
    /// into every ancestor on the root path (Bloofi's insert). `ssts` must
    /// be the full live table set in age order — the earlier tables are only
    /// consulted when the tree grows a new root level, whose node spans
    /// leaves that predate it. An empty `ssts` has no newest SST: no-op.
    pub fn push_leaf(&mut self, ssts: &[SsTable]) {
        let Some((sst, older)) = ssts.split_last() else {
            return;
        };
        let prior = older.len();
        assert_eq!(
            self.num_leaves(),
            prior,
            "filter tree out of sync with the SST set"
        );
        let levels = required_levels(prior + 1, self.fanout);
        self.resolve_levels(levels, sst);
        let leaf = self.make_leaf(sst);
        self.leaves.push(leaf);
        // Grow a new root when the leaf count exceeds the current top's
        // span. The fresh level is seeded from every leaf already present;
        // the new leaf itself is folded in by the ancestor pass.
        while self.depth() < levels {
            let mut node = self.empty_node(self.depth());
            for older in older {
                node.absorb(&older.keys());
            }
            self.inner.push(vec![node]);
        }
        let keys = sst.keys();
        for height in 1..self.depth() {
            let idx = prior / self.fanout.saturating_pow(height as u32);
            if idx == self.inner[height - 1].len() {
                let node = self.empty_node(height);
                self.inner[height - 1].push(node);
            }
            self.inner[height - 1][idx].absorb(&keys);
        }
        debug_assert_eq!(
            self.num_leaves(),
            ssts.len(),
            "push_leaf must leave exactly one leaf per SST"
        );
        self.debug_check_shape();
    }

    /// Structural invariants every tree mutation must restore: the level
    /// count matches the leaf count, and inner level `h` holds exactly
    /// `ceil(leaves / fanout^h)` nodes — one per (possibly partial) span.
    /// Debug builds only; a violation here means routing would descend into
    /// nodes that do not aggregate their children.
    fn debug_check_shape(&self) {
        debug_assert_eq!(
            self.inner.len() + 1,
            required_levels(self.num_leaves(), self.fanout),
            "level count out of step with the leaf count"
        );
        debug_assert!(
            (1..=self.inner.len()).all(|h| {
                self.inner[h - 1].len()
                    == self
                        .num_leaves()
                        .div_ceil(self.fanout.saturating_pow(h as u32))
            }),
            "inner level width must be ceil(leaves / fanout^height)"
        );
    }

    /// Compaction maintenance: replace the contiguous leaf window `window`
    /// with the leaf for `replacement` (or nothing, when the merge produced
    /// an empty table), keeping the tree aligned with an SST set that was
    /// spliced the same way. `ssts` is the **post-splice** table set in age
    /// order. Because Bloom bits cannot be deleted, every inner level is
    /// rebuilt from the surviving tables' keys — positions shift across a
    /// splice, so ancestor spans change wholesale. Leaves are the tables'
    /// filters, so none is rebuilt; counted as one rebuild event in
    /// `tree_rebuilds`.
    pub fn retire_and_splice(
        &mut self,
        window: std::ops::Range<usize>,
        replacement: Option<&SsTable>,
        ssts: &[SsTable],
        stats: &ReadStats,
    ) {
        assert!(
            window.start <= window.end && window.end <= self.num_leaves(),
            "retire_and_splice window out of bounds"
        );
        if let Some(sst) = ssts.first() {
            self.resolve_levels(required_levels(ssts.len(), self.fanout), sst);
        }
        let leaf = replacement.map(|sst| self.make_leaf(sst));
        self.leaves.splice(window, leaf);
        assert_eq!(
            self.leaves.len(),
            ssts.len(),
            "filter tree out of sync with the spliced SST set"
        );
        self.inner = (1..required_levels(ssts.len(), self.fanout))
            .map(|height| {
                let span = self.fanout.saturating_pow(height as u32);
                ssts.chunks(span)
                    .map(|spanned| {
                        let mut node = self.empty_node(height);
                        for sst in spanned {
                            node.absorb(&sst.keys());
                        }
                        node
                    })
                    .collect()
            })
            .collect();
        self.debug_check_shape();
        stats.record_tree_rebuild();
    }

    /// Build the tree over the live SST set, one [`FilterTree::push_leaf`]
    /// per table — how opening a durable store derives its router.
    pub fn build_from_ssts(
        fanout: usize,
        leaf_keys: usize,
        bits_per_key: f64,
        ssts: &[SsTable],
    ) -> Self {
        let mut tree = Self::new(fanout, leaf_keys, bits_per_key);
        for i in 0..ssts.len() {
            tree.push_leaf(&ssts[..=i]);
        }
        tree
    }

    /// Candidate SSTs for one point lookup, ascending by age: the tables
    /// whose own filter admits `key`. The result is a superset of the SSTs
    /// containing `key` (filters and fences never produce false negatives),
    /// so reading only the candidates is answer-preserving.
    pub fn candidates_point(&self, key: u64, stats: &ReadStats) -> Vec<usize> {
        self.candidates_points(&[key], stats)
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`FilterTree::candidates_point`]: element `i` answers
    /// `keys[i]`. Per level, each surviving key is hashed once; every
    /// `(node, key)` pair that passes its fence has its exact-layer bit
    /// prefetched before any is tested, and every pair that passes that has
    /// its remaining positions prefetched before any is tested. A leaf of
    /// its own configuration is tested in one call instead.
    pub fn candidates_points(&self, keys: &[u64], stats: &ReadStats) -> Vec<Vec<usize>> {
        // A lone key (every `Db::get`) keeps its probe on the stack.
        let mut one = [Lane::default()];
        let mut many = Vec::new();
        let lanes: &mut [Lane] = if keys.len() == 1 {
            &mut one
        } else {
            many.resize(keys.len(), Lane::default());
            &mut many
        };
        let fence = |(lo, hi): (u64, u64), q: usize| (lo..=hi).contains(&keys[q]);
        self.descend(keys.len(), stats, fence, |height, nodes, frontier| {
            // Every pair is tested.
            let tested = frontier.len();
            for &(n, q) in frontier.iter() {
                if let Probe::Level(filter) = nodes.probe(n) {
                    let lane = &mut lanes[q];
                    if lane.height != Some(height) {
                        filter.point_probe_into(keys[q], &mut lane.probe);
                        lane.height = Some(height);
                    }
                    filter.prefetch_exact(&lane.probe);
                }
            }
            // Tuned levels keep an exact layer: one cache line per pair
            // rejects most siblings that do not hold the key, before the
            // layer positions of the survivors are fetched.
            frontier.retain(|&(n, q)| match nodes.probe(n) {
                Probe::Level(filter) => filter.exact_admits(&lanes[q].probe),
                Probe::Own(filter) => filter.may_contain(keys[q]),
            });
            for &(n, q) in frontier.iter() {
                if let Probe::Level(filter) = nodes.probe(n) {
                    filter.prefetch_probe(&mut lanes[q].probe);
                }
            }
            frontier.retain(|&(n, q)| match nodes.probe(n) {
                Probe::Level(filter) => filter.contains_probe(&lanes[q].probe),
                Probe::Own(_) => true,
            });
            tested
        })
    }

    /// Candidate SSTs for one range-emptiness check over `[lo, hi]`,
    /// ascending by age. Reversed bounds descend everywhere (no pruning) so
    /// routed reads answer exactly like a scan over all tables.
    pub fn candidates_range(&self, lo: u64, hi: u64, stats: &ReadStats) -> Vec<usize> {
        self.candidates_ranges(&[(lo, hi)], stats)
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`FilterTree::candidates_range`]: element `i` answers
    /// `ranges[i]`. Each node is probed once, with every range that reached
    /// it, through [`BloomRf::contains_range_batch_into`] (a leaf of another
    /// family through its
    /// [`PointRangeFilter::may_contain_range_batch_into`]).
    pub fn candidates_ranges(&self, ranges: &[(u64, u64)], stats: &ReadStats) -> Vec<Vec<usize>> {
        // Reused across every node the descent visits.
        let mut probe: Vec<(u64, u64)> = Vec::new();
        let mut verdicts: Vec<bool> = Vec::new();
        let mut keep: Vec<bool> = Vec::new();
        let reversed = |q: usize| ranges[q].0 > ranges[q].1;
        // Reversed bounds never prune: mirror the scan-all path.
        let fence = |(lo, hi): (u64, u64), q: usize| {
            reversed(q) || (ranges[q].0 <= hi && ranges[q].1 >= lo)
        };
        self.descend(ranges.len(), stats, fence, |_, nodes, frontier| {
            keep.clear();
            let mut tested = 0;
            for run in node_runs(frontier) {
                probe.clear();
                probe.extend(run.iter().filter(|p| !reversed(p.1)).map(|p| ranges[p.1]));
                verdicts.clear();
                if !probe.is_empty() {
                    tested += probe.len();
                    match nodes.probe(run[0].0) {
                        Probe::Level(filter) => {
                            filter.contains_range_batch_into(&probe, &mut verdicts)
                        }
                        Probe::Own(filter) => {
                            filter.may_contain_range_batch_into(&probe, &mut verdicts)
                        }
                    }
                }
                let mut forward = verdicts.iter();
                keep.extend(
                    run.iter()
                        .map(|p| reversed(p.1) || forward.next() == Some(&true)),
                );
            }
            let mut keep = keep.iter();
            frontier.retain(|_| keep.next() == Some(&true));
            tested
        })
    }

    /// The one descent behind every candidates call, level-synchronous from
    /// the root down. The frontier holds the `(node, query)` pairs that
    /// reached the level, grouped by node in ascending order; the pairs
    /// whose node's key fence rejects the query are dropped, then
    /// `filter_pass` drops those whose node's filter rejects it and returns
    /// how many pairs it tested with a filter. Each surviving pair sends its
    /// query on to every child of its node; surviving leaves are the
    /// candidates, so each list comes out ascending.
    ///
    /// Records `tree_probes` per pair that reached a level, `ssts_pruned`
    /// per `(query, leaf)` pair not among the candidates, and — the leaves
    /// being the tables' filters — every leaf test as a filter probe.
    fn descend(
        &self,
        n_queries: usize,
        stats: &ReadStats,
        fence: impl Fn((u64, u64), usize) -> bool,
        mut filter_pass: impl FnMut(usize, Nodes<'_>, &mut Vec<Pair>) -> usize,
    ) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); n_queries];
        if self.num_leaves() == 0 || n_queries == 0 {
            return out;
        }
        // The top level is a single root by construction.
        let mut frontier: Vec<Pair> = (0..n_queries).map(|q| (0, q)).collect();
        let mut next: Vec<Pair> = Vec::new();
        let mut probes = 0u64;
        for height in (0..self.depth()).rev() {
            let nodes = self.nodes(height);
            probes += frontier.len() as u64;
            frontier.retain(|&(n, q)| fence(nodes.fence(n), q));
            if height == 0 {
                if !frontier.is_empty() {
                    // The leaves are the tables' filters.
                    let fenced = frontier.len();
                    let clock = SampledClock::start(Clock::FilterProbe);
                    let tested = filter_pass(0, nodes, &mut frontier);
                    let negatives = fenced - frontier.len();
                    stats.record_filter_probes(
                        (tested - negatives) as u64,
                        negatives as u64,
                        clock.estimate_ns(),
                    );
                }
                for &(leaf, q) in &frontier {
                    out[q].push(leaf);
                }
                break;
            }
            filter_pass(height, nodes, &mut frontier);
            if frontier.is_empty() {
                break;
            }
            next.clear();
            // Each surviving pair sends its query to at most `fanout`
            // children: one allocation per level at most.
            next.reserve(frontier.len() * self.fanout);
            let children = self.nodes(height - 1).len();
            for run in node_runs(&frontier) {
                let first = run[0].0 * self.fanout;
                for child in first..(first + self.fanout).min(children) {
                    next.extend(run.iter().map(|&(_, q)| (child, q)));
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        stats.record_tree_probes(probes);
        let pruned: u64 = out
            .iter()
            .map(|candidates| (self.num_leaves() - candidates.len()) as u64)
            .sum();
        stats.record_ssts_pruned(pruned);
        out
    }

    /// Encode the tree: magic + version, then
    /// `tag | length | body | crc32(body)` sections for the geometry and the
    /// node payloads. A leaf's payload is its fence and a `0` flag: its
    /// filter is its table's, which the tree does not own. Nothing reads
    /// these bytes back; the encoding stays only for the benchmark adapter,
    /// which reports their length as the tree's encoded size and times the
    /// call.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.fanout as u32).to_le_bytes());
        meta.extend_from_slice(&(self.leaf_keys as u64).to_le_bytes());
        meta.extend_from_slice(&self.bits_per_key.to_bits().to_le_bytes());
        meta.extend_from_slice(&(self.num_leaves() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.depth() as u32).to_le_bytes());
        for height in 0..self.depth() {
            meta.extend_from_slice(&(self.nodes(height).len() as u64).to_le_bytes());
        }

        let mut nodes = Vec::new();
        for leaf in &self.leaves {
            nodes.extend_from_slice(&leaf.lo.to_le_bytes());
            nodes.extend_from_slice(&leaf.hi.to_le_bytes());
            nodes.push(0);
        }
        for node in self.inner.iter().flatten() {
            nodes.extend_from_slice(&node.lo.to_le_bytes());
            nodes.extend_from_slice(&node.hi.to_le_bytes());
            nodes.push(1);
            let filter = node.filter.to_bytes();
            nodes.extend_from_slice(&(filter.len() as u64).to_le_bytes());
            nodes.extend_from_slice(&filter);
        }

        let mut out = Vec::new();
        out.extend_from_slice(TREE_MAGIC);
        out.extend_from_slice(&TREE_FORMAT_VERSION.to_le_bytes());
        persist::push_section(&mut out, SECTION_META, &meta);
        persist::push_section(&mut out, SECTION_NODES, &nodes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloomrf_filters::FilterKind;

    fn sst_of(keys: &[u64], kind: FilterKind) -> SsTable {
        let entries: Vec<(u64, crate::value::Value)> = keys
            .iter()
            .map(|&k| (k, crate::value::Value::Put(k.to_le_bytes().to_vec())))
            .collect();
        SsTable::build(&entries, 4, kind, 14.0)
    }

    /// 12 SSTs, fan-out 3: four disjoint key decades per "segment".
    fn build_fixture(kind: FilterKind) -> (Vec<SsTable>, FilterTree) {
        let ssts: Vec<SsTable> = (0..12u64)
            .map(|i| {
                let base = i * 1000;
                sst_of(&[base, base + 10, base + 20, base + 30], kind)
            })
            .collect();
        let tree = FilterTree::build_from_ssts(3, 4, 14.0, &ssts);
        (ssts, tree)
    }

    /// `tree` must route every probe exactly like a tree built afresh over
    /// `ssts` with the same knobs: each point in `0..=13_000` and each range
    /// of widths 0, 7 and 600 starting there, every 5th key.
    fn assert_routes_like_a_fresh_build(tree: &FilterTree, ssts: &[SsTable]) {
        let fresh =
            FilterTree::build_from_ssts(tree.fanout, tree.leaf_keys, tree.bits_per_key, ssts);
        assert_eq!(tree.num_leaves(), fresh.num_leaves());
        assert_eq!(tree.depth(), fresh.depth());
        let stats = ReadStats::new();
        for k in (0..=13_000u64).step_by(5) {
            assert_eq!(
                tree.candidates_point(k, &stats),
                fresh.candidates_point(k, &stats),
                "point {k}"
            );
            for w in [0, 7, 600] {
                assert_eq!(
                    tree.candidates_range(k, k + w, &stats),
                    fresh.candidates_range(k, k + w, &stats),
                    "range {k}..={}",
                    k + w
                );
            }
        }
    }

    #[test]
    fn geometry_tracks_leaf_count() {
        let stats = ReadStats::new();
        let mut ssts = Vec::new();
        let mut tree = FilterTree::new(3, 4, 14.0);
        for i in 0..30u64 {
            ssts.push(sst_of(&[i * 100, i * 100 + 1], FilterKind::BloomRfBasic));
            tree.push_leaf(&ssts);
            let n = ssts.len();
            assert_eq!(tree.num_leaves(), n);
            assert_eq!(tree.depth(), required_levels(n, 3));
            // Every present key routes to its SST at every size.
            for (j, sst) in ssts.iter().enumerate() {
                for &k in &sst.keys() {
                    assert!(
                        tree.candidates_point(k, &stats).contains(&j),
                        "key {k} lost at n={n}"
                    );
                }
            }
        }
        assert!(tree.memory_bits() > 0);
        assert_eq!(tree.num_nodes(), 30 + 10 + 4 + 2 + 1);
    }

    #[test]
    fn point_descent_finds_owners_and_prunes_strangers() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // Present keys route to exactly their owner (disjoint decades, and
        // fences alone separate them).
        for i in 0..12u64 {
            let c = tree.candidates_point(i * 1000 + 20, &stats);
            assert!(c.contains(&(i as usize)));
            assert!(c.len() <= 2, "candidates {c:?} for decade {i}");
        }
        stats.reset();
        // A key far outside every fence is pruned at the root.
        let c = tree.candidates_point(u64::MAX / 2, &stats);
        assert!(c.is_empty());
        let snap = stats.snapshot();
        assert_eq!(snap.tree_probes, 1, "root fence should reject in one probe");
        assert_eq!(snap.ssts_pruned, 12);
    }

    #[test]
    fn range_descent_matches_brute_force_and_reversed_ranges_never_prune() {
        let (ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        let ranges = [
            (0u64, 5u64),
            (995, 1005),
            (3005, 3008),
            (11030, 11030),
            (500, 520),
            (20_000, 30_000),
        ];
        let batch = tree.candidates_ranges(&ranges, &stats);
        for (&(lo, hi), candidates) in ranges.iter().zip(&batch) {
            assert_eq!(*candidates, tree.candidates_range(lo, hi, &stats));
            for (i, sst) in ssts.iter().enumerate() {
                let truly_hits = sst.keys().iter().any(|&k| k >= lo && k <= hi);
                if truly_hits {
                    assert!(candidates.contains(&i), "range ({lo},{hi}) lost SST {i}");
                }
            }
        }
        // Reversed bounds bypass pruning entirely.
        let all = tree.candidates_range(10, 5, &stats);
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn batch_candidates_match_singles() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRf { max_range: 1e4 });
        let stats = ReadStats::new();
        let keys: Vec<u64> = (0..40u64).map(|i| i * 317).collect();
        let batch = tree.candidates_points(&keys, &stats);
        for (&k, candidates) in keys.iter().zip(&batch) {
            assert_eq!(*candidates, tree.candidates_point(k, &stats));
        }
    }

    #[test]
    fn retire_and_splice_replaces_a_window_with_one_leaf() {
        let (mut ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // Merge SSTs 3..7 into one table holding all their keys.
        let merged_keys: Vec<u64> = (3..7u64)
            .flat_map(|i| {
                let base = i * 1000;
                [base, base + 10, base + 20, base + 30]
            })
            .collect();
        let merged = sst_of(&merged_keys, FilterKind::BloomRfBasic);
        let tail: Vec<SsTable> = ssts.split_off(7);
        ssts.truncate(3);
        ssts.push(merged);
        ssts.extend(tail);
        assert_eq!(ssts.len(), 9);
        tree.retire_and_splice(3..7, Some(&ssts[3]), &ssts, &stats);
        assert_eq!(tree.num_leaves(), 9);
        assert_eq!(tree.depth(), required_levels(9, 3));
        assert_eq!(stats.snapshot().tree_rebuilds, 1);
        // Every key still routes to the table now holding it.
        for (i, sst) in ssts.iter().enumerate() {
            for &k in &sst.keys() {
                assert!(
                    tree.candidates_point(k, &stats).contains(&i),
                    "key {k} lost after splice"
                );
            }
        }
        // The spliced tree routes like a fresh build and keeps growing.
        assert_routes_like_a_fresh_build(&tree, &ssts);
        ssts.push(sst_of(&[90_000, 90_001], FilterKind::BloomRfBasic));
        tree.push_leaf(&ssts);
        assert_eq!(tree.num_leaves(), 10);
        assert!(tree.candidates_point(90_000, &stats).contains(&9));
        assert_routes_like_a_fresh_build(&tree, &ssts);
    }

    #[test]
    fn retire_and_splice_without_replacement_shrinks_the_tree() {
        let (mut ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // A merge that produced an empty table: the window just disappears.
        let tail = ssts.split_off(4);
        ssts.truncate(2);
        ssts.extend(tail);
        tree.retire_and_splice(2..4, None, &ssts, &stats);
        assert_eq!(tree.num_leaves(), 10);
        assert_routes_like_a_fresh_build(&tree, &ssts);
        for (i, sst) in ssts.iter().enumerate() {
            for &k in &sst.keys() {
                assert!(tree.candidates_point(k, &stats).contains(&i));
            }
        }
        // Splicing everything away empties the tree.
        let none: Vec<SsTable> = Vec::new();
        tree.retire_and_splice(0..10, None, &none, &stats);
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.depth(), 0);
        assert!(tree.candidates_point(1000, &stats).is_empty());
        assert_routes_like_a_fresh_build(&tree, &none);
        // An emptied tree accepts fresh leaves again.
        let fresh = vec![sst_of(&[5, 6], FilterKind::BloomRfBasic)];
        tree.push_leaf(&fresh);
        assert!(tree.candidates_point(5, &stats).contains(&0));
        assert_routes_like_a_fresh_build(&tree, &fresh);
    }

    /// The address of a leaf's filter.
    fn leaf_filter(leaf: &Leaf) -> *const u8 {
        match &leaf.filter {
            LeafFilter::Level(filter) => Arc::as_ptr(filter).cast(),
            LeafFilter::Own(filter) => Arc::as_ptr(filter).cast(),
        }
    }

    /// Every leaf is its table's own filter — the same allocation, not a
    /// copy — and is tested with the level's probe exactly when it is a
    /// bloomRF of the leaf configuration.
    fn assert_leaves_are_the_tables_filters(tree: &FilterTree, ssts: &[SsTable]) {
        assert_eq!(tree.leaves.len(), ssts.len());
        for (i, (leaf, sst)) in tree.leaves.iter().zip(ssts).enumerate() {
            let table: *const dyn PointRangeFilter = sst.filter();
            assert_eq!(leaf_filter(leaf), table.cast(), "leaf {i}");
            assert_eq!((leaf.lo, leaf.hi), sst.key_range(), "leaf {i}");
            let level = sst
                .filter()
                .as_bloomrf()
                .is_some_and(|filter| *filter.config() == tree.configs[0]);
            assert_eq!(
                matches!(leaf.filter, LeafFilter::Level(_)),
                level,
                "leaf {i}"
            );
        }
    }

    #[test]
    fn leaves_are_the_tables_filters() {
        let kinds = [
            FilterKind::BloomRfBasic,
            FilterKind::BloomRf { max_range: 1e6 },
            FilterKind::Bloom,
            FilterKind::Rosetta { max_range: 1 << 12 },
            FilterKind::Surf,
            FilterKind::FencePointers,
        ];
        for kind in kinds {
            let (mut ssts, mut tree) = build_fixture(kind);
            assert_leaves_are_the_tables_filters(&tree, &ssts);
            // A flushed bloomRF table has exactly the leaf configuration.
            let bloomrf = kind.bloomrf_builder().is_some();
            let level = |leaf: &Leaf| matches!(leaf.filter, LeafFilter::Level(_));
            assert_eq!(tree.leaves.iter().all(level), bloomrf, "{kind:?}");

            // A compaction output holds more keys, so a bloomRF output has
            // another configuration: its leaf is its own filter too.
            let merged_keys: Vec<u64> = ssts[3..7].iter().flat_map(SsTable::keys).collect();
            let tail = ssts.split_off(7);
            ssts.truncate(3);
            ssts.push(sst_of(&merged_keys, kind));
            ssts.extend(tail);
            tree.retire_and_splice(3..7, Some(&ssts[3]), &ssts, &ReadStats::new());
            assert_leaves_are_the_tables_filters(&tree, &ssts);
            assert!(!level(&tree.leaves[3]), "{kind:?}");

            // So is a later table of another kind.
            ssts.push(sst_of(&[50_000, 50_010], FilterKind::Cuckoo));
            tree.push_leaf(&ssts);
            assert_leaves_are_the_tables_filters(&tree, &ssts);
            assert_routes_like_a_fresh_build(&tree, &ssts);
        }
    }

    #[test]
    fn level_configs_follow_the_first_tables_recipe() {
        for kind in [
            FilterKind::BloomRf { max_range: 1e6 },
            FilterKind::BloomRfBasic,
            FilterKind::Bloom,
        ] {
            let (mut ssts, mut tree) = build_fixture(kind);
            assert_eq!(tree.configs.len(), tree.depth());
            for (h, config) in tree.configs.iter().enumerate() {
                // What a table of this kind with capacity(h) keys gets.
                let keys: Vec<u64> = (0..tree.capacity(h) as u64).collect();
                let table = kind.build(&keys, tree.bits_per_key);
                let want = match table.as_bloomrf() {
                    Some(filter) => filter.config().clone(),
                    None => BloomRfConfig::basic(64, keys.len(), tree.bits_per_key, 7).unwrap(),
                };
                assert_eq!(*config, want, "{kind:?} height {h}");
                if kind != (FilterKind::BloomRf { max_range: 1e6 }) {
                    let basic = BloomRfConfig::basic(64, keys.len(), 14.0, 7).unwrap();
                    assert_eq!(*config, basic, "{kind:?} keeps the basic config");
                }
                match h {
                    // Leaves are the tables' filters: bloomRF tables of the
                    // leaf configuration, or filters of another family.
                    0 => assert!(tree.leaves.iter().all(|leaf| match &leaf.filter {
                        LeafFilter::Level(filter) => filter.config() == config,
                        LeafFilter::Own(_) => kind == FilterKind::Bloom,
                    })),
                    _ => assert!(tree.inner[h - 1]
                        .iter()
                        .all(|n| n.filter.config() == config)),
                }
            }
            // A later table of another kind keeps the tree's recipe: its
            // leaf is its own filter, and it is routed.
            let cached = tree.configs.clone();
            ssts.push(sst_of(&[50_000, 50_010], FilterKind::Bloom));
            ssts.push(sst_of(
                &[60_000, 60_010],
                FilterKind::BloomRf { max_range: 1e3 },
            ));
            tree.push_leaf(&ssts[..13]);
            tree.push_leaf(&ssts);
            assert_eq!(tree.configs[..cached.len()], cached[..]);
            let stats = ReadStats::new();
            assert!(tree.candidates_point(50_010, &stats).contains(&12));
            assert!(tree.candidates_range(59_990, 60_000, &stats).contains(&13));
            assert_routes_like_a_fresh_build(&tree, &ssts);
        }
    }

    #[test]
    fn empty_tree_is_inert() {
        let tree = FilterTree::new(16, 8, 14.0);
        let stats = ReadStats::new();
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.depth(), 0);
        assert!(tree.candidates_point(7, &stats).is_empty());
        assert!(tree.candidates_range(0, 100, &stats).is_empty());
        assert_eq!(stats.snapshot().tree_probes, 0);
        assert_routes_like_a_fresh_build(&tree, &[]);
    }

    #[test]
    fn descent_visits_exactly_the_pinned_pairs() {
        // Candidates, `tree_probes` and `ssts_pruned` per query, pinned from
        // the depth-first descent this level-synchronous one replaced: the
        // same (node, query) pairs are visited, only in another order.
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        let probed = |f: &dyn Fn() -> Vec<Vec<usize>>| {
            stats.reset();
            let candidates = f();
            let snap = stats.snapshot();
            (candidates, snap.tree_probes, snap.ssts_pruned)
        };
        // (query, candidates, tree_probes, ssts_pruned)
        type Pinned<Q> = (Q, &'static [usize], u64, u64);
        let points: [Pinned<u64>; 9] = [
            (0, &[0], 9, 11),
            (20, &[0], 9, 11),
            (3010, &[3], 9, 11),
            (5020, &[5], 9, 11),
            (11030, &[11], 7, 11),
            (999, &[], 1, 12),
            (7777, &[], 1, 12),
            (4015, &[], 1, 12),
            (u64::MAX / 2, &[], 1, 12),
        ];
        for &(key, want, probes, pruned) in &points {
            let got = probed(&|| vec![tree.candidates_point(key, &stats)]);
            assert_eq!(got, (vec![want.to_vec()], probes, pruned), "point {key}");
        }
        let ranges: [Pinned<(u64, u64)>; 9] = [
            ((0, 5), &[0], 9, 11),
            ((995, 1005), &[1], 9, 11),
            ((3005, 3008), &[], 1, 12),
            ((11030, 11030), &[11], 7, 11),
            ((500, 520), &[], 1, 12),
            ((20_000, 30_000), &[], 1, 12),
            ((2000, 8030), &[2, 3, 4, 5, 6, 7, 8], 15, 5),
            ((10, 5), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 19, 0),
            ((4031, 4999), &[], 9, 12),
        ];
        for &((lo, hi), want, probes, pruned) in &ranges {
            let got = probed(&|| vec![tree.candidates_range(lo, hi, &stats)]);
            assert_eq!(
                got,
                (vec![want.to_vec()], probes, pruned),
                "range {lo}..={hi}"
            );
        }
        // Batches visit the union of their members' pairs.
        let keys: Vec<u64> = points.iter().map(|p| p.0).collect();
        let want: Vec<Vec<usize>> = points.iter().map(|p| p.1.to_vec()).collect();
        let got = probed(&|| tree.candidates_points(&keys, &stats));
        assert_eq!(got, (want, 47, 103));
        let bounds: Vec<(u64, u64)> = ranges.iter().map(|r| r.0).collect();
        let want: Vec<Vec<usize>> = ranges.iter().map(|r| r.1.to_vec()).collect();
        let got = probed(&|| tree.candidates_ranges(&bounds, &stats));
        assert_eq!(got, (want, 71, 86));
    }
}
