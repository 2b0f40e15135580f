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
//! [`BloomRf::contains_range`], which reuses the paper's two-path dyadic
//! decomposition.
//!
//! The descent walks **each query alone**, root first, over flat per-level
//! rows: level `h` keeps one contiguous row per node holding its key fence
//! and its filter's word buffer (an [`AtomicBits`] handle). Every node of a
//! level shares one configuration (`configs[h]`), and a bloomRF keeps its
//! bits at offsets fixed by its configuration, so one probe addresses every
//! sibling's buffer — the premise of Bloofi's flat variant. A point query
//! computes its PMHF probe at most once per level
//! ([`BloomRf::point_probe_into`], then the first
//! [`BloomRf::prefetch_probe`]) and tests the fenced siblings in two
//! stages, each requesting every sibling's cache lines before testing any,
//! so the misses of one level overlap instead of queueing one after
//! another: the exact-layer bit ([`BloomRf::prefetch_exact`],
//! [`BloomRf::exact_admits`]), then every position of the survivors
//! ([`BloomRf::prefetch_probe`], [`BloomRf::contains_probe`]). A test goes
//! from the row straight to the bit, with no walk through the node's
//! filter.
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

use std::cell::Cell;
use std::sync::Arc;

use bloomrf::traits::PointRangeFilter;
use bloomrf::{AtomicBits, BloomRf, BloomRfConfig, PointProbe};
use bloomrf_filters::FilterKind;

use crate::persist;
use crate::sst::{SsTable, TableFilter};
use crate::stats::{Clock, ReadStats, SampledClock};

/// Per-query candidate lists from `(table, query)` pairs.
fn nested(n_queries: usize, pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); n_queries];
    for &(table, q) in pairs {
        out[q].push(table);
    }
    out
}

/// A descent's reusable buffers (see [`FilterTree::descend`]): the nodes
/// of the level being visited and of the next one.
#[derive(Default)]
struct Scratch {
    frontier: Vec<usize>,
    next: Vec<usize>,
}

thread_local! {
    /// This thread's descent buffers, while no descent holds them. Boxed,
    /// so taking and returning them moves one pointer.
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
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

/// One node as the descent reads it: its span's key fence and, for a node
/// of its level's configuration, its filter's word buffer.
struct Row {
    /// Smallest key in the span (`u64::MAX` while empty, so fences fail).
    lo: u64,
    /// Largest key in the span (`0` while empty).
    hi: u64,
    /// The node's filter's buffer, tested with the level's shared probe;
    /// `None` for an `Own` leaf, tested through its filter.
    bits: Option<AtomicBits>,
}

impl Row {
    /// Fold a sorted key run into the node: `filter`'s bits and the fence.
    fn absorb(&mut self, filter: &BloomRf, sorted_keys: &[u64]) {
        let (Some(&first), Some(&last)) = (sorted_keys.first(), sorted_keys.last()) else {
            return;
        };
        filter.insert_batch(sorted_keys);
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
    leaves: Vec<LeafFilter>,
    /// `inner[h - 1]` holds the filters of the nodes at height `h ≥ 1`;
    /// `inner[h - 1][i]` covers leaves `[i·F^h, (i+1)·F^h)`. The top level
    /// is always a single root.
    inner: Vec<Vec<BloomRf>>,
    /// `rows[h][i]` is node `i` at height `h` as the descent reads it:
    /// `rows[0]` the leaves, `rows[h]` the nodes of `inner[h - 1]`.
    rows: Vec<Vec<Row>>,
    /// A table filter of the leaf configuration, which hashes the leaf
    /// level's point probes: the first `Level` leaf's, while there is one.
    leaf_hasher: Option<Arc<BloomRf>>,
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
            rows: vec![Vec::new()],
            leaf_hasher: None,
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

    /// An empty node for height `h ≥ 1`, whose configuration is resolved:
    /// its filter and its row.
    fn empty_node(&self, height: usize) -> (BloomRf, Row) {
        match BloomRf::builder()
            .config(self.configs[height].clone())
            .build()
        {
            Ok(filter) => {
                let row = Row {
                    lo: u64::MAX,
                    hi: 0,
                    bits: Some(filter.bits().clone()),
                };
                (filter, row)
            }
            // `BloomRfBuilder::config_for` validates every configuration it
            // returns.
            Err(e) => unreachable!("filter tree level {height} config rejected: {e}"),
        }
    }

    /// The leaf for one SST and its row: its own filter, shared, tested
    /// with the leaf level's probe when its configuration is the leaf
    /// configuration.
    fn make_leaf(&self, sst: &SsTable) -> (LeafFilter, Row) {
        let filter = match sst.shared_filter() {
            TableFilter::BloomRf(filter) if *filter.config() == self.configs[0] => {
                LeafFilter::Level(Arc::clone(filter))
            }
            TableFilter::BloomRf(filter) => LeafFilter::Own(Arc::clone(filter) as _),
            TableFilter::Other(filter) => LeafFilter::Own(Arc::clone(filter)),
        };
        let bits = match &filter {
            LeafFilter::Level(filter) => Some(filter.bits().clone()),
            LeafFilter::Own(_) => None,
        };
        let (lo, hi) = sst.key_range();
        (filter, Row { lo, hi, bits })
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
        self.rows.iter().map(Vec::len).sum()
    }

    /// Filter payload the tree owns, in bits: its inner nodes. The leaves
    /// are the tables' own filters, counted by the tables.
    pub fn memory_bits(&self) -> usize {
        self.inner.iter().flatten().map(BloomRf::memory_bits).sum()
    }

    /// The configured fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Node `n`'s filter at `height`.
    fn filter(&self, height: usize, n: usize) -> &dyn PointRangeFilter {
        match height {
            0 => match &self.leaves[n] {
                LeafFilter::Level(filter) => filter.as_ref(),
                LeafFilter::Own(filter) => filter.as_ref(),
            },
            h => &self.inner[h - 1][n],
        }
    }

    /// A filter of height `h`'s configuration, which computes the level's
    /// point probes: the first inner node, or the leaf hasher. `None` only
    /// at the leaves, when none has the leaf configuration.
    fn hasher(&self, height: usize) -> Option<&BloomRf> {
        match height {
            0 => self.leaf_hasher.as_deref(),
            h => self.inner[h - 1].first(),
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
        let (leaf, row) = self.make_leaf(sst);
        if let (None, LeafFilter::Level(filter)) = (&self.leaf_hasher, &leaf) {
            self.leaf_hasher = Some(Arc::clone(filter));
        }
        self.leaves.push(leaf);
        self.rows[0].push(row);
        // Grow a new root when the leaf count exceeds the current top's
        // span. The fresh level is seeded from every leaf already present;
        // the new leaf itself is folded in by the ancestor pass.
        while self.depth() < levels {
            let (node, mut row) = self.empty_node(self.depth());
            for older in older {
                row.absorb(&node, &older.keys());
            }
            self.inner.push(vec![node]);
            self.rows.push(vec![row]);
        }
        let keys = sst.keys();
        for height in 1..self.depth() {
            let idx = prior / self.fanout.saturating_pow(height as u32);
            if idx == self.inner[height - 1].len() {
                let (node, row) = self.empty_node(height);
                self.inner[height - 1].push(node);
                self.rows[height].push(row);
            }
            self.rows[height][idx].absorb(&self.inner[height - 1][idx], &keys);
        }
        debug_assert_eq!(
            self.num_leaves(),
            ssts.len(),
            "push_leaf must leave exactly one leaf per SST"
        );
        self.debug_check_shape();
    }

    /// Structural invariants every tree mutation must restore: the level
    /// count matches the leaf count, inner level `h` holds exactly
    /// `ceil(leaves / fanout^h)` nodes — one per (possibly partial) span —
    /// and the rows are in step with the nodes: one per node, holding its
    /// filter's own buffer (none for an `Own` leaf), with a leaf hasher
    /// whenever a row of the leaf level has a buffer. Debug builds only; a
    /// violation here means routing would descend into nodes that do not
    /// aggregate their children, or test bits no node owns.
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
        let holds_own_buffer = |row: &Row, filter: Option<&BloomRf>| match (&row.bits, filter) {
            (Some(bits), Some(filter)) => bits.same_buffer(filter.bits()),
            (bits, filter) => bits.is_none() && filter.is_none(),
        };
        debug_assert!(
            self.rows.len() == self.inner.len() + 1
                && self.rows[0].len() == self.leaves.len()
                && self.leaves.iter().zip(&self.rows[0]).all(|(leaf, row)| {
                    holds_own_buffer(
                        row,
                        match leaf {
                            LeafFilter::Level(filter) => Some(filter),
                            LeafFilter::Own(_) => None,
                        },
                    )
                })
                && self.inner.iter().zip(&self.rows[1..]).all(|(nodes, rows)| {
                    nodes.len() == rows.len()
                        && nodes
                            .iter()
                            .zip(rows)
                            .all(|(node, row)| holds_own_buffer(row, Some(node)))
                }),
            "each row must hold its node's own buffer"
        );
        debug_assert_eq!(
            self.leaf_hasher.is_some(),
            self.rows[0].iter().any(|row| row.bits.is_some()),
            "the leaf level needs a hasher exactly when a leaf takes its probe"
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
        let (leaf, row) = replacement.map(|sst| self.make_leaf(sst)).unzip();
        self.leaves.splice(window.clone(), leaf);
        self.rows[0].splice(window, row);
        assert_eq!(
            self.leaves.len(),
            ssts.len(),
            "filter tree out of sync with the spliced SST set"
        );
        self.leaf_hasher = self.leaves.iter().find_map(|leaf| match leaf {
            LeafFilter::Level(filter) => Some(Arc::clone(filter)),
            LeafFilter::Own(_) => None,
        });
        let (inner, rows): (Vec<Vec<BloomRf>>, Vec<Vec<Row>>) =
            (1..required_levels(ssts.len(), self.fanout))
                .map(|height| {
                    let span = self.fanout.saturating_pow(height as u32);
                    ssts.chunks(span)
                        .map(|spanned| {
                            let (node, mut row) = self.empty_node(height);
                            for sst in spanned {
                                row.absorb(&node, &sst.keys());
                            }
                            (node, row)
                        })
                        .unzip()
                })
                .unzip();
        self.inner = inner;
        self.rows.truncate(1);
        self.rows.extend(rows);
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
        let mut pairs = Vec::new();
        self.candidates_points_into(&[key], stats, &mut pairs);
        pairs.into_iter().map(|(table, _)| table).collect()
    }

    /// Batched [`FilterTree::candidates_point`]: element `i` answers
    /// `keys[i]`. Convenience form of [`FilterTree::candidates_points_into`].
    pub fn candidates_points(&self, keys: &[u64], stats: &ReadStats) -> Vec<Vec<usize>> {
        let mut pairs = Vec::new();
        self.candidates_points_into(keys, stats, &mut pairs);
        nested(keys.len(), &pairs)
    }

    /// The candidates of every key of `keys`, as `(table, key index)`
    /// pairs in `out` (cleared first): grouped by key in `keys` order, and
    /// ascending by table within a key. Per level, a key is hashed at most
    /// once; every fenced node has its exact-layer bit prefetched before
    /// any is tested, and every node that passes that has its remaining
    /// positions prefetched before any is tested. A leaf of its own
    /// configuration is tested in one call instead.
    pub fn candidates_points_into(
        &self,
        keys: &[u64],
        stats: &ReadStats,
        out: &mut Vec<(usize, usize)>,
    ) {
        let mut probe = PointProbe::default();
        let fence = |(lo, hi): (u64, u64), q: usize| (lo..=hi).contains(&keys[q]);
        self.descend(keys.len(), stats, out, fence, |height, q, frontier| {
            let key = keys[q];
            let rows = &self.rows[height];
            // Every fenced node is tested.
            let tested = frontier.len();
            let Some(hasher) = self.hasher(height) else {
                // No leaf has the leaf configuration.
                frontier.retain(|&n| self.filter(height, n).may_contain(key));
                return tested;
            };
            hasher.point_probe_into(key, &mut probe);
            for &n in frontier.iter() {
                if let Some(bits) = &rows[n].bits {
                    hasher.prefetch_exact(&probe, bits);
                }
            }
            // Tuned levels keep an exact layer: one cache line per node
            // rejects most siblings that do not hold the key, before the
            // layer positions of the survivors are fetched.
            frontier.retain(|&n| match &rows[n].bits {
                Some(bits) => hasher.exact_admits(&probe, bits),
                None => self.filter(height, n).may_contain(key),
            });
            for &n in frontier.iter() {
                if let Some(bits) = &rows[n].bits {
                    hasher.prefetch_probe(&mut probe, bits);
                }
            }
            frontier.retain(|&n| {
                (rows[n].bits.as_ref()).map_or(true, |bits| hasher.contains_probe(&probe, bits))
            });
            tested
        });
    }

    /// Candidate SSTs for one range-emptiness check over `[lo, hi]`,
    /// ascending by age. Reversed bounds descend everywhere (no pruning) so
    /// routed reads answer exactly like a scan over all tables.
    pub fn candidates_range(&self, lo: u64, hi: u64, stats: &ReadStats) -> Vec<usize> {
        let mut pairs = Vec::new();
        self.candidates_ranges_into(&[(lo, hi)], stats, &mut pairs);
        pairs.into_iter().map(|(table, _)| table).collect()
    }

    /// Batched [`FilterTree::candidates_range`]: element `i` answers
    /// `ranges[i]`. Convenience form of [`FilterTree::candidates_ranges_into`].
    pub fn candidates_ranges(&self, ranges: &[(u64, u64)], stats: &ReadStats) -> Vec<Vec<usize>> {
        let mut pairs = Vec::new();
        self.candidates_ranges_into(ranges, stats, &mut pairs);
        nested(ranges.len(), &pairs)
    }

    /// The candidates of every range of `ranges`, as `(table, range
    /// index)` pairs in `out` (cleared first): grouped by range in `ranges`
    /// order, and ascending by table within a range. Each fenced node tests
    /// the range with [`BloomRf::contains_range`] (a leaf of another family
    /// with its [`PointRangeFilter::may_contain_range`]).
    pub fn candidates_ranges_into(
        &self,
        ranges: &[(u64, u64)],
        stats: &ReadStats,
        out: &mut Vec<(usize, usize)>,
    ) {
        let reversed = |q: usize| ranges[q].0 > ranges[q].1;
        // Reversed bounds never prune: mirror the scan-all path.
        let fence = |(lo, hi): (u64, u64), q: usize| {
            reversed(q) || (ranges[q].0 <= hi && ranges[q].1 >= lo)
        };
        self.descend(ranges.len(), stats, out, fence, |height, q, frontier| {
            if reversed(q) {
                return 0;
            }
            let (lo, hi) = ranges[q];
            let tested = frontier.len();
            frontier.retain(|&n| self.filter(height, n).may_contain_range(lo, hi));
            tested
        });
    }

    /// The one descent behind every candidates call: query by query, each
    /// from the root down. The frontier holds the nodes the query reached
    /// at the level being visited, ascending; the nodes whose key fence
    /// rejects the query are dropped, then `filter_pass(height, query,
    /// frontier)` drops those whose filter rejects it and returns how many
    /// nodes it tested with a filter. Each surviving node sends the query
    /// on to its children; the surviving leaves are the query's
    /// candidates, appended to `out` (cleared first) as `(leaf, query)`:
    /// grouped by query, ascending by leaf within a query.
    ///
    /// The frontier and the next level are this thread's [`SCRATCH`],
    /// taken and put back, so a warm thread's descents allocate nothing.
    /// Neither holds more than a level's width plus `F` nodes, whatever the
    /// batch size.
    ///
    /// Records, once per call, `tree_probes` per node a query reached,
    /// `ssts_pruned` per `(query, leaf)` pair not among the candidates,
    /// and — the leaves being the tables' filters — every leaf test as a
    /// filter probe.
    fn descend(
        &self,
        n_queries: usize,
        stats: &ReadStats,
        out: &mut Vec<(usize, usize)>,
        fence: impl Fn((u64, u64), usize) -> bool,
        mut filter_pass: impl FnMut(usize, usize, &mut Vec<usize>) -> usize,
    ) {
        out.clear();
        if self.num_leaves() == 0 || n_queries == 0 {
            return;
        }
        let mut scratch = SCRATCH.take().unwrap_or_default();
        let Scratch { frontier, next } = &mut *scratch;
        let (mut probes, mut positives, mut negatives, mut nanos) = (0, 0, 0, 0);
        for q in 0..n_queries {
            // The top level is a single root by construction.
            frontier.clear();
            frontier.push(0);
            for height in (0..self.depth()).rev() {
                let rows = &self.rows[height];
                probes += frontier.len() as u64;
                frontier.retain(|&n| fence((rows[n].lo, rows[n].hi), q));
                if frontier.is_empty() {
                    break;
                }
                if height == 0 {
                    // The leaves are the tables' filters.
                    let fenced = frontier.len();
                    let clock = SampledClock::start(Clock::FilterProbe);
                    let tested = filter_pass(0, q, frontier);
                    nanos += clock.estimate_ns();
                    let rejected = fenced - frontier.len();
                    positives += (tested - rejected) as u64;
                    negatives += rejected as u64;
                    out.extend(frontier.iter().map(|&leaf| (leaf, q)));
                } else {
                    filter_pass(height, q, frontier);
                    next.clear();
                    let children = self.rows[height - 1].len();
                    for &n in frontier.iter() {
                        next.extend(n * self.fanout..((n + 1) * self.fanout).min(children));
                    }
                    std::mem::swap(frontier, next);
                }
            }
        }
        stats.record_tree_probes(probes);
        let pairs = (n_queries * self.num_leaves()) as u64;
        stats.record_ssts_pruned(pairs - out.len() as u64);
        if positives + negatives + nanos > 0 {
            stats.record_filter_probes(positives, negatives, nanos);
        }
        SCRATCH.set(Some(scratch));
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
        for rows in &self.rows[..self.depth()] {
            meta.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        }

        let mut nodes = Vec::new();
        for row in &self.rows[0] {
            nodes.extend_from_slice(&row.lo.to_le_bytes());
            nodes.extend_from_slice(&row.hi.to_le_bytes());
            nodes.push(0);
        }
        let inner = self.inner.iter().zip(&self.rows[1..]);
        for (node, row) in inner.flat_map(|(nodes, rows)| nodes.iter().zip(rows)) {
            nodes.extend_from_slice(&row.lo.to_le_bytes());
            nodes.extend_from_slice(&row.hi.to_le_bytes());
            nodes.push(1);
            let filter = node.to_bytes();
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

    /// What a descent must answer, worked out pair by pair: `(node,
    /// query)` at height `h` is reached when every ancestor admits the
    /// query, and admitted when it is reached and passes the node's fence
    /// and — unless `untested(query)` — its filter. Returns the candidate
    /// `(leaf, query)` pairs, grouped by query and ascending by leaf within
    /// one, and `[tree_probes, ssts_pruned, filter_positives,
    /// filter_negatives]`.
    fn reference(
        tree: &FilterTree,
        n_queries: usize,
        fence: impl Fn((u64, u64), usize) -> bool,
        untested: impl Fn(usize) -> bool,
        test: impl Fn(&dyn PointRangeFilter, usize) -> bool,
    ) -> (Vec<(usize, usize)>, [u64; 4]) {
        let Some(top) = tree.depth().checked_sub(1) else {
            return (Vec::new(), [0; 4]);
        };
        let filter = |h: usize, n: usize| tree.filter(h, n);
        let fenced = |h: usize, n: usize, q: usize| {
            let row = &tree.rows[h][n];
            fence((row.lo, row.hi), q)
        };
        let admits = |h: usize, n: usize, q: usize| {
            fenced(h, n, q) && (untested(q) || test(filter(h, n), q))
        };
        let reached = |h: usize, n: usize, q: usize| {
            (h + 1..=top).all(|a| admits(a, n / tree.fanout.pow((a - h) as u32), q))
        };
        let mut stats = [0u64; 4];
        let mut pairs = Vec::new();
        for q in 0..n_queries {
            for h in 0..=top {
                for n in 0..tree.rows[h].len() {
                    if !reached(h, n, q) {
                        continue;
                    }
                    stats[0] += 1;
                    if h == 0 && fenced(0, n, q) && !untested(q) {
                        stats[if admits(0, n, q) { 2 } else { 3 }] += 1;
                    }
                    if h == 0 && admits(0, n, q) {
                        pairs.push((n, q));
                    }
                }
            }
        }
        stats[1] = (n_queries * tree.num_leaves() - pairs.len()) as u64;
        (pairs, stats)
    }

    /// `f`'s result and `[tree_probes, ssts_pruned, filter_positives,
    /// filter_negatives]` of the reads it made.
    fn measured<T>(stats: &ReadStats, f: impl FnOnce() -> T) -> (T, [u64; 4]) {
        stats.reset();
        let out = f();
        let snap = stats.snapshot();
        let counts = [
            snap.tree_probes,
            snap.ssts_pruned,
            snap.filter_positives,
            snap.filter_negatives,
        ];
        (out, counts)
    }

    /// `(table, query)` pairs from per-query candidate lists, in their
    /// order: grouped by query.
    fn flatten(nested: &[Vec<usize>]) -> Vec<(usize, usize)> {
        (nested.iter().enumerate())
            .flat_map(|(q, tables)| tables.iter().map(move |&t| (t, q)))
            .collect()
    }

    /// On random trees — leaf counts off the powers of `F`, `Own` leaves
    /// (a `Bloom` table and a larger, compaction-output-sized bloomRF
    /// table), reversed ranges, duplicate queries in one batch, an empty
    /// tree — the flat `_into` forms emit exactly the pairs of the nested
    /// wrappers and of the one-query forms, all equal to the pair-by-pair
    /// reference, with equal `tree_probes`, `ssts_pruned` and filter probe
    /// counts.
    #[test]
    fn flat_candidates_match_the_nested_forms_and_the_reference() {
        let mut seed = 0u64;
        let mut next = move || {
            seed += 1;
            bloomrf::hashing::mix64(seed)
        };
        let stats = ReadStats::new();
        for trial in 0..24 {
            let fanout = 2 + trial % 3;
            let leaves = [0, 1, 2, 3, 5, 7, 10, 17][trial % 8];
            let ssts: Vec<SsTable> = (0..leaves)
                .map(|i| {
                    let base = next() % 50_000;
                    let n = if i == 4 { 24 } else { 8 };
                    let mut keys: Vec<u64> = (0..n).map(|_| base + next() % 4_000).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    let kind = if i == 2 {
                        FilterKind::Bloom
                    } else {
                        FilterKind::BloomRfBasic
                    };
                    sst_of(&keys, kind)
                })
                .collect();
            let tree = FilterTree::build_from_ssts(fanout, 8, 14.0, &ssts);
            if leaves > 4 {
                assert!(matches!(tree.leaves[2], LeafFilter::Own(_)));
                assert!(matches!(tree.leaves[4], LeafFilter::Own(_)));
            }

            let mut keys: Vec<u64> = Vec::new();
            for sst in &ssts {
                keys.extend(sst.keys().iter().step_by(3));
            }
            keys.extend((0..40).map(|_| next() % 60_000));
            keys.push(u64::MAX);
            keys.extend_from_slice(&keys.clone()[..keys.len() / 4]);
            let mut ranges: Vec<(u64, u64)> = (0..60)
                .map(|i| {
                    let lo = next() % 60_000;
                    match i % 5 {
                        4 => (lo, lo.saturating_sub(1 + next() % 100)),
                        w => (lo, lo + [0, 3, 60, 2_000][w]),
                    }
                })
                .collect();
            ranges.extend_from_slice(&ranges.clone()[..15]);

            let (want, want_stats) = reference(
                &tree,
                keys.len(),
                |(lo, hi), q| (lo..=hi).contains(&keys[q]),
                |_| false,
                |filter, q| filter.may_contain(keys[q]),
            );
            let mut flat = Vec::new();
            let ((), flat_stats) = measured(&stats, || {
                tree.candidates_points_into(&keys, &stats, &mut flat)
            });
            let (nested, nested_stats) = measured(&stats, || tree.candidates_points(&keys, &stats));
            let (singles, singles_stats) = measured(&stats, || {
                keys.iter()
                    .map(|&k| tree.candidates_point(k, &stats))
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                (&flat, flat_stats),
                (&want, want_stats),
                "points, trial {trial}"
            );
            assert_eq!((flatten(&nested), nested_stats), (want.clone(), want_stats));
            assert_eq!((flatten(&singles), singles_stats), (want, want_stats));

            let reversed = |q: usize| ranges[q].0 > ranges[q].1;
            let (want, want_stats) = reference(
                &tree,
                ranges.len(),
                |(lo, hi), q| reversed(q) || (ranges[q].0 <= hi && ranges[q].1 >= lo),
                reversed,
                |filter, q| filter.may_contain_range(ranges[q].0, ranges[q].1),
            );
            let ((), flat_stats) = measured(&stats, || {
                tree.candidates_ranges_into(&ranges, &stats, &mut flat)
            });
            let (nested, nested_stats) =
                measured(&stats, || tree.candidates_ranges(&ranges, &stats));
            let (singles, singles_stats) = measured(&stats, || {
                ranges
                    .iter()
                    .map(|&(lo, hi)| tree.candidates_range(lo, hi, &stats))
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                (&flat, flat_stats),
                (&want, want_stats),
                "ranges, trial {trial}"
            );
            assert_eq!((flatten(&nested), nested_stats), (want.clone(), want_stats));
            assert_eq!((flatten(&singles), singles_stats), (want, want_stats));
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
    fn leaf_filter(leaf: &LeafFilter) -> *const u8 {
        match leaf {
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
            let row = &tree.rows[0][i];
            assert_eq!((row.lo, row.hi), sst.key_range(), "leaf {i}");
            let level = sst
                .filter()
                .as_bloomrf()
                .is_some_and(|filter| *filter.config() == tree.configs[0]);
            assert_eq!(matches!(leaf, LeafFilter::Level(_)), level, "leaf {i}");
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
            let level = |leaf: &LeafFilter| matches!(leaf, LeafFilter::Level(_));
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
                    0 => assert!(tree.leaves.iter().all(|leaf| match leaf {
                        LeafFilter::Level(filter) => filter.config() == config,
                        LeafFilter::Own(_) => kind == FilterKind::Bloom,
                    })),
                    _ => assert!(tree.inner[h - 1].iter().all(|n| n.config() == config)),
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
