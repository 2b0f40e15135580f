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
//! * **Leaf adoption.** A table built for `leaf_keys` keys by that recipe
//!   has exactly the leaf configuration, so its leaf is built by
//!   [`BloomRf::merge_from`] — Bloofi's aggregation primitive — as a
//!   bit-for-bit union of the table's filter instead of re-hashing every
//!   key. Any other table (a compaction output of another size, a table of
//!   another kind) is re-hashed.
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

use bloomrf::{BloomRf, BloomRfConfig, PointProbe};
use bloomrf_filters::FilterKind;

use crate::persist;
use crate::sst::SsTable;
use crate::stats::ReadStats;

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

/// One tree node: a bloomRF filter over every key in the node's leaf span,
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
/// covers SST `i` in age order. See the module docs for the design.
pub struct FilterTree {
    fanout: usize,
    leaf_keys: usize,
    bits_per_key: f64,
    /// The filter family of the first table the tree indexed, kept for the
    /// tree's life: it picks the recipe of every level's configuration.
    kind: Option<FilterKind>,
    /// `configs[h]` is the configuration shared by every node at height
    /// `h`, resolved once ([`FilterTree::resolve_levels`]).
    configs: Vec<BloomRfConfig>,
    /// `levels[0]` are the leaves; `levels[h][i]` covers leaves
    /// `[i·F^h, (i+1)·F^h)`. The top level is always a single root.
    levels: Vec<Vec<TreeNode>>,
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
            levels: Vec::new(),
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
    /// at `max_range`, else basic — so a flushed table's filter *is* a leaf
    /// filter. Every other kind gets the basic configuration.
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

    /// Number of leaves, one per SST.
    pub fn num_leaves(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Number of levels, leaves included (0 while empty).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total node count across all levels.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Total filter payload across all nodes, in bits.
    pub fn memory_bits(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|n| n.filter.memory_bits())
            .sum()
    }

    /// The configured fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
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
        let keys = sst.keys();
        self.resolve_levels(required_levels(prior + 1, self.fanout), sst);
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let leaf = self.make_leaf(sst, &keys);
        self.levels[0].push(leaf);
        // Grow a new root when the leaf count exceeds the current top's
        // span. The fresh level is seeded from every leaf already present;
        // the new leaf itself is folded in by the ancestor pass.
        while self.levels.len() < required_levels(prior + 1, self.fanout) {
            let mut node = self.empty_node(self.levels.len());
            for older in older {
                node.absorb(&older.keys());
            }
            self.levels.push(vec![node]);
        }
        for height in 1..self.levels.len() {
            let idx = prior / self.fanout.saturating_pow(height as u32);
            if idx == self.levels[height].len() {
                let node = self.empty_node(height);
                self.levels[height].push(node);
            }
            self.levels[height][idx].absorb(&keys);
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
            self.levels.len(),
            if self.num_leaves() == 0 {
                self.levels.len().min(1)
            } else {
                required_levels(self.num_leaves(), self.fanout)
            },
            "level count out of step with the leaf count"
        );
        debug_assert!(
            (1..self.levels.len()).all(|h| {
                self.levels[h].len()
                    == self
                        .num_leaves()
                        .div_ceil(self.fanout.saturating_pow(h as u32))
            }),
            "inner level width must be ceil(leaves / fanout^height)"
        );
    }

    /// Build the leaf node for one SST. When the SST's own filter block is a
    /// bloomRF with exactly the leaf configuration — every table built by
    /// the tree's recipe at `leaf_keys` keys — the leaf is its bit-for-bit
    /// union via [`BloomRf::merge_from`]; otherwise the keys are re-hashed
    /// into a fresh filter.
    fn make_leaf(&self, sst: &SsTable, keys: &[u64]) -> TreeNode {
        let mut node = self.empty_node(0);
        let adopted = sst
            .filter()
            .as_bloomrf()
            .filter(|table| *table.config() == self.configs[0])
            .is_some_and(|table| node.filter.merge_from(table).is_ok());
        if adopted {
            node.lo = keys.first().copied().unwrap_or(u64::MAX);
            node.hi = keys.last().copied().unwrap_or(0);
        } else {
            node.absorb(keys);
        }
        node
    }

    /// Compaction maintenance: replace the contiguous leaf window `window`
    /// with the single leaf for `replacement` (or nothing, when the merge
    /// produced an empty table), keeping the tree aligned with an SST set
    /// that was spliced the same way. `ssts` is the **post-splice** table set
    /// in age order. Because Bloom bits cannot be deleted, every inner level
    /// is rebuilt from the surviving leaves' keys — positions shift across a
    /// splice, so ancestor spans change wholesale. Surviving leaf nodes are
    /// reused bit-for-bit (no re-hash); counted as one rebuild event in
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
        let mut leaves = if self.levels.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.levels[0])
        };
        let tail = leaves.split_off(window.end);
        leaves.truncate(window.start);
        if let Some(sst) = ssts.first() {
            self.resolve_levels(required_levels(ssts.len(), self.fanout), sst);
        }
        if let Some(sst) = replacement {
            leaves.push(self.make_leaf(sst, &sst.keys()));
        }
        leaves.extend(tail);
        assert_eq!(
            leaves.len(),
            ssts.len(),
            "filter tree out of sync with the spliced SST set"
        );
        let n = leaves.len();
        self.levels = Vec::new();
        if n > 0 {
            self.levels.push(leaves);
            for height in 1..required_levels(n, self.fanout) {
                let span = self.fanout.saturating_pow(height as u32);
                let level = ssts
                    .chunks(span)
                    .map(|spanned| {
                        let mut node = self.empty_node(height);
                        for sst in spanned {
                            node.absorb(&sst.keys());
                        }
                        node
                    })
                    .collect();
                self.levels.push(level);
            }
        }
        debug_assert_eq!(
            self.num_leaves(),
            ssts.len(),
            "retire_and_splice must leave one leaf per post-splice SST"
        );
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

    /// Candidate SSTs for one point lookup, ascending by age. The result is
    /// a superset of the SSTs containing `key` (filters and fences never
    /// produce false negatives), so probing only the candidates is
    /// answer-preserving.
    pub fn candidates_point(&self, key: u64, stats: &ReadStats) -> Vec<usize> {
        self.candidates_points(&[key], stats)
            .pop()
            .unwrap_or_default()
    }

    /// Batched [`FilterTree::candidates_point`]: element `i` answers
    /// `keys[i]`. Per level, each surviving key is hashed once; every
    /// `(node, key)` pair that passes its fence has its exact-layer bit
    /// prefetched before any is tested, and every pair that passes that has
    /// its remaining positions prefetched before any is tested.
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
        self.descend(keys.len(), stats, |height, nodes, frontier| {
            frontier.retain(|&(n, q)| (nodes[n].lo..=nodes[n].hi).contains(&keys[q]));
            for &(n, q) in frontier.iter() {
                let lane = &mut lanes[q];
                let filter = &nodes[n].filter;
                if lane.height != Some(height) {
                    filter.point_probe_into(keys[q], &mut lane.probe);
                    lane.height = Some(height);
                }
                filter.prefetch_exact(&lane.probe);
            }
            // Tuned levels keep an exact layer: one cache line per pair
            // rejects most siblings that do not hold the key, before the
            // layer positions of the survivors are fetched.
            frontier.retain(|&(n, q)| nodes[n].filter.exact_admits(&lanes[q].probe));
            for &(n, q) in frontier.iter() {
                nodes[n].filter.prefetch_probe(&mut lanes[q].probe);
            }
            frontier.retain(|&(n, q)| nodes[n].filter.contains_probe(&lanes[q].probe));
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
    /// it, through [`BloomRf::contains_range_batch_into`].
    pub fn candidates_ranges(&self, ranges: &[(u64, u64)], stats: &ReadStats) -> Vec<Vec<usize>> {
        // Reused across every node the descent visits.
        let mut probe: Vec<(u64, u64)> = Vec::new();
        let mut verdicts: Vec<bool> = Vec::new();
        let mut keep: Vec<bool> = Vec::new();
        let reversed = |q: usize| ranges[q].0 > ranges[q].1;
        self.descend(ranges.len(), stats, |_, nodes, frontier| {
            // Reversed bounds never prune: mirror the scan-all path.
            frontier.retain(|&(n, q)| {
                let (lo, hi) = ranges[q];
                reversed(q) || (lo <= nodes[n].hi && hi >= nodes[n].lo)
            });
            keep.clear();
            for run in node_runs(frontier) {
                probe.clear();
                probe.extend(run.iter().filter(|p| !reversed(p.1)).map(|p| ranges[p.1]));
                verdicts.clear();
                if !probe.is_empty() {
                    nodes[run[0].0]
                        .filter
                        .contains_range_batch_into(&probe, &mut verdicts);
                }
                let mut forward = verdicts.iter();
                keep.extend(
                    run.iter()
                        .map(|p| reversed(p.1) || forward.next() == Some(&true)),
                );
            }
            let mut keep = keep.iter();
            frontier.retain(|_| keep.next() == Some(&true));
        })
    }

    /// The one descent behind every candidates call, level-synchronous from
    /// the root down. The frontier holds the `(node, query)` pairs that
    /// reached the level, grouped by node in ascending order; `level_pass`
    /// drops the pairs whose node rejects the query (fence, then filter), and
    /// each surviving pair sends its query on to every child of its node.
    /// Surviving leaves are the candidates, so each list comes out ascending.
    /// Records `tree_probes` per pair that reached a level and `ssts_pruned`
    /// per `(query, leaf)` pair never reached.
    fn descend(
        &self,
        n_queries: usize,
        stats: &ReadStats,
        mut level_pass: impl FnMut(usize, &[TreeNode], &mut Vec<Pair>),
    ) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); n_queries];
        if self.num_leaves() == 0 || n_queries == 0 {
            return out;
        }
        // The top level is a single root by construction.
        let mut frontier: Vec<Pair> = (0..n_queries).map(|q| (0, q)).collect();
        let mut next: Vec<Pair> = Vec::new();
        let mut probes = 0u64;
        for height in (0..self.levels.len()).rev() {
            probes += frontier.len() as u64;
            level_pass(height, &self.levels[height], &mut frontier);
            if height == 0 {
                for &(leaf, q) in &frontier {
                    out[q].push(leaf);
                }
                break;
            }
            let children = self.levels[height - 1].len();
            next.clear();
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
    /// node payloads. Nothing reads these bytes back; the encoding stays only
    /// for the benchmark adapter, which reports their length as the tree's
    /// encoded size and times the call.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.fanout as u32).to_le_bytes());
        meta.extend_from_slice(&(self.leaf_keys as u64).to_le_bytes());
        meta.extend_from_slice(&self.bits_per_key.to_bits().to_le_bytes());
        meta.extend_from_slice(&(self.num_leaves() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            meta.extend_from_slice(&(level.len() as u64).to_le_bytes());
        }

        let mut nodes = Vec::new();
        for level in &self.levels {
            for node in level {
                nodes.extend_from_slice(&node.lo.to_le_bytes());
                nodes.extend_from_slice(&node.hi.to_le_bytes());
                nodes.push(1);
                let filter = node.filter.to_bytes();
                nodes.extend_from_slice(&(filter.len() as u64).to_le_bytes());
                nodes.extend_from_slice(&filter);
            }
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

    #[test]
    fn leaf_adoption_unions_matching_sst_filters() {
        // leaf_keys == per-SST key count and the same bits/key ⇒ the SST's
        // own filter block has exactly the leaf configuration, for the basic
        // and the advisor-tuned family alike, so make_leaf takes the
        // merge_from path: the leaf is the table's filter, bit for bit, and
        // bit-identical to the re-hash path.
        let keys: Vec<u64> = (0..64u64).map(|i| i * 97).collect();
        for kind in [
            FilterKind::BloomRfBasic,
            FilterKind::BloomRf { max_range: 1e6 },
        ] {
            let sst = sst_of(&keys, kind);
            let mut tree = FilterTree::new(4, keys.len(), 14.0);
            tree.resolve_levels(1, &sst);
            let adopted = tree.make_leaf(&sst, &keys);
            let table = sst.filter().as_bloomrf().expect("a bloomRF table");
            assert_eq!(adopted.filter.config(), table.config(), "{kind:?}");
            assert_eq!(adopted.filter.snapshot_bits(), table.snapshot_bits());
            assert_eq!(adopted.filter.key_count(), keys.len() as u64);
            let mut rehashed = tree.empty_node(0);
            rehashed.absorb(&keys);
            assert_eq!(
                adopted.filter.snapshot_bits(),
                rehashed.filter.snapshot_bits()
            );
            assert_eq!((adopted.lo, adopted.hi), (keys[0], keys[63]));
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
                assert!(tree.levels[h].iter().all(|n| n.filter.config() == config));
            }
            // A later table of another kind keeps the tree's recipe: it is
            // re-hashed into a leaf of the tree's configuration, and routed.
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
