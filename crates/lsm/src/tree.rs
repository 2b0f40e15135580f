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
//! node of a level shares one configuration (`level_config(h)`), which is
//! the property Bloofi's flat variant rests on, so a point query's PMHF probe
//! positions are computed once per level ([`BloomRf::point_probe_into`]), the
//! cache lines of every sibling that passed its fence are requested
//! ([`BloomRf::prefetch_probe`]) and only then is each sibling tested
//! ([`BloomRf::contains_probe`]). The misses of one level overlap instead of
//! queueing one after another.
//!
//! Two deliberate deviations from textbook Bloofi, both documented in
//! `docs/filter-tree.md`:
//!
//! * **Level-scaled capacity.** A node at height `h` covers up to `F^h`
//!   SSTs, so its filter is provisioned for `leaf_keys · F^h` keys (uniform
//!   per-level *memory*, bounded per-level FPR). Same-size nodes — Bloofi's
//!   choice — saturate a few levels up and stop pruning. The price is that
//!   parent and child configurations differ, so ancestors absorb the *keys*
//!   of a new leaf rather than bit-unioning its filter.
//! * **Leaf adoption.** Leaves share one configuration, so when an SST's own
//!   filter block is a bloomRF with exactly that configuration the leaf is
//!   built by [`BloomRf::merge_from`] — Bloofi's aggregation primitive — as
//!   a bit-for-bit union instead of re-hashing every key.
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
//! The tree persists as the checksummed `TREE` file next to the MANIFEST
//! ([`FilterTree::to_bytes`]) and recovery falls back to
//! [`FilterTree::build_from_ssts`] when that file is missing, corrupt or
//! stale.

use bloomrf::{BloomRf, BloomRfConfig, ConfigError, PointProbe};

use crate::persist::{self, Corruption};
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

/// Magic number of the persisted tree file (`TREE`).
pub const TREE_MAGIC: &[u8; 4] = b"BTRE";
/// Version of the persisted tree format.
pub const TREE_FORMAT_VERSION: u32 = 1;
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
            levels: Vec::new(),
        }
    }

    /// Keys a node at height `h` is provisioned for: `leaf_keys · F^h`.
    fn capacity(&self, height: usize) -> usize {
        self.leaf_keys
            .saturating_mul(self.fanout.saturating_pow(height as u32))
    }

    /// The filter configuration shared by every node at height `h`:
    /// basic bloomRF provisioned for [`Self::capacity`] keys.
    fn level_config(&self, height: usize) -> Result<BloomRfConfig, ConfigError> {
        BloomRfConfig::basic(64, self.capacity(height), self.bits_per_key, 7)
    }

    /// Does `filter` have exactly the configuration of height `h`? The size
    /// test runs first, so a decoded geometry whose level filter could not
    /// fit in the filter at hand never reaches the config arithmetic.
    fn has_level_config(&self, filter: &BloomRf, height: usize) -> bool {
        self.capacity(height) as f64 * self.bits_per_key <= filter.memory_bits() as f64
            && self
                .level_config(height)
                .is_ok_and(|config| config == *filter.config())
    }

    /// An empty node for height `h`.
    fn empty_node(&self, height: usize) -> TreeNode {
        match self
            .level_config(height)
            .and_then(|config| BloomRf::builder().config(config).build())
        {
            Ok(filter) => TreeNode {
                filter,
                lo: u64::MAX,
                hi: 0,
            },
            // `basic` rejects only a domain outside 1..=64 or a gap outside
            // 1..=7, and this file passes the constants 64 and 7.
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
    /// bloomRF with exactly the leaf configuration, the leaf is its
    /// bit-for-bit union via [`BloomRf::merge_from`]; otherwise the keys are
    /// re-hashed into a fresh filter.
    fn make_leaf(&self, sst: &SsTable, keys: &[u64]) -> TreeNode {
        let mut node = self.empty_node(0);
        let adopted = sst
            .filter()
            .serialize()
            .and_then(|bytes| BloomRf::from_bytes(&bytes).ok())
            .filter(|persisted| self.has_level_config(persisted, 0))
            .is_some_and(|persisted| node.filter.merge_from(&persisted).is_ok());
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

    /// Full rebuild from the live SST set — the recovery fallback when the
    /// persisted `TREE` file is missing, corrupt or stale.
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
    /// `(node, key)` pair that passes its fence is prefetched before any is
    /// tested.
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
                filter.prefetch_probe(&lane.probe);
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

    /// Serialize the tree into the checksummed `TREE` wire format (see
    /// `docs/wire-format.md`): magic + version, then v2-style
    /// `tag | length | body | crc32(body)` sections for the geometry and the
    /// node payloads. The live-leaf count and every node's live flag are
    /// written as "all live" — no leaf is ever tombstoned.
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

    /// Decode a persisted tree, verifying magic, version, every section
    /// checksum, the geometry, and that every node filter has its level's
    /// configuration (the descent tests one level's shared probe positions
    /// against every node of that level). A tombstoned leaf — which no
    /// current writer produces — is corruption, so recovery rebuilds.
    /// Structural staleness against the live SST set is the caller's check
    /// ([`FilterTree::validate_against`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Corruption> {
        let mut cursor = 0usize;
        if persist::take(bytes, &mut cursor, 4, "tree-header")? != TREE_MAGIC {
            return Err(Corruption::new("tree-header", "bad magic number"));
        }
        let version = persist::take_u32(bytes, &mut cursor, "tree-header")?;
        if version != TREE_FORMAT_VERSION {
            return Err(Corruption::new(
                "tree-header",
                format!("unsupported format version {version}"),
            ));
        }
        let meta = persist::take_section(bytes, &mut cursor, SECTION_META, "tree-meta")?;
        let mut at = 0usize;
        let fanout = persist::take_u32(meta, &mut at, "tree-meta")? as usize;
        if fanout < 2 {
            return Err(Corruption::new(
                "tree-meta",
                format!("fan-out {fanout} < 2"),
            ));
        }
        let leaf_keys = persist::take_u64(meta, &mut at, "tree-meta")? as usize;
        let bits_per_key = f64::from_bits(persist::take_u64(meta, &mut at, "tree-meta")?);
        if !(bits_per_key.is_finite() && bits_per_key >= 1.0) {
            return Err(Corruption::new(
                "tree-meta",
                format!("implausible bits/key {bits_per_key}"),
            ));
        }
        let live_leaves = persist::take_u64(meta, &mut at, "tree-meta")? as usize;
        let n_levels = persist::take_u32(meta, &mut at, "tree-meta")? as usize;
        if n_levels > 64 {
            return Err(Corruption::new(
                "tree-meta",
                format!("implausible level count {n_levels}"),
            ));
        }
        let mut level_lens = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            level_lens.push(persist::take_u64(meta, &mut at, "tree-meta")? as usize);
        }
        // The level geometry must be the complete fan-out-F shape push_leaf
        // maintains; anything else is corruption or a foreign file.
        let n_leaves = level_lens.first().copied().unwrap_or(0);
        if n_levels != 0 && n_levels != required_levels(n_leaves, fanout) {
            return Err(Corruption::new("tree-meta", "level count mismatch"));
        }
        let mut span = 1usize;
        for (height, &len) in level_lens.iter().enumerate() {
            if height > 0 {
                span = span.saturating_mul(fanout);
            }
            if len != n_leaves.div_ceil(span.max(1)) {
                return Err(Corruption::new(
                    "tree-meta",
                    format!("level {height} has {len} nodes, geometry disagrees"),
                ));
            }
        }
        if live_leaves != n_leaves {
            return Err(Corruption::new("tree-meta", "tombstoned leaves"));
        }

        let mut tree = Self {
            fanout,
            leaf_keys,
            bits_per_key,
            levels: Vec::with_capacity(n_levels),
        };
        let nodes = persist::take_section(bytes, &mut cursor, SECTION_NODES, "tree-nodes")?;
        let mut at = 0usize;
        for (height, &len) in level_lens.iter().enumerate() {
            let mut level = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let lo = persist::take_u64(nodes, &mut at, "tree-nodes")?;
                let hi = persist::take_u64(nodes, &mut at, "tree-nodes")?;
                if persist::take(nodes, &mut at, 1, "tree-nodes")? != [1] {
                    return Err(Corruption::new("tree-nodes", "tombstoned node"));
                }
                let filter_len = persist::take_u64(nodes, &mut at, "tree-nodes")? as usize;
                let filter_bytes = persist::take(nodes, &mut at, filter_len, "tree-nodes")?;
                let filter = BloomRf::from_bytes(filter_bytes)
                    .map_err(|e| Corruption::new("tree-nodes", format!("node filter: {e}")))?;
                if !tree.has_level_config(&filter, height) {
                    return Err(Corruption::new(
                        "tree-nodes",
                        format!("node filter at height {height} has a foreign configuration"),
                    ));
                }
                level.push(TreeNode { filter, lo, hi });
            }
            tree.levels.push(level);
        }
        Ok(tree)
    }

    /// Does a decoded tree still describe this SST set under these options?
    /// Checked on recovery: a `false` answer (e.g. the TREE file survived a
    /// crash the MANIFEST did not, or tuning changed) falls back to
    /// [`FilterTree::build_from_ssts`].
    pub fn validate_against(
        &self,
        ssts: &[SsTable],
        fanout: usize,
        leaf_keys: usize,
        bits_per_key: f64,
    ) -> bool {
        self.fanout == fanout.max(2)
            && self.leaf_keys == leaf_keys.max(1)
            && self.bits_per_key == bits_per_key.max(1.0)
            && self.num_leaves() == ssts.len()
            && self.levels.first().map_or(true, |leaves| {
                leaves
                    .iter()
                    .zip(ssts)
                    .all(|(leaf, sst)| (leaf.lo, leaf.hi) == sst.key_range())
            })
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
        // The spliced tree stays compatible with validation, persistence and
        // further growth.
        assert!(tree.validate_against(&ssts, 3, 4, 14.0));
        let decoded = FilterTree::from_bytes(&tree.to_bytes()).expect("roundtrip");
        assert!(decoded.validate_against(&ssts, 3, 4, 14.0));
        ssts.push(sst_of(&[90_000, 90_001], FilterKind::BloomRfBasic));
        tree.push_leaf(&ssts);
        assert_eq!(tree.num_leaves(), 10);
        assert!(tree.candidates_point(90_000, &stats).contains(&9));
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
        assert!(tree.validate_against(&ssts, 3, 4, 14.0));
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
        // An emptied tree accepts fresh leaves again.
        let fresh = vec![sst_of(&[5, 6], FilterKind::BloomRfBasic)];
        tree.push_leaf(&fresh);
        assert!(tree.candidates_point(5, &stats).contains(&0));
    }

    #[test]
    fn leaf_adoption_unions_matching_sst_filters() {
        // leaf_keys == per-SST key count and the same bits/key with the
        // basic family ⇒ the SST's own filter block has exactly the leaf
        // configuration, so make_leaf takes the merge_from path. The leaf
        // must be bit-identical to the re-hash path.
        let keys: Vec<u64> = (0..64u64).map(|i| i * 97).collect();
        let sst = sst_of(&keys, FilterKind::BloomRfBasic);
        let tree = FilterTree::new(4, keys.len(), 14.0);
        let adopted = tree.make_leaf(&sst, &keys);
        assert_eq!(adopted.filter.key_count(), keys.len() as u64);
        let mut rehashed = tree.empty_node(0);
        rehashed.absorb(&keys);
        assert_eq!(
            adopted.filter.snapshot_bits(),
            rehashed.filter.snapshot_bits()
        );
        assert_eq!((adopted.lo, adopted.hi), (keys[0], keys[63]));
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let (ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        let bytes = tree.to_bytes();
        let decoded = FilterTree::from_bytes(&bytes).expect("roundtrip");
        assert!(decoded.validate_against(&ssts, 3, 4, 14.0));
        assert_eq!(decoded.num_leaves(), 12);
        assert_eq!(decoded.depth(), tree.depth());
        // The decoded tree routes identically.
        for i in 0..12u64 {
            assert_eq!(
                decoded.candidates_point(i * 1000, &stats),
                tree.candidates_point(i * 1000, &stats)
            );
        }
        // Stale against a different SST set or different tuning.
        assert!(!decoded.validate_against(&ssts[..11], 3, 4, 14.0));
        assert!(!decoded.validate_against(&ssts, 4, 4, 14.0));
        assert!(!decoded.validate_against(&ssts, 3, 4, 18.0));
    }

    #[test]
    fn wire_corruption_is_detected() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let good = tree.to_bytes();
        assert!(FilterTree::from_bytes(&good[..6]).is_err(), "truncation");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(FilterTree::from_bytes(&bad_magic).is_err(), "magic");
        // Flip one byte in every 97th position: each flip must surface as a
        // checksum/structure error, never a silently different tree.
        for at in (8..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(FilterTree::from_bytes(&bad).is_err(), "flip at {at}");
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
        let decoded = FilterTree::from_bytes(&tree.to_bytes()).expect("empty roundtrip");
        assert!(decoded.validate_against(&[], 16, 8, 14.0));
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

    #[test]
    fn foreign_config_and_tombstoned_nodes_fail_to_decode() {
        let decode_err = |tree: &FilterTree| {
            FilterTree::from_bytes(&tree.to_bytes())
                .err()
                .expect("a node off its level config must not decode")
        };
        // A leaf holding an inner level's (larger) configuration.
        let (ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let mut foreign = tree.empty_node(1);
        foreign.absorb(&ssts[4].keys());
        tree.levels[0][4] = foreign;
        assert_eq!(decode_err(&tree).section, "tree-nodes");
        // A leaf of the same size under another hash seed.
        let (ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let config = tree.level_config(0).unwrap().with_seed(99);
        let filter = BloomRf::builder().config(config).build().unwrap();
        filter.insert_batch(&ssts[7].keys());
        tree.levels[0][7].filter = filter;
        assert_eq!(decode_err(&tree).section, "tree-nodes");
        // An inner node with the leaf configuration.
        let (_ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        tree.levels[1][0].filter = tree.empty_node(0).filter;
        assert_eq!(decode_err(&tree).section, "tree-nodes");

        // A tombstoned leaf: flip the first node's live flag (the byte after
        // its two fences) and re-seal the section.
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let good = tree.to_bytes();
        let mut cursor = 8;
        let meta = persist::take_section(&good, &mut cursor, SECTION_META, "m").unwrap();
        let nodes = persist::take_section(&good, &mut cursor, SECTION_NODES, "n").unwrap();
        let mut tombstoned = nodes.to_vec();
        assert_eq!(tombstoned[16], 1);
        tombstoned[16] = 0;
        let mut bad = good[..8].to_vec();
        persist::push_section(&mut bad, SECTION_META, meta);
        persist::push_section(&mut bad, SECTION_NODES, &tombstoned);
        let err = FilterTree::from_bytes(&bad)
            .err()
            .expect("tombstone decoded");
        assert_eq!(err.section, "tree-nodes");
    }
}
