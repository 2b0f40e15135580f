//! The bloomRF point-range filter (Sect. 3, 4 and 7 of the paper).
//!
//! A [`BloomRf`] is configured by a [`BloomRfConfig`]: a stack of
//! probabilistic layers (each with its own dyadic level, word size, replica
//! count and memory segment) optionally topped by an exactly-stored level.
//! Insertions and point lookups behave like a Bloom filter whose hash
//! functions are piecewise-monotone prefix hashes; range lookups run the
//! two-path algorithm (Algorithm 1), probing at most a handful of words per
//! layer independently of the query-range size.
//!
//! The filter is *online*: `insert` takes `&self` and may run concurrently
//! with lookups (the bit arrays are atomic), which is the property Experiment
//! 4 of the paper evaluates.
//!
//! ## Storage and the batched probe engine
//!
//! A filter keeps every memory segment and the exact-layer bitmap in one
//! [`AtomicBits`] word buffer, each at a fixed word offset derived from the
//! configuration: the paper's single logical bit array split into per-layer
//! segments. Probe positions are absolute bit positions in that buffer, so
//! a [`PointProbe`] computed by one filter tests any filter of the same
//! configuration through its buffer handle ([`BloomRf::bits`]) alone.
//! Construct filters with [`BloomRf::builder`].
//!
//! Because the PMHF probes of different dyadic levels are independent, the
//! probe engine also exposes batched entry points —
//! [`BloomRf::insert_batch`], [`BloomRf::contains_point_batch`] and
//! [`BloomRf::contains_range_batch`]. Overlapping the probes of many keys
//! only pays when their cache lines miss, so each filter decides once, at
//! construction, from its own size (`kernel::KERNEL_MIN_FILTER_BITS`):
//! below the crossover the point batch is a loop over the early-exit
//! per-key lookup; at or above it every point lookup runs the steps of a
//! [`PointProbe`] — one key at a time for `contains_point`, a window of keys
//! per step for the batch call. A range reads a bounded number of words per
//! layer, so a range batch is a loop over [`BloomRf::contains_range`] on
//! both sides. Either way exactly the same logical bits are read, so the
//! answers are bit-identical by construction (and proven so by the
//! differential property tests).

use crate::sync::atomic::{AtomicU64, Ordering};

use crate::bitarray::{mask_between, words_for_bits, AtomicBits, BitVec};
use crate::config::{BloomRfConfig, RangePolicy};
use crate::crc32::crc32;
use crate::error::{ConfigError, DecodeError, MergeError};
use crate::hashing::{derive_seeds, shl, shr, Pmhf, WordLayout};
use crate::kernel::KERNEL_MIN_FILTER_BITS;
use crate::traits::{OnlineFilter, PointRangeFilter};

/// Probe-cost counters collected during a range lookup; used by the
/// cost-breakdown experiment (Fig. 12.G) and by the tests that verify the
/// constant-query-complexity claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Number of word loads from the probabilistic segments.
    pub word_accesses: usize,
    /// Number of single-bit covering checks.
    pub bit_checks: usize,
    /// Number of exact-layer bitmap probes (bits or word scans).
    pub exact_probes: usize,
    /// Number of layers visited before the lookup terminated.
    pub layers_visited: usize,
}

/// Pre-computed per-layer state: the replica PMHFs and the word geometry of the
/// segment the layer writes to.
#[derive(Clone, Debug)]
struct LayerRuntime {
    level: u32,
    offset_bits: u32,
    word_bits: u32,
    /// First bit of the layer's segment in the filter's buffer.
    base: usize,
    word_count: u64,
    hashers: Vec<Pmhf>,
}

impl LayerRuntime {
    /// The layer's replica hashes as `key → bit` functions, each giving the
    /// key's bit in the filter's buffer, for loops over many keys per
    /// replica. The geometry and the hash are copied into each function:
    /// read through a reference, they are reloaded after every atomic access
    /// of the caller's loop (copying made a 512-key `insert_batch` 10 % faster
    /// on a cache-resident filter and 22 % on a 32 Mbit one).
    #[inline]
    fn replicas(&self) -> impl Iterator<Item = impl Fn(u64) -> usize> + '_ {
        let (base, word_count) = (self.base, self.word_count);
        (self.hashers.iter())
            .map(move |&h| move |key| base + h.bit_position(key, word_count) as usize)
    }

    /// `key`'s bit for each replica, in the filter's buffer. Each hash is
    /// read once here anyway, so only the geometry is copied.
    #[inline]
    fn bits_of(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let (base, word_count) = (self.base, self.word_count);
        (self.hashers.iter()).map(move |h| base + h.bit_position(key, word_count) as usize)
    }
}

/// The bloomRF filter. Build one with [`BloomRf::builder`].
#[derive(Debug)]
pub struct BloomRf {
    config: BloomRfConfig,
    layers: Vec<LayerRuntime>,
    /// Every segment, then the exact bitmap, back to back.
    bits: AtomicBits,
    /// `(first word, bits)` of each segment in `bits`, then of the exact
    /// bitmap: the bit arrays of the wire format, in order.
    regions: Vec<(usize, usize)>,
    /// First bit of the exact bitmap in `bits`, with an exact layer.
    exact: Option<usize>,
    key_count: AtomicU64,
    /// `memory_bits() >= KERNEL_MIN_FILTER_BITS`, fixed at construction:
    /// point lookups overlap their probes (the prefetched [`PointProbe`]
    /// drivers) instead of running the early-exit per-key loop. Ranges do
    /// not look at it. The benchmark has a workload on each side of the
    /// choice: `filter_small` (and every SST and tree-leaf filter of the
    /// `store_*` workloads) runs the loop, `filter_large` (256 Mbit) runs
    /// the overlapped drivers; the cells behind each driver are in
    /// `docs/probe-kernel.md`.
    overlap_probes: bool,
}

/// State of one two-path range lookup between layer steps.
///
/// While `merged`, a single covering DI contains the whole query; after the
/// split the left/right coverings are tracked independently and die when
/// their single-bit check fails. `outcome` is set the moment the lookup can
/// terminate early (definite hit, budget exhaustion, or both paths dead).
struct RangeState {
    lo: u64,
    hi: u64,
    merged: bool,
    left_alive: bool,
    right_alive: bool,
    parent_level: u32,
    outcome: Option<bool>,
}

/// Bit positions a [`PointProbe`] holds inline. Every basic configuration
/// (at most ⌈64 / Δ⌉ single-replica layers) fits; positions past the window —
/// only heavily replicated configurations have them — are recomputed from
/// the key when tested, so they are probed but never prefetched.
const PROBE_WINDOW: usize = 16;

/// Keys the overlapped batch path keeps in flight: each stage of its
/// schedule runs over this many probes before the next stage starts.
const BATCH_WINDOW: usize = 16;

/// One key's probe positions under one filter configuration:
/// [`BloomRf::contains_point`] split into its setup
/// ([`BloomRf::point_probe_into`]), prefetching ([`BloomRf::prefetch_exact`],
/// [`BloomRf::prefetch_probe`]) and testing ([`BloomRf::exact_admits`],
/// [`BloomRf::contains_probe`]) steps, so that a caller probing one key
/// against many filters of the *same* configuration — the sibling nodes of a
/// filter-tree level — hashes it at most once and requests every filter's
/// cache lines before testing any. It is also the only point computation of
/// the overlapped lookups: `contains_point` and the batch calls of a filter
/// above the size crossover run these steps on the filter's own buffer.
/// Plain data meant for the stack; reuse one across keys.
///
/// The positions are absolute bit positions in a filter's buffer, which
/// puts every region at an offset fixed by the configuration. So the
/// split-probe methods run on the filter that computed the probe — which
/// hashes it and knows the layout — and take the buffer to test as a
/// separate [`AtomicBits`] handle: any filter's whose configuration equals
/// (`==`) the computing one's. Testing a probe against any other buffer
/// reads unrelated bits — a false negative — or panics on a position beyond
/// its end.
#[derive(Clone, Debug, Default)]
pub struct PointProbe {
    key: u64,
    /// `false` for a key outside the domain: the probe misses everywhere.
    in_domain: bool,
    /// Exact-layer bit; read only when the configuration has an exact layer.
    exact: usize,
    /// `true` once the layer positions are in `slots`: the first
    /// [`BloomRf::prefetch_probe`] computes them, so a key the exact layer
    /// rejects everywhere is never hashed.
    hashed: bool,
    /// Slots filled, layer by layer and replica by replica.
    len: usize,
    /// Bit per position: testing needs no walk of the layers.
    slots: [usize; PROBE_WINDOW],
}

impl BloomRf {
    /// Reconstruct a filter from [`BloomRf::to_bytes`] output.
    ///
    /// Thin delegate kept for compatibility; prefer
    /// [`BloomRf::builder`]`().from_bytes(..)`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::from_bytes_with(bytes, None)
    }

    /// Build an empty filter from a configuration. Every construction path —
    /// build, decode, union — ends here, so this is where the filter picks
    /// its probe path from its own size.
    pub(crate) fn with_config(config: BloomRfConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let exact_bits = config
            .exact_level
            .map(|e| 1usize << (config.domain_bits - e).min(63));
        let mut regions = Vec::with_capacity(config.segment_bits.len() + 1);
        let mut words = 0;
        for &bits in config.segment_bits.iter().chain(&exact_bits) {
            regions.push((words, bits));
            words += words_for_bits(bits);
        }
        let exact = exact_bits.and(regions.last().map(|&(first, _)| first * 64));
        let seeds = derive_seeds(config.hash_seed, config.layers.len() * 8);
        let mut layers = Vec::with_capacity(config.layers.len());
        for (i, spec) in config.layers.iter().enumerate() {
            let word_bits = spec.word_bits();
            let (first, segment_bits) = regions[spec.segment];
            let word_count = (segment_bits as u64 / word_bits as u64).max(1);
            let hashers = (0..spec.replicas as usize)
                .map(|r| {
                    let mut h = Pmhf::new(spec.level, spec.offset_bits(), seeds[i * 8 + r]);
                    h.layout = config.word_layout;
                    h
                })
                .collect();
            layers.push(LayerRuntime {
                level: spec.level,
                offset_bits: spec.offset_bits(),
                word_bits,
                base: first * 64,
                word_count,
                hashers,
            });
        }
        let mut filter = Self {
            config,
            layers,
            bits: AtomicBits::new(words * 64),
            regions,
            exact,
            key_count: AtomicU64::new(0),
            overlap_probes: false,
        };
        filter.overlap_probes = filter.memory_bits() >= KERNEL_MIN_FILTER_BITS;
        Ok(filter)
    }

    /// Reconstruct a filter from [`BloomRf::to_bytes`] output. The stream
    /// persists the full configuration, so only `range_policy` — a pure
    /// run-time knob — can be overridden.
    pub(crate) fn from_bytes_with(
        bytes: &[u8],
        range_policy: Option<RangePolicy>,
    ) -> Result<Self, DecodeError> {
        let decoded = decode_parts(bytes)?;
        let mut config = decoded.config;
        if let Some(policy) = range_policy {
            config = config.with_range_policy(policy);
        }
        let filter = Self::with_config(config)?;
        filter.restore_arrays(&decoded.arrays)?;
        // ordering: single-threaded construction; the filter is published to
        // other threads by whatever hands out the reference.
        filter.key_count.store(decoded.key_count, Ordering::Relaxed);
        Ok(filter)
    }

    /// The configuration this filter was built from.
    pub fn config(&self) -> &BloomRfConfig {
        &self.config
    }

    /// Number of keys inserted so far.
    pub fn key_count(&self) -> u64 {
        // ordering: statistics gauge; may lag concurrent inserts.
        self.key_count.load(Ordering::Relaxed)
    }

    /// Total memory used by the filter payload, in bits.
    pub fn memory_bits(&self) -> usize {
        self.bits.capacity_bits()
    }

    /// The handle of this filter's word buffer, which holds all of its bits:
    /// what the split-probe methods ([`BloomRf::contains_probe`] and its
    /// steps) test a [`PointProbe`] against.
    pub fn bits(&self) -> &AtomicBits {
        &self.bits
    }

    /// `key`'s bit of the exact bitmap in the buffer, with an exact layer.
    #[inline]
    fn exact_bit(&self, key: u64) -> Option<usize> {
        let e = self.config.exact_level?;
        Some(self.exact? + shr(key, e) as usize)
    }

    /// Insert a key. Panics if the key does not fit the configured domain.
    pub fn insert(&self, key: u64) {
        assert!(
            key <= self.config.max_key(),
            "key {key} outside the {}-bit domain",
            self.config.domain_bits
        );
        let bits = &self.bits;
        if let Some(bit) = self.exact_bit(key) {
            bits.set(bit);
        }
        for layer in &self.layers {
            for bit in layer.bits_of(key) {
                bits.set(bit);
            }
        }
        // ordering: monotonic statistics counter; no other memory depends
        // on its value.
        self.key_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a batch of keys, grouping the writes *per layer*: one pass
    /// computes and sets every position of a layer before the next layer is
    /// touched, so each segment region stays hot for the whole batch.
    ///
    /// Equivalent to calling [`BloomRf::insert`] for every key. Panics if any
    /// key is outside the configured domain (checked before any bit is set).
    pub fn insert_batch(&self, keys: &[u64]) {
        for &key in keys {
            assert!(
                key <= self.config.max_key(),
                "key {key} outside the {}-bit domain",
                self.config.domain_bits
            );
        }
        let bits = &self.bits;
        if let (Some(base), Some(e)) = (self.exact, self.config.exact_level) {
            for &key in keys {
                bits.set(base + shr(key, e) as usize);
            }
        }
        for layer in &self.layers {
            for bit_of in layer.replicas() {
                for &key in keys {
                    bits.set(bit_of(key));
                }
            }
        }
        self.key_count
            // ordering: monotonic statistics counter (see `insert`).
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
    }

    /// Approximate point membership test. The exact-layer bit is tested
    /// first; only a key it admits has its layer positions computed. Below
    /// the size crossover the layers are then probed one by one, stopping at
    /// the first unset bit; at or above it every position is prefetched
    /// before any is tested ([`PointProbe`] on the filter's own buffer).
    pub fn contains_point(&self, key: u64) -> bool {
        if key > self.config.max_key() {
            return false;
        }
        if let Some(bit) = self.exact_bit(key) {
            if !self.bits.get(bit) {
                return false;
            }
        }
        if self.overlap_probes {
            let mut probe = PointProbe::default();
            self.point_probe_into(key, &mut probe);
            self.prefetch_probe(&mut probe, &self.bits);
            self.layers_admit(&probe, &self.bits)
        } else {
            self.layers
                .iter()
                .all(|layer| self.layer_bit_set(layer, key))
        }
    }

    /// Start `key`'s probe under this filter's configuration in `probe`,
    /// overwriting it: the domain check and the exact-layer bit. The layer
    /// positions — the hashing step of [`BloomRf::contains_point`] — are
    /// computed by the first [`BloomRf::prefetch_probe`] of the probe. See
    /// [`PointProbe`] for which filters may test the result.
    pub fn point_probe_into(&self, key: u64, probe: &mut PointProbe) {
        probe.key = key;
        probe.in_domain = key <= self.config.max_key();
        probe.hashed = false;
        probe.len = 0;
        if let (true, Some(bit)) = (probe.in_domain, self.exact_bit(key)) {
            probe.exact = bit;
        }
    }

    /// Fill `probe`'s slots with its key's layer positions, requesting the
    /// cache line of each in `bits` as soon as it is computed: the first
    /// loads then overlap the remaining hash work.
    fn hash_probe(&self, probe: &mut PointProbe, bits: &AtomicBits) {
        let key = probe.key;
        probe.hashed = true;
        let positions = self.layers.iter().flat_map(|layer| layer.bits_of(key));
        for (bit, slot) in positions.zip(&mut probe.slots) {
            bits.prefetch_bit(bit);
            *slot = bit;
            probe.len += 1;
        }
    }

    /// Request the cache line of `probe`'s exact-layer bit in `bits` only
    /// (nothing without an exact layer): the hint for a following
    /// [`BloomRf::exact_admits`].
    pub fn prefetch_exact(&self, probe: &PointProbe, bits: &AtomicBits) {
        if probe.in_domain && self.exact.is_some() {
            bits.prefetch_bit(probe.exact);
        }
    }

    /// The exact layer's verdict on `probe` in `bits`, the first test
    /// [`BloomRf::contains_probe`] makes: `false` for a key outside the
    /// domain or with its exact-layer bit clear — then `contains_probe` is
    /// `false` too — and `true` otherwise, or without an exact layer. One
    /// cache line decides it, so a caller probing many filters can drop the
    /// rejected ones before fetching any layer position of the rest.
    pub fn exact_admits(&self, probe: &PointProbe, bits: &AtomicBits) -> bool {
        probe.in_domain && (self.exact.is_none() || bits.get(probe.exact))
    }

    /// Request the cache line of every layer position of `probe` in `bits`
    /// without reading any: a scheduling hint for a following
    /// [`BloomRf::contains_probe`]. The first call on a probe computes its
    /// layer positions. The exact-layer bit is not requested: its hint is
    /// [`BloomRf::prefetch_exact`], which a caller issues before
    /// [`BloomRf::exact_admits`] decides whether this call is worth making.
    pub fn prefetch_probe(&self, probe: &mut PointProbe, bits: &AtomicBits) {
        if !probe.in_domain {
            return;
        }
        if probe.hashed {
            for &bit in &probe.slots[..probe.len] {
                bits.prefetch_bit(bit);
            }
        } else {
            self.hash_probe(probe, bits);
        }
    }

    /// Test the positions in `probe` against `bits`: the verdict
    /// [`BloomRf::contains_point`] gives for the key `probe` was computed
    /// from, on the filter whose buffer `bits` is.
    pub fn contains_probe(&self, probe: &PointProbe, bits: &AtomicBits) -> bool {
        self.exact_admits(probe, bits) && self.layers_admit(probe, bits)
    }

    /// The layer half of [`BloomRf::contains_probe`], for a probe whose
    /// exact-layer bit its caller has already tested.
    #[inline]
    fn layers_admit(&self, probe: &PointProbe, bits: &AtomicBits) -> bool {
        let inline = probe.slots[..probe.len].iter().all(|&bit| bits.get(bit));
        // Positions not in the slots — all of them before the first
        // `prefetch_probe`, those past a full window after it — are computed
        // and tested here.
        inline
            && (probe.hashed && probe.len < PROBE_WINDOW
                || self
                    .layers
                    .iter()
                    .flat_map(|layer| layer.bits_of(probe.key))
                    .skip(probe.len)
                    .all(|bit| bits.get(bit)))
    }

    /// Batched point membership: answers element-wise identical to
    /// [`BloomRf::contains_point`]. Convenience form of
    /// [`BloomRf::contains_point_batch_into`] that allocates the answer
    /// vector.
    pub fn contains_point_batch(&self, keys: &[u64]) -> Vec<bool> {
        let mut out = Vec::new();
        self.contains_point_batch_into(keys, &mut out);
        out
    }

    /// Batched point membership into a caller-owned buffer (cleared first).
    /// Below the size crossover this is a loop over
    /// [`BloomRf::contains_point`]; at or above it the filter tree's
    /// two-stage schedule runs over windows of keys: every key's exact-layer
    /// bit is requested, then each key it admits is hashed and has its
    /// positions requested, and only then are the positions tested.
    pub fn contains_point_batch_into(&self, keys: &[u64], out: &mut Vec<bool>) {
        out.clear();
        if !self.overlap_probes {
            out.extend(keys.iter().map(|&k| self.contains_point(k)));
            return;
        }
        let bits = &self.bits;
        let mut probes: [PointProbe; BATCH_WINDOW] = Default::default();
        for chunk in keys.chunks(BATCH_WINDOW) {
            let window = &mut probes[..chunk.len()];
            for (probe, &key) in window.iter_mut().zip(chunk) {
                self.point_probe_into(key, probe);
                self.prefetch_exact(probe, bits);
            }
            for probe in window.iter_mut() {
                if self.exact_admits(probe, bits) {
                    self.prefetch_probe(probe, bits);
                }
            }
            // Exactly the probes the exact layer admitted have been hashed.
            out.extend(
                window
                    .iter()
                    .map(|p| p.hashed && self.layers_admit(p, bits)),
            );
        }
    }

    /// Approximate range emptiness test for the inclusive interval `[lo, hi]`.
    /// Returns `false` only if the filter can prove that no inserted key lies
    /// in the interval; `true` may be a false positive.
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        self.contains_range_counted(lo, hi).0
    }

    /// Range lookup that also reports probe-cost counters.
    pub fn contains_range_counted(&self, lo: u64, hi: u64) -> (bool, ProbeStats) {
        let mut stats = ProbeStats::default();
        let hi = hi.min(self.config.max_key());
        if lo > hi {
            return (false, stats);
        }
        if lo == hi {
            stats.bit_checks = self.layers.len();
            return (self.contains_point(lo), stats);
        }
        let budget = self.range_budget();
        let mut state = RangeState {
            lo,
            hi,
            merged: true,
            left_alive: true,
            right_alive: true,
            parent_level: 0,
            outcome: None,
        };
        self.range_exact_step(&mut state, budget, &mut stats);
        if let Some(answer) = state.outcome {
            return (answer, stats);
        }
        for layer in self.layers.iter().rev() {
            stats.layers_visited += 1;
            self.range_layer_step(layer, &mut state, budget, &mut stats);
            if let Some(answer) = state.outcome {
                return (answer, stats);
            }
        }
        // All decomposition intervals down to level 0 tested negative. The
        // bottom layer is at level 0, where every prefix is a point and is
        // absorbed into a decomposition run, so no covering can survive here.
        (false, stats)
    }

    /// Batched range lookup: answers element-wise identical to
    /// [`BloomRf::contains_range`]. Convenience form of
    /// [`BloomRf::contains_range_batch_into`] that allocates the answer
    /// vector.
    pub fn contains_range_batch(&self, ranges: &[(u64, u64)]) -> Vec<bool> {
        let mut out = Vec::new();
        self.contains_range_batch_into(ranges, &mut out);
        out
    }

    /// Batched range lookup into a caller-owned buffer (cleared first): a
    /// loop over [`BloomRf::contains_range`] on both sides of the size
    /// crossover. One range reads a few independent words per layer, which
    /// leaves a cross-query schedule little to overlap
    /// (`docs/probe-kernel.md` has the measurements).
    pub fn contains_range_batch_into(&self, ranges: &[(u64, u64)], out: &mut Vec<bool>) {
        out.clear();
        out.extend(ranges.iter().map(|&(lo, hi)| self.contains_range(lo, hi)));
    }

    /// Word-access budget per layer implied by the configured range policy.
    #[inline]
    fn range_budget(&self) -> usize {
        match self.config.range_policy {
            RangePolicy::Exact => usize::MAX,
            RangePolicy::Conservative {
                max_words_per_layer,
            } => max_words_per_layer,
        }
    }

    /// Run the exactly-stored topmost layer (when configured) and initialize
    /// the parent level for the probabilistic pipeline.
    fn range_exact_step(&self, state: &mut RangeState, budget: usize, stats: &mut ProbeStats) {
        let (lo, hi) = (state.lo, state.hi);
        if let (Some(base), Some(e)) = (self.exact, self.config.exact_level) {
            let exact = |prefix: u64| self.bits.get(base + prefix as usize);
            let lp = shr(lo, e);
            let rp = shr(hi, e);
            if lp == rp {
                stats.exact_probes += 1;
                if !exact(lp) {
                    state.outcome = Some(false);
                    return;
                }
                if di_start(lp, e) == lo && di_end(lp, e) == hi {
                    // The query is exactly this dyadic interval → exact answer.
                    state.outcome = Some(true);
                    return;
                }
            } else {
                // Fully-contained middle region: exact, so a set bit is a true positive.
                let run_lo = if di_start(lp, e) == lo { lp } else { lp + 1 };
                let run_hi = if di_end(rp, e) == hi { rp } else { rp - 1 };
                if run_lo <= run_hi {
                    let words = ((run_hi - run_lo) / 64 + 1) as usize;
                    stats.exact_probes += words;
                    if words > budget {
                        state.outcome = Some(true);
                        return;
                    }
                    if self
                        .bits
                        .any_set_in(base + run_lo as usize, base + run_hi as usize)
                    {
                        state.outcome = Some(true);
                        return;
                    }
                }
                state.merged = false;
                state.left_alive = di_start(lp, e) != lo && {
                    stats.exact_probes += 1;
                    exact(lp)
                };
                state.right_alive = di_end(rp, e) != hi && {
                    stats.exact_probes += 1;
                    exact(rp)
                };
                if !state.left_alive && !state.right_alive {
                    state.outcome = Some(false);
                    return;
                }
            }
            state.parent_level = e;
        } else {
            state.parent_level = self.config.top_boundary().max(self.config.domain_bits);
        }
    }

    /// Advance one range lookup through a single probabilistic layer of the
    /// two-path algorithm: the layer is one partition of the filter, probed
    /// once per lookup.
    fn range_layer_step(
        &self,
        layer: &LayerRuntime,
        state: &mut RangeState,
        budget: usize,
        stats: &mut ProbeStats,
    ) {
        let (lo, hi) = (state.lo, state.hi);
        let level = layer.level;
        let lp = shr(lo, level);
        let rp = shr(hi, level);
        if state.merged {
            if lp == rp {
                // Single covering DI; if it happens to be exactly the query
                // interval it is a decomposition interval instead.
                stats.bit_checks += layer.hashers.len();
                let set = self.layer_bit_set(layer, lo);
                if di_start(lp, level) == lo && di_end(rp, level) == hi {
                    state.outcome = Some(set);
                    return;
                }
                if !set {
                    state.outcome = Some(false);
                    return;
                }
            } else {
                // The two paths split at this layer.
                let run_lo = if di_start(lp, level) == lo {
                    lp
                } else {
                    lp + 1
                };
                let run_hi = if di_end(rp, level) == hi { rp } else { rp - 1 };
                if run_lo <= run_hi {
                    match self.layer_run_any(layer, run_lo, run_hi, budget, stats) {
                        RunOutcome::Found | RunOutcome::BudgetExceeded => {
                            state.outcome = Some(true);
                            return;
                        }
                        RunOutcome::Empty => {}
                    }
                }
                state.merged = false;
                state.left_alive = di_start(lp, level) != lo && {
                    stats.bit_checks += layer.hashers.len();
                    self.layer_bit_set(layer, lo)
                };
                state.right_alive = di_end(rp, level) != hi && {
                    stats.bit_checks += layer.hashers.len();
                    self.layer_bit_set(layer, hi)
                };
                if !state.left_alive && !state.right_alive {
                    state.outcome = Some(false);
                    return;
                }
            }
        } else {
            // Split phase: the left and right paths proceed independently
            // inside their parent coverings.
            if state.left_alive {
                let span = state.parent_level - level;
                let parent_last = shl(shr(lo, state.parent_level) + 1, span).wrapping_sub(1);
                let run_lo = if di_start(lp, level) == lo {
                    lp
                } else {
                    lp + 1
                };
                if run_lo <= parent_last {
                    match self.layer_run_any(layer, run_lo, parent_last, budget, stats) {
                        RunOutcome::Found | RunOutcome::BudgetExceeded => {
                            state.outcome = Some(true);
                            return;
                        }
                        RunOutcome::Empty => {}
                    }
                }
                state.left_alive = di_start(lp, level) != lo && {
                    stats.bit_checks += layer.hashers.len();
                    self.layer_bit_set(layer, lo)
                };
            }
            if state.right_alive {
                let span = state.parent_level - level;
                let parent_first = shl(shr(hi, state.parent_level), span);
                let run_hi = if di_end(rp, level) == hi { rp } else { rp - 1 };
                if parent_first <= run_hi {
                    match self.layer_run_any(layer, parent_first, run_hi, budget, stats) {
                        RunOutcome::Found | RunOutcome::BudgetExceeded => {
                            state.outcome = Some(true);
                            return;
                        }
                        RunOutcome::Empty => {}
                    }
                }
                state.right_alive = di_end(rp, level) != hi && {
                    stats.bit_checks += layer.hashers.len();
                    self.layer_bit_set(layer, hi)
                };
            }
            if !state.left_alive && !state.right_alive {
                state.outcome = Some(false);
                return;
            }
        }
        state.parent_level = level;
    }

    /// Are all replica bits of `layer` set for `key`?
    #[inline]
    fn layer_bit_set(&self, layer: &LayerRuntime, key: u64) -> bool {
        let bits = &self.bits;
        layer.bits_of(key).all(|bit| bits.get(bit))
    }

    /// Probe every level-`layer.level` prefix in `[run_lo, run_hi]`: is there a
    /// prefix whose bits are set in all replicas? Uses masked word accesses —
    /// one load per replica per touched word.
    fn layer_run_any(
        &self,
        layer: &LayerRuntime,
        run_lo: u64,
        run_hi: u64,
        budget: usize,
        stats: &mut ProbeStats,
    ) -> RunOutcome {
        debug_assert!(run_lo <= run_hi);
        // The geometry, the reference hash and the replica slice are copied
        // out of the layer table, as in the point and insert loops: read
        // through `layer`, they are reloaded after every atomic word load.
        let (base, word_count, word_bits) = (layer.base, layer.word_count, layer.word_bits);
        let (offset_bits, hashers) = (layer.offset_bits, &layer.hashers[..]);
        let ref_hash = hashers[0];
        let wb = word_bits as u64;
        let mut group = run_lo >> offset_bits;
        let last_group = run_hi >> offset_bits;
        let mut words_touched = 0usize;
        while group <= last_group {
            words_touched += 1;
            if words_touched > budget {
                return RunOutcome::BudgetExceeded;
            }
            let g_lo = (group << offset_bits).max(run_lo);
            let g_hi = ((group << offset_bits) + (wb - 1)).min(run_hi);
            // In-word offsets; the alternating layout reverses the range but it
            // stays contiguous, so a single mask still covers it.
            let o_lo = ref_hash.apply_layout(group, g_lo & (wb - 1));
            let o_hi = ref_hash.apply_layout(group, g_hi & (wb - 1));
            let (m_lo, m_hi) = if o_lo <= o_hi {
                (o_lo, o_hi)
            } else {
                (o_hi, o_lo)
            };
            let mask = mask_between(m_lo as usize, m_hi as usize);
            let mut combined = u64::MAX;
            for h in hashers {
                stats.word_accesses += 1;
                let widx = h.word_index_of_hashed(group, word_count);
                let start = base + (widx * wb) as usize;
                combined &= self.bits.load_word(start, word_bits);
                if combined & mask == 0 {
                    break;
                }
            }
            if combined & mask != 0 {
                return RunOutcome::Found;
            }
            group += 1;
        }
        RunOutcome::Empty
    }

    /// Occupancy (fraction of set bits) of each probabilistic segment —
    /// exposed for the scatter analysis and the FPR model validation.
    pub fn segment_load_factors(&self) -> Vec<f64> {
        self.regions[..self.config.segment_bits.len()]
            .iter()
            .map(|&(first, bits)| {
                let words = words_for_bits(bits);
                self.bits.count_ones_in(first..first + words) as f64 / (words * 64).max(1) as f64
            })
            .collect()
    }

    /// Snapshot the probabilistic segments (index 0..S) and the exact bitmap
    /// (last, if present) as plain bit vectors.
    pub fn snapshot_bits(&self) -> Vec<BitVec> {
        self.regions
            .iter()
            .map(|&(first, bits)| self.bits.snapshot_region(first, bits))
            .collect()
    }

    /// Serialize the filter (configuration + bit arrays) into a byte buffer,
    /// as the LSM substrate stores it in an SST filter block.
    ///
    /// Writes wire format **v2** (see `docs/wire-format.md`): a magic +
    /// version prelude followed by self-describing, length-prefixed sections
    /// — header, config, bits — each closed by a CRC-32 of its body. The
    /// config section carries the *complete* [`BloomRfConfig`], including
    /// `range_policy` and `word_layout`, so a bare [`BloomRf::from_bytes`]
    /// restores any filter exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(WIRE_MAGIC);
        out.extend_from_slice(&WIRE_FORMAT_VERSION.to_le_bytes());

        let mut body = Vec::new();
        body.extend_from_slice(&self.key_count().to_le_bytes());
        push_section(&mut out, SECTION_HEADER, &body);

        let cfg = &self.config;
        let mut body = Vec::new();
        body.extend_from_slice(&cfg.domain_bits.to_le_bytes());
        body.extend_from_slice(&(cfg.layers.len() as u32).to_le_bytes());
        for l in &cfg.layers {
            body.extend_from_slice(&l.level.to_le_bytes());
            body.extend_from_slice(&l.gap.to_le_bytes());
            body.extend_from_slice(&l.replicas.to_le_bytes());
            body.extend_from_slice(&(l.segment as u32).to_le_bytes());
        }
        body.extend_from_slice(&(cfg.segment_bits.len() as u32).to_le_bytes());
        for s in &cfg.segment_bits {
            body.extend_from_slice(&(*s as u64).to_le_bytes());
        }
        let exact_level: i64 = cfg.exact_level.map(|e| e as i64).unwrap_or(-1);
        body.extend_from_slice(&exact_level.to_le_bytes());
        body.extend_from_slice(&cfg.hash_seed.to_le_bytes());
        match cfg.range_policy {
            RangePolicy::Exact => {
                body.push(0);
                body.extend_from_slice(&0u64.to_le_bytes());
            }
            RangePolicy::Conservative {
                max_words_per_layer,
            } => {
                body.push(1);
                body.extend_from_slice(&(max_words_per_layer as u64).to_le_bytes());
            }
        }
        body.push(match cfg.word_layout {
            WordLayout::Forward => 0,
            WordLayout::Alternating => 1,
        });
        push_section(&mut out, SECTION_CONFIG, &body);

        let mut body = Vec::new();
        let arrays = self.snapshot_bits();
        body.extend_from_slice(&(arrays.len() as u32).to_le_bytes());
        for bv in arrays {
            let bytes = bv.to_bytes();
            body.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            body.extend_from_slice(&bytes);
        }
        push_section(&mut out, SECTION_BITS, &body);
        out
    }

    /// OR decoded bit arrays into this (empty) filter's stores, validating
    /// that every array matches the geometry the configuration implies.
    fn restore_arrays(&self, arrays: &[BitVec]) -> Result<(), DecodeError> {
        if arrays.len() != self.regions.len() {
            return Err(DecodeError::BitArrayCorrupted {
                index: arrays.len(),
            });
        }
        for (index, (&(first, bits), bv)) in self.regions.iter().zip(arrays).enumerate() {
            if bv.capacity_bits() != words_for_bits(bits) * 64 {
                return Err(DecodeError::BitArrayCorrupted { index });
            }
            self.bits.or_words(first, bv.words());
        }
        Ok(())
    }

    /// Union another filter into this one: after `a.merge_from(&b)`, `a`
    /// answers *maybe* for every key and range either filter answered *maybe*
    /// for (the merged filter is exactly the filter that would result from
    /// inserting both key sets into one filter — bloomRF writes are ORs, so
    /// the union of the bit sets is the filter of the union of the key sets).
    ///
    /// This is the aggregation primitive of Bloofi-style filter trees: an
    /// inner tree node holds the union of its children's filters, so one
    /// negative probe prunes the whole subtree.
    ///
    /// Both filters must share the *same* configuration (layers, segment
    /// sizes, hash seed, word layout — checked field by field, reported via
    /// [`MergeError::ConfigMismatch`]); otherwise the same key would map to
    /// different bit positions and the union would silently produce false
    /// negatives.
    pub fn merge_from(&self, other: &BloomRf) -> Result<(), MergeError> {
        if let Some(field) = config_mismatch(&self.config, &other.config) {
            return Err(MergeError::ConfigMismatch { field });
        }
        // Equal configs lay the two buffers out alike.
        self.bits.union_from(&other.bits.snapshot());
        self.key_count
            // ordering: monotonic statistics counter; merge runs under the
            // caller's exclusive access to `self`.
            .fetch_add(other.key_count(), Ordering::Relaxed);
        Ok(())
    }
}

/// First configuration field (by name) on which `a` and `b` disagree, if any.
fn config_mismatch(a: &BloomRfConfig, b: &BloomRfConfig) -> Option<&'static str> {
    if a.domain_bits != b.domain_bits {
        Some("domain_bits")
    } else if a.layers != b.layers {
        Some("layers")
    } else if a.segment_bits != b.segment_bits {
        Some("segment_bits")
    } else if a.exact_level != b.exact_level {
        Some("exact_level")
    } else if a.hash_seed != b.hash_seed {
        Some("hash_seed")
    } else if a.range_policy != b.range_policy {
        Some("range_policy")
    } else if a.word_layout != b.word_layout {
        Some("word_layout")
    } else {
        None
    }
}

/// Magic bytes opening every serialized filter.
pub const WIRE_MAGIC: &[u8; 4] = b"BLRF";
/// Wire-format version written by [`BloomRf::to_bytes`].
pub const WIRE_FORMAT_VERSION: u32 = 2;

/// v2 section tags (see `docs/wire-format.md`).
const SECTION_HEADER: u32 = 1;
const SECTION_CONFIG: u32 = 2;
const SECTION_BITS: u32 = 3;

/// Append one v2 section: `tag (u32) | body_len (u64) | body | crc32(body)`.
fn push_section(out: &mut Vec<u8>, tag: u32, body: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Consume `n` bytes from `bytes` at `*cur`, or report where input ran out.
fn take<'a>(bytes: &'a [u8], cur: &mut usize, n: usize) -> Result<&'a [u8], DecodeError> {
    if n > bytes.len() - *cur {
        return Err(DecodeError::Truncated { offset: *cur });
    }
    let s = &bytes[*cur..*cur + n];
    *cur += n;
    Ok(s)
}

/// Consume `N` bytes from `bytes` at `*cur` as an array.
fn take_array<const N: usize>(bytes: &[u8], cur: &mut usize) -> Result<[u8; N], DecodeError> {
    let mut out = [0u8; N];
    out.copy_from_slice(take(bytes, cur, N)?);
    Ok(out)
}

fn take_u32(bytes: &[u8], cur: &mut usize) -> Result<u32, DecodeError> {
    take_array(bytes, cur).map(u32::from_le_bytes)
}

fn take_u64(bytes: &[u8], cur: &mut usize) -> Result<u64, DecodeError> {
    take_array(bytes, cur).map(u64::from_le_bytes)
}

/// Read the section with the expected `tag` at `*cur` and return its
/// CRC-verified body.
fn take_section<'a>(
    bytes: &'a [u8],
    cur: &mut usize,
    tag: u32,
    name: &'static str,
) -> Result<&'a [u8], DecodeError> {
    let found_tag = take_u32(bytes, cur)?;
    if found_tag != tag {
        return Err(DecodeError::MissingSection { section: name });
    }
    let len = take_u64(bytes, cur)? as usize;
    let body = take(bytes, cur, len)?;
    let stored = take_u32(bytes, cur)?;
    let computed = crc32(body);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch {
            section: name,
            stored,
            computed,
        });
    }
    Ok(body)
}

/// A filter stream parsed into its parts, before committing to a storage
/// backend.
struct DecodedFilter {
    config: BloomRfConfig,
    key_count: u64,
    arrays: Vec<BitVec>,
}

/// Parse [`BloomRf::to_bytes`] output: the magic + version prelude, then
/// length-prefixed, CRC-32-closed sections. Unknown sections after the three
/// required ones are skipped if well-formed (their checksum is still
/// verified), so future writers can append metadata without breaking this
/// reader.
fn decode_parts(bytes: &[u8]) -> Result<DecodedFilter, DecodeError> {
    let mut cur = 0usize;
    if take(bytes, &mut cur, 4)? != WIRE_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = take_u32(bytes, &mut cur)?;
    if version != WIRE_FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }

    let header = take_section(bytes, &mut cur, SECTION_HEADER, "header")?;
    let mut hc = 0usize;
    let key_count = take_u64(header, &mut hc)?;

    let config_body = take_section(bytes, &mut cur, SECTION_CONFIG, "config")?;
    let config = decode_config(config_body, bytes.len(), cur)?;

    let bits_body = take_section(bytes, &mut cur, SECTION_BITS, "bits")?;
    let mut bc = 0usize;
    let n_arrays = take_u32(bits_body, &mut bc)? as usize;
    let expected_arrays = config.segment_bits.len() + usize::from(config.exact_level.is_some());
    if n_arrays != expected_arrays {
        return Err(DecodeError::BitArrayCorrupted { index: n_arrays });
    }
    let mut arrays = Vec::new();
    for index in 0..n_arrays {
        let len = take_u64(bits_body, &mut bc)? as usize;
        let bv = BitVec::from_bytes(take(bits_body, &mut bc, len)?)
            .ok_or(DecodeError::BitArrayCorrupted { index })?;
        arrays.push(bv);
    }
    if bc != bits_body.len() {
        return Err(DecodeError::BitArrayCorrupted { index: n_arrays });
    }

    // Skip (but checksum-verify) any well-formed extension sections; bytes
    // that do not form a complete section are trailing garbage.
    while cur != bytes.len() {
        let remaining = bytes.len() - cur;
        let mut probe = cur;
        let Ok(tag) = take_u32(bytes, &mut probe) else {
            return Err(DecodeError::TrailingBytes { remaining });
        };
        let Ok(len) = take_u64(bytes, &mut probe) else {
            return Err(DecodeError::TrailingBytes { remaining });
        };
        if (len as u128) + 4 > (bytes.len() - probe) as u128 {
            return Err(DecodeError::TrailingBytes { remaining });
        }
        take_section(bytes, &mut cur, tag, "extension")?;
    }
    Ok(DecodedFilter {
        config,
        key_count,
        arrays,
    })
}

/// Decode the config section `body` into a validated configuration.
/// `input_len` is the length of the whole stream and `at` the offset the
/// config section ends at (for error reporting).
fn decode_config(body: &[u8], input_len: usize, at: usize) -> Result<BloomRfConfig, DecodeError> {
    let mut cur = 0usize;
    let domain_bits = take_u32(body, &mut cur)?;
    let n_layers = take_u32(body, &mut cur)? as usize;
    // No `with_capacity` on attacker-controlled counts: truncation surfaces
    // on the first short read instead of as a giant allocation.
    let mut layers = Vec::new();
    for _ in 0..n_layers {
        let level = take_u32(body, &mut cur)?;
        let gap = take_u32(body, &mut cur)?;
        let replicas = take_u32(body, &mut cur)?;
        let segment = take_u32(body, &mut cur)? as usize;
        layers.push(crate::config::LayerSpec::new(level, gap, replicas, segment));
    }
    let n_segments = take_u32(body, &mut cur)? as usize;
    let mut segment_bits = Vec::new();
    for _ in 0..n_segments {
        segment_bits.push(take_u64(body, &mut cur)? as usize);
    }
    let exact_level_raw = i64::from_le_bytes(take_array(body, &mut cur)?);
    let exact_level = if exact_level_raw < 0 {
        None
    } else {
        Some(exact_level_raw as u32)
    };
    let hash_seed = take_u64(body, &mut cur)?;
    let policy_tag = take(body, &mut cur, 1)?[0];
    let policy_words = take_u64(body, &mut cur)? as usize;
    let range_policy = match policy_tag {
        0 => RangePolicy::Exact,
        1 => RangePolicy::Conservative {
            max_words_per_layer: policy_words,
        },
        tag => {
            return Err(DecodeError::BadEnumTag {
                field: "range_policy",
                tag,
            })
        }
    };
    let word_layout = match take(body, &mut cur, 1)?[0] {
        0 => WordLayout::Forward,
        1 => WordLayout::Alternating,
        tag => {
            return Err(DecodeError::BadEnumTag {
                field: "word_layout",
                tag,
            })
        }
    };
    // A genuine stream carries every declared bit array verbatim, so the
    // declared sizes are bounded by the input length. This must run *before*
    // `BloomRfConfig::new`: rejecting oversized declarations here keeps a
    // flipped size byte from overflowing the config's word rounding or
    // turning into a multi-terabyte allocation when the filter is
    // constructed. (The fields are unvalidated at this point, hence the
    // saturating arithmetic.)
    let declared_bits: u128 = segment_bits.iter().map(|&b| b as u128).sum::<u128>()
        + exact_level
            .map(|e| 1u128 << domain_bits.saturating_sub(e).min(63))
            .unwrap_or(0);
    if declared_bits > input_len as u128 * 8 {
        return Err(DecodeError::Truncated { offset: at });
    }
    Ok(
        BloomRfConfig::new(domain_bits, layers, segment_bits, exact_level, hash_seed)?
            .with_range_policy(range_policy)
            .with_word_layout(word_layout),
    )
}

/// Outcome of probing a run of sibling prefixes on one layer.
enum RunOutcome {
    Found,
    Empty,
    BudgetExceeded,
}

/// Start of the dyadic interval with `prefix` on `level`.
#[inline]
fn di_start(prefix: u64, level: u32) -> u64 {
    shl(prefix, level)
}

/// Inclusive end of the dyadic interval with `prefix` on `level`.
#[inline]
fn di_end(prefix: u64, level: u32) -> u64 {
    if level >= 64 {
        u64::MAX
    } else {
        shl(prefix, level) | ((1u64 << level) - 1)
    }
}

impl PointRangeFilter for BloomRf {
    fn name(&self) -> &'static str {
        "bloomRF"
    }
    fn may_contain(&self, key: u64) -> bool {
        self.contains_point(key)
    }
    fn may_contain_range(&self, lo: u64, hi: u64) -> bool {
        self.contains_range(lo, hi)
    }
    fn memory_bits(&self) -> usize {
        self.memory_bits()
    }
    fn may_contain_batch_into(&self, keys: &[u64], out: &mut Vec<bool>) {
        self.contains_point_batch_into(keys, out);
    }
    fn serialize(&self) -> Option<Vec<u8>> {
        Some(self.to_bytes())
    }
    fn as_bloomrf(&self) -> Option<&BloomRf> {
        Some(self)
    }
}

impl OnlineFilter for BloomRf {
    fn insert(&self, key: u64) {
        BloomRf::insert(self, key);
    }
    fn insert_all(&self, keys: &[u64]) {
        BloomRf::insert_batch(self, keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerSpec;

    fn basic_filter(keys: &[u64], domain_bits: u32, bits_per_key: f64, delta: u32) -> BloomRf {
        let f = BloomRf::builder()
            .domain_bits(domain_bits)
            .expected_keys(keys.len())
            .bits_per_key(bits_per_key)
            .delta(delta)
            .build()
            .unwrap();
        for &k in keys {
            f.insert(k);
        }
        f
    }

    #[test]
    fn no_false_negatives_for_points() {
        let keys: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) >> 1)
            .collect();
        let f = basic_filter(&keys, 64, 12.0, 7);
        for &k in &keys {
            assert!(f.contains_point(k), "false negative for {k}");
        }
        assert_eq!(f.key_count(), keys.len() as u64);
    }

    #[test]
    fn no_false_negatives_for_ranges_containing_keys() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 1_000_003 + 17).collect();
        let f = basic_filter(&keys, 64, 14.0, 7);
        for &k in keys.iter().step_by(37) {
            assert!(f.contains_range(k, k), "point range missing {k}");
            assert!(f.contains_range(k.saturating_sub(5), k + 5));
            assert!(f.contains_range(k.saturating_sub(1000), k + 1000));
            assert!(f.contains_range(0, u64::MAX));
            assert!(f.contains_range(k, k + (1 << 20)));
        }
    }

    #[test]
    fn empty_ranges_are_mostly_rejected() {
        // Uniformly placed query ranges that contain no key should be rejected
        // with high probability at 18 bits/key (the paper's model predicts an
        // FPR of ~0.3% for ranges of 2^10 at this budget; we assert a loose 5%).
        let mut keys: Vec<u64> = (0..2000u64).map(crate::hashing::mix64).collect();
        keys.sort_unstable();
        let f = basic_filter(&keys, 64, 18.0, 7);
        let mut false_positives = 0;
        let mut total = 0;
        for i in 0..4000u64 {
            let lo = crate::hashing::mix64(i.wrapping_mul(0x1234_5678_9abc_def1) + 7);
            let hi = match lo.checked_add(1 << 10) {
                Some(h) => h,
                None => continue,
            };
            // Skip the rare ranges that actually contain a key.
            let idx = keys.partition_point(|&k| k < lo);
            if idx < keys.len() && keys[idx] <= hi {
                continue;
            }
            total += 1;
            if f.contains_range(lo, hi) {
                false_positives += 1;
            }
        }
        assert!(
            total > 3000,
            "workload generation produced too few empty ranges"
        );
        let fpr = false_positives as f64 / total as f64;
        assert!(fpr < 0.05, "range FPR too high: {fpr}");
    }

    #[test]
    fn degenerate_distribution_is_documented_and_mitigated() {
        // Keys of the form i << 32 have identical low bits on every layer below
        // level 32, which defeats the order-preserving part of the PMHF
        // (Sect. 3.2 "Degenerate data distributions"): probes that share the
        // same in-word offset collide with almost every key. The alternating
        // word layout spreads half of the keys to the mirrored offset, which
        // must not make things worse and typically helps.
        let keys: Vec<u64> = (0..1000u64).map(|i| i << 32).collect();
        let measure = |layout: crate::hashing::WordLayout| {
            let cfg = BloomRfConfig::basic(64, keys.len(), 18.0, 7)
                .unwrap()
                .with_word_layout(layout);
            let f = BloomRf::builder().config(cfg).build().unwrap();
            for &k in &keys {
                f.insert(k);
            }
            let mut fp = 0usize;
            for i in 0..999u64 {
                let lo = (i << 32) + (1 << 20);
                if f.contains_range(lo, lo + (1 << 10)) {
                    fp += 1;
                }
            }
            fp
        };
        let forward = measure(crate::hashing::WordLayout::Forward);
        let alternating = measure(crate::hashing::WordLayout::Alternating);
        assert!(
            forward > 500,
            "the degenerate pattern should hurt the forward layout"
        );
        assert!(
            alternating <= forward,
            "alternating layout must not be worse"
        );
    }

    #[test]
    fn point_fpr_is_reasonable() {
        let n = 20_000u64;
        let mut keys: Vec<u64> = (0..n).map(crate::hashing::mix64).collect();
        keys.sort_unstable();
        let f = basic_filter(&keys, 64, 12.0, 7);
        let mut fp = 0;
        let trials = 20_000u64;
        for i in 0..trials {
            let probe = crate::hashing::mix64(i + n * 17);
            if keys.binary_search(&probe).is_err() && f.contains_point(probe) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / trials as f64;
        assert!(fpr < 0.05, "point FPR too high: {fpr}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomRf::builder()
            .expected_keys(100)
            .bits_per_key(10.0)
            .build()
            .unwrap();
        assert!(!f.contains_point(42));
        assert!(!f.contains_range(0, u64::MAX));
        assert!(!f.contains_range(5, 5));
        assert_eq!(f.key_count(), 0);
    }

    #[test]
    fn degenerate_interval_and_reversed_bounds() {
        let f = basic_filter(&[100, 200, 300], 64, 16.0, 7);
        assert!(f.contains_range(100, 100));
        assert!(
            !f.contains_range(400, 300),
            "reversed bounds are an empty interval"
        );
        assert!(f.contains_range(0, 99) == f.contains_range(0, 99)); // deterministic
    }

    #[test]
    fn paper_example_prefix_query_semantics() {
        // Introductory example (Sect. 3.1): X = {42, 1414, 50000}, d = 16.
        // [32, 47] contains 42 → positive; [48, 63] must be negative
        // (it is probed via prefix 0x003 which no key has on level 4).
        let keys = [42u64, 1414, 50000];
        let f = basic_filter(&keys, 16, 20.0, 4);
        assert!(f.contains_range(32, 47));
        assert!(f.contains_range(42, 43));
        assert!(f.contains_range(1400, 1420));
        assert!(f.contains_range(0, 65535));
        // All three keys found as points.
        for &k in &keys {
            assert!(f.contains_point(k));
        }
    }

    #[test]
    fn paper_figure7_interval_is_negative_without_keys_in_it() {
        // I = [45, 60] with the example key set {42, 1414, 50000}: no key lies
        // in I. With a generous budget the filter should reject it (the paper
        // uses this interval to illustrate the decomposition).
        let keys = [42u64, 1414, 50000];
        let f = basic_filter(&keys, 16, 40.0, 4);
        // Regardless of the FPR outcome, a range containing 42 is positive:
        assert!(f.contains_range(40, 60));
        // and the exact decomposition example is evaluated without panicking:
        let (_, stats) = f.contains_range_counted(45, 60);
        assert!(stats.layers_visited >= 1);
    }

    #[test]
    fn range_lookup_cost_is_bounded_by_layers() {
        // Constant query complexity: word accesses are bounded by ~4 per layer
        // plus replica factor, independent of the range size.
        let keys: Vec<u64> = (0..50_000u64).map(crate::hashing::mix64).collect();
        let f = basic_filter(&keys, 64, 14.0, 7);
        let k = f.config().num_layers();
        for exp in [4u32, 10, 20, 30, 40, 50] {
            let lo = 1u64 << 33;
            let hi = lo + (1u64 << exp);
            let (_, stats) = f.contains_range_counted(lo, hi);
            assert!(
                stats.word_accesses <= 6 * k,
                "range 2^{exp}: {} word accesses exceeds 6*k = {}",
                stats.word_accesses,
                6 * k
            );
        }
    }

    #[test]
    fn conservative_policy_never_false_negative() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 7919).collect();
        let cfg = BloomRfConfig::basic(64, keys.len(), 12.0, 7)
            .unwrap()
            .with_range_policy(RangePolicy::Conservative {
                max_words_per_layer: 2,
            });
        let f = BloomRf::builder().config(cfg).build().unwrap();
        for &k in &keys {
            f.insert(k);
        }
        for &k in keys.iter().step_by(97) {
            assert!(f.contains_range(k.saturating_sub(10_000), k.saturating_add(10_000)));
            assert!(f.contains_range(0, u64::MAX));
        }
    }

    #[test]
    fn extended_filter_with_exact_layer() {
        // Build an extended configuration by hand: bottom layers with gap 7,
        // a mid layer with gap 4 and an exact layer at level 32 for a 48-bit domain.
        let layers = vec![
            LayerSpec::new(0, 7, 1, 1),
            LayerSpec::new(7, 7, 1, 1),
            LayerSpec::new(14, 7, 1, 1),
            LayerSpec::new(21, 7, 1, 1),
            LayerSpec::new(28, 4, 2, 0),
        ];
        let cfg = BloomRfConfig::new(48, layers, vec![1 << 16, 1 << 18], Some(32), 77).unwrap();
        let f = BloomRf::builder().config(cfg).build().unwrap();
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| crate::hashing::mix64(i) >> 16)
            .collect();
        for &k in &keys {
            f.insert(k);
        }
        for &k in keys.iter().step_by(53) {
            assert!(f.contains_point(k));
            assert!(f.contains_range(k.saturating_sub(100), k + 100));
            assert!(f.contains_range(k & !0xFFFF_FFFF, k | 0xFFFF_FFFF));
        }
        // Exact layer: a dyadic interval at level 32 with no keys is rejected
        // with certainty.
        let occupied: std::collections::HashSet<u64> = keys.iter().map(|k| k >> 32).collect();
        let free_prefix = (0u64..).find(|p| !occupied.contains(p)).unwrap();
        let lo = free_prefix << 32;
        let hi = lo | 0xFFFF_FFFF;
        assert!(
            !f.contains_range(lo, hi),
            "exact layer must reject an empty level-32 interval"
        );
        assert!(!f.contains_point(lo + 12345));
    }

    #[test]
    fn serialization_roundtrip_preserves_answers() {
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 104729 + 3).collect();
        let f = basic_filter(&keys, 64, 14.0, 7);
        let bytes = f.to_bytes();
        let g = BloomRf::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(g.key_count(), f.key_count());
        for i in 0..2000u64 {
            let probe = i * 55441 + 7;
            assert_eq!(
                f.contains_point(probe),
                g.contains_point(probe),
                "point {probe}"
            );
            let lo = probe;
            let hi = probe + 100_000;
            assert_eq!(
                f.contains_range(lo, hi),
                g.contains_range(lo, hi),
                "range {probe}"
            );
        }
        // Corrupted input is rejected, not mis-parsed.
        assert!(BloomRf::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(BloomRf::from_bytes(b"garbage").is_err());
    }

    /// Patch `value_bytes` into the config-section body at `body_offset` and
    /// rewrite the section CRC so the corruption reaches the field
    /// validators instead of tripping the checksum.
    fn patch_config_field(bytes: &mut [u8], body_offset: usize, value_bytes: &[u8]) {
        // Layout: magic(4) version(4) | hdr tag(4) len(8) body(8) crc(4) |
        // cfg tag(4) len(8) body(len) crc(4) | ...
        let cfg_len_at = 8 + 4 + 8 + 8 + 4 + 4;
        let body_at = cfg_len_at + 8;
        let len =
            u64::from_le_bytes(bytes[cfg_len_at..cfg_len_at + 8].try_into().unwrap()) as usize;
        bytes[body_at + body_offset..body_at + body_offset + value_bytes.len()]
            .copy_from_slice(value_bytes);
        let crc = crc32(&bytes[body_at..body_at + len]);
        bytes[body_at + len..body_at + len + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn decode_errors_name_the_corruption() {
        let keys: Vec<u64> = (0..500u64).map(|i| i * 31 + 5).collect();
        let f = basic_filter(&keys, 64, 14.0, 7);
        let bytes = f.to_bytes();

        // Every truncation point reports a typed corruption — never a panic,
        // never a mis-parse.
        for cut in 0..bytes.len() {
            match BloomRf::from_bytes(&bytes[..cut]) {
                Err(DecodeError::Truncated { .. })
                | Err(DecodeError::BitArrayCorrupted { .. })
                | Err(DecodeError::ChecksumMismatch { .. })
                | Err(DecodeError::MissingSection { .. }) => {}
                other => panic!("truncation at {cut} produced {other:?}"),
            }
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            BloomRf::from_bytes(&bad).unwrap_err(),
            DecodeError::BadMagic
        );

        // Unsupported versions — the retired v1 included — are a typed error.
        for version in [1u32, 9] {
            let mut bad = bytes.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                BloomRf::from_bytes(&bad).unwrap_err(),
                DecodeError::UnsupportedVersion(version)
            );
        }

        // A flipped bit inside a section body is caught by the section CRC.
        let mut bad = bytes.clone();
        bad[44] ^= 0x10; // first byte of the config body (domain_bits)
        assert!(matches!(
            BloomRf::from_bytes(&bad).unwrap_err(),
            DecodeError::ChecksumMismatch {
                section: "config",
                ..
            }
        ));

        // Corruption that *recomputes* the CRC still fails the field
        // validators: domain_bits = 0 is an invalid configuration.
        let mut bad = bytes.clone();
        patch_config_field(&mut bad, 0, &0u32.to_le_bytes());
        assert!(matches!(
            BloomRf::from_bytes(&bad).unwrap_err(),
            DecodeError::InvalidConfig(_)
        ));

        // A declared segment size near u64::MAX must come back as an error
        // (not overflow the config's word rounding, not attempt a giant
        // allocation). The segment_bits array sits after the layer table.
        let mut bad = bytes.clone();
        let seg_bits_at = 4 + 4 + f.config().layers.len() * 16 + 4;
        patch_config_field(&mut bad, seg_bits_at, &u64::MAX.to_le_bytes());
        assert!(matches!(
            BloomRf::from_bytes(&bad).unwrap_err(),
            DecodeError::Truncated { .. }
        ));

        // Trailing garbage after a well-formed filter.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0xAB; 3]);
        assert_eq!(
            BloomRf::from_bytes(&bad).unwrap_err(),
            DecodeError::TrailingBytes { remaining: 3 }
        );

        // Empty input is a truncation at offset 0.
        assert_eq!(
            BloomRf::from_bytes(&[]).unwrap_err(),
            DecodeError::Truncated { offset: 0 }
        );
    }

    #[test]
    fn well_formed_extension_sections_are_skipped() {
        let keys: Vec<u64> = (0..200u64).map(|i| i * 97).collect();
        let f = basic_filter(&keys, 64, 14.0, 7);
        let mut bytes = f.to_bytes();
        // A future writer appends an unknown-but-well-formed section: this
        // reader verifies its checksum and skips it.
        super::push_section(&mut bytes, 0xBEEF, b"future metadata");
        let g = BloomRf::from_bytes(&bytes).expect("extension section should be skipped");
        assert_eq!(g.key_count(), f.key_count());
        // ... unless the extension itself is bit-rotted.
        let n = bytes.len();
        bytes[n - 6] ^= 1; // inside the extension body
        assert!(matches!(
            BloomRf::from_bytes(&bytes).unwrap_err(),
            DecodeError::ChecksumMismatch {
                section: "extension",
                ..
            }
        ));
    }

    #[test]
    fn probe_path_flips_exactly_at_the_crossover() {
        // tests/kernel_differential.rs and tests/loom_model.rs cannot name
        // the crate-private constant and mirror its value: move all three
        // together.
        assert_eq!(KERNEL_MIN_FILTER_BITS, 1 << 25);
        let layers = BloomRfConfig::basic(64, 1000, 14.0, 7).unwrap().layers;
        for (bits, overlap) in [
            (KERNEL_MIN_FILTER_BITS - 64, false),
            (KERNEL_MIN_FILTER_BITS, true),
        ] {
            let cfg = BloomRfConfig::new(64, layers.clone(), vec![bits], None, 7).unwrap();
            let f = BloomRf::builder().config(cfg).build().unwrap();
            assert_eq!(f.memory_bits(), bits);
            assert_eq!(f.overlap_probes, overlap);
            // Decode and union recompute the same answer from the same size.
            f.insert(42);
            let bytes = f.to_bytes();
            let decoded = BloomRf::from_bytes(&bytes).unwrap();
            assert_eq!(decoded.overlap_probes, overlap);
            let union = BloomRf::builder().union_of(&[&f, &decoded]).unwrap();
            assert_eq!(union.overlap_probes, overlap);
            assert!(union.contains_point(42) && union.contains_point_batch(&[42])[0]);
        }
    }

    #[test]
    fn batch_apis_match_sequential_calls() {
        let keys: Vec<u64> = (0..3000u64)
            .map(|i| crate::hashing::mix64(i * 3 + 1))
            .collect();
        let single = BloomRf::builder()
            .expected_keys(keys.len())
            .bits_per_key(14.0)
            .build()
            .unwrap();
        let batched = BloomRf::builder()
            .expected_keys(keys.len())
            .bits_per_key(14.0)
            .build()
            .unwrap();
        for &k in &keys {
            single.insert(k);
        }
        batched.insert_batch(&keys);
        assert_eq!(single.key_count(), batched.key_count());
        assert_eq!(single.snapshot_bits(), batched.snapshot_bits());

        let probes: Vec<u64> = (0..2000u64)
            .map(|i| crate::hashing::mix64(i ^ 0xF00D))
            .collect();
        let point_batch = single.contains_point_batch(&probes);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(point_batch[i], single.contains_point(p), "point {p}");
        }

        let ranges: Vec<(u64, u64)> = probes
            .iter()
            .enumerate()
            .map(|(i, &p)| match i % 5 {
                0 => (p, p),                         // degenerate point
                1 => (p, p.saturating_sub(1)),       // reversed → empty
                2 => (p, p.saturating_add(1 << 30)), // wide
                3 => (p, u64::MAX),                  // clamped
                _ => (p, p.saturating_add(1 << (i % 20))),
            })
            .collect();
        let range_batch = single.contains_range_batch(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert_eq!(
                range_batch[i],
                single.contains_range(lo, hi),
                "range [{lo},{hi}]"
            );
        }

        // Empty batches are fine.
        assert!(single.contains_point_batch(&[]).is_empty());
        assert!(single.contains_range_batch(&[]).is_empty());
        single.insert_batch(&[]);
    }

    #[test]
    fn batch_apis_match_on_extended_config_with_exact_layer() {
        let layers = vec![
            LayerSpec::new(0, 7, 1, 1),
            LayerSpec::new(7, 7, 1, 1),
            LayerSpec::new(14, 7, 1, 1),
            LayerSpec::new(21, 7, 1, 1),
            LayerSpec::new(28, 4, 2, 0),
        ];
        let cfg = BloomRfConfig::new(48, layers, vec![1 << 16, 1 << 18], Some(32), 77).unwrap();
        let f = BloomRf::builder().config(cfg).build().unwrap();
        let keys: Vec<u64> = (0..8000u64)
            .map(|i| crate::hashing::mix64(i) >> 16)
            .collect();
        f.insert_batch(&keys);
        let ranges: Vec<(u64, u64)> = (0..1500u64)
            .map(|i| {
                let lo = crate::hashing::mix64(i) >> 16;
                (lo, lo.saturating_add(1 << (i % 34)))
            })
            .collect();
        let batch = f.contains_range_batch(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            assert_eq!(batch[i], f.contains_range(lo, hi), "batch [{lo},{hi}]");
        }
    }

    #[test]
    fn insert_batch_rejects_out_of_domain_keys_before_writing() {
        let f = BloomRf::builder()
            .domain_bits(16)
            .expected_keys(100)
            .bits_per_key(10.0)
            .delta(4)
            .build()
            .unwrap();
        let caught = std::panic::catch_unwind(|| f.insert_batch(&[1, 2, 1 << 16]));
        assert!(caught.is_err(), "out-of-domain key must panic");
        // The batch was validated up front: nothing was inserted.
        assert_eq!(f.key_count(), 0);
        assert!(!f.contains_point(1));
    }

    #[test]
    fn concurrent_online_inserts_and_queries() {
        use std::sync::Arc;
        let f = Arc::new(
            BloomRf::builder()
                .expected_keys(100_000)
                .bits_per_key(12.0)
                .build()
                .unwrap(),
        );
        let writer = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    f.insert(crate::hashing::mix64(i));
                }
            })
        };
        let reader = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let mut positives = 0usize;
                for i in 0..50_000u64 {
                    if f.contains_point(crate::hashing::mix64(i)) {
                        positives += 1;
                    }
                }
                positives
            })
        };
        writer.join().unwrap();
        let _ = reader.join().unwrap();
        // After the writer finished, every key must be visible.
        for i in (0..50_000u64).step_by(101) {
            assert!(f.contains_point(crate::hashing::mix64(i)));
        }
    }

    #[test]
    fn out_of_domain_keys() {
        let f = BloomRf::builder()
            .domain_bits(16)
            .expected_keys(100)
            .bits_per_key(10.0)
            .delta(4)
            .build()
            .unwrap();
        f.insert(65535);
        assert!(f.contains_point(65535));
        assert!(
            !f.contains_point(65536),
            "key beyond the domain is never present"
        );
        assert!(
            f.contains_range(60_000, 1 << 20),
            "range is clamped to the domain"
        );
        let caught = std::panic::catch_unwind(|| f.insert(1 << 16));
        assert!(caught.is_err(), "inserting an out-of-domain key must panic");
    }

    #[test]
    fn probe_stats_accumulate() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 31337).collect();
        let f = basic_filter(&keys, 64, 12.0, 7);
        let (ans, stats) = f.contains_range_counted(1 << 30, (1 << 30) + (1 << 22));
        let _ = ans;
        assert!(stats.layers_visited > 0);
        assert!(stats.word_accesses + stats.bit_checks > 0);
    }

    #[test]
    fn merge_from_is_the_filter_of_the_union_of_key_sets() {
        let keys_a: Vec<u64> = (0..2000u64).map(crate::hashing::mix64).collect();
        let keys_b: Vec<u64> = (0..2000u64)
            .map(|i| crate::hashing::mix64(i ^ 0x5EED))
            .collect();
        let cfg = BloomRfConfig::basic(64, 4000, 14.0, 7).unwrap();

        let a = BloomRf::builder().config(cfg.clone()).build().unwrap();
        a.insert_batch(&keys_a);
        let b = BloomRf::builder().config(cfg.clone()).build().unwrap();
        b.insert_batch(&keys_b);
        // Reference: both key sets inserted into one filter.
        let both = BloomRf::builder().config(cfg.clone()).build().unwrap();
        both.insert_batch(&keys_a);
        both.insert_batch(&keys_b);

        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot_bits(), both.snapshot_bits());
        assert_eq!(a.key_count(), both.key_count());
        for &k in keys_a.iter().chain(&keys_b) {
            assert!(a.contains_point(k), "union lost key {k}");
        }
        // Idempotent: merging again changes no bits.
        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot_bits(), both.snapshot_bits());
    }

    #[test]
    fn merge_from_unions_the_exact_bitmap() {
        // Advisor-tuned configs carry an exactly-stored level; the union must
        // OR it like any other array.
        let tuned = crate::advisor::TuningAdvisor::tune_for(64, 5000, 18.0, 1e8).unwrap();
        let a = BloomRf::builder()
            .config(tuned.config.clone())
            .build()
            .unwrap();
        let b = BloomRf::builder()
            .config(tuned.config.clone())
            .build()
            .unwrap();
        let keys_a: Vec<u64> = (0..2500u64).map(crate::hashing::mix64).collect();
        let keys_b: Vec<u64> = (0..2500u64)
            .map(|i| crate::hashing::mix64(i + 9999))
            .collect();
        a.insert_batch(&keys_a);
        b.insert_batch(&keys_b);
        a.merge_from(&b).unwrap();
        for &k in keys_a.iter().chain(&keys_b) {
            assert!(a.contains_point(k));
            assert!(a.contains_range(k.saturating_sub(500), k.saturating_add(500)));
        }
    }

    #[test]
    fn merge_from_rejects_config_mismatches_field_by_field() {
        use crate::error::MergeError;
        let base = BloomRfConfig::basic(64, 1000, 14.0, 7).unwrap();
        let a = BloomRf::builder().config(base.clone()).build().unwrap();

        let cases: Vec<(BloomRfConfig, &str)> = vec![
            (
                BloomRfConfig::basic(32, 1000, 14.0, 7).unwrap(),
                "domain_bits",
            ),
            (BloomRfConfig::basic(64, 1000, 14.0, 5).unwrap(), "layers"),
            (
                BloomRfConfig::basic(64, 2000, 14.0, 7).unwrap(),
                "segment_bits",
            ),
            (base.clone().with_seed(base.hash_seed ^ 1), "hash_seed"),
            (
                base.clone().with_range_policy(RangePolicy::Conservative {
                    max_words_per_layer: 2,
                }),
                "range_policy",
            ),
            (
                base.clone().with_word_layout(WordLayout::Alternating),
                "word_layout",
            ),
        ];
        for (cfg, field) in cases {
            let b = BloomRf::builder().config(cfg).build().unwrap();
            assert_eq!(
                a.merge_from(&b),
                Err(MergeError::ConfigMismatch { field }),
                "expected mismatch on {field}"
            );
        }
        // A failed merge leaves the destination untouched.
        assert_eq!(a.key_count(), 0);
        assert_eq!(a.segment_load_factors()[0], 0.0);
    }
}
