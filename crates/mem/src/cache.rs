//! One set-associative cache level with pluggable replacement and
//! MSHR-aware fill timing.

use itpx_policy::{CacheMeta, CachePolicyEngine, Policy};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{Cycle, FillClass, ResetBoundary, SetMask, StructStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One resident line as exported/imported at a tier boundary:
/// `(block, dirty, fill_class)`. The fill class is the stored meta's class
/// so class-aware policies see the right kind on re-install.
pub type CacheLineSnapshot = (u64, bool, FillClass);

/// Geometry and timing of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// Miss-status-holding-register capacity.
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Capacity in bytes (64-byte blocks).
    pub fn bytes(&self) -> usize {
        self.sets * self.ways * 64
    }

    /// Validates the geometry.
    ///
    /// Real caches index sets with address bits, so the set count must
    /// be a power of two; a non-power-of-two count would silently model
    /// an unbuildable indexing function (and skew set-contention
    /// behavior). [`Cache::new`] calls this, so every constructed cache
    /// is covered.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, `ways` is zero or
    /// exceeds 64 (the validity-bitmask width), or `mshr_entries` is
    /// zero.
    pub fn validate(&self) {
        assert!(
            self.sets.is_power_of_two(),
            "cache set count must be a power of two, got {}",
            self.sets
        );
        assert!(self.ways > 0, "cache needs ways > 0");
        assert!(self.ways <= 64, "valid bitmask holds at most 64 ways");
        assert!(self.mshr_entries > 0, "cache needs at least one MSHR");
    }
}

impl Fingerprint for CacheConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.sets);
        h.write_usize(self.ways);
        h.write_u64(self.latency);
        h.write_usize(self.mshr_entries);
    }
}

/// The per-line state besides the tag: 16 bytes, so a line's state and
/// its tag (kept apart in `Cache::tags`) together take 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Line {
    ready: Cycle,
    dirty: bool,
    /// Filled by a prefetch and not yet touched by a demand access.
    prefetched: bool,
    /// Class of the fill that installed the line, for `export_lines`.
    fill: FillClass,
}

const _: () = assert!(std::mem::size_of::<Line>() == 16);

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present: the access completes at the given cycle (waiting for an
    /// in-flight fill if necessary).
    Hit(Cycle),
    /// Absent: the miss may proceed to the next level at the given cycle
    /// (delayed past `now` if all MSHRs are busy).
    Miss(Cycle),
}

/// A dirty block displaced by a fill, to be written toward memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Block index of the displaced dirty block.
    pub block: u64,
}

/// One set-associative cache level.
///
/// Tags and line state are two flat slices indexed by `set * ways + way`,
/// with per-set validity bitmasks — the probe/fill loops below are the
/// simulator's most-executed code. The tag scan of a 16-way set reads
/// 128 contiguous bytes and touches line state only for the way it finds.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets * ways` block tags; a slot's tag is meaningful only when the
    /// corresponding bit of `valid` is set.
    tags: Box<[u64]>,
    /// `sets * ways` line states, indexed like `tags`.
    lines: Box<[Line]>,
    /// Per-set validity bitmask (bit `w` ⇔ way `w` holds a line).
    valid: Box<[u64]>,
    /// `ways` low bits set: the mask of a fully occupied set.
    full_mask: u64,
    /// Power-of-two set selection, precomputed from the validated
    /// geometry: one AND per access instead of a `%` division.
    set_mask: SetMask,
    /// Enum-dispatched so the per-access `on_hit`/`victim`/`on_fill`
    /// calls inline instead of going through a vtable.
    policy: CachePolicyEngine,
    stats: StructStats,
    /// Completion times of outstanding fills, earliest on top (the
    /// lazily-cleaned MSHR model: entries expire when `now` passes them).
    inflight: BinaryHeap<Reverse<Cycle>>,
    prefetch_issued: u64,
    prefetch_useful: u64,
    writebacks: u64,
    evictions: u64,
}

impl Cache {
    /// Creates a cache with the given geometry and replacement policy.
    ///
    /// Any in-tree policy converts into [`CachePolicyEngine`] directly
    /// (`Lru::new(..)`, boxed trait objects, or an explicit engine all
    /// work); out-of-tree policies go through
    /// [`CachePolicyEngine::boxed`].
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn new(cfg: CacheConfig, policy: impl Into<CachePolicyEngine>) -> Self {
        let policy = policy.into();
        cfg.validate();
        let placeholder = Line {
            ready: 0,
            dirty: false,
            prefetched: false,
            fill: FillClass::DataPayload,
        };
        Self {
            tags: vec![0; cfg.sets * cfg.ways].into_boxed_slice(),
            lines: vec![placeholder; cfg.sets * cfg.ways].into_boxed_slice(),
            valid: vec![0; cfg.sets].into_boxed_slice(),
            full_mask: u64::MAX >> (64 - cfg.ways as u32),
            // validate() enforced power-of-two sets just above.
            set_mask: SetMask::new(cfg.sets),
            policy,
            stats: StructStats::new(),
            inflight: BinaryHeap::with_capacity(cfg.mshr_entries),
            prefetch_issued: 0,
            prefetch_useful: 0,
            writebacks: 0,
            evictions: 0,
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// Demand access/miss statistics with per-class breakdown.
    pub fn stats(&self) -> &StructStats {
        &self.stats
    }

    /// Name of the replacement policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Number of dirty blocks displaced so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of valid blocks displaced by fills (dirty or clean).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Prefetches issued into this cache.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetch_issued
    }

    /// Prefetched blocks that later served a demand hit.
    pub fn prefetches_useful(&self) -> u64 {
        self.prefetch_useful
    }

    fn set_of(&self, block: u64) -> usize {
        self.set_mask.set_of(block)
    }

    /// The flat-slice index of `(set, way)`.
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.cfg.ways + way
    }

    /// First valid way in `set` holding `block`, if any. Ways are scanned
    /// in ascending order (bit order of the validity mask), matching the
    /// nested-storage scan.
    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            // way < cfg.ways because only the low `ways` mask bits are set
            if self.tags[self.slot(set, way)] == block {
                return Some(way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Lowest invalid way in `set`, if the set is not full.
    fn first_free_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.full_mask;
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Probes for `meta.block` at `now`. `demand` controls whether the
    /// access is recorded in the demand statistics (prefetch and writeback
    /// probes are not).
    pub fn probe(&mut self, meta: &CacheMeta, now: Cycle, demand: bool) -> Probe {
        let set = self.set_of(meta.block);
        match self.find_way(set, meta.block) {
            Some(way) => {
                let slot = self.slot(set, way);
                if demand {
                    self.stats.record(meta.fill, false);
                    // slot indexes a valid way found above
                    let line = &mut self.lines[slot];
                    if line.prefetched {
                        // First demand touch of a prefetched block. A PC of
                        // u64::MAX is the prefetch marker itself, so such a
                        // touch leaves the line marked.
                        line.prefetched = meta.pc == u64::MAX;
                        self.prefetch_useful += 1;
                    }
                }
                self.policy.on_hit(set, way, meta);
                // slot indexes a valid way found above
                let ready = self.lines[slot].ready;
                Probe::Hit(ready.max(now + self.cfg.latency))
            }
            None => {
                if demand {
                    self.stats.record(meta.fill, true);
                }
                Probe::Miss(self.mshr_allocate(now))
            }
        }
    }

    /// Reserves an MSHR: returns the cycle the miss may proceed.
    ///
    /// Fills completed by `now` expire first; if the remaining in-flight
    /// fills still fill every MSHR, the miss waits for the earliest one.
    /// Expiry always removes the smallest entries, so popping the heap's
    /// top is exactly a `retain(ready > now)` over an unordered set, even
    /// when `now` moves backwards between calls.
    fn mshr_allocate(&mut self, now: Cycle) -> Cycle {
        while self.inflight.peek().is_some_and(|&Reverse(r)| r <= now) {
            self.inflight.pop();
        }
        match self.inflight.peek() {
            Some(&Reverse(earliest)) if self.inflight.len() >= self.cfg.mshr_entries => {
                earliest.max(now)
            }
            _ => now,
        }
    }

    /// Installs `meta.block`, becoming readable at `ready`. Returns the
    /// displaced dirty block, if any. `demand` records the end-to-end miss
    /// latency (`ready - miss_start`).
    pub fn fill(
        &mut self,
        meta: &CacheMeta,
        miss_start: Cycle,
        ready: Cycle,
        demand: bool,
    ) -> Option<Writeback> {
        if demand {
            self.stats
                .record_miss_latency(ready.saturating_sub(miss_start));
        } else {
            self.prefetch_issued += 1;
        }
        // itpx-allow: hot-alloc grow-once heap: pushes reuse its capacity once it has reached peak occupancy
        self.inflight.push(Reverse(ready));
        let set = self.set_of(meta.block);
        // Refill of a resident block (e.g. racing prefetch): refresh only.
        if let Some(way) = self.find_way(set, meta.block) {
            self.policy.on_hit(set, way, meta);
            return None;
        }
        let (way, wb) = match self.first_free_way(set) {
            Some(w) => (w, None),
            None => {
                let v = self.policy.victim(set, meta);
                // In-range victims are the policy contract (checked for
                // every in-tree policy by the CheckedPolicy drives); the
                // release hot path does not re-check unless the
                // strict-contracts feature asks for it. An out-of-range
                // way still cannot corrupt memory — the slot index below
                // bounds-checks.
                #[cfg(feature = "strict-contracts")]
                assert!(v < self.cfg.ways, "policy returned way out of range");
                #[cfg(not(feature = "strict-contracts"))]
                debug_assert!(v < self.cfg.ways, "policy returned way out of range");
                self.policy.on_evict(set, v);
                self.evictions += 1;
                // the set had no free way, so every way holds a valid line
                let slot = self.slot(set, v);
                let wb = self.lines[slot].dirty.then(|| {
                    self.writebacks += 1;
                    Writeback {
                        block: self.tags[slot],
                    }
                });
                (v, wb)
            }
        };
        self.valid[set] |= 1 << way;
        // way came from first_free_way or a range-checked victim
        let slot = self.slot(set, way);
        self.tags[slot] = meta.block;
        self.lines[slot] = Line {
            ready,
            dirty: false,
            // Marks prefetched lines so the first demand touch is counted
            // (a demand PC of u64::MAX carries the same marker).
            prefetched: !demand || meta.pc == u64::MAX,
            fill: meta.fill,
        };
        self.policy.on_fill(set, way, meta);
        wb
    }

    /// Marks `block` dirty if resident (stores; dirty writeback landing).
    pub fn mark_dirty(&mut self, block: u64) {
        let set = self.set_of(block);
        if let Some(way) = self.find_way(set, block) {
            let slot = self.slot(set, way);
            // slot indexes a valid way found above
            self.lines[slot].dirty = true;
        }
    }

    /// Clears statistics (tags and replacement state are preserved), for
    /// the warmup/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.prefetch_issued = 0;
        self.prefetch_useful = 0;
        self.writebacks = 0;
        self.evictions = 0;
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: u64) -> bool {
        let set = self.set_of(block);
        self.find_way(set, block).is_some()
    }

    /// Exports every resident line in set order, ways ascending — the
    /// warm-state snapshot handed across a tier boundary. Statistics and
    /// replacement metadata are not touched.
    pub fn export_lines(&self) -> Vec<CacheLineSnapshot> {
        let mut out = Vec::new();
        for set in 0..self.cfg.sets {
            let mut mask = self.valid[set];
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                // way comes from the set's valid mask, so slot(set, way)
                // is in bounds by construction
                let slot = self.slot(set, way);
                let line = &self.lines[slot];
                out.push((self.tags[slot], line.dirty, line.fill));
                mask &= mask - 1;
            }
        }
        out
    }

    /// Replaces the cache's contents with `lines`: the warm-state import
    /// at a tier boundary. Resident lines and in-flight MSHRs are
    /// dropped, then each line is installed through the regular policy
    /// fill path in iteration order. Statistics, writeback/eviction
    /// counters, and prefetch counters are NOT perturbed: a handoff is
    /// not simulated traffic. Replacement metadata beyond the fill class
    /// (e.g. RRPV ages) is reconstructed by the policy's fill hook — a
    /// documented fidelity limit of the handoff.
    pub fn import_lines<I: IntoIterator<Item = CacheLineSnapshot>>(&mut self, lines: I) {
        for v in self.valid.iter_mut() {
            *v = 0;
        }
        self.inflight.clear();
        for (block, dirty, class) in lines {
            let set = self.set_of(block);
            if self.find_way(set, block).is_some() {
                continue;
            }
            let meta = CacheMeta::demand(block, class);
            let way = match self.first_free_way(set) {
                Some(w) => w,
                None => {
                    let v = self.policy.victim(set, &meta);
                    #[cfg(feature = "strict-contracts")]
                    assert!(v < self.cfg.ways, "policy returned way out of range");
                    #[cfg(not(feature = "strict-contracts"))]
                    debug_assert!(v < self.cfg.ways, "policy returned way out of range");
                    self.policy.on_evict(set, v);
                    v
                }
            };
            self.valid[set] |= 1 << way;
            // way is a free slot or a checked victim (< ways), so
            // slot(set, way) is in bounds
            let slot = self.slot(set, way);
            self.tags[slot] = block;
            self.lines[slot] = Line {
                ready: 0,
                dirty,
                prefetched: false,
                fill: class,
            };
            self.policy.on_fill(set, way, &meta);
        }
    }

    /// Number of resident lines.
    pub fn resident_count(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

impl ResetBoundary for Cache {
    fn reset_boundary(&mut self) {
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Lru;
    use itpx_types::FillClass;

    fn cache(sets: usize, ways: usize) -> Cache {
        Cache::new(
            CacheConfig {
                sets,
                ways,
                latency: 4,
                mshr_entries: 4,
            },
            Lru::new(sets, ways),
        )
    }

    fn m(block: u64) -> CacheMeta {
        CacheMeta::demand(block, FillClass::DataPayload)
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_are_rejected() {
        let _ = cache(42, 12);
    }

    #[test]
    fn validate_accepts_power_of_two_sets() {
        for sets in [1, 2, 64, 2048] {
            CacheConfig {
                sets,
                ways: 8,
                latency: 4,
                mshr_entries: 8,
            }
            .validate();
        }
    }

    #[test]
    fn miss_fill_hit_cycle() {
        let mut c = cache(4, 2);
        assert!(matches!(c.probe(&m(8), 0, true), Probe::Miss(0)));
        c.fill(&m(8), 0, 100, true);
        // Hit before the fill completes waits for it.
        assert_eq!(c.probe(&m(8), 50, true), Probe::Hit(100));
        // Hit after completion pays only the lookup latency.
        assert_eq!(c.probe(&m(8), 200, true), Probe::Hit(204));
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().accesses(), 3);
    }

    #[test]
    fn eviction_writes_back_dirty_blocks_only() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.mark_dirty(1);
        // Filling block 3 evicts LRU block 1 (dirty).
        let wb = c.fill(&m(3), 0, 0, true);
        assert_eq!(wb, Some(Writeback { block: 1 }));
        // Filling block 4 evicts block 2 (clean).
        let wb2 = c.fill(&m(4), 0, 0, true);
        assert_eq!(wb2, None);
        assert_eq!(c.writebacks(), 1);
        assert_eq!(c.evictions(), 2, "both displacements count as evictions");
        c.reset_stats();
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn mshr_saturation_delays_misses() {
        let mut c = Cache::new(
            CacheConfig {
                sets: 4,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(4, 2),
        );
        assert!(matches!(c.probe(&m(1), 0, true), Probe::Miss(0)));
        c.fill(&m(1), 0, 50, true);
        assert!(matches!(c.probe(&m(2), 0, true), Probe::Miss(0)));
        c.fill(&m(2), 0, 80, true);
        // Two fills in flight: the third miss waits for the earliest (50).
        assert!(matches!(c.probe(&m(3), 10, true), Probe::Miss(50)));
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = cache(4, 2);
        c.fill(&m(4), 0, 10, false); // prefetch fill
        assert_eq!(c.prefetches_issued(), 1);
        assert_eq!(c.prefetches_useful(), 0);
        assert_eq!(c.stats().accesses(), 0, "prefetches are not demand");
        // First demand touch counts the prefetch as useful.
        assert!(matches!(c.probe(&m(4), 20, true), Probe::Hit(_)));
        assert_eq!(c.prefetches_useful(), 1);
        // Second touch does not double-count.
        let _ = c.probe(&m(4), 30, true);
        assert_eq!(c.prefetches_useful(), 1);
    }

    #[test]
    fn refill_of_resident_block_does_not_evict() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.fill(&m(1), 0, 0, true); // resident refresh
        assert!(c.contains(1) && c.contains(2));
    }

    /// A policy that violates the `victim() < ways` contract.
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[derive(Debug)]
    struct OutOfRangeVictim;

    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    impl itpx_policy::Policy<CacheMeta> for OutOfRangeVictim {
        fn on_fill(&mut self, _: usize, _: usize, _: &CacheMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &CacheMeta) {}
        fn victim(&mut self, _: usize, _: &CacheMeta) -> usize {
            usize::MAX
        }
        fn name(&self) -> &'static str {
            "out-of-range-victim"
        }
        fn meta_bits(&self, _: usize, _: usize) -> u64 {
            0
        }
    }

    /// Debug and strict-contracts builds must catch a policy returning an
    /// out-of-range way at the eviction site (plain release builds defer
    /// to the slice bounds check).
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[test]
    #[should_panic(expected = "out of range")]
    fn strict_builds_catch_out_of_range_victims() {
        let mut c = Cache::new(
            CacheConfig {
                sets: 1,
                ways: 2,
                latency: 4,
                mshr_entries: 4,
            },
            CachePolicyEngine::boxed(OutOfRangeVictim),
        );
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        // The set is full: the next fill asks the policy for a victim.
        c.fill(&m(3), 0, 0, true);
    }

    /// The in-flight model the heap replaces: an unordered list of fill
    /// completion times, cleaned with `retain(ready > now)` on every miss,
    /// a saturated miss waiting for the minimum.
    struct NaiveInflight {
        fills: Vec<Cycle>,
        mshr_entries: usize,
        /// Completion time of each resident block's installing fill.
        ready_of: std::collections::BTreeMap<u64, Cycle>,
    }

    impl NaiveInflight {
        fn allocate(&mut self, now: Cycle) -> Cycle {
            self.fills.retain(|&r| r > now);
            if self.fills.len() >= self.mshr_entries {
                self.fills.iter().copied().min().unwrap_or(now).max(now)
            } else {
                now
            }
        }

        /// Fills `c` and mirrors the fill into the reference.
        fn fill(&mut self, c: &mut Cache, b: u64, start: Cycle, ready: Cycle, demand: bool) {
            if !c.contains(b) {
                self.ready_of.insert(b, ready);
            }
            c.fill(&m(b), start, ready, demand);
            self.fills.push(ready);
        }
    }

    #[test]
    fn inflight_heap_matches_the_naive_retain_min_model() {
        use itpx_types::Rng64;
        for seed in 0..8u64 {
            let mut rng = Rng64::new(seed);
            let mshr_entries = 1 + rng.index(4);
            let mut c = Cache::new(
                CacheConfig {
                    sets: 8,
                    ways: 2,
                    latency: 3,
                    mshr_entries,
                },
                Lru::new(8, 2),
            );
            let mut naive = NaiveInflight {
                fills: Vec::new(),
                mshr_entries,
                ready_of: std::collections::BTreeMap::new(),
            };
            let (mut now, mut backwards, mut delayed) = (1_000u64, 0, 0);
            for step in 0..4_000 {
                // Mostly forward, sometimes backwards: callers replay
                // accesses out of order (walks, writebacks, two threads).
                if rng.chance(0.2) {
                    now = now.saturating_sub(rng.below(300));
                    backwards += 1;
                } else {
                    now += rng.below(40);
                }
                if step == 2_000 {
                    let lines = c.export_lines();
                    c.import_lines(lines.clone());
                    naive.fills.clear();
                    for (b, _, _) in lines {
                        naive.ready_of.insert(b, 0);
                    }
                }
                if rng.chance(0.1) {
                    // A burst of prefetch fills: no MSHR is allocated.
                    for _ in 0..rng.range(1, 12) {
                        let (b, ready) = (rng.below(64), now + rng.range(1, 400));
                        naive.fill(&mut c, b, now, ready, false);
                    }
                    continue;
                }
                let b = rng.below(64);
                let resident = c.contains(b);
                let got = c.probe(&m(b), now, true);
                if resident {
                    let want = Probe::Hit(naive.ready_of[&b].max(now + 3));
                    assert_eq!(got, want, "seed {seed} step {step}");
                    continue;
                }
                let start = naive.allocate(now);
                assert_eq!(got, Probe::Miss(start), "seed {seed} step {step}");
                if start > now {
                    delayed += 1;
                }
                naive.fill(&mut c, b, start, start + rng.range(1, 400), true);
            }
            assert!(
                backwards > 100,
                "seed {seed}: now moved backwards {backwards} times"
            );
            assert!(
                delayed > 10,
                "seed {seed}: only {delayed} misses waited on full MSHRs"
            );
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_membership_and_dirt() {
        let mut src = cache(4, 2);
        for b in 0..6u64 {
            src.fill(&m(b), 0, 0, true);
        }
        let instr = CacheMeta::demand(6, FillClass::InstrPayload);
        src.fill(&instr, 0, 10, false); // prefetched, never touched
        src.fill(&CacheMeta::demand(7, FillClass::DataPte), 0, 0, true);
        src.mark_dirty(2);
        src.mark_dirty(7);
        let exported = src.export_lines();
        assert_eq!(exported.len(), src.resident_count());

        let mut dst = cache(4, 2);
        dst.fill(&m(99), 0, 0, true); // stale content, must be dropped
        dst.import_lines(exported.clone());
        assert_eq!(dst.resident_count(), exported.len());
        assert!(!dst.contains(99));
        // Imports are not simulated traffic.
        assert_eq!(dst.stats().accesses(), 0);
        assert_eq!(dst.evictions(), 0);
        assert_eq!(dst.writebacks(), 0);
        // Membership, fill class and dirt all survive.
        let mut lines = dst.export_lines();
        lines.sort_unstable_by_key(|&(b, _, _)| b);
        let mut want: Vec<CacheLineSnapshot> = (0..6)
            .map(|b| (b, b == 2, FillClass::DataPayload))
            .collect();
        want.push((6, false, FillClass::InstrPayload));
        want.push((7, true, FillClass::DataPte));
        assert_eq!(lines, want);
        // A handoff is not a prefetch: the imported line is not marked.
        let _ = dst.probe(&instr, 20, true);
        assert_eq!(dst.prefetches_useful(), 0);
    }

    #[test]
    fn reset_boundary_clears_all_counters_keeps_lines() {
        let mut c = cache(1, 2);
        c.fill(&m(1), 0, 0, true);
        c.fill(&m(2), 0, 0, true);
        c.mark_dirty(1);
        c.fill(&m(3), 0, 0, true); // evicts dirty block 1
        c.fill(&m(7), 0, 10, false); // prefetch
        assert!(c.writebacks() > 0 && c.evictions() > 0 && c.prefetches_issued() > 0);
        c.reset_boundary();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.writebacks(), 0);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.prefetches_issued(), 0);
        assert_eq!(c.prefetches_useful(), 0);
        assert!(c.contains(3) && c.contains(7), "contents preserved");
    }

    #[test]
    fn per_class_stats() {
        let mut c = cache(4, 2);
        let pte = CacheMeta::demand(3, FillClass::DataPte);
        let _ = c.probe(&pte, 0, true);
        let b = c.stats().mpki_breakdown(1000);
        assert!(b.data_pte > 0.0);
        assert_eq!(b.instr, 0.0);
    }
}
