//! Set-associative TLBs with pluggable replacement and MSHR `Type` bits.
//!
//! One [`Tlb`] models any level (ITLB, DTLB, STLB). Entries for 4 KiB and
//! 2 MiB pages coexist in the same structure (both VPN granularities are
//! probed on lookup). Misses are tracked in an MSHR-like table that carries
//! the paper's per-entry `Type` bit — the translation kind of the miss —
//! so the iTP insertion at walk completion knows what it is inserting
//! (Figure 7, steps 2 and 4).
//!
//! [`LastLevelTlb`] provides the unified vs split STLB organizations
//! compared in Section 6.6.

use crate::page_table::Translation;
use itpx_policy::{Policy, TlbMeta, TlbPolicyEngine};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use itpx_types::{
    Asid, Cycle, FillClass, PageSize, PhysAddr, ResetBoundary, SetMask, SlotPool, StructStats,
    ThreadId, TranslationKind, VirtAddr,
};

/// One resident translation as exported/imported at a tier boundary:
/// `(vpn, size, frame, kind, asid)`. `kind` is the translation kind of the
/// fill that installed the entry — the paper's `Type` bit — so kind-aware
/// policies (iTP) see the right class when warm state is re-installed.
/// `asid` is the address-space tag the entry was installed under
/// ([`Asid::GLOBAL`] for mappings that hit in every address space).
pub type TlbEntry = (u64, PageSize, PhysAddr, TranslationKind, Asid);

/// Geometry and timing of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    /// Miss-status-holding-register capacity.
    pub mshr_entries: usize,
}

impl TlbConfig {
    /// Total entry count.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

impl Fingerprint for TlbConfig {
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_usize(self.sets);
        h.write_usize(self.ways);
        h.write_u64(self.latency);
        h.write_usize(self.mshr_entries);
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: u64,
    size: PageSize,
    frame: PhysAddr,
    /// Translation kind of the installing fill (kept so warm-state export
    /// at a tier boundary can carry the `Type` bit along).
    kind: TranslationKind,
    /// Address-space tag of the installing fill. Lookups require
    /// [`Asid::matches`] against the structure's current ASID; global
    /// entries match every space.
    asid: Asid,
    /// Cycle at which the entry's fill completes; lookups before this wait
    /// for it (the timing an MSHR merge produces).
    ready: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    ready: Cycle,
    /// The paper's 1-bit `Type` field per TLB MSHR entry.
    kind: TranslationKind,
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// The translation was resident; the access completes at `done`.
    Hit {
        /// Cycle at which the translated access may proceed.
        done: Cycle,
        /// Physical frame base.
        frame: PhysAddr,
        /// Page size of the hit entry.
        size: PageSize,
    },
    /// Not resident; the caller must consult the next level / walker and
    /// then call [`Tlb::fill`].
    Miss,
}

/// One set-associative TLB level.
///
/// Entry storage is a single flat slice indexed by `set * ways + way` with
/// per-set validity bitmasks: TLB probes run on every simulated memory
/// reference, and the flat layout removes the nested-`Vec` double
/// indirection on that path. Unlike `itpx_mem::Cache`, which keeps its
/// tags apart from line state, an entry keeps its tag beside its payload.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `sets * ways` entry slots; a slot's content is meaningful only when
    /// the corresponding bit of `valid` is set.
    entries: Box<[Entry]>,
    /// Per-set validity bitmask (bit `w` ⇔ way `w` holds an entry).
    valid: Box<[u64]>,
    /// `ways` low bits set: the mask of a fully occupied set.
    full_mask: u64,
    /// Power-of-two set selection, validated at construction: one AND per
    /// lookup instead of a `%` division.
    set_mask: SetMask,
    /// Enum-dispatched so the per-access `on_hit`/`victim`/`on_fill`
    /// calls inline instead of going through a vtable.
    policy: TlbPolicyEngine,
    /// The address space lookups currently run under. Single-tenant
    /// simulations never move it off [`Asid::KERNEL`].
    current: Asid,
    stats: StructStats,
    /// In-flight misses keyed by 4 KiB VPN (keys unique, lazy-cleaned).
    /// Consumers only take order-insensitive views (key lookup, `retain`,
    /// minimum completion time), so slot order never affects results.
    outstanding: SlotPool<(u64, Mshr)>,
}

impl Tlb {
    /// Creates a TLB with the given geometry and replacement policy.
    ///
    /// Any in-tree policy converts into [`TlbPolicyEngine`] directly
    /// (`Lru::new(..)`, boxed trait objects, or an explicit engine all
    /// work); out-of-tree policies go through [`TlbPolicyEngine::boxed`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or associativity exceeds 64
    /// (the validity-bitmask width).
    pub fn new(cfg: TlbConfig, policy: impl Into<TlbPolicyEngine>) -> Self {
        let policy = policy.into();
        assert!(cfg.sets > 0 && cfg.ways > 0, "TLB needs sets > 0, ways > 0");
        assert!(
            cfg.sets.is_power_of_two(),
            "TLB set count must be a power of two (mask indexing)"
        );
        assert!(cfg.ways <= 64, "valid bitmask holds at most 64 ways");
        assert!(cfg.mshr_entries > 0, "TLB needs at least one MSHR");
        let placeholder = Entry {
            vpn: 0,
            size: PageSize::Base4K,
            frame: PhysAddr::new(0),
            kind: TranslationKind::Data,
            asid: Asid::KERNEL,
            ready: 0,
        };
        Self {
            entries: vec![placeholder; cfg.sets * cfg.ways].into_boxed_slice(),
            valid: vec![0; cfg.sets].into_boxed_slice(),
            full_mask: u64::MAX >> (64 - cfg.ways as u32),
            set_mask: SetMask::new(cfg.sets),
            policy,
            current: Asid::KERNEL,
            stats: StructStats::new(),
            outstanding: SlotPool::with_capacity(cfg.mshr_entries),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Access/miss statistics (instruction vs data translations are the
    /// `instr`/`data` classes of the breakdown).
    pub fn stats(&self) -> &StructStats {
        &self.stats
    }

    /// The replacement policy driving this TLB.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn stat_class(kind: TranslationKind) -> FillClass {
        match kind {
            TranslationKind::Instruction => FillClass::InstrPayload,
            TranslationKind::Data => FillClass::DataPayload,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        self.set_mask.set_of(vpn)
    }

    /// The flat-slice index of `(set, way)`.
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.cfg.ways + way
    }

    /// First valid way in `set` holding `(vpn, size)` visible under
    /// `asid`, if any. Ways are scanned in ascending order (bit order of
    /// the validity mask), matching the nested-storage scan. Visibility is
    /// [`Asid::matches`]: an exact tag match or a global entry. Because a
    /// page's globality is a pure function of its virtual address, a
    /// global and a tenant-tagged entry for the same `(vpn, size)` never
    /// coexist, so the scan order cannot change which entry is found.
    fn find_way(&self, set: usize, vpn: u64, size: PageSize, asid: Asid) -> Option<usize> {
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            // way < cfg.ways because only the low `ways` mask bits are set
            let e = &self.entries[self.slot(set, way)];
            if e.vpn == vpn && e.size == size && e.asid.matches(asid) {
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

    fn meta(&self, vpn: u64, pc: u64, kind: TranslationKind, thread: ThreadId) -> TlbMeta {
        TlbMeta {
            vpn,
            pc,
            kind,
            thread,
        }
    }

    /// Looks up `va`, charging the access latency. Records statistics.
    pub fn lookup(
        &mut self,
        va: VirtAddr,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        now: Cycle,
    ) -> TlbLookup {
        let done = now + self.cfg.latency;
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            let set = self.set_of(vpn);
            if let Some(way) = self.find_way(set, vpn, size, self.current) {
                let meta = self.meta(vpn, pc, kind, thread);
                self.policy.on_hit(set, way, &meta);
                self.stats.record(Self::stat_class(kind), false);
                // find_way only reports valid ways
                let entry = self.entries[self.slot(set, way)];
                return TlbLookup::Hit {
                    done: done.max(entry.ready),
                    frame: entry.frame,
                    size,
                };
            }
        }
        self.stats.record(Self::stat_class(kind), true);
        TlbLookup::Miss
    }

    /// If a miss for the page containing `va` is already outstanding,
    /// returns the cycle its walk completes (MSHR merge).
    pub fn merge(&mut self, va: VirtAddr, now: Cycle) -> Option<Cycle> {
        let key = va.vpn(PageSize::Base4K).0;
        match self.outstanding.find(|(k, _)| *k == key) {
            Some((_, m)) if m.ready > now => Some(m.ready),
            _ => None,
        }
    }

    /// Allocates an MSHR for the miss, returning the cycle at which the
    /// allocation succeeds (delayed past `now` if all MSHRs are busy).
    /// The `Type` bit of the miss is stored alongside.
    pub fn mshr_alloc(&mut self, va: VirtAddr, kind: TranslationKind, now: Cycle) -> Cycle {
        let key = va.vpn(PageSize::Base4K).0;
        // Retire completed entries.
        self.outstanding.retain(|(_, m)| m.ready > now);
        let start = if self.outstanding.len() >= self.cfg.mshr_entries {
            // Wait for the earliest in-flight miss to free its register.
            self.outstanding
                .iter()
                .map(|(_, m)| m.ready)
                .min()
                .unwrap_or(now)
                .max(now)
        } else {
            now
        };
        let mshr = Mshr {
            ready: Cycle::MAX,
            kind,
        };
        // Keys are unique: re-allocating an outstanding VPN overwrites its
        // entry, as a keyed map's insert would.
        match self.outstanding.find_mut(|(k, _)| *k == key) {
            Some(e) => e.1 = mshr,
            None => self.outstanding.insert((key, mshr)),
        }
        start
    }

    /// The `Type` bit stored for an outstanding miss.
    pub fn mshr_kind(&self, va: VirtAddr) -> Option<TranslationKind> {
        let key = va.vpn(PageSize::Base4K).0;
        self.outstanding
            .find(|(k, _)| *k == key)
            .map(|(_, m)| m.kind)
    }

    /// Completes the MSHR for `va`: later merged requests observe `ready`.
    pub fn mshr_complete(&mut self, va: VirtAddr, ready: Cycle) {
        let key = va.vpn(PageSize::Base4K).0;
        if let Some((_, m)) = self.outstanding.find_mut(|(k, _)| *k == key) {
            m.ready = ready;
        }
    }

    /// Completes a miss end-to-end: installs `tr` (recording `done -
    /// issued` as the miss latency) and releases the MSHR allocated for
    /// `va` at cycle `done`. One call per miss resolution, whatever
    /// supplied the translation (STLB hit, merged walk, or a fresh walk).
    #[allow(clippy::too_many_arguments)]
    pub fn fill_and_complete(
        &mut self,
        tr: &Translation,
        kind: TranslationKind,
        pc: u64,
        thread: ThreadId,
        va: VirtAddr,
        issued: Cycle,
        done: Cycle,
    ) {
        self.fill(
            tr.vpn,
            tr.size,
            tr.frame,
            kind,
            tr.asid,
            pc,
            thread,
            done - issued,
            done,
        );
        self.mshr_complete(va, done);
    }

    /// Installs a translation, evicting per the policy if the set is full,
    /// and records the end-to-end miss latency. The entry becomes usable at
    /// `ready`; lookups before that cycle wait for it. `asid` is the tag
    /// the entry is installed under ([`Asid::GLOBAL`] for mappings shared
    /// by every address space).
    #[allow(clippy::too_many_arguments)]
    pub fn fill(
        &mut self,
        vpn: u64,
        size: PageSize,
        frame: PhysAddr,
        kind: TranslationKind,
        asid: Asid,
        pc: u64,
        thread: ThreadId,
        miss_latency: u64,
        ready: Cycle,
    ) {
        self.stats.record_miss_latency(miss_latency);
        let set = self.set_of(vpn);
        // Already present (filled by a merged miss): just refresh. Probing
        // with the installing tag is an exact-tag residence check — the
        // never-both invariant (see `find_way`) rules out a global entry
        // shadowing a tenant fill or vice versa.
        if let Some(way) = self.find_way(set, vpn, size, asid) {
            let meta = self.meta(vpn, pc, kind, thread);
            self.policy.on_hit(set, way, &meta);
            return;
        }
        let meta = self.meta(vpn, pc, kind, thread);
        let way = match self.first_free_way(set) {
            Some(w) => w,
            None => {
                let v = self.policy.victim(set, &meta);
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
                v
            }
        };
        self.valid[set] |= 1 << way;
        // way came from first_free_way or a range-checked victim
        self.entries[self.slot(set, way)] = Entry {
            vpn,
            size,
            frame,
            kind,
            asid,
            ready,
        };
        self.policy.on_fill(set, way, &meta);
    }

    /// The address space lookups currently run under.
    pub fn current_asid(&self) -> Asid {
        self.current
    }

    /// Retargets lookups to `asid` (a context switch). Entries are left
    /// in place — pair with [`Tlb::flush_asid`] for flushing switches.
    pub fn set_current_asid(&mut self, asid: Asid) {
        self.current = asid;
    }

    /// Invalidates every entry tagged exactly `asid` (a flushing context
    /// switch). Global entries are exempt by construction — they carry
    /// the [`Asid::GLOBAL`] tag, which no tenant flush names. Replacement
    /// metadata of the freed ways goes stale but is rewritten by the next
    /// fill into each way, and victims are only chosen from full sets, so
    /// eviction order among live entries is unaffected. In-flight MSHRs
    /// are untouched: a walk already in progress completes and installs
    /// under the tag captured at fill time.
    pub fn flush_asid(&mut self, asid: Asid) {
        for set in 0..self.cfg.sets {
            let mut mask = self.valid[set];
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                // way comes from the set's valid mask, so slot(set, way)
                // is in bounds by construction
                if self.entries[self.slot(set, way)].asid == asid {
                    self.valid[set] &= !(1 << way);
                }
                mask &= mask - 1;
            }
        }
    }

    /// Targeted shootdown: invalidates any entry translating `va` under
    /// exactly `asid`, probing both page-size granularities.
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        for size in [PageSize::Base4K, PageSize::Huge2M] {
            let vpn = va.vpn(size).0;
            let set = self.set_of(vpn);
            let mut mask = self.valid[set];
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                // way comes from the set's valid mask, so slot(set, way)
                // is in bounds by construction
                let e = &self.entries[self.slot(set, way)];
                if e.vpn == vpn && e.size == size && e.asid == asid {
                    self.valid[set] &= !(1 << way);
                }
                mask &= mask - 1;
            }
        }
    }

    /// Invalidates every entry (any tag) whose page lies inside the 2 MiB
    /// region `region_vpn2m` — the TLB half of a huge-page promotion or
    /// demotion, which changes the region's translations wholesale.
    pub fn invalidate_region(&mut self, region_vpn2m: u64) {
        for set in 0..self.cfg.sets {
            let mut mask = self.valid[set];
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                // way comes from the set's valid mask, so slot(set, way)
                // is in bounds by construction
                let e = &self.entries[self.slot(set, way)];
                let in_region = match e.size {
                    PageSize::Base4K => e.vpn >> 9 == region_vpn2m,
                    PageSize::Huge2M => e.vpn == region_vpn2m,
                };
                if in_region {
                    self.valid[set] &= !(1 << way);
                }
                mask &= mask - 1;
            }
        }
    }

    /// Clears statistics (entries and replacement state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Exports every resident entry in set order, ways ascending — the
    /// warm-state snapshot handed to the functional tier at a boundary.
    /// Statistics and replacement metadata are not touched.
    pub fn export_entries(&self) -> Vec<TlbEntry> {
        let mut out = Vec::new();
        for set in 0..self.cfg.sets {
            let mut mask = self.valid[set];
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                // way comes from the set's valid mask, so slot(set, way)
                // is in bounds by construction
                let e = &self.entries[self.slot(set, way)];
                out.push((e.vpn, e.size, e.frame, e.kind, e.asid));
                mask &= mask - 1;
            }
        }
        out
    }

    /// Replaces the TLB's contents with `entries`: the warm-state import
    /// at a tier boundary. Resident entries and in-flight MSHRs are
    /// dropped, then each entry is installed through the regular policy
    /// fill path — iterate **LRU-first** so the last entry installed into
    /// a set is its MRU. Statistics are NOT perturbed: a handoff is not
    /// simulated traffic.
    pub fn import_entries<I: IntoIterator<Item = TlbEntry>>(&mut self, entries: I) {
        for v in self.valid.iter_mut() {
            *v = 0;
        }
        self.outstanding.retain(|_| false);
        for (vpn, size, frame, kind, asid) in entries {
            let set = self.set_of(vpn);
            if self.find_way(set, vpn, size, asid).is_some() {
                continue;
            }
            let meta = self.meta(vpn, 0, kind, ThreadId(0));
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
            self.entries[self.slot(set, way)] = Entry {
                vpn,
                size,
                frame,
                kind,
                asid,
                ready: 0,
            };
            self.policy.on_fill(set, way, &meta);
        }
    }

    /// Number of resident entries.
    pub fn resident_count(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Whether a translation for `va` at `size` is visible under the
    /// current ASID.
    pub fn contains(&self, va: VirtAddr, size: PageSize) -> bool {
        let vpn = va.vpn(size).0;
        let set = self.set_of(vpn);
        self.find_way(set, vpn, size, self.current).is_some()
    }

    /// Whether a translation for `va` at `size` tagged `asid` is resident
    /// (exact tag under the never-both invariant, regardless of the
    /// current ASID).
    pub fn contains_tagged(&self, va: VirtAddr, size: PageSize, asid: Asid) -> bool {
        let vpn = va.vpn(size).0;
        let set = self.set_of(vpn);
        self.find_way(set, vpn, size, asid).is_some()
    }
}

/// Last-level TLB organization: the unified design the paper optimizes, or
/// the split design it compares against in Section 6.6.
// `Tlb` holds its policy engine inline, so `Split` is two engines wide.
// A construct-once singleton on the per-access path: keeping both halves
// inline beats boxing them behind a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum LastLevelTlb {
    /// One shared structure for instruction and data translations.
    Unified(Tlb),
    /// Separate instruction and data STLBs.
    Split {
        /// Instruction-translation STLB.
        instr: Tlb,
        /// Data-translation STLB.
        data: Tlb,
    },
}

impl LastLevelTlb {
    /// The structure responsible for `kind` translations.
    pub fn for_kind(&mut self, kind: TranslationKind) -> &mut Tlb {
        match self {
            LastLevelTlb::Unified(t) => t,
            LastLevelTlb::Split { instr, data } => match kind {
                TranslationKind::Instruction => instr,
                TranslationKind::Data => data,
            },
        }
    }

    /// Aggregated statistics across the organization.
    pub fn stats(&self) -> StructStats {
        match self {
            LastLevelTlb::Unified(t) => t.stats().clone(),
            LastLevelTlb::Split { instr, data } => {
                let mut s = instr.stats().clone();
                s.merge(data.stats());
                s
            }
        }
    }

    /// Clears statistics on every member structure.
    pub fn reset_stats(&mut self) {
        match self {
            LastLevelTlb::Unified(t) => t.reset_stats(),
            LastLevelTlb::Split { instr, data } => {
                instr.reset_stats();
                data.reset_stats();
            }
        }
    }

    /// Total entries across the organization.
    pub fn entries(&self) -> usize {
        match self {
            LastLevelTlb::Unified(t) => t.config().entries(),
            LastLevelTlb::Split { instr, data } => {
                instr.config().entries() + data.config().entries()
            }
        }
    }

    /// Retargets lookups in every member structure (a context switch).
    pub fn set_current_asid(&mut self, asid: Asid) {
        match self {
            LastLevelTlb::Unified(t) => t.set_current_asid(asid),
            LastLevelTlb::Split { instr, data } => {
                instr.set_current_asid(asid);
                data.set_current_asid(asid);
            }
        }
    }

    /// Flushes `asid`-tagged entries from every member structure.
    pub fn flush_asid(&mut self, asid: Asid) {
        match self {
            LastLevelTlb::Unified(t) => t.flush_asid(asid),
            LastLevelTlb::Split { instr, data } => {
                instr.flush_asid(asid);
                data.flush_asid(asid);
            }
        }
    }

    /// Targeted shootdown across every member structure.
    pub fn invalidate_page(&mut self, va: VirtAddr, asid: Asid) {
        match self {
            LastLevelTlb::Unified(t) => t.invalidate_page(va, asid),
            LastLevelTlb::Split { instr, data } => {
                instr.invalidate_page(va, asid);
                data.invalidate_page(va, asid);
            }
        }
    }

    /// Invalidates a 2 MiB region in every member structure (huge-page
    /// promotion/demotion churn).
    pub fn invalidate_region(&mut self, region_vpn2m: u64) {
        match self {
            LastLevelTlb::Unified(t) => t.invalidate_region(region_vpn2m),
            LastLevelTlb::Split { instr, data } => {
                instr.invalidate_region(region_vpn2m);
                data.invalidate_region(region_vpn2m);
            }
        }
    }
}

impl ResetBoundary for Tlb {
    fn reset_boundary(&mut self) {
        self.reset_stats();
    }
}

impl ResetBoundary for LastLevelTlb {
    fn reset_boundary(&mut self) {
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_policy::Lru;

    fn cfg() -> TlbConfig {
        TlbConfig {
            sets: 16,
            ways: 4,
            latency: 1,
            mshr_entries: 8,
        }
    }

    fn tlb() -> Tlb {
        Tlb::new(cfg(), Lru::new(16, 4))
    }

    fn fill4k(t: &mut Tlb, va: VirtAddr, frame: u64) {
        t.fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(frame),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            10,
            0,
        );
    }

    fn fill4k_tagged(t: &mut Tlb, va: VirtAddr, frame: u64, asid: Asid) {
        t.fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(frame),
            TranslationKind::Data,
            asid,
            0,
            ThreadId(0),
            10,
            0,
        );
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Miss
        );
        fill4k(&mut t, va, 0xaaaa_0000);
        match t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 5) {
            TlbLookup::Hit { done, frame, size } => {
                assert_eq!(done, 6); // latency 1
                assert_eq!(frame.0, 0xaaaa_0000);
                assert_eq!(size, PageSize::Base4K);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(t.stats().misses(), 1);
        assert_eq!(t.stats().accesses(), 2);
    }

    #[test]
    fn huge_page_hits_via_2m_vpn() {
        let mut t = tlb();
        let base = VirtAddr::new(0x4000_0000);
        t.fill(
            base.vpn(PageSize::Huge2M).0,
            PageSize::Huge2M,
            PhysAddr::new(0x8000_0000),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            10,
            0,
        );
        // Any address inside the 2 MiB region hits.
        let inside = VirtAddr::new(0x4000_0000 + 0x12_3456);
        assert!(matches!(
            t.lookup(inside, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Hit {
                size: PageSize::Huge2M,
                ..
            }
        ));
    }

    #[test]
    fn eviction_follows_policy() {
        let mut t = tlb();
        // Fill one set (vpn ≡ 0 mod 16) beyond capacity.
        for i in 0..5u64 {
            fill4k(&mut t, VirtAddr::new(i * 16 * 4096), i + 1);
        }
        // The first-filled entry (LRU) must be gone.
        assert!(!t.contains(VirtAddr::new(0), PageSize::Base4K));
        assert!(t.contains(VirtAddr::new(4 * 16 * 4096), PageSize::Base4K));
    }

    #[test]
    fn mshr_merge_returns_ready_cycle() {
        let mut t = tlb();
        let va = VirtAddr::new(0x7000);
        assert_eq!(t.merge(va, 0), None);
        let start = t.mshr_alloc(va, TranslationKind::Instruction, 10);
        assert_eq!(start, 10);
        assert_eq!(t.mshr_kind(va), Some(TranslationKind::Instruction));
        t.mshr_complete(va, 150);
        assert_eq!(t.merge(va, 20), Some(150));
        // After completion time passes, the entry no longer merges.
        assert_eq!(t.merge(va, 151), None);
    }

    #[test]
    fn mshr_capacity_delays_allocation() {
        let mut t = Tlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(4, 2),
        );
        let a = VirtAddr::new(0x1000);
        let b = VirtAddr::new(0x2000);
        let c = VirtAddr::new(0x3000);
        t.mshr_alloc(a, TranslationKind::Data, 0);
        t.mshr_complete(a, 100);
        t.mshr_alloc(b, TranslationKind::Data, 0);
        t.mshr_complete(b, 200);
        // Both MSHRs busy at cycle 10: the new miss waits for the earliest.
        let start = t.mshr_alloc(c, TranslationKind::Data, 10);
        assert_eq!(start, 100);
    }

    #[test]
    fn fill_of_resident_entry_does_not_duplicate() {
        let mut t = tlb();
        let va = VirtAddr::new(0x9000);
        fill4k(&mut t, va, 0x1);
        fill4k(&mut t, va, 0x1);
        // Still resident and set not polluted: other ways still free for
        // three more distinct pages without evicting it.
        for i in 1..4u64 {
            fill4k(&mut t, VirtAddr::new(0x9000 + i * 16 * 4096), i);
        }
        assert!(t.contains(va, PageSize::Base4K));
    }

    #[test]
    fn split_stlb_routes_by_kind() {
        let mk = || Tlb::new(cfg(), Lru::new(16, 4));
        let mut s = LastLevelTlb::Split {
            instr: mk(),
            data: mk(),
        };
        let va = VirtAddr::new(0x5000);
        s.for_kind(TranslationKind::Instruction).fill(
            va.vpn(PageSize::Base4K).0,
            PageSize::Base4K,
            PhysAddr::new(0x1000),
            TranslationKind::Instruction,
            Asid::KERNEL,
            0,
            ThreadId(0),
            1,
            0,
        );
        assert!(s
            .for_kind(TranslationKind::Instruction)
            .contains(va, PageSize::Base4K));
        assert!(!s
            .for_kind(TranslationKind::Data)
            .contains(va, PageSize::Base4K));
        assert_eq!(s.entries(), 128);
    }

    /// A policy that violates the `victim() < ways` contract.
    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    #[derive(Debug)]
    struct OutOfRangeVictim;

    #[cfg(any(debug_assertions, feature = "strict-contracts"))]
    impl itpx_policy::Policy<TlbMeta> for OutOfRangeVictim {
        fn on_fill(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn on_hit(&mut self, _: usize, _: usize, _: &TlbMeta) {}
        fn victim(&mut self, _: usize, _: &TlbMeta) -> usize {
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
        let mut t = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            TlbPolicyEngine::boxed(OutOfRangeVictim),
        );
        for i in 0..3u64 {
            // Three distinct pages into a 2-way single set: the third
            // fill asks the policy for a victim.
            fill4k(&mut t, VirtAddr::new(i * 4096), i + 1);
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_membership() {
        let mut src = tlb();
        // Mixed page sizes and kinds across several sets.
        for i in 0..12u64 {
            fill4k(&mut src, VirtAddr::new(i * 4096), i + 1);
        }
        src.fill(
            VirtAddr::new(0x4000_0000).vpn(PageSize::Huge2M).0,
            PageSize::Huge2M,
            PhysAddr::new(0x8000_0000),
            TranslationKind::Instruction,
            Asid::KERNEL,
            0,
            ThreadId(0),
            10,
            0,
        );
        let exported = src.export_entries();
        assert_eq!(exported.len(), src.resident_count());

        let mut dst = tlb();
        fill4k(&mut dst, VirtAddr::new(0xdead_0000), 99); // stale content, must be dropped
        dst.import_entries(exported.clone());
        assert_eq!(dst.resident_count(), exported.len());
        assert!(!dst.contains(VirtAddr::new(0xdead_0000), PageSize::Base4K));
        for i in 0..12u64 {
            assert!(dst.contains(VirtAddr::new(i * 4096), PageSize::Base4K));
        }
        assert!(dst.contains(VirtAddr::new(0x4000_0000), PageSize::Huge2M));
        // Exported kinds survive the roundtrip.
        assert_eq!(dst.export_entries().len(), exported.len());
        let huge = dst
            .export_entries()
            .into_iter()
            .find(|(_, size, _, _, _)| *size == PageSize::Huge2M)
            .expect("huge entry survives");
        assert_eq!(huge.3, TranslationKind::Instruction);
        assert_eq!(huge.4, Asid::KERNEL);
    }

    #[test]
    fn import_does_not_touch_stats_and_sets_mru_order() {
        let mut src = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(1, 2),
        );
        // Install A then B: export order is ways-ascending (A first = LRU).
        fill4k(&mut src, VirtAddr::new(0x1000), 1);
        fill4k(&mut src, VirtAddr::new(0x2000), 2);

        let mut dst = Tlb::new(
            TlbConfig {
                sets: 1,
                ways: 2,
                latency: 1,
                mshr_entries: 2,
            },
            Lru::new(1, 2),
        );
        dst.import_entries(src.export_entries());
        assert_eq!(dst.stats().accesses(), 0, "import is not simulated traffic");
        assert_eq!(dst.stats().misses(), 0);
        // B was installed last (MRU); a new fill must evict A, not B.
        fill4k(&mut dst, VirtAddr::new(0x3000), 3);
        assert!(!dst.contains(VirtAddr::new(0x1000), PageSize::Base4K));
        assert!(dst.contains(VirtAddr::new(0x2000), PageSize::Base4K));
    }

    #[test]
    fn reset_boundary_clears_stats_keeps_entries() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1234_5678);
        let _ = t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0);
        fill4k(&mut t, va, 0x1);
        assert!(t.stats().accesses() > 0);
        t.reset_boundary();
        assert_eq!(t.stats().accesses(), 0);
        assert!(t.contains(va, PageSize::Base4K));
    }

    #[test]
    fn asid_tag_gates_hits_and_global_entries_are_exempt() {
        let mut t = tlb();
        let va = VirtAddr::new(0x1000);
        let shared = VirtAddr::new(0x2000);
        fill4k_tagged(&mut t, va, 0x1, Asid(1));
        fill4k_tagged(&mut t, shared, 0x2, Asid::GLOBAL);
        // Current ASID is KERNEL (0): the tenant-1 entry is invisible,
        // the global one hits.
        assert!(!t.contains(va, PageSize::Base4K));
        assert!(t.contains(shared, PageSize::Base4K));
        t.set_current_asid(Asid(1));
        assert!(t.contains(va, PageSize::Base4K));
        assert!(t.contains(shared, PageSize::Base4K));
        assert!(matches!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Hit { .. }
        ));
        t.set_current_asid(Asid(2));
        assert_eq!(
            t.lookup(va, TranslationKind::Data, 0, ThreadId(0), 0),
            TlbLookup::Miss
        );
    }

    #[test]
    fn flush_asid_spares_other_tenants_and_globals() {
        let mut t = tlb();
        fill4k_tagged(&mut t, VirtAddr::new(0x1000), 0x1, Asid(1));
        fill4k_tagged(&mut t, VirtAddr::new(0x2000), 0x2, Asid(2));
        fill4k_tagged(&mut t, VirtAddr::new(0x3000), 0x3, Asid::GLOBAL);
        t.flush_asid(Asid(1));
        assert!(!t.contains_tagged(VirtAddr::new(0x1000), PageSize::Base4K, Asid(1)));
        assert!(t.contains_tagged(VirtAddr::new(0x2000), PageSize::Base4K, Asid(2)));
        assert!(t.contains_tagged(VirtAddr::new(0x3000), PageSize::Base4K, Asid::GLOBAL));
        assert_eq!(t.resident_count(), 2);
    }

    #[test]
    fn invalidate_page_is_exact_by_va_and_asid() {
        let mut t = tlb();
        let va = VirtAddr::new(0x5000);
        fill4k_tagged(&mut t, va, 0x1, Asid(1));
        fill4k_tagged(&mut t, va, 0x2, Asid(2));
        t.invalidate_page(va, Asid(1));
        assert!(!t.contains_tagged(va, PageSize::Base4K, Asid(1)));
        assert!(t.contains_tagged(va, PageSize::Base4K, Asid(2)));
    }

    #[test]
    fn invalidate_region_drops_both_granularities() {
        let mut t = tlb();
        let region = VirtAddr::new(0x4000_0000);
        t.fill(
            region.vpn(PageSize::Huge2M).0,
            PageSize::Huge2M,
            PhysAddr::new(0x8000_0000),
            TranslationKind::Data,
            Asid::KERNEL,
            0,
            ThreadId(0),
            1,
            0,
        );
        fill4k(&mut t, VirtAddr::new(0x4000_1000), 0x9);
        fill4k(&mut t, VirtAddr::new(0x5000_0000), 0xa); // outside region
        t.invalidate_region(region.vpn(PageSize::Huge2M).0);
        assert!(!t.contains(region, PageSize::Huge2M));
        assert!(!t.contains(VirtAddr::new(0x4000_1000), PageSize::Base4K));
        assert!(t.contains(VirtAddr::new(0x5000_0000), PageSize::Base4K));
    }

    #[test]
    fn export_carries_asid_through_roundtrip() {
        let mut src = tlb();
        fill4k_tagged(&mut src, VirtAddr::new(0x1000), 0x1, Asid(3));
        let mut dst = tlb();
        dst.import_entries(src.export_entries());
        assert!(dst.contains_tagged(VirtAddr::new(0x1000), PageSize::Base4K, Asid(3)));
        assert!(!dst.contains(VirtAddr::new(0x1000), PageSize::Base4K));
    }

    #[test]
    fn stats_split_by_translation_kind() {
        let mut t = tlb();
        let _ = t.lookup(
            VirtAddr::new(0x1000),
            TranslationKind::Instruction,
            0,
            ThreadId(0),
            0,
        );
        let _ = t.lookup(
            VirtAddr::new(0x2000),
            TranslationKind::Data,
            0,
            ThreadId(0),
            0,
        );
        let b = t.stats().mpki_breakdown(1000);
        assert!(b.instr > 0.0 && b.data > 0.0);
        assert_eq!(t.stats().misses(), 2);
    }
}
