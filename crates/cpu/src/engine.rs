//! The timing engine: a timestamp-dataflow out-of-order core.
//!
//! Instead of stepping every pipeline stage every cycle, each dynamic
//! instruction is assigned the cycle at which each of its lifecycle events
//! completes (fetch → dispatch → ready → complete → retire), with
//! structural limits enforced along the way:
//!
//! * **front end** — fetch groups of `fetch_width` instructions per cycle
//!   from one cache block; crossing into a new block performs ITLB
//!   translation and an L1I access. Pipelining hides hit latencies; only
//!   the *excess* latency of misses stalls fetch, and the excess caused by
//!   instruction-translation misses is accounted separately (the paper's
//!   Figure 1 metric). FDIP prefetches upcoming FTQ blocks into the L1I.
//! * **back end** — ROB occupancy bounds in-flight instructions (the slot
//!   of instruction *i* frees when instruction *i − ROB* retires);
//!   register dependencies come from the trace; loads translate through
//!   DTLB/STLB and access the hierarchy at their ready time, so their
//!   latency overlaps with independent work — the out-of-order latency
//!   hiding that makes data translation cheaper than instruction
//!   translation, as the paper observes.
//! * **branches** — a hashed perceptron predicts directions; a
//!   misprediction redirects fetch after the branch resolves.
//! * **SMT** — two threads interleave fetch cycles (each thread gets every
//!   other fetch slot), split the ROB, and share every TLB/cache/walker
//!   structure; the engine advances whichever thread is earliest in
//!   simulated time.

use crate::branch::HashedPerceptron;
use crate::functional::FunctionalMachine;
use crate::output::{LevelReport, SimulationOutput, ThreadOutput, WalkerSummary};
use crate::system::System;
use itpx_trace::{
    ContextSchedule, InstructionStream, SwitchPolicy, TierSchedule, TraceGenerator, TraceInst,
    WorkloadSource, WorkloadSpec,
};
use itpx_types::{
    Asid, Cycle, LevelId, PageSize, ResetBoundary, ThreadId, TranslationKind, VirtAddr,
};
use std::collections::VecDeque;

/// Ring size for dependency tracking (dep distances are `u8`).
const DEP_RING: usize = 256;

/// Cap on the functionally-executed warm tail of a fast-forward segment.
///
/// A fast-forward of N instructions splits into a *free skip* of
/// `N - min(N, FF_WARM_CAP)` (the phase fork re-seeds the generator, so
/// skipped instructions cost nothing) and a *warm tail* executed through
/// the functional machine to refresh TLB/cache/predictor state. 250k
/// instructions is far past the warm-state half-life of every Table 1
/// structure, so a longer tail changes nothing but wall-clock.
const FF_WARM_CAP: u64 = 250_000;

/// One segment of a tiered run (the engine's execution-tier abstraction).
///
/// A run is a schedule of segments: [`Tier::FastForward`] advances
/// program state through the functional machine at ~7× cycle-model speed
/// (plus the free skip beyond its warm-state cap of 250k instructions), and [`Tier::Window`]
/// measures cycle-accurately. [`Tier::segments`] lowers a
/// [`TierSchedule`] into this form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Functional fast-forward covering `instructions` program
    /// instructions (warm-state handoff at both edges).
    FastForward {
        /// Program instructions the segment covers.
        instructions: u64,
    },
    /// Cycle-accurate measurement window of `instructions` instructions.
    Window {
        /// Instructions measured by the segment.
        instructions: u64,
    },
}

impl Tier {
    /// Lowers a schedule into its segment sequence: `windows` repetitions
    /// of (fast-forward, window), fast-forwards omitted when the gap is
    /// zero. The flat schedule lowers to no segments — the engine runs
    /// the classic single-window path instead.
    pub fn segments(schedule: &TierSchedule) -> Vec<Tier> {
        let mut out = Vec::new();
        if schedule.is_flat() {
            return out;
        }
        for _ in 0..schedule.windows {
            if schedule.fast_forward > 0 {
                out.push(Tier::FastForward {
                    instructions: schedule.fast_forward,
                });
            }
            out.push(Tier::Window {
                instructions: schedule.window,
            });
        }
        out
    }
}

/// Tenant `t`'s workload: the same statistical shape as `spec` with the
/// layout re-seeded, so every tenant runs over its own concrete pages
/// (tenant 0 keeps the spec verbatim — its stream IS the original one).
fn tenant_spec(spec: &WorkloadSpec, tenant: u16) -> WorkloadSpec {
    let mut s = spec.clone();
    s.seed = spec.seed ^ (tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    s
}

/// Live state of a multi-tenant [`ContextSchedule`].
///
/// The schedule clock counts *executed program instructions* across both
/// execution tiers (cycle windows and functional fast-forwards advance it
/// identically), so switches, shootdowns, and churn fire at the same
/// program points no matter how a run is tiered. Cadence events
/// (shootdown/churn) target the data VA of the instruction they fire on —
/// well-defined in both tiers and guaranteed to hit live translations.
struct ContextState {
    schedule: ContextSchedule,
    /// Unmounted tenant streams (`None` = currently mounted on the pipe).
    streams: Vec<Option<Box<dyn InstructionStream>>>,
    /// Tenant currently executing.
    current: usize,
    /// Executed program instructions, both tiers.
    clock: u64,
    next_switch: u64,
    next_shootdown: u64,
    next_churn: u64,
}

impl std::fmt::Debug for ContextState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextState")
            .field("schedule", &self.schedule)
            .field("current", &self.current)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl ContextState {
    /// Whether a switch boundary has been reached.
    fn switch_due(&self) -> bool {
        self.clock >= self.next_switch
    }

    /// Advances to the next tenant round-robin: remounts the pipe's
    /// instruction stream and flushes its front-end lookahead (the FTQ
    /// holds the outgoing tenant's speculative path — a context switch
    /// discards it). Returns the incoming tenant's ASID; the caller
    /// applies the tier-appropriate TLB/PSC effects.
    fn rotate(&mut self, pipe: &mut ThreadPipe) -> Asid {
        self.next_switch += self.schedule.quantum;
        let next = (self.current + 1) % self.streams.len();
        // next < streams.len() by the modulo, and every slot except the
        // executing tenant's holds Some by the mount/unmount discipline.
        let incoming = self.streams[next].take().expect("unmounted tenant stream");
        self.streams[self.current] = Some(std::mem::replace(&mut pipe.stream, incoming));
        self.current = next;
        pipe.lookahead.clear();
        pipe.cur_block = u64::MAX;
        pipe.group_count = 0;
        // itpx-allow: arith-width streams.len() == schedule.tenants, a u16, so the index fits
        Asid(next as u16)
    }

    /// The executing tenant's ASID.
    fn asid(&self) -> Asid {
        // itpx-allow: arith-width current indexes streams, whose length is the u16 tenant count
        Asid(self.current as u16)
    }

    /// Whether switches flush the incoming tenant's cached translations.
    fn flushes(&self) -> bool {
        self.schedule.policy == SwitchPolicy::FlushAsid
    }

    /// Whether the shootdown cadence fires at the current clock (consumes
    /// the event when it does).
    fn shootdown_due(&mut self) -> bool {
        if self.schedule.shootdown_every > 0 && self.clock >= self.next_shootdown {
            self.next_shootdown += self.schedule.shootdown_every;
            true
        } else {
            false
        }
    }

    /// Whether the churn cadence fires at the current clock (consumes the
    /// event when it does).
    fn churn_due(&mut self) -> bool {
        if self.schedule.churn_every > 0 && self.clock >= self.next_churn {
            self.next_churn += self.schedule.churn_every;
            true
        } else {
            false
        }
    }

    /// Advances the clock across a free skip of `skip` instructions.
    /// Cadence events are executed-instruction driven, so skipped spans
    /// advance their counters without firing (documented limit); switch
    /// boundaries still count — the caller rotates once per crossing.
    fn skip(&mut self, skip: u64) -> u64 {
        self.clock += skip;
        let crossings = self
            .clock
            .saturating_sub(self.next_switch)
            .checked_div(self.schedule.quantum)
            .map_or(0, |full| full + u64::from(self.clock >= self.next_switch));
        for (every, next) in [
            (self.schedule.shootdown_every, &mut self.next_shootdown),
            (self.schedule.churn_every, &mut self.next_churn),
        ] {
            if every > 0 && *next <= self.clock {
                *next += (self.clock - *next) / every * every + every;
            }
        }
        crossings
    }
}

#[derive(Debug)]
struct ThreadPipe {
    id: ThreadId,
    name: String,
    /// The synthetic spec behind `stream`, kept so fast-forward segments
    /// can phase-fork the generator (`None` for trace replays, which
    /// cannot be tiered).
    spec: Option<WorkloadSpec>,
    stream: Box<dyn InstructionStream>,
    lookahead: VecDeque<TraceInst>,
    bp: HashedPerceptron,
    va_offset: u64,
    // Front-end state.
    frontend_time: Cycle,
    cur_block: u64,
    group_count: usize,
    recent_pf: [u64; 64],
    // Back-end state.
    completions: Vec<Cycle>,
    retire_ring: Vec<Cycle>,
    rob_size: usize,
    last_retire: Cycle,
    retire_cycle: Cycle,
    retired_this_cycle: usize,
    produced: u64,
    /// New-block fetches left to run without FDIP after a misprediction
    /// (the prefetcher was off on the wrong path).
    fdip_suppress: u8,
    // Measurement.
    warmup: u64,
    target: u64,
    meas_start_cycle: Cycle,
    itrans_stall: u64,
    mispredicts: u64,
    end_cycle: Option<Cycle>,
}

impl ThreadPipe {
    fn new(source: WorkloadSource, id: ThreadId, rob_size: usize) -> Self {
        let name = source.name().to_string();
        let warmup = source.warmup();
        let spec = match &source {
            WorkloadSource::Synthetic(s) => Some(s.clone()),
            WorkloadSource::Replay { .. } => None,
        };
        // A tiered schedule defines the measured instruction count itself
        // (windows × window); the flat schedule measures `instructions`.
        let tiers = spec.as_ref().map_or_else(TierSchedule::flat, |s| s.tiers);
        let target = if tiers.is_flat() {
            warmup + source.instructions()
        } else {
            warmup + tiers.measured_instructions()
        };
        Self {
            id,
            name,
            spec,
            stream: source.into_stream(),
            lookahead: VecDeque::new(),
            bp: HashedPerceptron::new(),
            va_offset: (id.0 as u64) << 44,
            frontend_time: 0,
            cur_block: u64::MAX,
            group_count: 0,
            recent_pf: [u64::MAX; 64],
            fdip_suppress: 0,
            completions: vec![0; DEP_RING],
            retire_ring: vec![0; rob_size],
            rob_size,
            last_retire: 0,
            retire_cycle: 0,
            retired_this_cycle: 0,
            produced: 0,
            warmup,
            target,
            meas_start_cycle: 0,
            itrans_stall: 0,
            mispredicts: 0,
            end_cycle: None,
        }
    }

    fn warmed(&self) -> bool {
        self.produced >= self.warmup
    }

    fn finished(&self) -> bool {
        self.produced >= self.target
    }

    fn tiers(&self) -> TierSchedule {
        self.spec
            .as_ref()
            .map_or_else(TierSchedule::flat, |s| s.tiers)
    }
}

impl ResetBoundary for ThreadPipe {
    /// The per-thread half of a measurement boundary: zero the measured
    /// counters and pin the measurement clock to the retire frontier.
    /// Pipeline state (FTQ, predictor, recency of everything) is kept.
    fn reset_boundary(&mut self) {
        self.meas_start_cycle = self.last_retire;
        self.itrans_stall = 0;
        self.mispredicts = 0;
    }
}

/// The multi-thread simulation engine.
#[derive(Debug)]
pub struct Engine {
    system: System,
    threads: Vec<ThreadPipe>,
    /// Multi-tenant schedule state (`None` = classic single-tenant run).
    ctx: Option<ContextState>,
}

impl Engine {
    /// Creates an engine running `specs` (one per hardware thread, 1 or 2)
    /// on `system`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or has more than two entries.
    pub fn new(system: System, specs: &[WorkloadSpec]) -> Self {
        Self::from_sources(
            system,
            specs.iter().cloned().map(WorkloadSource::from).collect(),
        )
    }

    /// Creates an engine from arbitrary instruction sources (synthetic
    /// generators or recorded-trace replays).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or has more than two entries.
    pub fn from_sources(system: System, sources: Vec<WorkloadSource>) -> Self {
        assert!(
            (1..=2).contains(&sources.len()),
            "1 or 2 hardware threads supported"
        );
        let rob_per_thread = system.config.rob_entries / sources.len();
        let threads: Vec<ThreadPipe> = sources
            .into_iter()
            .enumerate()
            .map(|(i, s)| ThreadPipe::new(s, ThreadId(i as u8), rob_per_thread))
            .collect();
        let mut system = system;
        let contexts = threads[0]
            .spec
            .as_ref()
            .map_or_else(ContextSchedule::flat, |s| s.contexts);
        let ctx = if contexts.is_flat() {
            None
        } else {
            assert!(
                threads.len() == 1,
                "multi-tenant schedules support a single hardware thread"
            );
            let spec = threads[0]
                .spec
                .as_ref()
                // Unreachable: replay sources carry no spec, so their
                // schedule is flat and this branch never runs.
                .expect("multi-tenant runs need a synthetic workload");
            system.configure_address_spaces(
                contexts.tenants as usize,
                contexts.global_fraction,
                contexts.global_seed,
            );
            // Tenant 0's stream is the pipe's own; slots hold the rest.
            let streams = (0..contexts.tenants)
                .map(|t| {
                    (t > 0).then(|| {
                        Box::new(TraceGenerator::new(&tenant_spec(spec, t)))
                            as Box<dyn InstructionStream>
                    })
                })
                .collect();
            Some(ContextState {
                schedule: contexts,
                streams,
                current: 0,
                clock: 0,
                next_switch: contexts.quantum,
                next_shootdown: contexts.shootdown_every,
                next_churn: contexts.churn_every,
            })
        };
        Self {
            system,
            threads,
            ctx,
        }
    }

    /// Executes one instruction on thread `ti`.
    fn step(&mut self, ti: usize, smt_active: bool) {
        // A due context switch lands before the instruction: rotate the
        // tenant streams and apply the switch to the cycle structures.
        if let Some(ctx) = self.ctx.as_mut() {
            if ctx.switch_due() {
                let flush = ctx.flushes();
                let asid = ctx.rotate(&mut self.threads[ti]);
                self.system.context_switch(asid, flush);
            }
        }
        let cfg = self.system.config;
        let sys = &mut self.system;
        let t = &mut self.threads[ti];
        let mut ctx = self.ctx.as_mut();

        // Keep the FTQ lookahead full.
        while t.lookahead.len() < cfg.ftq_entries {
            let next = t.stream.next_inst();
            // itpx-allow: hot-alloc ring bounded by ftq_entries; the deque's capacity stabilizes after the first refill
            t.lookahead.push_back(next);
        }
        // the refill loop above guarantees ftq_entries >= 1 elements
        let inst = t.lookahead.pop_front().expect("non-empty lookahead");
        let pc = inst.pc + t.va_offset;

        // ---- Fetch ----
        let quantum: u64 = if smt_active { 2 } else { 1 };
        let block = pc >> 6;
        if block != t.cur_block {
            t.cur_block = block;
            t.group_count = 1;
            t.frontend_time += quantum;
            let tr = sys.translate(
                VirtAddr::new(pc),
                TranslationKind::Instruction,
                pc,
                t.id,
                t.frontend_time,
            );
            // Stall attributable to instruction address translation: the
            // excess beyond a pipelined ITLB hit.
            let tstall = tr.done.saturating_sub(t.frontend_time + cfg.itlb.latency);
            t.itrans_stall += tstall;
            let fdone = sys.hierarchy.instr_fetch(tr.pa, pc, t.id, tr.done);
            let fstall = fdone.saturating_sub(tr.done + cfg.hierarchy.l1i.latency);
            t.frontend_time += tstall + fstall;

            // FDIP: prefetch upcoming distinct blocks along the FTQ —
            // unless a recent misprediction means the prefetcher was
            // running down the wrong path.
            if t.fdip_suppress > 0 {
                t.fdip_suppress -= 1;
            } else {
                let mut seen = block;
                let mut depth = 0usize;
                let mut nominations: [u64; 16] = [u64::MAX; 16];
                for la in t.lookahead.iter() {
                    let b = (la.pc + t.va_offset) >> 6;
                    if b != seen {
                        seen = b;
                        let slot = (b as usize) & 63;
                        if t.recent_pf[slot] != b {
                            t.recent_pf[slot] = b;
                            // .min(15) clamps into the 16-slot array
                            nominations[depth.min(15)] = b;
                        }
                        depth += 1;
                        if depth >= cfg.fdip_depth {
                            break;
                        }
                    }
                }
                for &b in nominations.iter().filter(|&&b| b != u64::MAX) {
                    let pa = sys.fdip_target(VirtAddr::new(b << 6), t.id);
                    sys.hierarchy.prefetch_instr(pa, t.id, t.frontend_time);
                }
            }
        } else {
            t.group_count += 1;
            if t.group_count > cfg.fetch_width {
                t.frontend_time += quantum;
                t.group_count = 1;
            }
        }
        let fetch_done = t.frontend_time;

        // ---- Dispatch: ROB slot of instruction (produced - rob_size). ----
        let rob_idx = (t.produced % t.rob_size as u64) as usize;
        let dispatch = fetch_done.max(t.retire_ring[rob_idx]);

        // ---- Ready: register dependencies. ----
        let mut ready = dispatch;
        for d in [inst.src1_dist, inst.src2_dist] {
            let d = d as u64;
            if d > 0 && d <= t.produced {
                // % DEP_RING keeps the index inside the ring
                ready = ready.max(t.completions[((t.produced - d) % DEP_RING as u64) as usize]);
            }
        }

        // ---- Execute. ----
        let completion = if let Some(m) = inst.mem {
            let va = VirtAddr::new(m.addr + t.va_offset);
            // Due cadence events target this instruction's VA *before* it
            // translates, so the access itself exercises the refill.
            if let Some(c) = ctx.as_deref_mut() {
                if c.shootdown_due() {
                    sys.shootdown(va, c.asid());
                }
                if c.churn_due() {
                    sys.churn_region(t.id, va.vpn(PageSize::Huge2M).0);
                }
            }
            let tr = sys.translate(va, TranslationKind::Data, pc, t.id, ready);
            let mdone = sys
                .hierarchy
                .data_access(tr.pa, pc, t.id, m.store, tr.stlb_miss, tr.done);
            if m.store {
                // Stores complete into the store buffer; the cache access
                // has already updated state and timing downstream.
                ready + 1
            } else {
                mdone
            }
        } else {
            ready + inst.exec_latency.max(1) as u64
        };

        // ---- Branch resolution. ----
        if let Some(b) = inst.branch {
            let correct = t.bp.update(pc, b.taken);
            if !correct {
                t.mispredicts += 1;
                t.frontend_time = t.frontend_time.max(completion + cfg.mispredict_penalty);
                t.cur_block = u64::MAX;
                t.group_count = 0;
                t.fdip_suppress = 2;
            }
        }

        // ---- In-order retire with bandwidth. ----
        let mut retire = completion.max(t.last_retire);
        if retire == t.retire_cycle {
            if t.retired_this_cycle >= cfg.retire_width {
                retire += 1;
                t.retire_cycle = retire;
                t.retired_this_cycle = 1;
            } else {
                t.retired_this_cycle += 1;
            }
        } else {
            t.retire_cycle = retire;
            t.retired_this_cycle = 1;
        }
        t.last_retire = retire;
        t.retire_ring[rob_idx] = retire;
        // % DEP_RING keeps the index inside the ring
        t.completions[(t.produced % DEP_RING as u64) as usize] = completion;
        t.produced += 1;
        if let Some(c) = ctx {
            c.clock += 1;
        }
        sys.on_retire(1);
    }

    /// The warmup → measurement boundary: statistics reset everywhere,
    /// warm contents kept (one [`ResetBoundary`] cascade instead of the
    /// three hand-rolled resets this consolidates).
    fn measurement_boundary(&mut self) {
        self.system.reset_boundary();
        for t in &mut self.threads {
            t.reset_boundary();
        }
    }

    /// Runs one functional fast-forward segment on thread `ti`, covering
    /// `instructions` program instructions.
    ///
    /// The warm stream is a *phase fork* of the thread's spec (same
    /// layout tables, execution RNG re-seeded by `salt`), so the real
    /// stream is not advanced and measurement windows stay contiguous —
    /// the fast-forward models "elsewhere in the same program phase".
    /// Everything beyond the last [`FF_WARM_CAP`] instructions is a free
    /// skip; the warm tail runs through a [`FunctionalMachine`] snapshot
    /// of the cycle structures plus a clone of the branch predictor, and
    /// both hand their state back at the segment edge. No simulated time
    /// passes and no statistics accrue.
    fn fast_forward(&mut self, ti: usize, salt: u64, instructions: u64) {
        let spec = self.threads[ti]
            .spec
            .clone()
            // Unreachable invariant: non-synthetic sources carry no
            // schedule, so tiers() is flat and this path never runs.
            .expect("tiered runs need a synthetic workload");
        let mut fun = FunctionalMachine::from_cycle(&self.system);
        let mut warm_bp = self.threads[ti].bp.clone();
        let warm = instructions.min(FF_WARM_CAP);
        let va_offset = self.threads[ti].va_offset;
        let tid = self.threads[ti].id;
        // One phase-forked warm stream per tenant (a single one when the
        // run is single-tenant): the schedule keeps firing through the
        // fast-forward so both tiers see switches at the same program
        // points.
        let mut gens: Vec<TraceGenerator> = match self.ctx.as_ref() {
            Some(ctx) => (0..ctx.schedule.tenants)
                .map(|t| TraceGenerator::phase_fork(&tenant_spec(&spec, t), salt))
                .collect(),
            None => vec![TraceGenerator::phase_fork(&spec, salt)],
        };
        // The free skip advances the schedule clock too: switch
        // boundaries crossed inside it still rotate tenants (and flush,
        // per policy); cadence events are executed-instruction driven, so
        // they re-arm without firing.
        if let Some(ctx) = self.ctx.as_mut() {
            let crossings = ctx.skip(instructions - warm);
            for _ in 0..crossings {
                let flush = ctx.flushes();
                let asid = ctx.rotate(&mut self.threads[ti]);
                fun.context_switch(asid, flush);
                self.system.address_space_mut(tid).switch_to(asid);
            }
        }
        let mut cur_block = u64::MAX;
        for _ in 0..warm {
            if let Some(ctx) = self.ctx.as_mut() {
                if ctx.switch_due() {
                    let flush = ctx.flushes();
                    let asid = ctx.rotate(&mut self.threads[ti]);
                    fun.context_switch(asid, flush);
                    self.system.address_space_mut(tid).switch_to(asid);
                    cur_block = u64::MAX;
                }
            }
            let tenant = self.ctx.as_ref().map_or(0, |c| c.current);
            let inst = gens[tenant].next_inst();
            let pc = inst.pc + va_offset;
            let block = pc >> 6;
            if block != cur_block {
                cur_block = block;
                fun.fetch(self.system.address_space_mut(tid), VirtAddr::new(pc));
            }
            if let Some(m) = inst.mem {
                let va = VirtAddr::new(m.addr + va_offset);
                // Cadence events mirror the cycle tier: target the VA of
                // the instruction they fire on, before it translates.
                if let Some(ctx) = self.ctx.as_mut() {
                    if ctx.shootdown_due() {
                        fun.shootdown(va, ctx.asid());
                    }
                    if ctx.churn_due() {
                        let region = va.vpn(PageSize::Huge2M).0;
                        if self
                            .system
                            .address_space_mut(tid)
                            .churn_region(region)
                            .is_some()
                        {
                            fun.invalidate_region(region);
                        }
                    }
                }
                if m.store {
                    fun.store(self.system.address_space_mut(tid), va);
                } else {
                    fun.load(self.system.address_space_mut(tid), va);
                }
            }
            if let Some(b) = inst.branch {
                warm_bp.update(pc, b.taken);
            }
            if let Some(ctx) = self.ctx.as_mut() {
                ctx.clock += 1;
            }
        }
        self.threads[ti].bp.import_state(&warm_bp);
        fun.seed_cycle(&mut self.system);
        #[cfg(feature = "strict-contracts")]
        fun.verify_seeded(&self.system);
    }

    /// Runs warmup and measurement, returning the collected results.
    pub fn run(mut self, preset: &str, llc_policy: &str) -> SimulationOutput {
        let smt = self.threads.len() == 2;
        // Phase 1: warm every thread up, interleaved by simulated time.
        loop {
            let next = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.warmed())
                .min_by_key(|(_, t)| t.frontend_time)
                .map(|(i, _)| i);
            match next {
                Some(i) => self.step(i, smt),
                None => break,
            }
        }
        self.measurement_boundary();
        let schedule = self.threads[0].tiers();
        if schedule.is_flat() {
            // Phase 2 (classic): run to each thread's target.
            loop {
                let next = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.finished())
                    .min_by_key(|(_, t)| t.frontend_time)
                    .map(|(i, _)| i);
                match next {
                    Some(i) => {
                        self.step(i, smt);
                        let t = &mut self.threads[i];
                        if t.finished() && t.end_cycle.is_none() {
                            t.end_cycle = Some(t.last_retire);
                        }
                    }
                    None => break,
                }
            }
        } else {
            // Phase 2 (tiered): alternate fast-forward and measurement
            // segments. Fast-forwards consume no simulated time and no
            // statistics, so the measured counters aggregate exactly the
            // windowed instructions — same invariant as the classic path,
            // over a far longer program horizon.
            assert!(
                self.threads.len() == 1,
                "tiered schedules support a single hardware thread"
            );
            let mut salt = 0u64;
            for tier in Tier::segments(&schedule) {
                match tier {
                    Tier::FastForward { instructions } => {
                        self.fast_forward(0, salt, instructions);
                        salt += 1;
                    }
                    Tier::Window { instructions } => {
                        let until = self.threads[0].produced + instructions;
                        while self.threads[0].produced < until {
                            self.step(0, smt);
                        }
                    }
                }
            }
            let t = &mut self.threads[0];
            t.end_cycle = Some(t.last_retire);
        }

        let threads = self
            .threads
            .iter()
            .map(|t| ThreadOutput {
                workload: t.name.clone(),
                instructions: t.target - t.warmup,
                cycles: t
                    .end_cycle
                    // reports are only built after every thread finished
                    .expect("thread finished")
                    .saturating_sub(t.meas_start_cycle)
                    .max(1),
                itrans_stall_cycles: t.itrans_stall,
                mispredictions: t.mispredicts,
            })
            .collect();

        let sys = &self.system;
        SimulationOutput {
            preset: preset.to_string(),
            llc_policy: llc_policy.to_string(),
            threads,
            tiers: schedule,
            itlb: sys.itlb().stats().clone(),
            dtlb: sys.dtlb().stats().clone(),
            stlb: sys.stlb().stats(),
            l1i: sys.hierarchy.stats_of(LevelId::L1I),
            l1d: sys.hierarchy.stats_of(LevelId::L1D),
            l2c: sys.hierarchy.stats_of(LevelId::L2C),
            llc: sys.hierarchy.stats_of(LevelId::Llc),
            cache_levels: sys
                .hierarchy
                .levels()
                .map(|(id, cache)| LevelReport {
                    id,
                    stats: cache.stats().clone(),
                })
                .collect(),
            walker: WalkerSummary {
                walks: sys.walker().walks(),
                instruction_walks: sys.walker().instruction_walks(),
                data_walks: sys.walker().data_walks(),
                avg_latency: sys.walker().avg_latency(),
                avg_memory_refs: sys.walker().avg_memory_refs(),
            },
            dram_reads: sys.hierarchy.dram().reads(),
            dram_writes: sys.hierarchy.dram().writes(),
            xptp_enabled_fraction: sys.xptp_enabled_fraction(),
        }
    }
}
