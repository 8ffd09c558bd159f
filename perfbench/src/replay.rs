//! The traced run of a simulated workload.
//!
//! The engine's inner loop is private, so per-layer costs come from a
//! replay: the workload's own instruction stream (same generators, same
//! tenant rotation, same FTQ look-ahead discards, same fast-forward
//! segments) is driven through the public layer functions — the
//! `TraceGenerator`, the `HashedPerceptron`, `System::translate`, the
//! `Hierarchy` entry points, `System::context_switch` and the
//! `FunctionalMachine`. The replay issues the engine's calls, in the
//! engine's order per layer, but regrouped into chunks of at most
//! [`CHUNK`] instructions so that one span wraps a batch of calls (a
//! clock read costs about as much as a TLB lookup). Regrouping keeps
//! each chunk's working set, so structure sizes and miss rates stay
//! realistic; timing-dependent state (MSHRs, DRAM queues) sees a
//! synthetic one-instruction-per-cycle clock.
//!
//! Each layer's per-call cost times its call count is then set against
//! the untraced `Engine::run` time of the same workload; the remainder
//! is the engine's own work (timing model, ROB, retire, FTQ refills).

use crate::sim::{self, leg_tag, SimWorkload, LEGS};
use crate::util::{self, median, secs, Checks, Metrics, Spans};
use itpx_core::Preset;
use itpx_cpu::{FunctionalMachine, HashedPerceptron, SimulationOutput, System, SystemConfig};
use itpx_trace::{SwitchPolicy, TraceGenerator, TraceInst, WorkloadSpec};
use itpx_types::{Asid, ResetBoundary, ThreadId, TranslationKind, VirtAddr};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Instructions per replay chunk (one span per layer per chunk).
const CHUNK: u64 = 512;
/// The engine's cap on a fast-forward's functionally executed tail.
const FF_WARM_CAP: u64 = 250_000;
const T0: ThreadId = ThreadId(0);

/// Layers in ledger order: (span name, per-call metric, unit scale).
const LAYERS: [(&str, &str, f64); 10] = [
    ("trace", "trace.ns_per_inst", 1.0),
    ("branch", "branch.ns_per_op", 1.0),
    ("translate.instr", "translate.instr_ns", 1.0),
    ("translate.data", "translate.data_ns", 1.0),
    ("hier.fetch", "hier.fetch_ns", 1.0),
    ("hier.prefetch", "hier.prefetch_ns", 1.0),
    ("hier.data", "hier.data_ns", 1.0),
    ("functional", "functional.ns_per_inst", 1.0),
    ("ctx.switch", "ctx.switch_ns", 1.0),
    ("functional.handoff", "functional.handoff_us", 1e-3),
];

/// Tenant `t`'s workload, as the engine derives it.
fn tenant_spec(spec: &WorkloadSpec, t: u16) -> WorkloadSpec {
    let mut s = spec.clone();
    s.seed = spec.seed ^ u64::from(t).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    s
}

/// Multi-tenant schedule state, mirroring the engine's.
struct Ctx {
    tenants: u16,
    quantum: u64,
    flush: bool,
    shootdown_every: u64,
    current: u16,
    next_switch: u64,
    next_shootdown: u64,
}

/// One replay of one leg.
struct Replay<'a> {
    cfg: SystemConfig,
    spec: &'a WorkloadSpec,
    sys: System,
    bp: HashedPerceptron,
    /// Each tenant's real instruction stream (one when single-tenant).
    streams: Vec<TraceGenerator>,
    /// FTQ look-ahead pulled from the current tenant's stream.
    lookahead: VecDeque<TraceInst>,
    ctx: Option<Ctx>,
    /// Executed program instructions (the schedule clock).
    clock: u64,
    /// Cycles per instruction of the engine's run of this leg: the
    /// synthetic clock advances `cpi` cycles per instruction within a
    /// chunk.
    cpi: f64,
    /// Cycle at which the next chunk starts: never before the previous
    /// chunk's last completion (a chunk outlasts the ROB), so queues and
    /// MSHRs drain as they do in the engine.
    base_cycle: u64,
    cur_block: u64,
    fdip_suppress: u8,
    recent_pf: [u64; 64],
    spans: &'a mut Spans,
    /// Chunk scratch: fetch, prefetch and data events.
    fetches: Vec<(u64, u64)>,
    prefetches: Vec<(u64, u64)>,
    datas: Vec<(u64, u64, bool, u64)>,
    mispredicted: Vec<bool>,
}

impl<'a> Replay<'a> {
    fn new(
        cfg: &SystemConfig,
        preset: Preset,
        spec: &'a WorkloadSpec,
        cpi: f64,
        spans: &'a mut Spans,
    ) -> Self {
        let mut sys = sim::build_system(cfg, preset);
        let c = spec.contexts;
        let ctx = (!c.is_flat()).then(|| {
            assert_eq!(
                c.churn_every, 0,
                "the replay does not model huge-page churn"
            );
            sys.configure_address_spaces(c.tenants as usize, c.global_fraction, c.global_seed);
            Ctx {
                tenants: c.tenants,
                quantum: c.quantum,
                flush: c.policy == SwitchPolicy::FlushAsid,
                shootdown_every: c.shootdown_every,
                current: 0,
                next_switch: c.quantum,
                next_shootdown: c.shootdown_every,
            }
        });
        let tenants = ctx.as_ref().map_or(1, |c| c.tenants);
        let streams = (0..tenants)
            .map(|t| TraceGenerator::new(&tenant_spec(spec, t)))
            .collect();
        Self {
            cfg: *cfg,
            spec,
            sys,
            bp: HashedPerceptron::new(),
            streams,
            lookahead: VecDeque::new(),
            ctx,
            clock: 0,
            cpi,
            base_cycle: 0,
            cur_block: u64::MAX,
            fdip_suppress: 0,
            recent_pf: [u64::MAX; 64],
            spans,
            fetches: Vec::new(),
            prefetches: Vec::new(),
            datas: Vec::new(),
            mispredicted: Vec::new(),
        }
    }

    /// Rotates to the next tenant as the engine does: the outgoing
    /// tenant's look-ahead is discarded. Returns the incoming ASID.
    fn rotate(&mut self) -> Option<(Asid, bool)> {
        let c = self.ctx.as_mut()?;
        c.next_switch += c.quantum;
        c.current = (c.current + 1) % c.tenants;
        self.lookahead.clear();
        self.cur_block = u64::MAX;
        Some((Asid(c.current), c.flush))
    }

    fn current(&self) -> usize {
        self.ctx.as_ref().map_or(0, |c| usize::from(c.current))
    }

    /// Instructions the next cycle-tier chunk may cover: up to `limit`,
    /// ending at the next switch or shootdown point.
    fn chunk_len(&self, limit: u64) -> u64 {
        let mut n = limit.min(CHUNK);
        if let Some(c) = &self.ctx {
            n = n.min(c.next_switch.saturating_sub(self.clock).max(1));
            if c.shootdown_every > 0 && c.next_shootdown > self.clock {
                n = n.min(c.next_shootdown - self.clock);
            }
        }
        n
    }

    /// Runs `count` cycle-tier instructions.
    fn cycle(&mut self, count: u64, parent: u32) {
        let mut left = count;
        while left > 0 {
            if self
                .ctx
                .as_ref()
                .is_some_and(|c| self.clock >= c.next_switch)
            {
                // A switch is one call: the timer cost is subtracted.
                let (asid, flush) = self.rotate().expect("multi-tenant schedule");
                let sys = &mut self.sys;
                self.spans.time("ctx.switch", parent, || {
                    (sys.context_switch(asid, flush), 1)
                });
            }
            let n = self.chunk_len(left);
            self.cycle_chunk(n as usize, parent);
            left -= n;
        }
    }

    fn cycle_chunk(&mut self, n: usize, parent: u32) {
        let chunk = self.spans.open("chunk", parent);
        let ftq = self.cfg.ftq_entries;
        // The engine keeps `ftq_entries` instructions pulled before each
        // step, so after `n` steps it has pulled `n + ftq - 1` past the
        // chunk start.
        let want = n + ftq - 1;
        let cur = self.current();
        let (stream, la) = (&mut self.streams[cur], &mut self.lookahead);
        self.spans.time("trace", chunk, || {
            let pulled = want.saturating_sub(la.len());
            for _ in 0..pulled {
                la.push_back(stream.next().expect("generator is infinite"));
            }
            ((), pulled as u64)
        });
        let insts = self.lookahead.make_contiguous();

        let (bp, mis) = (&mut self.bp, &mut self.mispredicted);
        mis.clear();
        self.spans.time("branch", chunk, || {
            let mut ops = 0;
            for inst in &insts[..n] {
                mis.push(match inst.branch {
                    Some(b) => {
                        ops += 1;
                        !bp.update(inst.pc, b.taken)
                    }
                    None => false,
                });
            }
            ((), ops)
        });

        // The engine's fetch-block and FDIP bookkeeping, per instruction.
        self.fetches.clear();
        self.prefetches.clear();
        self.datas.clear();
        let base = self.base_cycle;
        let mut shootdown = self
            .ctx
            .as_ref()
            .is_some_and(|c| c.shootdown_every > 0 && self.clock >= c.next_shootdown);
        let mut shootdown_va = None;
        for (i, inst) in insts[..n].iter().enumerate() {
            let now = base + (i as f64 * self.cpi) as u64;
            let block = inst.pc >> 6;
            if block != self.cur_block {
                self.cur_block = block;
                self.fetches.push((inst.pc, now));
                if self.fdip_suppress > 0 {
                    self.fdip_suppress -= 1;
                } else {
                    let mut seen = block;
                    let mut depth = 0;
                    for la in &insts[i + 1..i + ftq] {
                        let b = la.pc >> 6;
                        if b != seen {
                            seen = b;
                            let slot = (b as usize) & 63;
                            if self.recent_pf[slot] != b {
                                self.recent_pf[slot] = b;
                                self.prefetches.push((b, now));
                            }
                            depth += 1;
                            if depth >= self.cfg.fdip_depth {
                                break;
                            }
                        }
                    }
                }
            }
            if let Some(m) = inst.mem {
                if shootdown {
                    shootdown = false;
                    shootdown_va = Some(m.addr);
                }
                self.datas.push((m.addr, inst.pc, m.store, now));
            }
            if self.mispredicted[i] {
                self.cur_block = u64::MAX;
                self.fdip_suppress = 2;
            }
        }
        if let (Some(va), Some(c)) = (shootdown_va, self.ctx.as_mut()) {
            c.next_shootdown += c.shootdown_every;
            self.sys.shootdown(VirtAddr::new(va), Asid(c.current));
        }

        let mut last_done = base + (n as f64 * self.cpi) as u64;
        let sys = &mut self.sys;
        let fetches = &self.fetches;
        let mut fetched = Vec::with_capacity(fetches.len());
        self.spans.time("translate.instr", chunk, || {
            for &(pc, now) in fetches {
                let tr =
                    sys.translate(VirtAddr::new(pc), TranslationKind::Instruction, pc, T0, now);
                fetched.push((tr.pa, tr.done));
            }
            ((), fetches.len() as u64)
        });
        self.spans.time("hier.fetch", chunk, || {
            for (&(pc, _), &(pa, done)) in fetches.iter().zip(&fetched) {
                last_done = last_done.max(sys.hierarchy.instr_fetch(pa, pc, T0, done));
            }
            ((), fetches.len() as u64)
        });
        let prefetches = &self.prefetches;
        self.spans.time("hier.prefetch", chunk, || {
            for &(b, now) in prefetches {
                let pa = sys.fdip_target(VirtAddr::new(b << 6), T0);
                sys.hierarchy.prefetch_instr(pa, T0, now);
            }
            ((), prefetches.len() as u64)
        });
        let datas = &self.datas;
        let mut translated = Vec::with_capacity(datas.len());
        self.spans.time("translate.data", chunk, || {
            for &(va, pc, _, now) in datas {
                translated.push(sys.translate(
                    VirtAddr::new(va),
                    TranslationKind::Data,
                    pc,
                    T0,
                    now,
                ));
            }
            ((), datas.len() as u64)
        });
        self.spans.time("hier.data", chunk, || {
            for (&(_, pc, store, _), tr) in datas.iter().zip(&translated) {
                let done = sys
                    .hierarchy
                    .data_access(tr.pa, pc, T0, store, tr.stlb_miss, tr.done);
                last_done = last_done.max(done);
            }
            ((), datas.len() as u64)
        });
        sys.on_retire(n as u64);
        self.base_cycle = last_done;
        self.lookahead.drain(..n);
        self.clock += n as u64;
        self.spans.close(chunk, n as u64);
    }

    /// One functional fast-forward segment, mirroring the engine's.
    fn fast_forward(&mut self, salt: u64, instructions: u64) {
        let seg = self.spans.open("fast_forward", u32::MAX);
        let warm = instructions.min(FF_WARM_CAP);
        let (sys, bp, spec) = (&self.sys, &self.bp, self.spec);
        let tenants = self.ctx.as_ref().map_or(1, |c| c.tenants);
        let (mut fun, mut warm_bp, mut gens) = self.spans.time("functional.handoff", seg, || {
            let gens: Vec<TraceGenerator> = (0..tenants)
                .map(|t| TraceGenerator::phase_fork(&tenant_spec(spec, t), salt))
                .collect();
            ((FunctionalMachine::from_cycle(sys), bp.clone(), gens), 1)
        });
        // The free skip advances the schedule clock; every switch
        // boundary it crosses still rotates tenants.
        let crossings = self.skip(instructions - warm);
        for _ in 0..crossings {
            self.functional_switch(&mut fun, seg);
        }
        let mut cur_block = u64::MAX;
        let mut chunk_insts: Vec<TraceInst> = Vec::with_capacity(CHUNK as usize);
        let mut left = warm;
        while left > 0 {
            if self
                .ctx
                .as_ref()
                .is_some_and(|c| self.clock >= c.next_switch)
            {
                self.functional_switch(&mut fun, seg);
                cur_block = u64::MAX;
            }
            let n = self.chunk_len(left);
            let gen = &mut gens[self.current()];
            chunk_insts.clear();
            self.spans.time("trace", seg, || {
                chunk_insts.extend(gen.by_ref().take(n as usize));
                ((), n)
            });
            self.spans.time("branch", seg, || {
                let mut ops = 0;
                for inst in &chunk_insts {
                    if let Some(b) = inst.branch {
                        warm_bp.update(inst.pc, b.taken);
                        ops += 1;
                    }
                }
                ((), ops)
            });
            let (sys, ctx) = (&mut self.sys, &mut self.ctx);
            let clock = self.clock;
            self.spans.time("functional", seg, || {
                for (i, inst) in chunk_insts.iter().enumerate() {
                    let space = sys.address_space_mut(T0);
                    let block = inst.pc >> 6;
                    if block != cur_block {
                        cur_block = block;
                        fun.fetch(space, VirtAddr::new(inst.pc));
                    }
                    if let Some(m) = inst.mem {
                        let va = VirtAddr::new(m.addr);
                        if let Some(c) = ctx.as_mut() {
                            if c.shootdown_every > 0 && clock + i as u64 >= c.next_shootdown {
                                c.next_shootdown += c.shootdown_every;
                                fun.shootdown(va, Asid(c.current));
                            }
                        }
                        if m.store {
                            fun.store(space, va);
                        } else {
                            fun.load(space, va);
                        }
                    }
                }
                ((), n)
            });
            self.clock += n;
            left -= n;
        }
        let sys = &mut self.sys;
        let bp = &mut self.bp;
        self.spans.time("functional.handoff", seg, || {
            bp.import_state(&warm_bp);
            fun.seed_cycle(sys);
            ((), 1)
        });
        self.spans.close(seg, instructions);
    }

    /// A tenant switch inside a fast-forward: the functional machine and
    /// the address space switch, and the FTQ look-ahead is discarded.
    fn functional_switch(&mut self, fun: &mut FunctionalMachine, parent: u32) {
        let (asid, flush) = self.rotate().expect("multi-tenant schedule");
        let sys = &mut self.sys;
        self.spans.time("ctx.switch", parent, || {
            fun.context_switch(asid, flush);
            sys.address_space_mut(T0).switch_to(asid);
            ((), 1)
        });
    }

    /// The engine's free-skip clock advance; returns switch crossings.
    fn skip(&mut self, skip: u64) -> u64 {
        self.clock += skip;
        let Some(c) = self.ctx.as_mut() else { return 0 };
        let crossings = self
            .clock
            .saturating_sub(c.next_switch)
            .checked_div(c.quantum)
            .map_or(0, |full| full + u64::from(self.clock >= c.next_switch));
        if c.shootdown_every > 0 && c.next_shootdown <= self.clock {
            c.next_shootdown += (self.clock - c.next_shootdown) / c.shootdown_every
                * c.shootdown_every
                + c.shootdown_every;
        }
        crossings
    }

    /// The whole leg: warmup, measurement boundary, then the flat run or
    /// the tiered segments. Returns the measured-phase (ITLB, DTLB)
    /// accesses for comparison with the engine's output.
    fn run(mut self) -> (u64, u64) {
        let root = self.spans.open("warmup", u32::MAX);
        self.cycle(self.spec.warmup, root);
        self.spans.close(root, self.spec.warmup);
        self.sys.reset_boundary();
        let tiers = self.spec.tiers;
        if tiers.is_flat() {
            let root = self.spans.open("measure", u32::MAX);
            self.cycle(self.spec.instructions, root);
            self.spans.close(root, self.spec.instructions);
        } else {
            for salt in 0..tiers.windows {
                if tiers.fast_forward > 0 {
                    self.fast_forward(salt, tiers.fast_forward);
                }
                let root = self.spans.open("window", u32::MAX);
                self.cycle(tiers.window, root);
                self.spans.close(root, tiers.window);
            }
        }
        (
            self.sys.itlb().stats().accesses(),
            self.sys.dtlb().stats().accesses(),
        )
    }
}

/// Replays both legs once, each at the CPI of the engine's run of it;
/// returns host seconds and measured-phase (ITLB, DTLB) accesses per leg.
fn replay_pair(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    outputs: &[SimulationOutput],
    spans: &mut Spans,
) -> (f64, Vec<(u64, u64)>) {
    let t = Instant::now();
    let counts = LEGS
        .iter()
        .zip(outputs)
        .map(|(&p, out)| Replay::new(cfg, p, spec, 1.0 / out.ipc(), spans).run())
        .collect();
    (secs(t), counts)
}

fn push_leg_counts(m: &mut Metrics, out: &SimulationOutput, preset: Preset) {
    let tag = leg_tag(preset);
    let ki = out.instructions() as f64 / 1000.0;
    let stlb = out.stlb_breakdown();
    m.push(
        format!("itlb.mpki.{tag}"),
        "1/ki",
        out.itlb.misses() as f64 / ki,
    );
    m.push(format!("stlb.mpki_instr.{tag}"), "1/ki", stlb.instr);
    m.push(format!("stlb.mpki_data.{tag}"), "1/ki", stlb.data);
    m.push(
        format!("walker.walks_pki.{tag}"),
        "1/ki",
        out.walker.walks as f64 / ki,
    );
    m.push(
        format!("walker.refs_per_walk.{tag}"),
        "count",
        out.walker.avg_memory_refs,
    );
    m.push(format!("l2c.mpki.{tag}"), "1/ki", out.l2c_mpki());
    m.push(format!("llc.mpki.{tag}"), "1/ki", out.llc_mpki());
    m.push(
        format!("dram.writes_pki.{tag}"),
        "1/ki",
        out.dram_writes as f64 / ki,
    );
    if preset == Preset::ItpXptp {
        // xPTP's monitor is part of the iTP+xPTP bundle.
        m.push(
            "xptp.enabled_frac",
            "frac",
            out.xptp_enabled_fraction.unwrap_or(0.0),
        );
    }
}

/// Replays of a workload's first instance under the `tiered-tenants`
/// schedules, for a workload whose own run has no functional tier or
/// tenant switches: the median per-call cost of those layers on this
/// workload's instruction stream. Not part of the ledger, whose shares
/// describe the workload's own run.
fn tenant_probe(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    outputs: &[SimulationOutput],
    timer_ns: f64,
) -> BTreeMap<&'static str, f64> {
    const REPS: usize = 3;
    let probe = sim::tenants(spec.clone(), 2);
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPS {
        let mut spans = Spans::new(true);
        replay_pair(cfg, &probe, outputs, &mut spans);
        for (name, (ns, ops)) in spans.totals(timer_ns) {
            if ops > 0 {
                per_op.entry(name).or_default().push(ns / ops as f64);
            }
        }
    }
    per_op.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The traced run of a simulated workload: the ledger, then the
/// service layers (store, campaign, HTTP) on the workload's first
/// instance, then the process's peak resident size.
pub fn run_traced(w: &SimWorkload, seconds: f64) -> (Checks, Metrics) {
    let (mut checks, mut m) = ledger(w, seconds * 0.8);
    crate::service::measure(w, &mut checks, &mut m);
    m.push("peak_rss_mb", "MiB", util::peak_rss_mb());
    (checks, m)
}

/// The per-layer ledger of a simulated workload: untraced reference
/// pairs, then alternated traced and untraced replays for `budget_s`,
/// then each layer's cost and share. Every host time is the median of
/// its samples, as in the untraced run.
fn ledger(w: &SimWorkload, budget_s: f64) -> (Checks, Metrics) {
    let cfg = SystemConfig::asplos25();
    let timer_ns = util::timer_cost_ns();
    // The replay covers the suite's first instance; so does the
    // untraced reference it is set against. Engine rounds, traced and
    // untraced replays alternate, so host drift hits all three alike.
    let w = &w.first();
    let spec = &w.suite[0];
    let mut untraced = sim::measure(&cfg, w, 0.0);
    let start = Instant::now();
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let (last_spans, counts) = loop {
        // Which replay runs first alternates, so order effects cancel in
        // the tracing overhead.
        let plain_first = traced_s.len() % 2 == 1;
        let plain = || {
            let mut off = Spans::new(false);
            replay_pair(&cfg, spec, &untraced.outputs[0], &mut off).0
        };
        if plain_first {
            plain_s.push(plain());
        }
        let mut spans = Spans::new(true);
        let (s, c) = replay_pair(&cfg, spec, &untraced.outputs[0], &mut spans);
        traced_s.push(s);
        for (name, (ns, ops)) in spans.totals(timer_ns) {
            if ops > 0 {
                per_op.entry(name).or_default().push(ns / ops as f64);
                calls.insert(name, ops);
            }
        }
        if !plain_first {
            plain_s.push(plain());
        }
        if secs(start) >= budget_s {
            break (spans, c);
        }
        untraced.absorb(sim::measure(&cfg, w, 0.0));
    };
    let ns_per_inst = untraced.ns_per_inst(w);
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-{}.spans.tsv", w.name, spec.name));
    if let Err(e) = last_spans.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    // Ledger: each layer's per-call cost times the calls one replayed
    // pair makes, per simulated (tiered: horizon) instruction of the
    // pair. The engine does not report every layer's calls, so the
    // counts are the replay's; they are trusted only while its ITLB and
    // DTLB access counts equal the engine's.
    let mut faithful = true;
    for (leg, out) in untraced.outputs[0].iter().enumerate() {
        let (itlb, dtlb) = counts[leg];
        let (e_itlb, e_dtlb) = (out.itlb.accesses(), out.dtlb.accesses());
        faithful &= itlb == e_itlb && dtlb == e_dtlb;
        println!(
            "# replay fidelity {}: measured-phase ITLB accesses {itlb} (engine {e_itlb}), \
             DTLB {dtlb} (engine {e_dtlb})",
            out.preset
        );
    }
    let pair_insts = (2 * w.leg_instructions()) as f64;
    let mut m = Metrics::default();
    let mut explained = 0.0;
    println!(
        "# ledger for {} (untraced {ns_per_inst:.2} ns/inst):",
        w.name
    );
    let probe = if w.tiered() {
        BTreeMap::new()
    } else {
        tenant_probe(&cfg, spec, &untraced.outputs[0], timer_ns)
    };
    for (span, metric, scale) in LAYERS {
        let unit = if scale == 1.0 { "ns" } else { "us" };
        let (Some(costs), Some(&n)) = (per_op.get(span), calls.get(span)) else {
            // The workload's own run never calls this layer.
            let cost = probe.get(span).copied().unwrap_or(0.0);
            m.push(metric, unit, cost * scale);
            println!(
                "#   {span:<20} {cost:>10.2} ns/call, measured on this workload's stream under \
                 the tiered-tenants schedules; not in this workload's run"
            );
            continue;
        };
        let cost = median(costs);
        let share = cost * n as f64 / pair_insts;
        explained += share;
        m.push(metric, unit, cost * scale);
        println!(
            "#   {span:<20} {cost:>10.2} ns/call x {n:>10} calls = {share:>8.2} ns/inst ({:>5.1}%)",
            share / ns_per_inst * 100.0
        );
    }
    let self_ns = ns_per_inst - explained;
    let frac = explained / ns_per_inst;
    println!(
        "#   {:<20} {self_ns:>47.2} ns/inst ({:>5.1}%) — the named remainder",
        "engine.self",
        self_ns / ns_per_inst * 100.0
    );
    if w.name == "flat-server" && frac < 0.8 {
        println!(
            "# ledger gap: layers explain {:.1}% of flat-server, short of the 80% target by {:.1} points",
            frac * 100.0,
            (0.8 - frac) * 100.0
        );
    }
    if !faithful {
        println!(
            "# ledger invalid: the replay's ITLB/DTLB accesses differ from the engine's, so its \
             call counts no longer describe the engine's run; engine.self_ns_per_inst and \
             ledger.explained_frac do not hold until the replay follows the engine again"
        );
    }
    m.push("engine.self_ns_per_inst", "ns", self_ns);
    m.push("ledger.explained_frac", "frac", frac);
    m.push("ledger.untraced_ns_per_inst", "ns", ns_per_inst);
    let overhead = median(&traced_s) / median(&plain_s) - 1.0;
    m.push("tracing.overhead_frac", "frac", overhead);
    m.push("timer.ns", "ns", timer_ns);
    // Per-layer host times are as measured; the probe gives the host's
    // speed while they were taken.
    m.push("host.probe_ms", "ms", untraced.probe.mean_ms());
    let (system_s, trace_s) = sim::setup_parts(&cfg, spec);
    m.push("setup.system_s", "s", system_s);
    m.push("setup.trace_s", "s", trace_s);
    for (out, &preset) in untraced.outputs[0].iter().zip(&LEGS) {
        push_leg_counts(&mut m, out, preset);
    }
    println!(
        "# {} engine rounds, {} traced and {} untraced replay pairs; spans of the last in {}",
        untraced.rounds,
        traced_s.len(),
        plain_s.len(),
        path.display()
    );
    (untraced.checks, m)
}
