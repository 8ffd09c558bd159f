//! The three simulated workloads: their definitions, the untraced
//! end-to-end measurement and the output checks.

use crate::util::{median, quantile, secs, Checks, HostProbe, Metrics, PROBE_NOMINAL_MS};
use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{Engine, SimulationOutput, System, SystemConfig};
use itpx_trace::{ContextSchedule, SwitchPolicy, TierSchedule, TraceGenerator, WorkloadSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// The two legs every simulated workload alternates: the baseline and
/// the paper's proposal.
pub const LEGS: [Preset; 2] = [Preset::Lru, Preset::ItpXptp];

/// Metric-name suffix of a leg.
pub fn leg_tag(p: Preset) -> &'static str {
    match p {
        Preset::Lru => "lru",
        _ => "itp_xptp",
    }
}

/// Measured instructions of one flat leg.
const FLAT_INSTRUCTIONS: u64 = 1_000_000;
/// Warmup instructions of every leg (flat and tiered).
const WARMUP: u64 = 200_000;
/// Tiered schedule: 20k-instruction windows, 2M-instruction gaps.
const TIER_WINDOW: u64 = 20_000;
const TIER_FF: u64 = 2_000_000;
const TIER_WINDOWS: u64 = 8;
/// Timed set-up passes per round; `setup_s` is their median over the
/// run, so set-up samples span the run like the simulation samples do.
const SETUP_PER_ROUND: usize = 3;
/// Repetitions of each set-up part timed for the per-layer ledger.
const SETUP_REPS: usize = 9;
/// Instances per suite. Averaging over instances keeps the seed's effect
/// on the amount of work (layouts miss more or less) below host noise;
/// a small suite keeps rounds short, so each leg runs often enough for
/// its median to span the run's contended and quiet stretches.
const FLAT_SUITE: u64 = 4;
const TIERED_SUITE: u64 = 2;

/// Profile seeds: each workload's statistical shape (footprints, skews)
/// is pinned by one of these, and `--seed` re-seeds only the concrete
/// layouts and instruction streams, so every seed measures the same
/// shape of work.
const SERVER_PROFILE_SEED: u64 = 1;
const SPEC_PROFILE_SEED: u64 = 1;

/// A simulated workload: a suite of instances of one shape.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub name: &'static str,
    /// Instances measured every round; `--seed` picks the suite.
    pub suite: Vec<WorkloadSpec>,
    /// The paper's figure for this kind of workload, printed as context.
    pub paper_speedup: &'static str,
}

impl SimWorkload {
    pub fn tiered(&self) -> bool {
        !self.suite[0].tiers.is_flat()
    }

    /// Instructions one leg of one instance simulates, warmup included:
    /// the flat measured count, or the tiered horizon.
    pub fn leg_instructions(&self) -> u64 {
        let spec = &self.suite[0];
        if self.tiered() {
            spec.warmup + spec.tiers.horizon()
        } else {
            spec.warmup + spec.instructions
        }
    }

    /// Instructions of one pass over both legs of the whole suite.
    pub fn suite_instructions(&self) -> f64 {
        (2 * self.leg_instructions() * self.suite.len() as u64) as f64
    }

    /// The same workload reduced to its first instance.
    pub fn first(&self) -> SimWorkload {
        SimWorkload {
            suite: self.suite[..1].to_vec(),
            ..self.clone()
        }
    }
}

/// The named simulated workload at `seed`, or `None` for another name.
/// Instance `i` of the suite runs the pinned profile re-seeded with
/// `seed * 1000 + i`, so distinct seeds give disjoint suites.
pub fn workload(name: &str, seed: u64) -> Option<SimWorkload> {
    let name = ["flat-server", "flat-spec", "tiered-tenants"]
        .into_iter()
        .find(|&n| n == name)?;
    let (base, prefix, size, paper_speedup) = match name {
        "flat-server" => (
            WorkloadSpec::server_like(SERVER_PROFILE_SEED)
                .instructions(FLAT_INSTRUCTIONS)
                .warmup(WARMUP),
            "srv",
            FLAT_SUITE,
            "+18.9% single-thread geomean on server workloads",
        ),
        "flat-spec" => (
            WorkloadSpec::spec_like(SPEC_PROFILE_SEED)
                .instructions(FLAT_INSTRUCTIONS)
                .warmup(WARMUP),
            "spec",
            FLAT_SUITE,
            "no harm on SPEC-like workloads",
        ),
        "tiered-tenants" => (
            tenants(
                WorkloadSpec::server_like(SERVER_PROFILE_SEED).warmup(WARMUP),
                TIER_WINDOWS,
            ),
            "srv",
            TIERED_SUITE,
            "+3-5% under consolidation (EXPERIMENTS.md)",
        ),
        _ => return None,
    };
    let suite = (0..size)
        .map(|i| {
            let mut spec = base.clone();
            spec.seed = seed.wrapping_mul(1000).wrapping_add(i);
            spec.name = format!("{prefix}_{}", spec.seed);
            spec
        })
        .collect();
    Some(SimWorkload {
        name,
        suite,
        paper_speedup,
    })
}

/// `spec` under the `tiered-tenants` schedules with `windows`
/// measurement windows: the functional warming tier between windows,
/// four tenants with ASID flushes on every switch, and shootdowns.
pub fn tenants(spec: WorkloadSpec, windows: u64) -> WorkloadSpec {
    spec.tiers(TierSchedule::tiered(TIER_WINDOW, TIER_FF, windows))
        .contexts(
            ContextSchedule::round_robin(4, 50_000, SwitchPolicy::FlushAsid).shootdowns(200_000),
        )
}

/// Builds one leg's machine: policy bundle plus [`System`].
pub fn build_system(cfg: &SystemConfig, preset: Preset) -> System {
    System::new(*cfg, preset.build(&cfg.dims(), &BuildConfig::default()), 1)
}

/// Builds one leg ready to run; the set-up `setup_s` measures.
pub fn build_engine(cfg: &SystemConfig, preset: Preset, spec: &WorkloadSpec) -> Engine {
    Engine::new(build_system(cfg, preset), std::slice::from_ref(spec))
}

/// Runs a built leg.
pub fn run_engine(engine: Engine, preset: Preset) -> SimulationOutput {
    engine.run(preset.name(), BuildConfig::default().llc.name())
}

/// The output checks every correct simulator version passes.
pub fn check_output(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    out: &SimulationOutput,
) -> Result<(), String> {
    let tiered = !spec.tiers.is_flat();
    let want = if tiered {
        spec.tiers.measured_instructions()
    } else {
        spec.instructions
    };
    if out.instructions() != want {
        return Err(format!(
            "{} {}: measured {} instructions, requested {want}",
            spec.name,
            out.preset,
            out.instructions()
        ));
    }
    let ipc = out.ipc();
    let width = cfg.retire_width as f64;
    if !ipc.is_finite() || ipc <= 0.0 || ipc > width {
        return Err(format!(
            "{} {}: IPC {ipc} outside (0, {width}]",
            spec.name, out.preset
        ));
    }
    if tiered && out.tiers.horizon() != spec.tiers.horizon() {
        return Err(format!(
            "{} {}: horizon {} differs from the schedule's {}",
            spec.name,
            out.preset,
            out.tiers.horizon(),
            spec.tiers.horizon()
        ));
    }
    Ok(())
}

/// Result of the untraced measurement.
pub struct Untraced {
    pub checks: Checks,
    /// First output of each instance's legs, `outputs[instance][leg]`
    /// (deterministic, so every repeat must equal it).
    pub outputs: Vec<[SimulationOutput; 2]>,
    /// Host seconds of every run of each leg, `leg_s[instance][leg]`.
    pub leg_s: Vec<[Vec<f64>; 2]>,
    /// Host seconds of each timed set-up pass.
    pub setup_s: Vec<f64>,
    /// Host probe passes taken between the samples.
    pub probe: HostProbe,
    pub rounds: usize,
}

impl Untraced {
    /// Host nanoseconds per simulated (tiered: horizon) instruction: one
    /// pass over the suite, timed as the sum of each leg's median run.
    /// Not the fastest run: the host's quiet stretches are rare, so the
    /// fastest run mostly tells whether the run caught one.
    pub fn ns_per_inst(&self, w: &SimWorkload) -> f64 {
        let suite_s: f64 = self.leg_s.iter().flatten().map(|runs| median(runs)).sum();
        suite_s * 1e9 / w.suite_instructions()
    }

    /// Geometric-mean IPC of iTP+xPTP over LRU across the suite.
    pub fn ipc_speedup(&self) -> f64 {
        let logs: f64 = self
            .outputs
            .iter()
            .map(|legs| (legs[1].ipc() / legs[0].ipc()).ln())
            .sum();
        (logs / self.outputs.len() as f64).exp()
    }

    /// Folds a later measurement of the same workload into this one.
    pub fn absorb(&mut self, later: Untraced) {
        self.checks.merge(later.checks);
        for (runs, more) in self.leg_s.iter_mut().zip(later.leg_s) {
            for (r, m) in runs.iter_mut().zip(more) {
                r.extend(m);
            }
        }
        self.setup_s.extend(later.setup_s);
        self.probe.samples_ms.extend(later.probe.samples_ms);
        self.rounds += later.rounds;
    }
}

/// Runs rounds over the suite until `budget_s` has passed (at least one
/// round). A round sets up both legs of every instance
/// [`SETUP_PER_ROUND`] times, each set-up pass timed whole, then runs
/// the last pass's engines; only `Engine::run` counts as simulation
/// time. A host probe pass precedes each set-up pass and each leg run,
/// so the probe samples the host through the run like the legs do. Each
/// round prints its probe times beside its leg times.
pub fn measure(cfg: &SystemConfig, w: &SimWorkload, budget_s: f64) -> Untraced {
    let mut checks = Checks::default();
    let mut first: Vec<[Option<SimulationOutput>; 2]> =
        w.suite.iter().map(|_| [None, None]).collect();
    let mut leg_s = vec![[Vec::new(), Vec::new()]; w.suite.len()];
    let mut setup = Vec::new();
    let mut probe = HostProbe::new();
    let start = Instant::now();
    let mut round = 0;
    // Start another round only if it should end near the budget.
    while round == 0 || secs(start) * (1.0 + 0.5 / round as f64) < budget_s {
        let mut engines: Vec<[Option<Engine>; 2]> = Vec::new();
        for _ in 0..SETUP_PER_ROUND {
            drop(std::mem::take(&mut engines));
            probe.sample();
            let t = Instant::now();
            engines = w
                .suite
                .iter()
                .map(|spec| LEGS.map(|p| Some(build_engine(cfg, p, spec))))
                .collect();
            setup.push(secs(t));
        }
        let mut line = String::new();
        for (i, spec) in w.suite.iter().enumerate() {
            // Alternate which leg runs first so slow drift hits both.
            let order = if (round + i) % 2 == 0 { [0, 1] } else { [1, 0] };
            for leg in order {
                let preset = LEGS[leg];
                let engine = engines[i][leg].take().expect("built this round");
                probe.sample();
                let t = Instant::now();
                let out = run_engine(engine, preset);
                let s = secs(t);
                leg_s[i][leg].push(s);
                let probe_ms = probe.samples_ms.last().expect("sampled");
                let _ = write!(line, " {s:.3}/{probe_ms:.1}");
                let outcome = check_output(cfg, spec, &out).and_then(|()| match &first[i][leg] {
                    Some(f) if *f != out => Err(format!(
                        "{} {}: repeated run differs from the first",
                        spec.name, out.preset
                    )),
                    _ => Ok(()),
                });
                checks.record(outcome);
                first[i][leg].get_or_insert(out);
            }
        }
        println!("# engine round: leg_s/probe_ms{line}");
        round += 1;
    }
    Untraced {
        checks,
        outputs: first
            .into_iter()
            .map(|legs| legs.map(|o| o.expect("every leg ran")))
            .collect(),
        leg_s,
        setup_s: setup,
        probe,
        rounds: round,
    }
}

/// Quantile of the per-operation latency the simulated workloads report
/// as `latency_tail_ms`: the highest one with about ten leg runs beyond
/// it in a run (about 40 runs flat, 32 to 40 tiered).
pub const SIM_TAIL_QUANTILE: f64 = 0.75;

/// The untraced end-to-end run of a simulated workload.
pub fn run_untraced(w: &SimWorkload, seconds: f64) -> (Checks, Metrics) {
    let cfg = SystemConfig::asplos25();
    let u = measure(&cfg, w, seconds);
    let mut m = Metrics::default();
    // One operation is one leg's `Engine::run`: the simulation a user
    // of the simulator waits on. Host times are scaled to the nominal
    // host (see `HostProbe`).
    let f = u.probe.factor();
    let runs_ms: Vec<f64> = u
        .leg_s
        .iter()
        .flatten()
        .flatten()
        .map(|s| s * 1e3)
        .collect();
    m.push("throughput", "1/s", 1e9 / u.ns_per_inst(w) / f);
    m.push("latency_p50_ms", "ms", median(&runs_ms) * f);
    m.push(
        "latency_tail_ms",
        "ms",
        quantile(&runs_ms, SIM_TAIL_QUANTILE) * f,
    );
    m.push("setup_s", "s", median(&u.setup_s) * f);
    let speedup = u.ipc_speedup();
    m.push("ipc_speedup", "x", speedup);
    println!(
        "# host times as measured, before scaling to the nominal host: throughput {:.6e}/s, \
         latency p50 {:.3} ms, tail {:.3} ms; host probe mean {:.3} ms (nominal {PROBE_NOMINAL_MS} ms)",
        1e9 / u.ns_per_inst(w),
        median(&runs_ms),
        quantile(&runs_ms, SIM_TAIL_QUANTILE),
        u.probe.mean_ms()
    );
    println!(
        "# {}: {} rounds over {} instances, each an LRU and an iTP+xPTP leg of {} \
         instructions; throughput counts simulated instructions{}, each leg timed by its \
         median run; latency over {} leg runs, tail = p{:.0}; ipc_speedup {speedup:.4} \
         (paper: {}; the model is unvalidated against hardware, so no error figure)",
        w.name,
        u.rounds,
        w.suite.len(),
        w.leg_instructions(),
        if w.tiered() {
            " over the tiered horizon"
        } else {
            ""
        },
        runs_ms.len(),
        SIM_TAIL_QUANTILE * 100.0,
        w.paper_speedup
    );
    (u.checks, m)
}

/// Median host seconds of building one leg's [`System`] and of building
/// its trace tables ([`TraceGenerator::new`]).
pub fn setup_parts(cfg: &SystemConfig, spec: &WorkloadSpec) -> (f64, f64) {
    let mut sys = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = build_system(cfg, Preset::ItpXptp);
        sys.push(secs(t));
        drop(s);
        let t = Instant::now();
        let g = TraceGenerator::new(spec);
        trace.push(secs(t));
        drop(g);
    }
    (median(&sys), median(&trace))
}
