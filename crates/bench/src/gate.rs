//! The regression gates behind the `bench_gate` binary.
//!
//! Each gate is one entry in [`GATES`]: a fixed workload, the checks it
//! enforces, and (for speed gates) a [`Floor`] against a value committed
//! in `BENCH_baseline.json`. Every gate folds one top-level section,
//! named after it, into `BENCH_campaign.json` through [`merge_section`],
//! so the gates can run in any order and in any combination without
//! erasing each other's results.
//!
//! * `campaign` — the full figure set cold, then warm from the same
//!   on-disk cache: the warm pass must execute zero simulations,
//!   reproduce every report byte for byte, and serve at least one figure
//!   entirely from cache.
//! * `horizon` — flat vs tiered execution of one server workload: the
//!   tiered leg must cover at least [`MIN_HORIZON_RATIO`]× the flat
//!   horizon per wall-second.
//! * `sharding` — the figure set as one process and as a two-process
//!   shard fleet over one store: the reports must be byte-identical, and
//!   on hosts with two or more cores the fleet must clear a speedup
//!   floor.
//! * `throughput` — a 3 preset × 2 profile matrix through the full
//!   [`Simulation`]: simulated instructions per host second (sim-IPS).
//!
//! ```sh
//! cargo run -p itpx-bench --release --bin bench_gate               # every gate
//! cargo run -p itpx-bench --release --bin bench_gate -- throughput # one gate
//! cargo run -p itpx-bench --release --bin bench_gate -- --bless horizon
//! ```
//!
//! `--bless` rewrites the baseline value of each gate it runs; commit
//! `BENCH_baseline.json` afterwards.

use crate::{figures, Campaign, Executor, RunScale, SimCache};
use itpx_core::Preset;
use itpx_cpu::{Simulation, SystemConfig};
use itpx_trace::{TierSchedule, WorkloadSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The report every gate folds its section into.
pub const REPORT: &str = "BENCH_campaign.json";
/// The committed baselines of the speed gates, one key per gate.
pub const BASELINES: &str = "BENCH_baseline.json";

/// Minimum tiered-over-flat horizon ratio, whatever the baseline says.
pub const MIN_HORIZON_RATIO: f64 = 10.0;

/// A speed floor: the measured value must reach `max(min, margin × baseline)`.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// Key of the committed value in [`BASELINES`].
    pub key: &'static str,
    /// Fraction of the committed value a run must reach. Shared CI
    /// runners are noisy, so these catch regressions that halve speed,
    /// not jitter.
    pub margin: f64,
    /// Absolute floor that holds without (or below) a baseline.
    pub min: f64,
    /// Decimal places the value is reported and blessed with.
    pub decimals: usize,
}

impl Floor {
    /// The value a run must reach given the committed baseline.
    pub fn threshold(&self, baseline: Option<f64>) -> f64 {
        baseline.map_or(self.min, |b| self.min.max(b * self.margin))
    }
}

/// What one gate run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The section's JSON fields, without the enclosing braces.
    pub fields: String,
    /// The value compared against the gate's [`Floor`].
    pub value: f64,
    /// Whether the floor applies on this host (the sharding floor needs
    /// at least two cores).
    pub enforce_floor: bool,
    /// One line per broken check.
    pub failures: Vec<String>,
}

/// Where and how the gates run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Directory holding [`REPORT`], [`BASELINES`] and the `target/`
    /// scratch stores.
    pub root: PathBuf,
    /// Rewrite the baseline value of each gate that runs.
    pub bless: bool,
}

/// One regression gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Gate name, also its section key in [`REPORT`].
    pub name: &'static str,
    /// Speed floor against [`BASELINES`], for speed gates.
    pub floor: Option<Floor>,
    /// Runs the workload and its checks.
    pub run: fn(&Ctx) -> Outcome,
}

/// Every gate, in the order their sections appear in [`REPORT`].
pub const GATES: &[Gate] = &[
    Gate {
        name: "campaign",
        floor: None,
        run: campaign,
    },
    Gate {
        name: "horizon",
        floor: Some(Floor {
            key: "horizon_ratio",
            margin: 0.35,
            min: MIN_HORIZON_RATIO,
            decimals: 1,
        }),
        run: horizon,
    },
    Gate {
        name: "sharding",
        floor: Some(Floor {
            key: "sharding_speedup",
            margin: 0.5,
            min: 1.15,
            decimals: 2,
        }),
        run: sharding,
    },
    Gate {
        name: "throughput",
        floor: Some(Floor {
            key: "sim_ips",
            margin: 0.35,
            min: 0.0,
            decimals: 0,
        }),
        run: throughput,
    },
];

/// The gate named `name`.
pub fn by_name(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// Runs one gate: its workload and checks, the floor against the
/// committed baseline, the optional bless, and the section merge.
/// Returns the failures (empty on pass).
pub fn run(gate: &Gate, ctx: &Ctx) -> std::io::Result<Vec<String>> {
    println!("== gate {} ==", gate.name);
    let mut out = (gate.run)(ctx);
    let mut fields = out.fields;
    if let Some(floor) = gate.floor {
        let baselines = ctx.root.join(BASELINES);
        let baseline = read_baseline(&baselines, floor.key);
        let threshold = floor.threshold(baseline);
        let d = floor.decimals;
        if out.enforce_floor && out.value < threshold {
            out.failures.push(format!(
                "{} {:.d$} is below the floor of {threshold:.d$} \
                 (max({}, {} x baseline {}))",
                floor.key,
                out.value,
                floor.min,
                floor.margin,
                baseline.map_or("none".to_string(), |b| format!("{b:.d$}")),
            ));
        }
        let _ = write!(
            fields,
            ", \"baseline\": {}, \"margin\": {}, \"floor\": {threshold:.d$}, \"floor_enforced\": {}",
            baseline.map_or("null".to_string(), |b| format!("{b:.d$}")),
            floor.margin,
            out.enforce_floor,
        );
        if ctx.bless {
            merge_section(&baselines, floor.key, &format!("{:.d$}", out.value))?;
            println!("blessed {} = {:.d$} in {BASELINES}", floor.key, out.value);
        }
    }
    let section = format!("{{{fields}, \"pass\": {}}}", out.failures.is_empty());
    merge_section(&ctx.root.join(REPORT), gate.name, &section)?;
    for f in &out.failures {
        eprintln!("FAIL [{}]: {f}", gate.name);
    }
    println!(
        "gate {}: {}",
        gate.name,
        if out.failures.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );
    Ok(out.failures)
}

/// Extracts the number stored under `key` in a baseline file.
pub fn read_baseline(path: &Path, key: &str) -> Option<f64> {
    let raw = std::fs::read_to_string(path).ok()?;
    let idx = raw.find(&format!("\"{key}\""))?;
    let rest = raw[idx..].split_once(':')?.1;
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Sets top-level key `key` of the one-key-per-line JSON object in
/// `path` to `json`, keeping every other key. Known keys (gate names and
/// baseline keys) are ordered as in [`GATES`], any other key follows in
/// its existing order; a missing or empty file is an empty object.
/// Rewriting a key with the same value leaves the file byte-identical.
pub fn merge_section(path: &Path, key: &str, json: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, merge_text(&existing, key, json))
}

/// [`merge_section`] on the file's text.
fn merge_text(existing: &str, key: &str, json: &str) -> String {
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in existing.lines() {
        let t = line.trim();
        if t.is_empty() || t == "{" || t == "}" {
            continue;
        }
        let parsed = line
            .strip_prefix("  \"")
            .and_then(|rest| rest.split_once("\":"));
        match (parsed, entries.last_mut()) {
            (Some((k, v)), _) => entries.push((k.to_string(), v.trim().to_string())),
            // A continuation line of a multi-line value stays with its key.
            (None, Some((_, v))) => {
                v.push('\n');
                v.push_str(line);
            }
            (None, None) => {}
        }
    }
    for (_, v) in &mut entries {
        if let Some(stripped) = v.strip_suffix(',') {
            *v = stripped.to_string();
        }
    }
    entries.retain(|(k, _)| k != key);
    entries.push((key.to_string(), json.to_string()));
    entries.sort_by_key(|(k, _)| key_rank(k));
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    if body.is_empty() {
        "{\n}\n".to_string()
    } else {
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

/// Position of a gate name or baseline key in [`GATES`]; other keys sort
/// after every gate.
fn key_rank(key: &str) -> usize {
    GATES
        .iter()
        .position(|g| g.name == key || g.floor.is_some_and(|f| f.key == key))
        .unwrap_or(GATES.len())
}

/// Empties a scratch store directory.
fn wipe(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create store dir");
}

// ---------------------------------------------------------------- campaign

struct FigTiming {
    name: &'static str,
    ms: f64,
    hits: u64,
    misses: u64,
}

struct Pass {
    total_ms: f64,
    figures: Vec<FigTiming>,
    texts: Vec<String>,
    hits: u64,
    misses: u64,
}

/// Builds every figure through one campaign over the store in `dir`.
fn run_pass(scale: RunScale, dir: &Path, executor: Executor) -> Pass {
    let campaign =
        Campaign::new(scale, SimCache::new(Some(dir.to_path_buf()))).with_executor(executor);
    let start = Instant::now();
    let mut figures_out = Vec::new();
    let mut texts = Vec::new();
    for fig in figures::ALL {
        let (h0, m0) = (campaign.cache().hits(), campaign.cache().misses());
        let t0 = Instant::now();
        let report = (fig.build)(&campaign);
        figures_out.push(FigTiming {
            name: fig.name,
            ms: t0.elapsed().as_secs_f64() * 1e3,
            hits: campaign.cache().hits() - h0,
            misses: campaign.cache().misses() - m0,
        });
        texts.push(report.text().to_string());
    }
    Pass {
        total_ms: start.elapsed().as_secs_f64() * 1e3,
        figures: figures_out,
        texts,
        hits: campaign.cache().hits(),
        misses: campaign.cache().misses(),
    }
}

fn pass_json(p: &Pass) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"total_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \"figures\": [",
        p.total_ms, p.hits, p.misses
    );
    for (i, f) in p.figures.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}}}",
            if i == 0 { "" } else { ", " },
            f.name,
            f.ms,
            f.hits,
            f.misses
        );
    }
    s.push_str("]}");
    s
}

/// The figure set cold, then warm from the cold pass's on-disk cache, at
/// smoke scale (only the host-thread count follows `ITPX_THREADS`).
fn campaign(ctx: &Ctx) -> Outcome {
    let scale = RunScale {
        host_threads: RunScale::from_env().host_threads,
        ..RunScale::smoke()
    };
    let dir = ctx.root.join("target/simcache-bench");
    let _ = std::fs::remove_dir_all(&dir);

    let cold = run_pass(scale, &dir, Executor::InProcess);
    println!(
        "cold pass: {:.0} ms, {} simulations executed, {} served",
        cold.total_ms, cold.misses, cold.hits
    );
    let warm = run_pass(scale, &dir, Executor::InProcess);
    println!(
        "warm pass: {:.0} ms, {} simulations executed, {} served",
        warm.total_ms, warm.misses, warm.hits
    );

    let identical = cold.texts == warm.texts;
    let cache_served = warm
        .figures
        .iter()
        .filter(|f| f.misses == 0 && f.hits > 0)
        .count();
    let mut failures = Vec::new();
    if warm.misses != 0 {
        failures.push(format!(
            "warm pass executed {} simulations; expected 0 (all cacheable work served)",
            warm.misses
        ));
    }
    for (i, fig) in figures::ALL.iter().enumerate() {
        if cold.texts[i] != warm.texts[i] {
            failures.push(format!(
                "report bytes differ between passes for {}",
                fig.name
            ));
        }
    }
    if cache_served == 0 {
        failures.push("no figure was served entirely from cache on the warm pass".into());
    }
    println!(
        "{cache_served}/{} figures served from cache, {:.1}x speedup",
        figures::ALL.len(),
        cold.total_ms / warm.total_ms.max(0.001)
    );
    Outcome {
        fields: format!(
            "\"scale\": {{\"workloads\": {}, \"smt_pairs\": {}, \"instructions\": {}, \"warmup\": {}, \"host_threads\": {}}}, \
             \"cold\": {}, \"warm\": {}, \"identical_reports\": {identical}, \"cache_served_figures\": {cache_served}",
            scale.workloads,
            scale.smt_pairs,
            scale.instructions,
            scale.warmup,
            scale.host_threads,
            pass_json(&cold),
            pass_json(&warm),
        ),
        failures,
        ..Outcome::default()
    }
}

// ----------------------------------------------------------------- horizon

/// Measured instructions of the horizon gate's flat leg.
const HORIZON_FLAT_INSTRUCTIONS: u64 = 60_000;
/// Warmup instructions of both horizon legs (cycle-accurate, uncounted).
const HORIZON_WARMUP: u64 = 5_000;

/// The horizon figure of merit: horizon instructions per wall-second of
/// the tiered leg over the flat leg.
fn horizon(_: &Ctx) -> Outcome {
    let cfg = SystemConfig::asplos25();
    let base = WorkloadSpec::server_like(11).warmup(HORIZON_WARMUP);
    // 5 windows of 20k cycle-accurate instructions, each after a 2M
    // fast-forward gap: at ~7x functional speed plus the free skip, the
    // gap buys a >10x horizon per unit wall-clock.
    let schedule = TierSchedule::tiered(20_000, 2_000_000, 5);

    // Flat leg: horizon covered == instructions measured.
    let t0 = Instant::now();
    let flat = Simulation::single_thread(
        &cfg,
        Preset::ItpXptp,
        &base.clone().instructions(HORIZON_FLAT_INSTRUCTIONS),
    )
    .run();
    let flat_s = t0.elapsed().as_secs_f64();
    let flat_horizon = flat.instructions();
    let flat_hps = flat_horizon as f64 / flat_s;

    // Tiered leg: horizon covered == windows * (window + fast_forward).
    let t0 = Instant::now();
    let tiered = Simulation::single_thread(&cfg, Preset::ItpXptp, &base.tiers(schedule)).run();
    let tiered_s = t0.elapsed().as_secs_f64();
    let tiered_horizon = schedule.horizon();
    let tiered_hps = tiered_horizon as f64 / tiered_s;

    let ratio = tiered_hps / flat_hps;
    println!(
        "flat:   {flat_horizon} insts in {:.1} ms = {:.2}M horizon-insts/s",
        flat_s * 1e3,
        flat_hps / 1e6
    );
    println!(
        "tiered: {tiered_horizon} insts ({} windows x {} measured + {} fast-forwarded) \
         in {:.1} ms = {:.2}M horizon-insts/s",
        schedule.windows,
        schedule.window,
        schedule.fast_forward,
        tiered_s * 1e3,
        tiered_hps / 1e6
    );
    println!("horizon ratio: {ratio:.1}x");
    Outcome {
        fields: format!(
            "\"flat\": {{\"horizon\": {flat_horizon}, \"seconds\": {flat_s:.3}}}, \
             \"tiered\": {{\"window\": {}, \"fast_forward\": {}, \"windows\": {}, \
             \"horizon\": {tiered_horizon}, \"measured\": {}, \"seconds\": {tiered_s:.3}}}, \
             \"ratio\": {ratio:.1}",
            schedule.window,
            schedule.fast_forward,
            schedule.windows,
            tiered.instructions(),
        ),
        value: ratio,
        enforce_floor: true,
        failures: Vec::new(),
    }
}

// ---------------------------------------------------------------- sharding

/// Fixed scale of both sharding legs: one host thread per process so the
/// sharded leg's advantage is pure process-level parallelism.
const SHARD_SCALE: RunScale = RunScale {
    workloads: 2,
    smt_pairs: 2,
    instructions: 20_000,
    warmup: 5_000,
    host_threads: 1,
};

/// Processes in the sharded leg.
const SHARDS: u64 = 2;

/// The argv word that makes `bench_gate` run one shard of the sharding
/// gate: `bench_gate shard-child <index> <store dir> <out file>`.
pub const SHARD_CHILD: &str = "shard-child";

/// The sharding gate's child process: shard `index` of the figure set
/// over the store in `dir`, report texts written to `out`.
pub fn shard_child(index: u64, dir: &Path, out: &Path) -> std::io::Result<()> {
    let executor = Executor::Sharded {
        shards: SHARDS,
        index,
    };
    std::fs::write(out, run_pass(SHARD_SCALE, dir, executor).texts.join("\n"))
}

/// The figure set cold as one process, then as a [`SHARDS`]-process
/// fleet of this executable (which must be `bench_gate`) over one store.
fn sharding(ctx: &Ctx) -> Outcome {
    let dir = ctx.root.join("target/simcache-shard");

    wipe(&dir);
    let flat = run_pass(SHARD_SCALE, &dir, Executor::InProcess);
    let flat_texts = flat.texts.join("\n");
    let flat_s = flat.total_ms / 1e3;
    println!(
        "flat:    1 process  cold campaign in {:.1} ms",
        flat_s * 1e3
    );

    wipe(&dir);
    let exe = std::env::current_exe().expect("current exe");
    let t0 = Instant::now();
    let children: Vec<(std::process::Child, PathBuf)> = (0..SHARDS)
        .map(|index| {
            let out = dir.join(format!("shard-{index}.txt"));
            let child = std::process::Command::new(&exe)
                .arg(SHARD_CHILD)
                .arg(index.to_string())
                .arg(&dir)
                .arg(&out)
                .spawn()
                .expect("spawn shard child");
            (child, out)
        })
        .collect();
    let mut failures = Vec::new();
    let mut shard_texts = Vec::new();
    for (mut child, out) in children {
        let status = child.wait().expect("wait for shard child");
        if !status.success() {
            failures.push(format!("shard child failed: {status}"));
        }
        shard_texts.push(std::fs::read_to_string(out).unwrap_or_default());
    }
    let shard_s = t0.elapsed().as_secs_f64();
    println!(
        "sharded: {SHARDS} processes cold campaign in {:.1} ms",
        shard_s * 1e3
    );

    let identical = shard_texts.iter().all(|t| *t == flat_texts);
    if !identical {
        failures.push("shard reports diverge from the single-process reports".into());
    }
    let speedup = flat_s / shard_s;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("identical reports: {identical}; speedup {speedup:.2}x on {cores} core(s)");
    Outcome {
        fields: format!(
            "\"shards\": {SHARDS}, \"flat_seconds\": {flat_s:.3}, \
             \"sharded_seconds\": {shard_s:.3}, \"speedup\": {speedup:.2}, \
             \"cores\": {cores}, \"identical_reports\": {identical}"
        ),
        value: speedup,
        // One core cannot show process parallelism: gate identity only.
        enforce_floor: cores >= 2,
        failures,
    }
}

// -------------------------------------------------------------- throughput

/// Measured instructions per throughput run.
const THROUGHPUT_INSTRUCTIONS: u64 = 120_000;
/// Warmup instructions per throughput run (simulated work too, so counted).
const THROUGHPUT_WARMUP: u64 = 30_000;

/// Simulated instructions per host second over three presets × two
/// trace profiles through the full pipeline — trace generation, TLBs,
/// page walks, PSCs, cache chain, policies.
fn throughput(_: &Ctx) -> Outcome {
    let cfg = SystemConfig::asplos25();
    let presets = [Preset::Lru, Preset::Itp, Preset::ItpXptp];
    let workloads = [
        ("server", WorkloadSpec::server_like(11)),
        ("spec", WorkloadSpec::spec_like(12)),
    ];

    let mut runs = String::new();
    let total_start = Instant::now();
    for preset in presets {
        for (wname, base) in &workloads {
            let w = base
                .clone()
                .instructions(THROUGHPUT_INSTRUCTIONS)
                .warmup(THROUGHPUT_WARMUP);
            let t0 = Instant::now();
            let out = Simulation::single_thread(&cfg, preset, &w).run();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let mips = (out.instructions() + THROUGHPUT_WARMUP) as f64 / ms / 1e3;
            println!(
                "  {:<16} {wname:<7} {ms:>8.1} ms  {mips:>6.2} sim-MIPS",
                preset.name()
            );
            let _ = write!(
                runs,
                "{}{{\"preset\": \"{}\", \"workload\": \"{wname}\", \"ms\": {ms:.3}, \"sim_mips\": {mips:.3}}}",
                if runs.is_empty() { "" } else { ", " },
                preset.name(),
            );
        }
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    let total_insts =
        (THROUGHPUT_INSTRUCTIONS + THROUGHPUT_WARMUP) * (presets.len() * workloads.len()) as u64;
    let sim_ips = total_insts as f64 / (total_ms / 1e3);
    println!(
        "total: {total_insts} simulated instructions in {total_ms:.0} ms = {sim_ips:.0} sim-IPS"
    );
    Outcome {
        fields: format!(
            "\"instructions\": {THROUGHPUT_INSTRUCTIONS}, \"warmup\": {THROUGHPUT_WARMUP}, \
             \"runs\": [{runs}], \"total_ms\": {total_ms:.3}, \"sim_ips\": {sim_ips:.0}"
        ),
        value: sim_ips,
        enforce_floor: true,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itpx-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(REPORT)
    }

    fn keys(text: &str) -> Vec<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split_once('"'))
            .map(|(k, _)| k.to_string())
            .collect()
    }

    #[test]
    fn merge_replaces_one_key_and_keeps_the_rest_in_gate_order() {
        let path = temp_file("order");
        merge_section(&path, "throughput", "{\"sim_ips\": 1}").unwrap();
        merge_section(&path, "horizon", "{\"ratio\": 2}").unwrap();
        merge_section(&path, "campaign", "{\"pass\": true}").unwrap();
        merge_section(&path, "sharding", "{\"speedup\": 3}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            keys(&text),
            ["campaign", "horizon", "sharding", "throughput"]
        );

        merge_section(&path, "horizon", "{\"ratio\": 4}").unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            keys(&after),
            ["campaign", "horizon", "sharding", "throughput"]
        );
        assert!(after.contains("\"horizon\": {\"ratio\": 4},"), "{after}");
        assert!(!after.contains("\"ratio\": 2"), "{after}");
        // Every other line is untouched.
        let changed: Vec<_> = text
            .lines()
            .zip(after.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(changed.len(), 1, "{changed:?}");
    }

    #[test]
    fn merge_is_byte_idempotent() {
        let path = temp_file("idem");
        for key in ["sharding", "campaign", "throughput"] {
            merge_section(&path, key, "{\"pass\": true}").unwrap();
        }
        let once = std::fs::read(&path).unwrap();
        merge_section(&path, "campaign", "{\"pass\": true}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), once);
        let text = String::from_utf8(once).unwrap();
        assert_eq!(merge_text(&text, "campaign", "{\"pass\": true}"), text);
    }

    #[test]
    fn merge_starts_from_a_missing_or_empty_file() {
        let path = temp_file("missing");
        assert!(!path.exists());
        merge_section(&path, "horizon", "{\"ratio\": 20.0}").unwrap();
        let expected = "{\n  \"horizon\": {\"ratio\": 20.0}\n}\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::write(&path, "").unwrap();
        merge_section(&path, "horizon", "{\"ratio\": 20.0}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        assert_eq!(
            merge_text("{\n}\n", "horizon", "{\"ratio\": 20.0}"),
            expected
        );
    }

    #[test]
    fn merge_keeps_unknown_keys_after_the_gates() {
        let old = "{\n  \"scale\": {\"workloads\": 2},\n  \"identical_reports\": true,\n  \"throughput\": {\"sim_ips\": 1}\n}\n";
        let merged = merge_text(old, "horizon", "{\"ratio\": 2}");
        assert_eq!(
            keys(&merged),
            ["horizon", "throughput", "scale", "identical_reports"]
        );
    }

    #[test]
    fn baselines_merge_in_gate_order() {
        let path = temp_file("baseline");
        merge_section(&path, "sim_ips", "1957974").unwrap();
        merge_section(&path, "horizon_ratio", "19.8").unwrap();
        merge_section(&path, "sharding_speedup", "0.87").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"horizon_ratio\": 19.8,\n  \"sharding_speedup\": 0.87,\n  \"sim_ips\": 1957974\n}\n"
        );
        assert_eq!(read_baseline(&path, "sim_ips"), Some(1_957_974.0));
        assert_eq!(read_baseline(&path, "horizon_ratio"), Some(19.8));
        assert_eq!(read_baseline(&path, "sharding_speedup"), Some(0.87));
        assert_eq!(read_baseline(&path, "absent"), None);
    }

    /// The floors the gates enforce against the committed baselines.
    #[test]
    fn floors_against_the_committed_baselines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let floor = |name: &str| {
            let f = by_name(name).unwrap().floor.unwrap();
            f.threshold(read_baseline(&root.join(BASELINES), f.key))
        };
        assert!((floor("throughput") - 0.35 * 1_957_974.0).abs() < 1e-6);
        assert_eq!(floor("horizon"), MIN_HORIZON_RATIO);
        assert_eq!(floor("sharding"), 1.15);
        assert!(by_name("campaign").unwrap().floor.is_none());
        // Without a baseline only the absolute minimum holds.
        let t = by_name("throughput").unwrap().floor.unwrap();
        assert_eq!(t.threshold(None), 0.0);
        assert_eq!(t.threshold(Some(100.0)), 35.0);
    }

    #[test]
    fn gate_names_are_unique_and_resolve() {
        for (i, g) in GATES.iter().enumerate() {
            assert_eq!(by_name(g.name).map(|f| f.name), Some(g.name));
            assert_eq!(key_rank(g.name), i);
        }
        assert!(by_name("fig08").is_none());
    }
}
