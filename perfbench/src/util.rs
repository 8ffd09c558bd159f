//! Shared measurement plumbing: order statistics, the correctness
//! ledger, batched spans, host-noise context and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Wall-clock seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Counts attempted operations and the ones whose output checks failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, printed before the result.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation: `Ok` passed every check, `Err` names the
    /// first check it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// Prints the human-readable metric table followed by the JSON result
/// line (always the last line of standard output).
pub fn print_result(checks: &Checks, metrics: &Metrics) {
    for f in &checks.failures {
        println!("# FAILED: {f}");
    }
    for m in &metrics.0 {
        println!("# {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        // JSON has no NaN/inf; a non-finite value is a broken run and is
        // already counted as a failure by the caller.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.attempted, checks.failed
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed amount of integer work, timed: slower than usual means the
/// host is busy. Returns milliseconds.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    secs(t) * 1e3
}

/// Words in the host probe's table: 8 MiB, past a core's L2, so the
/// probe waits on the shared cache and memory the way the simulator's
/// tables do.
const PROBE_WORDS: usize = 1 << 20;
/// Random read-modify-writes per probe pass (about 10 to 16 ms).
const PROBE_UPDATES: u32 = 1_000_000;
/// Probe time, in milliseconds, of the nominal host that normalised
/// host times are scaled to (about this probe's time on a quiet 2-vCPU
/// Xeon guest).
pub const PROBE_NOMINAL_MS: f64 = 10.0;

/// A fixed memory-bound reference kernel, timed between the host-time
/// samples of a run. The shared host this benchmark was tuned on changes
/// speed by up to 65% within minutes, mostly through contention for the
/// shared cache and memory; over ten runs the probe's median tracked the
/// simulator's host time (r = 0.99), where a fixed ALU loop barely
/// moved. A run's host times times [`HostProbe::factor`] are its times
/// on the nominal host. One pass is too short to stand for the seconds
/// around it, so the factor is set by the geometric mean of every pass
/// of the run: the host flips between a quiet and a contended state
/// every few seconds, and the mean follows the share of time spent in
/// each, where the median snaps to whichever held more than half the
/// passes (over eight runs the median left a spread twice as wide).
pub struct HostProbe {
    table: Vec<u64>,
    /// Every timed pass, in milliseconds.
    pub samples_ms: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> Self {
        let mut p = Self {
            table: vec![1; PROBE_WORDS],
            samples_ms: Vec::new(),
        };
        // One untimed pass faults the table in.
        p.pass_ms();
        p
    }

    fn pass_ms(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut acc = 0u64;
        for _ in 0..PROBE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                self.table[i] = v.wrapping_add(x | 1);
            } else {
                acc = acc.wrapping_add(v);
                self.table[i] = v ^ (x & !1);
            }
        }
        black_box(acc);
        secs(t) * 1e3
    }

    /// Times one pass.
    pub fn sample(&mut self) {
        let ms = self.pass_ms();
        self.samples_ms.push(ms);
    }

    /// Geometric mean of the run's passes, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        let logs: f64 = self.samples_ms.iter().map(|ms| ms.ln()).sum();
        (logs / self.samples_ms.len() as f64).exp()
    }

    /// The factor that scales the run's host times to the nominal host.
    pub fn factor(&self) -> f64 {
        PROBE_NOMINAL_MS / self.mean_ms()
    }
}

/// The host's 1-minute load average, if readable.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Prints the non-gating host-noise context line.
pub fn print_host_context(when: &str) {
    println!(
        "# host-noise ({when}): calibration_ms={:.2} loadavg_1m={:.2} cores={}",
        calibration_ms(),
        loadavg(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

/// One recorded span: a batch of calls into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Calls into the layer the span covers.
    pub ops: u64,
}

/// Batched span recorder. Disabled, it runs the wrapped work without
/// reading the clock, so the same replay code gives the untraced time.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (`u32::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`, recording `ops` calls.
    pub fn close(&mut self, id: u32, ops: u64) {
        if id == u32::MAX {
            return;
        }
        let end = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.ops = ops;
    }

    /// Runs `f` inside a span `name` under `parent`; `f` returns its
    /// result and the number of layer calls it made.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.open(name, parent);
        let (r, ops) = f();
        self.close(id, ops);
        r
    }

    /// Per-name totals `(ns, ops)`, with the timer's own cost
    /// (`timer_ns` per span) subtracted.
    pub fn totals(&self, timer_ns: f64) -> std::collections::BTreeMap<&'static str, (f64, u64)> {
        let mut out = std::collections::BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0.0, 0u64));
            e.0 += ((s.end_ns - s.start_ns) as f64 - timer_ns).max(0.0);
            e.1 += s.ops;
        }
        out
    }

    /// Writes every span as TSV (`name start_ns end_ns parent ops`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tops\n");
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.ops
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Cost of one clock read in nanoseconds, measured over a batch.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    secs(t) * 1e9 / f64::from(N)
}
