//! The service layers — segmented store, campaign and HTTP server —
//! measured on a simulated workload's own results in its traced run.
//!
//! The first instance's two legs go into a fresh store through a
//! [`Campaign`] and are served by an in-process `itpx-serve`; each
//! layer's per-call cost is then timed in batches against them.

use crate::sim::{self, SimWorkload};
use crate::util::{median, secs, Checks, Metrics};
use itpx_bench::{serve, Campaign, RunScale, SegmentStore, SimCache, SimRequest, StoreConfig};
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads: one per vCPU of the 2-vCPU host.
const WORKERS: usize = 2;
/// Fresh-seed cold runs timed; each is a whole leg of the workload.
const COLD_RUNS: usize = 3;

/// One HTTP/1.1 GET over a fresh connection: (status, body).
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// A store directory inside the checkout, removed again on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = Path::new("perfbench/out").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Median microseconds per call of `f` over `reps` batches of `batch`
/// calls (one clock read per batch).
fn per_call_us(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|r| {
            let t = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            secs(t) * 1e6 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Pushes `store.get_us`, `store.insert_us`, `campaign.mem_hit_us`,
/// `http.rtt_us` (a `/healthz` round trip) and `campaign.cold_run_ms`
/// (`Campaign::run_one` of the first instance re-seeded) for `w`.
pub fn measure(w: &SimWorkload, checks: &mut Checks, m: &mut Metrics) {
    let cfg = SystemConfig::asplos25();
    let dir = ScratchDir::new("service-store");
    let spec = &w.suite[0];
    let keys: Vec<SimRequest> = sim::LEGS
        .iter()
        .map(|&p| SimRequest::single(&cfg, p, spec))
        .collect();
    // Requests carry their own run lengths; only the threads matter.
    let scale = RunScale {
        workloads: 1,
        smt_pairs: 1,
        instructions: spec.instructions,
        warmup: spec.warmup,
        host_threads: WORKERS,
    };
    let campaign = Arc::new(Campaign::new(scale, SimCache::new(Some(dir.0.clone()))));
    for out in campaign.run_batch(keys.clone()) {
        checks.record(sim::check_output(&cfg, spec, &out));
    }
    let server =
        serve::start("127.0.0.1:0", Arc::clone(&campaign), WORKERS).expect("bind a loopback port");

    let ids: Vec<u64> = keys.iter().map(SimRequest::key).collect();
    // Reads from a store opened fresh, so nothing is memoised in memory.
    let store = SegmentStore::new(dir.0.clone(), StoreConfig::default());
    let get_us = per_call_us(15, 64, |i| {
        checks.record(match store.get(ids[i % ids.len()]) {
            Some(_) => Ok(()),
            None => Err("store lost an entry".to_string()),
        });
    });
    m.push("store.get_us", "us", get_us);
    let sample = campaign.run_one(keys[0].clone());
    let scratch = ScratchDir::new("service-insert");
    let cache = SimCache::new(Some(scratch.0.clone()));
    m.push(
        "store.insert_us",
        "us",
        per_call_us(15, 40, |i| cache.insert(i as u64, &sample)),
    );
    m.push(
        "campaign.mem_hit_us",
        "us",
        per_call_us(15, 200, |i| {
            std::hint::black_box(campaign.run_one(keys[i % keys.len()].clone()));
        }),
    );
    m.push(
        "http.rtt_us",
        "us",
        per_call_us(15, 100, |_| {
            checks.record(match get(server.addr(), "/healthz") {
                Ok((200, _)) => Ok(()),
                other => Err(format!("GET /healthz: {other:?}")),
            });
        }),
    );
    server.stop();
    // Seeds `seed * 1000 + 501..` lie inside this run's block of seeds
    // and clear of the suite's instances, so every cold run misses.
    let cold_ms = per_call_us(COLD_RUNS, 1, |r| {
        let mut s = spec.clone();
        s.seed = spec.seed + 501 + r as u64;
        let out = campaign.run_one(SimRequest::single(&cfg, Preset::Lru, &s));
        checks.record(sim::check_output(&cfg, &s, &out));
    }) / 1e3;
    m.push("campaign.cold_run_ms", "ms", cold_ms);
    println!(
        "# service layers measured on {}: both legs stored and served, {COLD_RUNS} cold runs",
        spec.name
    );
}
