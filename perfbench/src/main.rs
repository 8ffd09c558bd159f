//! The repository benchmark: one command per workload that prints every
//! end-to-end metric (`--trace 0`) or the per-layer ledger (`--trace 1`)
//! and checks the program's outputs. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat-server --seed 1 --seconds 25 --trace 0
//! ```

mod replay;
mod service;
mod sim;
mod util;

use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["flat-server", "flat-spec", "tiered-tenants"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    util::print_host_context("start");
    // WORKLOADS lists exactly the simulated workloads' names.
    let w = sim::workload(&args.workload, args.seed).expect("known workload");
    let (checks, metrics) = if args.trace {
        replay::run_traced(&w, args.seconds)
    } else {
        sim::run_untraced(&w, args.seconds)
    };
    util::print_host_context("end");
    // A failed output check is reported through `correct` and `failed`
    // in the result line, not through the exit code.
    util::print_result(&checks, &metrics);
    ExitCode::SUCCESS
}
