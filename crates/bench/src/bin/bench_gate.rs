//! Runs the regression gates of [`itpx_bench::gate`]: each named gate, or
//! every gate when none is named, folding one section per gate into
//! `BENCH_campaign.json`. Exits 1 when any gate fails, 2 on usage errors.
//!
//! ```sh
//! cargo run -p itpx-bench --release --bin bench_gate [-- [--bless] [campaign|horizon|sharding|throughput]...]
//! ```

use itpx_bench::gate::{self, Ctx, GATES, SHARD_CHILD};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(SHARD_CHILD) {
        let [_, index, dir, out] = args.as_slice() else {
            eprintln!("usage: bench_gate {SHARD_CHILD} <index> <store dir> <out file>");
            return ExitCode::from(2);
        };
        let index = index.parse().expect("shard index");
        gate::shard_child(index, Path::new(dir), Path::new(out)).expect("write shard texts");
        return ExitCode::SUCCESS;
    }

    let bless = args.iter().any(|a| a == "--bless");
    let mut gates = Vec::new();
    for name in args.iter().filter(|a| *a != "--bless") {
        let Some(g) = gate::by_name(name) else {
            let valid: Vec<_> = GATES.iter().map(|g| g.name).collect();
            eprintln!("unknown gate {name:?}; valid gates: {}", valid.join(", "));
            return ExitCode::from(2);
        };
        gates.push(g);
    }
    if gates.is_empty() {
        gates.extend(GATES);
    }

    let ctx = Ctx {
        root: ".".into(),
        bless,
    };
    let mut failed = Vec::new();
    for g in gates {
        match gate::run(g, &ctx) {
            Ok(failures) if failures.is_empty() => {}
            Ok(_) => failed.push(g.name),
            Err(e) => {
                eprintln!("gate {}: could not write results: {e}", g.name);
                failed.push(g.name);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed gates: {}", failed.join(", "));
        ExitCode::from(1)
    }
}
