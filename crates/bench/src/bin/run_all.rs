//! Regenerates the named reproduced tables and figures in-process (every
//! one of [`figures::ALL`] when none is named), writing text reports to
//! `target/experiments/`.
//!
//! All figures share one [`Campaign`]: a single job queue across
//! `ITPX_THREADS` host threads and one simulation cache, so baselines
//! repeated between figures (the LRU columns of fig08/fig09/fig11/..., the
//! calibration table) simulate exactly once per campaign — and zero times
//! on a warm cache.
//!
//! ```sh
//! cargo run -p itpx-bench --release --bin run_all -- fig08 fig09
//! ITPX_WORKLOADS=16 ITPX_INSTRUCTIONS=600000 \
//!     cargo run -p itpx-bench --release --bin run_all
//! ```
//!
//! Figure 10's iMPKI/dMPKI split is printed by `fig09`.

use itpx_bench::figures::{self, Figure};
use itpx_bench::Campaign;

fn main() {
    let mut selected: Vec<&Figure> = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(fig) = figures::by_name(&name) else {
            let valid: Vec<_> = figures::ALL.iter().map(|f| f.name).collect();
            eprintln!(
                "unknown figure {name:?}; valid figures: {}",
                valid.join(", ")
            );
            std::process::exit(2);
        };
        selected.push(fig);
    }
    if selected.is_empty() {
        selected.extend(figures::ALL);
    }

    let campaign = Campaign::from_env();
    let mut failures = Vec::new();
    for fig in selected {
        println!("==== {} ====", fig.name);
        if (fig.build)(&campaign).finish().is_none() {
            failures.push(fig.name);
        }
    }
    let cache = campaign.cache();
    println!(
        "cache: {} simulations served, {} executed",
        cache.hits(),
        cache.misses()
    );
    if failures.is_empty() {
        println!("all experiments completed; reports in target/experiments/");
    } else {
        eprintln!("failed to write reports: {failures:?}");
        std::process::exit(1);
    }
}
