//! The gate harness end to end: gates run in any order fold their
//! sections into one report without erasing each other's.

use itpx_bench::gate::{self, Ctx, REPORT};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itpx-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp root");
    dir
}

fn top_level_keys(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("  \"")?.split_once('"'))
        .map(|(k, _)| k.to_string())
        .collect()
}

/// The campaign gate used to overwrite the whole report, deleting the
/// sections the other gates had folded in before it.
#[test]
fn campaign_gate_after_throughput_keeps_the_throughput_section() {
    let root = temp_root("order");
    let ctx = Ctx {
        root: root.clone(),
        bless: false,
    };
    let run = |name: &str| gate::run(gate::by_name(name).expect("gate"), &ctx).expect("report IO");

    // No baseline file in the temp root: only the absolute floor holds.
    assert!(run("throughput").is_empty(), "throughput gate passes");
    let after_throughput = std::fs::read_to_string(root.join(REPORT)).expect("report");
    let throughput_line = after_throughput
        .lines()
        .find(|l| l.starts_with("  \"throughput\":"))
        .expect("throughput section")
        .trim_end_matches(',')
        .to_string();

    assert!(run("campaign").is_empty(), "campaign gate passes");
    let after_campaign = std::fs::read_to_string(root.join(REPORT)).expect("report");
    assert_eq!(top_level_keys(&after_campaign), ["campaign", "throughput"]);
    assert!(
        after_campaign.contains(&throughput_line),
        "the throughput section survives the campaign gate unchanged"
    );
    assert!(after_campaign.contains("\"identical_reports\": true"));
    assert!(!after_campaign.contains("\"cache_served_figures\": 0,"));
    let _ = std::fs::remove_dir_all(&root);
}
