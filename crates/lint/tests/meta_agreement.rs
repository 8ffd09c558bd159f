//! The AST engine against the tree as committed: the tree must analyze
//! clean, over a file set and hot-path call graph of pinned breadth. The
//! retired regex engine's false positives and negatives stay pinned by
//! the fixture corpus in `tests/fixtures/`.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/lint/ -> crates/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the repo root")
        .to_path_buf()
}

#[test]
fn ast_engine_reports_a_clean_tree() {
    let report = itpx_lint::run(&repo_root()).expect("analysis runs");
    assert!(
        report.is_clean(),
        "the committed tree must analyze clean:\n{}",
        report
            .findings
            .iter()
            .chain(&report.annotation_errors)
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // A scoping bug that silently dropped files or roots would also
    // "pass"; pin the breadth of the run.
    assert!(report.files_scanned >= 90, "file set collapsed");
    assert!(report.hot_fns >= 150, "hot-path call graph collapsed");
}
