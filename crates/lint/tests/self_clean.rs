//! The workspace must pass its own lint: zero unallowlisted violations,
//! zero stale or ambiguous allowlist entries, zero parse errors, and at
//! least 95% of function bodies analyzed flow-sensitively. This is the
//! test that turns DESIGN.md §9/§14 from prose into a gate —
//! reintroducing a `HashMap` into `crates/core`, deleting an epoch bump
//! on any exit path of `crates/sim/src/state.rs`, allocating inside a
//! `// lint: alloc-free` closure, or letting a `lint.toml` entry go
//! stale or ambiguous fails `cargo test`.

use std::path::Path;

use ecds_lint::engine;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_lint_clean() {
    let result = engine::run_workspace(&workspace_root()).expect("lint run");
    let violations: Vec<String> = result.violations().map(|d| d.to_string()).collect();
    assert!(
        violations.is_empty(),
        "unallowlisted violations:\n{}",
        violations.join("\n")
    );
    assert!(
        result.stale_entries.is_empty(),
        "stale lint.toml entries: {:#?}",
        result.stale_entries
    );
    assert!(
        result.parse_errors.is_empty(),
        "parse errors: {:#?}",
        result.parse_errors
    );
    assert!(
        result.ambiguous_entries.is_empty(),
        "ambiguous lint.toml entries (lengthen the pattern or give the site a line of its own): {:#?}",
        result.ambiguous_entries
    );
    assert!(
        result.coverage_ok(),
        "body coverage {}‰ below the 95% floor; skipped: {:#?}",
        result.coverage_permille(),
        result.skipped_bodies
    );
    assert!(result.is_clean());
    // The scan actually covered the workspace (118 files at the time of
    // writing; the floor guards against discovery silently breaking).
    assert!(
        result.files_scanned >= 100,
        "only {} files scanned — discovery is broken",
        result.files_scanned
    );
}

#[test]
fn every_allowlist_entry_is_exercised() {
    // `apply` already reports stale entries; this asserts the complement —
    // each entry excuses at least one diagnostic, so the allowed count is
    // at least the entry count (entries may cover several sites).
    let root = workspace_root();
    let result = engine::run_workspace(&root).expect("lint run");
    let allowlist_len = std::fs::read_to_string(root.join("lint.toml"))
        .map(|t| {
            ecds_lint::Allowlist::parse(&t)
                .expect("lint.toml parses")
                .entries
                .len()
        })
        .unwrap_or(0);
    assert!(
        result.allowed().count() >= allowlist_len,
        "{} entries but only {} allowed diagnostics",
        allowlist_len,
        result.allowed().count()
    );
}
