//! The real workspace must be lint-clean, and the violation fixture must
//! not be: the same pair CI enforces, runnable locally via `cargo test`.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn the_workspace_is_lint_clean() {
    let diags = simlint::lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace has {} simlint finding(s):\n{}",
        diags.len(),
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn the_violation_fixture_trips_every_per_file_rule() {
    let fixture = workspace_root().join("crates/simlint/fixtures/violations.rs");
    let diags = simlint::lint_files(&[fixture]).expect("read fixture");
    for rule in ["hot-alloc", "allow-syntax"] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "fixture must trip simlint::{rule}; got:\n{}",
            diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}

#[test]
fn the_fixture_is_excluded_from_the_workspace_walk() {
    // `fixtures/` is on the skip list; if the walk ever picked it up the
    // clean-workspace gate above would be unsatisfiable.
    let diags = simlint::lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(diags.iter().all(|d| !d.path.contains("fixtures/")));
}
