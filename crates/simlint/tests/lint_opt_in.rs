//! Clippy's workspace lints reach a crate only if its manifest opts in,
//! while simlint covers a new crate just by walking `crates/`. These
//! tests keep every first-party member opted in and the invariants clippy
//! owns configured.

use std::fs;
use std::path::{Path, PathBuf};

/// Stand-ins that mirror *external* crates' APIs: they are not held to
/// the workspace invariants (simlint skips them too).
const EXTERNAL_STAND_INS: &[&str] = &["vendor/rand", "vendor/proptest"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lines of the `[name]` table in a manifest, up to the next header.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// The paths in the root manifest's `[workspace] members` array.
fn members(root_manifest: &str) -> Vec<String> {
    let workspace = table(root_manifest, "workspace");
    let start = workspace
        .iter()
        .position(|l| l.starts_with("members"))
        .expect("[workspace] has a members list");
    workspace[start + 1..]
        .iter()
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| l.trim_end_matches(',').strip_prefix('"')?.strip_suffix('"'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_first_party_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let members = members(&root_manifest);
    assert!(members.iter().any(|m| m == "crates/simlint"), "members parsed: {members:?}");
    let mut missing = Vec::new();
    for dir in std::iter::once(".").chain(members.iter().map(String::as_str)) {
        if EXTERNAL_STAND_INS.contains(&dir) {
            continue;
        }
        let manifest = read(&root.join(dir).join("Cargo.toml"));
        if !table(&manifest, "lints").contains(&"workspace = true") {
            missing.push(dir);
        }
    }
    assert!(
        missing.is_empty(),
        "these manifests lack `[lints]` / `workspace = true`, so clippy's workspace lints \
         skip them: {missing:?}"
    );
}

#[test]
fn clippy_owns_the_migrated_invariants() {
    let root = workspace_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let lints = table(&root_manifest, "workspace.lints.clippy");
    for lint in [
        "undocumented_unsafe_blocks",
        "print_stdout",
        "print_stderr",
        "allow_attributes_without_reason",
    ] {
        let enabled = [format!("{lint} = \"warn\""), format!("{lint} = \"deny\"")];
        assert!(
            lints.iter().any(|l| enabled.iter().any(|e| l.starts_with(e.as_str()))),
            "[workspace.lints.clippy] must enable {lint}; got {lints:?}"
        );
    }
    let clippy_toml = read(&root.join("clippy.toml"));
    for banned in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ] {
        assert!(
            clippy_toml.contains(&format!("path = \"{banned}\"")),
            "clippy.toml must ban {banned}"
        );
    }
}
