//! `simlint` — the workspace invariant linter for what clippy cannot name.
//!
//! The repo's value rests on two contracts: results are a bit-identical
//! pure function of `(scale, seed, index)` at any worker/shard count, and
//! the packet hot path holds a zero-heap-allocation steady state. Clippy
//! enforces every part of them it has a lint for (no std hash
//! containers, no wall-clock reads, SAFETY comments, no raw prints; see
//! the root `Cargo.toml` and `clippy.toml`), and `const` asserts next to
//! the hot types hold them to their byte budgets at compile time. This
//! crate checks the rest: no allocation idioms in hot-path files, and
//! well-formed suppressions. It is a dependency-free static pass
//! (hand-rolled lexer, no `syn` — there is no registry access here) in
//! the spirit of netstack3's in-tree lints: [`rules`] documents the rule
//! table, [`config`] the embedded scope tables, and the `simlint` binary
//! drives it over the workspace with rustc-style `file:line:col`
//! diagnostics and a nonzero exit on any finding.

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::Diagnostic;

/// Recursively collects `.rs` files under `dir`, skipping
/// [`config::SKIP_DIRS`] and hidden directories. Results are sorted so
/// diagnostics order never depends on directory-entry order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || config::SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative `/`-separated path label for `path` under `root`.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Lints every source tree in [`config::WALK_ROOTS`] under `root`,
/// returning all findings sorted by position. Errors only on I/O
/// failures; lint findings are data, not errors.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for tree in config::WALK_ROOTS {
        let dir = root.join(tree);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut diags = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path)?;
        diags.extend(rules::lint_source(&rel_label(root, path), &source));
    }
    diags.sort_by_key(Diagnostic::sort_key);
    Ok(diags)
}

/// Lints an explicit list of files (paths used verbatim as labels) —
/// the mode the CI negative smoke uses on the violation fixture.
pub fn lint_files(paths: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for path in paths {
        let source = fs::read_to_string(path)?;
        let label = rel_label(Path::new(""), path);
        diags.extend(rules::lint_source(&label, &source));
    }
    diags.sort_by_key(Diagnostic::sort_key);
    Ok(diags)
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
