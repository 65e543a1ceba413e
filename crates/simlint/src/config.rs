//! Embedded workspace configuration: which trees are walked and which
//! paths are test code.
//!
//! The tables live in code rather than a config file on purpose: changing
//! an invariant should be a reviewed diff to the linter, not an edit to a
//! dotfile nobody reads. All paths are workspace-root-relative with `/`
//! separators (the walker normalises).

/// Directory trees (relative to the workspace root) that simlint walks.
/// `vendor/` stand-ins other than `bytes` mirror *external* crates'
/// APIs and are exempt; `vendor/bytes` grew the first-party pool and is
/// held to the same standard as `crates/*`.
pub const WALK_ROOTS: &[&str] = &["src", "tests", "examples", "crates", "vendor/bytes"];

/// Directory names skipped anywhere in the walk. `fixtures` holds
/// deliberately-violating sources for the CI negative smoke.
pub const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// Path fragments that mark a file as test code: R5 (hot-path
/// allocations) does not apply there. `#[cfg(test)]`
/// modules inside library files are detected separately.
pub const TEST_PATH_MARKERS: &[&str] = &["tests/", "benches/"];

/// Every rule simlint knows, by id. `allow(...)` comments naming
/// anything else are themselves an error.
pub const RULES: &[&str] = &["hot-alloc", "allow-syntax"];

/// True when `path` (root-relative, `/`-separated) is test code by
/// location alone.
pub fn is_test_path(path: &str) -> bool {
    TEST_PATH_MARKERS.iter().any(|m| path.starts_with(m) || path.contains(&format!("/{m}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_path_detection() {
        assert!(is_test_path("tests/pool.rs"));
        assert!(is_test_path("crates/netsim/tests/trace_and_drops.rs"));
        assert!(is_test_path("crates/bench/benches/table3.rs"));
        assert!(!is_test_path("crates/netsim/src/queue.rs"));
        assert!(!is_test_path("src/lib.rs"));
    }
}
