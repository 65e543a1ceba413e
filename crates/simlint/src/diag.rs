//! Rustc-style single-line diagnostics:
//! `file:line:col: error[simlint::rule]: message`.

use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-root-relative path with `/` separators.
    pub path: String,
    /// 1-based line (0 for whole-crate findings with no anchor line).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id, e.g. `hot-alloc` (rendered as `simlint::hot-alloc`).
    pub rule: &'static str,
    /// Human explanation, including what to use instead.
    pub message: String,
}

impl Diagnostic {
    /// Sort key: path, then position — so output order is stable no
    /// matter which rule fired first.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.path.clone(), self.line, self.col, self.rule)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[simlint::{}]: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rustc_style() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 12,
            col: 5,
            rule: "hot-alloc",
            message: "no".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:12:5: error[simlint::hot-alloc]: no");
    }
}
