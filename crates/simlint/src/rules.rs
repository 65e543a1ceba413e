//! The rules clippy cannot express, evaluated over the token/comment
//! stream. Every other invariant (SAFETY comments, std hash containers,
//! wall-clock reads, raw prints, reasonless `#[allow]`s) is a clippy lint
//! configured in the root `Cargo.toml` and `clippy.toml`.
//!
//! | id            | invariant                                                      |
//! |---------------|----------------------------------------------------------------|
//! | `hot-alloc`   | no allocation idioms in files marked hot-path                  |
//! | `allow-syntax`| every suppression names a real rule and gives a reason         |
//!
//! Suppression is per-line and must carry a justification, e.g.
//! `hot-alloc` can be waived on a cold constructor line with a trailing
//! comment of the shape `simlint: allow(<rule>) — <why this is sound>`
//! (written with `//`). A file opts into the allocation rules with a
//! file-scope marker comment of the shape `simlint: hot-path`.

use crate::config;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Comment, Lexed, Tok};

/// A parsed suppression: findings for `rule` on `from_line..=to_line`
/// are dropped.
#[derive(Debug)]
struct Allow {
    rule: String,
    from_line: u32,
    to_line: u32,
}

/// What a comment's directive (if any) means.
enum Directive {
    HotPath,
    Allow { rule: String, reason: String },
    Malformed(String),
}

/// Parses a simlint directive out of a comment. Only comments that
/// *begin* with the directive count, so prose that merely mentions the
/// syntax (docs, this file) is inert.
fn parse_directive(c: &Comment) -> Option<Directive> {
    let t = c.text.trim().trim_start_matches('`').trim_start();
    let rest = t.strip_prefix("simlint:")?.trim_start();
    if rest.starts_with("hot-path") {
        return Some(Directive::HotPath);
    }
    if let Some(body) = rest.strip_prefix("allow(") {
        let Some(close) = body.find(')') else {
            return Some(Directive::Malformed("unclosed `allow(`".into()));
        };
        let rule = body[..close].trim().to_string();
        let reason = body[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim()
            .to_string();
        return Some(Directive::Allow { rule, reason });
    }
    None
}

/// `#[cfg(test)]` item extents, as inclusive line ranges. Files living
/// under `tests/`/`benches/` are handled by path instead.
fn test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].span.line;
        let mut j = i + 1;
        let inner = j < toks.len() && toks[j].is_punct('!');
        if inner {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        // Scan the attribute body to the matching `]`.
        let mut depth = 0i32;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < toks.len() {
            match &toks[j].kind {
                crate::lexer::TokKind::Punct('[') => depth += 1,
                crate::lexer::TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                crate::lexer::TokKind::Ident(id) => {
                    saw_cfg |= id == "cfg";
                    saw_test |= id == "test";
                }
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            i = j + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            regions.push((1, u32::MAX));
            return regions;
        }
        // Find the annotated item's extent: the first brace block, or a
        // terminating `;` for braceless items (`use`, type aliases).
        let mut k = j + 1;
        let mut end_line = attr_line;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                let mut braces = 0i32;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        braces += 1;
                    } else if toks[k].is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                end_line = toks[k.min(toks.len() - 1)].span.line;
                break;
            }
            if toks[k].is_punct(';') {
                end_line = toks[k].span.line;
                break;
            }
            k += 1;
        }
        regions.push((attr_line, end_line.max(attr_line)));
        i = j + 1;
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Matches `base :: name` starting at `toks[i]` (where `toks[i]` is the
/// `base` identifier).
fn qualified(toks: &[Tok], i: usize, base: &str, name: &str) -> bool {
    toks[i].ident() == Some(base)
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).and_then(Tok::ident) == Some(name)
}

/// Matches `. name (` starting at the `.` in `toks[i]`.
fn method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_punct('.')
        && toks.get(i + 1).and_then(Tok::ident) == Some(name)
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
}

/// Lints one file's source. `path` must be workspace-root-relative with
/// `/` separators — R5 uses it to exempt test files.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mut diags = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut hot = false;

    for (ci, c) in lexed.comments.iter().enumerate() {
        match parse_directive(c) {
            Some(Directive::HotPath) => hot = true,
            Some(Directive::Allow { rule, reason }) => {
                if !config::RULES.contains(&rule.as_str()) {
                    diags.push(Diagnostic {
                        path: path.into(),
                        line: c.start_line,
                        col: 1,
                        rule: "allow-syntax",
                        message: format!(
                            "allow names unknown rule `{rule}` (known: {})",
                            config::RULES.join(", ")
                        ),
                    });
                } else if reason.is_empty() {
                    diags.push(Diagnostic {
                        path: path.into(),
                        line: c.start_line,
                        col: 1,
                        rule: "allow-syntax",
                        message: format!(
                            "allow({rule}) without a reason — every exception must \
                             justify itself in the diff"
                        ),
                    });
                } else {
                    // A justification may wrap onto following comment
                    // lines; the allow covers the whole contiguous
                    // comment block plus the line after it.
                    let mut end = c.end_line;
                    for next in &lexed.comments[ci + 1..] {
                        if next.start_line == end + 1 && parse_directive(next).is_none() {
                            end = next.end_line;
                        } else {
                            break;
                        }
                    }
                    allows.push(Allow { rule, from_line: c.start_line, to_line: end + 1 });
                }
            }
            Some(Directive::Malformed(why)) => diags.push(Diagnostic {
                path: path.into(),
                line: c.start_line,
                col: 1,
                rule: "allow-syntax",
                message: why,
            }),
            None => {}
        }
    }

    // R5 — allocation idioms in hot-path files (steady state must not
    // touch the heap; cold/setup lines take a justified allow).
    if hot && !config::is_test_path(path) {
        let regions = test_regions(&lexed);
        let toks = &lexed.toks;
        for (i, t) in toks.iter().enumerate() {
            if in_regions(&regions, t.span.line) {
                continue;
            }
            let hit: Option<&str> = if method_call(toks, i, "clone") {
                Some(".clone()")
            } else if method_call(toks, i, "to_vec") {
                Some(".to_vec()")
            } else if qualified(toks, i, "Vec", "new") {
                Some("Vec::new")
            } else if qualified(toks, i, "Box", "new") {
                Some("Box::new")
            } else if qualified(toks, i, "String", "from") {
                Some("String::from")
            } else if t.ident() == Some("vec") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                Some("vec![…]")
            } else if t.ident() == Some("format")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                Some("format!")
            } else {
                None
            };
            if let Some(idiom) = hit {
                // A method call is reported at the method name, not the `.`.
                let at = if idiom.starts_with('.') { toks[i + 1].span } else { t.span };
                diags.push(Diagnostic {
                    path: path.into(),
                    line: at.line,
                    col: at.col,
                    rule: "hot-alloc",
                    message: format!(
                        "`{idiom}` in a hot-path module: the packet path holds a \
                         zero-heap-allocation steady state — use pooled buffers / \
                         caller-supplied scratch, or justify with an allow"
                    ),
                });
            }
        }
    }

    // Apply suppressions. `allow-syntax` findings are never suppressible:
    // a broken allow must not hide itself.
    diags.retain(|d| {
        d.rule == "allow-syntax"
            || !allows
                .iter()
                .any(|a| a.rule == d.rule && a.from_line <= d.line && d.line <= a.to_line)
    });
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn rules_at(src: &str) -> Vec<(&'static str, u32)> {
        lint_source(LIB, src).into_iter().map(|d| (d.rule, d.line)).collect()
    }

    // ---- clippy-owned invariants ----

    #[test]
    fn clippy_owned_invariants_are_not_checked_twice() {
        // std hash containers, wall-clock reads, ambient RNG, raw prints
        // and `unsafe` are clippy's (or, for ambient RNG, impossible):
        // simlint stays silent on them, hot file or not.
        let body = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); \
                    let r = thread_rng(); println!(\"x\"); unsafe { d() } }\n";
        assert_eq!(rules_at(body), vec![]);
        assert_eq!(rules_at(&format!("// simlint: hot-path\n{body}")), vec![]);
    }

    // ---- R5: hot-alloc ----

    #[test]
    fn hot_path_marker_arms_the_allocation_rules() {
        let src = "// simlint: hot-path\nfn f(v: &[u8]) -> Vec<u8> { v.to_vec() }\n";
        assert_eq!(rules_at(src), vec![("hot-alloc", 2)]);
        // Without the marker the same file is silent.
        let unmarked = "fn f(v: &[u8]) -> Vec<u8> { v.to_vec() }\n";
        assert_eq!(rules_at(unmarked), vec![]);
    }

    #[test]
    fn each_hot_alloc_idiom_fires() {
        for stmt in [
            "x.clone()",
            "Vec::new()",
            "vec![0u8; 16]",
            "x.to_vec()",
            "Box::new(x)",
            "format!(\"{x}\")",
            "String::from(\"x\")",
        ] {
            let src = format!("// simlint: hot-path\nfn f() {{ let _ = {stmt}; }}\n");
            let diags = lint_source(LIB, &src);
            assert_eq!(
                diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
                vec![("hot-alloc", 2)],
                "idiom {stmt} must fire exactly once"
            );
        }
    }

    #[test]
    fn hot_alloc_skips_cfg_test_modules() {
        let src = "// simlint: hot-path\npub fn lib() {}\n#[cfg(test)]\nmod tests {\n    \
                   fn t() { let v = vec![1, 2]; let _ = v.clone(); }\n}\n";
        assert_eq!(rules_at(src), vec![]);
    }

    #[test]
    fn clone_in_doc_example_does_not_fire() {
        let src = "// simlint: hot-path\n/// ```\n/// let b = a.clone();\n/// ```\nfn f() {}\n";
        assert_eq!(rules_at(src), vec![]);
    }

    // ---- allows ----

    #[test]
    fn trailing_allow_with_reason_suppresses() {
        let src = "// simlint: hot-path\nfn f() { let v: Vec<u8> = Vec::new(); } \
                   // simlint: allow(hot-alloc) — cold constructor, never on the packet path\n";
        assert_eq!(rules_at(src), vec![]);
    }

    #[test]
    fn preceding_line_allow_suppresses_next_line_only() {
        let src = "// simlint: hot-path\n\
                   // simlint: allow(hot-alloc) — setup, runs once\n\
                   fn f() { let v: Vec<u8> = Vec::new(); }\n\
                   fn g() { let w: Vec<u8> = Vec::new(); }\n";
        assert_eq!(rules_at(src), vec![("hot-alloc", 4)]);
    }

    #[test]
    fn allow_without_reason_is_an_error_and_does_not_suppress() {
        let src = "// simlint: hot-path\nfn f() { let v: Vec<u8> = Vec::new(); } \
                   // simlint: allow(hot-alloc)\n";
        let mut rules: Vec<&str> = lint_source(LIB, src).iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        assert_eq!(rules, vec!["allow-syntax", "hot-alloc"]);
    }

    #[test]
    fn allow_naming_unknown_rule_is_an_error() {
        let src = "fn f() {} // simlint: allow(hto-alloc) — typo\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "allow-syntax");
        assert!(diags[0].message.contains("hto-alloc"));
    }

    #[test]
    fn allow_only_covers_its_own_rule() {
        let src = "// simlint: hot-path\nfn f() { let v: Vec<u8> = Vec::new(); } \
                   // simlint: allow(allow-syntax) — wrong rule named\n";
        assert_eq!(rules_at(src), vec![("hot-alloc", 2)]);
    }

    #[test]
    fn prose_mentioning_the_syntax_is_inert() {
        let src = "// Suppress with a comment like `simlint: allow(rule)` plus a reason.\n\
                   fn f() {}\n";
        // Mid-comment mentions parse as prose, not directives — but even a
        // comment *starting* with the directive still validates the rule
        // name, which is what the previous test pins.
        assert_eq!(rules_at(src), vec![]);
    }
}
