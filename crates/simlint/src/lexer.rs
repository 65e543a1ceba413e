//! A minimal Rust lexer: just enough to tell *code* apart from comments,
//! strings, raw strings, char literals and lifetimes.
//!
//! The rules in [`crate::rules`] match on identifier/punct token
//! sequences, so the only correctness requirement here is that nothing
//! inside a comment, any flavour of string literal (`"…"`, `r#"…"#`,
//! `b"…"`, `c"…"`), or a char literal ever produces an `Ident` token —
//! otherwise `// call v.clone()` in prose or `"Vec::new"` in a message
//! would raise false positives. Comments are kept (with exact line
//! spans) because two directives live in them: `// simlint: allow(rule)`
//! suppressions and the `// simlint: hot-path` file marker.

/// Where a token starts: 1-based line and (character) column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
}

/// A non-comment token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `r#type`, …).
    Ident(String),
    /// Single punctuation character (`::` is two `Punct(':')` tokens).
    Punct(char),
    /// Any string-ish literal (string, raw string, byte string, char).
    Literal,
    /// Numeric literal, suffix included (`0x1F`, `64_usize`).
    Number,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Where it starts.
    pub span: Span,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A line (`//…`) or block (`/* … */`) comment, doc or plain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers (block comments keep
    /// interior newlines).
    pub text: String,
    /// 1-based line the comment starts on.
    pub start_line: u32,
    /// 1-based line the comment ends on (== `start_line` for `//`).
    pub end_line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub toks: Vec<Tok>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.chars.get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span(&self) -> Span {
        Span { line: self.line, col: self.col }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and comments. Unterminated constructs
/// (strings, block comments) consume to end of file rather than erroring:
/// the linter must never crash on the code it checks.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor { chars: source.chars().collect(), pos: 0, line: 1, col: 1 };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek2() == Some('/') {
            let start = cur.span();
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            let stripped = text.trim_start_matches('/').trim_start_matches('!');
            out.comments.push(Comment {
                text: stripped.to_string(),
                start_line: start.line,
                end_line: start.line,
            });
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            let start = cur.span();
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            let mut text = String::new();
            while depth > 0 {
                match (cur.peek(), cur.peek2()) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(c), _) => {
                        text.push(c);
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            let end_line = cur.line;
            out.comments.push(Comment { text, start_line: start.line, end_line });
            continue;
        }
        // Identifiers — including raw identifiers and the string-literal
        // prefixes (r"", b"", br#""#, c"").
        if is_ident_start(c) {
            let span = cur.span();
            let mut ident = String::new();
            while let Some(c) = cur.peek() {
                if !is_ident_continue(c) {
                    break;
                }
                ident.push(c);
                cur.bump();
            }
            let raw_capable = matches!(ident.as_str(), "r" | "br" | "cr" | "rb");
            let str_prefix = raw_capable || matches!(ident.as_str(), "b" | "c");
            match cur.peek() {
                // r#ident (raw identifier) vs r#"…"# (raw string).
                Some('#') if raw_capable => {
                    let mut hashes = 0usize;
                    while cur.peek_at(hashes) == Some('#') {
                        hashes += 1;
                    }
                    if cur.peek_at(hashes) == Some('"') {
                        for _ in 0..hashes {
                            cur.bump();
                        }
                        skip_raw_string(&mut cur, hashes);
                        out.toks.push(Tok { kind: TokKind::Literal, span });
                    } else {
                        // Raw identifier: consume `#` and the identifier.
                        cur.bump();
                        let mut raw = String::new();
                        while let Some(c) = cur.peek() {
                            if !is_ident_continue(c) {
                                break;
                            }
                            raw.push(c);
                            cur.bump();
                        }
                        out.toks.push(Tok { kind: TokKind::Ident(raw), span });
                    }
                }
                Some('"') if str_prefix => {
                    if raw_capable {
                        skip_raw_string(&mut cur, 0);
                    } else {
                        skip_string(&mut cur);
                    }
                    out.toks.push(Tok { kind: TokKind::Literal, span });
                }
                Some('\'') if ident == "b" => {
                    skip_char_literal(&mut cur);
                    out.toks.push(Tok { kind: TokKind::Literal, span });
                }
                _ => out.toks.push(Tok { kind: TokKind::Ident(ident), span }),
            }
            continue;
        }
        // Plain strings.
        if c == '"' {
            let span = cur.span();
            skip_string(&mut cur);
            out.toks.push(Tok { kind: TokKind::Literal, span });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let span = cur.span();
            match cur.peek2() {
                Some('\\') => {
                    skip_char_literal(&mut cur);
                    out.toks.push(Tok { kind: TokKind::Literal, span });
                }
                Some(n) if is_ident_start(n) => {
                    // `'a` → lifetime; `'a'` → char literal. Scan the
                    // identifier run, then look for a closing quote.
                    let mut len = 1;
                    while cur.peek_at(1 + len).map(is_ident_continue) == Some(true) {
                        len += 1;
                    }
                    if cur.peek_at(1 + len) == Some('\'') {
                        skip_char_literal(&mut cur);
                        out.toks.push(Tok { kind: TokKind::Literal, span });
                    } else {
                        cur.bump(); // the quote
                        for _ in 0..len {
                            cur.bump();
                        }
                        out.toks.push(Tok { kind: TokKind::Lifetime, span });
                    }
                }
                _ => {
                    skip_char_literal(&mut cur);
                    out.toks.push(Tok { kind: TokKind::Literal, span });
                }
            }
            continue;
        }
        // Numbers, suffix included, so `64usize` lexes as no identifier.
        if c.is_ascii_digit() {
            let span = cur.span();
            while cur.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                cur.bump();
            }
            out.toks.push(Tok { kind: TokKind::Number, span });
            continue;
        }
        // Everything else: single punctuation character.
        let span = cur.span();
        cur.bump();
        out.toks.push(Tok { kind: TokKind::Punct(c), span });
    }
    out
}

/// Consumes a `"…"` string (cursor on the opening quote), honouring `\"`
/// escapes and `\\`.
fn skip_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string body: cursor on the opening quote, `hashes`
/// already consumed; ends at `"` followed by the same number of `#`s.
fn skip_raw_string(cur: &mut Cursor, hashes: usize) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut n = 0usize;
            while n < hashes && cur.peek() == Some('#') {
                cur.bump();
                n += 1;
            }
            if n == hashes {
                break;
            }
        }
    }
}

/// Consumes a char literal (cursor on the opening quote).
fn skip_char_literal(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).toks.iter().filter_map(|t| t.ident().map(str::to_string)).collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            // thread_rng in a comment
            /* HashMap in a block /* nested Instant::now */ comment */
            let a = "thread_rng() HashMap";
            let b = r#"Instant::now " embedded quote"#;
            let c = b"rand::random";
            let d = 'x';
            let e = '\'';
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "thread_rng" || i == "HashMap" || i == "Instant"));
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "let", "d", "let", "e"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 3);
        // And a real char literal containing a quote-adjacent ident char.
        let lexed = lex("let c = 'a';");
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Literal));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let lexed = lex("a\n  bb\n");
        assert_eq!(lexed.toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(lexed.toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn comment_spans_cover_block_comments() {
        let lexed = lex("/* one\ntwo\nthree */ code");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!((lexed.comments[0].start_line, lexed.comments[0].end_line), (1, 3));
        assert_eq!(lexed.toks[0].span, Span { line: 3, col: 10 });
    }

    #[test]
    fn doc_comment_code_fences_are_comment_text() {
        // ``` fences inside /// doc comments must never surface as code.
        let src = "/// ```\n/// let m = HashMap::new();\n/// ```\nfn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("let s = \"unterminated");
        lex("/* unterminated");
        lex("let s = r#\"unterminated");
    }
}
