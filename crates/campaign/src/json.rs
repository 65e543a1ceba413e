//! The one JSON writer of the campaign reports, and the reader beside it.
//!
//! `summary.json`, both `metrics.json` snapshots and the `fields`/`explain`
//! aggregates are [`Json`] values rendered here; record lines keep their
//! own compact, digest-pinned encoder (`record::encode_line`). [`validate`]
//! checks that a report is well-formed (`campaign jsoncheck`).
//!
//! The layout follows nesting depth. The report and each of its sections
//! put one member per line, indented two spaces per level (`[]` when
//! empty); anything deeper is one line, objects padded inside their
//! braces (`{ "a": 1 }`, `{ }`) and arrays not (`[1, 2]`).

mod validate;

pub use validate::{top_level_keys, validate};

/// One value of a report. Keys borrow from the structures being reported.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// A rendered scalar: a number (Rust's shortest round-trip `Display`),
    /// `true`/`false`, `null`, or a JSON-escaped quoted string. Build it
    /// with `Json::from`; non-finite floats become `null`, as in record
    /// lines.
    Scalar(String),
    /// An array.
    Array(Vec<Json<'a>>),
    /// An object, members in order.
    Object(Vec<(&'a str, Json<'a>)>),
}

/// Builds an object's member list, each value through `Json::from`:
/// `members!("shard" => 3usize, "digest" => hex.as_str())`.
macro_rules! members {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::json::Json::from($value))),*]
    };
}

/// Builds a [`Json::Object`] from `members!` syntax.
macro_rules! object {
    ($($members:tt)*) => {
        $crate::json::Json::Object($crate::json::members!($($members)*))
    };
}
pub(crate) use {members, object};

impl Json<'_> {
    /// Renders the value as a report file: the value, then a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the value at nesting `depth` (0 for the report itself), laid
    /// out as the module docs describe.
    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, members): (_, Vec<_>) = match self {
            Json::Scalar(s) => return out.push_str(s),
            Json::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => ("{}", members.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let (lines, indent) = (depth < 2, |d: usize| format!("\n{}", "  ".repeat(d)));
        let (open, close) = match (lines, brackets) {
            (true, _) => (indent(depth + 1), indent(depth)),
            (false, "{}") => (" ".into(), " ".into()),
            (false, _) => (String::new(), String::new()),
        };
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(if i > 0 && !lines { " " } else { &open });
            if let Some(key) = key {
                out.push_str(&format!("{}: ", JsonStr(key)));
            }
            value.write(out, depth + 1);
        }
        out.push_str(if lines && members.is_empty() { "" } else { &close });
        out.push_str(&brackets[1..]);
    }
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl From<$t> for Json<'_> {
            fn from(x: $t) -> Self {
                Json::Scalar(x.to_string())
            }
        }
    )*};
}
display_scalars!(bool, u64, usize);

impl From<f64> for Json<'_> {
    fn from(x: f64) -> Self {
        Json::Scalar(if x.is_finite() { x.to_string() } else { "null".into() })
    }
}

impl From<&str> for Json<'_> {
    fn from(s: &str) -> Self {
        Json::Scalar(JsonStr(s).to_string())
    }
}

impl<'a, T: Into<Json<'a>>> From<Option<T>> for Json<'a> {
    fn from(v: Option<T>) -> Self {
        v.map_or_else(|| Json::Scalar("null".into()), Into::into)
    }
}

/// Renders a string as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` get their short escapes and every other
/// control character becomes `\u00XX`. The one JSON string escaper of this
/// crate: the report writer and record lines both use it.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl std::fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("\"")?;
        let mut start = 0;
        for (i, c) in self.0.char_indices() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                c if (c as u32) >= 0x20 => continue,
                _ => None,
            };
            f.write_str(&self.0[start..i])?;
            match short {
                Some(escape) => f.write_str(escape)?,
                None => write!(f, "\\u{:04x}", c as u32)?,
            }
            start = i + c.len_utf8();
        }
        f.write_str(&self.0[start..])?;
        f.write_str("\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_follows_nesting_depth() {
        let counts = Json::Array(vec![1u64.into(), 2u64.into()]);
        let entry = object!("k" => 1u64, "s" => "x\"", "b" => counts);
        let doc = object!(
            "a" => Json::Array(vec![entry]),
            "c" => Json::Array(vec![object!()]),
            "d" => Json::Array(Vec::new()),
            "e" => f64::NAN,
            "f" => None::<u64>,
        );
        assert_eq!(
            doc.render(),
            "{\n  \"a\": [\n    { \"k\": 1, \"s\": \"x\\\"\", \"b\": [1, 2] }\n  ],\n  \
             \"c\": [\n    { }\n  ],\n  \"d\": [],\n  \"e\": null,\n  \"f\": null\n}\n"
        );
        validate(&doc.render()).expect("the writer's output is well-formed");
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            r#""escaped \" and snowman""#,
            r#"{ "a": [1, 2.0, -3e9], "b": { "nested": true }, "c": "x" }"#,
            "  {\n  \"k\": \"v\"\n}\n",
        ] {
            assert!(validate(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn top_level_keys_skip_nested_members() {
        let doc = r#"{ "final": true, "per_shard": [{ "stat": 1 }], "m": { "state": "x" } }"#;
        assert_eq!(top_level_keys(doc), Ok(vec!["final", "per_shard", "m"]));
        assert_eq!(top_level_keys(r#"[{ "a": 1 }]"#), Ok(vec![]));
        assert_eq!(top_level_keys(r#" { "a\"b": {} } "#), Ok(vec![r#"a\"b"#]));
        assert!(top_level_keys(r#"{ "a": 1 } {"#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "nul",
            "{\"a\": 1e}",
            "{1: 2}",
            "01",
            "[-00.5]",
        ] {
            assert!(validate(bad).is_err(), "should reject: {bad}");
        }
    }
}
