//! Typed campaign records and their newline-delimited JSON wire format.
//!
//! Every scenario declares a static [`Schema`] — an ordered list of named,
//! typed fields — and each trial produces one [`Record`] conforming to it.
//! Records cross process boundaries (worker → coordinator pipe, checkpoint
//! files) as one JSON object per line with the fields in schema order, so
//! the encoded line is a pure function of the record and the merge digest
//! is identical whether a record was produced in-process or parsed back
//! out of a worker's stream.
//!
//! Numbers round-trip exactly: `f64` is printed with Rust's shortest
//! round-trip `Display` and parsed back with `str::parse`, which recovers
//! the identical bits for every finite value. Non-finite floats encode as
//! `null` (JSON has no NaN/∞); scenario fields never produce them.

use std::fmt::Write as _;

/// The type of one schema field.
///
/// The histogram kinds are wire-identical to their scalar bases (`HistU64`
/// encodes/decodes exactly like `U64`, `HistF64` like `F64`) — the
/// [`HistSpec`] only changes how the coordinator *aggregates* the field:
/// next to the moments and rank sketch every numeric field gets, it
/// builds a fixed-bin `StreamHist`, which is what puts a figure-ready
/// histogram section into `summary.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldKind {
    /// `true` / `false` (nullable).
    Bool,
    /// Unsigned integer (nullable).
    U64,
    /// Double-precision float (nullable).
    F64,
    /// UTF-8 string (nullable).
    Str,
    /// Unsigned integer aggregated into a declared histogram (nullable).
    HistU64(HistSpec),
    /// Float aggregated into a declared histogram (nullable).
    HistF64(HistSpec),
}

/// The static shape of a declared histogram field: bin `i` covers
/// `[lo + i·width, lo + (i+1)·width)`, with clamped extremes (see
/// `runner::StreamHist`). Const-constructible so scenario schemas can
/// declare figure bucketing statically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSpec {
    /// Low edge of bin 0.
    pub lo: f64,
    /// Bin width (positive).
    pub width: f64,
    /// Number of bins (positive).
    pub bins: usize,
}

/// One named, typed field of a scenario's record schema.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// JSON object key.
    pub name: &'static str,
    /// Declared type (drives both parsing and aggregation).
    pub kind: FieldKind,
}

/// A scenario's record schema: fields in wire order.
pub type Schema = [Field];

/// One field value. Any field may be `Null` (e.g. "attack never landed").
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / not applicable.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The value as a float sample for aggregation (bools count 0/1).
    pub fn as_sample(&self) -> Option<f64> {
        match self {
            Value::Null | Value::Str(_) => None,
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            Value::U64(n) => Some(*n as f64),
            Value::F64(x) => Some(*x),
        }
    }
}

/// Converts an optional into a `Value`, mapping `None` to [`Value::Null`].
pub fn opt<T: Into<Value>>(v: Option<T>) -> Value {
    v.map_or(Value::Null, Into::into)
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::U64(u64::from(n))
    }
}
impl From<u16> for Value {
    fn from(n: u16) -> Value {
        Value::U64(u64::from(n))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// One trial's outcome: values parallel to the scenario's [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record(pub Vec<Value>);

/// Encodes one record as a single JSON object line (no trailing newline),
/// fields in schema order.
///
/// # Panics
///
/// Panics if the record's arity does not match the schema — a scenario
/// implementation bug, not a runtime condition.
pub fn encode_line(schema: &Schema, record: &Record) -> String {
    assert_eq!(record.0.len(), schema.len(), "record arity must match schema");
    let mut out = String::with_capacity(schema.len() * 16);
    out.push('{');
    for (field, value) in schema.iter().zip(&record.0) {
        if out.len() > 1 {
            out.push(',');
        }
        out.push('"');
        out.push_str(field.name);
        out.push_str("\":");
        encode_value(&mut out, value);
    }
    out.push('}');
    out
}

fn encode_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) if !x.is_finite() => out.push_str("null"),
        Value::F64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => {
            let _ = write!(out, "{}", JsonStr(s));
        }
    }
}

/// Renders a string as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` get their short escapes and every other
/// control character becomes `\u00XX`. The one JSON string escaper of this
/// crate — record lines, `summary.json` and `metrics.json` all use it.
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

/// Decodes one line back into a record, strictly: the object must carry
/// exactly the schema's fields, in schema order, with values of the
/// declared kinds (or `null`). Strictness is what lets a resumed campaign
/// trust a checkpoint file: any torn or foreign line fails loudly.
///
/// # Errors
///
/// Returns a description of the first deviation from the schema.
pub fn decode_line(schema: &Schema, line: &str) -> Result<Record, String> {
    let mut p = Parser { b: line.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut values = Vec::with_capacity(schema.len());
    for (i, field) in schema.iter().enumerate() {
        if i > 0 {
            p.expect(b',')?;
        }
        let key = p.string()?;
        if key != field.name {
            return Err(format!("field {i}: expected key {:?}, got {key:?}", field.name));
        }
        p.expect(b':')?;
        values.push(p.value(field.kind)?);
    }
    p.expect(b'}')?;
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(Record(values))
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, kind: FieldKind) -> Result<Value, String> {
        if self.literal("null") {
            return Ok(Value::Null);
        }
        match kind {
            FieldKind::Bool => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(format!("expected bool at byte {}", self.pos))
                }
            }
            FieldKind::U64 | FieldKind::HistU64(_) => {
                let tok = self.number_token()?;
                tok.parse::<u64>().map(Value::U64).map_err(|e| format!("bad u64 {tok:?}: {e}"))
            }
            FieldKind::F64 | FieldKind::HistF64(_) => {
                let tok = self.number_token()?;
                tok.parse::<f64>().map(Value::F64).map_err(|e| format!("bad f64 {tok:?}: {e}"))
            }
            FieldKind::Str => self.string().map(Value::Str),
        }
    }

    fn number_token(&mut self) -> Result<&str, String> {
        let start = self.pos;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unmodified. The slice
                    // is non-empty (guarded by the `Some`), but corrupt
                    // checkpoint bytes reach this decoder, so fail typed
                    // rather than assume.
                    let s = std::str::from_utf8(&self.b[self.pos..]).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty string continuation")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &Schema = &[
        Field { name: "ok", kind: FieldKind::Bool },
        Field { name: "count", kind: FieldKind::U64 },
        Field { name: "shift", kind: FieldKind::F64 },
        Field { name: "who", kind: FieldKind::Str },
    ];

    #[test]
    fn encode_decode_round_trips() {
        let rec = Record(vec![
            Value::Bool(true),
            Value::U64(u64::MAX),
            Value::F64(-499.999_999_999_73),
            Value::Str("sys\"temd\\ \n π".into()),
        ]);
        let line = encode_line(SCHEMA, &rec);
        assert_eq!(decode_line(SCHEMA, &line).expect("round trip"), rec);
    }

    #[test]
    fn json_escape_handles_control_and_quote_chars() {
        assert_eq!(JsonStr("plain").to_string(), "\"plain\"");
        assert_eq!(JsonStr("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(JsonStr("\u{1}π").to_string(), "\"\\u0001π\"");
    }

    #[test]
    fn nulls_round_trip_in_every_kind() {
        let rec = Record(vec![Value::Null, Value::Null, Value::Null, Value::Null]);
        let line = encode_line(SCHEMA, &rec);
        assert_eq!(line, r#"{"ok":null,"count":null,"shift":null,"who":null}"#);
        assert_eq!(decode_line(SCHEMA, &line).expect("round trip"), rec);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let rec = Record(vec![
            Value::Bool(false),
            Value::U64(0),
            Value::F64(f64::NAN),
            Value::Str(String::new()),
        ]);
        let line = encode_line(SCHEMA, &rec);
        assert!(line.contains("\"shift\":null"), "{line}");
    }

    #[test]
    fn decode_rejects_torn_and_foreign_lines() {
        let rec =
            Record(vec![Value::Bool(true), Value::U64(3), Value::F64(1.5), Value::Str("x".into())]);
        let line = encode_line(SCHEMA, &rec);
        for bad in [
            &line[..line.len() - 1],                            // torn tail
            &line[1..],                                         // torn head
            r#"{"ok":true}"#,                                   // missing fields
            r#"{"ok":1,"count":2,"shift":3.0,"who":"x"}"#,      // wrong kind
            r#"{"oops":true,"count":2,"shift":3.0,"who":"x"}"#, // wrong key
        ] {
            assert!(decode_line(SCHEMA, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn hist_kinds_are_wire_identical_to_their_scalar_bases() {
        const SPEC: HistSpec = HistSpec { lo: -200.0, width: 25.0, bins: 17 };
        const HIST: &Schema = &[
            Field { name: "ttl", kind: FieldKind::HistU64(SPEC) },
            Field { name: "ms", kind: FieldKind::HistF64(SPEC) },
        ];
        const SCALAR: &Schema = &[
            Field { name: "ttl", kind: FieldKind::U64 },
            Field { name: "ms", kind: FieldKind::F64 },
        ];
        for rec in [
            Record(vec![Value::U64(42), Value::F64(-3.25)]),
            Record(vec![Value::Null, Value::Null]),
        ] {
            let line = encode_line(HIST, &rec);
            assert_eq!(line, encode_line(SCALAR, &rec));
            assert_eq!(decode_line(HIST, &line).expect("decodes"), rec);
            assert_eq!(decode_line(SCALAR, &line).expect("decodes"), rec);
        }
    }

    #[test]
    fn float_bits_survive_the_wire() {
        for bits in [0x0000_0000_0000_0001u64, 0x3FF0_0000_0000_0001, 0xC07F_4000_0000_0000] {
            let x = f64::from_bits(bits);
            let rec = Record(vec![Value::Null, Value::Null, Value::F64(x), Value::Null]);
            let line = encode_line(SCHEMA, &rec);
            let back = decode_line(SCHEMA, &line).expect("decodes");
            match back.0[2] {
                Value::F64(y) => assert_eq!(y.to_bits(), bits, "bits must round-trip"),
                ref other => panic!("expected F64, got {other:?}"),
            }
        }
    }
}
