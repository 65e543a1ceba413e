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
//! `null` (JSON has no NaN/∞); scenario fields never produce them, and
//! [`decode_line`] rejects a number that parses non-finite (`1e999`), so
//! no line it accepts was not written by [`encode_line`].

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::json::JsonStr;

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

/// Decodes one line back into a record, strictly: the object must carry
/// exactly the schema's fields, in schema order, with values of the
/// declared kinds (or `null`). Strictness is what lets a resumed campaign
/// trust a checkpoint file: any torn or foreign line fails loudly.
///
/// One linear pass over the borrowed line: a key spelled exactly as
/// [`encode_line`] writes it (`"name"`) is matched in place, and only
/// any other spelling goes through the escape-aware string parse, so an
/// escaped key such as `"verif\u0069ed"` still decodes. A record costs
/// one allocation for its values plus one per non-empty string value.
///
/// # Errors
///
/// Returns a description of the first deviation from the schema.
pub fn decode_line(schema: &Schema, line: &str) -> Result<Record, String> {
    let mut p = Parser { s: line, b: line.as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut values = Vec::with_capacity(schema.len());
    for (i, field) in schema.iter().enumerate() {
        if i > 0 {
            p.expect(b',')?;
        }
        p.key(i, field.name)?;
        p.expect(b':')?;
        values.push(p.value(field.kind)?);
    }
    p.expect(b'}')?;
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(Record(values))
}

/// A cursor over one line. `pos` only ever stops on an ASCII byte or at
/// the end, so it is always a char boundary of `s` and slicing `s` there
/// cannot panic.
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    /// Consumes the key of field `i`, which must read `name`. Schema names
    /// hold no `"` or `\` (the encoder writes them unescaped), so the
    /// literal `"name"` is exactly the spelling the string parse would
    /// read as `name`.
    fn key(&mut self, i: usize, name: &str) -> Result<(), String> {
        let quoted = self.b[self.pos..]
            .strip_prefix(b"\"")
            .and_then(|rest| rest.strip_prefix(name.as_bytes()))
            .and_then(|rest| rest.strip_prefix(b"\""));
        if quoted.is_some() {
            self.pos += name.len() + 2;
            return Ok(());
        }
        let key = self.string()?;
        if key != name {
            return Err(format!("field {i}: expected key {name:?}, got {key:?}"));
        }
        Ok(())
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
                match tok.parse::<f64>() {
                    Ok(x) if x.is_finite() => Ok(Value::F64(x)),
                    Ok(_) => Err(format!("non-finite f64 {tok:?}")),
                    Err(e) => Err(format!("bad f64 {tok:?}: {e}")),
                }
            }
            FieldKind::Str => self.string().map(|s| Value::Str(s.into_owned())),
        }
    }

    fn number_token(&mut self) -> Result<&'a str, String> {
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
        Ok(&self.s[start..self.pos])
    }

    /// Moves `pos` to the next `"` or `\` (or the end) and returns the
    /// run of plain text it passed over.
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        self.pos += self.b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(self.b.len() - start);
        &self.s[start..self.pos]
    }

    /// Parses a JSON string. Without escapes it is a slice of the line;
    /// with them, the unescaped runs are copied into one `String` sized
    /// by the rest of the line, which the unescaped text never outgrows.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let first = self.run();
        if self.b.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::with_capacity(self.b.len() - start);
        out.push_str(first);
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                Some(_) => out.push_str(self.run()),
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
    fn decode_rejects_numbers_that_overflow_to_infinity() {
        // `encode_line` writes a non-finite float as `null`; a line holding
        // one as a number was not written by it, and would carry ±∞ (and
        // then NaN) into the summary's moments.
        for bad in [
            r#"{"ok":true,"count":2,"shift":1e999,"who":"x"}"#,
            r#"{"ok":true,"count":2,"shift":-1e999,"who":"x"}"#,
        ] {
            let err = decode_line(SCHEMA, bad).expect_err("must reject");
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
        let max = r#"{"ok":true,"count":2,"shift":1.7976931348623157e308,"who":"x"}"#;
        assert!(decode_line(SCHEMA, max).is_ok(), "f64::MAX is finite");
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
