//! Reference implementation for the differential decoder tests: the
//! record-line decoder `campaign::record` used before it became one
//! borrowed pass, kept verbatim. It builds every key as a fresh `String`
//! one char at a time and re-validates the rest of the line as UTF-8 for
//! each ordinary char, which makes it quadratic in the line length but
//! easy to read; `decode_oracle.rs` checks the library decoder accepts
//! and rejects exactly what this one does.

use campaign::record::{FieldKind, Record, Schema, Value};

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
                match tok.parse::<f64>() {
                    Ok(x) if x.is_finite() => Ok(Value::F64(x)),
                    Ok(_) => Err(format!("non-finite f64 {tok:?}")),
                    Err(e) => Err(format!("bad f64 {tok:?}: {e}")),
                }
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
