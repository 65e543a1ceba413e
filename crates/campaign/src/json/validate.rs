//! A tiny JSON validator (no parsing into values, no dependencies):
//! just enough to check that a campaign's `metrics.json` or
//! `summary.json` is well-formed.

/// Validates that `input` is one well-formed JSON value (objects,
/// arrays, strings with escapes, numbers, booleans, null) with
/// nothing but whitespace after it.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// with its byte offset.
pub fn validate(input: &str) -> Result<(), String> {
    top_level_keys(input).map(drop)
}

/// Validates `input` as [`validate`] does and returns the member names of
/// its top-level object, in order, as written between the quotes
/// (escapes are not decoded). Members of nested objects are not
/// included, and a top-level value that is not an object has none.
///
/// # Errors
///
/// The error [`validate`] returns.
pub fn top_level_keys(input: &str) -> Result<Vec<&str>, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut keys = Vec::new();
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'{') {
        object(bytes, &mut pos, Some(&mut keys))?;
    } else {
        value(bytes, &mut pos)?;
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    // Each range lies between two ASCII quotes, so it is a char boundary.
    Ok(keys.into_iter().map(|range| &input[range]).collect())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos, None),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("expected a JSON value at byte {pos}")),
    }
}

/// An object; the byte range of each member name goes to `keys`.
fn object(
    b: &[u8],
    pos: &mut usize,
    mut keys: Option<&mut Vec<std::ops::Range<usize>>>,
) -> Result<(), String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        let key_start = *pos + 1;
        string(b, pos)?;
        if let Some(keys) = keys.as_deref_mut() {
            keys.push(key_start..*pos - 1);
        }
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1F => return Err(format!("control character in string at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    fn digits(b: &[u8], pos: &mut usize) -> bool {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    }
    let int_start = *pos;
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    // RFC 8259 §6: the integer part is `0` or starts with 1-9.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}
