//! Differential tests: the one-pass borrowed record decoder against the
//! char-by-char reference in `oracle/`. On every input both must return
//! `Err`, or both return the same record. The inputs:
//!
//! * random records over random schemas (every `FieldKind`, `null`, u64
//!   extremes, finite f64 extremes, strings with `"`, `\`, control chars
//!   and non-ASCII text), encoded by `encode_line`;
//! * hand-spelled lines the encoder never writes: escaped keys, `\u`
//!   escapes (valid, surrogate, malformed), odd number spellings, then
//!   truncated, overwritten or extended at a random place;
//! * one real quick-scale line per registry scenario, truncated at every
//!   offset and garbled at every byte.

mod oracle;
mod quick_lines;

use campaign::record::{decode_line, encode_line, Field, FieldKind, HistSpec, Record, Value};
use campaign::registry;
use proptest::prelude::*;
use quick_lines::QUICK_LINES;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const SPEC: HistSpec = HistSpec { lo: -200.0, width: 25.0, bins: 17 };

const KINDS: [FieldKind; 6] = [
    FieldKind::Bool,
    FieldKind::U64,
    FieldKind::F64,
    FieldKind::Str,
    FieldKind::HistU64(SPEC),
    FieldKind::HistF64(SPEC),
];

/// Key names, one per schema position (schemas hold at most this many).
const NAMES: [&str; 8] =
    ["ok", "count", "timing_diff_ms", "who", "a", "apex_a_ttl", "x_1", "explain_fail_stage"];

/// Characters a generated string draws from: JSON's escaped set, raw
/// control chars, and one-, two-, three- and four-byte UTF-8.
const ALPHABET: [char; 20] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', 'π', '中', '🦀', '\u{FFFD}', '\u{2028}',
];

/// The new decoder and the reference agree on `schema` and `line`.
fn agree(schema: &[Field], line: &str) -> Result<Option<Record>, TestCaseError> {
    match (decode_line(schema, line), oracle::decode_line(schema, line)) {
        (Ok(new), Ok(old)) => {
            prop_assert_eq!(&new, &old, "records differ on {:?}", line);
            Ok(Some(new))
        }
        (Err(_), Err(_)) => Ok(None),
        (new, old) => {
            prop_assert!(false, "decoders disagree on {line:?}: new {new:?}, reference {old:?}");
            Ok(None)
        }
    }
}

fn gen_schema(rng: &mut SmallRng) -> Vec<Field> {
    (0..rng.random_range(1..=NAMES.len()))
        .map(|i| Field { name: NAMES[i], kind: KINDS[rng.random_range(0..KINDS.len())] })
        .collect()
}

fn gen_text(rng: &mut SmallRng) -> String {
    (0..rng.random_range(0..12)).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]).collect()
}

fn gen_u64(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0..6u32) {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => rng.random_range(0..1000),
        _ => rng.random(),
    }
}

fn gen_f64(rng: &mut SmallRng) -> f64 {
    let x = match rng.random_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN,
        4 => f64::MIN_POSITIVE,
        5 => f64::from_bits(1), // smallest subnormal
        6 => -500.000_000_001,
        7 => rng.random_range(-1000.0..1000.0),
        _ => f64::from_bits(rng.random()),
    };
    if x.is_finite() {
        x
    } else {
        0.25
    }
}

fn gen_value(rng: &mut SmallRng, kind: FieldKind) -> Value {
    if rng.random_range(0..5u32) == 0 {
        return Value::Null;
    }
    match kind {
        FieldKind::Bool => Value::Bool(rng.random()),
        FieldKind::U64 | FieldKind::HistU64(_) => Value::U64(gen_u64(rng)),
        FieldKind::F64 | FieldKind::HistF64(_) => Value::F64(gen_f64(rng)),
        FieldKind::Str => Value::Str(gen_text(rng)),
    }
}

/// `s` with each char spelled, at random, as itself or as a `\u` escape
/// in lower- or upper-case hex (chars outside the BMP stay as they are).
fn gen_escaped(rng: &mut SmallRng, s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str(["\\\"", "\\u0022"][rng.random_range(0..2usize)]),
            '\\' => out.push_str(["\\\\", "\\u005C"][rng.random_range(0..2usize)]),
            c if (c as u32) < 0x10000 && rng.random_range(0..3u32) == 0 => {
                if rng.random() {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON string body the encoder never writes: raw text mixed with
/// every escape this decoder knows, and some it rejects.
fn gen_string_body(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 16] = [
        "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\u00e9", "\\u4E2D", "\\uD83E", "\\u+041",
        "\\u12", "\\b", "\\x", "\\", "\\uzzzz", "\\u0000",
    ];
    let mut out = String::new();
    for _ in 0..rng.random_range(0..6) {
        match rng.random_range(0..4u32) {
            0 => out.push_str(PIECES[rng.random_range(0..PIECES.len())]),
            1 => {
                let hex: u32 = rng.random_range(0..0x1_0000);
                out.push_str(&format!("\\u{hex:04x}"));
            }
            _ => out.extend(gen_text(rng).chars().filter(|&c| c != '"' && c != '\\')),
        }
    }
    out
}

fn gen_number(rng: &mut SmallRng, kind: FieldKind) -> String {
    const ODD: [&str; 14] = [
        "+1",
        "-0",
        "01",
        "1e3",
        "1E-3",
        ".5",
        "5.",
        "-",
        "1e999",
        "-1e999",
        "18446744073709551616",
        "1.7976931348623157e308",
        "2.5e-324",
        "1-2",
    ];
    if rng.random_range(0..3u32) == 0 {
        return ODD[rng.random_range(0..ODD.len())].to_owned();
    }
    match kind {
        FieldKind::U64 | FieldKind::HistU64(_) => gen_u64(rng).to_string(),
        _ => gen_f64(rng).to_string(),
    }
}

/// A line over `schema` spelled by hand: keys literal, escaped or wrong,
/// values of the declared kind, of another kind, or `null`.
fn gen_spelled_line(rng: &mut SmallRng, schema: &[Field]) -> String {
    let mut line = String::from("{");
    for (i, field) in schema.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let key = match rng.random_range(0..8u32) {
            0..=4 => field.name.to_owned(),
            5 | 6 => gen_escaped(rng, field.name),
            _ => NAMES[rng.random_range(0..NAMES.len())].to_owned(),
        };
        line.push('"');
        line.push_str(&key);
        line.push_str("\":");
        let kind = if rng.random_range(0..10u32) == 0 {
            KINDS[rng.random_range(0..KINDS.len())]
        } else {
            field.kind
        };
        match (rng.random_range(0..6u32), kind) {
            (0, _) => line.push_str("null"),
            (_, FieldKind::Bool) => {
                line.push_str(["true", "false", "tru", "True"][rng.random_range(0..4usize)])
            }
            (_, FieldKind::Str) => {
                line.push('"');
                if rng.random() {
                    line.push_str(&gen_string_body(rng));
                } else {
                    let text = gen_text(rng);
                    line.push_str(&gen_escaped(rng, &text));
                }
                line.push('"');
            }
            (_, kind) => line.push_str(&gen_number(rng, kind)),
        }
    }
    line.push('}');
    line
}

/// Truncates, overwrites, inserts into or extends `line` at a random
/// char boundary (or leaves it whole).
fn mutate(rng: &mut SmallRng, line: &mut String) {
    const JUNK: [&str; 12] = ["\"", "\\", "{", "}", ",", ":", "0", "n", " ", "\u{0}", "é", "#"];
    let mut at = rng.random_range(0..=line.len());
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    let junk = JUNK[rng.random_range(0..JUNK.len())];
    match rng.random_range(0..5u32) {
        0 => line.truncate(at),
        1 if at < line.len() => {
            let end = at + line[at..].chars().next().map_or(0, char::len_utf8);
            line.replace_range(at..end, junk);
        }
        2 => line.insert_str(at, junk),
        3 => line.push_str(junk),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Encoded records decode to themselves, identically on both sides.
    #[test]
    fn encoded_records_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let schema = gen_schema(rng);
        let record = Record(schema.iter().map(|f| gen_value(rng, f.kind)).collect());
        let line = encode_line(&schema, &record);
        let back = agree(&schema, &line)?;
        prop_assert_eq!(back.as_ref(), Some(&record), "round trip of {:?}", line);
    }

    /// Hand-spelled and then mutated lines: both sides accept the same
    /// lines and read the same records from them.
    #[test]
    fn spelled_lines_match_reference(seed in any::<u64>()) {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let schema = gen_schema(rng);
        let mut line = gen_spelled_line(rng, &schema);
        if rng.random() {
            mutate(rng, &mut line);
        }
        agree(&schema, &line)?;
    }
}

fn quick_schema(name: &str) -> &'static [Field] {
    registry::find(name).unwrap_or_else(|| panic!("{name} is not registered")).schema
}

#[test]
fn quick_lines_cover_the_registry_and_round_trip() {
    let names: Vec<_> = QUICK_LINES.iter().map(|(name, _)| *name).collect();
    let registered: Vec<_> = registry::all().iter().map(|s| s.name).collect();
    assert_eq!(names, registered);
    for (name, line) in QUICK_LINES {
        let schema = quick_schema(name);
        let record = agree(schema, line).unwrap().unwrap_or_else(|| panic!("{name}: rejected"));
        assert_eq!(encode_line(schema, &record), line, "{name}");
    }
}

#[test]
fn truncated_quick_lines_match_reference() {
    for (name, line) in QUICK_LINES {
        let schema = quick_schema(name);
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            let torn = &line[..end];
            assert!(agree(schema, torn).unwrap().is_none(), "{name}: accepted {torn:?}");
        }
    }
}

#[test]
fn garbled_quick_lines_match_reference() {
    const SUBSTITUTES: &[char] = &[
        '"', '\\', '{', '}', '[', ',', ':', '0', '1', '9', '.', '-', '+', 'e', 'E', 'n', 'u', 'l',
        't', 'r', 'f', 'a', 's', 'x', '#', ' ', '\t', '\u{0}', '\u{7f}', 'é', '🦀',
    ];
    for (name, line) in QUICK_LINES {
        let schema = quick_schema(name);
        for (at, old) in line.char_indices() {
            for &c in SUBSTITUTES.iter().filter(|&&c| c != old) {
                let mut garbled = line.to_owned();
                garbled.replace_range(at..at + old.len_utf8(), c.encode_utf8(&mut [0; 4]));
                agree(schema, &garbled).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            }
        }
    }
}

#[test]
fn escaped_keys_and_values_still_decode() {
    let schema = quick_schema("table4_snoop");
    let (_, plain) = QUICK_LINES[3];
    let expected = decode_line(schema, plain).expect("the real line decodes");
    let escaped = plain.replace("\"verified\"", r#""verif\u0069ed""#);
    assert_eq!(decode_line(schema, &escaped), Ok(expected.clone()));
    let every_char: String =
        "accepts_fragments".chars().map(|c| format!("\\u{:04X}", c as u32)).collect();
    let fully = plain.replace("\"accepts_fragments\"", &format!("\"{every_char}\""));
    assert_eq!(agree(schema, &fully).unwrap(), Some(expected));
    let wrong = plain.replace("\"verified\"", r#""verif\u0069es""#);
    assert!(agree(schema, &wrong).unwrap().is_none());

    let schema = quick_schema("table2");
    let line = QUICK_LINES[1].1.replace("\"openntpd\"", r#""open\/n\"tpdé\t""#);
    let record = agree(schema, &line).unwrap().expect("escaped string decodes");
    assert_eq!(record.0[0], Value::Str("open/n\"tpdé\t".into()));
}
