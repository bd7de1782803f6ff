//! JSON serialization: compact (WAL/wire) and pretty (reports, exports).

use crate::value::{Number, Value};
use std::fmt::Write as _;

impl Value {
    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        write_value(self, &mut out);
        out
    }

    /// Serialize to human-readable, 2-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::with_capacity(128);
        write_pretty(self, &mut out, 0);
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Append `n` as JSON: an integer in decimal, a finite float so that it
/// parses back as a float (`5.0`, not `5`), a non-finite one as `null`.
pub fn write_number(n: Number, out: &mut String) {
    match n {
        Number::Int(i) => write_int(i, out),
        Number::Float(f) => {
            if f.is_finite() {
                // Ensure floats stay floats on round-trip.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                // JSON has no NaN/Infinity; null is the conventional mapping.
                out.push_str("null");
            }
        }
    }
}

/// `i` in decimal, filled from the right into a stack buffer (20 bytes
/// hold `i64::MIN`: a sign and 19 digits).
fn write_int(i: i64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `s` as a JSON string literal, quotes included — the writer's
/// own escaping, for callers that splice one string into a serialized
/// document or write one directly. Only `"`, `\` and bytes below 0x20
/// are escaped; every run between them is copied whole.
pub fn write_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut clean = 0;
    loop {
        let at = next_escape(bytes, clean);
        // `at` is an ASCII byte or the end, so a char boundary.
        out.push_str(&s[clean..at]);
        let Some(&b) = bytes.get(at) else { break };
        push_escape(b, out);
        clean = at + 1;
    }
    out.push('"');
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The high bit of every byte of `w` below `n` (`n` ≤ 0x80). Only the
/// lowest set bit is exact — a borrow out of a marked byte can mark the
/// bytes above it — and it is all [`next_escape`] reads.
fn bytes_below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS
}

/// The index of the first byte at or after `from` that
/// [`write_string`] escapes, or `bytes.len()`: eight bytes per step,
/// each tested for `< 0x20`, `"` and `\` at once.
fn next_escape(bytes: &[u8], mut from: usize) -> usize {
    while let Some(chunk) = bytes.get(from..from + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hits = bytes_below(w, 0x20)
            | bytes_below(w ^ (ONES * u64::from(b'"')), 1)
            | bytes_below(w ^ (ONES * u64::from(b'\\')), 1);
        if hits != 0 {
            return from + (hits.trailing_zeros() / 8) as usize;
        }
        from += 8;
    }
    bytes[from..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map_or(bytes.len(), |p| from + p)
}

/// The escape of one byte [`next_escape`] stopped at.
fn push_escape(b: u8, out: &mut String) {
    match b {
        b'"' => out.push_str("\\\""),
        b'\\' => out.push_str("\\\\"),
        b'\n' => out.push_str("\\n"),
        b'\r' => out.push_str("\\r"),
        b'\t' => out.push_str("\\t"),
        0x08 => out.push_str("\\b"),
        0x0c => out.push_str("\\f"),
        _ => {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{arr, obj, parse, Value};

    #[test]
    fn compact_round_trip() {
        let doc = obj! {
            "title" => "Masks & \"aerosols\"",
            "n" => 42,
            "score" => 0.5,
            "tags" => arr!["covid", "ppe"],
            "nested" => obj! { "deep" => arr![obj!{ "x" => Value::Null }] },
        };
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn pretty_round_trip() {
        let doc = obj! { "a" => arr![1, 2], "b" => obj!{ "c" => true } };
        assert_eq!(parse(&doc.to_json_pretty()).unwrap(), doc);
    }

    #[test]
    fn floats_keep_floatness() {
        let v = Value::float(5.0);
        assert_eq!(v.to_json(), "5.0");
        assert!(matches!(
            parse("5.0").unwrap(),
            Value::Num(crate::Number::Float(_))
        ));
    }

    #[test]
    fn control_characters_escape() {
        let v = Value::str("a\u{1}b\nc");
        assert_eq!(v.to_json(), "\"a\\u0001b\\nc\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::float(f64::NAN).to_json(), "null");
        assert_eq!(Value::float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        let doc = obj! { "a" => arr![], "b" => obj!{} };
        let pretty = doc.to_json_pretty();
        assert!(pretty.contains("[]"));
        assert!(pretty.contains("{}"));
    }

    #[test]
    fn unicode_survives_round_trip() {
        let v = Value::str("naïve 漢字 😀");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
