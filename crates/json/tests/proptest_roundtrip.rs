//! Property-based tests: every generated value round-trips through the
//! compact and pretty writers, the writer's string escaping and integer
//! formatting equal their char-by-char / `write!` references to the
//! byte, and cmp_total is a total order. Runs on
//! the in-repo `covidkg_rand::prop` harness (offline proptest
//! replacement).

use covidkg_json::{parse, Value};
use covidkg_rand::prop::{self, any_string, ascii_string, lowercase_string, vec_of};
use covidkg_rand::{Rng, SmallRng};

/// Arbitrary JSON value of bounded depth/size (mirrors the old proptest
/// recursive strategy: depth ≤ 4, branching ≤ 6).
fn random_value(rng: &mut SmallRng, depth: usize) -> Value {
    let leaf_only = depth == 0 || rng.gen_bool(0.4);
    if leaf_only {
        match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::int(rng.gen_range(i64::MIN..=i64::MAX)),
            // Finite floats only: JSON has no NaN/Inf representation.
            3 => Value::float(rng.gen_range(-1.0e12..1.0e12f64)),
            4 => Value::str(ascii_string(rng, 0, 12)),
            // Exercise escapes and non-ASCII.
            _ => Value::str(
                *prop::pick(rng, &["quote\"back\\slash", "tab\tnewline\n", "naïve 漢字 😀"]),
            ),
        }
    } else if rng.gen_bool(0.5) {
        Value::Array(vec_of(rng, 0, 5, |r| random_value(r, depth - 1)))
    } else {
        // Unique keys: duplicate keys would make flatten/path disagree
        // (get returns the first member).
        let mut keys = vec_of(rng, 0, 5, |r| lowercase_string(r, 1, 6));
        keys.sort();
        keys.dedup();
        Value::Object(
            keys.into_iter()
                .map(|k| (k, random_value(rng, depth - 1)))
                .collect(),
        )
    }
}

#[test]
fn compact_round_trip() {
    prop::run(192, |rng| {
        let v = random_value(rng, 4);
        let text = v.to_json();
        let back = parse(&text).expect("writer output must parse");
        assert_eq!(back, v);
    });
}

#[test]
fn pretty_round_trip() {
    prop::run(192, |rng| {
        let v = random_value(rng, 4);
        let back = parse(&v.to_json_pretty()).expect("pretty output must parse");
        assert_eq!(back, v);
    });
}

#[test]
fn cmp_total_is_reflexive_and_antisymmetric() {
    prop::run(128, |rng| {
        use std::cmp::Ordering;
        let a = random_value(rng, 3);
        let b = random_value(rng, 3);
        assert_eq!(a.cmp_total(&a), Ordering::Equal);
        let ab = a.cmp_total(&b);
        let ba = b.cmp_total(&a);
        assert_eq!(ab, ba.reverse());
    });
}

#[test]
fn cmp_total_is_transitive() {
    prop::run(128, |rng| {
        use std::cmp::Ordering;
        let mut vals = [
            random_value(rng, 3),
            random_value(rng, 3),
            random_value(rng, 3),
        ];
        vals.sort_by(|x, y| x.cmp_total(y));
        // After sorting, pairwise order must hold.
        assert_ne!(vals[0].cmp_total(&vals[1]), Ordering::Greater);
        assert_ne!(vals[1].cmp_total(&vals[2]), Ordering::Greater);
        assert_ne!(vals[0].cmp_total(&vals[2]), Ordering::Greater);
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    prop::run(256, |rng| {
        let text = any_string(rng, 0, 64);
        let _ = parse(&text);
    });
}

#[test]
fn flatten_paths_resolve_back() {
    prop::run(128, |rng| {
        let v = random_value(rng, 4);
        for (path, leaf) in v.flatten() {
            assert_eq!(v.path(&path), Some(leaf));
        }
    });
}

/// The writer's escaping as it was written first, one `char` at a time:
/// the reference the byte-scanning `write_string` must equal exactly.
fn reference_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every character class the escape scan treats differently: each byte
/// below 0x20, `"`, `\`, DEL and plain ASCII around them (0x1f/0x20 and
/// 0x21/0x23 sit one off the tested values), and 2-, 3- and 4-byte
/// UTF-8 whose continuation bytes have the high bit set.
fn escape_alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend("\"\\\u{7f} !#[]a~\u{80}é\u{2028}漢\u{ffff}😀\u{10ffff}".chars());
    chars
}

fn assert_string_matches_reference(s: &str) {
    let expected = reference_string(s);
    let mut out = String::from("prefix:");
    covidkg_json::write_string(s, &mut out);
    assert_eq!(out["prefix:".len()..], expected, "write_string({s:?})");
    assert_eq!(Value::str(s).to_json(), expected, "to_json of {s:?}");
}

#[test]
fn write_string_equals_the_char_by_char_reference() {
    let alphabet = escape_alphabet();
    prop::run(2048, |rng| {
        let s = prop::charset_string(rng, &alphabet, 0, 40);
        assert_string_matches_reference(&s);
    });
}

/// Each special character at every offset across two 8-byte chunks,
/// alone, doubled, and followed by a multi-byte character, so every
/// chunk edge sees every class.
#[test]
fn every_class_at_every_chunk_offset_equals_the_reference() {
    for ch in escape_alphabet() {
        for offset in 0..17 {
            let pad = "x".repeat(offset);
            for tail in ["", "yz", "\"", "é漢😀", "\u{1}"] {
                assert_string_matches_reference(&format!("{pad}{ch}{tail}"));
                assert_string_matches_reference(&format!("{pad}{ch}{ch}{tail}{pad}"));
            }
        }
    }
}

#[test]
fn integers_equal_the_formatter() {
    use covidkg_json::Number;
    let check = |i: i64| {
        let mut out = String::from("[");
        covidkg_json::write_number(Number::Int(i), &mut out);
        assert_eq!(out, format!("[{i}"));
        assert_eq!(Value::int(i).to_json(), format!("{i}"));
    };
    for i in [i64::MIN, -1, 0, 1, i64::MAX] {
        check(i.saturating_sub(1));
        check(i);
        check(i.saturating_add(1));
    }
    for p in 0..19 {
        let ten = 10i64.pow(p);
        for i in [ten - 1, ten, ten + 1, -ten + 1, -ten, -ten - 1] {
            check(i);
        }
    }
    prop::run(1024, |rng| {
        check(rng.gen_range(i64::MIN..=i64::MAX));
        check(rng.gen_range(-100_000..=100_000));
    });
}
