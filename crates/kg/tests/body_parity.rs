//! `QueryResult::to_body` writes a `/kg/query` body straight to bytes;
//! the `Value`-tree serialization `to_json().to_json()` is its oracle.
//! For random results — hostile text in every label, empty paths and
//! empty results, every float shape a score can take, counters at their
//! extremes — the two agree to the byte.

use covidkg_kg::query::{QueryResult, RankedPath};
use covidkg_rand::prop::{self, charset_string, pick, vec_of};
use covidkg_rand::{Rng, SmallRng};

/// Every character the writer escapes (all of 0x00–0x1f, `"` and `\`),
/// the ones JSON leaves alone although they look dangerous (DEL, `/`,
/// U+2028), and 2-, 3- and 4-byte UTF-8 to straddle the 8-byte chunks.
fn hostile_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '\u{7f}', '/', '\u{2028}', '\u{2029}', 'é', 'ß', '漢', '\u{feff}', '😷', '𝒳',
        'a', 'z', ' ', '-', '(', ')', '0',
    ]);
    chars
}

fn label(rng: &mut SmallRng, chars: &[char]) -> String {
    if rng.gen_bool(0.2) {
        // Long clean runs, so the chunked scan runs many steps in a row.
        let mut s = "Vaccine(s)".repeat(rng.gen_range(0..5));
        s.push_str(&charset_string(rng, chars, 0, 3));
        s
    } else {
        charset_string(rng, chars, 0, 24)
    }
}

fn score(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => *pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                3.0,
                1e15,
                1e-300,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                999_999_999_999_999.0,
                f64::MAX,
                f64::MIN_POSITIVE,
            ],
        ),
        // `(support + 1) / length`, the shape the engine produces.
        1 => f64::from(rng.gen_range(1u32..40)) / f64::from(rng.gen_range(1u32..9)),
        _ => rng.gen_range(-50.0..50.0),
    }
}

fn counter(rng: &mut SmallRng) -> u64 {
    *pick(rng, &[0, 1, 7, 4_096, u64::from(u32::MAX), i64::MAX as u64, u64::MAX])
}

fn ranked_path(rng: &mut SmallRng, chars: &[char]) -> RankedPath {
    let len = rng.gen_range(0..6);
    RankedPath {
        nodes: (0..len)
            .map(|_| *pick(rng, &[0, 1, 9, 10, 81, 12_345, usize::MAX]))
            .collect(),
        // Usually one label per node; sometimes none, as a path the
        // engine has not labelled yet is written.
        labels: if rng.gen_bool(0.8) {
            (0..len).map(|_| label(rng, chars)).collect()
        } else {
            Vec::new()
        },
        support: *pick(rng, &[0, 1, 3, 250, usize::MAX]),
        score: score(rng),
    }
}

fn result(rng: &mut SmallRng, chars: &[char]) -> QueryResult {
    QueryResult {
        paths: vec_of(rng, 0, 12, |r| ranked_path(r, chars)),
        hops: counter(rng),
        visited: counter(rng),
    }
}

fn assert_parity(result: &QueryResult) {
    assert_eq!(
        result.to_body(),
        result.to_json().to_json(),
        "to_body differs from its oracle"
    );
}

#[test]
fn to_body_equals_the_value_tree_serialization() {
    let chars = hostile_chars();
    prop::run(512, |rng| assert_parity(&result(rng, &chars)));
}

/// The shapes a random result reaches only sometimes, each on its own.
#[test]
fn edge_results_equal_the_value_tree_serialization() {
    let path = |nodes: Vec<usize>, labels: Vec<&str>, score: f64| RankedPath {
        nodes,
        labels: labels.into_iter().map(String::from).collect(),
        support: 2,
        score,
    };
    let every_control: String = (0u8..0x20).map(char::from).collect();
    let mut results = vec![QueryResult { paths: Vec::new(), hops: 0, visited: 0 }];
    for score in [0.0, -0.0, 1.0, 1e15, 1e-300, f64::NAN, f64::INFINITY] {
        results.push(QueryResult {
            paths: vec![
                path(Vec::new(), Vec::new(), score),
                path(
                    vec![0, 3, 17],
                    vec![&every_control, "\"\\\u{7f}", "\u{2028}é漢😷"],
                    score,
                ),
            ],
            hops: u64::MAX,
            visited: i64::MAX as u64,
        });
    }
    for result in &results {
        assert_parity(result);
    }
    let body = |i: usize| results[i].to_body();
    assert_eq!(body(0), "{\"paths\":[],\"hops\":0,\"visited\":0}");
    assert!(body(2).contains("\"score\":-0.0}"));
    assert!(body(6).contains("\"score\":null}"));
    assert!(body(1).ends_with("\"hops\":-1,\"visited\":9223372036854775807}"));
}
