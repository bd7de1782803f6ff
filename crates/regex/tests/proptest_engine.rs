//! Property tests for the regex engine: escaped literals always self-match,
//! match offsets are valid char boundaries, and the engine never panics.
//! Runs on the in-repo `covidkg_rand::prop` harness.

use covidkg_rand::prop::{self, any_string, charset_string};
use covidkg_rand::Rng;
use covidkg_regex::{escape, Regex};

const AB_SPACE: &[char] = &['a', 'b', ' '];
const HAY_CHARS: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', '0', '1', '2', '9', ' ', '.', '-',
];
const ALPHA: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'A', 'B', 'C', 'D', 'E', 'Z',
];
const ALPHA_SPACE: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'A', 'B', 'C', 'D', 'E', ' ', ' ',
];

#[test]
fn escaped_literal_matches_itself() {
    prop::run(192, |rng| {
        let s = any_string(rng, 0, 24);
        let re = Regex::new(&escape(&s)).expect("escaped pattern must compile");
        assert!(re.is_match(&s));
        if !s.is_empty() {
            let hay = format!("@@{s}@@");
            let m = re.find(&hay).expect("must find embedded literal");
            assert_eq!(m.as_str(&hay), s.as_str());
        }
    });
}

#[test]
fn match_offsets_are_char_boundaries() {
    prop::run(192, |rng| {
        let hay = any_string(rng, 0, 48);
        let re = Regex::new(r"\w+").unwrap();
        for m in re.find_iter(&hay) {
            assert!(hay.is_char_boundary(m.start));
            assert!(hay.is_char_boundary(m.end));
            assert!(m.start <= m.end);
        }
    });
}

#[test]
fn find_iter_is_non_overlapping_and_ordered() {
    prop::run(192, |rng| {
        let hay = charset_string(rng, AB_SPACE, 0, 48);
        let re = Regex::new("a+b?").unwrap();
        let mut last_end = 0;
        for m in re.find_iter(&hay) {
            assert!(m.start >= last_end);
            last_end = m.end.max(last_end + usize::from(m.start == m.end));
        }
    });
}

#[test]
fn replace_then_no_match_remains() {
    prop::run(192, |rng| {
        let hay = charset_string(rng, HAY_CHARS, 0, 48);
        let re = Regex::new(r"\d+").unwrap();
        let replaced = re.replace_all(&hay, "NUM");
        assert!(!Regex::new(r"\d").unwrap().is_match(&replaced));
    });
}

#[test]
fn compiler_never_panics() {
    prop::run(256, |rng| {
        let pattern = any_string(rng, 0, 16);
        if let Ok(re) = Regex::new(&pattern) {
            let _ = re.is_match("the quick brown fox 123");
        }
    });
}

#[test]
fn case_insensitive_agrees_with_lowercased_input() {
    prop::run(192, |rng| {
        let word = charset_string(rng, ALPHA, 1, 12);
        let hay = charset_string(rng, ALPHA_SPACE, 0, 32);
        let ci = Regex::new_ci(&escape(&word)).unwrap();
        let cs = Regex::new(&escape(&word.to_ascii_lowercase())).unwrap();
        assert_eq!(ci.is_match(&hay), cs.is_match(&hay.to_ascii_lowercase()));
    });
}

/// A pattern that is one escaped literal skips the VM; wrapped in a group
/// it is the same expression but runs on the VM. Both must report the
/// same matches, in both case modes, on ASCII and multi-byte text.
#[test]
fn literal_fast_path_agrees_with_the_vm() {
    const FOLDING: &[char] = &['a', 'A', 'b', 'B', 'k', 'K', 'é', 'É', 'ß', 'İ', 'ı', '漢', ' ', '-', '.'];
    prop::run(512, |rng| {
        let exotic = rng.gen_bool(0.5);
        let text = |rng: &mut _, min, max| {
            if exotic {
                any_string(rng, min, max)
            } else {
                charset_string(rng, FOLDING, min, max)
            }
        };
        let needle = text(rng, 1, 5);
        // Plant the needle (sometimes case-flipped) so matches are common.
        let planted = match rng.gen_range(0..3u32) {
            0 => needle.clone(),
            1 => needle.to_uppercase(),
            _ => String::new(),
        };
        let hay = format!("{}{planted}{}", text(rng, 0, 24), text(rng, 0, 24));
        let escaped = escape(&needle);
        let grouped = format!("({escaped})");
        for ci in [false, true] {
            let compile = |p: &str| if ci { Regex::new_ci(p) } else { Regex::new(p) }.unwrap();
            let (fast, vm) = (compile(&escaped), compile(&grouped));
            let ctx = format!("needle {needle:?} hay {hay:?} ci {ci}");
            assert_eq!(fast.is_match(&hay), vm.is_match(&hay), "{ctx}");
            assert_eq!(fast.find(&hay), vm.find(&hay), "{ctx}");
            let all = |re: &Regex| re.find_iter(&hay).collect::<Vec<_>>();
            assert_eq!(all(&fast), all(&vm), "{ctx}");
        }
    });
}
