#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-regex
//!
//! A small regular-expression engine built on a Thompson NFA executed by a
//! Pike-style virtual machine (linear time in `input × program` — no
//! exponential backtracking, so the store can safely run user-supplied
//! `$regex` queries from the search front-end).
//!
//! The COVIDKG paper uses regular expressions in two places, both covered by
//! this engine:
//!
//! * §2.1 — the `$match` stage performs "text-based search through regular
//!   expressions that are stemmed from the root users searched terms";
//! * §3.4 — the numeric pre-processor encodes numbers/ranges/dates/units via
//!   ordered regular-expression substitutions.
//!
//! Supported syntax: literals, `.`, classes `[a-z0-9_]` / `[^…]`, escapes
//! `\d \D \w \W \s \S \b \B` and punctuation escapes, groups `(…)`,
//! alternation `|`, repetition `* + ? {m} {m,} {m,n}` (greedy and lazy `?`
//! suffix), anchors `^ $`. Matching is leftmost-first (like Perl/RE2 thread
//! priority). Case-insensitive matching is available via [`Regex::new_ci`].

mod ast;
mod compile;
mod literal;
mod vm;

pub use ast::ParseError;

use compile::Program;
use literal::Literal;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
    /// Set when the whole pattern is one literal: searches then skip the
    /// VM (same matches, see the `literal` module).
    literal: Option<Literal>,
}

/// A single match: byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Byte offset of the first matched character.
    pub start: usize,
    /// Byte offset one past the last matched character.
    pub end: usize,
}

impl Match {
    /// The matched slice of `haystack`.
    pub fn as_str<'h>(&self, haystack: &'h str) -> &'h str {
        &haystack[self.start..self.end]
    }
}

impl Regex {
    /// Compile a pattern (case-sensitive).
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        Self::with_case(pattern, false)
    }

    /// Compile a pattern with case-insensitive matching.
    pub fn new_ci(pattern: &str) -> Result<Regex, ParseError> {
        Self::with_case(pattern, true)
    }

    fn with_case(pattern: &str, ci: bool) -> Result<Regex, ParseError> {
        let ast = ast::parse(pattern)?;
        let program = compile::compile(&ast, ci);
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
            literal: Literal::of(&ast, ci),
        })
    }

    /// Leftmost match in `haystack[from..]`.
    fn search(&self, haystack: &str, from: usize) -> Option<Match> {
        match &self.literal {
            Some(literal) => literal.search(haystack, from),
            None => vm::search(&self.program, haystack, from),
        }
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Does the pattern match anywhere in `haystack`?
    pub fn is_match(&self, haystack: &str) -> bool {
        self.search(haystack, 0).is_some()
    }

    /// Leftmost match, if any.
    pub fn find(&self, haystack: &str) -> Option<Match> {
        self.search(haystack, 0)
    }

    /// Iterator over non-overlapping matches, left to right.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h str) -> FindIter<'r, 'h> {
        FindIter {
            re: self,
            haystack,
            at: 0,
        }
    }

    /// Replace every non-overlapping match with `replacement` (literal, no
    /// capture interpolation — the pre-processor never needs it).
    pub fn replace_all(&self, haystack: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(haystack.len());
        let mut last = 0;
        for m in self.find_iter(haystack) {
            out.push_str(&haystack[last..m.start]);
            out.push_str(replacement);
            last = m.end;
        }
        out.push_str(&haystack[last..]);
        out
    }

    /// Replace every match using a closure over the matched text.
    pub fn replace_all_with<F>(&self, haystack: &str, mut f: F) -> String
    where
        F: FnMut(&str) -> String,
    {
        let mut out = String::with_capacity(haystack.len());
        let mut last = 0;
        for m in self.find_iter(haystack) {
            out.push_str(&haystack[last..m.start]);
            out.push_str(&f(m.as_str(haystack)));
            last = m.end;
        }
        out.push_str(&haystack[last..]);
        out
    }

    /// Split `haystack` around matches.
    pub fn split<'h>(&self, haystack: &'h str) -> Vec<&'h str> {
        let mut out = Vec::new();
        let mut last = 0;
        for m in self.find_iter(haystack) {
            out.push(&haystack[last..m.start]);
            last = m.end;
        }
        out.push(&haystack[last..]);
        out
    }
}

/// Escape a literal string so it matches itself when compiled.
pub fn escape(literal: &str) -> String {
    let mut out = String::with_capacity(literal.len());
    for ch in literal.chars() {
        if "\\.+*?()|[]{}^$".contains(ch) {
            out.push('\\');
        }
        out.push(ch);
    }
    out
}

/// Iterator over non-overlapping matches. See [`Regex::find_iter`].
pub struct FindIter<'r, 'h> {
    re: &'r Regex,
    haystack: &'h str,
    at: usize,
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.at > self.haystack.len() {
            return None;
        }
        let m = self.re.search(self.haystack, self.at)?;
        // Advance past the match; for empty matches step one char to
        // guarantee progress.
        self.at = if m.end == m.start {
            next_char_boundary(self.haystack, m.end)
        } else {
            m.end
        };
        Some(m)
    }
}

fn next_char_boundary(s: &str, at: usize) -> usize {
    if at >= s.len() {
        return s.len() + 1;
    }
    let mut next = at + 1;
    while next < s.len() && !s.is_char_boundary(next) {
        next += 1;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(re: &Regex, hay: &str) -> Vec<String> {
        re.find_iter(hay).map(|m| m.as_str(hay).to_string()).collect()
    }

    #[test]
    fn literal_match() {
        let re = Regex::new("mask").unwrap();
        assert!(re.is_match("face masks work"));
        assert!(!re.is_match("vaccine"));
        let m = re.find("face masks").unwrap();
        assert_eq!((m.start, m.end), (5, 9));
    }

    #[test]
    fn alternation_and_groups() {
        let re = Regex::new("(covid|corona)(virus)?").unwrap();
        assert_eq!(all(&re, "covid coronavirus"), ["covid", "coronavirus"]);
    }

    #[test]
    fn repetition_operators() {
        let re = Regex::new("ab*c").unwrap();
        assert!(re.is_match("ac"));
        assert!(re.is_match("abbbc"));
        let re = Regex::new("ab+c").unwrap();
        assert!(!re.is_match("ac"));
        assert!(re.is_match("abc"));
        let re = Regex::new("ab?c").unwrap();
        assert!(re.is_match("ac"));
        assert!(re.is_match("abc"));
        assert!(!re.is_match("abbc"));
    }

    #[test]
    fn counted_repetition() {
        let re = Regex::new("a{3}").unwrap();
        assert!(re.is_match("aaa"));
        assert!(!re.is_match("aa"));
        let re = Regex::new("^a{2,4}$").unwrap();
        assert!(re.is_match("aa"));
        assert!(re.is_match("aaaa"));
        assert!(!re.is_match("aaaaa"));
        assert!(!re.is_match("a"));
        let re = Regex::new("^a{2,}$").unwrap();
        assert!(re.is_match("aaaaaa"));
        assert!(!re.is_match("a"));
    }

    #[test]
    fn classes_and_escapes() {
        let re = Regex::new(r"\d+\.\d+").unwrap();
        assert_eq!(all(&re, "pH 7.4 at 37.0C"), ["7.4", "37.0"]);
        let re = Regex::new(r"[A-Za-z_]\w*").unwrap();
        assert_eq!(all(&re, "x1 _y2"), ["x1", "_y2"]);
        let re = Regex::new(r"[^aeiou ]+").unwrap();
        assert_eq!(all(&re, "dose one"), ["d", "s", "n"]);
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^covid$").unwrap();
        assert!(re.is_match("covid"));
        assert!(!re.is_match(" covid"));
        assert!(!re.is_match("covid "));
    }

    #[test]
    fn word_boundaries() {
        let re = Regex::new(r"\bmask\b").unwrap();
        assert!(re.is_match("wear a mask now"));
        assert!(!re.is_match("unmasked"));
        let re = Regex::new(r"\Bask\B").unwrap();
        assert!(re.is_match("unmasked"));
        assert!(!re.is_match("ask"));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("abc"));
        assert!(re.is_match("a-c"));
        assert!(!re.is_match("a\nc"));
    }

    #[test]
    fn case_insensitive() {
        let re = Regex::new_ci("covid-19").unwrap();
        assert!(re.is_match("COVID-19 findings"));
        assert!(re.is_match("CoViD-19"));
        assert!(!Regex::new("covid-19").unwrap().is_match("COVID-19"));
    }

    #[test]
    fn replace_all_literal() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.replace_all("5-10 mg", "NUM"), "NUM-NUM mg");
    }

    #[test]
    fn replace_all_with_closure() {
        let re = Regex::new(r"\d+").unwrap();
        let out = re.replace_all_with("3 and 12", |m| format!("<{m}>"));
        assert_eq!(out, "<3> and <12>");
    }

    #[test]
    fn split_around_matches() {
        let re = Regex::new(r"\s*,\s*").unwrap();
        assert_eq!(re.split("a, b ,c"), ["a", "b", "c"]);
    }

    #[test]
    fn leftmost_first_semantics() {
        // Alternation prefers the earlier branch at the same start point.
        let re = Regex::new("a|ab").unwrap();
        assert_eq!(re.find("ab").map(|m| m.end), Some(1));
        // Greedy star takes the longest.
        let re = Regex::new("a*").unwrap();
        assert_eq!(re.find("aaa").map(|m| m.end), Some(3));
    }

    #[test]
    fn lazy_repetition() {
        let re = Regex::new("<.+?>").unwrap();
        assert_eq!(all(&re, "<a><b>"), ["<a>", "<b>"]);
        let greedy = Regex::new("<.+>").unwrap();
        assert_eq!(all(&greedy, "<a><b>"), ["<a><b>"]);
    }

    #[test]
    fn empty_match_iteration_terminates() {
        let re = Regex::new("x*").unwrap();
        let ms: Vec<_> = re.find_iter("ab").collect();
        // One empty match at each position: 0, 1, 2.
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn unicode_haystacks() {
        let re = Regex::new("médec.ne").unwrap();
        assert!(re.is_match("la médecine moderne"));
        let re = Regex::new(".").unwrap();
        assert_eq!(all(&re, "é漢"), ["é", "漢"]);
    }

    #[test]
    fn escape_produces_literal_pattern() {
        let special = "a.b*c?(d)[e]{f}|g^h$i\\j";
        let re = Regex::new(&escape(special)).unwrap();
        assert!(re.is_match(special));
        assert!(!re.is_match("axb"));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["(", ")", "[", "a{2,1}", "*", "a\\", "[z-a]"] {
            assert!(Regex::new(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // Classic exponential-backtracking killer: (a+)+b against aaaa…c.
        let re = Regex::new("(a+)+b").unwrap();
        let hay = "a".repeat(2_000) + "c";
        let start = std::time::Instant::now();
        assert!(!re.is_match(&hay));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "Pike VM must stay linear"
        );
    }

    #[test]
    fn class_ranges_with_dash_literal() {
        let re = Regex::new(r"[a\-z]+").unwrap();
        assert!(re.is_match("a-z"));
        assert!(!re.is_match("b"));
        let re = Regex::new("[-az]+").unwrap(); // leading dash is literal
        assert_eq!(all(&re, "a-z"), ["a-z"]);
    }

    #[test]
    fn negated_class_allows_newline_unless_listed() {
        let re = Regex::new("[^a]").unwrap();
        assert!(re.is_match("\n"));
    }

    #[test]
    fn braces_without_quantifier_are_literal() {
        let re = Regex::new("a{x}").unwrap();
        assert!(re.is_match("a{x}"));
    }
}
