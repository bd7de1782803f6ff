//! Substring search for patterns that are one plain literal.
//!
//! The search front-end turns every quoted phrase into
//! `Regex::new_ci(&escape(phrase))` and runs it over each string leaf of
//! each candidate document; a pattern that is only literal characters
//! needs no NFA. Case-insensitive matching folds ASCII letters on both
//! sides, exactly as the VM does (`compile` lowercases pattern literals,
//! `vm::search` lowercases input characters, both with
//! `to_ascii_lowercase`). ASCII folding never touches a byte ≥ 0x80, so
//! the comparison runs on bytes, and an occurrence always starts and ends
//! on a character boundary because the needle is whole characters.

use crate::ast::Ast;
use crate::Match;

/// A non-empty literal needle.
#[derive(Debug, Clone)]
pub(crate) struct Literal {
    /// The needle's bytes, ASCII-lowercased when `ci`.
    needle: Vec<u8>,
    ci: bool,
}

impl Literal {
    /// The literal an AST spells, if it is nothing but literal characters.
    pub(crate) fn of(ast: &Ast, ci: bool) -> Option<Literal> {
        let mut needle = String::new();
        match ast {
            Ast::Literal(c) => needle.push(*c),
            Ast::Concat(parts) => {
                for part in parts {
                    let Ast::Literal(c) = part else { return None };
                    needle.push(*c);
                }
            }
            _ => return None,
        }
        if needle.is_empty() {
            return None;
        }
        if ci {
            needle.make_ascii_lowercase();
        }
        Some(Literal {
            needle: needle.into_bytes(),
            ci,
        })
    }

    /// Leftmost occurrence in `haystack[from..]`.
    pub(crate) fn search(&self, haystack: &str, from: usize) -> Option<Match> {
        let hay = &haystack.as_bytes()[from..];
        let n = self.needle.len();
        let at = if self.ci {
            let (first, rest) = self.needle.split_first()?;
            let last_start = hay.len().checked_sub(n)?;
            (0..=last_start).find(|&i| {
                hay[i].to_ascii_lowercase() == *first
                    && hay[i + 1..i + n]
                        .iter()
                        .zip(rest)
                        .all(|(h, n)| h.to_ascii_lowercase() == *n)
            })?
        } else {
            hay.windows(n).position(|w| w == self.needle)?
        };
        Some(Match {
            start: from + at,
            end: from + at + n,
        })
    }
}
