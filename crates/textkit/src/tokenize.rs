//! Word tokenization with byte spans.
//!
//! A token is a maximal run of alphanumeric characters, possibly joined by
//! single internal hyphens or apostrophes ("covid-19", "sars-cov-2",
//! "patient's"). Spans are byte offsets into the original text so the
//! search result renderer can highlight matches in place (Figs 2 & 4).

/// A single token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text as it appears in the source.
    pub text: String,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// Iterator over the byte spans `(start, end)` of the tokens of a text,
/// in order. Borrowing and allocation-free: the result renderer turns
/// the index's token positions back into highlight spans with it, and
/// [`tokenize`] is built on it so the two can never disagree.
#[derive(Debug, Clone)]
pub struct TokenSpans<'t> {
    chars: std::iter::Peekable<std::str::CharIndices<'t>>,
}

/// The token spans of `text` (see [`TokenSpans`]).
pub fn token_spans(text: &str) -> TokenSpans<'_> {
    TokenSpans {
        chars: text.char_indices().peekable(),
    }
}

impl Iterator for TokenSpans<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let start = loop {
            let &(i, c) = self.chars.peek()?;
            if c.is_alphanumeric() {
                break i;
            }
            self.chars.next();
        };
        let mut end = start;
        let mut last_was_joiner = false;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_alphanumeric() {
                end = i + c.len_utf8();
                last_was_joiner = false;
                self.chars.next();
            } else if (c == '-' || c == '\'' || c == '’') && !last_was_joiner {
                // A joiner is only kept if followed by an alphanumeric; we
                // tentatively consume it and roll back `end` otherwise.
                last_was_joiner = true;
                self.chars.next();
            } else {
                break;
            }
        }
        Some((start, end))
    }
}

/// Tokenize `text` into words with spans.
pub fn tokenize(text: &str) -> Vec<Token> {
    token_spans(text)
        .map(|(start, end)| Token {
            text: text[start..end].to_string(),
            start,
            end,
        })
        .collect()
}

/// Tokenize and lowercase, returning only the token strings. This is the
/// common indexing path (vocabulary building, TF-IDF, query parsing).
pub fn tokenize_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .map(|t| t.text.to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(text: &str) -> Vec<String> {
        tokenize(text).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(texts("masks, ventilators; doses."), ["masks", "ventilators", "doses"]);
    }

    #[test]
    fn keeps_internal_hyphens() {
        assert_eq!(texts("COVID-19 and SARS-CoV-2"), ["COVID-19", "and", "SARS-CoV-2"]);
    }

    #[test]
    fn trailing_hyphen_is_not_part_of_token() {
        assert_eq!(texts("dose- escalation"), ["dose", "escalation"]);
        assert_eq!(texts("end-"), ["end"]);
    }

    #[test]
    fn double_hyphen_splits() {
        assert_eq!(texts("a--b"), ["a", "b"]);
    }

    #[test]
    fn apostrophes_join() {
        assert_eq!(texts("patient's recovery"), ["patient's", "recovery"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(texts("5-10 mg of 0.5%"), ["5-10", "mg", "of", "0", "5"]);
    }

    #[test]
    fn spans_are_byte_accurate() {
        let text = "é covid";
        let toks = tokenize(text);
        assert_eq!(toks.len(), 2);
        assert_eq!(&text[toks[1].start..toks[1].end], "covid");
    }

    #[test]
    fn token_spans_are_the_tokens_spans() {
        for text in ["COVID-19 and SARS-CoV-2", "dose- escalation a--b end-", "é patient’s 0.5%", ""] {
            let spans: Vec<(usize, usize)> = token_spans(text).collect();
            let tokens: Vec<(usize, usize)> =
                tokenize(text).iter().map(|t| (t.start, t.end)).collect();
            assert_eq!(spans, tokens, "{text:?}");
        }
        assert_eq!(token_spans("mask use").nth(1), Some((5, 8)));
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!?.,;:()").is_empty());
    }

    #[test]
    fn lowercasing() {
        assert_eq!(tokenize_lower("Pfizer BioNTech"), ["pfizer", "biontech"]);
    }

    #[test]
    fn unicode_words() {
        assert_eq!(texts("médecine générale"), ["médecine", "générale"]);
    }
}
