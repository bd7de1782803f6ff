//! The vocabulary / feature space (§3.2).
//!
//! The paper: "We have used 100'000 dimensional feature space, i.e. 100K
//! English terms in our vocabulary that we have selected by taking all
//! terms from our datasets, sorting by frequency and cutting off the noise
//! words and spam." This module implements exactly that selection: count
//! term frequencies across documents, drop stopwords and spam-like terms,
//! sort by frequency (descending, ties broken lexicographically for
//! determinism) and keep the top `max_terms`.
//!
//! The resulting [`Vocabulary`] maps terms to dense feature ids used by
//! the SVM feature vectors and the embedding tables.

use crate::stopwords::is_stopword;
use std::collections::HashMap;

/// Accumulates term statistics across a corpus.
#[derive(Debug, Default)]
pub struct VocabularyBuilder {
    /// term -> (collection frequency, document frequency)
    counts: HashMap<String, (u64, u64)>,
    docs: u64,
}

impl VocabularyBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one document's tokens (already lowercased).
    pub fn add_document<'a, I: IntoIterator<Item = &'a str>>(&mut self, tokens: I) {
        self.docs += 1;
        let mut seen_in_doc: HashMap<&str, ()> = HashMap::new();
        for tok in tokens {
            let entry = match self.counts.get_mut(tok) {
                Some(e) => e,
                None => self.counts.entry(tok.to_string()).or_insert((0, 0)),
            };
            entry.0 += 1;
            if seen_in_doc.insert(tok, ()).is_none() {
                entry.1 += 1;
            }
        }
    }

    /// Number of documents added so far.
    pub fn document_count(&self) -> u64 {
        self.docs
    }

    /// Finalize into a [`Vocabulary`] of at most `max_terms` dimensions.
    ///
    /// Selection per §3.2: drop stopwords ("noise words") and spam-like
    /// terms, then keep the `max_terms` most frequent terms.
    pub fn build(self, max_terms: usize) -> Vocabulary {
        let mut terms: Vec<(String, u64, u64)> = self
            .counts
            .into_iter()
            .filter(|(t, _)| !is_stopword(t) && !is_spam_term(t))
            .map(|(t, (cf, df))| (t, cf, df))
            .collect();
        // Frequency-descending, then lexicographic for determinism.
        terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        terms.truncate(max_terms);

        let mut index = HashMap::with_capacity(terms.len());
        let mut entries = Vec::with_capacity(terms.len());
        for (id, (term, cf, df)) in terms.into_iter().enumerate() {
            index.insert(term.clone(), id as u32);
            entries.push(TermEntry {
                term,
                collection_freq: cf,
                doc_freq: df,
            });
        }
        Vocabulary {
            index,
            entries,
            docs: self.docs,
        }
    }
}

/// Spam / junk heuristics: pure punctuation runs, very long tokens and
/// tokens that are mostly digits mixed with letters (e.g. tracking ids).
/// Mirrors the "spam classifier for web tables" cutoff the paper cites
/// ([78]) at the level of detail the paper gives.
fn is_spam_term(term: &str) -> bool {
    if term.len() > 32 || term.is_empty() {
        return true;
    }
    let digits = term.chars().filter(|c| c.is_ascii_digit()).count();
    let letters = term.chars().filter(|c| c.is_alphabetic()).count();
    // Mixed alphanumeric junk like "x7f9q2": many digits and letters
    // interleaved in a single token longer than a typical model number.
    if digits >= 3 && letters >= 3 && term.len() >= 8 {
        let transitions = term
            .as_bytes()
            .windows(2)
            .filter(|w| w[0].is_ascii_digit() != w[1].is_ascii_digit())
            .count();
        if transitions >= 4 {
            return true;
        }
    }
    false
}

/// One selected vocabulary term with its corpus statistics.
#[derive(Debug, Clone)]
pub struct TermEntry {
    /// The term text.
    pub term: String,
    /// Total occurrences across the corpus.
    pub collection_freq: u64,
    /// Number of documents containing the term.
    pub doc_freq: u64,
}

/// A frozen term → feature-id mapping (the feature space of §3.2).
#[derive(Debug, Clone)]
pub struct Vocabulary {
    index: HashMap<String, u32>,
    entries: Vec<TermEntry>,
    docs: u64,
}

impl Vocabulary {
    /// Feature id for a term, if in the vocabulary.
    pub fn id(&self, term: &str) -> Option<u32> {
        self.index.get(term).copied()
    }

    /// Term for a feature id.
    pub fn term(&self, id: u32) -> Option<&str> {
        self.entries.get(id as usize).map(|e| e.term.as_str())
    }

    /// Entry (term + stats) for a feature id.
    pub fn entry(&self, id: u32) -> Option<&TermEntry> {
        self.entries.get(id as usize)
    }

    /// Dimensionality of the feature space.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no terms were selected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of documents the statistics were computed over.
    pub fn document_count(&self) -> u64 {
        self.docs
    }

    /// Inverse document frequency of a term id:
    /// `ln((1 + N) / (1 + df)) + 1` (smoothed, always positive).
    pub fn idf(&self, id: u32) -> f64 {
        let df = self
            .entries
            .get(id as usize)
            .map_or(0, |e| e.doc_freq);
        (((1 + self.docs) as f64) / ((1 + df) as f64)).ln() + 1.0
    }

    /// Iterate `(id, entry)` pairs in frequency order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &TermEntry)> {
        self.entries.iter().enumerate().map(|(i, e)| (i as u32, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(docs: &[&str], max: usize) -> Vocabulary {
        let mut b = VocabularyBuilder::new();
        for d in docs {
            let toks = crate::tokenize_lower(d);
            b.add_document(toks.iter().map(String::as_str));
        }
        b.build(max)
    }

    #[test]
    fn frequency_ordering() {
        let v = build(
            &["vaccine vaccine vaccine mask mask dose", "vaccine mask"],
            10,
        );
        assert_eq!(v.term(0), Some("vaccine"));
        assert_eq!(v.term(1), Some("mask"));
        assert_eq!(v.term(2), Some("dose"));
    }

    #[test]
    fn stopwords_are_cut() {
        let v = build(&["the the the the vaccine"], 10);
        assert_eq!(v.id("the"), None);
        assert!(v.id("vaccine").is_some());
    }

    #[test]
    fn max_terms_caps_dimensionality() {
        let v = build(&["a1 b1 c1 d1 e1 f1 g1 h1"], 3);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let v = build(&["mask mask mask", "mask vaccine"], 10);
        let id = v.id("mask").unwrap();
        let e = v.entry(id).unwrap();
        assert_eq!(e.collection_freq, 4);
        assert_eq!(e.doc_freq, 2);
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let v = build(&["common rare", "common", "common"], 10);
        let common = v.id("common").unwrap();
        let rare = v.id("rare").unwrap();
        assert!(v.idf(rare) > v.idf(common));
        assert!(v.idf(common) >= 1.0);
    }

    #[test]
    fn spam_terms_are_cut() {
        assert!(is_spam_term("x7f9q2ab1c3"));
        assert!(is_spam_term(&"a".repeat(40)));
        assert!(!is_spam_term("covid-19"));
        assert!(!is_spam_term("sars-cov-2"));
        assert!(!is_spam_term("ventilator"));
    }

    #[test]
    fn deterministic_tie_break() {
        let v1 = build(&["zeta alpha"], 10);
        let v2 = build(&["alpha zeta"], 10);
        assert_eq!(v1.term(0), v2.term(0));
        assert_eq!(v1.term(0), Some("alpha"));
    }

    #[test]
    fn unknown_terms_have_no_id() {
        let v = build(&["mask"], 10);
        assert_eq!(v.id("zzz"), None);
        assert_eq!(v.term(99), None);
    }
}
