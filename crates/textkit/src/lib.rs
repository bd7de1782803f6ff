#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-text
//!
//! Text-processing substrate for the COVIDKG reproduction:
//!
//! * [`tokenize`] — word tokenization with byte spans (needed for snippet
//!   highlighting in the search result pages, Figs 2 & 4 of the paper);
//! * [`stem`] — the Porter stemming algorithm, used for the "stemming match
//!   capability on a tokenized query" (§2.1);
//! * [`stopwords`] — the noise-word list used when building the feature
//!   space (§3.2 "cutting off the noise words and spam");
//! * [`vocab`] — the frequency-sorted vocabulary / feature space (§3.2:
//!   100k-dimensional in the paper, configurable here);
//! * [`tfidf`] — Term Frequency–Inverse Document Frequency weighting
//!   (Sparck Jones [53]) used by the ranking function (§2.1);
//! * [`normalize`] — normalized NLP term matching used during KG fusion
//!   (§4.2), plus Levenshtein distance;
//! * [`synonyms`] — curated medical synonym groups for the ranking
//!   function's synonym matching (§5);
//! * [`snippet`] — excerpt extraction with highlight spans for result pages.

pub mod normalize;
pub mod snippet;
pub mod stem;
pub mod stopwords;
pub mod synonyms;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use normalize::{levenshtein, normalize_term, term_match, NormalizedTerm};
pub use snippet::{make_snippet, Snippet};
pub use stem::stem;
pub use stopwords::is_stopword;
pub use synonyms::{are_synonyms, synonym_stems};
pub use tfidf::{SparseVec, TfIdf};
pub use tokenize::{token_spans, tokenize, tokenize_lower, Token, TokenSpans};
pub use vocab::{Vocabulary, VocabularyBuilder};
