#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # covidkg-tables
//!
//! Table handling for the COVIDKG metadata-classification pipeline (§3):
//!
//! * [`html`] — "an additional HTML table parser and post-processor that
//!   takes raw HTML fragments from CORD-19 and converts them to
//!   semi-structured, clean JSON" (§3.1);
//! * [`preprocess`] — the ordered numeric substitutions of §3.4
//!   (ZERO / RANGE / NEG / SMALLPOS / FLOAT / INT / PERCENT / DATE /
//!   LESS / GREATER / unit keywords);
//! * [`features`] — the 7 positional features {f1…f7} of §3.5 fed to the
//!   SVM, plus horizontal/vertical orientation detection (§3.3 reports
//!   results "depending on whether the classified metadata is horizontal
//!   or vertical").

pub mod features;
pub mod html;
pub mod preprocess;

pub use features::{detect_orientation, row_features, Orientation, RowFeatures};
pub use html::{parse_tables, CleanTable, HtmlParseError};
pub use preprocess::{preprocess_cell, preprocess_row, Preprocessor};
