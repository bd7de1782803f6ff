//! Result pages (Figs 2 & 4).
//!
//! "Once the aggregation is finished the results are paginated as a list
//! of ten per page displaying brief snippets of the document and access
//! to the full text." Each result carries per-field snippets with
//! highlight spans; the renderer marks matches the way the screenshots
//! show them in red.

use crate::rank::{collect_strings, Ranker};
use crate::render_cache::CachedRender;
use covidkg_json::{write_number, write_string, Number, Value};
use covidkg_store::index::{IndexReader, Posting};
use covidkg_text::{make_snippet, Snippet};

/// A snippet of one field of a matching document.
#[derive(Debug, Clone)]
pub struct FieldSnippet {
    /// Field label ("title", "abstract", "table", …).
    pub field: String,
    /// The excerpt with highlights.
    pub snippet: Snippet,
}

/// One ranked search result.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Document `_id` (access to the full text).
    pub id: String,
    /// Title (highlighted separately in the UI).
    pub title: String,
    /// Ranking score.
    pub score: f64,
    /// Field snippets shown in the brief view, most important first.
    pub snippets: Vec<FieldSnippet>,
    /// Further matching snippets, collapsed by default — the Figs 2/4
    /// interface "allows the user to expand and collapse appropriately".
    pub collapsed: Vec<FieldSnippet>,
}

/// A page of results.
#[derive(Debug, Clone)]
pub struct SearchPage {
    /// The raw query text.
    pub query: String,
    /// 0-based page number.
    pub page: usize,
    /// Results per page (10 in the paper).
    pub page_size: usize,
    /// Total matching documents across all pages.
    pub total: usize,
    /// This page's results.
    pub results: Vec<SearchResult>,
}

impl SearchPage {
    /// Number of pages available.
    pub fn page_count(&self) -> usize {
        self.total.div_ceil(self.page_size.max(1))
    }

    /// Canonical JSON encoding of the page. The body the `covidkg-net`
    /// HTTP front-end serves is [`SearchPage::to_body`], which writes the
    /// same bytes without building this tree and is held to
    /// `page.to_json().to_json()` byte for byte.
    pub fn to_json(&self) -> Value {
        fn snippet_json(fs: &FieldSnippet) -> Value {
            covidkg_json::obj! {
                "field" => fs.field.as_str(),
                "text" => fs.snippet.text.as_str(),
                "highlights" => Value::Array(
                    fs.snippet
                        .highlights
                        .iter()
                        .map(|&(s, e)| Value::Array(vec![Value::from(s), Value::from(e)]))
                        .collect(),
                ),
                "leading_ellipsis" => fs.snippet.leading_ellipsis,
                "trailing_ellipsis" => fs.snippet.trailing_ellipsis,
            }
        }
        covidkg_json::obj! {
            "query" => self.query.as_str(),
            "page" => self.page,
            "page_size" => self.page_size,
            "total" => self.total,
            "page_count" => self.page_count(),
            "results" => Value::Array(
                self.results
                    .iter()
                    .map(|r| covidkg_json::obj! {
                        "id" => r.id.as_str(),
                        "title" => r.title.as_str(),
                        "score" => r.score,
                        "snippets" => Value::Array(
                            r.snippets.iter().map(snippet_json).collect(),
                        ),
                        "collapsed" => Value::Array(
                            r.collapsed.iter().map(snippet_json).collect(),
                        ),
                    })
                    .collect(),
            ),
        }
    }

    /// The page's wire body: [`SearchPage::to_json`] serialized, written
    /// straight into one `String` sized up front (`to_json().to_json()`
    /// is its byte-for-byte oracle), with the byte range of its one
    /// request-dependent part — the string literal (quotes included) of
    /// the echoed `query`, the first member — recorded as it is written.
    /// Requests that share a cache key share every byte outside that
    /// range.
    pub fn to_body(&self) -> (String, std::ops::Range<usize>) {
        let mut out = String::with_capacity(self.body_capacity());
        out.push_str("{\"query\":");
        let start = out.len();
        write_string(&self.query, &mut out);
        let echo = start..out.len();
        for (name, n) in [
            (",\"page\":", self.page),
            (",\"page_size\":", self.page_size),
            (",\"total\":", self.total),
            (",\"page_count\":", self.page_count()),
        ] {
            out.push_str(name);
            write_usize(n, &mut out);
        }
        out.push_str(",\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            write_string(&r.id, &mut out);
            out.push_str(",\"title\":");
            write_string(&r.title, &mut out);
            out.push_str(",\"score\":");
            write_number(Number::Float(r.score), &mut out);
            out.push_str(",\"snippets\":");
            write_snippets(&r.snippets, &mut out);
            out.push_str(",\"collapsed\":");
            write_snippets(&r.collapsed, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        (out, echo)
    }

    /// What [`SearchPage::to_body`] reserves: every string's unescaped
    /// length plus, per page, result, snippet and highlight, at least its
    /// member names, punctuation and numbers at their longest integer
    /// (20 bytes) and a typical score (24) — so the body grows only for
    /// escapes beyond that slack or a score printed longer.
    fn body_capacity(&self) -> usize {
        let snippet = |fs: &FieldSnippet| {
            96 + fs.field.len() + fs.snippet.text.len() + 44 * fs.snippet.highlights.len()
        };
        let result = |r: &SearchResult| {
            let snippets: usize = r.snippets.iter().chain(&r.collapsed).map(snippet).sum();
            96 + r.id.len() + r.title.len() + snippets
        };
        160 + self.query.len() + self.results.iter().map(result).sum::<usize>()
    }

    /// `query` as the JSON string literal [`SearchPage::to_body`] would
    /// have written for it: what a reply sends over the recorded range
    /// when it echoes another spelling than the body was computed for.
    pub fn query_literal(query: &str) -> Box<str> {
        let mut literal = String::with_capacity(query.len() + 2);
        write_string(query, &mut literal);
        literal.into_boxed_str()
    }

    /// Render the page as text (the CLI stand-in for the Figs 2/4 UI),
    /// with `[matches]` marked. Collapsed sections show a summary line.
    pub fn render(&self) -> String {
        self.render_inner(false)
    }

    /// Render with every collapsed section expanded.
    pub fn render_expanded(&self) -> String {
        self.render_inner(true)
    }

    fn render_inner(&self, expanded: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "results for {:?} — page {}/{} ({} matches)",
            self.query,
            self.page.saturating_add(1),
            self.page_count().max(1),
            self.total
        );
        for (i, r) in self.results.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>2}. {}  (score {:.2}, id {})",
                self.page.saturating_mul(self.page_size).saturating_add(i + 1),
                r.title,
                r.score,
                r.id
            );
            for fs in &r.snippets {
                let _ = writeln!(out, "      {}: {}", fs.field, fs.snippet.render_marked());
            }
            if expanded {
                for fs in &r.collapsed {
                    let _ = writeln!(out, "      {}: {}", fs.field, fs.snippet.render_marked());
                }
            } else if !r.collapsed.is_empty() {
                let _ = writeln!(out, "      ▸ {} more matching sections", r.collapsed.len());
            }
        }
        out
    }
}

/// A `usize` member as [`SearchPage::to_json`] converts it: through
/// `i64`, as `Value::from(usize)` does.
fn write_usize(n: usize, out: &mut String) {
    write_number(Number::Int(n as i64), out);
}

/// A snippet array as [`SearchPage::to_json`] builds it.
fn write_snippets(snippets: &[FieldSnippet], out: &mut String) {
    out.push('[');
    for (i, fs) in snippets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"field\":");
        write_string(&fs.field, out);
        out.push_str(",\"text\":");
        write_string(&fs.snippet.text, out);
        out.push_str(",\"highlights\":[");
        for (j, &(s, e)) in fs.snippet.highlights.iter().enumerate() {
            out.push_str(if j > 0 { ",[" } else { "[" });
            write_usize(s, out);
            out.push(',');
            write_usize(e, out);
            out.push(']');
        }
        out.push(']');
        for (name, flag) in [
            (",\"leading_ellipsis\":", fs.snippet.leading_ellipsis),
            (",\"trailing_ellipsis\":", fs.snippet.trailing_ellipsis),
        ] {
            out.push_str(name);
            out.push_str(if flag { "true" } else { "false" });
        }
        out.push('}');
    }
    out.push(']');
}

/// Snippet window width in bytes.
const SNIPPET_WINDOW: usize = 160;

/// The fields a result renders — the ones the all-fields engine searches
/// — in display (and rank-weight) order, with their snippet labels.
pub(crate) const RENDERED_FIELDS: [(&str, &str); 5] = [
    ("title", "title"),
    ("abstract", "abstract"),
    ("tables", "table"),
    ("figure_captions", "figure"),
    ("body", "body"),
];

/// A string leaf's ordinal within its field (depth-first) and the spans
/// to highlight in it.
type LeafSpans = (usize, Vec<(usize, usize)>);

/// Build a [`SearchResult`] from a ranked document, extracting snippets
/// for every field that has query matches. Every string leaf of `doc`'s
/// rendered fields is tokenized and stemmed to find them — the reference
/// [`render_indexed`] is held against, and the renderer for collections
/// whose index does not cover the ranked fields.
pub fn build_result(doc: &Value, score: f64, ranker: &Ranker) -> SearchResult {
    let id = doc.get("_id").and_then(Value::as_str).unwrap_or("<missing id>");
    let render = render(doc, |_| true, |_, texts| tokenized_spans(ranker, texts));
    render.into_result(id, score)
}

/// [`build_result`]'s score-free part, restricted to `fields` and guided
/// by the index: a document's postings for the query's stems and synonym
/// stems (`postings`, one slice per stem) already name the leaves that
/// match and the token positions inside them, so only those leaves are
/// visited, nothing is stemmed, and a field the postings never touch is
/// not walked at all. Exact phrases are not indexed; a query that has
/// some still looks for them in every leaf. A field the index does not
/// cover, or whose postings no longer fit the document, is rendered by
/// tokenizing, as in [`build_result`].
pub(crate) fn render_indexed(
    doc: &Value,
    ranker: &Ranker,
    fields: &[String],
    index: &IndexReader<'_>,
    postings: &[&[Posting]],
) -> CachedRender {
    let touched = |field: &str| match index.field_id(field) {
        Some(fid) if !ranker.has_phrases() => {
            postings.iter().flat_map(|p| p.iter()).any(|p| p.field == fid)
        }
        _ => true,
    };
    render(
        doc,
        |field| fields.iter().any(|f| f == field) && touched(field),
        |field, texts| {
            index
                .field_id(field)
                .and_then(|fid| indexed_spans(ranker, texts, fid, postings))
                .unwrap_or_else(|| tokenized_spans(ranker, texts))
        },
    )
}

/// Assemble a render from each rendered field that `visit` admits and its
/// matching leaves, which `leaf_spans(field, leaves)` lists in ascending
/// leaf order.
fn render(
    doc: &Value,
    visit: impl Fn(&str) -> bool,
    mut leaf_spans: impl FnMut(&str, &[&str]) -> Vec<LeafSpans>,
) -> CachedRender {
    let title = doc
        .get("title")
        .and_then(Value::as_str)
        .unwrap_or("<untitled>")
        .to_string();
    let mut snippets = Vec::new();
    let mut collapsed = Vec::new();
    for (field, label) in RENDERED_FIELDS {
        if !visit(field) {
            continue;
        }
        let mut texts = Vec::new();
        collect_strings(doc.path(field), &mut texts);
        for (nth, (leaf, spans)) in leaf_spans(field, &texts).into_iter().enumerate() {
            let fs = FieldSnippet {
                field: label.to_string(),
                snippet: make_snippet(texts[leaf], &spans, SNIPPET_WINDOW),
            };
            // One snippet per field keeps the page "brief" like the UI;
            // further matches land in the collapsed section.
            if nth == 0 {
                snippets.push(fs);
            } else {
                collapsed.push(fs);
            }
        }
    }
    CachedRender {
        title,
        snippets,
        collapsed,
    }
}

impl CachedRender {
    /// The result for document `id` at `score`, with this render.
    pub(crate) fn into_result(self, id: &str, score: f64) -> SearchResult {
        SearchResult {
            id: id.to_string(),
            title: self.title,
            score,
            snippets: self.snippets,
            collapsed: self.collapsed,
        }
    }
}

/// The matching leaves among `texts`, found by tokenizing each.
fn tokenized_spans(ranker: &Ranker, texts: &[&str]) -> Vec<LeafSpans> {
    texts
        .iter()
        .enumerate()
        .map(|(leaf, text)| (leaf, ranker.match_spans(text)))
        .filter(|(_, spans)| !spans.is_empty())
        .collect()
}

/// The matching leaves among `texts` — field `fid`'s string leaves —
/// from the document's postings. `None` when the postings name a leaf or
/// a token the field does not have.
fn indexed_spans(
    ranker: &Ranker,
    texts: &[&str],
    fid: u16,
    postings: &[&[Posting]],
) -> Option<Vec<LeafSpans>> {
    // Each stem's matches within the field, grouped by leaf. A token has
    // one stem, so positions never repeat across stems.
    let mut hits: Vec<(usize, &[u32])> = postings
        .iter()
        .flat_map(|stem| stem.iter())
        .filter(|p| p.field == fid)
        .map(|p| (p.leaf as usize, p.positions.as_slice()))
        .collect();
    hits.sort_by_key(|&(leaf, _)| leaf);
    let by_leaf = hits.chunk_by(|a, b| a.0 == b.0).map(|group| {
        let mut positions: Vec<u32> = group.iter().flat_map(|h| h.1).copied().collect();
        positions.sort_unstable();
        (group[0].0, positions)
    });
    let mut out = Vec::new();
    if ranker.has_phrases() {
        // A phrase can sit in a leaf no stem matched: visit them all.
        let mut by_leaf = by_leaf.peekable();
        for (leaf, text) in texts.iter().enumerate() {
            let positions = by_leaf.next_if(|(l, _)| *l == leaf).map_or(Vec::new(), |(_, p)| p);
            let spans = ranker.spans_at(text, &positions)?;
            if !spans.is_empty() {
                out.push((leaf, spans));
            }
        }
        if by_leaf.next().is_some() {
            return None;
        }
    } else {
        for (leaf, positions) in by_leaf {
            out.push((leaf, ranker.spans_at(texts.get(leaf)?, &positions)?));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::rank::RankWeights;
    use covidkg_json::{arr, obj};

    fn ranker(q: &str) -> Ranker {
        Ranker::new(parse_query(q), RankWeights::publication_default(), None, 10)
    }

    fn doc() -> Value {
        obj! {
            "_id" => "paper-7",
            "title" => "Mask mandates in schools",
            "abstract" => "We found masks reduce transmission substantially.",
            "body" => arr![ obj!{ "heading" => "Methods", "text" => "No relevant terms here." } ],
        }
    }

    /// The echo range is the query's literal whatever the query holds:
    /// quotes, backslashes, control characters, non-ASCII, nothing.
    #[test]
    fn the_echo_range_is_the_query_literal() {
        for query in [
            "",
            "plain",
            "\"exact phrase\"",
            "back\\slash \\\"",
            "\u{0}\u{1}\n\t\r\u{7f}",
            "é \u{1F637} \u{2028}",
        ] {
            let page = SearchPage {
                query: query.to_string(),
                page: 0,
                page_size: 10,
                total: 0,
                results: Vec::new(),
            };
            let (body, echo) = page.to_body();
            assert_eq!(body, page.to_json().to_json());
            assert_eq!(body[echo.clone()], *SearchPage::query_literal(query));
            let echoed = covidkg_json::parse(&body[echo]).unwrap();
            assert_eq!(echoed.as_str(), Some(query), "the range decodes to the query");
        }
    }

    #[test]
    fn result_includes_matching_field_snippets() {
        let r = ranker("masks");
        let result = build_result(&doc(), 5.0, &r);
        assert_eq!(result.id, "paper-7");
        let fields: Vec<&str> = result.snippets.iter().map(|s| s.field.as_str()).collect();
        assert!(fields.contains(&"title"));
        assert!(fields.contains(&"abstract"));
        assert!(!fields.contains(&"body"));
        let title_snip = &result.snippets[0];
        assert!(title_snip.snippet.render_marked().contains("[Mask]"));
    }

    #[test]
    fn page_renders_counts_and_highlights() {
        let r = ranker("masks");
        let page = SearchPage {
            query: "masks".into(),
            page: 0,
            page_size: 10,
            total: 23,
            results: vec![build_result(&doc(), 5.0, &r)],
        };
        assert_eq!(page.page_count(), 3);
        let text = page.render();
        assert!(text.contains("page 1/3"));
        assert!(text.contains("23 matches"));
        assert!(text.contains("[masks]"));
        assert!(text.contains("paper-7"));
        // The page number comes from the wire unbounded.
        let last = SearchPage { page: usize::MAX, ..page };
        assert!(last.render().contains(&format!("page {}/3", usize::MAX)));
    }

    #[test]
    fn extra_matches_collapse_and_expand() {
        let r = ranker("masks");
        let multi = obj! {
            "_id" => "p",
            "title" => "masks",
            "body" => arr![
                obj!{ "heading" => "A", "text" => "masks here" },
                obj!{ "heading" => "B", "text" => "more masks there" },
            ],
        };
        let result = build_result(&multi, 1.0, &r);
        // First body match is brief; the second collapses.
        assert_eq!(
            result.snippets.iter().filter(|s| s.field == "body").count(),
            1
        );
        assert_eq!(result.collapsed.len(), 1);
        let page = SearchPage {
            query: "masks".into(),
            page: 0,
            page_size: 10,
            total: 1,
            results: vec![result],
        };
        let brief = page.render();
        assert!(brief.contains("▸ 1 more matching sections"), "{brief}");
        assert!(!brief.contains("more [masks] there"));
        let full = page.render_expanded();
        assert!(full.contains("more [masks] there"), "{full}");
        assert!(!full.contains("▸"));
    }

    #[test]
    fn missing_fields_degrade_gracefully() {
        let r = ranker("masks");
        let result = build_result(&obj! { "x" => 1 }, 0.0, &r);
        assert_eq!(result.id, "<missing id>");
        assert_eq!(result.title, "<untitled>");
        assert!(result.snippets.is_empty());
    }

    #[test]
    fn page_to_json_is_canonical() {
        let r = ranker("masks");
        let page = SearchPage {
            query: "masks".into(),
            page: 0,
            page_size: 10,
            total: 23,
            results: vec![build_result(&doc(), 5.0, &r)],
        };
        let json = page.to_json();
        assert_eq!(json.path("query").and_then(Value::as_str), Some("masks"));
        assert_eq!(json.path("total").and_then(Value::as_i64), Some(23));
        assert_eq!(json.path("page_count").and_then(Value::as_i64), Some(3));
        let results = json.path("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].path("id").and_then(Value::as_str),
            Some("paper-7")
        );
        let snips = results[0].path("snippets").and_then(Value::as_array).unwrap();
        assert!(!snips.is_empty());
        let hl = snips[0].path("highlights").and_then(Value::as_array).unwrap();
        assert!(!hl.is_empty());
        // Encoding is deterministic: same page, same bytes.
        assert_eq!(json.to_json(), page.to_json().to_json());
    }

    #[test]
    fn empty_page_count() {
        let page = SearchPage {
            query: "q".into(),
            page: 0,
            page_size: 10,
            total: 0,
            results: vec![],
        };
        assert_eq!(page.page_count(), 0);
        assert!(page.render().contains("0 matches"));
    }
}
