//! The three search engines (§2.1).
//!
//! "The Search Engine receives results from the database by using an
//! aggregation query … The first stage in the pipeline is a `$match`
//! expression … It was mindful to use the `$match` stage first to
//! minimize the amount of data being passed through all the latter
//! stages … In the next stage, the data is passed through a `$project`
//! stage, which streams only the specified fields … The pipeline also
//! uses a few custom `$function` stages to derive calculations … for
//! ranking results."
//!
//! [`SearchEngine::search`] serves that plan as one bounded, ordered
//! pass: the `$match` filter's candidates merged from the inverted index
//! in id order, scores from its postings, only the top
//! `(page+1)·PAGE_SIZE` kept and only the page's ids copied out, read and
//! rendered. The pipeline itself, run over a full scan, is the oracle
//! [`SearchEngine::search_naive`] the served path is held to page for
//! page.

use crate::query::{parse_query, ParsedQuery};
use crate::rank::{RankWeights, Ranker};
use crate::render_cache::{CachedRender, RenderCache, RenderCacheStats};
use crate::result::{build_result, render_indexed, SearchPage, SearchResult, RENDERED_FIELDS};
use covidkg_json::Value;
use covidkg_regex::{escape, Regex};
use covidkg_store::index::{DocPostings, Posting, TextIndex};
use covidkg_store::pipeline::{DocFn, Order, Pipeline, Stage};
use covidkg_store::{Collection, Filter};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Which of the three §2.1 engines to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchMode {
    /// §2.1.1 — separate queries over title, abstract and table captions;
    /// every non-empty field query must match its field ("the search
    /// fields are inclusive").
    TitleAbstractCaption {
        /// Query against `title` (empty = unused).
        title: String,
        /// Query against `abstract`.
        abstract_q: String,
        /// Query against table captions.
        caption: String,
    },
    /// §2.1.2 — one query over all publication fields.
    AllFields(String),
    /// §2.1.3 — query over table captions and table data only.
    Tables(String),
}

/// Results per page — "paginated as a list of ten per page".
pub const PAGE_SIZE: usize = 10;

/// A search engine bound to a publications collection.
pub struct SearchEngine {
    collection: Arc<Collection>,
    weights: RankWeights,
    render_cache: Option<Arc<RenderCache>>,
}

impl SearchEngine {
    /// Engine over `collection` with default publication weights.
    pub fn new(collection: Arc<Collection>) -> SearchEngine {
        SearchEngine {
            collection,
            weights: RankWeights::publication_default(),
            render_cache: None,
        }
    }

    /// Attach a render-level cache memoizing built snippets/highlights
    /// across searches (invalidated by the collection's mutation epoch).
    pub fn with_render_cache(mut self, cache: Arc<RenderCache>) -> SearchEngine {
        self.render_cache = Some(cache);
        self
    }

    /// Render-cache counters, if a cache is attached.
    pub fn render_cache_stats(&self) -> Option<RenderCacheStats> {
        self.render_cache.as_ref().map(|c| c.stats())
    }

    /// Run a search, returning the requested 0-based page: the page's
    /// ranks of the `$match` filter's `(score, _id)` from one
    /// `scored_top_k` pass, then only the page's documents rendered
    /// (`render_hits`). Returns exactly the page
    /// (ids, order, score bits, snippets) of [`SearchEngine::search_naive`].
    pub fn search(&self, mode: &SearchMode, page: usize) -> SearchPage {
        let (query, ranker, filter, projection) = self.prepare(mode);
        let first = page.saturating_mul(PAGE_SIZE);
        let ranks = first..first.saturating_add(PAGE_SIZE);
        let (total, hits) = self.scored_top_k(&filter, &ranker, ranks);
        let results = self.render_hits(&hits, &ranker, &projection);
        SearchPage { query, page, page_size: PAGE_SIZE, total, results }
    }

    /// The reference path [`SearchEngine::search`] is held to: the
    /// `$match` → `$project` → `$function(rank)` → `$sort` pipeline over a
    /// full scan of every shard, scoring each match with the tokenizing
    /// [`Ranker::score`] and rendering each hit with [`build_result`]. No
    /// index, postings or render cache is read.
    pub fn search_naive(&self, mode: &SearchMode, page: usize) -> SearchPage {
        let (query, ranker, filter, projection) = self.prepare(mode);
        let mut naive = SearchPage { query, page, page_size: PAGE_SIZE, total: 0, results: Vec::new() };
        if ranker.query().is_empty() {
            return naive;
        }
        let ranker = Arc::new(ranker);
        let rank_fn: DocFn = {
            let ranker = Arc::clone(&ranker);
            Arc::new(move |doc: &Value| Value::float(ranker.score(doc)))
        };
        let ranked = Pipeline::new()
            .match_filter(filter)
            .project(projection)
            .function("covidkg_rank", "score", rank_fn)
            .stage(Stage::Sort(vec![
                ("score".into(), Order::Desc),
                ("_id".into(), Order::Asc),
            ]))
            .run(self.collection.scan_all());
        naive.total = ranked.len();
        naive.results = ranked
            .iter()
            .skip(page.saturating_mul(PAGE_SIZE))
            .take(PAGE_SIZE)
            .map(|doc| {
                let score = doc.path("score").and_then(Value::as_f64).unwrap_or(0.0);
                build_result(doc, score, &ranker)
            })
            .collect();
        naive
    }

    /// A mode compiled for both paths: the echoed query text, its ranker,
    /// the `$match` filter and the rendered projection (the searched
    /// fields plus `title` and `date`).
    fn prepare(&self, mode: &SearchMode) -> (String, Ranker, Filter, Vec<String>) {
        let (query_text, parsed, filter, mut projection) = self.compile(mode);
        let ranker = self.ranker(parsed, &projection);
        for keep in ["title", "date"] {
            if !projection.iter().any(|p| p == keep) {
                projection.push(keep.to_string());
            }
        }
        (query_text, ranker, filter, projection)
    }

    /// A ranker for `parsed` over `field_paths`, with this engine's
    /// weights and the collection's current IDF statistics.
    pub(crate) fn ranker(&self, parsed: ParsedQuery, field_paths: &[String]) -> Ranker {
        Ranker::new(
            parsed,
            self.scoped_weights(field_paths),
            self.collection.text_index(),
            self.collection.len(),
        )
    }

    /// Match count and the `(score, _id)` of `filter` under `ranker` ranked
    /// `ranks` by `(score desc, _id asc)`, from one
    /// [`Collection::scored_top_k`] pass:
    /// candidates come from the index where it can bound the filter (a
    /// shard scan otherwise), scores from the postings when the index
    /// covers every ranked field and from [`Ranker::score`] on the
    /// document otherwise — the same totals, order and score bits either
    /// way.
    pub(crate) fn scored_top_k(
        &self,
        filter: &Filter,
        ranker: &Ranker,
        ranks: Range<usize>,
    ) -> (usize, Vec<(f64, String)>) {
        if ranker.query().is_empty() {
            return (0, Vec::new());
        }
        let index = self.collection.text_index().map(TextIndex::read);
        let index = index.as_ref();
        match index.and_then(|index| ranker.postings_scorer(index)) {
            Some(mut scorer) => {
                self.collection.scored_top_k(filter, ranks, index, |id, doc| scorer.score(id, doc))
            }
            None => self.collection.scored_top_k(filter, ranks, index, |_, doc| ranker.score(doc)),
        }
    }

    /// This request's key into the render cache: snippets depend on the
    /// projected fields and the query's stem/phrase sets (not on scores),
    /// so that pair is the key.
    fn render_key(projection: &[String], ranker: &Ranker) -> String {
        format!("f={}|{}", projection.join(","), normalized(ranker.query()))
    }

    /// Render one page's `(score, _id)` hits — lexical, semantic or
    /// hybrid — restricted to the `projection` fields.
    ///
    /// With a render cache, the page first brings the cache to the
    /// collection's epoch (a lock only when the store has been written
    /// since: the renders of touched documents are dropped), then probes
    /// it for all its hits under one lock and inserts all its misses
    /// under one more. Misses are built between the two, outside the
    /// cache's lock, each document read in place under its shard's one
    /// read guard; where the index covers a field its postings say which
    /// leaves and tokens to highlight. A hit whose document has since
    /// been deleted is dropped.
    pub(crate) fn render_hits(
        &self,
        hits: &[(f64, String)],
        ranker: &Ranker,
        projection: &[String],
    ) -> Vec<SearchResult> {
        if hits.is_empty() {
            return Vec::new();
        }
        let epoch = self.collection.mutation_epoch();
        let cache = self.render_cache.as_deref().map(|cache| {
            cache.sync(epoch, |since| self.collection.touched_since(since));
            (cache, Self::render_key(projection, ranker))
        });
        let mut renders = match &cache {
            Some((cache, key)) => cache.get(epoch, key, hits.iter().map(|(_, id)| id.as_str())),
            None => vec![None; hits.len()],
        };
        if renders.iter().any(Option::is_none) {
            let built = self.build_renders(hits, &mut renders, ranker, projection);
            if let Some((cache, key)) = cache {
                cache.put(epoch, Arc::from(key), built);
            }
        }
        hits.iter()
            .zip(renders)
            .filter_map(|((score, id), render)| {
                Some(Arc::unwrap_or_clone(render?).into_result(id, *score))
            })
            .collect()
    }

    /// Fill every empty slot of `renders` with its hit's render, built
    /// from the document and its postings, and return what was built
    /// for the cache. A slot whose document is gone stays empty.
    fn build_renders(
        &self,
        hits: &[(f64, String)],
        renders: &mut [Option<Arc<CachedRender>>],
        ranker: &Ranker,
        projection: &[String],
    ) -> Vec<(Arc<str>, Arc<CachedRender>)> {
        let unindexed;
        let index = match self.collection.text_index() {
            Some(index) => index,
            // Every field then renders as an uncovered one does.
            None => {
                unindexed = TextIndex::default();
                &unindexed
            }
        }
        .read();
        let query = ranker.query();
        let stems = query.stems.iter().chain(&query.synonym_stems);
        let stem_docs: Vec<&DocPostings> = stems.filter_map(|s| index.docs(s)).collect();
        let docs = self.collection.read_docs();
        let mut built = Vec::new();
        for ((_, id), slot) in hits.iter().zip(renders) {
            if slot.is_some() {
                continue;
            }
            let Some(doc) = docs.get(id) else { continue };
            let postings: Vec<&[Posting]> = stem_docs
                .iter()
                .filter_map(|docs| docs.get(id))
                .map(Vec::as_slice)
                .collect();
            let render = Arc::new(render_indexed(doc, ranker, projection, &index, &postings));
            if self.render_cache.is_some() {
                built.push((Arc::from(id.as_str()), Arc::clone(&render)));
            }
            *slot = Some(render);
        }
        built
    }

    /// The engine's rank weights restricted to `field_paths` (unknown
    /// fields weigh 1.0), as used for every query compilation.
    fn scoped_weights(&self, field_paths: &[String]) -> RankWeights {
        RankWeights {
            fields: field_paths
                .iter()
                .map(|p| {
                    let w = self
                        .weights
                        .fields
                        .iter()
                        .find(|(f, _)| f == p)
                        .map_or(1.0, |(_, w)| *w);
                    (p.clone(), w)
                })
                .collect(),
            ..self.weights.clone()
        }
    }

    /// The top-`k` `(score, _id)` pairs for a mode — the lexical
    /// candidate list the hybrid ranker fuses with ANN neighbors.
    /// Ordering matches [`SearchEngine::search`]: `(score desc, _id
    /// asc)`, from the same `scored_top_k` pass.
    pub fn ranked_ids(&self, mode: &SearchMode, k: usize) -> Vec<(f64, String)> {
        let (_, parsed, filter, field_paths) = self.compile(mode);
        self.scored_top_k(&filter, &self.ranker(parsed, &field_paths), 0..k).1
    }

    /// Compile a mode into (display text, parsed query, `$match` filter,
    /// searched field paths).
    pub(crate) fn compile(&self, mode: &SearchMode) -> (String, ParsedQuery, Filter, Vec<String>) {
        let parts = mode.parsed();
        let display = query_text(&parts).into_owned();
        match mode {
            SearchMode::AllFields(_) | SearchMode::Tables(_) => {
                let fields: Vec<String> = match mode {
                    SearchMode::AllFields(_) => {
                        RENDERED_FIELDS.iter().map(|(path, _)| path.to_string()).collect()
                    }
                    // §2.1.3: "regular expression search over table
                    // captions and all of the table's data".
                    _ => vec!["tables".to_string()],
                };
                let (_, _, parsed) = parts.into_iter().next().expect("one query");
                let filter = query_filter(&parsed, &fields);
                (display, parsed, filter, fields)
            }
            SearchMode::TitleAbstractCaption { .. } => {
                // Inclusive field semantics: AND over the non-empty field
                // queries, each restricted to its own field.
                let mut clauses = Vec::new();
                let mut fields = Vec::new();
                let mut combined = ParsedQuery::default();
                let mut synonyms = Vec::new();
                for (field, _, parsed) in parts {
                    if parsed.is_empty() {
                        continue;
                    }
                    clauses.push(query_filter(&parsed, &[field.to_string()]));
                    fields.push(field.to_string());
                    combined.exact_phrases.extend(parsed.exact_phrases);
                    combined.terms.extend(parsed.terms);
                    for s in parsed.stems {
                        if !combined.stems.contains(&s) {
                            combined.stems.push(s);
                        }
                    }
                    synonyms.extend(parsed.synonym_stems);
                }
                // A synonym scores at a discount, so one that another
                // field queries as a direct stem stays direct.
                for s in synonyms {
                    if !combined.stems.contains(&s) && !combined.synonym_stems.contains(&s) {
                        combined.synonym_stems.push(s);
                    }
                }
                let filter = match clauses.len() {
                    0 => Filter::True,
                    1 => clauses.pop().unwrap(),
                    _ => Filter::And(clauses),
                };
                (display, combined, filter, fields)
            }
        }
    }
}

impl SearchMode {
    /// The mode's queries, each parsed once: `(field, raw text, parsed)`,
    /// the field empty for the engines that take one query. The `$match`
    /// filter, the ranker, the echoed query text and the serve-layer cache
    /// key all derive from this.
    fn parsed(&self) -> Vec<(&'static str, &str, ParsedQuery)> {
        match self {
            SearchMode::AllFields(q) | SearchMode::Tables(q) => vec![("", q, parse_query(q))],
            SearchMode::TitleAbstractCaption {
                title,
                abstract_q,
                caption,
            } => [("title", title), ("abstract", abstract_q), ("tables", caption)]
                .into_iter()
                .map(|(field, q)| (field, q.as_str(), parse_query(q)))
                .collect(),
        }
    }
}

/// The text a page echoes as its `query`: the query itself, or for the
/// scoped engine its non-empty field queries as `field:text`.
fn query_text<'m>(parts: &[(&'static str, &'m str, ParsedQuery)]) -> Cow<'m, str> {
    if let [("", q, _)] = parts {
        return Cow::Borrowed(q);
    }
    let mut text = String::new();
    for (field, q, _) in parts.iter().filter(|(_, _, parsed)| !parsed.is_empty()) {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(field);
        text.push(':');
        text.push_str(q);
    }
    Cow::Owned(text)
}

/// A query's canonical form, `s=<stems>;y=<synonym stems>;p=<phrases>`:
/// ranking and highlighting depend only on the *sets* of stems, synonym
/// stems and exact phrases (`rank.rs` sums per-stem statistics and phrase
/// matching is case-insensitive), so each set is sorted and phrases are
/// lowercased. Every cache key is built from it.
pub(crate) fn normalized(q: &ParsedQuery) -> String {
    fn sorted(set: &[String]) -> Vec<&str> {
        let mut set: Vec<&str> = set.iter().map(String::as_str).collect();
        set.sort_unstable();
        set
    }
    let mut phrases: Vec<String> = q.exact_phrases.iter().map(|s| s.to_lowercase()).collect();
    phrases.sort();
    format!(
        "s={};y={};p={}",
        sorted(&q.stems).join(","),
        sorted(&q.synonym_stems).join(","),
        phrases.join("\u{1}")
    )
}

/// Canonical cache key for an (engine, query, page) triple, used by the
/// `covidkg-serve` result cache: textually different but semantically
/// identical queries ("masks vaccine" vs "Vaccines mask") share one entry
/// (see [`normalized`]).
pub fn cache_key(mode: &SearchMode, page: usize) -> String {
    cache_key_and_query(mode, page).0
}

/// [`cache_key`] together with the text a page for `mode` echoes as its
/// `query`, from one parse of the request. Queries that share a key share
/// a cached page, not a spelling: the serve layer stamps a cached page
/// with the text of the request it answers.
pub fn cache_key_and_query(mode: &SearchMode, page: usize) -> (String, Cow<'_, str>) {
    let parts = mode.parsed();
    let norm = |i: usize| normalized(&parts[i].2);
    let key = match mode {
        SearchMode::AllFields(_) => format!("all|{}|{page}", norm(0)),
        SearchMode::Tables(_) => format!("tab|{}|{page}", norm(0)),
        SearchMode::TitleAbstractCaption { .. } => {
            format!("tac|t:{}|a:{}|c:{}|{page}", norm(0), norm(1), norm(2))
        }
    };
    (key, query_text(&parts))
}

/// Build the `$match` filter for a parsed query over `fields`: stems use
/// the stemmed `$text` machinery; quoted phrases become case-insensitive
/// regexes that must all be present (in any of the fields).
fn query_filter(parsed: &ParsedQuery, fields: &[String]) -> Filter {
    let mut clauses = Vec::new();
    if !parsed.stems.is_empty() {
        // Direct stems plus synonym stems: synonym recall is part of the
        // §5 ranking claim ("matching terms and synonyms"); the ranking
        // function then discounts synonym-only matches.
        let mut stems = parsed.stems.clone();
        stems.extend(parsed.synonym_stems.iter().cloned());
        clauses.push(Filter::Text {
            stems,
            fields: fields.to_vec(),
        });
    }
    for phrase in &parsed.exact_phrases {
        // The store's `$regex` matches any string leaf under a path, so
        // one compiled pattern serves every field.
        let re = Arc::new(Regex::new_ci(&escape(phrase)).expect("escaped pattern compiles"));
        let per_field = fields
            .iter()
            .map(|f| Filter::Regex(f.clone(), Arc::clone(&re)))
            .collect();
        clauses.push(Filter::Or(per_field));
    }
    match clauses.len() {
        0 => Filter::True,
        1 => clauses.pop().unwrap(),
        _ => Filter::And(clauses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_json::{arr, obj};
    use covidkg_store::CollectionConfig;

    fn collection() -> Arc<Collection> {
        let c = Collection::new(
            CollectionConfig::new("pubs").with_shards(4).with_text_fields([
                "title",
                "abstract",
                "tables",
                "figure_captions",
                "body",
            ]),
        );
        let docs = vec![
            obj! {
                "_id" => "p1",
                "title" => "Mask mandates reduce transmission",
                "abstract" => "Analysis of mask policies across regions.",
                "date" => "2021-05",
                "body" => arr![ obj!{ "heading" => "Intro", "text" => "masking works" } ],
                "tables" => arr![ obj!{ "caption" => "Table 1: mask compliance", "html" => "<table></table>" } ],
            },
            obj! {
                "_id" => "p2",
                "title" => "Vaccine efficacy in adults",
                "abstract" => "Vaccination outcomes after two doses.",
                "date" => "2022-01",
                "body" => arr![ obj!{ "heading" => "Intro", "text" => "vaccines and boosters" } ],
                "tables" => arr![ obj!{ "caption" => "Table 1: efficacy by arm", "html" => "<table></table>" } ],
            },
            obj! {
                "_id" => "p3",
                "title" => "Ventilator capacity planning",
                "abstract" => "ICU ventilators during surges; mask usage noted.",
                "date" => "2020-11",
                "body" => arr![ obj!{ "heading" => "Intro", "text" => "icu load" } ],
                "tables" => arr![ obj!{ "caption" => "Table 1: ventilators per region", "html" => "<table></table>" } ],
            },
        ];
        c.insert_many(docs).unwrap();
        Arc::new(c)
    }

    #[test]
    fn all_fields_search_ranks_title_hits_first() {
        let engine = SearchEngine::new(collection());
        let page = engine.search(&SearchMode::AllFields("masks".into()), 0);
        assert_eq!(page.total, 2, "p1 (title) and p3 (abstract)");
        assert_eq!(page.results[0].id, "p1");
        assert!(page.results[0].score > page.results[1].score);
    }

    #[test]
    fn stemming_matches_query_variants() {
        let engine = SearchEngine::new(collection());
        // "vaccinations" stems to "vaccin" like "Vaccine"/"Vaccination".
        let page = engine.search(&SearchMode::AllFields("vaccinations".into()), 0);
        assert_eq!(page.total, 1);
        assert_eq!(page.results[0].id, "p2");
    }

    #[test]
    fn quoted_query_requires_exact_presence() {
        let engine = SearchEngine::new(collection());
        let page = engine.search(&SearchMode::AllFields("\"mask mandates\"".into()), 0);
        assert_eq!(page.total, 1);
        assert_eq!(page.results[0].id, "p1");
        // Stemmed variant of the same words appears in p3's abstract too,
        // but the exact phrase does not.
        let loose = engine.search(&SearchMode::AllFields("mask mandates".into()), 0);
        assert!(loose.total >= 1);
    }

    #[test]
    fn table_engine_searches_only_tables() {
        let engine = SearchEngine::new(collection());
        let page = engine.search(&SearchMode::Tables("ventilators".into()), 0);
        assert_eq!(page.total, 1, "only p3's table mentions ventilators");
        assert_eq!(page.results[0].id, "p3");
        // "transmission" appears in p1's title but no table.
        let none = engine.search(&SearchMode::Tables("transmission".into()), 0);
        assert_eq!(none.total, 0);
    }

    #[test]
    fn title_abstract_caption_fields_are_inclusive() {
        let engine = SearchEngine::new(collection());
        // Title must contain masks AND caption must contain compliance.
        let page = engine.search(
            &SearchMode::TitleAbstractCaption {
                title: "masks".into(),
                abstract_q: String::new(),
                caption: "compliance".into(),
            },
            0,
        );
        assert_eq!(page.total, 1);
        assert_eq!(page.results[0].id, "p1");
        // Same title query with a caption that p1 lacks → no results.
        let none = engine.search(
            &SearchMode::TitleAbstractCaption {
                title: "masks".into(),
                abstract_q: String::new(),
                caption: "efficacy".into(),
            },
            0,
        );
        assert_eq!(none.total, 0);
    }

    #[test]
    fn empty_queries_return_empty_pages() {
        let engine = SearchEngine::new(collection());
        let page = engine.search(&SearchMode::AllFields("the of".into()), 0);
        assert_eq!(page.total, 0);
        assert!(page.results.is_empty());
    }

    #[test]
    fn pagination_slices_results() {
        let c = Collection::new(
            CollectionConfig::new("pubs").with_text_fields(["title"]),
        );
        for i in 0..25 {
            c.insert(obj! {
                "_id" => format!("p{i:02}"),
                "title" => format!("mask study number {i}"),
                "date" => "2021-01",
            })
            .unwrap();
        }
        let engine = SearchEngine::new(Arc::new(c));
        let p0 = engine.search(&SearchMode::AllFields("mask".into()), 0);
        let p1 = engine.search(&SearchMode::AllFields("mask".into()), 1);
        let p2 = engine.search(&SearchMode::AllFields("mask".into()), 2);
        assert_eq!(p0.total, 25);
        assert_eq!(p0.results.len(), 10);
        assert_eq!(p1.results.len(), 10);
        assert_eq!(p2.results.len(), 5);
        assert_eq!(p0.page_count(), 3);
        // No overlap between pages.
        let ids0: Vec<&str> = p0.results.iter().map(|r| r.id.as_str()).collect();
        let ids1: Vec<&str> = p1.results.iter().map(|r| r.id.as_str()).collect();
        assert!(ids0.iter().all(|id| !ids1.contains(id)));
    }

    #[test]
    fn snippets_highlight_matches() {
        let engine = SearchEngine::new(collection());
        let page = engine.search(&SearchMode::AllFields("masks".into()), 0);
        let rendered = page.render();
        assert!(rendered.to_lowercase().contains("[mask"), "{rendered}");
    }

    #[test]
    fn synonyms_extend_recall_but_rank_below_direct_matches() {
        let c = Collection::new(CollectionConfig::new("pubs").with_text_fields(["title"]));
        c.insert(obj! { "_id" => "direct", "title" => "vaccine rollout", "date" => "2021-01" })
            .unwrap();
        c.insert(obj! { "_id" => "synonym", "title" => "immunization rollout", "date" => "2021-01" })
            .unwrap();
        c.insert(obj! { "_id" => "noise", "title" => "ventilator supply", "date" => "2021-01" })
            .unwrap();
        let engine = SearchEngine::new(Arc::new(c));
        let page = engine.search(&SearchMode::AllFields("vaccine".into()), 0);
        // Synonym doc is retrieved (recall) …
        assert_eq!(page.total, 2, "expected direct + synonym hits");
        // … but ranks below the direct match.
        assert_eq!(page.results[0].id, "direct");
        assert_eq!(page.results[1].id, "synonym");
        assert!(page.results[0].score > page.results[1].score);
    }

    /// A scoped query ranks and highlights a synonym-only match the way
    /// the all-fields engine does, at the synonym discount.
    #[test]
    fn scoped_synonym_matches_score_and_highlight() {
        let c = Collection::new(CollectionConfig::new("pubs").with_text_fields(["title"]));
        c.insert(obj! { "_id" => "direct", "title" => "vaccine rollout", "date" => "2021-01" })
            .unwrap();
        c.insert(obj! { "_id" => "synonym", "title" => "immunization rollout", "date" => "2021-01" })
            .unwrap();
        let engine = SearchEngine::new(Arc::new(c));
        let scoped = engine.search(
            &SearchMode::TitleAbstractCaption {
                title: "vaccine".into(),
                abstract_q: String::new(),
                caption: String::new(),
            },
            0,
        );
        let all = engine.search(&SearchMode::AllFields("vaccine".into()), 0);
        let ids = |p: &SearchPage| p.results.iter().map(|r| r.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(&scoped), ["direct", "synonym"]);
        assert_eq!(ids(&all), ids(&scoped));
        let (direct, synonym) = (&scoped.results[0], &scoped.results[1]);
        assert!(synonym.score > 0.0, "a synonym match must score");
        assert!(synonym.score < direct.score);
        let discount = |p: &SearchPage| p.results[1].score / p.results[0].score;
        assert!((discount(&scoped) - discount(&all)).abs() < 1e-12);
        let marked: Vec<String> =
            synonym.snippets.iter().map(|f| f.snippet.render_marked()).collect();
        assert!(marked.iter().any(|m| m.contains("[immunization]")), "{marked:?}");
    }

    #[test]
    fn cache_keys_canonicalize_equivalent_queries() {
        let a = cache_key(&SearchMode::AllFields("Vaccines mask".into()), 0);
        let b = cache_key(&SearchMode::AllFields("masks vaccine".into()), 0);
        assert_eq!(a, b, "term order and inflection must not split the key");
        let c = cache_key(&SearchMode::AllFields("masks vaccine".into()), 1);
        assert_ne!(a, c, "page is part of the key");
        let d = cache_key(&SearchMode::Tables("masks vaccine".into()), 0);
        assert_ne!(a, d, "engine is part of the key");
        let e = cache_key(&SearchMode::AllFields("\"Mask Mandates\"".into()), 0);
        let f = cache_key(&SearchMode::AllFields("\"mask mandates\"".into()), 0);
        assert_eq!(e, f, "phrase matching is case-insensitive");
        let tac = cache_key(
            &SearchMode::TitleAbstractCaption {
                title: "masks".into(),
                abstract_q: String::new(),
                caption: String::new(),
            },
            0,
        );
        let tac_swapped = cache_key(
            &SearchMode::TitleAbstractCaption {
                title: String::new(),
                abstract_q: "masks".into(),
                caption: String::new(),
            },
            0,
        );
        assert_ne!(tac, tac_swapped, "field assignment is part of the key");
    }

    /// Every key is built from one `normalized` form now; the strings
    /// are the ones the three hand-rolled copies produced before.
    #[test]
    fn keys_are_byte_identical_to_their_recorded_forms() {
        use crate::hybrid::{dense_cache_key, DenseMode};
        let q = "Vaccines mask \"Dose Two\" \"ICU surge\" immunity";
        let scoped = SearchMode::TitleAbstractCaption {
            title: "Masks".into(),
            abstract_q: String::new(),
            caption: "\"Table 1\" efficacy".into(),
        };
        let norm = "s=immun,mask,vaccin;y=inocul,jab,ppe,respir;p=dose two\u{1}icu surge";
        let tokens = "dose,icu,immunity,mask,surge,two,vaccines";
        assert_eq!(cache_key(&SearchMode::AllFields(q.into()), 2), format!("all|{norm}|2"));
        assert_eq!(cache_key(&SearchMode::Tables("the of".into()), 0), "tab|s=;y=;p=|0");
        assert_eq!(
            cache_key(&scoped, 1),
            "tac|t:s=mask;y=ppe,respir;p=|a:s=;y=;p=|c:s=efficaci;y=effect;p=table 1|1"
        );
        assert_eq!(
            dense_cache_key(&DenseMode::Hybrid(q.into()), 3),
            format!("hyb|{tokens}|{norm}|3")
        );
        assert_eq!(dense_cache_key(&DenseMode::Semantic(q.into()), 0), format!("sem|{tokens}|0"));

        let engine = SearchEngine::new(collection())
            .with_render_cache(Arc::new(crate::render_cache::RenderCache::new(8)));
        let render_key = |mode: &SearchMode| {
            let (_, parsed, _, mut projection) = engine.compile(mode);
            let ranker = engine.ranker(parsed, &projection);
            projection.push("date".into());
            SearchEngine::render_key(&projection, &ranker)
        };
        assert_eq!(
            render_key(&SearchMode::AllFields(q.into())),
            format!("f=title,abstract,tables,figure_captions,body,date|{norm}")
        );
        // The scoped ranker carries its fields' synonym stems too.
        assert_eq!(
            render_key(&scoped),
            "f=title,tables,date|s=efficaci,mask;y=effect,ppe,respir;p=table 1"
        );

        // The echoed text comes from the same parse as the key.
        assert_eq!(cache_key_and_query(&SearchMode::AllFields(q.into()), 0).1, q);
        assert_eq!(
            cache_key_and_query(&scoped, 0).1,
            "title:Masks tables:\"Table 1\" efficacy"
        );
        assert_eq!(engine.search(&scoped, 0).query, "title:Masks tables:\"Table 1\" efficacy");
    }

    #[test]
    fn results_are_deterministic() {
        let engine = SearchEngine::new(collection());
        let a = engine.search(&SearchMode::AllFields("masks".into()), 0);
        let b = engine.search(&SearchMode::AllFields("masks".into()), 0);
        let ids_a: Vec<&str> = a.results.iter().map(|r| r.id.as_str()).collect();
        let ids_b: Vec<&str> = b.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids_a, ids_b);
    }

    /// Pages must agree between the pruned/postings/top-k path and the
    /// full-scan oracle down to rendered snippets and score bits.
    fn assert_pages_identical(fast: &SearchPage, naive: &SearchPage, ctx: &str) {
        assert_eq!(fast.total, naive.total, "{ctx}: total");
        assert_eq!(fast.results.len(), naive.results.len(), "{ctx}: page len");
        for (f, n) in fast.results.iter().zip(&naive.results) {
            assert_eq!(f.id, n.id, "{ctx}: id order");
            assert_eq!(f.score.to_bits(), n.score.to_bits(), "{ctx}: score bits for {}", f.id);
            assert_eq!(f.title, n.title, "{ctx}");
            assert_eq!(f.snippets.len(), n.snippets.len(), "{ctx}: snippets for {}", f.id);
            for (a, b) in f.snippets.iter().zip(&n.snippets) {
                assert_eq!(a.field, b.field, "{ctx}");
                assert_eq!(a.snippet.render_marked(), b.snippet.render_marked(), "{ctx}");
            }
            assert_eq!(f.collapsed.len(), n.collapsed.len(), "{ctx}: collapsed for {}", f.id);
        }
    }

    #[test]
    fn fast_path_matches_naive_oracle_across_engines() {
        let engine = SearchEngine::new(collection());
        let modes = [
            SearchMode::AllFields("masks vaccine".into()),
            SearchMode::AllFields("\"mask mandates\" transmission".into()),
            SearchMode::Tables("ventilators efficacy".into()),
            SearchMode::TitleAbstractCaption {
                title: "masks".into(),
                abstract_q: "policies".into(),
                caption: "compliance".into(),
            },
        ];
        for mode in &modes {
            for page in 0..2 {
                let fast = engine.search(mode, page);
                let naive = engine.search_naive(mode, page);
                assert_pages_identical(&fast, &naive, &format!("{mode:?} page {page}"));
            }
        }
    }

    #[test]
    fn render_cache_reuses_snippets_until_mutation() {
        let coll = collection();
        let cache = Arc::new(crate::render_cache::RenderCache::new(64));
        let engine = SearchEngine::new(Arc::clone(&coll)).with_render_cache(Arc::clone(&cache));
        let mode = SearchMode::AllFields("masks".into());
        let first = engine.search(&mode, 0);
        let cold = engine.render_cache_stats().unwrap();
        assert!(cold.misses > 0 && cold.hits == 0);
        let second = engine.search(&mode, 0);
        let warm = engine.render_cache_stats().unwrap();
        assert_eq!(warm.misses, cold.misses, "second render fully cached");
        assert!(warm.hits >= first.results.len() as u64);
        assert_eq!(first.render(), second.render());
        // A mutation bumps the epoch; renders must reflect the new text.
        coll.replace(
            "p1",
            obj! {
                "title" => "Mask mandates revisited",
                "abstract" => "Updated mask analysis.",
                "date" => "2023-01",
            },
        )
        .unwrap();
        let third = engine.search(&mode, 0);
        assert!(third.render().contains("revisited"), "{}", third.render());
    }

    #[test]
    fn render_cache_survives_unrelated_mutation() {
        let coll = collection();
        let cache = Arc::new(crate::render_cache::RenderCache::new(64));
        let engine = SearchEngine::new(Arc::clone(&coll)).with_render_cache(Arc::clone(&cache));
        let mode = SearchMode::AllFields("masks".into());
        let first = engine.search(&mode, 0);
        assert!(first.results.iter().any(|r| r.id == "p1"));
        let warm = engine.render_cache_stats().unwrap();
        assert!(warm.misses > 0);
        // Replace a document that does NOT match the query: the epoch
        // bumps, but only p2's renders are invalidated — and none exist.
        coll.replace(
            "p2",
            obj! {
                "title" => "Vaccine efficacy in adults, updated",
                "abstract" => "Vaccination outcomes after three doses.",
                "date" => "2022-06",
            },
        )
        .unwrap();
        let second = engine.search(&mode, 0);
        let after = engine.render_cache_stats().unwrap();
        assert_eq!(
            after.misses, warm.misses,
            "warm renders must survive the unrelated update"
        );
        assert!(after.hits > warm.hits, "page re-served from warm renders");
        assert_eq!(first.render(), second.render());
        // A mutation that *does* touch a rendered doc still invalidates it.
        coll.replace(
            "p1",
            obj! {
                "title" => "Mask mandates revisited",
                "abstract" => "Updated mask analysis.",
                "date" => "2023-01",
            },
        )
        .unwrap();
        let third = engine.search(&mode, 0);
        assert!(third.render().contains("revisited"), "{}", third.render());
        let touched = engine.render_cache_stats().unwrap();
        assert!(touched.misses > after.misses, "touched doc was rebuilt");
    }
}
