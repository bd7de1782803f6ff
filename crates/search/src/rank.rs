//! The ranking function (§2.1).
//!
//! "The ranking is an accumulation of various weighted features per
//! document, such as the number of matches, proximity between the matched
//! terms and which field the term was matched in. Each term in the corpus
//! has an associated TF-IDF weight in order to reward more important
//! terms. For each matched term its TF-IDF is weighted in the ranking per
//! document." §2.1.3 adds "static and dynamic features"; recency serves
//! as the static document feature here.

use crate::query::ParsedQuery;
use covidkg_json::Value;
use covidkg_store::index::{DocPostings, IndexReader, Posting, TextIndex};
use covidkg_text::{stem, token_spans, tokenize, Token};

/// Field weights and feature coefficients.
#[derive(Debug, Clone)]
pub struct RankWeights {
    /// `(dot path, weight)` per searched field.
    pub fields: Vec<(String, f64)>,
    /// Bonus coefficient for term proximity.
    pub proximity: f64,
    /// Coefficient for the static recency feature.
    pub recency: f64,
    /// Score added per exact-phrase hit.
    pub exact_bonus: f64,
    /// Discount applied to synonym matches relative to direct term
    /// matches (§5: the ranking "incorporates matching terms and
    /// synonyms").
    pub synonym: f64,
}

impl RankWeights {
    /// The default publication weighting: title ≫ abstract > captions >
    /// body.
    pub fn publication_default() -> RankWeights {
        RankWeights {
            fields: vec![
                ("title".into(), 3.0),
                ("abstract".into(), 2.0),
                ("tables".into(), 1.5),
                ("figure_captions".into(), 1.5),
                ("body".into(), 1.0),
            ],
            proximity: 1.0,
            recency: 0.2,
            exact_bonus: 4.0,
            synonym: 0.4,
        }
    }
}

/// Scores documents for one parsed query.
///
/// IDF statistics are snapshotted from the collection's inverted text
/// index at construction (the same statistics MongoDB's text index would
/// supply the JS `$function`), so the ranker is `'static` and can live
/// inside a `$function` pipeline stage.
pub struct Ranker {
    query: ParsedQuery,
    weights: RankWeights,
    /// IDF per query stem, aligned with `query.stems`.
    stem_idf: Vec<f64>,
    /// IDF per synonym stem, aligned with `query.synonym_stems`.
    syn_idf: Vec<f64>,
    /// `query.exact_phrases`, lowercased once (phrase presence is a
    /// case-insensitive substring test against every scored leaf).
    phrases_lower: Vec<String>,
}

impl Ranker {
    /// Build a ranker, snapshotting IDF values from the text index.
    pub fn new(
        query: ParsedQuery,
        weights: RankWeights,
        index: Option<&TextIndex>,
        corpus_size: usize,
    ) -> Self {
        let n = corpus_size.max(1);
        let idf_of = |s: &String| {
            let df = index.map_or(0, |i| i.doc_freq(s));
            (((1 + n) as f64) / ((1 + df) as f64)).ln() + 1.0
        };
        let stem_idf = query.stems.iter().map(idf_of).collect();
        let syn_idf = query.synonym_stems.iter().map(idf_of).collect();
        let phrases_lower = query.exact_phrases.iter().map(|p| p.to_lowercase()).collect();
        Ranker {
            query,
            weights,
            stem_idf,
            syn_idf,
            phrases_lower,
        }
    }

    /// The parsed query being ranked.
    pub fn query(&self) -> &ParsedQuery {
        &self.query
    }

    fn idf_at(&self, qi: usize) -> f64 {
        self.stem_idf.get(qi).copied().unwrap_or(1.0)
    }

    /// Score one document.
    pub fn score(&self, doc: &Value) -> f64 {
        let mut total = 0.0;
        for (path, field_weight) in &self.weights.fields {
            total += field_weight * self.score_field(doc.path(path));
        }
        // Static feature: recency from the date field ("YYYY-MM").
        if let Some(date) = doc.path("date").and_then(Value::as_str) {
            if let Some(year) = date.get(..4).and_then(|y| y.parse::<i32>().ok()) {
                total += self.weights.recency * f64::from((year - 2019).clamp(0, 10));
            }
        }
        total
    }

    fn score_field(&self, value: Option<&Value>) -> f64 {
        let mut texts = Vec::new();
        collect_strings(value, &mut texts);
        if texts.is_empty() {
            return 0.0;
        }
        let mut score = 0.0;
        for text in &texts {
            score += self.score_text(text);
        }
        score
    }

    fn score_text(&self, text: &str) -> f64 {
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return 0.0;
        }
        // Per-stem term frequency within this text (direct + synonym).
        let mut tf: Vec<u64> = vec![0; self.query.stems.len()];
        let mut syn_tf: Vec<u64> = vec![0; self.query.synonym_stems.len()];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.query.stems.len()];
        for (pos, tok) in tokens.iter().enumerate() {
            let ts = stem(&tok.text.to_lowercase());
            for (qi, qs) in self.query.stems.iter().enumerate() {
                if &ts == qs {
                    tf[qi] += 1;
                    positions[qi].push(pos);
                }
            }
            for (qi, qs) in self.query.synonym_stems.iter().enumerate() {
                if &ts == qs {
                    syn_tf[qi] += 1;
                }
            }
        }
        let mut score = 0.0;
        for (qi, &count) in tf.iter().enumerate() {
            if count > 0 {
                score += (1.0 + (count as f64).ln()) * self.idf_at(qi);
            }
        }
        // Synonym matches contribute at a discount.
        for (qi, &count) in syn_tf.iter().enumerate() {
            if count > 0 {
                let idf = self.syn_idf.get(qi).copied().unwrap_or(1.0);
                score += self.weights.synonym * (1.0 + (count as f64).ln()) * idf;
            }
        }
        // Proximity: minimal token-distance window covering two or more
        // distinct matched stems.
        let matched: Vec<&Vec<usize>> = positions.iter().filter(|p| !p.is_empty()).collect();
        if matched.len() >= 2 {
            let dist = min_pair_distance(&matched);
            score += self.weights.proximity / (1.0 + dist as f64);
        }
        self.add_phrase_bonus(text, &mut score);
        score
    }

    /// Exact phrases: add `exact_bonus` to `score` per phrase present in
    /// `text` as a case-insensitive substring.
    fn add_phrase_bonus(&self, text: &str, score: &mut f64) {
        if !self.phrases_lower.is_empty() {
            let lower = text.to_lowercase();
            for phrase in &self.phrases_lower {
                if lower.contains(phrase.as_str()) {
                    *score += self.weights.exact_bonus;
                }
            }
        }
    }

    /// A scorer over `index`'s postings, when the index can stand in for
    /// the documents: every ranked field is covered, so
    /// [`PostingsScorer::score`] reproduces [`Ranker::score`] bit-for-bit
    /// from posting lists alone. Field ordinals and a cursor over each
    /// query stem's postings are resolved here, once per query.
    pub fn postings_scorer<'a>(&'a self, index: &'a IndexReader<'_>) -> Option<PostingsScorer<'a>> {
        let fields = self
            .weights
            .fields
            .iter()
            .map(|(path, weight)| Some((index.field_id(path)?, *weight, path.as_str())))
            .collect::<Option<Vec<_>>>()?;
        let stems = self.query.stems.iter().chain(&self.query.synonym_stems);
        static NO_POSTINGS: DocPostings = DocPostings::new();
        let cursors: Vec<_> = stems
            .map(|s| index.docs(s).unwrap_or(&NO_POSTINGS).iter().peekable())
            .collect();
        let n = cursors.len();
        Some(PostingsScorer {
            ranker: self,
            fields,
            cursors,
            postings: Vec::with_capacity(n),
            heads: Vec::with_capacity(n),
        })
    }

    /// Byte spans in `text` matching the query (stems or exact phrases) —
    /// drives result-page highlighting.
    pub fn match_spans(&self, text: &str) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for Token { text: tok, start, end } in tokenize(text) {
            let ts = stem(&tok.to_lowercase());
            if self.query.stems.iter().any(|s| s == &ts)
                || self.query.synonym_stems.iter().any(|s| s == &ts)
            {
                spans.push((start, end));
            }
        }
        self.finish_spans(text, spans)
    }

    /// [`Ranker::match_spans`] for a leaf whose matching tokens the index
    /// already names: `positions` are the ascending token ordinals of the
    /// query's stems and synonym stems in `text`, so no token is
    /// lowercased or stemmed and tokenizing stops at the last match.
    /// `None` when a position lies past the text's tokens — the index and
    /// the document disagree, and the caller re-tokenizes.
    pub fn spans_at(&self, text: &str, positions: &[u32]) -> Option<Vec<(usize, usize)>> {
        let mut spans = Vec::with_capacity(positions.len());
        let mut tokens = token_spans(text);
        let mut next = 0u32;
        for &p in positions {
            spans.push(tokens.nth(p.checked_sub(next)? as usize)?);
            next = p + 1;
        }
        Some(self.finish_spans(text, spans))
    }

    /// Add the exact phrases' spans to the token spans; sort and dedup.
    /// Phrases are found in the lowercased text, whose byte offsets drift
    /// from `text`'s wherever a character lowercases to a different
    /// length ("İ" to "i̇"), so each match is mapped back to the
    /// characters of `text` it came from.
    fn finish_spans(&self, text: &str, mut spans: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        if !self.phrases_lower.is_empty() {
            let lower = Lowered::new(text);
            for needle in &self.phrases_lower {
                let mut at = 0;
                while let Some(p) = lower.text[at..].find(needle.as_str()) {
                    let (s, e) = (at + p, at + p + needle.len());
                    spans.push(lower.span_in_original(s, e));
                    at = s + needle.len().max(1);
                }
            }
        }
        spans.sort_unstable();
        spans.dedup();
        spans
    }

    /// Whether the query has exact phrases (if not, every score and
    /// highlight comes from tokens alone).
    pub(crate) fn has_phrases(&self) -> bool {
        !self.phrases_lower.is_empty()
    }
}

/// A text lowercased, with a way back to the original's byte offsets.
struct Lowered {
    text: String,
    /// Per byte of `text`, the span in the original of the character it
    /// was lowercased from; `None` when every character lowercases to
    /// the same length, so offsets coincide.
    origin: Option<Vec<(usize, usize)>>,
}

impl Lowered {
    fn new(original: &str) -> Lowered {
        let lowered_len = |c: char| c.to_lowercase().map(char::len_utf8).sum::<usize>();
        let text = original.to_lowercase();
        let same_lengths = || original.chars().all(|c| lowered_len(c) == c.len_utf8());
        if text.len() == original.len() && same_lengths() {
            return Lowered { text, origin: None };
        }
        let mut origin = Vec::with_capacity(text.len());
        for (i, c) in original.char_indices() {
            origin.extend(std::iter::repeat_n((i, i + c.len_utf8()), lowered_len(c)));
        }
        Lowered { text, origin: Some(origin) }
    }

    /// The span of the original covering the characters the lowercase
    /// bytes `s..e` (non-empty, on character boundaries) came from.
    fn span_in_original(&self, s: usize, e: usize) -> (usize, usize) {
        match &self.origin {
            None => (s, e),
            Some(origin) => (origin[s].0, origin[e - 1].1),
        }
    }
}

/// [`Ranker::score`] computed from posting lists (see
/// [`Ranker::postings_scorer`]).
pub struct PostingsScorer<'a> {
    ranker: &'a Ranker,
    /// `(index field ordinal, weight, dot path)` per ranked field, in
    /// weight order.
    fields: Vec<(u16, f64, &'a str)>,
    /// A cursor over every document's postings per direct stem (query
    /// order), then per synonym stem, advanced in id order.
    cursors: Vec<std::iter::Peekable<StemPostings<'a>>>,
    /// The scored document's postings per stem, and the part of each
    /// within the field being scored: buffers reused across documents.
    postings: Vec<&'a [Posting]>,
    heads: Vec<&'a [Posting]>,
}

/// One stem's postings, in id order.
type StemPostings<'a> = std::collections::btree_map::Iter<'a, String, Vec<Posting>>;

impl<'a> PostingsScorer<'a> {
    /// Score one document from its postings instead of re-tokenizing its
    /// text. Returns **exactly** the same `f64` as [`Ranker::score`]
    /// (float addition is non-associative, so every partial sum is
    /// accumulated in the same order: fields in weight order, string
    /// leaves in depth-first order, per leaf direct stems in query order,
    /// then synonyms, proximity, phrases, and finally recency).
    ///
    /// Documents must come in ascending id order (as
    /// [`covidkg_store::Collection::scored_top_k`] hands them out): each
    /// stem's cursor only moves forward, so a query's postings are walked
    /// once whatever the number of candidates.
    pub fn score(&mut self, id: &str, doc: &Value) -> f64 {
        self.postings.clear();
        for cursor in &mut self.cursors {
            while cursor.next_if(|&(other, _)| other.as_str() < id).is_some() {}
            let here = cursor.next_if(|&(other, _)| other == id);
            self.postings.push(here.map_or(&[][..], |(_, postings)| postings.as_slice()));
        }
        let mut total = 0.0;
        for &(fid, field_weight, path) in &self.fields {
            self.heads.clear();
            for all in &self.postings {
                let from = all.partition_point(|p| p.field < fid);
                let to = all.partition_point(|p| p.field <= fid);
                self.heads.push(&all[from..to]);
            }
            total += field_weight * field_score(self.ranker, doc, path, &mut self.heads);
        }
        if let Some(date) = doc.path("date").and_then(Value::as_str) {
            if let Some(year) = date.get(..4).and_then(|y| y.parse::<i32>().ok()) {
                total += self.ranker.weights.recency * f64::from((year - 2019).clamp(0, 10));
            }
        }
        total
    }
}

/// One field's score: `heads` hold each stem's postings within the
/// field, ascending by leaf, and are consumed leaf by leaf — the same
/// depth-first order `score_field` walks the leaves in.
fn field_score(ranker: &Ranker, doc: &Value, path: &str, heads: &mut [&[Posting]]) -> f64 {
    let mut score = 0.0;
    if !ranker.has_phrases() {
        // Leaves without matches contribute exactly 0.0, so folding
        // only the matched leaves yields the same sum as walking
        // every leaf.
        while let Some(leaf) = heads.iter().filter_map(|h| h.first()).map(|p| p.leaf).min() {
            score += leaf_score(ranker, leaf, heads);
        }
    } else {
        // Phrase bonuses need each leaf's raw text (a leaf with no
        // stem match can still contain the phrase), so walk the
        // field's strings in the same DFS order the index numbered
        // them and merge postings by ordinal.
        let mut texts = Vec::new();
        collect_strings(doc.path(path), &mut texts);
        for (ordinal, text) in texts.iter().enumerate() {
            // `score_text` returns early on token-less text — phrase
            // bonuses included — and a text has a token iff it has an
            // alphanumeric character.
            if !text.chars().any(char::is_alphanumeric) {
                continue;
            }
            let mut leaf = 0.0;
            leaf += leaf_score(ranker, ordinal as u32, heads);
            ranker.add_phrase_bonus(text, &mut leaf);
            score += leaf;
        }
    }
    score
}

/// Replay `score_text`'s accumulation for one leaf from the heads that
/// sit on it, and step those heads past it: direct TF·IDF in query order,
/// synonym TF·IDF at the discount, then the proximity bonus over
/// direct-match positions.
fn leaf_score(ranker: &Ranker, leaf: u32, heads: &mut [&[Posting]]) -> f64 {
    /// The positions of a head's first posting, if it sits on `leaf`.
    fn on(head: &[Posting], leaf: u32) -> Option<&[u32]> {
        head.first().filter(|p| p.leaf == leaf).map(|p| p.positions.as_slice())
    }
    let (direct, synonym) = heads.split_at_mut(ranker.query.stems.len());
    let mut score = 0.0;
    let mut direct_hits = 0;
    for (qi, head) in direct.iter().enumerate() {
        if let Some(positions) = on(head, leaf) {
            score += (1.0 + (positions.len() as f64).ln()) * ranker.idf_at(qi);
            direct_hits += 1;
        }
    }
    for (qi, head) in synonym.iter().enumerate() {
        if let Some(positions) = on(head, leaf) {
            let idf = ranker.syn_idf.get(qi).copied().unwrap_or(1.0);
            score += ranker.weights.synonym * (1.0 + (positions.len() as f64).ln()) * idf;
        }
    }
    if direct_hits >= 2 {
        let mut best = u32::MAX;
        for (i, a) in direct.iter().enumerate() {
            for b in &direct[i + 1..] {
                if let (Some(pa), Some(pb)) = (on(a, leaf), on(b, leaf)) {
                    for &x in pa {
                        for &y in pb {
                            best = best.min(x.abs_diff(y));
                        }
                    }
                }
            }
        }
        let dist = best.saturating_sub(1);
        score += ranker.weights.proximity / (1.0 + f64::from(dist));
    }
    for head in direct.iter_mut().chain(synonym) {
        if on(head, leaf).is_some() {
            *head = &head[1..];
        }
    }
    score
}

/// Minimum distance between positions of two different matched stems.
fn min_pair_distance(matched: &[&Vec<usize>]) -> usize {
    let mut best = usize::MAX;
    for i in 0..matched.len() {
        for j in i + 1..matched.len() {
            for &a in matched[i] {
                for &b in matched[j] {
                    best = best.min(a.abs_diff(b));
                }
            }
        }
    }
    best.saturating_sub(1)
}

/// Every string leaf under `value`, depth-first — the order the text
/// index numbers a field's leaves in.
pub(crate) fn collect_strings<'v>(value: Option<&'v Value>, out: &mut Vec<&'v str>) {
    match value {
        Some(Value::Str(s)) => out.push(s),
        Some(Value::Array(items)) => {
            for i in items {
                collect_strings(Some(i), out);
            }
        }
        Some(Value::Object(members)) => {
            for (_, v) in members {
                collect_strings(Some(v), out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use covidkg_json::{arr, obj};

    fn ranker(q: &str) -> Ranker {
        Ranker::new(parse_query(q), RankWeights::publication_default(), None, 100)
    }

    #[test]
    fn title_matches_outweigh_body_matches() {
        let r = ranker("masks");
        let title_doc = obj! { "title" => "masks work", "body" => arr![obj!{"text" => "filler"}] };
        let body_doc = obj! { "title" => "something", "body" => arr![obj!{"text" => "masks work"}] };
        assert!(r.score(&title_doc) > r.score(&body_doc));
    }

    #[test]
    fn more_matches_score_higher() {
        let r = ranker("vaccine");
        let one = obj! { "title" => "vaccine" };
        let three = obj! { "title" => "vaccine vaccine vaccine" };
        assert!(r.score(&three) > r.score(&one));
    }

    #[test]
    fn proximity_bonus_rewards_adjacent_terms() {
        let r = ranker("mask mandate");
        let near = obj! { "title" => "mask mandate effects" };
        let far = obj! { "title" => "mask policies and the later mandate" };
        assert!(r.score(&near) > r.score(&far));
    }

    #[test]
    fn stemming_matches_inflected_forms() {
        let r = ranker("vaccination");
        let doc = obj! { "title" => "vaccinations and vaccinating" };
        assert!(r.score(&doc) > 0.0);
    }

    #[test]
    fn exact_phrase_bonus() {
        let r = ranker("\"dose two\"");
        let hit = obj! { "title" => "after Dose Two reactions" };
        let miss = obj! { "title" => "two separate dose arms" };
        assert!(r.score(&hit) > r.score(&miss));
        assert_eq!(r.score(&miss), 0.0);
    }

    #[test]
    fn recency_is_a_static_feature() {
        let r = ranker("masks");
        let newer = obj! { "title" => "masks", "date" => "2022-01" };
        let older = obj! { "title" => "masks", "date" => "2020-01" };
        assert!(r.score(&newer) > r.score(&older));
    }

    #[test]
    fn idf_rewards_rare_terms_with_index() {
        let idx = TextIndex::new(vec!["title".into()]);
        for i in 0..50 {
            idx.add(&format!("d{i}"), &obj! { "title" => "vaccine study" });
        }
        idx.add("rare", &obj! { "title" => "molnupiravir study" });
        let r = Ranker::new(
            parse_query("vaccine molnupiravir"),
            RankWeights::publication_default(),
            Some(&idx),
            51,
        );
        let vdoc = obj! { "title" => "vaccine" };
        let mdoc = obj! { "title" => "molnupiravir" };
        assert!(r.score(&mdoc) > r.score(&vdoc));
    }

    #[test]
    fn match_spans_cover_stem_and_phrase_hits() {
        let r = ranker("mask \"dose two\"");
        let text = "Masks and dose two protocols";
        let spans = r.match_spans(text);
        let matched: Vec<&str> = spans.iter().map(|&(s, e)| &text[s..e]).collect();
        assert!(matched.contains(&"Masks"));
        assert!(matched.contains(&"dose two"));
    }

    #[test]
    fn synonym_matches_score_at_a_discount() {
        let r = ranker("vaccine");
        let direct = obj! { "title" => "vaccine rollout" };
        let synonym = obj! { "title" => "immunization rollout" };
        let unrelated = obj! { "title" => "ventilator rollout" };
        let (sd, ss, su) = (r.score(&direct), r.score(&synonym), r.score(&unrelated));
        assert!(sd > ss, "direct {sd} must beat synonym {ss}");
        assert!(ss > su, "synonym {ss} must beat unrelated {su}");
        assert_eq!(su, 0.0);
        // Synonym tokens are highlighted too.
        let spans = r.match_spans("immunization works");
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn spans_at_positions_equal_tokenized_spans() {
        let r = ranker("mask \"dose two\"");
        let text = "Masks, dose two: the mask’s fit — masked";
        // What the index would hold for the stem "mask" in this leaf.
        let positions: Vec<u32> = tokenize(text)
            .iter()
            .enumerate()
            .filter(|(_, t)| stem(&t.text.to_lowercase()) == "mask")
            .map(|(i, _)| i as u32)
            .collect();
        assert!(positions.len() >= 2, "{positions:?}");
        assert_eq!(r.spans_at(text, &positions), Some(r.match_spans(text)));
        // A position past the last token means index and text disagree.
        assert_eq!(r.spans_at(text, &[0, 99]), None);
        assert_eq!(r.spans_at(text, &[3, 3]), None, "positions must ascend");
    }

    /// "İ" lowercases to "i̇" (2 bytes to 3), so the phrase's offsets in
    /// the lowercased text lie past the original's: they are mapped back
    /// to the characters they came from.
    #[test]
    fn phrase_spans_index_the_original_text() {
        let r = ranker("\"mask\"");
        let text = "İİ mask";
        assert_eq!(r.match_spans(text), [(5, 9)]);
        assert_eq!(&text[5..9], "mask");
        assert_eq!(r.spans_at(text, &[]), Some(vec![(5, 9)]));
        // A phrase that starts inside a character's lowercase expansion
        // covers the whole character.
        let r = ranker("\"i̇stanbul\"");
        assert_eq!(r.match_spans("in İstanbul"), [(3, 12)]);
        // Characters whose lowercase keeps its length map one to one.
        let r = ranker("\"dose two\"");
        assert_eq!(r.match_spans("Ärzte: DOSE TWO"), [(8, 16)]);
    }

    #[test]
    fn no_query_terms_scores_zero() {
        let r = ranker("the of");
        assert_eq!(r.score(&obj! { "title" => "anything" }), 0.0);
    }

    #[test]
    fn nested_fields_are_searched() {
        let r = ranker("ventilators");
        let doc = obj! {
            "tables" => arr![ obj!{ "caption" => "ventilator counts", "html" => "<table>…</table>" } ],
        };
        assert!(r.score(&doc) > 0.0);
    }

    #[test]
    fn postings_scorer_is_bit_identical_to_tokenizing_scorer() {
        let fields: Vec<String> = ["title", "abstract", "tables", "figure_captions", "body"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let idx = TextIndex::new(fields);
        let docs = [
            obj! {
                "_id" => "a",
                "title" => "Mask mandate efficacy for mask use",
                "abstract" => "Immunization and vaccine dose two outcomes",
                "tables" => arr![
                    obj!{ "caption" => "dose outcomes", "html" => "<table>…</table>" },
                    obj!{ "caption" => "§§§" },
                ],
                "body" => arr![ obj!{ "heading" => "Methods", "text" => "masked cohort" } ],
                "date" => "2022-03",
            },
            obj! { "_id" => "b", "title" => "dose two", "date" => "2019-01" },
            obj! { "_id" => "c", "body" => arr![] },
        ];
        for d in &docs {
            idx.add(d.get("_id").unwrap().as_str().unwrap(), d);
        }
        for q in [
            "mask",
            "mask mandate",
            "vaccine dose",
            "\"dose two\" mask",
            "\"dose outcomes\"",
            "unmatched query words",
        ] {
            let r = Ranker::new(parse_query(q), RankWeights::publication_default(), Some(&idx), 3);
            let reader = idx.read();
            let mut scorer = r.postings_scorer(&reader).expect("every ranked field is indexed");
            for d in &docs {
                let id = d.get("_id").unwrap().as_str().unwrap();
                let naive = r.score(d);
                let fast = scorer.score(id, d);
                assert_eq!(
                    naive.to_bits(),
                    fast.to_bits(),
                    "query {q:?} doc {id}: naive {naive} vs postings {fast}"
                );
            }
        }
        // An index missing a ranked field is not a valid stand-in.
        let partial = TextIndex::new(vec!["title".into()]);
        let r = Ranker::new(parse_query("mask"), RankWeights::publication_default(), None, 1);
        assert!(r.postings_scorer(&partial.read()).is_none());
    }

    #[test]
    fn min_pair_distance_math() {
        let a = vec![0usize, 10];
        let b = vec![3usize];
        assert_eq!(min_pair_distance(&[&a, &b]), 2);
        let adjacent = vec![4usize];
        let c = vec![5usize];
        assert_eq!(min_pair_distance(&[&adjacent, &c]), 0);
    }
}
