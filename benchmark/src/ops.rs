//! Input generation: the corpus, the publications the write path
//! ingests, and from the seed the request targets in fixed-composition
//! blocks.
//!
//! The data set is fixed (`CORPUS_SEED`). The seed decides the traffic:
//! *parameters* (which terms, node ids, fan-outs) and order; the
//! *shape* of every block — how many ops of each class, and
//! within a class how many terms / which page / which traversal
//! pattern — is fixed per workload, so block times of one run are
//! comparable with each other and with another seed's.

use covidkg_core::QueryPlan;
use covidkg_corpus::{all_topics, CorpusGenerator, Publication};
use covidkg_json::Value;
use covidkg_rand::seq::SliceRandom;
use covidkg_rand::{Rng, SeedableRng, SmallRng};
use covidkg_search::{cache_key, dense_cache_key, parse_query, DenseMode, SearchMode};
use covidkg_text::{stem, tokenize_lower};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Request classes, one per serve-layer entry point the wire reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    AllFields,
    Scoped,
    Tables,
    Semantic,
    Hybrid,
    KgQuery,
    KgQueryTrust,
    KgProfile,
    KgNode,
    TrustNode,
    TrustSource,
    BiasReport,
    Ingest,
}

impl Class {
    pub const READS: [Class; 12] = [
        Class::AllFields,
        Class::Scoped,
        Class::Tables,
        Class::Semantic,
        Class::Hybrid,
        Class::KgQuery,
        Class::KgQueryTrust,
        Class::KgProfile,
        Class::KgNode,
        Class::TrustNode,
        Class::TrustSource,
        Class::BiasReport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::AllFields => "all-fields",
            Class::Scoped => "scoped",
            Class::Tables => "tables",
            Class::Semantic => "semantic",
            Class::Hybrid => "hybrid",
            Class::KgQuery => "kg-query",
            Class::KgQueryTrust => "kg-query-trust",
            Class::KgProfile => "kg-profile",
            Class::KgNode => "kg-node",
            Class::TrustNode => "trust-node",
            Class::TrustSource => "trust-source",
            Class::BiasReport => "bias-report",
            Class::Ingest => "ingest",
        }
    }

    pub fn is_search(self) -> bool {
        matches!(
            self,
            Class::AllFields | Class::Scoped | Class::Tables | Class::Semantic | Class::Hybrid
        )
    }
}

/// The typed form of an op, for the in-process calls that mirror what
/// `net::router` does with the wire target.
#[derive(Debug, Clone)]
pub enum Call {
    Lexical(SearchMode, usize),
    Dense(DenseMode, usize),
    KgQuery(QueryPlan),
    KgQueryTrust(QueryPlan),
    KgProfile(String),
    KgNode(usize),
    TrustNode(usize),
    TrustSource(String),
    BiasReport,
    /// Index into [`Inputs::new_pubs`].
    Ingest(usize),
}

/// One operation: a wire target plus its typed twin.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// Latency group: index into [`Workload::groups`].
    pub group: u8,
    /// Request target (`/search/…?q=…`); for an ingest, the read that
    /// must find the new publication.
    pub target: String,
    pub call: Call,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchCold,
    GraphCold,
    WireHot,
    MixedIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchCold,
        Workload::GraphCold,
        Workload::WireHot,
        Workload::MixedIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search-cold",
            Workload::GraphCold => "graph-cold",
            Workload::WireHot => "wire-hot",
            Workload::MixedIngest => "mixed-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency groups: requests whose costs are alike enough that a
    /// median over them means something. The weighted latency sums over
    /// (group, cache outcome).
    pub fn groups(self) -> &'static [&'static str] {
        match self {
            Workload::SearchCold => &["all-fields", "scoped", "tables", "semantic", "hybrid"],
            Workload::GraphCold => &["kg-query", "kg-query-trust"],
            Workload::WireHot => &["search", "kg-query", "lookup"],
            Workload::MixedIngest => &["hot", "cold-search", "cold-graph", "ingest"],
        }
    }
}

/// What fixes a search request's cost before the seed picks its words:
/// how many terms, whether quoted, and how common the words are. The
/// number of documents a word matches sets how many a query scores
/// (all-fields costs about 85 us per matching document), so words are
/// drawn from one frequency `tier` per shape: blocks then cost alike,
/// and so do seeds.
#[derive(Clone, Copy)]
struct QueryShape {
    terms: usize,
    quoted: bool,
    tier: usize,
}

const fn q(terms: usize, quoted: bool, tier: usize) -> QueryShape {
    QueryShape {
        terms,
        quoted,
        tier,
    }
}

/// Tiers by the share of the corpus a word matches: up to a tenth (a
/// word of one topic), up to a third, up to three quarters, more.
const TIER_BOUNDS: [f64; 3] = [0.10, 0.34, 0.75];
const RARE: usize = 0;
const MID: usize = 1;
const COMMON: usize = 2;
const UBIQUITOUS: usize = 3;
/// Result pages requested per tier: every tier's words match enough
/// documents to fill them.
const TIER_PAGES: [usize; 4] = [2, 3, 4, 8];
const QUERY_SHAPES: [QueryShape; 8] = [
    q(1, false, RARE),
    q(2, false, RARE),
    q(1, false, MID),
    q(1, false, COMMON),
    q(1, false, UBIQUITOUS),
    q(2, false, MID),
    q(1, true, RARE),
    q(3, false, RARE),
];

/// Traversal shapes: start kind, steps and a fan-out band. `term` and
/// `node` starts take a seeded parameter; k is seeded over 1..=100 and
/// the fan-out within the band, so the bands together span 4..=64 while
/// one shape's cost stays in one place.
const PLAN_SHAPES: [(&str, &str, (usize, usize)); 14] = [
    ("kind:entity", "co", (12, 20)),
    ("term", "co", (4, 64)),
    ("kind:category", "child,co", (12, 20)),
    ("node", "child,any", (4, 64)),
    ("term", "any,co", (4, 64)),
    ("kind:category", "child:entity", (4, 64)),
    ("term", "parent,child", (4, 64)),
    ("kind:entity", "parent,child:entity", (24, 40)),
    ("node", "child,child,co", (4, 64)),
    ("kind:root", "child,child", (4, 64)),
    ("term", "co,parent", (4, 64)),
    ("node", "any,any,any", (4, 64)),
    ("kind:entity", "co", (4, 8)),
    ("node", "co,any", (4, 64)),
];

/// Vaccine profiles requested: the corpus's most reported vaccines, so
/// that even a smoke-sized corpus has a profile for each.
const PROFILES: usize = 3;
const VENUES: [&str; 5] = [
    "Journal of Synthetic Medicine",
    "Annals of Reproducible Epidemiology",
    "Lancet of Benchmarks",
    "Synthetic Clinical Reports",
    "Open Pandemic Letters",
];
/// Node ids every corpus size the benchmark uses has (the seed graph
/// alone is larger).
const NODE_IDS: usize = 40;

/// Percent-encode a query-parameter or path-segment value.
fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Every string under `v`, appended to `out`.
fn strings(v: &Value, out: &mut String) {
    match v {
        Value::Str(s) => {
            out.push_str(s);
            out.push(' ');
        }
        Value::Array(items) => items.iter().for_each(|i| strings(i, out)),
        Value::Object(fields) => fields.iter().for_each(|(_, f)| strings(f, out)),
        _ => {}
    }
}

/// The topic banks' words in tiers of how many documents of `corpus` a
/// query for the word matches (its stems and synonym stems, over the
/// indexed text fields, as the engines match them); within a tier
/// sorted by the word, so the split depends on nothing but the corpus.
fn frequency_tiers(corpus: &[Publication]) -> Vec<Vec<&'static str>> {
    let mut words: Vec<&'static str> = all_topics()
        .iter()
        .flat_map(|t| t.terms.iter().chain(t.entities.iter()).copied())
        .collect();
    words.sort_unstable();
    words.dedup();
    let fields = Publication::text_fields();
    let doc_stems: Vec<HashSet<String>> = corpus
        .iter()
        .map(|p| {
            let doc = p.to_doc();
            let mut text = String::new();
            for f in &fields {
                if let Some(v) = doc.get(f) {
                    strings(v, &mut text);
                }
            }
            tokenize_lower(&text).iter().map(|t| stem(t)).collect()
        })
        .collect();
    let matched: HashMap<&str, usize> = words
        .iter()
        .map(|w| {
            let parsed = parse_query(w);
            let n = doc_stems
                .iter()
                .filter(|d| {
                    parsed
                        .stems
                        .iter()
                        .chain(&parsed.synonym_stems)
                        .any(|s| d.contains(s))
                })
                .count();
            (*w, n)
        })
        .collect();
    let mut tiers = vec![Vec::new(); TIER_BOUNDS.len() + 1];
    for w in words {
        let share = matched[w] as f64 / corpus.len() as f64;
        let tier = TIER_BOUNDS
            .iter()
            .position(|&b| share <= b)
            .unwrap_or(TIER_BOUNDS.len());
        tiers[tier].push(w);
    }
    tiers
}

/// The `PROFILES` vaccines with the most side-effect cells in `corpus`,
/// spelled as the profile store keys them (first letter capital only).
fn top_vaccines(corpus: &[Publication]) -> Vec<String> {
    let mut cells: HashMap<&str, usize> = HashMap::new();
    for cell in corpus
        .iter()
        .flat_map(|p| &p.tables)
        .flat_map(|t| &t.side_effects)
    {
        *cells.entry(cell.vaccine.as_str()).or_default() += 1;
    }
    let mut ranked: Vec<(&str, usize)> = cells.into_iter().collect();
    ranked.sort_by_key(|&(v, n)| (std::cmp::Reverse(n), v));
    ranked
        .into_iter()
        .take(PROFILES)
        .map(|(v, _)| {
            let (first, rest) = v.split_at(1);
            first.to_uppercase() + &rest.to_lowercase()
        })
        .collect()
}

/// What target generation reads off the corpus, and the cache keys
/// handed out so far.
struct Vocabulary {
    tiers: Vec<Vec<&'static str>>,
    vaccines: Vec<String>,
    /// Shared by every generator of one run: the serve cache keys a
    /// search by its stems, so `immunity` from the hot set and
    /// `immunization` from a cold pool would share an entry.
    seen: RefCell<HashSet<String>>,
}

/// Generates distinct targets of one class; distinct by the serve
/// layer's own cache key, so two ops never share a cache entry.
struct TargetGen<'a> {
    rng: SmallRng,
    seen: &'a RefCell<HashSet<String>>,
    vaccines: &'a [String],
    /// Frequency tiers, each in an order of this generator's own.
    tiers: Vec<Vec<&'a str>>,
    /// Queries drawn per shape so far: the position in its tier.
    drawn: [usize; QUERY_SHAPES.len()],
}

impl<'a> TargetGen<'a> {
    fn new(seed: u64, vocabulary: &'a Vocabulary) -> TargetGen<'a> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tiers = vocabulary
            .tiers
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.shuffle(&mut rng);
                t
            })
            .collect();
        TargetGen {
            rng,
            seen: &vocabulary.seen,
            vaccines: &vocabulary.vaccines,
            tiers,
            drawn: [0; QUERY_SHAPES.len()],
        }
    }

    /// The next query of a shape, or `None` once the tier's words and
    /// pages are used up: the tier's words in turn, so a phase uses each
    /// about equally often, then the next page.
    fn query_text(&mut self, shape_ix: usize) -> Option<(String, usize)> {
        let shape = QUERY_SHAPES[shape_ix];
        let tier = &self.tiers[shape.tier];
        let j = self.drawn[shape_ix];
        if tier.len() < shape.terms || j >= tier.len() * TIER_PAGES[shape.tier] {
            return None;
        }
        self.drawn[shape_ix] += 1;
        let round = j / tier.len();
        let mut words = vec![tier[j % tier.len()]];
        for t in 1..shape.terms {
            // A partner that changes with every pass through the tier.
            words.push(tier[(j + t * (round + 1)) % tier.len()]);
        }
        let text = if shape.quoted {
            format!("\"{}\"", words.join(" "))
        } else {
            words.join(" ")
        };
        Some((text, round))
    }

    fn search(&mut self, class: Class, shape_ix: usize, group: u8) -> Option<Op> {
        let shape_ix = shape_ix % QUERY_SHAPES.len();
        loop {
            let (q, page) = self.query_text(shape_ix)?;
            let (engine, call, key) = match class {
                Class::AllFields => {
                    let m = SearchMode::AllFields(q.clone());
                    (
                        "all-fields",
                        Call::Lexical(m.clone(), page),
                        cache_key(&m, page),
                    )
                }
                Class::Tables => {
                    let m = SearchMode::Tables(q.clone());
                    (
                        "tables",
                        Call::Lexical(m.clone(), page),
                        cache_key(&m, page),
                    )
                }
                Class::Scoped => {
                    let m = SearchMode::TitleAbstractCaption {
                        title: q.clone(),
                        abstract_q: q.clone(),
                        caption: q.clone(),
                    };
                    (
                        "scoped",
                        Call::Lexical(m.clone(), page),
                        cache_key(&m, page),
                    )
                }
                Class::Semantic => {
                    let m = DenseMode::Semantic(q.clone());
                    (
                        "semantic",
                        Call::Dense(m.clone(), page),
                        dense_cache_key(&m, page),
                    )
                }
                Class::Hybrid => {
                    let m = DenseMode::Hybrid(q.clone());
                    (
                        "hybrid",
                        Call::Dense(m.clone(), page),
                        dense_cache_key(&m, page),
                    )
                }
                _ => unreachable!("search classes only"),
            };
            if self.seen.borrow_mut().insert(key) {
                let target = format!("/search/{engine}?q={}&page={page}", encode(&q));
                return Some(Op {
                    class,
                    group,
                    target,
                    call,
                });
            }
        }
    }

    fn kg_query(&mut self, trust: bool, shape_ix: usize, group: u8) -> Op {
        let (start_kind, steps, (lo, hi)) = PLAN_SHAPES[shape_ix % PLAN_SHAPES.len()];
        loop {
            let start = match start_kind {
                "term" => {
                    let t = all_topics().choose(&mut self.rng).expect("topics");
                    format!(
                        "term:{}",
                        t.entities.choose(&mut self.rng).expect("entities")
                    )
                }
                "node" => format!("node:{}", self.rng.gen_range(0..NODE_IDS)),
                fixed => fixed.to_string(),
            };
            let fanout = self.rng.gen_range(lo..=hi);
            let k = self.rng.gen_range(1..=100usize);
            let plan = QueryPlan::parse(&start, steps, fanout, k).expect("generated plan parses");
            if self.seen.borrow_mut().insert(plan.cache_key()) {
                let mut target = format!(
                    "/kg/query?start={}&steps={}&fanout={fanout}&k={k}",
                    encode(&start),
                    encode(steps)
                );
                if trust {
                    target.push_str("&trust=1");
                }
                let (class, call) = if trust {
                    (Class::KgQueryTrust, Call::KgQueryTrust(plan))
                } else {
                    (Class::KgQuery, Call::KgQuery(plan))
                };
                return Op {
                    class,
                    group,
                    target,
                    call,
                };
            }
        }
    }

    /// The `ix`-th lookup target of a class with a small fixed domain.
    fn lookup(&mut self, class: Class, ix: usize, group: u8) -> Op {
        let (target, call) = match class {
            Class::KgProfile => {
                let v = &self.vaccines[ix % self.vaccines.len()];
                (format!("/kg/profile/{v}"), Call::KgProfile(v.clone()))
            }
            Class::KgNode => {
                let id = ix % NODE_IDS;
                (format!("/kg/node/{id}"), Call::KgNode(id))
            }
            Class::TrustNode => {
                let id = ix % NODE_IDS;
                (format!("/trust/node/{id}"), Call::TrustNode(id))
            }
            Class::TrustSource => {
                let v = VENUES[ix % VENUES.len()];
                (
                    format!("/trust/source/{}", encode(v)),
                    Call::TrustSource(v.to_string()),
                )
            }
            Class::BiasReport => ("/bias/report".to_string(), Call::BiasReport),
            _ => unreachable!("lookup classes only"),
        };
        Op {
            class,
            group,
            target,
            call,
        }
    }

    /// The next target of a class and shape; `None` once a search
    /// shape has no unused query left.
    fn one(&mut self, class: Class, shape_ix: usize, group: u8) -> Option<Op> {
        Some(match class {
            c if c.is_search() => return self.search(c, shape_ix, group),
            Class::KgQuery => self.kg_query(false, shape_ix, group),
            Class::KgQueryTrust => self.kg_query(true, shape_ix, group),
            c => {
                // Lookups draw their parameter from the seed.
                let r = self.rng.gen_range(0..usize::MAX / 2);
                self.lookup(c, r, group)
            }
        })
    }
}

/// Everything a run feeds the program.
pub struct Inputs {
    pub workload: Workload,
    /// The corpus the system is built over: the same for every seed.
    pub corpus: Vec<Publication>,
    /// Publications the write path ingests, one per `Ingest` op: the
    /// generator's next ones after the corpus.
    pub new_pubs: Vec<Publication>,
    /// Targets requested once during set-up. For `wire-hot` and the hot
    /// half of `mixed-ingest` this is the hot set itself; for the cold
    /// workloads, targets no measured request repeats.
    pub warmup: Vec<Op>,
    /// Measured ops, block after block, each block `block_ops` long.
    pub ops: Vec<Op>,
    pub block_ops: usize,
    /// `mixed-ingest`: what the open loop's writer ingests, in order.
    pub open_ingests: Vec<Op>,
    /// Cold ops of every read class plus ingests, appended to the traced
    /// replay so every per-layer metric has samples on every workload.
    pub supplement: Vec<Op>,
    pub distinct_targets: usize,
}

/// A token no other document contains, so one read finds exactly the
/// publication an ingest added.
fn marker(index: usize) -> String {
    let mut n = index;
    let mut s = String::from("zq");
    for _ in 0..5 {
        s.push((b'a' + (n % 26) as u8) as char);
        n /= 26;
    }
    s
}

fn ingest_op(pub_ix: usize, group: u8) -> Op {
    Op {
        class: Class::Ingest,
        group,
        target: format!("/search/all-fields?q={}&page=0", marker(pub_ix)),
        call: Call::Ingest(pub_ix),
    }
}

/// Interleave the classes of one block round-robin, largest class
/// first, so no stretch of a block is all one class.
fn interleave(mut per_class: Vec<Vec<Op>>) -> Vec<Op> {
    per_class.sort_by_key(|v| std::cmp::Reverse(v.len()));
    let total: usize = per_class.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = per_class.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for it in iters.iter_mut() {
            if let Some(op) = it.next() {
                out.push(op);
            }
        }
    }
    out
}

/// One class's part of every block: its latency group and the shapes
/// it sends, once each per block.
type MixEntry = (Class, u8, &'static [usize]);

/// Blocks of cold requests: each slot of a block (one shape of one
/// class) cycles through targets of its own, `distinct` over all slots
/// unless a shape has fewer to give. Also returns one target per slot
/// that no block contains, for the warm-up, and the distinct count.
fn cold_blocks(
    seed: u64,
    vocabulary: &Vocabulary,
    mix: &[MixEntry],
    distinct: usize,
    blocks: usize,
) -> (Vec<Vec<Op>>, Vec<Op>, usize) {
    let block_ops: usize = mix.iter().map(|m| m.2.len()).sum();
    let per_slot = distinct.div_ceil(block_ops);
    let mut warmup = Vec::new();
    let mut slots: Vec<Vec<Vec<Op>>> = Vec::new();
    for (i, &(class, group, shapes)) in mix.iter().enumerate() {
        let mut gen = TargetGen::new(
            seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
            vocabulary,
        );
        let mut class_slots: Vec<Vec<Op>> = vec![Vec::new(); shapes.len()];
        // Round-robin over the slots, so slots that share a shape share
        // its targets evenly.
        for _ in 0..per_slot {
            for (slot, &shape) in class_slots.iter_mut().zip(shapes) {
                slot.extend(gen.one(class, shape, group));
            }
        }
        warmup.extend(shapes.iter().filter_map(|&s| gen.one(class, s, group)));
        assert!(
            class_slots.iter().all(|s| !s.is_empty()),
            "a {} shape has no targets",
            class.name()
        );
        slots.push(class_slots);
    }
    let blocks = (0..blocks)
        .map(|b| {
            interleave(
                slots
                    .iter()
                    .map(|class_slots| {
                        class_slots
                            .iter()
                            .map(|pool| pool[b % pool.len()].clone())
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect();
    let distinct = slots.iter().flatten().map(Vec::len).sum();
    (blocks, warmup, distinct)
}

const SEARCH_MIX: [MixEntry; 5] = [
    (Class::AllFields, 0, &[0, 1, 2, 3]),
    (Class::Scoped, 1, &[0, 1, 2, 3, 4, 6]),
    (Class::Tables, 2, &[0, 2, 3, 4]),
    (Class::Semantic, 3, &[0, 1, 2]),
    (Class::Hybrid, 4, &[0, 2, 3]),
];
const GRAPH_MIX: [MixEntry; 2] = [
    (
        Class::KgQuery,
        0,
        &[
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
            13,
        ],
    ),
    (
        Class::KgQueryTrust,
        1,
        &[0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5],
    ),
];
/// The cold half of a `mixed-ingest` block.
const MIXED_SEARCH_MIX: [MixEntry; 5] = [
    (Class::AllFields, 1, &[0, 2]),
    (Class::Scoped, 1, &[0, 1, 3, 6]),
    (Class::Tables, 1, &[0, 3]),
    (Class::Semantic, 1, &[0, 1]),
    (Class::Hybrid, 1, &[0, 2]),
];
const MIXED_GRAPH_MIX: [MixEntry; 2] = [
    (Class::KgQuery, 2, &[1, 2, 3, 4, 5, 6, 7, 8]),
    (Class::KgQueryTrust, 2, &[0, 1, 3, 5]),
];
/// The hot set: `(class, latency group in wire-hot, targets)`, 64
/// targets over every route.
const HOT_SET: [(Class, u8, usize); 12] = [
    (Class::AllFields, 0, 6),
    (Class::Scoped, 0, 6),
    (Class::Tables, 0, 6),
    (Class::Semantic, 0, 6),
    (Class::Hybrid, 0, 6),
    (Class::KgQuery, 1, 8),
    (Class::KgQueryTrust, 1, 4),
    (Class::KgProfile, 2, PROFILES),
    (Class::KgNode, 2, 8),
    (Class::TrustNode, 2, 5),
    (Class::TrustSource, 2, 5),
    (Class::BiasReport, 2, 1),
];
/// Distinct targets a cold workload cycles through: 4x the serve cache.
const COLD_DISTINCT: usize = 2048;
/// `mixed-ingest`: hot targets per block and how often each is read.
const MIXED_HOT_TARGETS: usize = 6;
const MIXED_HOT_READS: usize = 6;
/// Seed of the corpus and of the publications the write path ingests.
/// The data set is the same in every run, as CORD-19 is for the site,
/// and `--seed` decides the traffic; every set-up then does the same
/// work, so `setup_s` compares across seeds.
const CORPUS_SEED: u64 = 2023;
/// Left out of the publications to ingest, by name: at the commit that
/// adds the benchmark `Server::ingest` panics on it (README "A defect
/// the workload leaves out"), and a workload holds no operation that
/// fails. Nothing here looks at the program: a commit that makes
/// another publication fail shows in `failed`.
const NOT_INGESTED: [&str; 1] = ["paper-000375"];
/// Ingests appended to the traced replay.
const SUPPLEMENT_INGESTS: usize = 4;
/// Cold targets per read class appended to the traced replay.
const SUPPLEMENT_PER_CLASS: usize = 12;

/// Reads in one block of the op list; `rounds` is how often the block
/// repeats its workload's mix (for `wire-hot`, the hot set).
pub fn reads_per_block(workload: Workload, rounds: usize) -> usize {
    let reads = |mix: &[MixEntry]| mix.iter().map(|m| m.2.len()).sum::<usize>();
    rounds
        * match workload {
            Workload::SearchCold => reads(&SEARCH_MIX),
            Workload::GraphCold => reads(&GRAPH_MIX),
            Workload::WireHot => HOT_SET.iter().map(|h| h.2).sum::<usize>(),
            Workload::MixedIngest => {
                MIXED_HOT_TARGETS * MIXED_HOT_READS
                    + reads(&MIXED_SEARCH_MIX)
                    + reads(&MIXED_GRAPH_MIX)
            }
        }
}

/// The hot set: like the corpus, the same for every seed (the seed
/// decides the order its targets are requested in), so that every run
/// of `wire-hot` moves the same bytes.
fn hot_set(vocabulary: &Vocabulary, group_of: impl Fn(u8) -> u8) -> Vec<Op> {
    let mut out = Vec::new();
    for (i, &(class, group, n)) in HOT_SET.iter().enumerate() {
        let mut gen = TargetGen::new(CORPUS_SEED ^ 0x0407 ^ ((i as u64) << 32), vocabulary);
        let first = gen.rng.gen_range(0..NODE_IDS);
        let g = group_of(group);
        out.extend((0..n).map(|j| match class {
            // Distinct ids and names: consecutive from a seeded start.
            Class::KgProfile
            | Class::KgNode
            | Class::TrustNode
            | Class::TrustSource
            | Class::BiasReport => gen.lookup(class, first + j, g),
            c => gen.one(c, j, g).expect("hot target"),
        }));
    }
    out
}

/// `rounds` consecutive one-round blocks joined into one.
fn join_rounds(blocks: Vec<Vec<Op>>, rounds: usize) -> Vec<Vec<Op>> {
    blocks.chunks(rounds).map(|c| c.concat()).collect()
}

impl Inputs {
    /// Inputs for `blocks` blocks of `rounds` rounds over a corpus of
    /// `corpus_size`; `open_ingests` is how many publications the open
    /// loop's writer may need.
    pub fn generate(
        workload: Workload,
        seed: u64,
        corpus_size: usize,
        blocks: usize,
        rounds: usize,
        open_ingests: usize,
    ) -> Inputs {
        let (ingests, open_ingests) = if workload == Workload::MixedIngest {
            (blocks, open_ingests)
        } else {
            (0, 0)
        };
        let wanted = ingests + open_ingests + SUPPLEMENT_INGESTS;
        let mut corpus =
            CorpusGenerator::with_size(corpus_size + wanted + NOT_INGESTED.len(), CORPUS_SEED)
                .generate();
        let mut new_pubs = corpus.split_off(corpus_size);
        new_pubs.retain(|p| !NOT_INGESTED.contains(&p.id.as_str()));
        new_pubs.truncate(wanted);
        for (i, p) in new_pubs.iter_mut().enumerate() {
            p.title = format!("{} {}", p.title, marker(i));
        }
        let vocabulary = Vocabulary {
            tiers: frequency_tiers(&corpus),
            vaccines: top_vaccines(&corpus),
            seen: RefCell::new(HashSet::new()),
        };

        let (blocks_ops, warmup, distinct_targets) = match workload {
            Workload::SearchCold | Workload::GraphCold => {
                let mix: &[MixEntry] = if workload == Workload::SearchCold {
                    &SEARCH_MIX
                } else {
                    &GRAPH_MIX
                };
                let (b, warmup, n) =
                    cold_blocks(seed, &vocabulary, mix, COLD_DISTINCT, blocks * rounds);
                (join_rounds(b, rounds), warmup, n)
            }
            Workload::WireHot => {
                let hot = hot_set(&vocabulary, |g| g);
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0b10c);
                let b = (0..blocks)
                    .map(|_| {
                        let mut block = Vec::with_capacity(hot.len() * rounds);
                        for _ in 0..rounds {
                            let mut round = hot.clone();
                            round.shuffle(&mut rng);
                            block.extend(round);
                        }
                        block
                    })
                    .collect();
                let n = hot.len();
                (b, hot, n)
            }
            Workload::MixedIngest => {
                // One ingest; hot reads repeated within the block, so
                // repeats can hit although each block's commit empties
                // the cache; cold searches and cold traversals.
                let hot = hot_set(&vocabulary, |_| 0);
                let (cold_s, _, n_s) = cold_blocks(
                    seed,
                    &vocabulary,
                    &MIXED_SEARCH_MIX,
                    COLD_DISTINCT / 2,
                    blocks * rounds,
                );
                let (cold_g, _, n_g) = cold_blocks(
                    seed ^ 0x6a09,
                    &vocabulary,
                    &MIXED_GRAPH_MIX,
                    COLD_DISTINCT / 2,
                    blocks * rounds,
                );
                let b = join_rounds(cold_s, rounds)
                    .into_iter()
                    .zip(join_rounds(cold_g, rounds))
                    .enumerate()
                    .map(|(i, (s, g))| {
                        let reads = MIXED_HOT_READS * rounds;
                        let mut hot_reads = Vec::with_capacity(MIXED_HOT_TARGETS * reads);
                        for r in 0..reads {
                            for t in 0..MIXED_HOT_TARGETS {
                                let ix = i * MIXED_HOT_TARGETS + (t + r) % MIXED_HOT_TARGETS;
                                hot_reads.push(hot[ix % hot.len()].clone());
                            }
                        }
                        let mut block = vec![ingest_op(i, 3)];
                        block.extend(interleave(vec![hot_reads, s, g]));
                        block
                    })
                    .collect();
                let n = hot.len();
                (b, hot, n + n_s + n_g)
            }
        };
        let block_ops = blocks_ops.first().map_or(0, Vec::len);
        debug_assert!(blocks_ops.iter().all(|b| b.len() == block_ops));

        let mut supplement = Vec::new();
        for (i, class) in Class::READS.into_iter().enumerate() {
            let mut gen = TargetGen::new(seed ^ 0x5a99 ^ ((i as u64) << 40), &vocabulary);
            let n = if class == Class::BiasReport {
                1
            } else {
                SUPPLEMENT_PER_CLASS
            };
            supplement.extend((0..n).filter_map(|j| gen.one(class, j, 0)));
        }
        supplement
            .extend((0..SUPPLEMENT_INGESTS).map(|j| ingest_op(ingests + open_ingests + j, 0)));

        Inputs {
            workload,
            corpus,
            new_pubs,
            warmup,
            ops: blocks_ops.concat(),
            block_ops,
            open_ingests: (0..open_ingests)
                .map(|j| ingest_op(ingests + j, 3))
                .collect(),
            supplement,
            distinct_targets,
        }
    }

    /// The op list as bytes, for the determinism check and the digest.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, ops) in [
            ("warmup", &self.warmup),
            ("ops", &self.ops),
            ("open-ingest", &self.open_ingests),
            ("supplement", &self.supplement),
        ] {
            for (i, op) in ops.iter().enumerate() {
                out.push_str(&format!(
                    "{name} {i} {} {} {}\n",
                    op.class.name(),
                    op.group,
                    op.target
                ));
            }
        }
        for p in &self.new_pubs {
            out.push_str(&format!("ingest {} {}\n", p.id, p.title));
        }
        out
    }
}

/// FNV-1a, to name an op list in a result without storing it.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
