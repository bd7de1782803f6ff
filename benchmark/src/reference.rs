//! The host-speed reference (README "Why a speed reference").
//!
//! The sandbox's speed moves by 30-50 % for minutes at a time, memory
//! accesses more than arithmetic, so no statistic of a run's own block
//! times repeats. After every measured block the client threads run one
//! pass of this fixed piece of work - an inverted index of the
//! benchmark's own, queried, scored, sorted and rendered, so that it
//! mixes hashing, pointer-chasing, sorting and string building much as
//! the program does - and the block's time is divided by the pass's.
//! It shares no code with the program: nothing a commit changes can
//! move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// One pass on the calibration host when it is quiet, seconds
/// (CALIBRATION.md). Timings are reported as `measured / (pass /
/// NOMINAL_PASS_S)`: what the calibration host gives when quiet.
pub const NOMINAL_PASS_S: f64 = 0.0025;

const DOCS: u32 = 4_000;
const TOKENS_PER_DOC: usize = 120;
const VOCABULARY: usize = 20_000;
const QUERIES: usize = 80;
/// Queries draw on the most common terms: long posting lists.
const COMMON_TERMS: usize = 600;

/// Unkeyed, so the table layout is the same in every process.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

pub struct Reference {
    postings: FixedMap<String, Vec<(u32, f32)>>,
    queries: Vec<[String; 2]>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut postings: FixedMap<String, Vec<(u32, f32)>> = FixedMap::default();
        for doc in 0..DOCS {
            for _ in 0..TOKENS_PER_DOC {
                // The square of a uniform draw: a few terms are common.
                let u = (xorshift(&mut x) % 1_000_000) as f64 / 1e6;
                let term = (u * u * VOCABULARY as f64) as usize;
                let list = postings.entry(format!("term{term:05}")).or_default();
                match list.last_mut() {
                    Some(last) if last.0 == doc => last.1 += 1.0,
                    _ => list.push((doc, 1.0)),
                }
            }
        }
        let term = |i: usize| format!("term{:05}", i % COMMON_TERMS);
        let queries = (0..QUERIES)
            .map(|q| [term(q * 131), term(q * 131 + 17)])
            .collect();
        Reference { postings, queries }
    }

    /// One pass over the fixed queries; seconds.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut rendered = 0usize;
        for query in &self.queries {
            let mut scores: FixedMap<u32, f32> = FixedMap::default();
            for term in query {
                if let Some(list) = self.postings.get(term) {
                    let idf = (DOCS as f32 / list.len() as f32).ln();
                    for &(doc, tf) in list {
                        *scores.entry(doc).or_default() += tf * idf;
                    }
                }
            }
            let mut ranked: Vec<(u32, f32)> = scores.into_iter().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut page = String::new();
            for (doc, score) in ranked.iter().take(20) {
                page.push_str(&format!("{{\"id\":\"doc{doc}\",\"score\":{score:.4}}},"));
            }
            rendered += std::hint::black_box(page).len();
        }
        std::hint::black_box(rendered);
        start.elapsed().as_secs_f64()
    }
}
