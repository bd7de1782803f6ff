//! The HNSW proximity graph (Malkov & Yashunin, TPAMI 2018).
//!
//! Layout: every indexed vector is a node with a *level* drawn from a
//! geometric distribution (`P(level ≥ l) = (1/M)^l`), seeded on the
//! external id so the level — and therefore the graph — does not depend
//! on insertion order for the same id set. A node at level `l` keeps an
//! adjacency list on every layer `0..=l`: at most `M` neighbors on the
//! upper layers, `2·M` on the base layer (the paper's `M_max0`).
//! Queries greedily descend the sparse upper layers (beam width 1) to a
//! good entry point, then run a best-first beam search with an
//! `ef_search`-bounded candidate list on the base layer.
//!
//! Vectors are L2-normalized at insert, so "distance" is a single dot
//! product (cosine similarity, larger = closer). Ties on similarity
//! break toward the smaller external id, matching the lexical engine's
//! `(score desc, _id asc)` order.
//!
//! Deletes and replaces tombstone the node: it keeps navigating (its
//! edges still carry traffic) but never surfaces in results, and the
//! base-layer beam is widened by the tombstone count so `k` live
//! results remain reachable. Rebuild when tombstones dominate.

use crate::metrics::{AnnMetrics, AnnStats, QueryStats};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Hard cap on assigned levels: with `M ≥ 2` the geometric distribution
/// reaches 24 with probability ≤ 2^-24, and a bounded ladder keeps the
/// descent loop obviously finite even on adversarial ids.
const MAX_LEVEL: usize = 24;

/// Tuning knobs (the paper's `M`, `efConstruction`, `ef`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on layers above 0 (base layer gets `2·m`).
    pub m: usize,
    /// Beam width while building: wider finds better neighbors, slower.
    pub ef_construction: usize,
    /// Beam width while searching: the recall/latency dial.
    pub ef_search: usize,
    /// Seed for level assignment (mixed with the external id).
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> HnswConfig {
        HnswConfig {
            m: 8,
            ef_construction: 80,
            ef_search: 48,
            seed: 42,
        }
    }
}

/// Heap entry with a deterministic total order: similarity first, ties
/// toward the smaller node index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    sim: f32,
    node: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Scored) -> std::cmp::Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Scored) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// L2-normalize a vector (zero vectors stay zero).
pub(crate) fn normalize(v: &[f32]) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm == 0.0 {
        return v.to_vec();
    }
    let inv = 1.0 / norm;
    v.iter().map(|x| x * inv).collect()
}

/// The index.
#[derive(Debug)]
pub struct HnswIndex {
    config: HnswConfig,
    dims: usize,
    /// External ids, by node index (append-only; replaces tombstone).
    pub(crate) ids: Vec<String>,
    /// Flat row-major vector storage, L2-normalized.
    pub(crate) vectors: Vec<f32>,
    /// Top level per node.
    levels: Vec<usize>,
    /// `links[node][layer]` = neighbor node indexes.
    links: Vec<Vec<Vec<u32>>>,
    /// Live flag per node (false = tombstoned).
    pub(crate) alive: Vec<bool>,
    /// External id → live node index.
    id_index: HashMap<String, u32>,
    /// Entry point (a node on the highest populated level).
    entry: Option<u32>,
    /// Highest level in the graph.
    max_level: usize,
    /// Tombstone count.
    dead: usize,
    metrics: AnnMetrics,
}

impl HnswIndex {
    /// An empty index over `dims`-dimensional vectors.
    pub fn new(dims: usize, config: HnswConfig) -> HnswIndex {
        HnswIndex {
            config,
            dims: dims.max(1),
            ids: Vec::new(),
            vectors: Vec::new(),
            levels: Vec::new(),
            links: Vec::new(),
            alive: Vec::new(),
            id_index: HashMap::new(),
            entry: None,
            max_level: 0,
            dead: 0,
            metrics: AnnMetrics::default(),
        }
    }

    /// Build by inserting `(id, vector)` pairs in order.
    pub fn build<'a>(
        dims: usize,
        config: HnswConfig,
        items: impl IntoIterator<Item = (&'a str, &'a [f32])>,
    ) -> HnswIndex {
        let mut index = HnswIndex::new(dims, config);
        for (id, v) in items {
            index.insert(id, v);
        }
        index
    }

    /// Vector dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The tuning knobs this index was built with.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Live (non-tombstoned) vectors.
    pub fn len(&self) -> usize {
        self.ids.len() - self.dead
    }

    /// True when no live vector is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned nodes still resident in the graph.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Highest populated layer.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Whether `id` is indexed (and live).
    pub fn contains(&self, id: &str) -> bool {
        self.id_index.contains_key(id)
    }

    /// Cumulative work counters for the `/metrics` exposition.
    pub fn stats(&self) -> AnnStats {
        self.metrics.snapshot()
    }

    fn vector(&self, node: u32) -> &[f32] {
        let start = node as usize * self.dims;
        &self.vectors[start..start + self.dims]
    }

    fn similarity(&self, query: &[f32], node: u32) -> f32 {
        query
            .iter()
            .zip(self.vector(node))
            .map(|(a, b)| a * b)
            .sum()
    }

    fn pair_similarity(&self, a: u32, b: u32) -> f32 {
        self.vector(a)
            .iter()
            .zip(self.vector(b))
            .map(|(x, y)| x * y)
            .sum()
    }

    /// Geometric level draw, seeded on `(config.seed, id)` so the level
    /// of a document is a pure function of its id — insertion order
    /// cannot reshape the layer ladder.
    fn assign_level(&self, id: &str) -> usize {
        // FNV-1a over the id bytes, mixed with the index seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.config.seed;
        for b in id.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = SmallRng::seed_from_u64(h);
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let ml = 1.0 / (self.config.m.max(2) as f64).ln();
        ((-u.ln() * ml) as usize).min(MAX_LEVEL)
    }

    /// Best-first beam search on one layer from `entry`, keeping the
    /// `ef` most similar nodes seen. Returns `(sim, node)` sorted by
    /// `(sim desc, node asc)`; tombstoned nodes are traversed and
    /// reported (callers filter).
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        stats: &mut QueryStats,
    ) -> Vec<(f32, u32)> {
        let ef = ef.max(1);
        let mut visited = vec![false; self.ids.len()];
        visited[entry as usize] = true;
        let entry_sim = self.similarity(query, entry);
        stats.distance_evals += 1;
        // `cand` pops the most promising frontier node; `beam` tracks
        // the ef best results with its worst on top for O(1) bounding.
        let mut cand: BinaryHeap<Scored> = BinaryHeap::new();
        let mut beam: BinaryHeap<Reverse<Scored>> = BinaryHeap::new();
        cand.push(Scored { sim: entry_sim, node: entry });
        beam.push(Reverse(Scored { sim: entry_sim, node: entry }));
        while let Some(best) = cand.pop() {
            let worst = beam.peek().map(|Reverse(s)| s.sim).unwrap_or(f32::NEG_INFINITY);
            if beam.len() >= ef && best.sim < worst {
                break;
            }
            stats.hops += 1;
            let Some(neighbors) = self.links[best.node as usize].get(layer) else {
                continue;
            };
            for &nb in neighbors {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let sim = self.similarity(query, nb);
                stats.distance_evals += 1;
                let worst = beam.peek().map(|Reverse(s)| s.sim).unwrap_or(f32::NEG_INFINITY);
                if beam.len() < ef || sim > worst {
                    cand.push(Scored { sim, node: nb });
                    beam.push(Reverse(Scored { sim, node: nb }));
                    if beam.len() > ef {
                        beam.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, u32)> = beam
            .into_iter()
            .map(|Reverse(s)| (s.sim, s.node))
            .collect();
        out.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        out
    }

    /// The paper's diversity heuristic: walking candidates by falling
    /// similarity to the query, keep one only if it is closer to the
    /// query than to every neighbor already kept — spreading edges
    /// across directions instead of clustering them.
    fn select_diverse(
        &self,
        scored: &[(f32, u32)],
        m: usize,
        stats: &mut QueryStats,
    ) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        for &(sim, c) in scored {
            if selected.len() >= m {
                break;
            }
            let mut keep = true;
            for &s in &selected {
                stats.distance_evals += 1;
                if self.pair_similarity(c, s) > sim {
                    keep = false;
                    break;
                }
            }
            if keep {
                selected.push(c);
            }
        }
        if selected.is_empty() {
            if let Some(&(_, first)) = scored.first() {
                selected.push(first);
            }
        }
        selected
    }

    /// Re-bound a node's adjacency list to `max_deg` with the same
    /// diversity heuristic, relative to the node's own vector.
    fn prune(&mut self, node: u32, layer: usize, max_deg: usize, stats: &mut QueryStats) {
        let current = std::mem::take(&mut self.links[node as usize][layer]);
        let mut scored: Vec<(f32, u32)> = current
            .iter()
            .map(|&nb| {
                stats.distance_evals += 1;
                (self.pair_similarity(node, nb), nb)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let kept = self.select_diverse(&scored, max_deg, stats);
        self.links[node as usize][layer] = kept;
    }

    /// Insert (or replace) one vector. The vector is L2-normalized into
    /// the index; an existing `id` is tombstoned first, so a replace is
    /// one call. Panics if `vector.len() != dims`.
    pub fn insert(&mut self, id: &str, vector: &[f32]) {
        assert_eq!(
            vector.len(),
            self.dims,
            "vector dims {} != index dims {}",
            vector.len(),
            self.dims
        );
        if self.contains(id) {
            self.remove(id);
        }
        let q = normalize(vector);
        let node = self.ids.len() as u32;
        let level = self.assign_level(id);
        self.ids.push(id.to_string());
        self.id_index.insert(id.to_string(), node);
        self.vectors.extend_from_slice(&q);
        self.levels.push(level);
        self.alive.push(true);
        self.links.push(vec![Vec::new(); level + 1]);

        let mut stats = QueryStats::default();
        let Some(mut ep) = self.entry else {
            self.entry = Some(node);
            self.max_level = level;
            self.metrics.record_insert(0);
            return;
        };
        // Greedy descent through layers above the new node's level.
        for layer in (level + 1..=self.max_level).rev() {
            if let Some(&(_, best)) = self.search_layer(&q, ep, 1, layer, &mut stats).first() {
                ep = best;
            }
        }
        // Connect on every layer the node lives on.
        for layer in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer(&q, ep, self.config.ef_construction, layer, &mut stats);
            if let Some(&(_, best)) = cands.first() {
                ep = best;
            }
            let max_deg = if layer == 0 { 2 * self.config.m } else { self.config.m };
            let selected = self.select_diverse(&cands, self.config.m, &mut stats);
            for &nb in &selected {
                self.links[node as usize][layer].push(nb);
                self.links[nb as usize][layer].push(node);
                if self.links[nb as usize][layer].len() > max_deg {
                    self.prune(nb, layer, max_deg, &mut stats);
                }
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(node);
        }
        self.metrics.record_insert(stats.distance_evals);
    }

    /// Tombstone `id`. The node keeps routing traffic but never appears
    /// in results. Returns false when the id was not indexed.
    pub fn remove(&mut self, id: &str) -> bool {
        let Some(node) = self.id_index.remove(id) else {
            return false;
        };
        self.alive[node as usize] = false;
        self.dead += 1;
        // A tombstoned entry point still navigates fine; prefer a live
        // one (highest level wins) so a fully-live graph never starts
        // from a dead node. The graph's top layer follows the entry: a
        // dead node alone on a higher layer is no longer reachable, and
        // an insert must not try to link the new entry on layers it does
        // not have.
        if self.entry == Some(node) {
            let replacement = (0..self.ids.len() as u32)
                .filter(|&n| self.alive[n as usize])
                .max_by_key(|&n| (self.levels[n as usize], Reverse(n)));
            if let Some(live) = replacement {
                self.entry = Some(live);
                self.max_level = self.levels[live as usize];
            }
        }
        true
    }

    /// Top-`k` live neighbors of `query` by cosine similarity, with the
    /// work done to find them. Results order by `(sim desc, id asc)`.
    pub fn search(&self, query: &[f32], k: usize) -> (Vec<(String, f32)>, QueryStats) {
        let mut stats = QueryStats::default();
        let Some(entry) = self.entry else {
            return (Vec::new(), stats);
        };
        if k == 0 || self.is_empty() {
            return (Vec::new(), stats);
        }
        let q = normalize(query);
        let mut ep = entry;
        for layer in (1..=self.max_level).rev() {
            if let Some(&(_, best)) = self.search_layer(&q, ep, 1, layer, &mut stats).first() {
                ep = best;
            }
        }
        // Widen the beam by the tombstone count so `k` live results
        // stay reachable even when the nearest nodes are dead.
        let ef = self.config.ef_search.max(k) + self.dead;
        let beam = self.search_layer(&q, ep, ef, 0, &mut stats);
        stats.candidates = beam.len() as u64;
        let mut hits: Vec<(String, f32)> = beam
            .into_iter()
            .filter(|&(_, node)| self.alive[node as usize])
            .map(|(sim, node)| (self.ids[node as usize].clone(), sim))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        self.metrics.record_search(&stats);
        (hits, stats)
    }

    /// Serialize to the compact text format (`hnsw-v1` header, then per
    /// node: an id/level/alive line, a vector line and one adjacency
    /// line per layer). Ids must not contain whitespace — true for
    /// every store `_id` this repo generates.
    pub fn save_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let entry = self.entry.map(|e| e.to_string()).unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "hnsw-v1 {} {} {} {} {} {} {} {}",
            self.dims,
            self.ids.len(),
            self.config.m,
            self.config.ef_construction,
            self.config.ef_search,
            self.config.seed,
            entry,
            self.max_level,
        );
        for node in 0..self.ids.len() {
            let _ = writeln!(
                out,
                "{} {} {}",
                self.ids[node],
                self.levels[node],
                u8::from(self.alive[node]),
            );
            let mut line = String::new();
            for v in self.vector(node as u32) {
                if !line.is_empty() {
                    line.push(' ');
                }
                let _ = write!(line, "{v}");
            }
            out.push_str(&line);
            out.push('\n');
            for layer in &self.links[node] {
                let mut line = String::new();
                let _ = write!(line, "{}", layer.len());
                for nb in layer {
                    let _ = write!(line, " {nb}");
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Parse [`HnswIndex::save_text`] output. `None` on any structural
    /// mismatch (truncation, bad counts, out-of-range links).
    pub fn load_text(text: &str) -> Option<HnswIndex> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split_whitespace();
        if parts.next()? != "hnsw-v1" {
            return None;
        }
        let dims: usize = parts.next()?.parse().ok()?;
        let n: usize = parts.next()?.parse().ok()?;
        let config = HnswConfig {
            m: parts.next()?.parse().ok()?,
            ef_construction: parts.next()?.parse().ok()?,
            ef_search: parts.next()?.parse().ok()?,
            seed: parts.next()?.parse().ok()?,
        };
        let entry = match parts.next()? {
            "-" => None,
            e => Some(e.parse::<u32>().ok()?),
        };
        let max_level: usize = parts.next()?.parse().ok()?;
        let mut index = HnswIndex::new(dims, config);
        index.entry = entry.filter(|&e| (e as usize) < n);
        index.max_level = max_level;
        for node in 0..n {
            let mut meta = lines.next()?.split_whitespace();
            let id = meta.next()?.to_string();
            let level: usize = meta.next()?.parse().ok()?;
            let alive = meta.next()? == "1";
            let mut vector = Vec::with_capacity(dims);
            for v in lines.next()?.split_whitespace() {
                vector.push(v.parse::<f32>().ok()?);
            }
            if vector.len() != dims {
                return None;
            }
            let mut layers = Vec::with_capacity(level + 1);
            for _ in 0..=level {
                let mut parts = lines.next()?.split_whitespace();
                let count: usize = parts.next()?.parse().ok()?;
                let mut neighbors = Vec::with_capacity(count);
                for _ in 0..count {
                    let nb: u32 = parts.next()?.parse().ok()?;
                    if nb as usize >= n {
                        return None;
                    }
                    neighbors.push(nb);
                }
                layers.push(neighbors);
            }
            if alive {
                index.id_index.insert(id.clone(), node as u32);
            } else {
                index.dead += 1;
            }
            index.ids.push(id);
            index.vectors.extend_from_slice(&vector);
            index.levels.push(level);
            index.alive.push(alive);
            index.links.push(layers);
        }
        if index.ids.len() != n {
            return None;
        }
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random unit-ish vectors.
    fn corpus(n: usize, dims: usize, seed: u64) -> Vec<(String, Vec<f32>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let v: Vec<f32> = (0..dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                (format!("doc-{i:04}"), v)
            })
            .collect()
    }

    fn build(items: &[(String, Vec<f32>)], config: HnswConfig) -> HnswIndex {
        let dims = items.first().map_or(1, |(_, v)| v.len());
        HnswIndex::build(
            dims,
            config,
            items.iter().map(|(id, v)| (id.as_str(), v.as_slice())),
        )
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = HnswIndex::new(8, HnswConfig::default());
        assert!(index.is_empty());
        let (hits, stats) = index.search(&[0.0; 8], 5);
        assert!(hits.is_empty());
        assert_eq!(stats.distance_evals, 0);
    }

    /// Re-inserting the only node of the top layer (what a replace does:
    /// tombstone, then insert) once indexed a lower node's links on a
    /// layer it does not have.
    #[test]
    fn reinserting_the_sole_top_layer_node_keeps_the_ladder_consistent() {
        let items = corpus(40, 6, 11);
        let mut index = build(&items, HnswConfig::default());
        let top = index.max_level();
        let tall = (0..)
            .map(|i| format!("tall-{i}"))
            .find(|id| index.assign_level(id) > top)
            .unwrap();
        let v = [0.3, -0.2, 0.9, 0.1, 0.0, 0.4];
        index.insert(&tall, &v);
        assert!(index.max_level() > top);
        assert!(index.remove(&tall));
        assert_eq!(index.max_level(), top, "top layer follows the live entry");
        index.insert(&tall, &v);
        index.insert(&tall, &v);
        assert_eq!(index.tombstones(), 2);
        let (hits, _) = index.search(&v, 3);
        assert_eq!(hits[0].0, tall);
        let (hits, _) = index.search(&items[7].1, 1);
        assert_eq!(hits[0].0, items[7].0, "the rest of the graph is still reachable");
        let reloaded = HnswIndex::load_text(&index.save_text()).expect("saved index loads");
        assert_eq!(reloaded.search(&v, 3).0, index.search(&v, 3).0);
    }

    #[test]
    fn single_vector_round_trips() {
        let mut index = HnswIndex::new(4, HnswConfig::default());
        index.insert("only", &[1.0, 0.0, 0.0, 0.0]);
        let (hits, _) = index.search(&[2.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "only");
        assert!((hits[0].1 - 1.0).abs() < 1e-6, "normalized dot = cosine");
    }

    #[test]
    fn wide_beam_matches_exact_oracle() {
        // With ef ≥ n the beam search must degenerate to exact search.
        let items = corpus(60, 12, 7);
        let config = HnswConfig { ef_search: 64, ..HnswConfig::default() };
        let index = build(&items, config);
        let queries = corpus(10, 12, 99);
        for (_, q) in &queries {
            let (hits, _) = index.search(q, 10);
            let (exact, _) = index.exact_search(q, 10);
            let got: Vec<&str> = hits.iter().map(|(id, _)| id.as_str()).collect();
            let want: Vec<&str> = exact.iter().map(|(id, _)| id.as_str()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn hnsw_does_less_work_than_brute_force() {
        let items = corpus(400, 16, 3);
        let index = build(&items, HnswConfig::default());
        let (_, stats) = index.search(&items[0].1, 10);
        assert!(
            stats.distance_evals < 400,
            "beam search must not scan everything ({} evals)",
            stats.distance_evals
        );
        assert!(stats.hops > 0 && stats.candidates > 0);
    }

    #[test]
    fn build_is_deterministic_and_order_independent_levels() {
        let items = corpus(50, 8, 11);
        let a = build(&items, HnswConfig::default());
        let b = build(&items, HnswConfig::default());
        assert_eq!(a.save_text(), b.save_text());
        // Levels are a pure function of (seed, id): reversing insertion
        // order must not change any node's level.
        let mut reversed = items.clone();
        reversed.reverse();
        let c = build(&reversed, HnswConfig::default());
        for (id, _) in &items {
            let la = a.levels[a.id_index[id] as usize];
            let lc = c.levels[c.id_index[id] as usize];
            assert_eq!(la, lc, "{id}");
        }
    }

    #[test]
    fn save_load_round_trip_preserves_results() {
        let items = corpus(40, 8, 5);
        let mut index = build(&items, HnswConfig::default());
        index.remove("doc-0003");
        let text = index.save_text();
        let back = HnswIndex::load_text(&text).expect("parses");
        assert_eq!(back.len(), index.len());
        assert_eq!(back.tombstones(), 1);
        for (_, q) in corpus(5, 8, 31) {
            let (a, _) = index.search(&q, 10);
            let (b, _) = back.search(&q, 10);
            assert_eq!(a, b);
        }
        assert_eq!(back.save_text(), text, "stable fixpoint");
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(HnswIndex::load_text("").is_none());
        assert!(HnswIndex::load_text("hnsw-v9 4 0 8 80 48 42 - 0").is_none());
        assert!(HnswIndex::load_text("hnsw-v1 4 2 8 80 48 42 - 0\nd 0 1\n1 0 0 0\n0").is_none());
    }

    #[test]
    fn remove_hides_and_replace_updates() {
        let items = corpus(30, 8, 13);
        let mut index = build(&items, HnswConfig::default());
        assert!(index.contains("doc-0007"));
        let target = items[7].1.clone();
        let (hits, _) = index.search(&target, 1);
        assert_eq!(hits[0].0, "doc-0007");
        assert!(index.remove("doc-0007"));
        assert!(!index.contains("doc-0007"));
        let (hits, _) = index.search(&target, 30);
        assert!(hits.iter().all(|(id, _)| id != "doc-0007"));
        assert_eq!(hits.len(), 29, "every other live doc still reachable");
        // Replace: re-insert the same id with a new vector.
        let novel = vec![9.0f32, -9.0, 9.0, -9.0, 9.0, -9.0, 9.0, -9.0];
        index.insert("doc-0007", &novel);
        let (hits, _) = index.search(&novel, 1);
        assert_eq!(hits[0].0, "doc-0007");
        assert_eq!(index.len(), 30);
        assert!(!index.remove("never-indexed"));
    }

    #[test]
    fn removing_the_entry_point_keeps_searches_working() {
        let items = corpus(25, 8, 17);
        let mut index = build(&items, HnswConfig::default());
        // Remove whatever the entry point is, repeatedly.
        for _ in 0..5 {
            let entry_id = index.ids[index.entry.unwrap() as usize].clone();
            if index.contains(&entry_id) {
                index.remove(&entry_id);
            } else {
                // Entry already tombstoned: remove any live id instead.
                let id = index.id_index.keys().next().unwrap().clone();
                index.remove(&id);
            }
            let (hits, _) = index.search(&items[20].1, 5);
            assert!(!hits.is_empty());
        }
    }

    #[test]
    fn results_tie_break_by_id() {
        let mut index = HnswIndex::new(2, HnswConfig::default());
        // Three identical vectors: similarity ties must order by id.
        for id in ["b", "a", "c"] {
            index.insert(id, &[1.0, 0.0]);
        }
        let (hits, _) = index.search(&[1.0, 0.0], 3);
        let ids: Vec<&str> = hits.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"]);
    }

    #[test]
    fn metrics_accumulate() {
        let items = corpus(40, 8, 23);
        let index = build(&items, HnswConfig::default());
        let before = index.stats();
        assert_eq!(before.inserts, 40);
        assert_eq!(before.searches, 0);
        index.search(&items[0].1, 5);
        index.search(&items[1].1, 5);
        let after = index.stats();
        assert_eq!(after.searches, 2);
        assert!(after.distance_evals > 0);
        assert!(after.evals_per_search() > 0.0);
        assert!(after.build_distance_evals > 0);
    }
}
