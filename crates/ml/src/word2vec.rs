//! Word2Vec skip-gram with negative sampling (Mikolov et al. [65]).
//!
//! Fig 3's parallel embedding layers are initialized from Word2Vec
//! embeddings "pre-trained on WDC and CORD-19 and then fine-tuned with
//! end-to-end training on the target corpus" (§3.6). §4.2 additionally
//! uses embedding distance to match unseen terms (new vaccines, strains)
//! during KG fusion.

use crate::matrix::Matrix;
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::Rng;
use covidkg_rand::SeedableRng;
use std::collections::HashMap;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality.
    pub dims: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed).
    pub learning_rate: f32,
    /// Ignore tokens rarer than this.
    pub min_count: usize,
    /// Frequent-word subsampling threshold `t` (Mikolov et al.): tokens
    /// with corpus frequency `f` are discarded with probability
    /// `1 − √(t/f)`. 0 disables subsampling.
    pub subsample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dims: 32,
            window: 3,
            negatives: 5,
            epochs: 5,
            learning_rate: 0.025,
            min_count: 1,
            subsample: 0.0,
            seed: 42,
        }
    }
}

/// Trained embeddings.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    vocab: HashMap<String, usize>,
    words: Vec<String>,
    /// Input (center-word) embeddings — the vectors consumers use.
    input: Matrix,
    /// Output (context) embeddings — kept for fine-tuning continuation.
    output: Matrix,
    /// L2-normalized copy of `input`, recomputed once after every
    /// training pass (and on load) so cosine lookups are a single dot
    /// product per row instead of renormalizing the whole vocabulary on
    /// every query. `input` stays raw for gradient updates.
    normalized: Matrix,
}

impl Word2Vec {
    /// Train on tokenized sentences.
    pub fn train(sentences: &[Vec<String>], config: &Word2VecConfig) -> Word2Vec {
        let (mut model, mut rng) = Self::initialized(sentences, config);
        model.fine_tune(sentences, config, &mut rng);
        model.renormalize();
        model
    }

    /// The vocabulary and random initial vectors [`Word2Vec::train`]
    /// starts from, with the RNG positioned for its training passes.
    fn initialized(sentences: &[Vec<String>], config: &Word2VecConfig) -> (Word2Vec, SmallRng) {
        // Vocabulary with counts.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for s in sentences {
            for t in s {
                *counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let mut words: Vec<String> = counts
            .iter()
            .filter(|(_, &c)| c >= config.min_count)
            .map(|(w, _)| w.to_string())
            .collect();
        words.sort(); // determinism
        let vocab: HashMap<String, usize> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let v = words.len().max(1);

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut input = Matrix::zeros(v, config.dims);
        for x in input.data_mut() {
            *x = rng.gen_range(-0.5f32..0.5) / config.dims as f32;
        }
        let output = Matrix::zeros(v, config.dims);
        let model = Word2Vec {
            vocab,
            words,
            input,
            output,
            normalized: Matrix::zeros(v, config.dims),
        };
        (model, rng)
    }

    /// Additional training passes on another corpus (the paper's
    /// "fine-tuned with end-to-end training on the target corpus").
    /// Unknown tokens are skipped — call sites should build the original
    /// vocabulary over the union corpus when that matters.
    pub fn continue_training(&mut self, sentences: &[Vec<String>], config: &Word2VecConfig) {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(1));
        self.fine_tune(sentences, config, &mut rng);
        self.renormalize();
    }

    /// Rebuild the unit-norm row cache from the raw `input` matrix.
    /// Zero rows stay zero, so their dot product with anything is 0 —
    /// the same value [`cosine`] reports for a zero vector.
    fn renormalize(&mut self) {
        let (rows, cols) = (self.input.rows(), self.input.cols());
        if self.normalized.rows() != rows || self.normalized.cols() != cols {
            self.normalized = Matrix::zeros(rows, cols);
        }
        for i in 0..rows {
            let row = self.input.row(i);
            let norm = crate::matrix::vecops::dot(row, row).sqrt();
            let inv = if norm == 0.0 { 0.0 } else { 1.0 / norm };
            let row: Vec<f32> = row.iter().map(|x| x * inv).collect();
            self.normalized.row_mut(i).copy_from_slice(&row);
        }
    }

    fn fine_tune(&mut self, sentences: &[Vec<String>], config: &Word2VecConfig, rng: &mut SmallRng) {
        let v = self.words.len();
        if v == 0 {
            return;
        }
        // Every sentence's in-vocabulary ids, resolved once for all epochs.
        let resolved: Vec<Vec<usize>> = sentences
            .iter()
            .map(|s| s.iter().filter_map(|t| self.vocab.get(t).copied()).collect())
            .collect();
        // Unigram^0.75 negative-sampling table.
        let mut counts = vec![1usize; v];
        for &i in resolved.iter().flatten() {
            counts[i] += 1;
        }
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total_w: f64 = weights.iter().sum();
        // Cumulative table, strictly increasing, for binary-search sampling.
        let mut cum = Vec::with_capacity(v);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total_w;
            cum.push(acc);
        }
        let sample_neg = |rng: &mut SmallRng| -> usize {
            let r: f64 = rng.gen();
            cum.partition_point(|&p| p < r).min(v - 1)
        };

        let total_pairs: usize = sentences.iter().map(|s| s.len()).sum::<usize>().max(1);
        let mut seen_pairs = 0usize;
        let mut grad_in = vec![0.0f32; config.dims];
        // The centre row, copied once per context pair: only output rows
        // change while its positive and negative samples are scored.
        let mut center_row = vec![0.0f32; config.dims];
        let mut ids: Vec<usize> = Vec::new();

        // Frequent-word subsampling: per-token keep probability √(t/f).
        let total_tokens: f64 = counts.iter().map(|&c| c as f64).sum::<f64>().max(1.0);
        let keep_prob: Vec<f64> = counts
            .iter()
            .map(|&c| {
                if config.subsample <= 0.0 {
                    1.0
                } else {
                    let f = c as f64 / total_tokens;
                    (config.subsample / f).sqrt().min(1.0)
                }
            })
            .collect();

        for epoch in 0..config.epochs {
            for sentence in &resolved {
                ids.clear();
                ids.extend(
                    sentence
                        .iter()
                        .copied()
                        .filter(|&id| keep_prob[id] >= 1.0 || rng.gen::<f64>() < keep_prob[id]),
                );
                for (pos, &center) in ids.iter().enumerate() {
                    seen_pairs += 1;
                    let progress =
                        (epoch * total_pairs + seen_pairs.min(total_pairs)) as f32
                            / (config.epochs * total_pairs) as f32;
                    let lr = (config.learning_rate * (1.0 - progress)).max(config.learning_rate * 0.01);
                    let window = rng.gen_range(1..=config.window);
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(ids.len());
                    for (ctx_pos, &context) in ids.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        center_row.copy_from_slice(self.input.row(center));
                        // Positive pair + negatives.
                        for k in 0..=config.negatives {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (sample_neg(rng), 0.0f32)
                            };
                            if k > 0 && target == context {
                                continue;
                            }
                            let dot =
                                crate::matrix::vecops::dot(&center_row, self.output.row(target));
                            let pred = crate::matrix::sigmoid(dot);
                            let g = (label - pred) * lr;
                            // Accumulate input grad; update output row now.
                            crate::matrix::vecops::axpy(g, self.output.row(target), &mut grad_in);
                            crate::matrix::vecops::axpy(
                                g,
                                &center_row,
                                self.output.row_mut(target),
                            );
                        }
                        let row = self.input.row_mut(center);
                        for (w, g) in row.iter_mut().zip(&grad_in) {
                            *w += g;
                        }
                    }
                }
            }
        }
    }

    /// Embedding dimensionality.
    pub fn dims(&self) -> usize {
        self.input.cols()
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.words.len()
    }

    /// The embedding for a token, if in vocabulary.
    pub fn embed(&self, token: &str) -> Option<&[f32]> {
        self.vocab.get(token).map(|&i| self.input.row(i))
    }

    /// Average embedding of a token sequence (zeros when none known) —
    /// the cell-level representation of Fig 3 and the term matcher in
    /// §4.2 both use this.
    pub fn embed_phrase(&self, tokens: &[String]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dims()];
        let mut n = 0;
        for t in tokens {
            if let Some(e) = self.embed(t) {
                crate::matrix::vecops::axpy(1.0, e, &mut acc);
                n += 1;
            }
        }
        if n > 0 {
            let inv = 1.0 / n as f32;
            acc.iter_mut().for_each(|x| *x *= inv);
        }
        acc
    }

    /// Cosine similarity between two tokens (None if either is OOV).
    pub fn similarity(&self, a: &str, b: &str) -> Option<f32> {
        Some(cosine(self.embed(a)?, self.embed(b)?))
    }

    /// The unit-norm embedding for a token, if in vocabulary — what the
    /// ANN tier indexes so query-time similarity is a plain dot product.
    pub fn normalized_embed(&self, token: &str) -> Option<&[f32]> {
        self.vocab.get(token).map(|&i| self.normalized.row(i))
    }

    /// `k` nearest vocabulary words to a query vector.
    ///
    /// This is the exact brute-force oracle: every vocabulary row is
    /// scored. The rows are pre-normalized once after training, so the
    /// scan costs one dot product per row (the query is normalized once
    /// per call) while still reporting true cosine similarities.
    pub fn nearest(&self, query: &[f32], k: usize) -> Vec<(String, f32)> {
        let qnorm = crate::matrix::vecops::dot(query, query).sqrt();
        let inv = if qnorm == 0.0 { 0.0 } else { 1.0 / qnorm };
        let unit: Vec<f32> = query.iter().map(|x| x * inv).collect();
        let mut scored: Vec<(String, f32)> = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                (
                    w.clone(),
                    crate::matrix::vecops::dot(&unit, self.normalized.row(i)),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Serialize to a simple text format (`word v1 v2 …` per line).
    pub fn save_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "{} {}", self.words.len(), self.dims());
        for (i, w) in self.words.iter().enumerate() {
            let _ = write!(out, "{w}");
            for v in self.input.row(i) {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }

    /// Parse the format produced by [`Word2Vec::save_text`].
    pub fn load_text(text: &str) -> Option<Word2Vec> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split_whitespace();
        let n: usize = parts.next()?.parse().ok()?;
        let dims: usize = parts.next()?.parse().ok()?;
        let mut words = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * dims);
        for line in lines.take(n) {
            let mut parts = line.split_whitespace();
            words.push(parts.next()?.to_string());
            for _ in 0..dims {
                data.push(parts.next()?.parse().ok()?);
            }
        }
        if words.len() != n {
            return None;
        }
        let vocab = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let mut model = Word2Vec {
            vocab,
            words,
            input: Matrix::from_vec(n, dims, data),
            output: Matrix::zeros(n, dims),
            normalized: Matrix::zeros(n, dims),
        };
        model.renormalize();
        Some(model)
    }
}

/// Cosine similarity of two dense vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot = crate::matrix::vecops::dot(a, b);
    let na = crate::matrix::vecops::dot(a, a).sqrt();
    let nb = crate::matrix::vecops::dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_rand::prop;

    /// `fine_tune` before ids were resolved once, the centre row copied
    /// once per context pair and negatives drawn by `partition_point`.
    /// The training passes must match it byte for byte.
    fn fine_tune_reference(
        model: &mut Word2Vec,
        sentences: &[Vec<String>],
        config: &Word2VecConfig,
        rng: &mut SmallRng,
    ) {
        let v = model.words.len();
        if v == 0 {
            return;
        }
        // Unigram^0.75 negative-sampling table.
        let mut counts = vec![1usize; v];
        for s in sentences {
            for t in s {
                if let Some(&i) = model.vocab.get(t) {
                    counts[i] += 1;
                }
            }
        }
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total_w: f64 = weights.iter().sum();
        // Cumulative table for binary-search sampling.
        let mut cum = Vec::with_capacity(v);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total_w;
            cum.push(acc);
        }
        let sample_neg = |rng: &mut SmallRng| -> usize {
            let r: f64 = rng.gen();
            match cum.binary_search_by(|p| p.partial_cmp(&r).unwrap()) {
                Ok(i) | Err(i) => i.min(v - 1),
            }
        };

        let total_pairs: usize = sentences.iter().map(|s| s.len()).sum::<usize>().max(1);
        let mut seen_pairs = 0usize;
        let mut grad_in = vec![0.0f32; config.dims];

        // Frequent-word subsampling: per-token keep probability √(t/f).
        let total_tokens: f64 = counts.iter().map(|&c| c as f64).sum::<f64>().max(1.0);
        let keep_prob: Vec<f64> = counts
            .iter()
            .map(|&c| {
                if config.subsample <= 0.0 {
                    1.0
                } else {
                    let f = c as f64 / total_tokens;
                    (config.subsample / f).sqrt().min(1.0)
                }
            })
            .collect();

        for epoch in 0..config.epochs {
            for sentence in sentences {
                let ids: Vec<usize> = sentence
                    .iter()
                    .filter_map(|t| model.vocab.get(t).copied())
                    .filter(|&id| keep_prob[id] >= 1.0 || rng.gen::<f64>() < keep_prob[id])
                    .collect();
                for (pos, &center) in ids.iter().enumerate() {
                    seen_pairs += 1;
                    let progress =
                        (epoch * total_pairs + seen_pairs.min(total_pairs)) as f32
                            / (config.epochs * total_pairs) as f32;
                    let lr = (config.learning_rate * (1.0 - progress)).max(config.learning_rate * 0.01);
                    let window = rng.gen_range(1..=config.window);
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(ids.len());
                    for (ctx_pos, &context) in ids.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        // Positive pair + negatives.
                        for k in 0..=config.negatives {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (sample_neg(rng), 0.0f32)
                            };
                            if k > 0 && target == context {
                                continue;
                            }
                            let dot = crate::matrix::vecops::dot(
                                model.input.row(center),
                                model.output.row(target),
                            );
                            let pred = crate::matrix::sigmoid(dot);
                            let g = (label - pred) * lr;
                            // Accumulate input grad; update output row now.
                            crate::matrix::vecops::axpy(g, model.output.row(target), &mut grad_in);
                            let center_row: Vec<f32> = model.input.row(center).to_vec();
                            crate::matrix::vecops::axpy(g, &center_row, model.output.row_mut(target));
                        }
                        let row = model.input.row_mut(center);
                        for (w, g) in row.iter_mut().zip(&grad_in) {
                            *w += g;
                        }
                    }
                }
            }
        }
    }

    /// A random corpus over a vocabulary of `vocab` words whose first
    /// three are far more frequent than the rest.
    fn random_corpus(rng: &mut SmallRng, vocab: usize) -> Vec<Vec<String>> {
        prop::vec_of(rng, 1, 24, |rng| {
            prop::vec_of(rng, 0, 16, |rng| {
                let w = rng.gen_range(0..vocab);
                let w = if rng.gen_bool(0.4) { w % 3 } else { w };
                format!("w{w}")
            })
        })
    }

    #[test]
    fn training_passes_match_the_reference_byte_for_byte() {
        prop::run(48, |rng| {
            let vocab = rng.gen_range(1..=40);
            let corpus = random_corpus(rng, vocab);
            let config = Word2VecConfig {
                dims: rng.gen_range(1..=12),
                window: rng.gen_range(1..=4),
                negatives: rng.gen_range(0..=6),
                epochs: rng.gen_range(1..=4),
                learning_rate: *prop::pick(rng, &[0.025f32, 0.1, 0.5]),
                min_count: rng.gen_range(1..=3),
                subsample: *prop::pick(rng, &[0.0, 1e-3, 0.05, 0.5]),
                seed: rng.gen(),
            };
            let fast = Word2Vec::train(&corpus, &config);
            let (mut slow, mut slow_rng) = Word2Vec::initialized(&corpus, &config);
            fine_tune_reference(&mut slow, &corpus, &config, &mut slow_rng);
            slow.renormalize();
            assert_eq!(fast.save_text(), slow.save_text(), "train, {config:?}");

            // A second corpus through `continue_training`, with tokens the
            // vocabulary has never seen.
            let more = random_corpus(rng, vocab + 5);
            let mut fast = fast;
            fast.continue_training(&more, &config);
            let mut more_rng = SmallRng::seed_from_u64(config.seed.wrapping_add(1));
            fine_tune_reference(&mut slow, &more, &config, &mut more_rng);
            slow.renormalize();
            assert_eq!(fast.save_text(), slow.save_text(), "continue_training, {config:?}");
        });
    }

    /// A toy corpus with two clearly separated topic clusters.
    fn toy_corpus(reps: usize) -> Vec<Vec<String>> {
        let a = ["pfizer", "vaccine", "dose", "efficacy", "booster"];
        let b = ["ventilator", "icu", "oxygen", "intubation", "respirator"];
        let mut out = Vec::new();
        for i in 0..reps {
            // Rotate so every pair co-occurs.
            let rot = |words: &[&str]| -> Vec<String> {
                let mut v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
                v.rotate_left(i % words.len());
                v
            };
            out.push(rot(&a));
            out.push(rot(&b));
        }
        out
    }

    #[test]
    fn builds_vocabulary() {
        let model = Word2Vec::train(&toy_corpus(3), &Word2VecConfig::default());
        assert_eq!(model.vocab_size(), 10);
        assert!(model.embed("pfizer").is_some());
        assert!(model.embed("unknown-term").is_none());
        assert_eq!(model.embed("pfizer").unwrap().len(), 32);
    }

    #[test]
    fn cooccurring_words_are_closer_than_cross_topic() {
        let cfg = Word2VecConfig {
            epochs: 30,
            ..Word2VecConfig::default()
        };
        let model = Word2Vec::train(&toy_corpus(20), &cfg);
        let same = model.similarity("pfizer", "vaccine").unwrap();
        let cross = model.similarity("pfizer", "ventilator").unwrap();
        assert!(
            same > cross,
            "within-topic sim {same} must beat cross-topic {cross}"
        );
    }

    #[test]
    fn nearest_returns_self_first() {
        let cfg = Word2VecConfig {
            epochs: 20,
            ..Word2VecConfig::default()
        };
        let model = Word2Vec::train(&toy_corpus(10), &cfg);
        let q = model.embed("icu").unwrap().to_vec();
        let near = model.nearest(&q, 3);
        assert_eq!(near[0].0, "icu");
        assert!((near[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn nearest_matches_per_query_renormalization() {
        // The precomputed unit rows must report the same similarities as
        // renormalizing every row per query (the old implementation).
        let model = Word2Vec::train(&toy_corpus(8), &Word2VecConfig::default());
        let q = model.embed_phrase(&["icu".into(), "oxygen".into()]);
        for (word, score) in model.nearest(&q, model.vocab_size()) {
            let expected = cosine(&q, model.embed(&word).unwrap());
            assert!(
                (score - expected).abs() < 1e-5,
                "{word}: {score} vs {expected}"
            );
        }
        // The unit rows really are unit-length (or zero).
        for w in ["icu", "pfizer", "dose"] {
            let row = model.normalized_embed(w).unwrap();
            let norm = crate::matrix::vecops::dot(row, row).sqrt();
            assert!((norm - 1.0).abs() < 1e-5, "{w}: |row| = {norm}");
        }
        // Zero queries score 0 everywhere, like `cosine`.
        let zeros = vec![0.0f32; model.dims()];
        assert!(model.nearest(&zeros, 3).iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn phrase_embedding_averages() {
        let model = Word2Vec::train(&toy_corpus(3), &Word2VecConfig::default());
        let phrase = model.embed_phrase(&["pfizer".into(), "vaccine".into()]);
        let a = model.embed("pfizer").unwrap();
        let b = model.embed("vaccine").unwrap();
        for (i, &p) in phrase.iter().enumerate() {
            assert!((p - (a[i] + b[i]) / 2.0).abs() < 1e-6);
        }
        // All-OOV phrase is a zero vector.
        let zero = model.embed_phrase(&["zzz".into()]);
        assert!(zero.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn save_load_round_trip() {
        let model = Word2Vec::train(&toy_corpus(2), &Word2VecConfig::default());
        let text = model.save_text();
        let back = Word2Vec::load_text(&text).unwrap();
        assert_eq!(back.vocab_size(), model.vocab_size());
        assert_eq!(back.dims(), model.dims());
        let (a, b) = (model.embed("dose").unwrap(), back.embed("dose").unwrap());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Word2Vec::load_text("").is_none());
        assert!(Word2Vec::load_text("2 3\nword 1 2").is_none());
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = Word2VecConfig::default();
        let m1 = Word2Vec::train(&toy_corpus(5), &cfg);
        let m2 = Word2Vec::train(&toy_corpus(5), &cfg);
        assert_eq!(m1.embed("dose"), m2.embed("dose"));
    }

    #[test]
    fn continue_training_moves_vectors() {
        let mut model = Word2Vec::train(&toy_corpus(5), &Word2VecConfig::default());
        let before = model.embed("dose").unwrap().to_vec();
        model.continue_training(&toy_corpus(5), &Word2VecConfig::default());
        let after = model.embed("dose").unwrap();
        assert_ne!(before.as_slice(), after);
    }

    #[test]
    fn cosine_properties() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn subsampling_thins_frequent_words_but_training_still_works() {
        // A corpus where "the" floods every sentence.
        let sentences: Vec<Vec<String>> = (0..30)
            .map(|i| {
                vec![
                    "the".to_string(),
                    "the".to_string(),
                    "the".to_string(),
                    if i % 2 == 0 { "pfizer" } else { "moderna" }.to_string(),
                    "vaccine".to_string(),
                ]
            })
            .collect();
        let cfg = Word2VecConfig {
            epochs: 10,
            subsample: 1e-3,
            ..Word2VecConfig::default()
        };
        let model = Word2Vec::train(&sentences, &cfg);
        // All words still embedded (subsampling affects training pairs,
        // not the vocabulary).
        assert!(model.embed("the").is_some());
        let sim = model.similarity("pfizer", "vaccine").unwrap();
        assert!(sim.is_finite());
        // Deterministic under a seed despite the stochastic subsampling.
        let again = Word2Vec::train(&sentences, &cfg);
        assert_eq!(model.embed("pfizer"), again.embed("pfizer"));
    }

    #[test]
    fn min_count_filters_rare_words() {
        let mut sents = toy_corpus(5);
        sents.push(vec!["hapax".to_string()]);
        let cfg = Word2VecConfig {
            min_count: 2,
            ..Word2VecConfig::default()
        };
        let model = Word2Vec::train(&sents, &cfg);
        assert!(model.embed("hapax").is_none());
    }
}
