//! Bias interrogation of the training/serving corpus.
//!
//! The paper's title promises a KG "Constructed and Interrogated for Bias
//! using Deep-Learning"; the body grounds this in curation — the KG "does
//! not suffer from any bias or misinformation" because it is built only
//! from vetted sources (§1), with noise words and spam cut from the
//! feature space (§3.2 / [78]). This module makes the interrogation an
//! explicit, runnable artifact: it clusters the corpus with the learned
//! embeddings (the Deep-Learning part) and reports where the *data* is
//! skewed, so a curator can see what the KG will over- and under-represent:
//!
//! * topical coverage imbalance (cluster mass Gini coefficient);
//! * venue concentration per topic cluster (a topic sourced from one
//!   venue inherits that venue's editorial bias);
//! * temporal staleness (share of recent publications — the paper's core
//!   complaint about existing KGs is that they "are getting stale").

use covidkg_json::Value;
use covidkg_ml::{kmeans, Word2Vec};
use covidkg_text::tokenize_lower;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One topic cluster's bias indicators.
#[derive(Debug, Clone)]
pub struct ClusterBias {
    /// Cluster ordinal.
    pub cluster: usize,
    /// Publications assigned.
    pub docs: usize,
    /// Trust-weighted cluster mass: the sum over members of their
    /// source-credibility weight (equals `docs` under unit weights).
    pub trust_mass: f64,
    /// Most frequent venue and its share of the cluster.
    pub dominant_venue: Option<(String, f64)>,
    /// Top terms characterizing the cluster (by frequency).
    pub top_terms: Vec<String>,
}

/// The corpus bias report.
#[derive(Debug, Clone)]
pub struct BiasReport {
    /// Per-cluster indicators.
    pub clusters: Vec<ClusterBias>,
    /// Gini coefficient over cluster sizes (0 = perfectly even coverage,
    /// → 1 = all mass in one topic).
    pub coverage_gini: f64,
    /// Gini coefficient over *trust-weighted* cluster masses: coverage
    /// as the reader experiences it once low-credibility sources are
    /// discounted. A gap above [`BiasReport::coverage_gini`] means some
    /// topics rest on weaker sources than their raw document count
    /// suggests.
    pub trust_gini: f64,
    /// Clusters where one venue exceeds the concentration threshold.
    pub venue_flags: Vec<usize>,
    /// Clusters whose mean per-document trust falls below half the
    /// corpus mean — topics the KG covers, but from weak provenance.
    pub low_trust_flags: Vec<usize>,
    /// Fraction of publications dated in the most recent year present.
    pub recent_fraction: f64,
}

/// Venue share above which a cluster is flagged as venue-concentrated.
const VENUE_CONCENTRATION: f64 = 0.5;

/// Mean-trust ratio below which a cluster is flagged as low-provenance.
const LOW_TRUST_RATIO: f64 = 0.5;

/// Interrogate stored publication documents. `k` is the number of topic
/// clusters to probe (the system uses its topic count). Every document
/// carries unit weight — the pre-trust-era report, kept as the
/// equivalence baseline for [`interrogate_weighted`].
pub fn interrogate(docs: &[Value], embeddings: &Word2Vec, k: usize) -> BiasReport {
    interrogate_weighted(docs, embeddings, k, |_| 1.0)
}

/// [`interrogate`] with per-document credibility weights (the trust
/// store's venue priors): cluster masses, the trust Gini and the
/// low-trust flags are computed over `weight(paper_id)` instead of raw
/// counts, so a topic backed by many weak sources reads as thinner than
/// one backed by few strong ones.
pub fn interrogate_weighted(
    docs: &[Value],
    embeddings: &Word2Vec,
    k: usize,
    weight: impl Fn(&str) -> f64,
) -> BiasReport {
    if docs.is_empty() || k == 0 {
        return BiasReport {
            clusters: Vec::new(),
            coverage_gini: 0.0,
            trust_gini: 0.0,
            venue_flags: Vec::new(),
            low_trust_flags: Vec::new(),
            recent_fraction: 0.0,
        };
    }
    // Deep-learning step: embed each abstract and cluster.
    let points: Vec<Vec<f32>> = docs
        .iter()
        .map(|d| {
            let text = d.path("abstract").and_then(Value::as_str).unwrap_or("");
            embeddings.embed_phrase(&tokenize_lower(text))
        })
        .collect();
    let result = kmeans(&points, k, 30, 71);

    let k = result.centroids.len();
    let mut cluster_docs: Vec<Vec<&Value>> = vec![Vec::new(); k];
    for (doc, &c) in docs.iter().zip(&result.assignments) {
        cluster_docs[c].push(doc);
    }

    let mut clusters = Vec::with_capacity(k);
    let mut venue_flags = Vec::new();
    for (c, members) in cluster_docs.iter().enumerate() {
        let trust_mass: f64 = members
            .iter()
            .map(|d| weight(d.get("_id").and_then(Value::as_str).unwrap_or_default()))
            .sum();
        // Venue concentration.
        let mut venues: HashMap<&str, usize> = HashMap::new();
        for d in members {
            if let Some(v) = d.path("venue").and_then(Value::as_str) {
                *venues.entry(v).or_insert(0) += 1;
            }
        }
        // Equally common venues tie toward the smaller name: the map's
        // iteration order is random per instance, and two renderings of
        // one state must not differ.
        let dominant_venue = venues
            .iter()
            .max_by_key(|(&v, &n)| (n, std::cmp::Reverse(v)))
            .map(|(v, &n)| (v.to_string(), n as f64 / members.len().max(1) as f64));
        if let Some((_, share)) = &dominant_venue {
            if *share > VENUE_CONCENTRATION && members.len() >= 3 {
                venue_flags.push(c);
            }
        }
        // Characteristic terms.
        let mut tf: HashMap<String, usize> = HashMap::new();
        for d in members {
            if let Some(t) = d.path("title").and_then(Value::as_str) {
                for tok in tokenize_lower(t) {
                    if !covidkg_text::is_stopword(&tok) && tok.len() > 3 {
                        *tf.entry(tok).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut terms: Vec<(String, usize)> = tf.into_iter().collect();
        terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        clusters.push(ClusterBias {
            cluster: c,
            docs: members.len(),
            trust_mass,
            dominant_venue,
            top_terms: terms.into_iter().take(4).map(|(t, _)| t).collect(),
        });
    }

    // Coverage Gini over cluster sizes, and over trust-weighted masses.
    let sizes: Vec<f64> = clusters.iter().map(|c| c.docs as f64).collect();
    let coverage_gini = gini(&sizes);
    let masses: Vec<f64> = clusters.iter().map(|c| c.trust_mass).collect();
    let trust_gini = gini(&masses);

    // Low-provenance topics: mean per-document trust well below the
    // corpus mean (only meaningful for clusters with members).
    let total_mass: f64 = masses.iter().sum();
    let corpus_mean = total_mass / docs.len() as f64;
    let low_trust_flags: Vec<usize> = clusters
        .iter()
        .filter(|c| c.docs >= 3 && c.trust_mass / (c.docs as f64) < LOW_TRUST_RATIO * corpus_mean)
        .map(|c| c.cluster)
        .collect();

    // Temporal freshness: share of docs in the latest year observed.
    let years: Vec<i32> = docs
        .iter()
        .filter_map(|d| {
            d.path("date")
                .and_then(Value::as_str)
                .and_then(|s| s.get(..4))
                .and_then(|y| y.parse().ok())
        })
        .collect();
    let recent_fraction = match years.iter().max() {
        Some(&latest) => {
            years.iter().filter(|&&y| y == latest).count() as f64 / years.len() as f64
        }
        None => 0.0,
    };

    BiasReport {
        clusters,
        coverage_gini,
        trust_gini,
        venue_flags,
        low_trust_flags,
        recent_fraction,
    }
}

/// Gini coefficient of a non-negative distribution.
fn gini(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cum: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (2.0 * (i + 1) as f64 - n as f64 - 1.0) * x)
        .sum();
    cum / (n as f64 * total)
}

impl BiasReport {
    /// JSON form — the single serialization behind the `/bias/report`
    /// wire route and the `covidkg bias` CLI, so both surfaces are
    /// byte-identical by construction.
    pub fn to_json(&self) -> Value {
        let flags = |v: &[usize]| Value::Array(v.iter().map(|&c| Value::int(c as i64)).collect());
        covidkg_json::obj! {
            "coverage_gini" => self.coverage_gini,
            "trust_gini" => self.trust_gini,
            "recent_fraction" => self.recent_fraction,
            "venue_flags" => flags(&self.venue_flags),
            "low_trust_flags" => flags(&self.low_trust_flags),
            "clusters" => Value::Array(
                self.clusters
                    .iter()
                    .map(|c| covidkg_json::obj! {
                        "cluster" => c.cluster as i64,
                        "docs" => c.docs as i64,
                        "trust_mass" => c.trust_mass,
                        "dominant_venue" => match &c.dominant_venue {
                            Some((v, share)) => covidkg_json::obj! {
                                "venue" => v.as_str(),
                                "share" => *share,
                            },
                            None => Value::Null,
                        },
                        "top_terms" => Value::Array(
                            c.top_terms.iter().map(|t| Value::str(t.clone())).collect()
                        ),
                    })
                    .collect(),
            ),
        }
    }

    /// Render the interrogation report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== bias interrogation ============================");
        let _ = writeln!(
            out,
            "topical coverage Gini : {:.3} ({})",
            self.coverage_gini,
            if self.coverage_gini < 0.3 {
                "balanced"
            } else {
                "SKEWED — some topics dominate the KG's inputs"
            }
        );
        let _ = writeln!(
            out,
            "trust-weighted Gini   : {:.3}{}",
            self.trust_gini,
            if self.trust_gini > self.coverage_gini + 0.05 {
                " (skew WORSENS once sources are credibility-weighted)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "freshness             : {:.0}% of publications from the latest year",
            self.recent_fraction * 100.0
        );
        if self.venue_flags.is_empty() {
            let _ = writeln!(out, "venue concentration   : no cluster dominated by one venue");
        } else {
            let _ = writeln!(
                out,
                "venue concentration   : {} cluster(s) FLAGGED (>{:.0}% one venue)",
                self.venue_flags.len(),
                VENUE_CONCENTRATION * 100.0
            );
        }
        if self.low_trust_flags.is_empty() {
            let _ = writeln!(out, "provenance strength   : no low-trust cluster");
        } else {
            let _ = writeln!(
                out,
                "provenance strength   : {} cluster(s) LOW-TRUST (mean trust <{:.0}% of corpus mean)",
                self.low_trust_flags.len(),
                LOW_TRUST_RATIO * 100.0
            );
        }
        for c in &self.clusters {
            let venue = c
                .dominant_venue
                .as_ref()
                .map(|(v, s)| format!("{v} ({:.0}%)", s * 100.0))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  cluster {:<2} {:>4} docs  trust {:>6.2}  top venue {:<38} terms: {}",
                c.cluster,
                c.docs,
                c.trust_mass,
                venue,
                c.top_terms.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covidkg_corpus::{CorpusGenerator, Publication};
    use covidkg_ml::Word2VecConfig;

    fn setup(n: usize) -> (Vec<Value>, Word2Vec) {
        let pubs = CorpusGenerator::with_size(n, 3).generate();
        let sentences: Vec<Vec<String>> = pubs.iter().map(Publication::all_tokens).collect();
        let w2v = Word2Vec::train(
            &sentences,
            &Word2VecConfig {
                dims: 16,
                epochs: 2,
                ..Word2VecConfig::default()
            },
        );
        (pubs.iter().map(Publication::to_doc).collect(), w2v)
    }

    #[test]
    fn balanced_corpus_has_low_gini() {
        let (docs, w2v) = setup(48);
        let report = interrogate(&docs, &w2v, 12);
        assert_eq!(report.clusters.len(), 12);
        assert!(report.coverage_gini < 0.6, "gini {}", report.coverage_gini);
        assert!(report.recent_fraction > 0.0);
        let total: usize = report.clusters.iter().map(|c| c.docs).sum();
        assert_eq!(total, 48);
    }

    /// The report is served over the wire and checked byte for byte
    /// against an in-process recomputation, so it must be a function of
    /// its inputs — including which of two equally common venues a
    /// cluster names as dominant.
    #[test]
    fn report_is_a_pure_function_of_its_inputs() {
        let (docs, w2v) = setup(48);
        let first = interrogate(&docs, &w2v, 12).to_json().to_json();
        for _ in 0..16 {
            assert_eq!(interrogate(&docs, &w2v, 12).to_json().to_json(), first);
        }
    }

    #[test]
    fn skewed_corpus_raises_gini() {
        let (docs, w2v) = setup(48);
        // Duplicate one topic's docs heavily to skew coverage. Identical
        // embeddings land in one cluster, so the duplicated mass
        // concentrates there.
        let mut skewed = docs.clone();
        let mut serial = 0;
        for d in &docs {
            if d.path("_truth.topic_id").and_then(Value::as_i64) == Some(0) {
                for _ in 0..20 {
                    let mut dup = d.clone();
                    dup.insert("_id", format!("dup-{serial}"));
                    serial += 1;
                    skewed.push(dup);
                }
            }
        }
        assert!(serial >= 60, "expected topic-0 docs to duplicate");
        let balanced = interrogate(&docs, &w2v, 12);
        let report = interrogate(&skewed, &w2v, 12);
        // kmeans adds noise to per-cluster masses, so compare against an
        // absolute band rather than the (noisy) balanced value alone.
        assert!(report.coverage_gini > 0.45, "skewed gini {}", report.coverage_gini);
        assert!(balanced.coverage_gini < report.coverage_gini);
    }

    #[test]
    fn unit_weights_reduce_to_the_unweighted_report() {
        let (docs, w2v) = setup(48);
        let report = interrogate(&docs, &w2v, 12);
        for c in &report.clusters {
            assert!((c.trust_mass - c.docs as f64).abs() < 1e-9);
        }
        assert!((report.trust_gini - report.coverage_gini).abs() < 1e-9);
        assert!(report.low_trust_flags.is_empty());
    }

    #[test]
    fn credibility_weights_reshape_cluster_mass() {
        let (docs, w2v) = setup(48);
        // Discount one venue to the floor; clusters holding its papers
        // lose mass while doc counts stay put.
        let victim = docs[0].path("venue").and_then(Value::as_str).unwrap().to_string();
        let weights: HashMap<String, f64> = docs
            .iter()
            .map(|d| {
                let id = d.get("_id").and_then(Value::as_str).unwrap().to_string();
                let v = d.path("venue").and_then(Value::as_str).unwrap();
                (id, if v == victim { 0.05 } else { 1.0 })
            })
            .collect();
        let report = interrogate_weighted(&docs, &w2v, 12, |id| weights[id]);
        let total_docs: usize = report.clusters.iter().map(|c| c.docs).sum();
        let total_mass: f64 = report.clusters.iter().map(|c| c.trust_mass).sum();
        assert!(total_mass < total_docs as f64, "discounted venue must shed mass");
        for c in &report.clusters {
            assert!(c.trust_mass <= c.docs as f64 + 1e-9);
        }
        let json = report.to_json().to_json();
        assert!(json.contains("trust_gini"));
        assert!(json.contains("trust_mass"));
    }

    #[test]
    fn gini_math() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0]).abs() < 1e-9);
        // All mass in one bucket of n → (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 12.0]);
        assert!((g - 0.75).abs() < 1e-9, "{g}");
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn render_mentions_flags() {
        let (docs, w2v) = setup(24);
        let report = interrogate(&docs, &w2v, 6);
        let text = report.render();
        assert!(text.contains("bias interrogation"));
        assert!(text.contains("coverage Gini"));
        assert!(text.contains("cluster 0"));
    }

    #[test]
    fn empty_input() {
        let (_, w2v) = setup(4);
        let report = interrogate(&[], &w2v, 5);
        assert!(report.clusters.is_empty());
        assert_eq!(report.coverage_gini, 0.0);
    }
}
