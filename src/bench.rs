//! `covidkg bench <net|repl|ann|kg|trust|paper>` and `covidkg table
//! [name]`: the measurements the wire benchmark (`benchmark/`,
//! `BENCHMARK.json`) cannot see — held-connection scaling, replica read
//! scaling and failover time, ANN recall against distance evaluations,
//! the KG/trust incremental-vs-rebuild ratios, and the paper's own
//! claims E1–E8 (`paper.rs`).
//!
//! Every bench returns flat rows; one writer stamps them with commit,
//! host, scale and seed into `BENCH_{name}.json`; one renderer turns a
//! table of column specs into the marked blocks of `EXPERIMENTS.md`. A
//! run below a bench's documented scale cannot write the committed
//! artefact, and `table` refuses a committed artefact below it.

use crate::{
    build_system, open_system, paper, pool_router, start_http, start_primary, start_server, Args,
};
use covidkg::json::{obj, Value};
use covidkg::repl::{
    elect, Epoch, ReplConfig, ReplicaNode, ReplicaNodeConfig, ReplicaTarget, TargetHealth,
};
use covidkg::{CovidKg, HnswConfig, HnswIndex, SearchMode, ServeConfig};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generated column: its header, the row member it prints, and how
/// a number prints (decimal places, unit suffix). Strings print as-is.
type Column = (&'static str, &'static str, (usize, &'static str));

/// One marked table of `EXPERIMENTS.md`: the rows of its bench's
/// artefact whose `"row"` member is `kind`, one line each.
struct Table {
    marker: &'static str,
    kind: &'static str,
    columns: &'static [Column],
}

/// One bench: the `BENCH_{name}.json` it writes, the scale the docs
/// quote it at, and the tables rendered from it.
struct Spec {
    name: &'static str,
    unit: &'static str,
    scale: &'static [usize],
    tables: &'static [Table],
}

const SPECS: &[Spec] = &[
    Spec {
        name: "net",
        unit: "held connections",
        scale: &[64, 512, 4096],
        tables: &[Table {
            marker: "conn-table",
            kind: "held",
            columns: &[
                ("idle conns held", "held_connections", (0, "")),
                ("offered", "offered_rate", (0, " req/s")),
                ("ok", "ok", (0, "")),
                ("sent", "sent", (0, "")),
                ("io errors", "io_errors", (0, "")),
                ("goodput", "goodput_rps", (0, " ok/s")),
                ("p50", "p50_us", (0, " µs")),
                ("p99", "p99_us", (0, " µs")),
            ],
        }],
    },
    Spec {
        name: "repl",
        unit: "replicas",
        scale: &[1, 2, 4],
        tables: &[
            Table {
                marker: "repl-table",
                kind: "scaling",
                columns: &[
                    ("replicas", "replicas", (0, "")),
                    ("service floor", "service_floor_ms", (0, " ms")),
                    ("reads ok", "ok", (0, "")),
                    ("errors", "errors", (0, "")),
                    ("wall", "wall_secs", (2, " s")),
                    ("goodput", "goodput_rps", (0, " reads/s")),
                ],
            },
            Table {
                marker: "failover-table",
                kind: "failover",
                columns: &[
                    ("service floor", "service_floor_ms", (0, " ms")),
                    ("winner", "winner", (0, "")),
                    ("epoch after", "epoch_after", (0, "")),
                    (
                        "kill → promoted listener accepting",
                        "promoted_ms",
                        (1, " ms"),
                    ),
                    (
                        "kill → first routed read",
                        "first_routed_read_ms",
                        (1, " ms"),
                    ),
                ],
            },
        ],
    },
    Spec {
        name: "ann",
        unit: "docs",
        scale: &[240, 960, 2400],
        tables: &[Table {
            marker: "ann-table",
            kind: "size",
            columns: &[
                ("corpus", "docs", (0, " docs")),
                ("build", "build_ms", (0, " ms")),
                ("recall@10", "recall_at_10", (3, "")),
                ("HNSW evals/query", "hnsw_evals_per_query", (0, "")),
                ("brute evals/query", "brute_evals_per_query", (0, "")),
                ("work saved", "eval_ratio", (1, "x")),
                ("p50", "p50_us", (0, " µs")),
                ("p99", "p99_us", (0, " µs")),
            ],
        }],
    },
    Spec {
        name: "kg",
        unit: "docs",
        scale: &[120, 480, 1200],
        tables: &[Table {
            marker: "kg-table",
            kind: "size",
            columns: &[
                ("corpus", "docs", (0, " docs")),
                ("kg nodes", "kg_nodes", (0, "")),
                ("profiles", "profiles", (0, "")),
                ("query p50", "p50_us", (0, " µs")),
                ("query p99", "p99_us", (0, " µs")),
                ("full rebuild", "full_rebuild_ms", (2, " ms")),
                ("incremental", "incremental_refresh_us", (0, " µs")),
                ("speedup", "speedup", (1, "x")),
            ],
        }],
    },
    Spec {
        name: "trust",
        unit: "docs",
        scale: &[120, 480, 1200],
        tables: &[Table {
            marker: "trust-table",
            kind: "size",
            columns: &[
                ("corpus", "docs", (0, " docs")),
                ("trust nodes", "trust_nodes", (0, "")),
                ("venues", "venues", (0, "")),
                ("lookup p50", "p50_us", (0, " µs")),
                ("lookup p99", "p99_us", (0, " µs")),
                ("full rebuild", "full_rebuild_ms", (2, " ms")),
                ("incremental", "incremental_refresh_us", (0, " µs")),
                ("speedup", "speedup", (1, "x")),
            ],
        }],
    },
    Spec {
        name: "paper",
        unit: "publications",
        scale: &[72, 48, 400, 180, 60, 90, 150, 900],
        tables: &[
            Table {
                marker: "e1-table",
                kind: "e1",
                columns: &[
                    ("model", "model", (0, "")),
                    ("slice", "slice", (0, "")),
                    ("rows", "rows", (0, "")),
                    ("folds", "folds", (0, "")),
                    ("precision", "precision", (3, "")),
                    ("recall", "recall", (3, "")),
                    ("F1", "f1", (3, "")),
                ],
            },
            Table {
                marker: "e2-table",
                kind: "e2",
                columns: &[
                    ("model", "model", (0, "")),
                    ("rows", "rows", (0, "")),
                    ("precision", "precision", (3, "")),
                    ("recall", "recall", (3, "")),
                    ("F1", "f1", (3, "")),
                    ("train time", "train_ms", (0, " ms")),
                    ("params", "params", (0, "")),
                ],
            },
            Table {
                marker: "e2-delta-table",
                kind: "e2_delta",
                columns: &[
                    ("ΔF1", "d_f1", (3, "")),
                    ("ΔPrecision", "d_precision", (3, "")),
                    ("ΔRecall", "d_recall", (3, "")),
                    ("GRU training speedup", "gru_speedup", (2, "x")),
                ],
            },
            Table {
                marker: "e3-table",
                kind: "e3",
                columns: &[
                    ("pipeline", "pipeline", (0, "")),
                    ("docs", "docs", (0, "")),
                    ("reps", "reps", (0, "")),
                    ("mean latency", "mean_ms", (2, " ms")),
                    ("speedup", "speedup", (1, "x")),
                ],
            },
            Table {
                marker: "e4-table",
                kind: "e4",
                columns: &[
                    ("engine / mode", "engine", (0, "")),
                    ("queries", "queries", (0, "")),
                    ("P@10", "p_at_10", (3, "")),
                    ("MRR", "mrr", (3, "")),
                    ("mean latency", "mean_ms", (2, " ms")),
                    ("`search_naive`", "naive_mean_ms", (2, " ms")),
                    ("pruned speedup", "naive_speedup", (1, "x")),
                ],
            },
            Table {
                marker: "e4-index-table",
                kind: "e4_index",
                columns: &[
                    ("docs", "docs", (0, "")),
                    ("matches", "matches", (0, "")),
                    ("`$text` with inverted index", "index_ms", (2, " ms")),
                    ("full scan", "full_scan_ms", (2, " ms")),
                    ("speedup", "index_speedup", (0, "x")),
                ],
            },
            Table {
                marker: "e5-table",
                kind: "e5",
                columns: &[
                    ("rows", "rows", (0, "")),
                    ("max vocab", "max_vocab", (0, "")),
                    ("dims used", "dims", (0, "")),
                    ("train time", "train_ms", (0, " ms")),
                    ("F1", "f1", (3, "")),
                ],
            },
            Table {
                marker: "e6-table",
                kind: "e6",
                columns: &[
                    ("variant", "variant", (0, "")),
                    ("subtrees", "subtrees", (0, "")),
                    ("unseen roots", "unseen_pct", (0, " %")),
                    ("auto", "auto_pct", (1, " %")),
                    ("queued", "queued_pct", (1, " %")),
                    ("correct parent", "correct", (0, "")),
                    ("graded", "graded", (0, "")),
                    ("expert reviews", "reviews", (0, "")),
                ],
            },
            Table {
                marker: "e6-round-table",
                kind: "e6_round",
                columns: &[
                    ("round", "round", (0, "")),
                    ("submitted", "submitted", (0, "")),
                    ("expert reviews", "reviews", (0, "")),
                    ("supervised", "reviews_pct", (1, " %")),
                ],
            },
            Table {
                marker: "e7-table",
                kind: "e7",
                columns: &[
                    ("papers", "papers", (0, "")),
                    ("tables parsed", "tables", (0, "")),
                    ("side-effect observations", "observations", (0, "")),
                    ("profiles", "profiles", (0, "")),
                    ("sources per profile", "sources_per_profile", (1, "")),
                    ("extract", "extract_ms", (1, " ms")),
                    ("build", "build_ms", (2, " ms")),
                ],
            },
            Table {
                marker: "e7-profile-table",
                kind: "e7_profile",
                columns: &[
                    ("vaccine", "vaccine", (0, "")),
                    ("doses", "doses", (0, "")),
                    ("sources", "sources", (0, "")),
                    ("observations", "observations", (0, "")),
                ],
            },
            Table {
                marker: "e8-table",
                kind: "e8",
                columns: &[
                    ("shards", "shards", (0, "")),
                    ("docs", "docs", (0, "")),
                    ("balance", "balance", (2, "")),
                    ("scan matches", "scan_matches", (0, "")),
                    ("ingest", "ingest_ms", (1, " ms")),
                    ("docs/s", "docs_per_sec", (0, "")),
                    ("scan query", "scan_ms", (2, " ms")),
                ],
            },
        ],
    },
];

const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

fn committed_path(name: &str) -> String {
    format!("{}/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn spec_named(name: &str) -> Result<&'static Spec, String> {
    SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("no bench {name:?}: expected one of {}", names.join(", "))
    })
}

fn show_scale(scale: &[usize]) -> String {
    let sizes: Vec<String> = scale.iter().map(usize::to_string).collect();
    sizes.join("/")
}

/// Whether a run at `scale` falls short of the `documented` one: fewer
/// sizes, or any size smaller.
fn below(scale: &[usize], documented: &[usize]) -> bool {
    scale.len() < documented.len() || scale.iter().zip(documented).any(|(s, d)| s < d)
}

/// Where a run of `spec` at `scale` may write: `--out` when given, the
/// committed artefact only at the documented scale.
fn artefact_path(spec: &Spec, scale: &[usize], out: Option<&str>) -> Result<String, String> {
    match out {
        Some(path) => Ok(path.to_string()),
        None if below(scale, spec.scale) => Err(format!(
            "bench {} at {} {} is below the documented {}: pass --out <file> \
             (only a full-scale run may write the committed BENCH_{}.json)",
            spec.name,
            show_scale(scale),
            spec.unit,
            show_scale(spec.scale),
            spec.name,
        )),
        None => Ok(committed_path(spec.name)),
    }
}

/// The `bench` command: run one bench at the scale the flags ask for
/// and write its stamped artefact.
pub fn run(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or_default();
    let spec = spec_named(name)?;
    let corpus = args.corpus;
    let scale = match name {
        "net" => args
            .connections
            .clone()
            .unwrap_or_else(|| spec.scale.to_vec()),
        "ann" => vec![2 * corpus, 8 * corpus, 20 * corpus],
        "kg" | "trust" => vec![corpus, 4 * corpus, 10 * corpus],
        _ => spec.scale.to_vec(),
    };
    let path = artefact_path(spec, &scale, args.out.as_deref())?;
    println!("bench {name} at {} {}", show_scale(&scale), spec.unit);
    let rows = match name {
        "net" => net(args, &scale)?,
        "repl" => repl(args, &scale, spec.tables)?,
        "ann" => ann(args, &scale, &spec.tables[0])?,
        "kg" => kg(args, &scale, &spec.tables[0])?,
        "paper" => return paper(spec, &path, args.out.is_some()),
        _ => trust(args, &scale, &spec.tables[0])?,
    };
    write_artefact(&path, spec, &scale, args.seed, rows)
}

/// `bench paper`: E1–E8 at the documented scale and seed. Fails when a
/// shape check misses, and, for a run written beside the committed
/// artefact (`--out`), when a deterministic member drifted from it.
fn paper(spec: &Spec, path: &str, beside_committed: bool) -> Result<(), String> {
    let mut rows = Vec::new();
    for ((title, experiment), &n) in paper::EXPERIMENTS.iter().zip(spec.scale) {
        println!("{title}, {n} publications");
        for row in experiment(n) {
            let kind = row.get("row").and_then(Value::as_str);
            if let Some(table) = spec.tables.iter().find(|t| Some(t.kind) == kind) {
                print!("{}", render_row(table.columns, &row));
            }
            rows.push(row);
        }
    }
    write_artefact(path, spec, spec.scale, paper::SEED, rows)?;
    // Read back: the checks see the numbers as the file holds them.
    let run = load(path)?;
    let misses = paper::shape_misses(rows_of(&run));
    if !misses.is_empty() {
        return Err(format!("shape check missed: {}", misses.join("; ")));
    }
    if beside_committed {
        let committed = load(&committed_path(spec.name))?;
        if let Some(drift) = paper::first_drift(rows_of(&run), rows_of(&committed)) {
            return Err(format!("{path} drifted from BENCH_paper.json: {drift}"));
        }
    }
    Ok(())
}

/// The one writer of `BENCH_*.json`: `rows` under the stamps that say
/// what produced them — commit, host, scale and seed.
fn write_artefact(
    path: &str,
    spec: &Spec,
    scale: &[usize],
    seed: u64,
    rows: Vec<Value>,
) -> Result<(), String> {
    let commit = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
        .args(["describe", "--always", "--dirty=+dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let artefact = obj! {
        "bench" => spec.name,
        "commit" => commit.unwrap_or_else(|| "unknown".into()),
        "host" => obj! {
            "cpus" => std::thread::available_parallelism().map_or(1, |n| n.get()),
            "model" => model.unwrap_or_else(|| "unknown".into()),
        },
        "scale" => Value::Array(scale.iter().map(|s| Value::from(*s)).collect()),
        "scale_unit" => spec.unit,
        "seed" => seed as i64,
        "rows" => Value::Array(rows),
    };
    std::fs::write(path, artefact.to_json_pretty() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// p50 and p99 of `samples` (nearest rank): the one place a latency
/// vector is sorted.
fn percentiles(mut samples: Vec<Duration>) -> (Duration, Duration) {
    samples.sort();
    let at = |pct: usize| {
        let rank = (samples.len() * pct / 100).min(samples.len().saturating_sub(1));
        samples.get(rank).copied().unwrap_or_default()
    };
    (at(50), at(99))
}

/// Median wall time of `repeats` timed calls of `f`.
fn median_time(repeats: usize, mut f: impl FnMut(usize)) -> Duration {
    let times = (0..repeats).map(|i| {
        let t = Instant::now();
        f(i);
        t.elapsed()
    });
    percentiles(times.collect()).0
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Repeats of the from-scratch rebuild and of the one-paper refresh
/// whose medians `kg` and `trust` compare.
const FULL_REPEATS: usize = 5;
const INCR_REPEATS: usize = 50;

/// The corpus sweep `kg` and `trust` share. At each size: build a
/// system; `measure` adds its own members to the row and returns the
/// lookup latencies, the median from-scratch rebuild and the median
/// one-paper incremental refresh; the row gets p50/p99 and their ratio.
/// Warns when the largest size misses the 5x bar.
fn maintenance_rows(
    args: &Args,
    scale: &[usize],
    table: &Table,
    measure: impl Fn(&CovidKg, &mut Value) -> Result<(Vec<Duration>, Duration, Duration), String>,
) -> Result<Vec<Value>, String> {
    let mut rows = Vec::new();
    let mut speedup = 0.0;
    for &docs in scale {
        let system =
            build_system(docs, args.seed, None).map_err(|e| format!("at {docs} docs: {e}"))?;
        let mut row = obj! { "row" => table.kind, "docs" => docs };
        let (latencies, full, incremental) = measure(&system, &mut row)?;
        let (p50, p99) = percentiles(latencies);
        speedup = full.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
        row.insert("p50_us", micros(p50));
        row.insert("p99_us", micros(p99));
        row.insert("full_rebuild_ms", full.as_secs_f64() * 1e3);
        row.insert("incremental_refresh_us", micros(incremental));
        row.insert("speedup", speedup);
        print!("{}", render_row(table.columns, &row));
        rows.push(row);
    }
    if speedup < 5.0 {
        eprintln!(
            "warning: largest corpus missed the target (incremental speedup {speedup:.1}x >= 5.0x)"
        );
    }
    Ok(rows)
}

/// `bench kg`: ranked-path query latency over a mixed 4-plan workload
/// (a hierarchy walk, a kind-filtered hop, a co-occurrence expansion
/// and a deep mixed walk), plus the cost of keeping meta-profiles fresh
/// — re-extract every stored paper's tables and rebuild all profiles,
/// against refreshing the one touched paper, which is what ingest pays.
fn kg(args: &Args, scale: &[usize], table: &Table) -> Result<Vec<Value>, String> {
    use covidkg::core::{doc_observations, QueryPlan};
    use covidkg::kg::{Observation, ProfileStore};
    const QUERY_ITERS: usize = 40;
    let plans = [
        ("kind:root", "child,child"),
        ("kind:category", "child:entity"),
        ("kind:entity", "co"),
        ("node:0", "child,any,any"),
    ]
    .iter()
    .map(|(start, steps)| QueryPlan::parse(start, steps, args.fanout, args.k))
    .collect::<Result<Vec<_>, _>>()?;
    maintenance_rows(args, scale, table, |system, row| {
        let mut latencies = Vec::new();
        let (mut hops, mut visited) = (0u64, 0u64);
        for plan in &plans {
            let r = system.kg_query(plan); // warm-up + work counters
            hops += r.hops;
            visited += r.visited;
            for _ in 0..QUERY_ITERS {
                let t = Instant::now();
                let r = system.kg_query(plan);
                latencies.push(t.elapsed());
                std::hint::black_box(r);
            }
        }

        let publications = system.publications();
        let epoch = publications.mutation_epoch();
        let extract_all = || -> Vec<(String, Vec<Observation>)> {
            publications
                .scan_all()
                .iter()
                .map(|doc| {
                    let id = doc
                        .get("_id")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string();
                    let obs = doc_observations(doc, &id);
                    (id, obs)
                })
                .collect()
        };
        let full = median_time(FULL_REPEATS, |_| {
            let mut store = ProfileStore::new();
            store.rebuild_all(extract_all(), epoch);
            std::hint::black_box(store.stats());
        });
        let papers = extract_all();
        let touched = [papers
            .iter()
            .max_by_key(|(_, obs)| obs.len())
            .map(|(id, _)| id.clone())
            .ok_or("no stored papers to refresh")?];
        let mut store = ProfileStore::new();
        store.rebuild_all(papers, epoch);
        let incremental = median_time(INCR_REPEATS, |i| {
            store.refresh(epoch + 1 + i as u64, &touched, |id| {
                publications
                    .get(id)
                    .map(|doc| doc_observations(&doc, id))
                    .unwrap_or_default()
            });
        });

        let stats = system.profile_store().stats();
        row.insert("kg_nodes", system.kg().len());
        row.insert("profiles", stats.profiles as i64);
        row.insert("profile_papers", stats.papers as i64);
        row.insert("observations", stats.observations as i64);
        row.insert("queries", latencies.len());
        row.insert("hops", hops as i64);
        row.insert("visited", visited as i64);
        Ok((latencies, full, incremental))
    })
}

/// `bench trust`: node-trust lookup latency across the graph, plus the
/// cost of keeping trust scores fresh — re-extract every stored paper's
/// trust facts and re-propagate from scratch, against refreshing the
/// one touched paper, which is what ingest pays.
fn trust(args: &Args, scale: &[usize], table: &Table) -> Result<Vec<Value>, String> {
    use covidkg::core::{doc_observations, doc_paper_facts, scan_paper_facts};
    use covidkg::trust::TrustStore;
    const LOOKUP_ITERS: usize = 200;
    maintenance_rows(args, scale, table, |system, row| {
        let publications = system.publications();
        let kg = system.kg();
        let epoch = publications.mutation_epoch();

        let stride = (kg.len() / 16).max(1);
        let ids: Vec<usize> = (0..kg.len()).step_by(stride).collect();
        let mut latencies = Vec::new();
        for i in 0..LOOKUP_ITERS {
            let t = Instant::now();
            let doc = system.trust_node(ids[i % ids.len()]);
            latencies.push(t.elapsed());
            std::hint::black_box(doc);
        }

        let full = median_time(FULL_REPEATS, |_| {
            let mut store = TrustStore::new();
            store.rebuild_all(scan_paper_facts(publications), kg, epoch);
            std::hint::black_box(store.stats());
        });
        let facts = scan_paper_facts(publications);
        let touched = [facts
            .iter()
            .max_by_key(|f| f.claims.len())
            .map(|f| f.paper_id.clone())
            .ok_or("no stored papers to refresh")?];
        let mut store = TrustStore::new();
        store.rebuild_all(facts, kg, epoch);
        let incremental = median_time(INCR_REPEATS, |i| {
            let unchanged = Default::default();
            store.refresh(epoch + 1 + i as u64, &touched, kg, &unchanged, |id| {
                publications
                    .get(id)
                    .map(|doc| doc_paper_facts(&doc, id, &doc_observations(&doc, id)))
            });
        });

        let stats = system.trust_store().stats();
        row.insert("trust_nodes", stats.nodes as i64);
        row.insert("papers", stats.papers as i64);
        row.insert("venues", stats.venues as i64);
        row.insert("claims", stats.claims as i64);
        Ok((latencies, full, incremental))
    })
}

/// `bench ann`: recall@10 and per-query work of the HNSW index against
/// exact brute-force search, on embeddings trained per corpus size.
fn ann(args: &Args, scale: &[usize], table: &Table) -> Result<Vec<Value>, String> {
    use covidkg::ml::{Word2Vec, Word2VecConfig};
    use covidkg::text::tokenize_lower;
    const K: usize = 10;
    const QUERY_COUNT: usize = 48;
    let config = HnswConfig::default();
    println!(
        "recall@{K} over {QUERY_COUNT} queries, M {}, ef_construction {}, ef_search {}",
        config.m, config.ef_construction, config.ef_search
    );
    let mut rows = Vec::new();
    let (mut recall, mut ratio) = (0.0, 0.0);
    for &docs in scale {
        let pubs = covidkg::corpus::CorpusGenerator::with_size(docs, args.seed).generate();
        let sentences: Vec<Vec<String>> = pubs
            .iter()
            .map(|p| {
                let mut t = tokenize_lower(&p.title);
                t.extend(tokenize_lower(&p.abstract_text));
                t
            })
            .collect();
        let model = Word2Vec::train(
            &sentences,
            &Word2VecConfig {
                dims: 24,
                epochs: 2,
                seed: args.seed,
                ..Word2VecConfig::default()
            },
        );
        let vectors: Vec<(String, Vec<f32>)> = pubs
            .iter()
            .zip(&sentences)
            .map(|(p, tokens)| (p.id.clone(), model.embed_phrase(tokens)))
            .collect();
        let t0 = Instant::now();
        let index = HnswIndex::build(
            model.dims(),
            config,
            vectors.iter().map(|(id, v)| (id.as_str(), v.as_slice())),
        );
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut recall_sum = 0.0;
        let (mut hnsw_evals, mut brute_evals) = (0u64, 0u64);
        let mut latencies = Vec::new();
        for q in covidkg::corpus::query_workload(QUERY_COUNT, args.seed ^ 0x5eed) {
            let qvec = model.embed_phrase(&tokenize_lower(&q));
            if qvec.iter().all(|x| *x == 0.0) {
                continue;
            }
            let (exact, brute) = index.exact_search(&qvec, K);
            if exact.is_empty() {
                continue;
            }
            let t = Instant::now();
            let (approx, stats) = index.search(&qvec, K);
            latencies.push(t.elapsed());
            recall_sum += recall_of(&approx, &exact);
            hnsw_evals += stats.distance_evals;
            brute_evals += brute;
        }
        if latencies.is_empty() {
            return Err(format!("no usable queries at corpus size {docs}"));
        }
        let counted = latencies.len() as f64;
        recall = recall_sum / counted;
        let evals_per_query = hnsw_evals as f64 / counted;
        let brute_per_query = brute_evals as f64 / counted;
        ratio = brute_per_query / evals_per_query.max(1.0);
        let (p50, p99) = percentiles(latencies);
        let row = obj! {
            "row" => table.kind,
            "docs" => docs,
            "dims" => model.dims(),
            "m" => config.m,
            "ef_construction" => config.ef_construction,
            "ef_search" => config.ef_search,
            "build_ms" => build_ms,
            "queries" => counted,
            "recall_at_10" => recall,
            "hnsw_evals_per_query" => evals_per_query,
            "brute_evals_per_query" => brute_per_query,
            "eval_ratio" => ratio,
            "p50_us" => micros(p50),
            "p99_us" => micros(p99),
        };
        print!("{}", render_row(table.columns, &row));
        rows.push(row);
    }
    if recall < 0.95 || ratio < 5.0 {
        eprintln!(
            "warning: largest corpus missed the targets (recall {recall:.3} >= 0.95, \
             eval ratio {ratio:.1} >= 5.0)"
        );
    }
    Ok(rows)
}

/// The share of the `exact` top-k that `approx` also returned.
pub fn recall_of(approx: &[(String, f32)], exact: &[(String, f32)]) -> f64 {
    let wanted: HashSet<&str> = exact.iter().map(|(id, _)| id.as_str()).collect();
    let hits = approx
        .iter()
        .filter(|(id, _)| wanted.contains(id.as_str()))
        .count();
    hits as f64 / exact.len() as f64
}

/// `bench net`: the default front-end over a served system, holding
/// each population of `scale` idle connections in turn beside the
/// sweep's fixed open-loop load.
fn net(args: &Args, scale: &[usize]) -> Result<Vec<Value>, String> {
    let server = start_server(open_system(args, false)?, args);
    let mut http = start_http(&server, None, "127.0.0.1:0")?;
    // Warm-up, discarded: the same arrival schedule with nobody held,
    // so every measured phase finds its pages cached.
    covidkg::net::run_held_connections(http.local_addr(), 0);
    let mut rows = Vec::new();
    for &held in scale {
        let report = covidkg::net::run_held_connections(http.local_addr(), held);
        println!("  {}", report.render());
        if (report.held_connections as usize) < held {
            return Err(format!(
                "only {} of {held} sockets were still open at the end of the phase \
                 (raise `ulimit -n`, or pass the population this host holds with --connections)",
                report.held_connections
            ));
        }
        rows.push(report.to_json());
    }
    http.shutdown();
    server.shutdown();
    Ok(rows)
}

/// The synthetic per-read service time of the replica benches: with it,
/// a 2-worker replica's capacity is sleep-bound (100 reads/s) rather
/// than CPU-bound, so the fleet's aggregate goodput scales with replica
/// count even on a host with fewer cores than replicas, where raw
/// search CPU would cap every fleet at the same ceiling.
const SERVICE_FLOOR: Duration = Duration::from_millis(20);

/// A replica node of the benches: 2 workers, an uncacheable result
/// page, and `floor` injected as service time per read when given.
fn bench_replica(
    primary: std::net::SocketAddr,
    name: &str,
    dir: String,
    floor: Option<Duration>,
) -> Result<ReplicaNode, String> {
    let mut config = ReplicaNodeConfig::new(primary, name, dir);
    config.serve = ServeConfig {
        workers: 2,
        cache_ttl: Some(Duration::ZERO),
        ..ServeConfig::default()
    };
    let node = ReplicaNode::start(config).map_err(|e| format!("replica {name}: {e}"))?;
    if let Some(delay) = floor {
        node.server()
            .set_injected_faults(Some(covidkg::serve::InjectedFaults {
                panic_every: 0,
                delay_every: 1,
                delay,
            }));
    }
    Ok(node)
}

fn scratch_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("covidkg-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

/// `bench repl`: closed-loop read goodput through the lag-aware router
/// at each fleet size of `scale`; with `--failover`, promotion time
/// with and without the service floor.
fn repl(args: &Args, scale: &[usize], tables: &[Table]) -> Result<Vec<Value>, String> {
    let clients = args.clients.clamp(4, 16);
    let per_client = args.requests.unwrap_or(50).clamp(10, 200);
    let (_primary, listener, pubs) = start_primary(
        args.corpus.clamp(16, 36),
        args.seed,
        scratch_dir("primary"),
        Epoch::default(),
    )?;
    println!(
        "{clients} clients x {per_client} reads, {} ms service floor per read",
        SERVICE_FLOOR.as_millis()
    );
    let mut rows = Vec::new();
    let mut last = 0.0_f64;
    for &fleet in scale {
        let mut nodes = Vec::new();
        for i in 0..fleet {
            nodes.push(bench_replica(
                listener.local_addr(),
                &format!("replica-{i}"),
                scratch_dir(&format!("r{fleet}-{i}")),
                Some(SERVICE_FLOOR),
            )?);
        }
        let targets = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ReplicaTarget::tracking(format!("replica-{i}"), n.server(), &n.publications_state())
            })
            .collect();
        let router = pool_router(targets, &pubs);

        // Closed-loop read clients hammering the router in-process.
        let t0 = Instant::now();
        let mut ok = 0u64;
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..clients)
                .map(|c| {
                    let router = &router;
                    let queries =
                        covidkg::corpus::query_workload(16, args.seed.wrapping_add(c as u64));
                    scope.spawn(move || {
                        let mut ok = 0u64;
                        for i in 0..per_client {
                            let mode = SearchMode::AllFields(queries[i % queries.len()].clone());
                            let routed = router.route(0, Duration::from_secs(5));
                            ok += routed.is_ok_and(|(server, _)| server.search(&mode, 0).is_ok())
                                as u64;
                        }
                        ok
                    })
                })
                .collect();
            for client in clients {
                ok += client.join().expect("bench client panicked");
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let goodput = ok as f64 / wall.max(1e-9);
        if goodput < last {
            eprintln!("warning: goodput did not scale monotonically with replica count");
        }
        last = goodput;
        let row = obj! {
            "row" => tables[0].kind,
            "replicas" => fleet,
            "service_floor_ms" => SERVICE_FLOOR.as_millis() as i64,
            "clients" => clients,
            "reads_per_client" => per_client,
            "ok" => ok as i64,
            "errors" => (clients * per_client) as i64 - ok as i64,
            "wall_secs" => wall,
            "goodput_rps" => goodput,
        };
        print!("{}", render_row(tables[0].columns, &row));
        rows.push(row);
        for node in &mut nodes {
            node.shutdown();
        }
    }
    if args.failover {
        for floor in [Some(SERVICE_FLOOR), None] {
            let row = failover(args, floor)?;
            print!("{}", render_row(tables[1].columns, &row));
            rows.push(row);
        }
    }
    Ok(rows)
}

/// One failover measurement: stand up a primary + two replicas, kill
/// the primary, run the deterministic election, promote the winner
/// behind `Promoting`/`Fenced` routing states, and time two things —
/// kill → promoted listener accepting, and kill → first successful
/// routed read against the new primary's applied sequence.
fn failover(args: &Args, floor: Option<Duration>) -> Result<Value, String> {
    let epoch = Epoch::default();
    epoch.bump(); // generation 1
    let (_primary, listener, pubs) = start_primary(
        args.corpus.clamp(12, 24),
        args.seed,
        scratch_dir("fo-primary"),
        epoch,
    )?;
    let mark = pubs.repl_watermark();

    let names = ["fo-replica-0", "fo-replica-1"];
    let mut nodes = Vec::new();
    for name in names {
        nodes.push(bench_replica(
            listener.local_addr(),
            name,
            scratch_dir(name),
            floor,
        )?);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while nodes.iter().any(|n| n.applied() < mark) {
        if Instant::now() >= deadline {
            return Err("failover bench: replicas never caught up".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let targets: Vec<ReplicaTarget> = names
        .iter()
        .zip(&nodes)
        .map(|(name, n)| ReplicaTarget::tracking(*name, n.server(), &n.publications_state()))
        .collect();
    let healths: Vec<_> = targets.iter().map(|t| Arc::clone(&t.health)).collect();
    let router = pool_router(targets, &pubs);

    // Kill. Both targets leave the read pool while leadership is open.
    let t0 = Instant::now();
    drop(listener);
    for h in &healths {
        h.store(TargetHealth::Promoting as u8, Ordering::Release);
    }

    // Deterministic election over (name, applied): highest applied
    // sequence wins, lowest name breaks ties.
    let slate: Vec<(String, u64)> = names
        .iter()
        .zip(&nodes)
        .map(|(name, n)| (name.to_string(), n.applied()))
        .collect();
    let winner = elect(&slate).ok_or("failover bench: no electable replica")?;
    let new_epoch = nodes[winner].epoch_handle();
    new_epoch.bump();
    let relay = nodes[winner]
        .relay(ReplConfig::default())
        .map_err(|e| format!("promotion relay failed: {e}"))?;
    let promoted = t0.elapsed();
    // The winner rejoins the pool as the new read head; the loser stays
    // fenced out until it would re-point at the new primary.
    for (i, h) in healths.iter().enumerate() {
        let health = if i == winner {
            TargetHealth::Ready
        } else {
            TargetHealth::Fenced
        };
        h.store(health as u8, Ordering::Release);
    }
    let read_floor = slate[winner].1;
    let mode = SearchMode::AllFields("covid".into());
    let first_read = loop {
        match router.route(read_floor, Duration::from_millis(200)) {
            Ok((server, info))
                if info.replica == slate[winner].0 && server.search(&mode, 0).is_ok() =>
            {
                break t0.elapsed()
            }
            _ if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok((_, info)) => {
                return Err(format!(
                    "failover bench: last read routed to {:?}",
                    info.replica
                ))
            }
            Err(e) => return Err(format!("failover bench: routed read never recovered: {e}")),
        }
    };

    drop(relay);
    for node in &mut nodes {
        node.shutdown();
    }
    Ok(obj! {
        "row" => "failover",
        "service_floor_ms" => floor.map_or(0, |f| f.as_millis() as i64),
        "winner" => slate[winner].0.clone(),
        "epoch_after" => new_epoch.get() as i64,
        "promoted_ms" => promoted.as_secs_f64() * 1e3,
        "first_routed_read_ms" => first_read.as_secs_f64() * 1e3,
    })
}

/// One markdown line of a table: `row`'s members in `columns` order.
fn render_row(columns: &[Column], row: &Value) -> String {
    let mut line = String::from("|");
    for (_, key, (decimals, unit)) in columns {
        let cell = match row.get(key) {
            Some(Value::Str(text)) => text.clone(),
            Some(value) => match value.as_f64() {
                Some(x) => format!("{x:.decimals$}{unit}"),
                None => "—".into(),
            },
            None => "—".into(),
        };
        line.push_str(&format!(" {cell} |"));
    }
    line + "\n"
}

/// The markdown of `table` over `artefact`: a header, then one line per
/// row of the table's kind.
fn render_table(table: &Table, artefact: &Value) -> String {
    let headers: Vec<&str> = table.columns.iter().map(|(header, ..)| *header).collect();
    let mut out = format!(
        "| {} |\n|{}\n",
        headers.join(" | "),
        "---|".repeat(headers.len())
    );
    for row in rows_of(artefact) {
        if row.get("row").and_then(Value::as_str) == Some(table.kind) {
            out.push_str(&render_row(table.columns, row));
        }
    }
    out
}

fn rows_of(artefact: &Value) -> &[Value] {
    artefact
        .get("rows")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

/// The artefact at `path`, parsed.
fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    covidkg::json::parse(&raw).map_err(|e| format!("parse {path}: {e}"))
}

/// The committed artefact of `spec`, refused when its stamped scale is
/// below the documented one.
fn load_committed(spec: &Spec) -> Result<Value, String> {
    let artefact = load(&committed_path(spec.name))
        .map_err(|e| format!("{e} (run `covidkg bench {}` first)", spec.name))?;
    let stamped: Vec<usize> = artefact
        .get("scale")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.as_i64().map(|v| v as usize))
        .collect();
    if below(&stamped, spec.scale) {
        return Err(format!(
            "BENCH_{}.json is stamped scale {:?} {}, below the documented {}: \
             re-run `covidkg bench {}` at full scale",
            spec.name,
            show_scale(&stamped),
            spec.unit,
            show_scale(spec.scale),
            spec.name,
        ));
    }
    Ok(artefact)
}

/// `doc` with every marked table of `specs` re-rendered from its
/// committed artefact.
fn regenerate<'s>(
    mut doc: String,
    specs: impl Iterator<Item = &'s Spec>,
) -> Result<String, String> {
    for spec in specs {
        let artefact = load_committed(spec)?;
        for table in spec.tables {
            doc = splice_marked(&doc, table.marker, &render_table(table, &artefact))?;
        }
    }
    Ok(doc)
}

/// The `table` command: rewrite the marked tables of `EXPERIMENTS.md`
/// (all, or the named bench's) from the committed artefacts.
pub fn table(args: &Args) -> Result<(), String> {
    let specs: Vec<&Spec> = match args.positional.first() {
        Some(name) => vec![spec_named(name)?],
        None => SPECS.iter().collect(),
    };
    let doc =
        std::fs::read_to_string(EXPERIMENTS).map_err(|e| format!("read {EXPERIMENTS}: {e}"))?;
    let doc = regenerate(doc, specs.iter().copied())?;
    std::fs::write(EXPERIMENTS, doc).map_err(|e| format!("write {EXPERIMENTS}: {e}"))?;
    for spec in specs {
        let markers: Vec<&str> = spec.tables.iter().map(|t| t.marker).collect();
        println!(
            "EXPERIMENTS.md {} <- BENCH_{}.json",
            markers.join(" + "),
            spec.name
        );
    }
    Ok(())
}

/// Replace the text between `<!-- {marker}:begin -->` and
/// `<!-- {marker}:end -->` with `body`.
fn splice_marked(doc: &str, marker: &str, body: &str) -> Result<String, String> {
    let begin = format!("<!-- {marker}:begin -->");
    let end_marker = format!("<!-- {marker}:end -->");
    let start = doc
        .find(&begin)
        .ok_or(format!("EXPERIMENTS.md is missing the {begin} marker"))?
        + begin.len();
    let end = doc
        .find(&end_marker)
        .ok_or(format!("EXPERIMENTS.md is missing the {end_marker} marker"))?;
    if end < start {
        return Err(format!(
            "{marker} markers are out of order in EXPERIMENTS.md"
        ));
    }
    Ok(format!("{}\n{body}{}", &doc[..start], &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_marked_replaces_only_the_marked_span() {
        let doc = "a\n<!-- t:begin -->\nold\n<!-- t:end -->\nz\n";
        let spliced = "a\n<!-- t:begin -->\nnew\n<!-- t:end -->\nz\n";
        assert_eq!(splice_marked(doc, "t", "new\n").as_deref(), Ok(spliced));
        assert!(splice_marked("no markers", "t", "new\n").is_err());
        assert!(splice_marked("<!-- t:end --><!-- t:begin -->", "t", "new\n").is_err());
    }

    /// Every marked block of the committed `EXPERIMENTS.md` is exactly
    /// what its committed `BENCH_*.json` renders to — prose and
    /// artefact cannot drift apart without this failing — and every
    /// committed artefact is at its documented scale.
    #[test]
    fn committed_tables_are_what_the_committed_artefacts_render_to() {
        let committed = std::fs::read_to_string(EXPERIMENTS).unwrap();
        for spec in SPECS {
            let doc = regenerate(committed.clone(), std::iter::once(spec)).unwrap();
            assert!(
                doc == committed,
                "EXPERIMENTS.md drifted from BENCH_{}.json",
                spec.name
            );
        }
    }

    fn committed_paper_rows() -> Vec<Value> {
        rows_of(&load_committed(spec_named("paper").unwrap()).unwrap()).to_vec()
    }

    /// The member `key` of the first row of `kind` (optionally whose
    /// `model` is `model`), for a test to overwrite.
    fn member_mut<'r>(rows: &'r mut [Value], kind: &str, model: &str, key: &str) -> &'r mut Value {
        let row = rows
            .iter_mut()
            .find(|r| {
                r.get("row").and_then(Value::as_str) == Some(kind)
                    && (model.is_empty() || r.get("model").and_then(Value::as_str) == Some(model))
            })
            .unwrap();
        let members = row.as_object_mut().unwrap();
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn the_committed_paper_artefact_holds_every_shape() {
        let rows = committed_paper_rows();
        assert_eq!(paper::shape_misses(&rows), Vec::<&str>::new());

        let mut seeded = rows.clone();
        *member_mut(&mut seeded, "e1", "BiGRU", "f1") = Value::from(0.5);
        assert_eq!(
            paper::shape_misses(&seeded),
            ["E1: BiGRU overall F1 in 0.80..=1.0"]
        );
    }

    #[test]
    fn a_paper_run_drifts_on_a_deterministic_member_only() {
        let committed = committed_paper_rows();
        assert_eq!(paper::first_drift(&committed, &committed), None);

        let mut retimed = committed.clone();
        *member_mut(&mut retimed, "e2", "BiLSTM", "train_ms") = Value::from(1e6);
        *member_mut(&mut retimed, "e2_delta", "", "gru_speedup") = Value::from(0.1);
        assert_eq!(paper::first_drift(&retimed, &committed), None);

        let mut moved = committed.clone();
        *member_mut(&mut moved, "e1", "SVM", "f1") = Value::from(0.918);
        let drift = paper::first_drift(&moved, &committed).unwrap();
        assert!(drift.starts_with("rows[0] (e1) member \"f1\""), "{drift}");
        assert!(paper::first_drift(&committed[1..], &committed).is_some());
    }

    #[test]
    fn a_scaled_down_run_cannot_write_the_committed_artefact() {
        let kg = spec_named("kg").unwrap();
        assert_eq!(
            artefact_path(kg, &[120, 480, 1200], None),
            Ok(committed_path("kg"))
        );
        assert_eq!(
            artefact_path(kg, &[240, 960, 2400], None),
            Ok(committed_path("kg"))
        );
        let refused = artefact_path(kg, &[12, 48, 120], None).unwrap_err();
        assert!(
            refused.contains("12/48/120") && refused.contains("120/480/1200"),
            "{refused}"
        );
        assert_eq!(
            artefact_path(kg, &[12, 48, 120], Some("/tmp/x.json")),
            Ok("/tmp/x.json".into())
        );
        assert!(below(&[4096], &[64, 512, 4096]), "a missing size is below");
        assert!(spec_named("serve").is_err());
    }

    #[test]
    fn a_table_is_its_column_specs_over_the_rows_of_its_kind() {
        let table = Table {
            marker: "t",
            kind: "size",
            columns: &[
                ("corpus", "docs", (0, " docs")),
                ("speedup", "speedup", (1, "x")),
                ("who", "name", (0, "")),
            ],
        };
        let artefact = obj! { "rows" => Value::Array(vec![
            obj! { "row" => "size", "docs" => 120, "speedup" => 23.46, "name" => "a" },
            obj! { "row" => "other", "docs" => 7 },
            obj! { "row" => "size", "docs" => 480 },
        ]) };
        assert_eq!(
            render_table(&table, &artefact),
            "| corpus | speedup | who |\n|---|---|---|\n| 120 docs | 23.5x | a |\n| 480 docs | — | — |\n"
        );
    }
}
