//! Every ingest's views against a twin rebuilt from scratch.
//!
//! Two systems are built from the same corpus and driven through the
//! same random sequence of writes: one-publication `Server::ingest`
//! calls, and updates and deletes made through the publications
//! collection (then `refresh_derived`, as a replica does after frames
//! land beneath it). One system keeps its views fresh the way every
//! ingest does — `Views::advance` over the mutation log and the nodes
//! fusion changed; the twin re-derives them with `Views::rebuild` after
//! each step. After every step each trust node and source document,
//! each profile document, the bias report and trusted `/kg/query`
//! bodies must be byte-identical between the two, and so must the
//! graph. Failures shrink to a minimal write sequence.

use std::borrow::Cow;
use std::sync::OnceLock;

use covidkg_core::{CovidKg, CovidKgConfig, QueryPlan};
use covidkg_corpus::{CorpusGenerator, Publication};
use covidkg_rand::rngs::SmallRng;
use covidkg_rand::{prop, Rng};
use covidkg_serve::{Op, ServeConfig, Server};

const CORPUS: usize = 20;
const POOL: usize = 8;
const SEED: u64 = 0x1a6e;
const VENUES: &[&str] = &["lancet", "nejm", "medrxiv"];

fn corpus() -> &'static [Publication] {
    static CORPUS_AND_POOL: OnceLock<Vec<Publication>> = OnceLock::new();
    CORPUS_AND_POOL.get_or_init(|| CorpusGenerator::with_size(CORPUS + POOL, SEED).generate())
}

fn system() -> Server {
    let config = CovidKgConfig {
        corpus_size: CORPUS,
        max_training_rows: 200,
        seed: SEED,
        ..CovidKgConfig::default()
    };
    let system = CovidKg::build_from(config, &corpus()[..CORPUS]).unwrap();
    Server::start(system, ServeConfig::default())
}

#[derive(Debug, Clone)]
enum Step {
    /// `Server::ingest` of the pool's next publication.
    Ingest,
    /// Move a stored paper to another venue (its trust facts change,
    /// its provenance does not).
    Revenue {
        paper: usize,
        venue: usize,
    },
    /// Drop a stored paper's tables (its observations and claims go).
    DropTables {
        paper: usize,
    },
    Delete {
        paper: usize,
    },
}

fn gen_step(rng: &mut SmallRng) -> Step {
    let paper = rng.gen_range(0..CORPUS + POOL);
    match rng.gen_range(0u8..8) {
        0..=3 => Step::Ingest,
        4..=5 => Step::Revenue {
            paper,
            venue: rng.gen_range(0..VENUES.len()),
        },
        6 => Step::DropTables { paper },
        _ => Step::Delete { paper },
    }
}

/// Apply one step to `server`; `next` is the pool index to ingest.
fn apply(server: &Server, step: &Step, next: &mut usize) {
    let id = |paper: usize| corpus()[paper].id.clone();
    match step {
        Step::Ingest => {
            if let Some(p) = corpus().get(CORPUS + *next) {
                server.ingest(std::slice::from_ref(p)).unwrap();
            }
            *next += 1;
            return;
        }
        Step::Revenue { paper, venue } => server.with_system(|s| {
            let _ = s.publications().update(&id(*paper), |d| d.insert("venue", VENUES[*venue]));
        }),
        Step::DropTables { paper } => server.with_system(|s| {
            let _ = s.publications().update(&id(*paper), |d| {
                d.remove("tables");
            });
        }),
        Step::Delete { paper } => server.with_system(|s| {
            let _ = s.publications().delete(&id(*paper));
        }),
    }
    server.with_system_mut(CovidKg::refresh_derived).unwrap();
}

/// Every trust, profile and bias body, and the trusted query bodies,
/// as served, labelled.
fn bodies(server: &Server) -> Vec<(String, String)> {
    let (nodes, venues, vaccines, graph) = server.with_system(|s| {
        let venues: Vec<String> = s.trust_store().venues().map(str::to_string).collect();
        let vaccines: Vec<String> = s.profiles().iter().map(|p| p.vaccine.clone()).collect();
        (s.kg().len(), venues, vaccines, s.kg().to_json().to_json())
    });
    let mut ops: Vec<(String, Op)> = Vec::new();
    ops.extend((0..nodes).map(|n| (format!("/trust/node/{n}"), Op::TrustNode(n))));
    ops.extend(
        venues
            .into_iter()
            .map(|v| (format!("/trust/source/{v}"), Op::TrustSource(Cow::Owned(v)))),
    );
    ops.extend(
        vaccines
            .into_iter()
            .map(|v| (format!("/kg/profile/{v}"), Op::KgProfile(Cow::Owned(v)))),
    );
    ops.push(("/bias/report".into(), Op::BiasReport));
    for (start, steps) in [
        ("kind:category", "child"),
        ("node:0", "child,child"),
        ("kind:entity", "co"),
    ] {
        let plan = QueryPlan::parse(start, steps, 16, 10).unwrap();
        ops.push((
            format!("/kg/query?start={start}&steps={steps}&trust=1"),
            Op::KgQuery(Cow::Owned(plan), true),
        ));
    }
    let mut out: Vec<(String, String)> = ops
        .into_iter()
        .map(|(target, op)| {
            let reply = server.request(&op).unwrap().expect("a body");
            (target, reply.entry.as_str().to_string())
        })
        .collect();
    out.push(("graph".into(), graph));
    out
}

#[test]
fn ingest_views_equal_a_rebuilt_twin_after_every_step() {
    prop::run_shrink(
        6,
        |rng| prop::vec_of(rng, 1, 8, gen_step),
        |steps| prop::shrink_vec(steps, |_| Vec::new()),
        |steps| {
            let (live, twin) = (system(), system());
            let (mut live_next, mut twin_next) = (0, 0);
            for (i, step) in steps.iter().enumerate() {
                apply(&live, step, &mut live_next);
                apply(&twin, step, &mut twin_next);
                twin.with_system_mut(CovidKg::rebuild_views);
                let (got, want) = (bodies(&live), bodies(&twin));
                if got.len() != want.len() {
                    let names = |b: &[(String, String)]| {
                        b.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>()
                    };
                    return Err(format!(
                        "step {i} ({step:?}): targets {:?} vs {:?}",
                        names(&got),
                        names(&want)
                    ));
                }
                for ((target, g), (_, w)) in got.iter().zip(&want) {
                    if g != w {
                        return Err(format!(
                            "step {i} ({step:?}) {target}:\n  advanced: {g}\n  rebuilt:  {w}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}
