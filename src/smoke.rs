//! The end-to-end smokes CI runs: `covidkg smoke` drives every op route
//! of the wire front-end over real TCP against in-process bytes, and
//! `covidkg repl-smoke` drives the replication stack over loopback.

use crate::{build_system, pool_router, start_http, start_primary, Args};
use covidkg::json::{self, Value};
use covidkg::net::bench::encode_query;
use covidkg::repl::{Epoch, ReplicaNode, ReplicaNodeConfig, ReplicaTarget};
use covidkg::serve::Op;
use covidkg::{CovidKg, DenseMode, HttpClient, SearchMode, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The smoke targets of one route: `(url, in-process body)` pairs.
type Targets = fn(&CovidKg) -> Result<Vec<(String, String)>, String>;

const KG_QUERY: &str = "/kg/query?start=kind:category&steps=child&fanout=16&k=10";

/// One entry per `Target::Op` row of `covidkg::net::router`'s route
/// table, by the row's pattern (a unit test holds the two in step).
const SMOKE: &[(&str, Targets)] =
    &[
        ("/search/", |s| {
            let q = || "vaccine side effects".to_string();
            let scoped = SearchMode::TitleAbstractCaption {
                title: q(),
                abstract_q: q(),
                caption: q(),
            };
            let lexical = [
                ("all-fields", SearchMode::AllFields(q())),
                ("tables", SearchMode::Tables(q())),
                ("scoped", scoped),
            ];
            let dense = [
                ("semantic", DenseMode::Semantic(q())),
                ("hybrid", DenseMode::Hybrid(q())),
            ];
            let url = |engine: &str| format!("/search/{engine}?q={}&page=0", encode_query(&q()));
            Ok(lexical
                .iter()
                .map(|(engine, mode)| (url(engine), s.search(mode, 0).to_json().to_json()))
                .chain(dense.iter().map(|(engine, mode)| {
                    (url(engine), s.search_dense(mode, 0).to_json().to_json())
                }))
                .collect())
        }),
        ("/kg/query", |s| {
            let plan = covidkg::core::QueryPlan::parse("kind:category", "child", 16, 10)?;
            Ok(vec![(
                KG_QUERY.to_string(),
                s.kg_query(&plan).to_json().to_json(),
            )])
        }),
        ("/kg/profile/", |s| {
            let vaccine = &s
                .profiles()
                .first()
                .ok_or("corpus produced no meta-profiles")?
                .vaccine;
            let local = s
                .kg_profile(vaccine)
                .ok_or("first profile has no document")?;
            Ok(vec![(format!("/kg/profile/{vaccine}"), local.to_json())])
        }),
        ("/kg/node/", |s| {
            let local = s.kg_node(0).ok_or("graph has no node 0")?;
            Ok(vec![("/kg/node/0".to_string(), local.to_json())])
        }),
        ("/trust/node/", |s| {
            let local = s.trust_node(0).ok_or("node 0 carries no trust document")?;
            Ok(vec![("/trust/node/0".to_string(), local.to_json())])
        }),
        ("/trust/source/", |s| {
            let venue = s
                .trust_store()
                .venues()
                .next()
                .ok_or("corpus produced no source venues")?;
            let local = s
                .trust_source(venue)
                .ok_or("first venue has no credibility document")?;
            Ok(vec![(
                format!("/trust/source/{}", encode_query(venue)),
                local.to_json(),
            )])
        }),
        ("/bias/report", |s| {
            Ok(vec![(
                "/bias/report".to_string(),
                s.bias_document().to_json(),
            )])
        }),
    ];

fn get(client: &mut HttpClient, url: &str) -> Result<covidkg::net::ClientResponse, String> {
    let resp = client.get(url).map_err(|e| format!("GET {url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{url} returned {}", resp.status));
    }
    Ok(resp)
}

/// The `smoke` body: one boot, then every op route over real TCP — a
/// miss then a hit, both byte-identical to the in-process serialization
/// — plus the two checks no route target makes: the dense tier's recall
/// floor and the `trust` re-rank knob. Used by CI.
pub fn smoke(args: &Args) -> Result<(), String> {
    let system = build_system(args.corpus.clamp(48, 120), args.seed, None)?;
    let server = Arc::new(Server::start(system, ServeConfig::default()));
    let mut http = start_http(&server, None, "127.0.0.1:0")?;
    let mut client = HttpClient::connect(http.local_addr(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;

    for (pattern, targets) in SMOKE {
        for (url, local) in server
            .with_system(targets)
            .map_err(|e| format!("{pattern}: {e}"))?
        {
            for want in ["miss", "hit"] {
                let resp = get(&mut client, &url)?;
                if resp.header("X-Cache") != Some(want) {
                    return Err(format!(
                        "{url} X-Cache = {:?}, wanted {want:?}",
                        resp.header("X-Cache")
                    ));
                }
                if resp.body != local.as_bytes() {
                    return Err(format!(
                        "{url} wire body diverged from the in-process serialization ({} vs {} bytes)",
                        resp.body.len(),
                        local.len()
                    ));
                }
            }
            println!(
                "{url}: miss then hit, byte-identical to in-process ({} bytes)",
                local.len()
            );
        }
    }

    // Recall sanity: the HNSW graph must agree with brute force on the
    // corpus's own query workload.
    const K: usize = 10;
    let (recall_sum, counted) = server.with_system(|system| {
        let mut recall_sum = 0.0;
        let mut counted = 0usize;
        for q in covidkg::corpus::query_workload(12, args.seed) {
            let qvec = system
                .embeddings()
                .embed_phrase(&covidkg::text::tokenize_lower(&q));
            let (exact, _) = system.ann().exact_search(&qvec, K);
            if qvec.iter().all(|x| *x == 0.0) || exact.is_empty() {
                continue;
            }
            let (approx, _) = system.ann().search(&qvec, K);
            recall_sum += crate::bench::recall_of(&approx, &exact);
            counted += 1;
        }
        (recall_sum, counted)
    });
    if counted == 0 {
        return Err("every smoke query embedded to zero — corpus/model mismatch".into());
    }
    let recall = recall_sum / counted as f64;
    println!("recall@{K} vs exact over {counted} queries: {recall:.3}");
    if recall < 0.95 {
        return Err(format!("recall {recall:.3} below the 0.95 floor"));
    }

    // The `trust` knob defaults off — trust=0 is byte-identical to
    // omitting the parameter — and trust=1 says so in a header.
    for plain in ["/search/all-fields?q=vaccine", KG_QUERY] {
        let unknobbed = get(&mut client, plain)?;
        if get(&mut client, &format!("{plain}&trust=0"))?.body != unknobbed.body {
            return Err(format!("trust=0 changed the {plain} body"));
        }
        let reranked = get(&mut client, &format!("{plain}&trust=1"))?;
        if reranked.header("X-Trust") != Some("re-ranked") {
            return Err(format!(
                "{plain}&trust=1 X-Trust = {:?}, wanted \"re-ranked\"",
                reranked.header("X-Trust")
            ));
        }
        println!("{plain}: trust=0 is the default ranking, trust=1 re-ranks (X-Trust: re-ranked)");
    }

    http.shutdown();
    server.shutdown();
    println!("SMOKE PASSED");
    Ok(())
}

/// The `repl-smoke` body: an end-to-end loopback exercise of the whole
/// replication stack — bootstrap, live writes, convergence, a routed
/// read-your-writes response served by the replica. Used by CI.
pub fn repl_smoke(args: &Args) -> Result<(), String> {
    let corpus = args.corpus.clamp(12, 60);
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("covidkg-smoke-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    };
    let (primary, listener, pubs) =
        start_primary(corpus, args.seed, scratch("primary"), Epoch::default())?;
    println!("primary up: replicating on {}", listener.local_addr());

    let mut node = ReplicaNode::start(ReplicaNodeConfig::new(
        listener.local_addr(),
        "smoke-replica",
        scratch("replica"),
    ))
    .map_err(|e| format!("replica bootstrap failed: {e}"))?;
    println!("replica synced: applied {}", node.applied());

    // Live writes on the primary must reach the replica.
    let extra: Vec<_> = covidkg::corpus::CorpusGenerator::with_size(corpus + 8, args.seed)
        .generate()
        .into_iter()
        .skip(corpus)
        .collect();
    primary
        .ingest(&extra)
        .map_err(|e| format!("primary ingest failed: {e}"))?;
    let mark = listener.watermark();
    let deadline = Instant::now() + Duration::from_secs(20);
    while node.applied() < mark || node.checksum("publications") != Some(pubs.content_checksum()) {
        if Instant::now() >= deadline {
            return Err(format!(
                "replica never converged: applied {} of {mark}",
                node.applied()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("live writes converged: watermark {mark}, checksums equal");

    // Read-your-writes at the new watermark, served by the replica: a
    // search, a KG node and a trust node, each routed on its own.
    let target =
        ReplicaTarget::tracking("smoke-replica", node.server(), &node.publications_state());
    let router = pool_router(vec![target], &pubs);
    let routed = || {
        router
            .route(mark, Duration::from_secs(5))
            .map_err(|e| format!("routed read failed: {e}"))
    };
    let (replica, info) = routed()?;
    let mode = SearchMode::AllFields("covid".into());
    let resp = replica
        .search(&mode, 0)
        .map_err(|e| format!("replica read failed: {e}"))?;
    let on_primary = primary
        .search(&mode, 0)
        .map_err(|e| format!("primary read failed: {e}"))?;
    if resp.page.total != on_primary.page.total {
        return Err(format!(
            "replica read disagreed: {} vs {} results",
            resp.page.total, on_primary.page.total
        ));
    }
    println!(
        "read-your-writes OK: {:?} served {} results at applied {}",
        info.replica, resp.page.total, info.applied
    );
    // A trust document stamps the node's own refresh counters (`epoch`,
    // `generation`); the rest must be the primary's. The router sends a
    // read at the watermark to a replica only once its derived views
    // reflect that watermark, so one read each is enough.
    for op in [Op::KgNode(0), Op::TrustNode(0)] {
        let doc = |server: &Server| -> Result<Value, String> {
            let reply = server.request(&op).map_err(|e| e.to_string())?;
            let mut doc = json::parse(reply.ok_or("no document")?.entry.as_str())
                .map_err(|e| e.to_string())?;
            doc.remove("epoch");
            doc.remove("generation");
            Ok(doc)
        };
        let want = doc(&primary)?;
        let (replica, info) = routed()?;
        let got = doc(&replica)?;
        if got != want {
            return Err(format!(
                "{op:?}: {:?} answered {}, not the primary's {}",
                info.replica,
                got.to_json(),
                want.to_json()
            ));
        }
        println!(
            "{op:?} OK: {:?} at applied {} answered the primary's document",
            info.replica, info.applied
        );
    }
    node.shutdown();
    println!("REPL SMOKE PASSED");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route cannot ship unsmoked: the smoke table and the router's op
    /// rows name the same patterns.
    #[test]
    fn every_op_route_has_a_smoke_target() {
        let smoked: Vec<&str> = SMOKE.iter().map(|(pattern, _)| *pattern).collect();
        let routed: Vec<&str> = covidkg::net::router::op_patterns().collect();
        assert_eq!(smoked, routed);
    }
}
