#![forbid(unsafe_code)]

//! `covidkg` — command-line front door to the reproduction.
//!
//! Stateless usage builds a fresh in-memory system per invocation; with
//! `--data-dir` the system persists, so `build` once and then `search`,
//! `kg`, `profiles`, `bias` and `stats` reopen it instantly (no
//! retraining), mirroring how COVIDKG.ORG serves a long-lived cluster.
//!
//! ```text
//! covidkg build --corpus 120 --data-dir /tmp/kgdata
//! covidkg search "vaccine side effects" --data-dir /tmp/kgdata
//! covidkg search "ventilators" --engine tables --expanded
//! covidkg kg "side effects" --data-dir /tmp/kgdata
//! covidkg profiles --data-dir /tmp/kgdata
//! covidkg bias --data-dir /tmp/kgdata
//! covidkg stats --data-dir /tmp/kgdata
//! ```

use covidkg::net::ReadContext;
use covidkg::repl::{
    Epoch, ReadRouter, ReplConfig, ReplListener, ReplicaNode, ReplicaNodeConfig, ReplicaTarget,
};
use covidkg::store::Collection;
use covidkg::{
    CovidKg, CovidKgConfig, DenseMode, HttpServer, NetConfig, SearchMode, ServeConfig, Server,
};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod bench;
mod paper;
mod smoke;

const USAGE: &str = "\
covidkg — COVIDKG.ORG reproduction CLI

USAGE:
    covidkg <command> [args] [options]

COMMANDS:
    build                    build a system (use --data-dir to persist it)
    search <query>           run a search engine over the system
    kg [query]               browse the knowledge graph / search its nodes
    profiles                 print the vaccine side-effect meta-profiles
    bias                     print the trust-weighted bias report + trust store epoch
    stats                    print the storage report + data generation
    serve                    run the HTTP front-end (stop with EOF/ctrl-d)
    replicate                follow a primary (--from) and serve reads locally
    smoke                    every op route over TCP: miss -> hit, bodies
                             byte-identical to in-process; recall + trust knob
    repl-smoke               primary + replica over loopback: write, converge, read
    bench <net|repl|ann|kg|trust|paper>
                             what benchmark/ cannot see: held-connection scaling,
                             replica read scaling (--failover: + promotion time),
                             ANN recall vs work, KG and trust incremental-vs-rebuild,
                             the paper's claims E1-E8 (shape-checked; with --out,
                             also checked against the committed artefact);
                             writes the stamped BENCH_<name>.json
    table [name]             regenerate the EXPERIMENTS.md tables from BENCH_*.json
    ann-build                build the HNSW dense index and print its shape
    kg-query <start> [steps] ranked multi-hop graph query (start: term:<t> |
                             kind:<root|category|entity> | node:<id>; steps:
                             comma-separated <child|parent|any|co>[:<kind>[:<paper>]])
    chaos                    deterministic fault-injection survival run

OPTIONS:
    --data-dir <path>        durable system location (reopened if built)
    --corpus <n>             publications to generate on build [default 120]
                             (bench kg/trust run at 1x/4x/10x this, ann at 2x/8x/20x)
    --seed <n>               corpus/model seed [default 42]
    --engine all|tables|scoped|semantic|hybrid   search engine (default all)
    --page <n>               result page, 0-based (default 0)
    --expanded               expand collapsed result sections
    --depth <n>              kg tree depth (default 2)
    --fanout <n>             kg-query traversal fanout bound [default 16]
    --k <n>                  kg-query ranked paths returned [default 10]
    --clients <n>            bench repl/chaos concurrent clients [default 8]
    --requests <n>           bench repl/chaos queries per client [default 50]
    --connections <a,b,c>    bench net: idle keep-alive connections held open
                             [default 64,512,4096]
    --workers <n>            serve/bench net/chaos worker threads [default 4]
    --faults <n>             chaos injected-fault target [default 100]
    --listen <addr>          serve/replicate HTTP bind address
                             [serve: 127.0.0.1:8080; replicate: 127.0.0.1:8081]
    --out <file>             bench: write the artefact here instead of the
                             committed BENCH_<name>.json (required when --corpus
                             or --connections scale the run down)
    --repl-listen <addr>     serve: also stream WAL frames to replicas here
    --relay-listen <addr>    replicate: re-ship frames downstream from here
                             (cascading replication; epoch checks propagate)
    --failover               bench repl: also kill the primary and time the
                             fenced promotion + first routed read
    --from <addr>            replicate: the primary's replication address
    --name <name>            replicate: this replica's name [default replica-1]
";

struct Args {
    command: String,
    positional: Vec<String>,
    data_dir: Option<String>,
    corpus: usize,
    seed: u64,
    engine: String,
    page: usize,
    expanded: bool,
    depth: usize,
    fanout: usize,
    k: usize,
    clients: usize,
    requests: Option<usize>,
    connections: Option<Vec<usize>>,
    workers: usize,
    faults: u64,
    listen: Option<String>,
    out: Option<String>,
    repl_listen: Option<String>,
    relay_listen: Option<String>,
    failover: bool,
    from: Option<String>,
    name: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| USAGE.to_string())?;
    let mut out = Args {
        command,
        positional: Vec::new(),
        data_dir: None,
        corpus: 120,
        seed: 42,
        engine: "all".into(),
        page: 0,
        expanded: false,
        depth: 2,
        fanout: 16,
        k: 10,
        clients: 8,
        requests: None,
        connections: None,
        workers: 4,
        faults: 100,
        listen: None,
        out: None,
        repl_listen: None,
        relay_listen: None,
        failover: false,
        from: None,
        name: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--data-dir" => out.data_dir = Some(value("--data-dir")?),
            "--corpus" => {
                out.corpus = value("--corpus")?
                    .parse()
                    .map_err(|_| "--corpus takes a number".to_string())?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a number".to_string())?
            }
            "--engine" => out.engine = value("--engine")?,
            "--page" => {
                out.page = value("--page")?
                    .parse()
                    .map_err(|_| "--page takes a number".to_string())?
            }
            "--fanout" => {
                out.fanout = value("--fanout")?
                    .parse()
                    .map_err(|e| format!("--fanout: {e}"))?
            }
            "--k" => {
                out.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?
            }
            "--depth" => {
                out.depth = value("--depth")?
                    .parse()
                    .map_err(|_| "--depth takes a number".to_string())?
            }
            "--clients" => {
                out.clients = value("--clients")?
                    .parse()
                    .map_err(|_| "--clients takes a number".to_string())?
            }
            "--requests" => {
                out.requests = Some(
                    value("--requests")?
                        .parse()
                        .map_err(|_| "--requests takes a number".to_string())?,
                )
            }
            "--connections" => {
                let list = value("--connections")?;
                let conns: Result<Vec<usize>, _> =
                    list.split(',').map(|c| c.trim().parse::<usize>()).collect();
                let conns = conns.map_err(|_| {
                    "--connections takes comma-separated connection counts".to_string()
                })?;
                if conns.is_empty() || conns.contains(&0) {
                    return Err("--connections needs positive counts".to_string());
                }
                out.connections = Some(conns);
            }
            "--workers" => {
                out.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers takes a number".to_string())?
            }
            "--faults" => {
                out.faults = value("--faults")?
                    .parse()
                    .map_err(|_| "--faults takes a number".to_string())?
            }
            "--listen" => out.listen = Some(value("--listen")?),
            "--out" => out.out = Some(value("--out")?),
            "--repl-listen" => out.repl_listen = Some(value("--repl-listen")?),
            "--relay-listen" => out.relay_listen = Some(value("--relay-listen")?),
            "--failover" => out.failover = true,
            "--from" => out.from = Some(value("--from")?),
            "--name" => out.name = Some(value("--name")?),
            "--expanded" => out.expanded = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n\n{USAGE}"))
            }
            other => out.positional.push(other.to_string()),
        }
    }
    Ok(out)
}

/// Open the system: reopen a durable one when possible, else build fresh.
fn open_system(args: &Args, force_build: bool) -> Result<CovidKg, String> {
    let config = CovidKgConfig {
        corpus_size: args.corpus,
        seed: args.seed,
        data_dir: args.data_dir.clone(),
        ..CovidKgConfig::default()
    };
    if !force_build && args.data_dir.is_some() {
        if let Ok(system) = CovidKg::reopen(config.clone()) {
            return Ok(system);
        }
        eprintln!("(no reusable system at the data dir; building fresh)");
    }
    CovidKg::build(config).map_err(|e| format!("build failed: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "build" => {
            let system = open_system(&args, true)?;
            let r = system.report();
            println!(
                "built: {} publications, {} tables, {} KG nodes, {} subtrees fused",
                r.publications, r.tables_parsed, r.kg_nodes, r.fusion.auto_fused
            );
            if let Some(dir) = &args.data_dir {
                println!("persisted to {dir} — subsequent commands reopen instantly");
            } else {
                println!("(in-memory only; pass --data-dir to persist)");
            }
        }
        "search" => {
            let query = args.positional.join(" ");
            if query.is_empty() {
                return Err("search needs a query\n\n".to_string() + USAGE);
            }
            let system = open_system(&args, false)?;
            let page = match args.engine.as_str() {
                "semantic" => system.search_dense(&DenseMode::Semantic(query), args.page),
                "hybrid" => system.search_dense(&DenseMode::Hybrid(query), args.page),
                lexical => {
                    let mode = match lexical {
                        "all" => SearchMode::AllFields(query),
                        "tables" => SearchMode::Tables(query),
                        "scoped" => SearchMode::TitleAbstractCaption {
                            title: query.clone(),
                            abstract_q: query,
                            caption: String::new(),
                        },
                        other => {
                            return Err(format!(
                                "unknown engine {other:?} (all|tables|scoped|semantic|hybrid)"
                            ))
                        }
                    };
                    system.search(&mode, args.page)
                }
            };
            print!(
                "{}",
                if args.expanded {
                    page.render_expanded()
                } else {
                    page.render()
                }
            );
        }
        "kg" => {
            let system = open_system(&args, false)?;
            let kg = system.kg();
            if args.positional.is_empty() {
                print!("{}", kg.render_tree(0, args.depth));
            } else {
                let query = args.positional.join(" ");
                let hits = kg.search(&query);
                if hits.is_empty() {
                    println!("no KG nodes match {query:?}");
                }
                for hit in hits {
                    print!("{}", kg.render_node(hit.node));
                }
            }
        }
        "profiles" => {
            let system = open_system(&args, false)?;
            if system.profiles().is_empty() {
                println!("no side-effect observations in this corpus");
            }
            for p in system.profiles() {
                print!("{}", p.render());
                println!();
            }
        }
        "bias" => {
            let system = open_system(&args, false)?;
            // Served from the memoized, trust-weighted bias document so
            // the CLI reads the same incrementally maintained store as
            // the `/bias/report` wire route.
            let doc = system.bias_document();
            print!(
                "{}",
                doc.get("rendered")
                    .and_then(covidkg::json::Value::as_str)
                    .unwrap_or_default()
            );
            println!(
                "trust store: epoch {}, generation {}",
                doc.get("epoch").and_then(covidkg::json::Value::as_i64).unwrap_or(0),
                doc.get("generation").and_then(covidkg::json::Value::as_i64).unwrap_or(0),
            );
        }
        "stats" => {
            let system = open_system(&args, false)?;
            print!("{}", system.stats().render_report());
            println!("data generation: {}", system.generation());
        }
        "serve" => {
            let server = start_server(open_system(&args, false)?, &args);
            let mut http = start_http(
                &server,
                None,
                args.listen.as_deref().unwrap_or("127.0.0.1:8080"),
            )?;
            // With --repl-listen this node is a replication primary: a
            // second listener streams WAL frames to any replica that
            // connects (see the `replicate` command).
            let repl_listener = match &args.repl_listen {
                Some(raw) => {
                    let repl_addr: SocketAddr = raw
                        .parse()
                        .map_err(|_| "--repl-listen takes an ADDR:PORT".to_string())?;
                    // Rejoin at the fencing epoch this node last held: a
                    // durable primary restarted after a failover must not
                    // come back believing it still leads generation 0.
                    let epoch = match &args.data_dir {
                        Some(dir) => Epoch::load(dir)
                            .map_err(|e| format!("load fencing epoch from {dir}: {e}"))?,
                        None => Epoch::default(),
                    };
                    let listener = ReplListener::start(
                        replication_sources(&server),
                        ReplConfig {
                            addr: repl_addr,
                            epoch: epoch.clone(),
                            ..ReplConfig::default()
                        },
                    )
                    .map_err(|e| format!("replication bind {repl_addr} failed: {e}"))?;
                    println!(
                        "replication listener on {} (watermark {}, epoch {})",
                        listener.local_addr(),
                        listener.watermark(),
                        epoch.get()
                    );
                    Some(listener)
                }
                None => None,
            };
            println!("listening on http://{}", http.local_addr());
            for usage in covidkg::net::router::usages() {
                println!("  GET {usage}");
            }
            wait_for_stdin_eof();
            http.shutdown();
            drop(repl_listener);
            server.shutdown();
            println!("drained and stopped");
        }
        "replicate" => replicate(&args)?,
        "smoke" => smoke::smoke(&args)?,
        "repl-smoke" => smoke::repl_smoke(&args)?,
        "bench" => bench::run(&args)?,
        "table" => bench::table(&args)?,
        "ann-build" => ann_build(&args)?,
        "kg-query" => kg_query_cmd(&args)?,
        "chaos" => {
            let report = covidkg::chaos::run(&covidkg::ChaosConfig {
                seed: args.seed,
                corpus: args.corpus.clamp(8, 60),
                fault_target: args.faults,
                workers: args.workers.max(1),
                clients: args.clients.max(1),
                requests: args.requests.unwrap_or(50).max(1),
                ..covidkg::ChaosConfig::default()
            })?;
            println!("{report}");
            if !report.passed() {
                return Err(format!(
                    "chaos run violated {} invariants",
                    report.failures.len()
                ));
            }
        }
        other => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
    Ok(())
}

/// Every collection of the server's system, named, for WAL shipping.
fn replication_sources(server: &Arc<Server>) -> Vec<(String, Arc<Collection>)> {
    server.with_system(|s| {
        let db = s.database();
        db.collection_names()
            .into_iter()
            .filter_map(|name| db.collection(&name).ok().map(|coll| (name, coll)))
            .collect()
    })
}

/// A durable primary for the replication smoke and benches: a freshly
/// built system served from `data_dir`, its replication listener at
/// `epoch`, and its publications collection (the lag reference clock).
fn start_primary(
    corpus: usize,
    seed: u64,
    data_dir: String,
    epoch: Epoch,
) -> Result<(Arc<Server>, ReplListener, Arc<Collection>), String> {
    let system = build_system(corpus, seed, Some(data_dir)).map_err(|e| format!("primary {e}"))?;
    let primary = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = replication_sources(&primary);
    let pubs = sources
        .iter()
        .find(|(name, _)| name == "publications")
        .map(|(_, coll)| Arc::clone(coll))
        .ok_or("primary has no publications collection")?;
    let config = ReplConfig {
        epoch,
        ..ReplConfig::default()
    };
    let listener =
        ReplListener::start(sources, config).map_err(|e| format!("replication listener: {e}"))?;
    Ok((primary, listener, pubs))
}

/// A pure-replica read pool over `targets`, lag measured against the
/// primary's publications watermark.
fn pool_router(targets: Vec<ReplicaTarget>, pubs: &Arc<Collection>) -> ReadRouter {
    let clock = Arc::clone(pubs);
    ReadRouter::new(
        None,
        targets,
        Arc::new(move || clock.repl_watermark()),
        u64::MAX,
    )
}

/// The `replicate` body: follow a primary's replication listener and
/// serve lag-aware reads locally (read-your-writes via `X-Min-Seq`).
fn replicate(args: &Args) -> Result<(), String> {
    let from: SocketAddr = args
        .from
        .as_deref()
        .ok_or("replicate needs --from <addr> (the primary's --repl-listen address)")?
        .parse()
        .map_err(|_| "--from takes an ADDR:PORT".to_string())?;
    let name = args.name.clone().unwrap_or_else(|| "replica-1".into());
    let data_dir = args.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("covidkg-replica-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    println!("replicating from {from} into {data_dir} as {name:?} ...");
    let mut config = ReplicaNodeConfig::new(from, &name, data_dir);
    config.serve = ServeConfig {
        workers: args.workers.max(1),
        ..ServeConfig::default()
    };
    let mut node =
        ReplicaNode::start(config).map_err(|e| format!("replica bootstrap failed: {e}"))?;
    println!(
        "synced: {} collections, publications applied {}, epoch {}",
        node.collections().len(),
        node.applied(),
        node.epoch()
    );

    // With --relay-listen this replica re-ships frames downstream
    // (cascading replication): another `covidkg replicate --from` can
    // point here instead of at the primary, and the fencing epoch
    // propagates through the chain via the shared epoch handle.
    let relay = match &args.relay_listen {
        Some(raw) => {
            let relay_addr: SocketAddr = raw
                .parse()
                .map_err(|_| "--relay-listen takes an ADDR:PORT".to_string())?;
            let relay = node
                .relay(ReplConfig {
                    addr: relay_addr,
                    ..ReplConfig::default()
                })
                .map_err(|e| format!("relay bind {relay_addr} failed: {e}"))?;
            println!("relaying frames downstream on {}", relay.local_addr());
            Some(relay)
        }
        None => None,
    };

    // Route reads through this node's own state so responses carry the
    // replication headers and `/metrics` the replication series. The
    // lag clock is the watermark the primary last reported.
    let state = node.publications_state();
    let clock = Arc::clone(&state);
    let router = Arc::new(ReadRouter::new(
        None,
        vec![ReplicaTarget::tracking(&name, node.server(), &state)],
        Arc::new(move || clock.primary_watermark.load(Ordering::Acquire)),
        u64::MAX,
    ));
    let routed = ReadContext::new(router, None).with_epoch(node.epoch_handle());
    let listen = args.listen.as_deref().unwrap_or("127.0.0.1:8081");
    let mut http = start_http(&node.server(), Some(routed), listen)?;
    println!("serving replica reads on http://{}", http.local_addr());
    wait_for_stdin_eof();
    http.shutdown();
    drop(relay);
    node.shutdown();
    println!("replica drained and stopped");
    Ok(())
}

/// The `ann-build` body: build (or reopen) the system and report the
/// shape and build cost of its HNSW dense index.
fn ann_build(args: &Args) -> Result<(), String> {
    let system = open_system(args, false)?;
    let ann = system.ann();
    let c = ann.config();
    let s = ann.stats();
    println!(
        "HNSW index: {} vectors x {} dims (M {}, ef_construction {}, ef_search {})",
        ann.len(),
        ann.dims(),
        c.m,
        c.ef_construction,
        c.ef_search
    );
    println!(
        "graph: max level {}, {} tombstones, {} distance evaluations to build",
        ann.max_level(),
        ann.tombstones(),
        s.build_distance_evals
    );
    if args.data_dir.is_some() {
        println!("persisted in the model registry as the \"ann-hnsw\" artifact");
    }
    Ok(())
}

/// A freshly built system of `corpus` publications, trained small (the
/// smokes and benches check plumbing and scaling, not model quality).
fn build_system(corpus: usize, seed: u64, data_dir: Option<String>) -> Result<CovidKg, String> {
    CovidKg::build(CovidKgConfig {
        corpus_size: corpus,
        seed,
        max_training_rows: 300,
        data_dir,
        ..CovidKgConfig::default()
    })
    .map_err(|e| format!("build failed: {e}"))
}

/// `system` behind a [`Server`] with `--workers` worker threads.
fn start_server(system: CovidKg, args: &Args) -> Arc<Server> {
    let config = ServeConfig {
        workers: args.workers.max(1),
        ..ServeConfig::default()
    };
    Arc::new(Server::start(system, config))
}

/// An [`HttpServer`] over `server` listening on `listen` (`--listen` or
/// the command's default), reads routed through `repl` when given.
fn start_http(
    server: &Arc<Server>,
    repl: Option<ReadContext>,
    listen: &str,
) -> Result<HttpServer, String> {
    let addr: SocketAddr = listen
        .parse()
        .map_err(|_| "--listen takes an ADDR:PORT".to_string())?;
    let config = NetConfig {
        addr,
        ..NetConfig::default()
    };
    HttpServer::start_routed(Arc::clone(server), repl, config)
        .map_err(|e| format!("bind {addr} failed: {e}"))
}

/// Block until stdin closes (ctrl-d): the long-running commands' cue to
/// drain and exit.
fn wait_for_stdin_eof() {
    println!("(EOF on stdin — ctrl-d — shuts down gracefully)");
    let mut sink = String::new();
    while std::io::stdin()
        .read_line(&mut sink)
        .map(|n| n > 0)
        .unwrap_or(false)
    {
        sink.clear();
    }
}

/// The `kg-query` body: parse the plan grammar from the positionals and
/// print the ranked paths with their provenance support.
fn kg_query_cmd(args: &Args) -> Result<(), String> {
    let start = args
        .positional
        .first()
        .ok_or("kg-query needs a start set, e.g. `kg-query term:fever co`\n\n".to_string() + USAGE)?;
    let steps = args.positional.get(1).map(String::as_str).unwrap_or("");
    let plan = covidkg::core::QueryPlan::parse(start, steps, args.fanout, args.k)?;
    let system = open_system(args, false)?;
    let result = system.kg_query(&plan);
    if result.paths.is_empty() {
        println!("no paths match (visited {} nodes, {} hops)", result.visited, result.hops);
        return Ok(());
    }
    for (i, p) in result.paths.iter().enumerate() {
        println!(
            "{:>2}. [{:.2}] {}  ({} supporting paper{})",
            i + 1,
            p.score,
            p.labels.join(" -> "),
            p.support,
            if p.support == 1 { "" } else { "s" },
        );
    }
    println!("({} paths, visited {} nodes, {} hops)", result.paths.len(), result.visited, result.hops);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

