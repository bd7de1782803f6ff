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
    elect, Epoch, ReadRouter, ReplConfig, ReplListener, ReplicaNode, ReplicaNodeConfig,
    ReplicaTarget, TargetHealth,
};
use covidkg::store::Collection;
use covidkg::{
    CovidKg, CovidKgConfig, DenseMode, HnswConfig, HnswIndex, HttpServer, LoadGenConfig,
    NetConfig, OpenLoopConfig, SearchMode, ServeConfig, Server,
};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    repl-smoke               primary + replica over loopback: write, converge, read
    repl-bench               read-goodput scaling at 1/2/4 replicas (BENCH_repl.json)
                             (--failover: also kill the primary and time promotion)
    serve-bench              benchmark the concurrent serving frontend
    net-bench                wire-level HTTP load bench (emits BENCH_net.json)
    net-table                regenerate the EXPERIMENTS.md wire table from BENCH_net.json
    ann-build                build the HNSW dense index and print its shape
    ann-smoke                dense-tier end-to-end check incl. wire byte-identity
    ann-bench                HNSW recall/latency vs brute force (emits BENCH_ann.json)
    ann-table                regenerate the EXPERIMENTS.md ANN table from BENCH_ann.json
    kg-query <start> [steps] ranked multi-hop graph query (start: term:<t> |
                             kind:<root|category|entity> | node:<id>; steps:
                             comma-separated <child|parent|any|co>[:<kind>[:<paper>]])
    kg-smoke                 kg tier end-to-end check incl. wire byte-identity
    kg-bench                 query latency + incremental materialization
                             speedup vs full rebuild (emits BENCH_kg.json)
    kg-table                 regenerate the EXPERIMENTS.md KG table from BENCH_kg.json
    trust-smoke              trust tier end-to-end check incl. wire byte-identity
    trust-bench              trust-node lookup latency + incremental trust maintenance
                             speedup vs full rebuild (emits BENCH_trust.json)
    trust-table              regenerate the EXPERIMENTS.md trust table from BENCH_trust.json
    chaos                    deterministic fault-injection survival run

OPTIONS:
    --data-dir <path>        durable system location (reopened if built)
    --corpus <n>             publications to generate on build [default 120]
    --seed <n>               corpus/model seed [default 42]
    --engine all|tables|scoped|semantic|hybrid   search engine (default all)
    --page <n>               result page, 0-based (default 0)
    --expanded               expand collapsed result sections
    --depth <n>              kg tree depth (default 2)
    --fanout <n>             kg-query traversal fanout bound [default 16]
    --k <n>                  kg-query ranked paths returned [default 10]
    --clients <n>            serve-bench/chaos concurrent clients [default 8]
    --requests <n>           queries per client [serve-bench/chaos: 50;
                             net-bench closed loop: 200]
    --connections <a,b,c>    net-bench: idle keep-alive connections held open
                             during the scaling sweep [default 64,512,4096]
    --workers <n>            serve-bench/chaos worker threads [default 4]
    --faults <n>             chaos injected-fault target [default 100]
    --open-loop              serve-bench: add a fixed-arrival-rate sweep
    --rates <a,b,c>          open-loop offered rates in req/s [default:
                             0.5x / 1x / 2x of the closed-loop throughput]
    --duration-ms <n>        open-loop run length per rate [default 1000]
    --listen <addr>          serve/replicate/net-bench HTTP bind address
                             [serve: 127.0.0.1:8080; replicate: 127.0.0.1:8081]
    --out <file>             net-bench: write the report here instead of the
                             committed BENCH_net.json (scaled-down smoke runs)
    --repl-listen <addr>     serve: also stream WAL frames to replicas here
    --relay-listen <addr>    replicate: re-ship frames downstream from here
                             (cascading replication; epoch checks propagate)
    --failover               repl-bench: kill the primary mid-run and time
                             the fenced promotion + first routed read
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
    open_loop: bool,
    rates: Option<Vec<f64>>,
    duration_ms: u64,
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
        open_loop: false,
        rates: None,
        duration_ms: 1000,
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
            "--open-loop" => out.open_loop = true,
            "--rates" => {
                let list = value("--rates")?;
                let rates: Result<Vec<f64>, _> =
                    list.split(',').map(|r| r.trim().parse::<f64>()).collect();
                let rates = rates.map_err(|_| {
                    "--rates takes comma-separated numbers (req/s)".to_string()
                })?;
                if rates.is_empty() || rates.iter().any(|r| *r <= 0.0) {
                    return Err("--rates needs positive rates".to_string());
                }
                out.rates = Some(rates);
            }
            "--duration-ms" => {
                out.duration_ms = value("--duration-ms")?
                    .parse()
                    .map_err(|_| "--duration-ms takes a number".to_string())?
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
        "repl-smoke" => repl_smoke(&args)?,
        "repl-bench" => repl_bench(&args)?,
        "net-table" | "ann-table" | "kg-table" | "trust-table" => regenerate_tables(&args.command)?,
        "ann-build" => ann_build(&args)?,
        "ann-smoke" => ann_smoke(&args)?,
        "ann-bench" => ann_bench(&args)?,
        "kg-query" => kg_query_cmd(&args)?,
        "kg-smoke" => kg_smoke(&args)?,
        "kg-bench" => kg_bench(&args)?,
        "trust-smoke" => trust_smoke(&args)?,
        "trust-bench" => trust_bench(&args)?,
        "net-bench" => {
            let server = start_server(open_system(&args, false)?, &args);
            // The default NetConfig is the reactor with an fd-budget
            // cap — large enough for the held-connection sweep.
            let mut http = start_http(
                &server,
                None,
                args.listen.as_deref().unwrap_or("127.0.0.1:0"),
            )?;
            let result = net_bench(&http, &server, &args);
            http.shutdown();
            server.shutdown();
            result?;
        }
        "serve-bench" => {
            serve_bench(&start_server(open_system(&args, false)?, &args), &args)?;
        }
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

/// The `repl-smoke` body: an end-to-end loopback exercise of the whole
/// replication stack — bootstrap, live writes, convergence, a routed
/// read-your-writes response served by the replica. Used by CI.
fn repl_smoke(args: &Args) -> Result<(), String> {
    let corpus = args.corpus.clamp(12, 60);
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("covidkg-smoke-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    };
    let system = build_system(corpus, args.seed, Some(scratch("primary")))
        .map_err(|e| format!("primary {e}"))?;
    let primary = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = replication_sources(&primary);
    let listener = ReplListener::start(sources.clone(), ReplConfig::default())
        .map_err(|e| format!("replication listener: {e}"))?;
    println!("primary up: {} collections on {}", sources.len(), listener.local_addr());

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
    let pubs = sources
        .iter()
        .find(|(n, _)| n == "publications")
        .map(|(_, c)| Arc::clone(c))
        .ok_or("primary has no publications collection")?;
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

    // Read-your-writes at the new watermark, served by the replica.
    let state = node.publications_state();
    let clock = Arc::clone(&pubs);
    let router = ReadRouter::new(
        None,
        vec![ReplicaTarget::tracking("smoke-replica", node.server(), &state)],
        Arc::new(move || clock.repl_watermark()),
        u64::MAX,
    );
    let (resp, info) = router
        .search(
            &SearchMode::AllFields("covid".into()),
            0,
            mark,
            Duration::from_secs(5),
        )
        .map_err(|e| format!("routed read failed: {e}"))?;
    let on_primary = primary
        .search(&SearchMode::AllFields("covid".into()), 0)
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
    node.shutdown();
    println!("REPL SMOKE PASSED");
    Ok(())
}

/// The `repl-bench` body: read-goodput scaling at 1, 2 and 4 replicas.
///
/// Each replica serves with 2 workers, an uncacheable result page
/// (TTL 0) and a synthetic 20 ms service-time floor injected per query,
/// so per-replica capacity is sleep-bound (workers/floor = 100 reads/s)
/// rather than CPU-bound — the fleet's aggregate goodput then scales
/// with replica count even on a single-core harness, where raw search
/// CPU (~1.5 ms/query) would otherwise cap the whole fleet near
/// 650 reads/s and flatten the curve. Emits `BENCH_repl.json`.
fn repl_bench(args: &Args) -> Result<(), String> {
    const SERVICE_FLOOR: Duration = Duration::from_millis(20);
    let corpus = args.corpus.clamp(16, 36);
    let clients = args.clients.clamp(4, 16);
    let per_client = args.requests.unwrap_or(50).clamp(10, 200);
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("covidkg-rbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    };
    let system = build_system(corpus, args.seed, Some(scratch("primary")))
        .map_err(|e| format!("primary {e}"))?;
    let primary = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = replication_sources(&primary);
    let listener = ReplListener::start(sources.clone(), ReplConfig::default())
        .map_err(|e| format!("replication listener: {e}"))?;
    let pubs = sources
        .iter()
        .find(|(n, _)| n == "publications")
        .map(|(_, c)| Arc::clone(c))
        .ok_or("primary has no publications collection")?;
    println!(
        "repl-bench: {clients} clients x {per_client} reads, {} µs service floor per query",
        SERVICE_FLOOR.as_micros()
    );

    let mut rows = Vec::new();
    let mut last = 0.0_f64;
    let mut monotonic = true;
    for &fleet in &[1usize, 2, 4] {
        let mut nodes = Vec::new();
        for i in 0..fleet {
            let mut config = ReplicaNodeConfig::new(
                listener.local_addr(),
                format!("replica-{i}"),
                scratch(&format!("r{fleet}-{i}")),
            );
            config.serve = ServeConfig {
                workers: 2,
                cache_ttl: Some(Duration::ZERO),
                ..ServeConfig::default()
            };
            let node =
                ReplicaNode::start(config).map_err(|e| format!("replica {i} of {fleet}: {e}"))?;
            node.server().set_injected_faults(Some(covidkg::serve::InjectedFaults {
                panic_every: 0,
                delay_every: 1,
                delay: SERVICE_FLOOR,
            }));
            nodes.push(node);
        }
        let targets = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ReplicaTarget::tracking(format!("replica-{i}"), n.server(), &n.publications_state())
            })
            .collect();
        let clock = Arc::clone(&pubs);
        let router = Arc::new(ReadRouter::new(
            None,
            targets,
            Arc::new(move || clock.repl_watermark()),
            u64::MAX,
        ));
        let (ok, errs, wall) = routed_loop(&router, clients, per_client, args.seed)?;
        let goodput = if wall.as_secs_f64() > 0.0 {
            ok as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        println!(
            "  {fleet} replica(s): {ok} ok / {errs} errors in {:.2} s -> {goodput:.0} reads/s",
            wall.as_secs_f64()
        );
        if goodput < last {
            monotonic = false;
        }
        last = goodput;
        rows.push(covidkg::json::obj! {
            "replicas" => fleet,
            "ok" => ok as i64,
            "errors" => errs as i64,
            "wall_secs" => wall.as_secs_f64(),
            "goodput_rps" => goodput,
        });
        for node in &mut nodes {
            node.shutdown();
        }
    }
    if !monotonic {
        eprintln!("warning: goodput did not scale monotonically with replica count");
    }

    let mut report = covidkg::json::obj! {
        "bench" => "repl",
        "clients" => clients,
        "reads_per_client" => per_client,
        "service_floor_us" => SERVICE_FLOOR.as_micros() as i64,
        "monotonic" => monotonic,
        "scaling" => covidkg::json::Value::Array(rows),
    };
    if args.failover {
        let failover = measure_failover(args, &scratch)?;
        report.insert("failover", failover);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_repl.json");
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("write BENCH_repl.json: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// The `repl-bench --failover` body: stand up a primary + two replicas,
/// kill the primary, run the deterministic election, promote the winner
/// behind `Promoting`/`Fenced` routing states, and time two things —
/// kill → promoted listener accepting, and kill → first successful
/// routed read against the new primary's applied sequence.
fn measure_failover(
    args: &Args,
    scratch: &dyn Fn(&str) -> String,
) -> Result<covidkg::json::Value, String> {
    let system = build_system(
        args.corpus.clamp(12, 24),
        args.seed,
        Some(scratch("fo-primary")),
    )
    .map_err(|e| format!("failover primary {e}"))?;
    let primary = Arc::new(Server::start(system, ServeConfig::default()));
    let sources = replication_sources(&primary);
    let epoch = Epoch::default();
    epoch.bump(); // generation 1
    let listener = ReplListener::start(
        sources.clone(),
        ReplConfig {
            epoch: epoch.clone(),
            ..ReplConfig::default()
        },
    )
    .map_err(|e| format!("failover replication listener: {e}"))?;
    let pubs = sources
        .iter()
        .find(|(n, _)| n == "publications")
        .map(|(_, c)| Arc::clone(c))
        .ok_or("primary has no publications collection")?;
    let mark = pubs.repl_watermark();

    let mut nodes = Vec::new();
    for i in 0..2usize {
        let node = ReplicaNode::start(ReplicaNodeConfig::new(
            listener.local_addr(),
            format!("fo-replica-{i}"),
            scratch(&format!("fo-r{i}")),
        ))
        .map_err(|e| format!("failover replica {i}: {e}"))?;
        nodes.push(node);
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while nodes.iter().any(|n| n.applied() < mark) {
        if Instant::now() >= deadline {
            return Err("failover bench: replicas never caught up".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let targets: Vec<ReplicaTarget> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            ReplicaTarget::tracking(format!("fo-replica-{i}"), n.server(), &n.publications_state())
        })
        .collect();
    let healths: Vec<_> = targets.iter().map(|t| Arc::clone(&t.health)).collect();
    let clock = Arc::clone(&pubs);
    let router = Arc::new(ReadRouter::new(
        None,
        targets,
        Arc::new(move || clock.repl_watermark()),
        u64::MAX,
    ));

    // Kill. Both targets leave the read pool while leadership is open.
    let t0 = Instant::now();
    drop(listener);
    for h in &healths {
        h.store(TargetHealth::Promoting as u8, Ordering::Release);
    }

    // Deterministic election over (name, applied): highest applied
    // sequence wins, lowest name breaks ties.
    let slate: Vec<(String, u64)> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (format!("fo-replica-{i}"), n.applied()))
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
    healths[winner].store(TargetHealth::Ready as u8, Ordering::Release);
    for (i, h) in healths.iter().enumerate() {
        if i != winner {
            h.store(TargetHealth::Fenced as u8, Ordering::Release);
        }
    }
    let floor = slate[winner].1;
    let first_read = loop {
        match router.search(
            &SearchMode::AllFields("covid".into()),
            0,
            floor,
            Duration::from_millis(200),
        ) {
            Ok((_, info)) if info.replica == slate[winner].0 => break t0.elapsed(),
            Ok(_) | Err(_) if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok((_, info)) => {
                return Err(format!("failover bench: read served by {:?}", info.replica))
            }
            Err(e) => return Err(format!("failover bench: routed read never recovered: {e}")),
        }
    };
    println!(
        "  failover: promoted {} (epoch {}) in {:.1} ms, first routed read at {:.1} ms",
        slate[winner].0,
        new_epoch.get(),
        promoted.as_secs_f64() * 1e3,
        first_read.as_secs_f64() * 1e3,
    );

    drop(relay);
    for node in &mut nodes {
        node.shutdown();
    }
    Ok(covidkg::json::obj! {
        "winner" => slate[winner].0.clone(),
        "epoch_after" => new_epoch.get() as i64,
        "promoted_ms" => promoted.as_secs_f64() * 1e3,
        "first_routed_read_ms" => first_read.as_secs_f64() * 1e3,
    })
}

/// Closed-loop read clients hammering a [`ReadRouter`] in-process.
fn routed_loop(
    router: &Arc<ReadRouter>,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Result<(u64, u64, Duration), String> {
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let router = Arc::clone(router);
        let queries = covidkg::corpus::query_workload(16, seed.wrapping_add(c as u64));
        handles.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut errs = 0u64;
            for i in 0..per_client {
                let q = queries[i % queries.len()].clone();
                match router.search(&SearchMode::AllFields(q), 0, 0, Duration::from_secs(5)) {
                    Ok(_) => ok += 1,
                    Err(_) => errs += 1,
                }
            }
            (ok, errs)
        }));
    }
    let mut ok = 0u64;
    let mut errs = 0u64;
    for h in handles {
        let (o, e) = h.join().map_err(|_| "bench client panicked".to_string())?;
        ok += o;
        errs += e;
    }
    Ok((ok, errs, t0.elapsed()))
}

/// Renders one marked table's markdown rows from a parsed `BENCH_*.json`.
type TableRenderer = fn(&covidkg::json::Value) -> String;

/// The marked tables of `EXPERIMENTS.md`, by the `BENCH_{name}.json` they
/// are rendered from.
const TABLES: &[(&str, &[(&str, TableRenderer)])] = &[
    (
        "net",
        &[
            ("net-table", render_net_table),
            ("conn-table", render_conn_table),
        ],
    ),
    ("ann", &[("ann-table", render_ann_table)]),
    ("kg", &[("kg-table", render_kg_table)]),
    ("trust", &[("trust-table", render_trust_table)]),
];

/// The `{name}-table` commands: regenerate each marked table of
/// `EXPERIMENTS.md` from the committed `BENCH_{name}.json`, so the prose
/// and the committed artifact cannot drift apart.
fn regenerate_tables(command: &str) -> Result<(), String> {
    let (name, tables) = TABLES
        .iter()
        .find(|(name, _)| command.strip_suffix("-table") == Some(name))
        .ok_or(format!("no tables for {command:?}"))?;
    let bench_path = format!("{}/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let exp_path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let raw = std::fs::read_to_string(&bench_path)
        .map_err(|e| format!("read {bench_path}: {e} (run `covidkg {name}-bench` first)"))?;
    let bench = covidkg::json::parse(&raw).map_err(|e| format!("parse BENCH_{name}.json: {e}"))?;
    let doc = std::fs::read_to_string(exp_path).map_err(|e| format!("read {exp_path}: {e}"))?;
    let doc = splice_tables(doc, &bench, tables)?;
    std::fs::write(exp_path, doc).map_err(|e| format!("write {exp_path}: {e}"))?;
    let markers: Vec<&str> = tables.iter().map(|(marker, _)| *marker).collect();
    println!(
        "updated {} in EXPERIMENTS.md from BENCH_{name}.json",
        markers.join(" + ")
    );
    Ok(())
}

/// `doc` with each of `tables` re-rendered from `bench` between its markers.
fn splice_tables(
    mut doc: String,
    bench: &covidkg::json::Value,
    tables: &[(&str, TableRenderer)],
) -> Result<String, String> {
    for (marker, render) in tables {
        doc = splice_marked(&doc, marker, &render(bench))?;
    }
    Ok(doc)
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
        return Err(format!("{marker} markers are out of order in EXPERIMENTS.md"));
    }
    Ok(format!("{}\n{body}{}", &doc[..start], &doc[end..]))
}

/// Render the markdown rows of the wire-benchmark table.
fn render_net_table(bench: &covidkg::json::Value) -> String {
    use covidkg::json::Value;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_f64());
    let int = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0);
    let us = |v: Option<f64>| match v {
        None => "—".to_string(),
        Some(us) if us >= 1000.0 => format!("{:.1} ms", us / 1000.0),
        Some(us) => format!("{us:.0} µs"),
    };
    let mut out = String::from(
        "| phase | offered | ok / sent | cache hits | p50 | p99 |\n|---|---|---|---|---|---|\n",
    );
    if let Some(rtt) = num(bench, "rtt_us") {
        out.push_str(&format!(
            "| wire RTT (1 conn, cached query) | — | — | warm | {} | — |\n",
            us(Some(rtt))
        ));
    }
    if let Some(closed) = bench.get("closed") {
        out.push_str(&format!(
            "| closed loop ({} conns, mixed engines) | max | {}/{} | {} | {} | {} |\n",
            int(bench, "clients"),
            int(closed, "ok"),
            int(closed, "sent"),
            int(closed, "cache_hits"),
            us(num(closed, "p50_us")),
            us(num(closed, "p99_us")),
        ));
    }
    if let Some(Value::Array(open)) = bench.get("open") {
        for r in open {
            out.push_str(&format!(
                "| open loop | {:.0} req/s | {}/{} | {} | {} | {} |\n",
                num(r, "offered_rate").unwrap_or(0.0),
                int(r, "ok"),
                int(r, "sent"),
                int(r, "cache_hits"),
                us(num(r, "p50_us")),
                us(num(r, "p99_us")),
            ));
        }
    }
    out
}

/// Render the markdown rows of the connection-scaling table: the
/// reactor holding N idle keep-alive connections under open-loop load,
/// against the thread-per-connection baseline at equal load.
fn render_conn_table(bench: &covidkg::json::Value) -> String {
    use covidkg::json::Value;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_f64());
    let int = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0);
    let us = |v: Option<f64>| match v {
        None => "—".to_string(),
        Some(us) if us >= 1000.0 => format!("{:.1} ms", us / 1000.0),
        Some(us) => format!("{us:.0} µs"),
    };
    let mut out = String::from(
        "| model | idle conns held | offered | ok / sent | goodput | p50 | p99 |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let mut row = |model: &str, r: &Value| {
        out.push_str(&format!(
            "| {model} | {} | {:.0} req/s | {}/{} | {:.0} ok/s | {} | {} |\n",
            int(r, "held_connections"),
            num(r, "offered_rate").unwrap_or(0.0),
            int(r, "ok"),
            int(r, "sent"),
            num(r, "goodput_rps").unwrap_or(0.0),
            us(num(r, "p50_us")),
            us(num(r, "p99_us")),
        ));
    };
    if let Some(threaded) = bench.get("threaded") {
        if let Some(r) = threaded.get("open") {
            row("thread-per-conn", r);
        }
        if let Some(r) = threaded.get("held") {
            row("thread-per-conn", r);
        }
    }
    if let Some(Value::Array(held)) = bench.get("connections") {
        for r in held {
            row("reactor", r);
        }
    }
    out
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

/// What the wire smokes drive: a freshly built system behind a
/// [`Server`] and an [`HttpServer`] on an ephemeral port, and a client
/// connected to it.
fn boot_wire_stack(
    corpus: usize,
    seed: u64,
) -> Result<(Arc<Server>, HttpServer, covidkg::HttpClient), String> {
    let system = build_system(corpus, seed, None)?;
    let server = Arc::new(Server::start(system, ServeConfig::default()));
    let http = start_http(&server, None, "127.0.0.1:0")?;
    let client = covidkg::HttpClient::connect(http.local_addr(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    Ok((server, http, client))
}

/// GET `url` once per entry of `want_cache`: every reply must be a 200
/// carrying that `X-Cache` value and exactly `local`, the in-process
/// serialization, as its body.
fn check_parity(
    client: &mut covidkg::HttpClient,
    url: &str,
    local: &str,
    want_cache: &[&str],
) -> Result<(), String> {
    for want in want_cache {
        let resp = client.get(url).map_err(|e| format!("GET {url}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{url} returned {}", resp.status));
        }
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
        "{url}: wire response byte-identical to in-process ({} bytes), {}",
        local.len(),
        want_cache.join(" then ")
    );
    Ok(())
}

/// The `ann-smoke` body: a small end-to-end exercise of the dense tier —
/// recall sanity against the exact oracle, then `/search/semantic` and
/// `/search/hybrid` over real TCP with a byte-identity check against the
/// in-process ranker. Used by CI.
fn ann_smoke(args: &Args) -> Result<(), String> {
    let (server, mut http, mut client) = boot_wire_stack(args.corpus.clamp(24, 80), args.seed)?;

    // Recall sanity: the HNSW graph must agree with brute force on the
    // corpus's own query workload.
    const K: usize = 10;
    let (recall_sum, counted) = server.with_system(|system| {
        let embeddings = system.embeddings();
        let mut recall_sum = 0.0;
        let mut counted = 0usize;
        for q in covidkg::corpus::query_workload(12, args.seed) {
            let qvec = embeddings.embed_phrase(&covidkg::text::tokenize_lower(&q));
            if qvec.iter().all(|x| *x == 0.0) {
                continue;
            }
            let (exact, _) = system.ann().exact_search(&qvec, K);
            if exact.is_empty() {
                continue;
            }
            let (approx, _) = system.ann().search(&qvec, K);
            let wanted: HashSet<&str> = exact.iter().map(|(id, _)| id.as_str()).collect();
            let hits = approx
                .iter()
                .filter(|(id, _)| wanted.contains(id.as_str()))
                .count();
            recall_sum += hits as f64 / exact.len() as f64;
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

    // Wire byte-identity: the HTTP body must equal the in-process page,
    // byte for byte, for both dense engines.
    let query = "vaccine side effects";
    for (engine, mode) in [
        ("semantic", DenseMode::Semantic(query.into())),
        ("hybrid", DenseMode::Hybrid(query.into())),
    ] {
        let local = server.with_system(|s| s.search_dense(&mode, 0).to_json().to_json());
        let url = format!("/search/{engine}?q=vaccine+side+effects&page=0");
        check_parity(&mut client, &url, &local, &["miss", "hit"])?;
    }
    http.shutdown();
    server.shutdown();
    println!("ANN SMOKE PASSED");
    Ok(())
}

/// The `ann-bench` body: recall@10 and per-query work of the HNSW index
/// against exact brute-force search at three corpus sizes, timed on real
/// embeddings trained per size. Emits `BENCH_ann.json`.
fn ann_bench(args: &Args) -> Result<(), String> {
    use covidkg::ml::{Word2Vec, Word2VecConfig};
    const K: usize = 10;
    const QUERY_COUNT: usize = 48;
    let sizes = [240usize, 960, 2400];
    let config = HnswConfig::default();
    println!(
        "ann-bench: recall@{K} over {QUERY_COUNT} queries, M {}, ef_construction {}, ef_search {}",
        config.m, config.ef_construction, config.ef_search
    );
    let mut rows = Vec::new();
    let mut final_recall = 0.0;
    let mut final_ratio = 0.0;
    for &n in &sizes {
        let pubs = covidkg::corpus::CorpusGenerator::with_size(n, args.seed).generate();
        let sentences: Vec<Vec<String>> = pubs
            .iter()
            .map(|p| {
                let mut t = covidkg::text::tokenize_lower(&p.title);
                t.extend(covidkg::text::tokenize_lower(&p.abstract_text));
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
        let docs: Vec<(String, Vec<f32>)> = pubs
            .iter()
            .zip(&sentences)
            .map(|(p, tokens)| (p.id.clone(), model.embed_phrase(tokens)))
            .collect();
        let t0 = Instant::now();
        let index = HnswIndex::build(
            model.dims(),
            config,
            docs.iter().map(|(id, v)| (id.as_str(), v.as_slice())),
        );
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut recall_sum = 0.0;
        let mut counted = 0u64;
        let mut hnsw_evals = 0u64;
        let mut brute_evals = 0u64;
        let mut latencies = Vec::new();
        for q in covidkg::corpus::query_workload(QUERY_COUNT, args.seed ^ 0x5eed) {
            let qvec = model.embed_phrase(&covidkg::text::tokenize_lower(&q));
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
            let wanted: HashSet<&str> = exact.iter().map(|(id, _)| id.as_str()).collect();
            let hits = approx.iter().filter(|(id, _)| wanted.contains(id.as_str())).count();
            recall_sum += hits as f64 / exact.len() as f64;
            counted += 1;
            hnsw_evals += stats.distance_evals;
            brute_evals += brute;
        }
        if counted == 0 {
            return Err(format!("no usable queries at corpus size {n}"));
        }
        let recall = recall_sum / counted as f64;
        let evals_per_query = hnsw_evals as f64 / counted as f64;
        let brute_per_query = brute_evals as f64 / counted as f64;
        let ratio = brute_per_query / evals_per_query.max(1.0);
        latencies.sort();
        let p50 = latencies[latencies.len() / 2];
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        println!(
            "  {n} docs: build {build_ms:.0} ms, recall@{K} {recall:.3}, \
             {evals_per_query:.0} vs {brute_per_query:.0} evals/query ({ratio:.1}x fewer), \
             p50 {:.0} µs, p99 {:.0} µs",
            p50.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6,
        );
        final_recall = recall;
        final_ratio = ratio;
        rows.push(covidkg::json::obj! {
            "docs" => n,
            "dims" => model.dims(),
            "build_ms" => build_ms,
            "queries" => counted as i64,
            "recall_at_10" => recall,
            "hnsw_evals_per_query" => evals_per_query,
            "brute_evals_per_query" => brute_per_query,
            "eval_ratio" => ratio,
            "p50_us" => p50.as_secs_f64() * 1e6,
            "p99_us" => p99.as_secs_f64() * 1e6,
        });
    }
    if final_recall < 0.95 || final_ratio < 5.0 {
        eprintln!(
            "warning: largest corpus missed the targets (recall {final_recall:.3} \
             >= 0.95, eval ratio {final_ratio:.1} >= 5.0)"
        );
    }
    let report = covidkg::json::obj! {
        "bench" => "ann",
        "k" => K,
        "seed" => args.seed as i64,
        "config" => covidkg::json::obj! {
            "m" => config.m,
            "ef_construction" => config.ef_construction,
            "ef_search" => config.ef_search,
        },
        "sizes" => covidkg::json::Value::Array(rows),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ann.json");
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("write BENCH_ann.json: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Render the markdown rows of the dense-tier benchmark table.
fn render_ann_table(bench: &covidkg::json::Value) -> String {
    use covidkg::json::Value;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let int = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0);
    let mut out = String::from(
        "| corpus | build | recall@10 | evals/query (HNSW / brute) | work saved | p50 | p99 |\n\
         |---|---|---|---|---|---|---|\n",
    );
    if let Some(Value::Array(sizes)) = bench.get("sizes") {
        for r in sizes {
            out.push_str(&format!(
                "| {} docs | {:.0} ms | {:.3} | {:.0} / {:.0} | {:.1}x | {:.0} µs | {:.0} µs |\n",
                int(r, "docs"),
                num(r, "build_ms"),
                num(r, "recall_at_10"),
                num(r, "hnsw_evals_per_query"),
                num(r, "brute_evals_per_query"),
                num(r, "eval_ratio"),
                num(r, "p50_us"),
                num(r, "p99_us"),
            ));
        }
    }
    out
}

/// The query-plan workload shared by `kg-bench`: a hierarchy walk, a
/// kind-filtered hop, a co-occurrence expansion and a deep mixed walk.
fn kg_bench_plans(fanout: usize, k: usize) -> Vec<covidkg::core::QueryPlan> {
    [
        ("kind:root", "child,child"),
        ("kind:category", "child:entity"),
        ("kind:entity", "co"),
        ("node:0", "child,any,any"),
    ]
    .iter()
    .map(|(start, steps)| {
        covidkg::core::QueryPlan::parse(start, steps, fanout, k).expect("bench plan parses")
    })
    .collect()
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

/// The `kg-smoke` body: the third traffic class end to end — ranked
/// query, profile and node bodies over real TCP, byte-identical to the
/// in-process serializations, with the cache-header contract checked.
/// Used by CI.
fn kg_smoke(args: &Args) -> Result<(), String> {
    let (server, mut http, mut client) = boot_wire_stack(args.corpus.clamp(48, 120), args.seed)?;

    // 1. Ranked query: wire body == in-process result, twice (miss then
    //    cache hit), same bytes both times.
    let plan = covidkg::core::QueryPlan::parse("kind:category", "child", 16, 10)?;
    let local = server.with_system(|s| s.kg_query(&plan).to_json().to_json());
    let url = "/kg/query?start=kind:category&steps=child&fanout=16&k=10";
    check_parity(&mut client, url, &local, &["miss", "hit"])?;

    // 2. Profile: epoch-stamped document, byte-identical on the wire.
    let vaccine = server
        .with_system(|s| s.profiles().first().map(|p| p.vaccine.clone()))
        .ok_or("corpus produced no meta-profiles — cannot smoke /kg/profile")?;
    let local = server
        .with_system(|s| s.kg_profile(&vaccine).map(|d| d.to_json()))
        .expect("profile exists");
    check_parity(
        &mut client,
        &format!("/kg/profile/{vaccine}"),
        &local,
        &["miss", "hit"],
    )?;

    // 3. Node: computed inline, cache-fronted like everything else.
    let local = server
        .with_system(|s| s.kg_node(0).map(|d| d.to_json()))
        .expect("node 0 exists");
    check_parity(&mut client, "/kg/node/0", &local, &["miss", "hit"])?;

    http.shutdown();
    server.shutdown();
    println!("KG SMOKE PASSED");
    Ok(())
}

/// The `kg-bench` body: ranked-path query latency plus the cost of
/// keeping meta-profiles fresh — a one-paper incremental refresh against
/// a full re-extract-everything rebuild — at three corpus sizes. Emits
/// `BENCH_kg.json`.
fn kg_bench(args: &Args) -> Result<(), String> {
    use covidkg::kg::ProfileStore;
    const QUERY_ITERS: usize = 40;
    const FULL_REPEATS: usize = 5;
    const INCR_REPEATS: usize = 50;
    let sizes = [120usize, 480, 1200];
    println!(
        "kg-bench: {} plans x {QUERY_ITERS} iters, fanout {}, k {}; \
         incremental refresh vs full re-extraction rebuild",
        kg_bench_plans(args.fanout, args.k).len(),
        args.fanout,
        args.k
    );
    let mut rows = Vec::new();
    let mut final_speedup = 0.0;
    for &n in &sizes {
        let system = build_system(n, args.seed, None).map_err(|e| format!("at {n} docs: {e}"))?;

        // Phase 1 — ranked-path query latency over the mixed workload.
        let plans = kg_bench_plans(args.fanout, args.k);
        let mut latencies = Vec::new();
        let mut hops = 0u64;
        let mut visited = 0u64;
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
        latencies.sort();
        let qp50 = latencies[latencies.len() / 2];
        let qp99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];

        // Phase 2 — materialization. Full = re-extract every stored
        // paper's tables and rebuild all profiles (what every mutation
        // cost before the mutation-log store). Incremental = refresh
        // one touched paper (what ingest costs now).
        let publications = system.publications();
        let epoch = publications.mutation_epoch();
        let extract_all = || -> Vec<(String, Vec<covidkg::kg::Observation>)> {
            publications
                .scan_all()
                .iter()
                .map(|doc| {
                    let id = doc
                        .get("_id")
                        .and_then(covidkg::json::Value::as_str)
                        .unwrap_or_default()
                        .to_string();
                    let obs = covidkg::core::doc_observations(doc, &id);
                    (id, obs)
                })
                .collect()
        };
        let mut full_times = Vec::new();
        for _ in 0..FULL_REPEATS {
            let t = Instant::now();
            let mut store = ProfileStore::new();
            store.rebuild_all(extract_all(), epoch);
            full_times.push(t.elapsed());
            std::hint::black_box(store.stats());
        }
        full_times.sort();
        let full = full_times[full_times.len() / 2];

        let papers = extract_all();
        let target = papers
            .iter()
            .max_by_key(|(_, obs)| obs.len())
            .map(|(id, _)| id.clone())
            .ok_or("no stored papers to refresh")?;
        let mut store = ProfileStore::new();
        store.rebuild_all(papers, epoch);
        let mut incr_times = Vec::new();
        for i in 0..INCR_REPEATS {
            let touched = [target.clone()];
            let t = Instant::now();
            store.refresh(epoch + 1 + i as u64, &touched, |id| {
                publications
                    .get(id)
                    .map(|doc| covidkg::core::doc_observations(&doc, id))
                    .unwrap_or_default()
            });
            incr_times.push(t.elapsed());
        }
        incr_times.sort();
        let incr = incr_times[incr_times.len() / 2];
        let speedup = full.as_secs_f64() / incr.as_secs_f64().max(1e-9);
        final_speedup = speedup;

        let stats = system.profile_store().stats();
        println!(
            "  {n} docs: {} kg nodes, {} profiles from {} papers; query p50 {:.0} µs, \
             p99 {:.0} µs; full rebuild {:.2} ms vs incremental {:.0} µs ({speedup:.1}x)",
            system.kg().len(),
            stats.profiles,
            stats.papers,
            qp50.as_secs_f64() * 1e6,
            qp99.as_secs_f64() * 1e6,
            full.as_secs_f64() * 1e3,
            incr.as_secs_f64() * 1e6,
        );
        rows.push(covidkg::json::obj! {
            "docs" => n,
            "kg_nodes" => system.kg().len(),
            "profiles" => stats.profiles as i64,
            "profile_papers" => stats.papers as i64,
            "observations" => stats.observations as i64,
            "queries" => latencies.len(),
            "hops" => hops as i64,
            "visited" => visited as i64,
            "query_p50_us" => qp50.as_secs_f64() * 1e6,
            "query_p99_us" => qp99.as_secs_f64() * 1e6,
            "full_rebuild_ms" => full.as_secs_f64() * 1e3,
            "incremental_refresh_us" => incr.as_secs_f64() * 1e6,
            "speedup" => speedup,
        });
    }
    if final_speedup < 5.0 {
        eprintln!(
            "warning: largest corpus missed the target (incremental speedup \
             {final_speedup:.1}x >= 5.0x)"
        );
    }
    let report = covidkg::json::obj! {
        "bench" => "kg",
        "seed" => args.seed as i64,
        "fanout" => args.fanout,
        "k" => args.k,
        "sizes" => covidkg::json::Value::Array(rows),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kg.json");
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("write BENCH_kg.json: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Render the markdown rows of the KG benchmark table.
fn render_kg_table(bench: &covidkg::json::Value) -> String {
    use covidkg::json::Value;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let int = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0);
    let mut out = String::from(
        "| corpus | kg nodes | profiles | query p50 | query p99 | full rebuild | \
         incremental | speedup |\n|---|---|---|---|---|---|---|---|\n",
    );
    if let Some(Value::Array(sizes)) = bench.get("sizes") {
        for r in sizes {
            out.push_str(&format!(
                "| {} docs | {} | {} | {:.0} µs | {:.0} µs | {:.2} ms | {:.0} µs | {:.1}x |\n",
                int(r, "docs"),
                int(r, "kg_nodes"),
                int(r, "profiles"),
                num(r, "query_p50_us"),
                num(r, "query_p99_us"),
                num(r, "full_rebuild_ms"),
                num(r, "incremental_refresh_us"),
                num(r, "speedup"),
            ));
        }
    }
    out
}

/// The `trust-smoke` body: the fourth traffic class end to end — node
/// trust, source credibility and the trust-weighted bias report over
/// real TCP, byte-identical to the in-process serializations with the
/// miss→hit cache-header contract checked on every route, plus the
/// `trust` re-rank knob (off ⇒ byte-identical to the default ranking).
/// Used by CI.
fn trust_smoke(args: &Args) -> Result<(), String> {
    let (server, mut http, mut client) = boot_wire_stack(args.corpus.clamp(48, 120), args.seed)?;

    // 1. All three trust routes: wire body == in-process serialization,
    //    twice each (miss then cache hit), same bytes both times.
    let venue = server
        .with_system(|s| s.trust_store().venues().next().map(str::to_string))
        .ok_or("corpus produced no source venues — cannot smoke /trust/source")?;
    let routes = [
        (
            "/trust/node/0".to_string(),
            server
                .with_system(|s| s.trust_node(0).map(|d| d.to_json()))
                .ok_or("node 0 carries no trust document")?,
        ),
        (
            format!(
                "/trust/source/{}",
                covidkg::net::bench::encode_query(&venue)
            ),
            server
                .with_system(|s| s.trust_source(&venue).map(|d| d.to_json()))
                .ok_or_else(|| format!("venue {venue:?} has no credibility document"))?,
        ),
        (
            "/bias/report".to_string(),
            server.with_system(|s| s.bias_document().to_json()),
        ),
    ];
    for (url, local) in &routes {
        check_parity(&mut client, url, local, &["miss", "hit"])?;
    }

    // 2. The `trust` knob defaults off: trust=0 must be byte-identical
    //    to omitting the parameter on both /search and /kg/query.
    for (plain, knobbed) in [
        (
            "/search/all-fields?q=vaccine".to_string(),
            "/search/all-fields?q=vaccine&trust=0".to_string(),
        ),
        (
            "/kg/query?start=kind:category&steps=child&fanout=16&k=10".to_string(),
            "/kg/query?start=kind:category&steps=child&fanout=16&k=10&trust=0".to_string(),
        ),
    ] {
        let a = client.get(&plain).map_err(|e| format!("GET {plain}: {e}"))?;
        let b = client.get(&knobbed).map_err(|e| format!("GET {knobbed}: {e}"))?;
        if a.status != 200 || b.status != 200 {
            return Err(format!("{plain} / {knobbed}: {} / {}", a.status, b.status));
        }
        if a.body != b.body {
            return Err(format!("trust=0 changed the {plain} body"));
        }
        println!("{knobbed}: byte-identical to the default ranking");
    }

    // 3. trust=1 engages the re-rank and says so in a header.
    for url in [
        "/search/all-fields?q=vaccine&trust=1",
        "/kg/query?start=kind:category&steps=child&fanout=16&k=10&trust=1",
    ] {
        let resp = client.get(url).map_err(|e| format!("GET {url}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{url} returned {}", resp.status));
        }
        if resp.header("X-Trust") != Some("re-ranked") {
            return Err(format!(
                "{url} X-Trust = {:?}, wanted \"re-ranked\"",
                resp.header("X-Trust")
            ));
        }
        println!("{url}: trust re-rank engaged (X-Trust: re-ranked)");
    }

    http.shutdown();
    server.shutdown();
    println!("TRUST SMOKE PASSED");
    Ok(())
}

/// The `trust-bench` body: node-trust lookup latency plus the cost of
/// keeping trust scores fresh — a one-paper incremental refresh against
/// a full re-extract-and-re-propagate rebuild — at three corpus sizes.
/// Emits `BENCH_trust.json`.
fn trust_bench(args: &Args) -> Result<(), String> {
    use covidkg::core::{doc_observations, doc_paper_facts, scan_paper_facts};
    use covidkg::trust::TrustStore;
    const LOOKUP_ITERS: usize = 200;
    const FULL_REPEATS: usize = 5;
    const INCR_REPEATS: usize = 50;
    let sizes = [120usize, 480, 1200];
    println!(
        "trust-bench: {LOOKUP_ITERS} node lookups; one-paper incremental refresh \
         vs full re-extraction + re-propagation rebuild"
    );
    let mut rows = Vec::new();
    let mut final_speedup = 0.0;
    for &n in &sizes {
        let system = build_system(n, args.seed, None).map_err(|e| format!("at {n} docs: {e}"))?;
        let publications = system.publications();
        let kg = system.kg();
        let epoch = publications.mutation_epoch();

        // Phase 1 — node-trust lookup latency across the graph.
        let stride = (kg.len() / 16).max(1);
        let ids: Vec<usize> = (0..kg.len()).step_by(stride).collect();
        let mut latencies = Vec::new();
        for i in 0..LOOKUP_ITERS {
            let id = ids[i % ids.len()];
            let t = Instant::now();
            let doc = system.trust_node(id);
            latencies.push(t.elapsed());
            std::hint::black_box(doc);
        }
        latencies.sort();
        let lp50 = latencies[latencies.len() / 2];
        let lp99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];

        // Phase 2 — maintenance. Full = re-extract every stored paper's
        // trust facts and re-propagate from scratch (what every ingest
        // would cost without the mutation-log store). Incremental =
        // refresh one touched paper (what ingest costs now).
        let mut full_times = Vec::new();
        for _ in 0..FULL_REPEATS {
            let t = Instant::now();
            let mut store = TrustStore::new();
            store.rebuild_all(scan_paper_facts(publications), kg, epoch);
            full_times.push(t.elapsed());
            std::hint::black_box(store.stats());
        }
        full_times.sort();
        let full = full_times[full_times.len() / 2];

        let facts = scan_paper_facts(publications);
        let target = facts
            .iter()
            .max_by_key(|f| f.claims.len())
            .map(|f| f.paper_id.clone())
            .ok_or("no stored papers to refresh")?;
        let mut store = TrustStore::new();
        store.rebuild_all(facts, kg, epoch);
        let mut incr_times = Vec::new();
        for i in 0..INCR_REPEATS {
            let touched = [target.clone()];
            let t = Instant::now();
            store.refresh(epoch + 1 + i as u64, &touched, kg, |id| {
                publications
                    .get(id)
                    .map(|doc| doc_paper_facts(&doc, id, &doc_observations(&doc, id)))
            });
            incr_times.push(t.elapsed());
        }
        incr_times.sort();
        let incr = incr_times[incr_times.len() / 2];
        let speedup = full.as_secs_f64() / incr.as_secs_f64().max(1e-9);
        final_speedup = speedup;

        let stats = system.trust_store().stats();
        println!(
            "  {n} docs: {} trust nodes from {} papers, {} venues; lookup p50 {:.0} µs, \
             p99 {:.0} µs; full rebuild {:.2} ms vs incremental {:.0} µs ({speedup:.1}x)",
            stats.nodes,
            stats.papers,
            stats.venues,
            lp50.as_secs_f64() * 1e6,
            lp99.as_secs_f64() * 1e6,
            full.as_secs_f64() * 1e3,
            incr.as_secs_f64() * 1e6,
        );
        rows.push(covidkg::json::obj! {
            "docs" => n,
            "trust_nodes" => stats.nodes as i64,
            "papers" => stats.papers as i64,
            "venues" => stats.venues as i64,
            "claims" => stats.claims as i64,
            "lookup_p50_us" => lp50.as_secs_f64() * 1e6,
            "lookup_p99_us" => lp99.as_secs_f64() * 1e6,
            "full_rebuild_ms" => full.as_secs_f64() * 1e3,
            "incremental_refresh_us" => incr.as_secs_f64() * 1e6,
            "speedup" => speedup,
        });
    }
    if final_speedup < 5.0 {
        eprintln!(
            "warning: largest corpus missed the target (incremental speedup \
             {final_speedup:.1}x >= 5.0x)"
        );
    }
    let report = covidkg::json::obj! {
        "bench" => "trust",
        "seed" => args.seed as i64,
        "sizes" => covidkg::json::Value::Array(rows),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trust.json");
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("write BENCH_trust.json: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Render the markdown rows of the trust benchmark table.
fn render_trust_table(bench: &covidkg::json::Value) -> String {
    use covidkg::json::Value;
    let num = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let int = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0);
    let mut out = String::from(
        "| corpus | trust nodes | venues | lookup p50 | lookup p99 | full rebuild | \
         incremental | speedup |\n|---|---|---|---|---|---|---|---|\n",
    );
    if let Some(Value::Array(sizes)) = bench.get("sizes") {
        for r in sizes {
            out.push_str(&format!(
                "| {} docs | {} | {} | {:.0} µs | {:.0} µs | {:.2} ms | {:.0} µs | {:.1}x |\n",
                int(r, "docs"),
                int(r, "trust_nodes"),
                int(r, "venues"),
                num(r, "lookup_p50_us"),
                num(r, "lookup_p99_us"),
                num(r, "full_rebuild_ms"),
                num(r, "incremental_refresh_us"),
                num(r, "speedup"),
            ));
        }
    }
    out
}

/// The `serve-bench` body: a sequential cold-vs-warm cache probe, then a
/// closed-loop concurrent run, then the server's own statistics.
fn serve_bench(server: &Server, args: &Args) -> Result<(), String> {
    // Phase 1 — cache effectiveness, measured sequentially so the two
    // distributions are clean: every query is a miss on the first pass
    // and a hit on the second.
    let probes: Vec<SearchMode> = covidkg::corpus::query_workload(24, args.seed)
        .into_iter()
        .map(SearchMode::AllFields)
        .collect();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for mode in &probes {
        let resp = server
            .search(mode, 0)
            .map_err(|e| format!("serve failed: {e}"))?;
        if !resp.cached {
            cold.push(resp.latency);
        }
        let resp = server
            .search(mode, 0)
            .map_err(|e| format!("serve failed: {e}"))?;
        if resp.cached {
            warm.push(resp.latency);
        }
    }
    let (cold_p50, warm_p50) = (median(&mut cold), median(&mut warm));
    println!(
        "cache probe: cold p50 {:.1} µs ({} misses), warm p50 {:.1} µs ({} hits), speedup {:.1}x",
        cold_p50.as_secs_f64() * 1e6,
        cold.len(),
        warm_p50.as_secs_f64() * 1e6,
        warm.len(),
        if warm_p50.as_nanos() == 0 {
            f64::INFINITY
        } else {
            cold_p50.as_secs_f64() / warm_p50.as_secs_f64()
        },
    );

    // Phase 2 — the concurrent closed loop across all three engines.
    let report = covidkg::serve::loadgen::run(
        server,
        &LoadGenConfig {
            clients: args.clients.max(1),
            queries_per_client: args.requests.unwrap_or(50).max(1),
            ..LoadGenConfig::default()
        },
    );
    print!("{}", report.render());
    if report.mismatches > 0 {
        return Err(format!(
            "{} spot checks disagreed with direct search",
            report.mismatches
        ));
    }
    // Phase 3 (optional) — the open-loop sweep: fixed offered rates
    // below, at and above the measured closed-loop capacity, reporting
    // goodput and the coordinated-omission-aware latency tail.
    if args.open_loop {
        let rates = args.rates.clone().unwrap_or_else(|| {
            let capacity = report.throughput().max(10.0);
            vec![capacity * 0.5, capacity, capacity * 2.0]
        });
        println!(
            "open loop ({} ms per rate, latency from scheduled arrival):",
            args.duration_ms
        );
        for rate in rates {
            let r = covidkg::serve::loadgen::run_open_loop(
                server,
                &OpenLoopConfig {
                    rate,
                    duration: Duration::from_millis(args.duration_ms.max(1)),
                    dispatchers: args.clients.max(1),
                },
            );
            println!("  {}", r.render());
        }
    }

    print!("{}", server.stats().render());
    Ok(())
}

/// Minimum open-loop arrivals per phase: percentiles from a few dozen
/// samples are noise, so short durations are stretched until at least
/// this many requests are scheduled.
const NET_BENCH_MIN_ARRIVALS: f64 = 200.0;

/// The `net-bench` body: a single-request RTT micro-bench on the
/// `covidkg_bench::timer` harness, a closed-loop phase, an open-loop
/// offered-rate sweep, a connection-concurrency sweep (N idle
/// keep-alive connections held while open-loop load runs beside them),
/// and a thread-per-connection baseline at equal load; everything
/// lands in `BENCH_net.json`.
fn net_bench(http: &HttpServer, server: &Arc<Server>, args: &Args) -> Result<(), String> {
    let addr = http.local_addr();
    let timeout = Duration::from_secs(10);
    println!("net-bench against http://{addr} (reactor model)");

    // Phase 0 — wire RTT floor: one keep-alive connection, a cached
    // query, timed on the same harness the repo's other benches use so
    // the number is comparable with the in-process figures.
    let mut conn = covidkg::HttpClient::connect(addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    conn.get("/search/all-fields?q=vaccine&page=0")
        .map_err(|e| format!("warmup request: {e}"))?;
    let mut criterion = covidkg::bench::timer::Criterion::default();
    criterion.bench_function("wire-rtt/cached-search", |b| {
        b.iter(|| conn.get("/search/all-fields?q=vaccine&page=0").unwrap())
    });
    // A plain median over a short burst for the JSON artifact (the
    // criterion harness above prints its own calibrated estimate).
    let mut rtts: Vec<Duration> = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        conn.get("/search/all-fields?q=vaccine&page=0")
            .map_err(|e| format!("rtt probe: {e}"))?;
        rtts.push(t.elapsed());
    }
    let rtt_p50 = median(&mut rtts);

    // Phase 1 — closed loop: N keep-alive connections at full tilt.
    let requests_per_client = args.requests.unwrap_or(200).max(1);
    let closed = covidkg::net::run_closed_loop(
        addr,
        args.clients.max(1),
        requests_per_client,
        timeout,
    );
    println!("{}", closed.render());
    if closed.io_errors > 0 {
        return Err(format!("{} socket-level failures in closed loop", closed.io_errors));
    }

    // Open-loop phases stretch short durations until at least
    // NET_BENCH_MIN_ARRIVALS requests are scheduled — tail percentiles
    // from a handful of samples are noise, not measurement.
    let base_duration = Duration::from_millis(args.duration_ms.max(1));
    let duration_for = |rate: f64| -> Duration {
        base_duration.max(Duration::from_secs_f64(
            NET_BENCH_MIN_ARRIVALS / rate.max(1e-3),
        ))
    };

    // Phase 2 — open loop at fixed offered rates (default: half and
    // double the measured closed-loop goodput, so the sweep brackets
    // the saturation point), latency from scheduled arrival.
    let capacity = closed.goodput().max(10.0);
    let rates = args
        .rates
        .clone()
        .unwrap_or_else(|| vec![capacity * 0.5, capacity * 2.0]);
    let mut open_reports = Vec::new();
    println!("open loop (latency from scheduled arrival):");
    for rate in rates {
        let r = covidkg::net::run_open_loop(
            addr,
            rate,
            duration_for(rate),
            args.clients.max(1),
            timeout,
        );
        println!("  {}", r.render());
        open_reports.push(r);
    }

    // Phase 3 — connection-concurrency sweep: hold N idle keep-alive
    // connections for the whole phase while open-loop load runs beside
    // them at a fixed comfortable rate. Under the reactor each held
    // socket is one fd + ~1 KiB of state, so goodput and tail latency
    // should hold flat as N scales into the thousands.
    let sweep_rate = (capacity * 0.5).max(10.0);
    let held_counts = args.connections.clone().unwrap_or_else(|| vec![64, 512, 4096]);
    let mut held_reports = Vec::new();
    println!("connection sweep (open loop at {sweep_rate:.0} req/s beside held idle conns):");
    for held in held_counts {
        let r = covidkg::net::run_held_connections(
            addr,
            held,
            sweep_rate,
            duration_for(sweep_rate),
            args.clients.max(1),
            timeout,
        );
        println!("  {}", r.render());
        if (r.held_connections as usize) < held {
            return Err(format!(
                "held-connection sweep only opened {} of {held} sockets",
                r.held_connections
            ));
        }
        held_reports.push(r);
    }

    // Phase 4 — thread-per-connection baseline at equal load: a second
    // front-end over the *same* serve layer, legacy model, driven with
    // the same open-loop rate (and the same sweep with the thread cap's
    // worth of held connections) for a direct A/B in the table.
    let threaded_held = 64;
    let mut baseline = HttpServer::start(
        Arc::clone(server),
        NetConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            model: covidkg::net::ConnectionModel::Threaded,
            max_connections: (threaded_held + args.clients.max(1)) * 2,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind threaded baseline: {e}"))?;
    let baseline_addr = baseline.local_addr();
    println!("thread-per-connection baseline against http://{baseline_addr}:");
    let threaded_open = covidkg::net::run_open_loop(
        baseline_addr,
        sweep_rate,
        duration_for(sweep_rate),
        args.clients.max(1),
        timeout,
    );
    println!("  {}", threaded_open.render());
    let threaded_held_report = covidkg::net::run_held_connections(
        baseline_addr,
        threaded_held,
        sweep_rate,
        duration_for(sweep_rate),
        args.clients.max(1),
        timeout,
    );
    println!("  {}", threaded_held_report.render());
    baseline.shutdown();

    // Emit BENCH_net.json next to the other BENCH_*.json artifacts.
    let wire = http.wire_stats();
    let report = covidkg::json::obj! {
        "bench" => "net",
        "model" => "reactor",
        "clients" => args.clients.max(1),
        "requests_per_client" => requests_per_client,
        "rtt_us" => rtt_p50.as_secs_f64() * 1e6,
        "closed" => closed.to_json(),
        "open" => covidkg::json::Value::Array(
            open_reports.iter().map(|r| r.to_json()).collect()
        ),
        "connections" => covidkg::json::Value::Array(
            held_reports.iter().map(|r| r.to_json()).collect()
        ),
        "threaded" => covidkg::json::obj! {
            "open" => threaded_open.to_json(),
            "held" => threaded_held_report.to_json(),
        },
        "wire" => covidkg::json::obj! {
            "connections_accepted" => wire.connections_accepted as i64,
            "connections_reaped" => wire.connections_reaped as i64,
            "bytes_in" => wire.bytes_in as i64,
            "bytes_out" => wire.bytes_out as i64,
            "parse_errors" => wire.parse_errors as i64,
            "epoll_wakeups" => wire.epoll_wakeups as i64,
            "ready_events" => wire.ready_events as i64,
        },
    };
    let path = args
        .out
        .as_deref()
        .unwrap_or(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_net.json"));
    std::fs::write(path, report.to_json_pretty() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn median(samples: &mut [Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort();
    samples[samples.len() / 2]
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

    /// Every `{name}-table` command, against the committed files: the
    /// dense, KG and trust tables of `EXPERIMENTS.md` are exactly what
    /// their `BENCH_*.json` renders to (the wire tables' committed prose
    /// predates `BENCH_net.json`), and regenerating is idempotent.
    #[test]
    fn committed_tables_regenerate_to_themselves() {
        let root = env!("CARGO_MANIFEST_DIR");
        let committed = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
        for (name, tables) in TABLES {
            let raw = std::fs::read_to_string(format!("{root}/BENCH_{name}.json")).unwrap();
            let bench = covidkg::json::parse(&raw).unwrap();
            let doc = splice_tables(committed.clone(), &bench, tables).unwrap();
            if *name != "net" {
                assert_eq!(doc, committed, "{name}-table changed the committed tables");
            }
            for (marker, render) in *tables {
                let span = format!(
                    "<!-- {marker}:begin -->\n{}<!-- {marker}:end -->",
                    render(&bench)
                );
                assert!(doc.contains(&span), "{marker}");
            }
            assert_eq!(
                splice_tables(doc.clone(), &bench, tables).unwrap(),
                doc,
                "{name}"
            );
        }
    }
}
