//! The traced run: the same ops replayed on one thread, in process,
//! with a span around every call into a layer's public function, plus
//! the wire round trip of the same op.
//!
//! The program has no tracing of its own yet (ROADMAP's observability
//! item), so spans are recorded from here, around the calls a request
//! makes on its way down: `Parser::feed`, `router::handle`, the
//! `Server` entry point, the engine call the serve layer makes, and the
//! pieces of that engine call the layers below expose. A call nested
//! inside another layer's function cannot be wrapped from outside, so
//! each is issued separately on the same op and *attributed* to its
//! parent; `host.trace_self_sum_ratio` checks that the attributed parts
//! add up to the whole that was measured in one piece.

use crate::estimators::{median, quiet_floor, quiet_floor_of_medians};
use crate::ops::{Call, Class, Inputs, Op};
use crate::stack::Stack;
use covidkg_core::CovidKg;
use covidkg_kg::ProfileStore;
use covidkg_net::{router, Parser, Response};
use covidkg_search::engine::PAGE_SIZE;
use covidkg_search::{dense_search, HybridConfig, RenderCache, SearchEngine};
use covidkg_serve::Server;
use covidkg_text::tokenize_lower;
use covidkg_trust::TrustStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts allocations of every thread while switched on, so that
/// `*.allocs_per_*` repeat exactly; off (one relaxed load per
/// allocation) in every run that reports an end-to-end number.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator manages.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One recorded span. Times are nanoseconds since the trace began.
pub struct Span {
    pub name: &'static str,
    /// The traced op the span belongs to.
    pub op: u32,
    /// Index of the span this one is attributed to.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans and samples of one traced run, kept in memory until the end.
pub struct Trace {
    t0: Instant,
    on: bool,
    pub spans: Vec<Span>,
    /// Timing samples by metric name: `(block of the replay, value)`.
    timings: BTreeMap<&'static str, Vec<(u32, f64)>>,
    /// Exact counts by metric name.
    counts: BTreeMap<&'static str, Vec<f64>>,
    op: u32,
    block: u32,
}

/// What one span measured.
struct Measured<R> {
    out: R,
    secs: f64,
    allocs: u64,
    index: Option<u32>,
}

impl Trace {
    fn new(on: bool) -> Trace {
        COUNTING.store(on, Ordering::SeqCst);
        Trace {
            t0: Instant::now(),
            on,
            spans: Vec::new(),
            timings: BTreeMap::new(),
            counts: BTreeMap::new(),
            op: 0,
            block: 0,
        }
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> Measured<R> {
        let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
            });
            self.spans.len() as u32 - 1
        });
        Measured {
            out,
            secs: (end - start).as_secs_f64(),
            allocs,
            index,
        }
    }

    fn time(&mut self, metric: &'static str, secs: f64) {
        self.timings
            .entry(metric)
            .or_default()
            .push((self.block, secs));
    }

    fn count(&mut self, metric: &'static str, n: f64) {
        self.counts.entry(metric).or_default().push(n);
    }

    /// Quiet-floor median of a timing metric, seconds; NaN without samples.
    pub fn quiet(&self, metric: &str) -> f64 {
        let Some(samples) = self.timings.get(metric) else {
            return f64::NAN;
        };
        let blocks = samples
            .iter()
            .map(|s| s.0)
            .max()
            .map_or(0, |b| b as usize + 1);
        let mut per_block = vec![Vec::new(); blocks];
        for &(b, v) in samples {
            per_block[b as usize].push(v);
        }
        quiet_floor_of_medians(&per_block)
    }

    /// Plain median of a timing metric, seconds; NaN without samples.
    fn median(&self, metric: &str) -> f64 {
        median(
            &self
                .timings
                .get(metric)
                .map_or(Vec::new(), |s| s.iter().map(|x| x.1).collect()),
        )
    }

    /// Mean of an exact count; NaN without samples.
    pub fn mean(&self, metric: &str) -> f64 {
        match self.counts.get(metric) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => f64::NAN,
        }
    }

    pub fn samples(&self, metric: &str) -> usize {
        self.timings.get(metric).map_or(0, Vec::len) + self.counts.get(metric).map_or(0, Vec::len)
    }

    /// Spans as tab-separated lines: index, name, op, parent, start, end.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("span\tname\top\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{}\t{}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// How far the attributed self times of an op may sum from its parse +
/// handle + write measured in one piece before the run is incorrect.
pub const SELF_SUM_TOLERANCE: f64 = 0.15;
/// Entries of the render cache `covidkg-core` gives the system's engine
/// (`RENDER_CACHE_CAP`, private there, and the engine is not exposed):
/// the probe engine gets one of the same size. Should core's change,
/// the probe's engine spans stop adding up to the whole measured
/// through the system's own engine, which `SELF_SUM_TOLERANCE` catches.
const RENDER_CACHE_ENTRIES: usize = 4096;
/// Ops per block of the replay (the unit of its quiet-floor medians).
const REPLAY_BLOCK: usize = 16;
/// Most workload ops the replay takes before the supplement.
const REPLAY_OPS: usize = 640;
/// Passes over the warm targets for `host.trace_overhead_ratio`.
const OVERHEAD_PASSES: usize = 24;

/// The serve-layer entry point `net::router` calls for `call`; whether
/// the reply came from the cache.
fn serve_call(server: &Server, call: &Call) -> Option<bool> {
    match call {
        Call::Lexical(mode, page) => server.search(mode, *page).ok().map(|r| r.cached),
        Call::Dense(mode, page) => server.search_dense(mode, *page).ok().map(|r| r.cached),
        Call::KgQuery(plan) => server.kg_query(plan).ok().map(|r| r.cached),
        Call::KgQueryTrust(plan) => server.kg_query_trusted(plan).ok().map(|r| r.cached),
        Call::KgProfile(v) => server.kg_profile(v).ok().flatten().map(|r| r.cached),
        Call::KgNode(id) => server.kg_node(*id).ok().flatten().map(|r| r.cached),
        Call::TrustNode(id) => server.trust_node(*id).ok().flatten().map(|r| r.cached),
        Call::TrustSource(v) => server.trust_source(v).ok().flatten().map(|r| r.cached),
        Call::BiasReport => server.bias_report().ok().map(|r| r.cached),
        Call::Ingest(_) => None,
    }
}

fn serve_span(class: Class) -> &'static str {
    match class {
        Class::AllFields | Class::Scoped | Class::Tables => "serve.search",
        Class::Semantic | Class::Hybrid => "serve.search_dense",
        Class::KgQuery => "serve.kg_query",
        Class::KgQueryTrust => "serve.kg_query_trusted",
        Class::KgProfile => "serve.kg_profile",
        Class::KgNode => "serve.kg_node",
        Class::TrustNode => "serve.trust_node",
        Class::TrustSource => "serve.trust_source",
        Class::BiasReport => "serve.bias_report",
        Class::Ingest => "serve.ingest",
    }
}

/// The engine work behind one op, run straight on the layers below the
/// serve layer, each call in a span attributed to `parent`. Returns the
/// seconds the serve layer would spend in engines for this op.
///
/// Searches run on `probe`, an engine of the benchmark's own over the
/// same collection with a render cache of the same size: it has seen
/// the same queries as the system's engine, so its render cache is in
/// the same state, yet it is not warmed by the request just served.
fn engine_spans(
    t: &mut Trace,
    system: &CovidKg,
    probe: &SearchEngine,
    op: &Op,
    parent: Option<u32>,
) -> f64 {
    match &op.call {
        Call::Lexical(mode, page) => {
            let (name, metric) = match op.class {
                Class::AllFields => ("search.all_fields", "search.all_fields_us"),
                Class::Scoped => ("search.scoped", "search.scoped_us"),
                _ => ("search.tables", "search.tables_us"),
            };
            let search = t.span(name, parent, || probe.search(mode, *page));
            let rank = t.span("search.ranked_ids", search.index, || {
                probe.ranked_ids(mode, (page + 1) * PAGE_SIZE)
            });
            let json = t.span("json.serialize", parent, || search.out.to_json().to_json());
            t.time(metric, search.secs);
            t.time("search.rank_us", rank.secs);
            t.time("search.render_us", (search.secs - rank.secs).max(0.0));
            t.count("search.allocs_per_query", search.allocs as f64);
            t.time("json.serialize_us", json.secs);
            t.count("json.body_bytes", json.out.len() as f64);
            search.secs
        }
        Call::Dense(mode, page) => {
            let (name, metric) = match op.class {
                Class::Semantic => ("search.semantic", "search.semantic_us"),
                _ => ("search.hybrid", "search.hybrid_us"),
            };
            let search = t.span(name, parent, || {
                dense_search(
                    probe,
                    system.ann(),
                    system.embeddings(),
                    mode,
                    *page,
                    &HybridConfig::default(),
                )
            });
            let qvec = system
                .embeddings()
                .embed_phrase(&tokenize_lower(mode.query()));
            let ann = t.span("ann.search", search.index, || {
                system.ann().search(&qvec, HybridConfig::default().k_dense)
            });
            let json = t.span("json.serialize", parent, || search.out.to_json().to_json());
            t.time(metric, search.secs);
            t.count("search.allocs_per_query", search.allocs as f64);
            t.time("ann.search_us", ann.secs);
            t.count(
                "ann.distance_evals_per_query",
                ann.out.1.distance_evals as f64,
            );
            t.count("ann.hops_per_query", ann.out.1.hops as f64);
            t.time("json.serialize_us", json.secs);
            t.count("json.body_bytes", json.out.len() as f64);
            search.secs
        }
        Call::KgQuery(plan) | Call::KgQueryTrust(plan) => {
            let exec = t.span("kg.execute_optimized", parent, || {
                covidkg_kg::execute_optimized(system.kg(), plan)
            });
            t.time("kg.execute_us", exec.secs);
            t.count("kg.visited_per_query", exec.out.visited as f64);
            t.count("kg.hops_per_query", exec.out.hops as f64);
            t.count("kg.paths_per_query", exec.out.paths.len() as f64);
            let (doc, secs) = if op.class == Class::KgQueryTrust {
                let plain = t.span("core.kg_query", parent, || system.kg_query(plan));
                let trusted = t.span("core.kg_query_trusted", parent, || {
                    system.kg_query_trusted(plan)
                });
                t.time(
                    "trust.rerank_overhead_us",
                    (trusted.secs - plain.secs).max(0.0),
                );
                (trusted.out, trusted.secs)
            } else {
                (exec.out.to_json(), exec.secs)
            };
            let json = t.span("json.serialize", parent, || doc.to_json());
            t.time("json.serialize_us", json.secs);
            t.count("json.body_bytes", json.out.len() as f64);
            secs + json.secs
        }
        Call::KgProfile(_)
        | Call::KgNode(_)
        | Call::TrustNode(_)
        | Call::TrustSource(_)
        | Call::BiasReport => {
            let (name, metric) = match op.class {
                Class::KgProfile => ("core.kg_profile", "kg.profile_us"),
                Class::KgNode => ("core.kg_node", "kg.node_us"),
                Class::TrustNode => ("core.trust_node", "trust.node_us"),
                Class::TrustSource => ("core.trust_source", "trust.source_us"),
                _ => ("core.bias_document", ""),
            };
            let doc = t.span(name, parent, || match &op.call {
                Call::KgProfile(v) => system.kg_profile(v),
                Call::KgNode(id) => system.kg_node(*id),
                Call::TrustNode(id) => system.trust_node(*id),
                Call::TrustSource(v) => system.trust_source(v),
                _ => Some(system.bias_document()),
            });
            if !metric.is_empty() {
                t.time(metric, doc.secs);
            }
            let json = t.span("json.serialize", parent, || {
                doc.out.map(|d| d.to_json()).unwrap_or_default()
            });
            t.time("json.serialize_us", json.secs);
            t.count("json.body_bytes", json.out.len() as f64);
            doc.secs + json.secs
        }
        Call::Ingest(_) => 0.0,
    }
}

/// Parse, handle and write one request in process; the three spans.
fn in_process(t: &mut Trace, stack: &Stack, request: &[u8]) -> Option<(f64, f64, f64, bool, u64)> {
    let parse = t.span("net.parse", None, || Parser::new().feed(request));
    let req = parse.out.ok().flatten()?;
    let wire = stack.http.wire_stats();
    let handle = t.span("net.handle", None, || {
        router::handle(&stack.server, &wire, None, &req)
    });
    let resp: Response = handle.out;
    if resp.status != 200 {
        return None;
    }
    let hit = resp
        .headers
        .iter()
        .any(|(n, v)| n == "X-Cache" && v == "hit");
    let write = t.span("net.write", None, || {
        let mut sink = Vec::with_capacity(resp.body.len() + 256);
        resp.write_to(&mut sink, false).map(|_| sink.len())
    });
    write.out.ok()?;
    Some((
        parse.secs,
        handle.secs,
        write.secs,
        hit,
        parse.allocs + handle.allocs + write.allocs,
    ))
}

/// Per-op parts kept for the self-time check.
struct Parts {
    /// Parse + handle + write measured in one piece, for an op handled
    /// first that missed the cache.
    missed_whole: Option<f64>,
    parse: f64,
    write: f64,
    engine: f64,
}

fn read_op(
    t: &mut Trace,
    stack: &Stack,
    probe: &SearchEngine,
    client: &mut covidkg_net::HttpClient,
    op: &Op,
    handle_first: bool,
    parts: &mut Vec<Parts>,
) -> bool {
    let server = &stack.server;
    let request = format!("GET {} HTTP/1.1\r\nHost: covidkg\r\n\r\n", op.target);
    let name = serve_span(op.class);
    let mut whole = None;
    let mut first_serve = None;
    if handle_first {
        let Some((p, h, w, hit, _)) = in_process(t, stack, request.as_bytes()) else {
            return false;
        };
        whole = (!hit).then_some(p + h + w);
    } else {
        let m = t.span(name, None, || serve_call(server, &op.call));
        let Some(cached) = m.out else { return false };
        first_serve = Some((m.secs, cached, m.index));
    }
    // Everything after the first touch finds the reply cached.
    let Some((parse, handle, write, hit, allocs)) = in_process(t, stack, request.as_bytes()) else {
        return false;
    };
    let serve_hit = t.span(name, None, || serve_call(server, &op.call));
    if serve_hit.out != Some(true) || !hit {
        return false;
    }
    let engine_parent = first_serve.and_then(|f| f.2);
    let engine = server.with_system(|system| engine_spans(t, system, probe, op, engine_parent));
    let round_trip = t.span("wire.round_trip", None, || {
        client.send_raw(request.as_bytes())
    });
    if !round_trip.out.is_ok_and(|r| r.status == 200) {
        return false;
    }
    t.time("net.parse_us", parse);
    t.time("net.write_us", write);
    t.time("net.handle_self_us", (handle - serve_hit.secs).max(0.0));
    t.time(
        "net.transport_us",
        (round_trip.secs - parse - handle - write).max(0.0),
    );
    t.count("net.allocs_per_op", allocs as f64);
    t.time("serve.hit_us", serve_hit.secs);
    t.count("serve.allocs_per_hit", serve_hit.allocs as f64);
    if let Some((secs, false, _)) = first_serve {
        t.time("serve.miss_overhead_us", (secs - engine).max(0.0));
    }
    parts.push(Parts {
        missed_whole: whole,
        parse,
        write,
        engine,
    });
    true
}

/// One ingest, phase by phase as `Server::ingest` runs them, then reads
/// until the publication shows.
fn ingest_op(
    t: &mut Trace,
    stack: &Stack,
    client: &mut covidkg_net::HttpClient,
    inputs: &Inputs,
    op: &Op,
) -> bool {
    let Call::Ingest(ix) = op.call else {
        return false;
    };
    let publication = &inputs.new_pubs[ix];
    let server = &stack.server;
    let started = Instant::now();
    let prepare = t.span("core.ingest_prepare", None, || {
        server.with_system(|s| s.ingest_prepare(std::slice::from_ref(publication)))
    });
    let Ok(prepared) = prepare.out else {
        return false;
    };
    let commit = t.span("core.ingest_commit", None, || {
        server.with_system_mut(|s| s.ingest_commit(prepared))
    });
    if commit.out.is_err() {
        return false;
    }
    let persist = t.span("core.persist_now", None, || {
        server.with_system(|s| s.persist_now())
    });
    if persist.out.is_err() {
        return false;
    }
    let committed = server.generation();
    let needle = format!("\"{}\"", publication.id);
    let visible = t.span("wire.round_trip", None, || {
        (0..3).any(|_| {
            client.get(&op.target).is_ok_and(|r| {
                r.header("x-generation")
                    .and_then(|g| g.parse::<u64>().ok())
                    .is_some_and(|g| g >= committed)
                    && r.text().contains(&needle)
            })
        })
    });
    if !visible.out {
        return false;
    }
    t.time("core.ingest_prepare_ms", prepare.secs);
    t.time("core.ingest_commit_ms", commit.secs);
    t.time("core.persist_ms", persist.secs);
    t.time("core.ingest_visible_ms", started.elapsed().as_secs_f64());
    true
}

/// Full rebuilds of the derived state, each layer's own and the
/// system's, as the replication path drives them.
fn refresh_spans(t: &mut Trace, stack: &Stack) -> bool {
    let server = &stack.server;
    let ok = server.with_system(|system| {
        let epoch = system.publications().mutation_epoch();
        let mut papers: BTreeMap<String, Vec<covidkg_kg::Observation>> = BTreeMap::new();
        for o in system.profile_store().canonical_observations() {
            papers.entry(o.paper_id.clone()).or_default().push(o);
        }
        let papers: Vec<_> = papers.into_iter().collect();
        let kg = t.span("kg.profile_store_rebuild", None, || {
            let mut store = ProfileStore::new();
            store.rebuild_all(papers, epoch);
            store.stats().profiles
        });
        t.time("kg.refresh_ms", kg.secs);
        let facts = covidkg_core::scan_paper_facts(system.publications());
        let trust = t.span("trust.store_rebuild", None, || {
            let mut store = TrustStore::new();
            store.rebuild_all(facts, system.kg(), epoch);
            store.stats().nodes
        });
        t.time("trust.refresh_ms", trust.secs);
        let bias = t.span("core.bias_report", None, || {
            system.bias_report().clusters.len()
        });
        t.time("trust.bias_report_ms", bias.secs);
        kg.out > 0 && trust.out > 0
    });
    let refresh = t.span("core.refresh_derived", None, || {
        server.with_system_mut(|s| s.refresh_derived())
    });
    t.time("core.refresh_derived_ms", refresh.secs);
    ok && refresh.out.is_ok()
}

/// Parse + handle + write over `targets`, all cached, with spans and
/// allocation counting on or off; seconds.
fn warm_pass(stack: &Stack, targets: &[Op], traced: bool) -> f64 {
    let mut t = Trace::new(traced);
    let start = Instant::now();
    for op in targets {
        let request = format!("GET {} HTTP/1.1\r\nHost: covidkg\r\n\r\n", op.target);
        std::hint::black_box(in_process(&mut t, stack, request.as_bytes()));
    }
    start.elapsed().as_secs_f64()
}

/// Whether op `i` of the replay goes through `router::handle` first
/// (one in four, for the self-time check) or through its `Server` entry
/// point. Scattered, not every fourth: the blocks' shapes repeat with
/// periods that are multiples of four, and both kinds of op must hold
/// the same mix of them.
fn handled_first(i: usize) -> bool {
    (i as u32).wrapping_mul(0x9e37_79b9) >> 30 == 3
}

pub struct TraceResult {
    pub trace: Trace,
    pub attempted: u64,
    pub failed: u64,
    pub render_cache_hit_ratio: f64,
    /// Attributed self times over the whole measured in one piece.
    pub self_sum_ratio: f64,
    /// Traced over untraced time of the same warm requests.
    pub overhead_ratio: f64,
}

/// Replay the workload's first ops and the supplement, traced.
pub fn replay(stack: &Stack, inputs: &Inputs) -> Result<TraceResult, String> {
    let collection = stack.server.with_system(|s| Arc::clone(s.publications()));
    let probe = SearchEngine::new(collection)
        .with_render_cache(Arc::new(RenderCache::new(RENDER_CACHE_ENTRIES)));
    let mut client = stack.connect().map_err(|e| format!("connect: {e}"))?;
    let prefix = (REPLAY_BLOCK * inputs.block_ops)
        .min(REPLAY_OPS)
        .min(inputs.ops.len());
    let ops: Vec<&Op> = inputs.ops[..prefix]
        .iter()
        .chain(&inputs.supplement)
        .collect();

    let mut t = Trace::new(true);
    let mut parts = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        t.op = i as u32;
        t.block = (i / REPLAY_BLOCK) as u32;
        attempted += 1;
        let ok = if op.class == Class::Ingest {
            ingest_op(&mut t, stack, &mut client, inputs, op)
        } else {
            read_op(
                &mut t,
                stack,
                &probe,
                &mut client,
                op,
                handled_first(i),
                &mut parts,
            )
        };
        if !ok {
            failed += 1;
        }
    }
    t.op = ops.len() as u32;
    attempted += 1;
    if !refresh_spans(&mut t, stack) {
        failed += 1;
    }
    COUNTING.store(false, Ordering::SeqCst);

    let render_cache_hit_ratio = probe
        .render_cache_stats()
        .map_or(0.0, |r| r.hits as f64 / (r.hits + r.misses).max(1) as f64);

    // The self-time check: for ops handled first that missed the cache,
    // the whole against parse + write + the handle self time + the miss
    // overhead + this op's engine time, which was measured apart. (For
    // a hit the parts are the whole by construction, give or take the
    // timer's own cost on a microsecond-long path: no check at all.)
    // Medians, not quiet floors: the wholes were measured in whatever
    // state the host was in.
    let handle_self = t.median("net.handle_self_us");
    let miss_overhead = t.median("serve.miss_overhead_us");
    let ratios: Vec<f64> = parts
        .iter()
        .filter_map(|p| {
            let whole = p.missed_whole?;
            Some((p.parse + p.write + handle_self + miss_overhead + p.engine) / whole)
        })
        .filter(|r| r.is_finite())
        .collect();

    // The warm-up targets, cached after the first pass; alternating, so
    // both sides see the same host.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PASSES {
        untraced.push(warm_pass(stack, &inputs.warmup, false));
        traced.push(warm_pass(stack, &inputs.warmup, true));
    }
    COUNTING.store(false, Ordering::SeqCst);

    Ok(TraceResult {
        trace: t,
        attempted,
        failed,
        render_cache_hit_ratio,
        self_sum_ratio: median(&ratios),
        overhead_ratio: quiet_floor(&traced) / quiet_floor(&untraced),
    })
}
