//! Request routing: a route table mapping parsed HTTP requests onto the
//! serve layer's op table ([`covidkg_serve::Op`]).
//!
//! Byte-correctness contract: one entry, serialized once, spliced per
//! request. The body of a 200 is the serve layer's [`covidkg_serve::Entry`]
//! — the bytes `SearchPage::to_json().to_json()` (or the KG/trust
//! document's `to_json()`) gave the thread that computed the value —
//! sent as they are, for fresh, cached and stale replies alike. The one
//! request-dependent field, a search page's echoed `query`, is sent in
//! this request's own spelling in place of the entry's, so every reply
//! equals in-process serialization of a page carrying its own query.
//! Nothing here re-renders a value that came from [`Server::request`].
//! Cache/degradation metadata rides in response *headers* (`X-Cache`,
//! `X-Generation`, `X-Trust`) so the body never varies with cache state.

use crate::http::{percent_decode, Body, Request, Response};
use crate::metrics::{self, WireStats};
use covidkg_core::QueryPlan;
use covidkg_json::{obj, Value};
use covidkg_repl::{Epoch, ReadRouter, ReplMetrics, RouteError};
use covidkg_search::{DenseMode, SearchMode};
use covidkg_serve::{Exposition, Miss, Op, Reply, ServeError, Server};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

/// Replication-aware read context for a front-end that routes every op
/// across a replica pool instead of answering it from its local server.
pub struct ReadContext {
    /// The lag-aware router (replicas + optional primary fallback).
    pub router: Arc<ReadRouter>,
    /// Primary-side shipping counters for `/metrics`, when this node
    /// is the primary (`None` on a replica-only front-end).
    pub metrics: Option<Arc<ReplMetrics>>,
    /// This node's fencing epoch, stamped into session cookies and the
    /// `/metrics` page (`None` when the node runs without failover).
    pub epoch: Option<Epoch>,
    /// How long a read-your-writes request (`X-Min-Seq`) may wait for a
    /// caught-up target before 503ing.
    pub ryw_deadline: Duration,
}

impl ReadContext {
    /// Context with the default 2-second read-your-writes wait.
    pub fn new(router: Arc<ReadRouter>, metrics: Option<Arc<ReplMetrics>>) -> ReadContext {
        ReadContext {
            router,
            metrics,
            epoch: None,
            ryw_deadline: Duration::from_secs(2),
        }
    }

    /// Attach the node's fencing-epoch handle (enables the epoch half
    /// of session cookies and the `covidkg_repl_epoch` series).
    pub fn with_epoch(mut self, epoch: Epoch) -> ReadContext {
        self.epoch = Some(epoch);
        self
    }

    /// Current fencing epoch: the explicit handle when attached, else
    /// the highest epoch the shipping metrics have witnessed.
    fn current_epoch(&self) -> u64 {
        self.epoch
            .as_ref()
            .map(|e| e.get())
            .or_else(|| self.metrics.as_ref().map(|m| m.snapshot().epoch))
            .unwrap_or(0)
    }

    /// Write the replication section of the metrics page: the primary's
    /// watermark, this node's fencing epoch, each routable replica's
    /// applied sequence and lag, and, on the primary, the shipping
    /// counters.
    pub(crate) fn expose(&self, page: &mut Exposition) {
        page.series("repl_watermark", self.router.watermark());
        page.series("repl_epoch", self.current_epoch());
        let replicas = self.router.targets();
        page.series("repl_replicas", replicas.len());
        for (name, applied, lag) in &replicas {
            page.labelled("repl_replica_applied", "replica", name, applied);
            page.labelled("repl_replica_lag", "replica", name, lag);
        }
        if let Some(s) = self.metrics.as_ref().map(|m| m.snapshot()) {
            page.series("repl_bytes_shipped", s.bytes_shipped);
            page.series("repl_frames_shipped", s.frames_shipped);
            page.series("repl_batches_shipped", s.batches_shipped);
            page.series("repl_bytes_saved", s.bytes_saved);
            page.series("repl_snapshot_bootstraps", s.snapshot_bootstraps);
            page.series("repl_reconnects", s.reconnects);
            page.series("repl_fenced_sessions", s.fenced_sessions);
        }
    }
}

/// The ambient read-your-writes cookie. A routed 200 sets
/// `covidkg-session=<applied>.<epoch>`; a browser (or any cookie-jar
/// client) then floats every later read to at least the sequence it
/// last saw, without managing `X-Min-Seq` by hand.
const SESSION_COOKIE: &str = "covidkg-session";

/// Extract the applied-sequence half of the session cookie from a
/// `Cookie:` header, leniently: absent, malformed or foreign cookies
/// read as no floor at all (`None`) — an old or corrupt cookie must
/// never break a read.
fn cookie_min_seq(header: &str) -> Option<u64> {
    header.split(';').find_map(|part| {
        let (name, value) = part.split_once('=')?;
        if name.trim() != SESSION_COOKIE {
            return None;
        }
        // Value shape: `<applied>.<epoch>` (epoch informational).
        let applied = value.trim().split('.').next()?;
        applied.parse::<u64>().ok()
    })
}

/// What a parsed route asks for.
type Parsed = Result<Op<'static>, Response>;

/// How a route answers.
enum Target {
    /// A serve-layer op, answered through [`Server::request`], every 200
    /// built by [`respond`]. First the parser: the op asked for by the
    /// request and the path tail after the pattern. Then the 404 message
    /// when the op resolves to nothing, from the same path tail; `None`
    /// for ops that always yield a value.
    Op(
        fn(&Request, &str) -> Parsed,
        Option<fn(&Server, &str) -> String>,
    ),
    /// A page about the server itself.
    Page(fn(&Server, &WireStats, Option<&ReadContext>) -> Response),
}

/// One row of the route table.
pub(crate) struct Route {
    /// The path: matched whole, or as a prefix when it ends in `/`.
    pattern: &'static str,
    /// The lines `GET /` lists for this row.
    usage: &'static [&'static str],
    target: Target,
}

/// Every route but the `GET /` listing generated from it. Patterns do
/// not overlap, so listing order is also matching order.
const ROUTES: &[Route] = &[
    // `scoped` also accepts per-field `title`/`abstract`/`caption`
    // parameters, each defaulting to `q`. `semantic` and `hybrid` engage
    // the dense tier.
    Route {
        pattern: "/search/",
        usage: &[
            "/search/{all-fields|tables|scoped}?q=&page=&trust=",
            "/search/{semantic|hybrid}?q=&page=&trust=",
        ],
        target: Target::Op(parse_search, None),
    },
    // Bounded multi-hop traversal returning top-k ranked paths.
    Route {
        pattern: "/kg/query",
        usage: &["/kg/query?start=&steps=&fanout=&k=&trust="],
        target: Target::Op(parse_kg_query, None),
    },
    // The vaccine's incrementally materialized, epoch-stamped meta-profile.
    Route {
        pattern: "/kg/profile/",
        usage: &["/kg/profile/{vaccine}"],
        target: Target::Op(
            |_, vaccine| Ok(Op::KgProfile(vaccine.to_string().into())),
            Some(|_, vaccine| format!("no profile for vaccine {vaccine:?}")),
        ),
    },
    // One knowledge-graph node with its topology.
    Route {
        pattern: "/kg/node/",
        usage: &["/kg/node/{id}"],
        target: Target::Op(|_, id| Ok(Op::KgNode(node_id(id)?)), Some(no_node)),
    },
    // One KG node's provenance-trust document (score, prior, sources).
    Route {
        pattern: "/trust/node/",
        usage: &["/trust/node/{id}"],
        target: Target::Op(|_, id| Ok(Op::TrustNode(node_id(id)?)), Some(no_node)),
    },
    // One source venue's credibility document. The venue segment is
    // percent-decoded, so multi-word venues work.
    Route {
        pattern: "/trust/source/",
        usage: &["/trust/source/{venue}"],
        target: Target::Op(
            |_, venue| Ok(Op::TrustSource(percent_decode(venue).into())),
            Some(|_, venue| format!("no source venue {:?}", percent_decode(venue))),
        ),
    },
    // The trust-weighted bias interrogation report.
    Route {
        pattern: "/bias/report",
        usage: &["/bias/report"],
        target: Target::Op(|_, _| Ok(Op::BiasReport), None),
    },
    Route {
        pattern: "/stats",
        usage: &["/stats"],
        target: Target::Page(|server, _, _| stats(server)),
    },
    Route {
        pattern: "/metrics",
        usage: &["/metrics"],
        target: Target::Page(metrics_page),
    },
];

/// The usage line of every route, in listing order: what `GET /` and the
/// `covidkg serve` banner print.
pub fn usages() -> impl Iterator<Item = &'static str> {
    ROUTES.iter().flat_map(|r| r.usage).copied()
}

/// The pattern of every row answered by a serve-layer op: what
/// `covidkg smoke` must hold a target for.
pub fn op_patterns() -> impl Iterator<Item = &'static str> {
    ROUTES
        .iter()
        .filter(|r| matches!(r.target, Target::Op(..)))
        .map(|r| r.pattern)
}

impl Route {
    /// The path tail this route parses, when `path` is its.
    fn tail<'p>(&self, path: &'p str) -> Option<&'p str> {
        if self.pattern.ends_with('/') {
            path.strip_prefix(self.pattern)
        } else {
            (path == self.pattern).then_some("")
        }
    }
}

/// Resolve one request to a response. Never panics; unknown paths 404,
/// wrong methods 405, bad parameters 400. With a [`ReadContext`], every
/// op row is answered by a server the replica router picks, lag-aware and
/// read-your-writes, and `/metrics` carries the replication series.
///
/// The reactor routes a request on its own thread and finishes what that
/// leaves on a serve worker; this is the same two halves on one thread.
pub fn handle(server: &Server, wire: &WireStats, repl: Option<&ReadContext>, req: &Request) -> Response {
    match route(server, repl, req) {
        Routed::Answered(resp) => resp,
        Routed::Deferred(deferred) => deferred.finish(server, || wire.clone(), repl, req),
    }
}

/// What [`route`] makes of a request.
pub(crate) enum Routed {
    /// Answered on the spot: a route-level 400/404/405, the `GET /`
    /// listing, or a cache hit.
    Answered(Response),
    /// Left for [`Deferred::finish`].
    Deferred(Deferred),
}

/// What is left of a request once it is routed: everything that reads
/// the system, runs an engine or does I/O.
pub(crate) enum Deferred {
    /// A page about the server itself.
    Page(fn(&Server, &WireStats, Option<&ReadContext>) -> Response),
    /// An op and the row that renders its 404: with what its probe of
    /// this server worked out when the cache did not hold it, or unprobed
    /// under a [`ReadContext`], whose router picks the server (and may
    /// wait for one).
    Op(Op<'static>, Option<Miss>, &'static Route),
}

/// Route `req` once, on the thread that parsed it: answer what needs no
/// more than the route table and the cache, and defer the rest. Takes no
/// lock but a cache shard's.
pub(crate) fn route(server: &Server, repl: Option<&ReadContext>, req: &Request) -> Routed {
    if req.method != "GET" {
        return Routed::Answered(error_response(405, "only GET is supported"));
    }
    let path = req.path();
    if path == "/" {
        let endpoints = Value::Array(usages().map(Value::from).collect());
        return Routed::Answered(Response::json(
            200,
            obj! { "service" => "covidkg", "endpoints" => endpoints }.to_json(),
        ));
    }
    let Some((row, tail)) = ROUTES
        .iter()
        .find_map(|r| r.tail(path).map(|tail| (r, tail)))
    else {
        return Routed::Answered(error_response(404, "no such resource"));
    };
    let parse = match row.target {
        Target::Page(page) => return Routed::Deferred(Deferred::Page(page)),
        Target::Op(parse, _) => parse,
    };
    let op = match parse(req, tail) {
        Ok(op) => op,
        Err(resp) => return Routed::Answered(resp),
    };
    if repl.is_some() {
        return Routed::Deferred(Deferred::Op(op, None, row));
    }
    match server.probe(&op) {
        Ok(hit) => Routed::Answered(respond(hit, op.trusted())),
        Err(miss) => Routed::Deferred(Deferred::Op(op, Some(miss), row)),
    }
}

impl Deferred {
    /// Answer what [`route`] left of `req`, under the same `repl`. The
    /// wire counters are taken only if the route reads them (`/metrics`
    /// does): a snapshot locks the status map and clones it, and no op
    /// row looks at one.
    pub(crate) fn finish(
        self,
        server: &Server,
        wire: impl FnOnce() -> WireStats,
        repl: Option<&ReadContext>,
        req: &Request,
    ) -> Response {
        match self {
            Deferred::Page(page) => page(server, &wire(), repl),
            Deferred::Op(op, Some(miss), row) => {
                answer(server, server.compute_miss(&op, miss), &op, row, req)
            }
            Deferred::Op(op, None, row) => {
                let ctx = repl.expect("an op is deferred unprobed only under a ReadContext");
                routed_read(ctx, &op, row, req)
            }
        }
    }
}

/// The response to what `server` answered `op` with: the 200, the row's
/// 404 (naming what `server` holds), or the typed error's status.
fn answer(
    server: &Server,
    outcome: Result<Option<Reply>, ServeError>,
    op: &Op<'_>,
    row: &Route,
    req: &Request,
) -> Response {
    match outcome {
        Ok(Some(reply)) => respond(reply, op.trusted()),
        Ok(None) => match (&row.target, row.tail(req.path())) {
            (Target::Op(_, Some(message)), Some(tail)) => {
                error_response(404, &message(server, tail))
            }
            _ => error_response(404, "no such resource"),
        },
        Err(e) => serve_error_response(e),
    }
}

/// The one 200 for every op, fresh, cached or stale: the body is the
/// reply's shared entry, echoing this request's own query, and cache
/// metadata rides in headers, so the body never varies with cache
/// state. `trusted` flags the re-ranked variants, which were computed
/// that way.
fn respond(reply: Reply, trusted: bool) -> Response {
    let cache = match (reply.stale, reply.cached) {
        (true, _) => "stale",
        (false, true) => "hit",
        (false, false) => "miss",
    };
    let resp = Response::json(200, Body::new(reply.entry, reply.query.as_deref()))
        .with_header("X-Cache", cache)
        .with_header("X-Generation", reply.generation);
    if trusted {
        resp.with_header("X-Trust", "re-ranked")
    } else {
        resp
    }
}

/// `?q=&page=&trust=` of `/search/{engine}`; a page past `i64::MAX`
/// (a JSON body's largest integer) is served as that page.
fn parse_search(req: &Request, engine: &str) -> Parsed {
    let q = req.query_param("q").unwrap_or_default();
    let page = match req.query_param("page").as_deref() {
        None => 0,
        Some(p) => p
            .parse::<usize>()
            .map_err(|_| error_response(400, "page must be a non-negative integer"))?
            .min(i64::MAX as usize),
    };
    let trust = trust_knob(req)?;
    let lexical = |mode| Op::Search(Cow::Owned(mode), page, trust);
    Ok(match engine {
        "semantic" => Op::Dense(Cow::Owned(DenseMode::Semantic(q)), page, trust),
        "hybrid" => Op::Dense(Cow::Owned(DenseMode::Hybrid(q)), page, trust),
        "all-fields" => lexical(SearchMode::AllFields(q)),
        "tables" => lexical(SearchMode::Tables(q)),
        "scoped" => lexical(SearchMode::TitleAbstractCaption {
            title: req.query_param("title").unwrap_or_else(|| q.clone()),
            abstract_q: req.query_param("abstract").unwrap_or_else(|| q.clone()),
            caption: req.query_param("caption").unwrap_or_else(|| q.clone()),
        }),
        other => return Err(error_response(
            404,
            &format!(
                "unknown engine {other:?}: expected all-fields, tables, scoped, semantic or hybrid"
            ),
        )),
    })
}

/// `?start=&steps=[&fanout=][&k=][&trust=]` of `/kg/query`. `start` is
/// `term:<text>`, `kind:<root|category|entity>` or `node:<id>`; `steps`
/// is a comma-separated hop list `<child|parent|any|co>[:<kind>[:<paper>]]`.
/// `trust=1` swaps in the trust-re-ranked traversal; the default ranking
/// (and its cache entries) stays untouched when off.
fn parse_kg_query(req: &Request, _tail: &str) -> Parsed {
    let bound = |name: &str, default: usize, message: &str| match req.query_param(name) {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|_| error_response(400, message)),
    };
    let start = req.query_param("start").unwrap_or_default();
    let steps = req.query_param("steps").unwrap_or_default();
    let fanout = bound("fanout", 16, "fanout must be a non-negative integer")?;
    let k = bound("k", 10, "k must be a non-negative integer")?;
    let plan = QueryPlan::parse(&start, &steps, fanout, k).map_err(|e| error_response(400, &e))?;
    Ok(Op::KgQuery(Cow::Owned(plan), trust_knob(req)?))
}

/// The `{id}` tail of `/kg/node/` and `/trust/node/`.
fn node_id(tail: &str) -> Result<usize, Response> {
    tail.parse()
        .map_err(|_| error_response(400, "node id must be a non-negative integer"))
}

/// The 404 of the two node routes, naming the id as it was looked up.
fn no_node(server: &Server, tail: &str) -> String {
    let id = tail.parse::<usize>().unwrap_or_default();
    let len = server.with_system(|system| system.kg().len());
    format!("no node {id} (graph has {len})")
}

/// An op under a [`ReadContext`]: `X-Min-Seq` (header) or `min_seq`
/// (query parameter) demands read-your-writes — the response comes from
/// a target that has applied at least that sequence, or 503. The target
/// answers the op on its own request path, so the body is its own bytes.
fn routed_read(ctx: &ReadContext, op: &Op<'_>, row: &Route, req: &Request) -> Response {
    let min_seq_raw = req
        .header("x-min-seq")
        .map(|v| v.to_string())
        .or_else(|| req.query_param("min_seq"));
    let explicit_min_seq = match min_seq_raw.map(|v| v.trim().parse::<u64>()) {
        None => 0,
        Some(Ok(seq)) => seq,
        Some(Err(_)) => return error_response(400, "X-Min-Seq must be a non-negative integer"),
    };
    // The session cookie carries the client's ambient high-water mark;
    // the effective floor is the max of both tokens, so an explicit
    // X-Min-Seq still wins when it demands more.
    let cookie_floor = req.header("cookie").and_then(cookie_min_seq).unwrap_or(0);
    let min_seq = explicit_min_seq.max(cookie_floor);
    let (target, info) = match ctx.router.route(min_seq, ctx.ryw_deadline) {
        Ok(picked) => picked,
        Err(RouteError::NotCaughtUp { wanted, best }) => {
            return error_response(
                503,
                &format!("no replica caught up to sequence {wanted} (best applied: {best})"),
            )
            .with_header("Retry-After", "1")
            .with_header("X-Applied-Seq", best)
        }
    };
    let resp = answer(&target, target.request(op), op, row, req);
    if resp.status != 200 {
        return resp;
    }
    resp.with_header("X-Served-By", info.replica)
        .with_header("X-Replica-Lag", info.lag)
        .with_header("X-Applied-Seq", info.applied)
        .with_header(
            "Set-Cookie",
            format!("{SESSION_COOKIE}={}.{}; Path=/", info.applied, ctx.current_epoch()),
        )
}

/// Parse the `trust=` re-rank knob, shared by `/search/*` and
/// `/kg/query`. Off by default: absent or `0` leaves the default
/// ranking (and its byte-identical wire contract) untouched.
fn trust_knob(req: &Request) -> Result<bool, Response> {
    match req.query_param("trust").as_deref() {
        None | Some("") | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(_) => Err(error_response(400, "trust must be 0 or 1")),
    }
}

/// Map the scheduler's typed backpressure errors onto wire statuses.
pub fn serve_error_response(e: ServeError) -> Response {
    match e {
        ServeError::Overloaded => error_response(503, "server overloaded: request queue full")
            .with_header("Retry-After", "1"),
        ServeError::DeadlineExceeded => error_response(504, "search missed its deadline"),
        ServeError::Degraded => {
            error_response(503, "engine degraded and no cached page available")
                .with_header("Retry-After", "1")
        }
        ServeError::Closed => error_response(503, "server is shutting down"),
    }
}

/// `GET /metrics` — wire counters, the serve histogram, the replication
/// series under a [`ReadContext`], and the engine series.
fn metrics_page(server: &Server, wire: &WireStats, repl: Option<&ReadContext>) -> Response {
    Response::text(200, metrics::page(server, wire, &server.stats(), repl))
}

/// `GET /stats` — storage + KG + serving summary as JSON.
fn stats(server: &Server) -> Response {
    let (db, kg_nodes) = server.with_system(|system| (system.stats(), system.kg().len()));
    let serve = server.stats();
    let collections = Value::Array(
        db.collections
            .iter()
            .map(|c| {
                obj! {
                    "name" => c.name.as_str(),
                    "docs" => c.docs,
                    "bytes" => c.bytes,
                    "indexed_terms" => c.indexed_terms,
                    "shards" => c.shards.len(),
                }
            })
            .collect(),
    );
    Response::json(
        200,
        obj! {
            "generation" => server.generation() as i64,
            "documents" => db.total_docs(),
            "dataset_bytes" => db.total_bytes(),
            "collections" => collections,
            "kg_nodes" => kg_nodes,
            "serve" => obj! {
                "requests" => serve.total_requests() as i64,
                "completed" => serve.completed as i64,
                "cache_hits" => serve.cache_hits as i64,
                "cache_misses" => serve.cache_misses as i64,
                "overloaded" => serve.overloaded as i64,
                "degraded" => serve.degraded as i64,
            },
        }
        .to_json(),
    )
}

/// A JSON error body `{"error": ...}` with the given status.
pub fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, obj! { "error" => message }.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Parser;

    fn get(server: &Server, target: &str) -> Response {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
        let req = Parser::new()
            .feed(raw.as_bytes())
            .unwrap()
            .expect("one whole request");
        handle(server, &WireStats::default(), None, &req)
    }

    /// `GET /` lists the same ten endpoints it always has, every one of
    /// them resolves (with each `{a|b}` alternative, and real names for
    /// the other placeholders) and no table row goes unlisted.
    #[test]
    fn listing_is_the_route_table() {
        let system = covidkg_core::CovidKg::build(covidkg_core::CovidKgConfig {
            corpus_size: 24,
            max_training_rows: 50,
            ..Default::default()
        })
        .unwrap();
        let vaccine = system
            .profiles()
            .first()
            .expect("a profile")
            .vaccine
            .clone();
        let venue = system
            .trust_store()
            .venues()
            .next()
            .expect("a venue")
            .replace(' ', "+");
        let server = Server::start(system, covidkg_serve::ServeConfig::default());

        let listing =
            covidkg_json::parse(&String::from_utf8(get(&server, "/").body.to_vec()).unwrap())
                .unwrap();
        let listed: Vec<&str> = match listing.get("endpoints") {
            Some(Value::Array(items)) => items.iter().filter_map(Value::as_str).collect(),
            other => panic!("endpoints: {other:?}"),
        };
        assert_eq!(
            listed,
            [
                "/search/{all-fields|tables|scoped}?q=&page=&trust=",
                "/search/{semantic|hybrid}?q=&page=&trust=",
                "/kg/query?start=&steps=&fanout=&k=&trust=",
                "/kg/profile/{vaccine}",
                "/kg/node/{id}",
                "/trust/node/{id}",
                "/trust/source/{venue}",
                "/bias/report",
                "/stats",
                "/metrics",
            ]
        );
        assert!(
            ROUTES.iter().all(|r| !r.usage.is_empty()),
            "every row is listed"
        );

        for usage in listed {
            let path = usage.split('?').next().unwrap();
            let targets: Vec<String> = match path.split_once('{') {
                None => vec![path.to_string()],
                Some((prefix, hole)) => match hole.trim_end_matches('}') {
                    "id" => vec![format!("{prefix}0")],
                    "vaccine" => vec![format!("{prefix}{vaccine}")],
                    "venue" => vec![format!("{prefix}{venue}")],
                    alternatives => alternatives
                        .split('|')
                        .map(|a| format!("{prefix}{a}?q=vaccine"))
                        .collect(),
                },
            };
            for target in targets {
                let resp = get(&server, &target);
                let expected = if path == "/kg/query" { 400 } else { 200 };
                assert_eq!(
                    resp.status,
                    expected,
                    "{target}: {}",
                    String::from_utf8_lossy(&resp.body.to_vec())
                );
            }
        }
        assert_eq!(get(&server, "/search/bogus").status, 404);
        assert_eq!(get(&server, "/kg/node/999999").status, 404);
        assert_eq!(get(&server, "/nowhere").status, 404);
        server.shutdown();
    }

    /// No op row reads the wire counters, so answering one takes no
    /// snapshot (a lock and a map clone); a page row takes exactly one.
    #[test]
    fn op_requests_take_no_wire_snapshot() {
        let system = covidkg_core::CovidKg::build(covidkg_core::CovidKgConfig {
            corpus_size: 24,
            max_training_rows: 50,
            ..Default::default()
        })
        .unwrap();
        let server = Server::start(system, covidkg_serve::ServeConfig::default());
        let snapshots = std::cell::Cell::new(0);
        let get = |target: &str| {
            let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
            let req = Parser::new().feed(raw.as_bytes()).unwrap().unwrap();
            let wire = || {
                snapshots.set(snapshots.get() + 1);
                WireStats::default()
            };
            match route(&server, None, &req) {
                Routed::Answered(resp) => resp.status,
                Routed::Deferred(deferred) => deferred.finish(&server, wire, None, &req).status,
            }
        };
        let targets = [
            "/search/all-fields?q=vaccine",
            "/search/hybrid?q=vaccine&trust=1",
            "/kg/query?start=kind:category&steps=child",
            "/kg/node/0",
            "/trust/node/0",
            "/bias/report",
            "/kg/node/999999",
            "/search/bogus",
            "/nowhere",
            "/",
        ];
        for i in 0..100 {
            let target = targets[i % targets.len()];
            let status = get(target);
            assert!(matches!(status, 200 | 404), "{target}: {status}");
        }
        assert_eq!(snapshots.get(), 0);
        assert_eq!(get("/metrics"), 200);
        assert_eq!(snapshots.get(), 1);
        server.shutdown();
    }

    #[test]
    fn session_cookie_parses_leniently() {
        assert_eq!(cookie_min_seq("covidkg-session=42.3"), Some(42));
        assert_eq!(
            cookie_min_seq("theme=dark; covidkg-session=17.0; lang=en"),
            Some(17),
            "finds the session cookie among others"
        );
        assert_eq!(
            cookie_min_seq(" covidkg-session = 9.1 "),
            Some(9),
            "whitespace around name and value is tolerated"
        );
        assert_eq!(cookie_min_seq("covidkg-session=garbage.2"), None);
        assert_eq!(cookie_min_seq("covidkg-session="), None);
        assert_eq!(cookie_min_seq("other=1.2"), None);
        assert_eq!(cookie_min_seq(""), None);
    }
}
