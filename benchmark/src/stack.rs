//! The program under test, stood up exactly as `covidkg serve` does:
//! a `CovidKg` behind `serve::Server` behind `net::HttpServer`, all with
//! their default configurations.

use crate::ops::{Call, Inputs, Op};
use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpClient, HttpServer, NetConfig};
use covidkg_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Stack {
    pub server: Arc<Server>,
    pub http: HttpServer,
}

/// Where one set-up's time went.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub build_from_s: f64,
    pub server_start_ms: f64,
    pub warmup_ms: f64,
    /// Steal ticks of all vCPUs during the set-up.
    pub steal_ticks: f64,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    pub fn connect(&self) -> std::io::Result<HttpClient> {
        HttpClient::connect(self.addr(), CLIENT_TIMEOUT)
    }

    pub fn shut_down(mut self) {
        self.http.shutdown();
        self.server.shutdown();
    }
}

/// One full set-up: build the system over the corpus, start both
/// servers, request every warm-up target once. Corpus generation is
/// input generation and happened before.
pub fn set_up(inputs: &Inputs) -> Result<(Stack, SetupTimes), String> {
    let steal0 = crate::metrics::steal_ticks();
    let t0 = Instant::now();
    let config = CovidKgConfig {
        corpus_size: inputs.corpus.len(),
        ..CovidKgConfig::default()
    };
    let system =
        CovidKg::build_from(config, &inputs.corpus).map_err(|e| format!("build_from: {e}"))?;
    let t1 = Instant::now();
    let server = Arc::new(Server::start(system, ServeConfig::default()));
    let http = HttpServer::start(Arc::clone(&server), NetConfig::default())
        .map_err(|e| format!("HttpServer::start: {e}"))?;
    let stack = Stack { server, http };
    let t2 = Instant::now();
    let mut client = stack.connect().map_err(|e| format!("connect: {e}"))?;
    for op in &inputs.warmup {
        let resp = client
            .get(&op.target)
            .map_err(|e| format!("warm-up {}: {e}", op.target))?;
        if resp.status != 200 {
            return Err(format!("warm-up {} answered {}", op.target, resp.status));
        }
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        total_s: (t3 - t0).as_secs_f64(),
        build_from_s: (t1 - t0).as_secs_f64(),
        server_start_ms: (t2 - t1).as_secs_f64() * 1e3,
        warmup_ms: (t3 - t2).as_secs_f64() * 1e3,
        steal_ticks: crate::metrics::steal_ticks() - steal0,
    };
    Ok((stack, times))
}

/// The configurations in force, for the result's provenance.
pub fn config_strings() -> (String, String) {
    (
        format!("{:?}", ServeConfig::default()),
        format!("{:?}", NetConfig::default()),
    )
}

/// The body the wire must carry for `op`: the same serialisation
/// `net::router` and the serve workers apply, run straight on the
/// system. `None` for an ingest or a target the system does not have.
pub fn expected_body(system: &CovidKg, op: &Op) -> Option<String> {
    match &op.call {
        Call::Lexical(mode, page) => Some(system.search(mode, *page).to_json().to_json()),
        Call::Dense(mode, page) => Some(system.search_dense(mode, *page).to_json().to_json()),
        Call::KgQuery(plan) => Some(system.kg_query(plan).to_json().to_json()),
        Call::KgQueryTrust(plan) => Some(system.kg_query_trusted(plan).to_json()),
        Call::KgProfile(v) => system.kg_profile(v).map(|d| d.to_json()),
        Call::KgNode(id) => system.kg_node(*id).map(|d| d.to_json()),
        Call::TrustNode(id) => system.trust_node(*id).map(|d| d.to_json()),
        Call::TrustSource(v) => system.trust_source(v).map(|d| d.to_json()),
        Call::BiasReport => Some(system.bias_document().to_json()),
        Call::Ingest(_) => None,
    }
}
