//! What one serving stack costs in threads: the reactor, and the serve
//! layer's `workers` — no second pool, in the store or anywhere else.
//! Counted from before the system is built, so whatever the build starts
//! and leaves running shows up. Alone in its binary, so no other test's
//! threads come and go while it counts.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_net::{HttpServer, NetConfig};
use covidkg_serve::{ServeConfig, Server};
use std::sync::Arc;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn one_stack_is_one_reactor_plus_the_workers() {
    let before = threads();
    let system = CovidKg::build(CovidKgConfig {
        corpus_size: 12,
        max_training_rows: 200,
        ..CovidKgConfig::default()
    })
    .unwrap();
    let workers = 3;
    let serve = Arc::new(Server::start(system, ServeConfig { workers, ..ServeConfig::default() }));
    let mut http = HttpServer::start(Arc::clone(&serve), NetConfig::default()).unwrap();
    assert_eq!(threads() - before, 1 + workers);
    http.shutdown();
    serve.shutdown();
    assert_eq!(threads(), before);
}
