//! The wire benchmark's set-up floor, as a named test.
//!
//! The benchmark (`benchmark/`) builds its system over the first 240
//! publications of seed 2023 with the default configuration, then warms
//! up by requesting `/kg/node/{0..39}` and `/trust/node/{0..39}`
//! (`NODE_IDS = 40` in `benchmark/src/ops.rs`). Any status other than
//! 200 there makes the benchmark exit without a result. So a change to
//! the models, the fusion or the corpus that leaves that graph with
//! fewer than 40 nodes fails here first, by name.

use covidkg_core::{CovidKg, CovidKgConfig};
use covidkg_corpus::CorpusGenerator;
use covidkg_net::{router, Parser, WireStats};
use covidkg_serve::{ServeConfig, Server};

/// Publications the benchmark's system is built over.
const CORPUS: usize = 240;
/// The benchmark's corpus seed.
const SEED: u64 = 2023;
/// Node ids the benchmark's warm-up and hot set request.
const NODE_IDS: usize = 40;

#[test]
fn the_benchmark_corpus_answers_every_warm_up_node() {
    // The generator is sequential: the first 240 publications of a longer
    // run, which is what the benchmark takes, are these.
    let corpus = CorpusGenerator::with_size(CORPUS, SEED).generate();
    let config = CovidKgConfig {
        corpus_size: corpus.len(),
        ..CovidKgConfig::default()
    };
    let system = CovidKg::build_from(config, &corpus).unwrap();
    let nodes = system.kg().len();
    assert!(nodes >= NODE_IDS, "{nodes} KG nodes, the benchmark asks for {NODE_IDS}");
    let server = Server::start(system, ServeConfig::default());
    for id in 0..NODE_IDS {
        for target in [format!("/kg/node/{id}"), format!("/trust/node/{id}")] {
            let raw = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
            let req = Parser::new()
                .feed(raw.as_bytes())
                .unwrap()
                .expect("one whole request");
            let resp = router::handle(&server, &WireStats::default(), None, &req);
            assert_eq!(resp.status, 200, "{target} of a {nodes}-node graph");
        }
    }
}
