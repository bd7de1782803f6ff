#!/usr/bin/env sh
# Offline verification: the whole workspace must build, test and (when
# clippy is installed) lint with the network disabled. This is the
# hermeticity gate — a crates.io dependency sneaking into any manifest
# fails resolution here immediately.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --offline -q (tier-1: root package)"
cargo test --offline -q

echo "==> cargo test --workspace --offline -q"
cargo test --workspace --offline -q

echo "==> one request path: every op row meets its class breaker, every op row routes to a replica, a page past the end is empty"
cargo test -p covidkg-serve --test op_policies --offline -q
cargo test -p covidkg-net --test routed_wire --test page_bounds --offline -q

echo "==> search equivalence property tests (postings-driven pages vs the tokenizing oracles; merged index candidates vs a full scan; the render cache under concurrent writes; a search's allocations pinned)"
cargo test -p covidkg-search --test equivalence --test postings_oracle --offline -q
cargo test -p covidkg-store --test candidates_prop --offline -q
cargo test -p covidkg-search --test render_cache_threads --test search_allocs --offline -q

echo "==> splice property test (every reply under a cache key vs re-rendering a page with its own query)"
cargo test -p covidkg-net --test splice_prop --offline -q

echo "==> JSON writer byte oracle (escape/integer kernel vs the char-by-char and write! references)"
cargo test -p covidkg-json --test proptest_roundtrip --offline -q

echo "==> search body parity property test (SearchPage::to_body vs to_json().to_json(), echo range)"
cargo test -p covidkg-search --test body_parity --offline -q

echo "==> KG query body parity and allocation count (both /kg/query writers vs their Value oracles, one buffer each)"
cargo test -p covidkg-kg --test body_parity --offline -q
cargo test -p covidkg-core --test kg_body_allocs --offline -q

echo "==> set-up oracles (SMO and word2vec bytes vs their full-scan references, indexes after every insert, replace and in-place edit vs a fresh build)"
cargo test -p covidkg-ml --lib --offline -q -- \
    svm::tests::smo_matches_the_full_scan_reference_bit_for_bit \
    word2vec::tests::training_passes_match_the_reference_byte_for_byte
cargo test -p covidkg-store --test index_prop --offline -q

# The benchmark is a package of its own that no PR may edit: its smoke is
# the only thing that notices when a program change breaks its build or
# its byte-for-byte body check.
echo "==> benchmark smoke (builds against this tree, every reply byte-checked)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The smoke runs every workload at a few blocks; a full-length run is
# what the benchmark is judged on, and only it meets the run length, the
# corpus and the open-loop rates a change can break.
for workload in search-cold graph-cold wire-hot mixed-ingest; do
    echo "==> benchmark, full length, untraced: $workload (seed 1)"
    result=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 | tail -n 1)
    case "$result" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *) echo "benchmark $workload did not end correct with 0 failed: $result" >&2; exit 1 ;;
    esac
done

echo "==> chaos gauntlet (deterministic seed, scaled-down storm)"
./target/release/covidkg chaos --seed 42 --corpus 12 --faults 40 \
    --clients 3 --requests 8 --workers 2

echo "==> HTTP parser property tests (incl. one-byte split reads)"
cargo test -p covidkg-net --test parser_prop --offline -q

echo "==> reactor regression suite (1000 idle conns, pipelining, churn, stalled readers)"
cargo test -p covidkg-net --test reactor_e2e --offline -q

echo "==> one queue on the wire (burst past the bound, hits while every worker is held, inline/queued order, hit/miss accounting)"
cargo test -p covidkg-net --test one_queue --offline -q

echo "==> protocol regression suite on the reactor path (slowloris 408, 431/413/400, drain)"
cargo test -p covidkg-net --test wire_e2e --offline -q

echo "==> thread count (one stack, store included, is one reactor plus the serve workers)"
cargo test -p covidkg-net --test thread_count --offline -q

echo "==> hit path pinned by counts (allocations per op row: parse / handle / write, no body copy)"
cargo test -p covidkg-net --test hit_allocs --offline -q

# The paper's E1-E8 at their documented sizes: the run fails when a shape
# check misses or when a member that is not a time, a rate or a speedup
# differs from the committed BENCH_paper.json.
echo "==> paper claims E1-E8: shape checks + drift from BENCH_paper.json"
mkdir -p target/verify
./target/release/covidkg bench paper --out target/verify/BENCH_paper.json

# The committed tables must already be what the committed artefacts
# render to: regenerating them may not change the tracked document.
echo "==> EXPERIMENTS.md tables are what the committed BENCH_*.json render to"
./target/release/covidkg table
git diff --exit-code -- EXPERIMENTS.md

# A scaled-down run cannot write the committed artefact: it must be
# given --out.
echo "==> held-connection sweep smoke: TCP end-to-end with the in-repo client (no curl)"
./target/release/covidkg bench net --corpus 16 --workers 2 --connections 32,128 \
    --out target/verify/BENCH_net.json
test -s target/verify/BENCH_net.json

echo "==> wire smoke: every op route over TCP byte-identical to in-process, recall floor, trust knob"
./target/release/covidkg smoke --corpus 48

echo "==> replication smoke: WAL shipping, checksum convergence, read-your-writes"
./target/release/covidkg repl-smoke --corpus 16 --seed 7

echo "==> failover property test (random kill points, election + fencing)"
cargo test -p covidkg-repl --test failover_prop --offline -q

echo "==> ANN recall property tests (HNSW vs brute-force oracle)"
cargo test -p covidkg-ann --test recall_prop --offline -q

echo "==> KG equivalence property tests (served executor vs DFS oracle, counters included; provenance indexes vs string scan; incremental vs full rebuild)"
cargo test -p covidkg-kg --test query_prop --test proptest_kg --offline -q

echo "==> trust equivalence property tests (incremental vs full rebuild, prior ledger)"
cargo test -p covidkg-trust --test trust_prop --offline -q

echo "==> derived-view driver property test (advance vs rebuild over a real collection)"
cargo test -p covidkg-core --test views_prop --offline -q

echo "==> benchmark set-up floor (the benchmark's corpus has every KG and trust node its warm-up requests)"
cargo test -p covidkg-net --test bench_floor --offline -q

echo "==> ingest oracle (after every one-publication ingest, update or delete: served trust, profile, bias and trusted-query bodies vs a twin rebuilt from scratch; one write per publication; the build's graph vs fusing in the store's scan order)"
cargo test -p covidkg-core --test ingest_oracle --offline -q -- ingest_views_equal_a_rebuilt_twin_after_every_step --exact
cargo test -p covidkg-core --lib --offline -q -- --exact \
    system::tests::each_publication_is_written_once \
    system::tests::a_durable_ingest_logs_one_enriched_insert_per_publication \
    system::tests::the_build_fuses_in_the_store_scan_order

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets --offline"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

# The three numbers CHANGES.md rows quote before/after: the tracked Rust
# under crates/*/src and src (tests/ directories and benchmark/ excluded),
# raw; the same with every file run through rustfmt first, so a change
# cannot move it by wrapping lines differently; and that again without
# the in-file `#[cfg(test)] mod … { … }` blocks, so tests an issue asks
# for do not count against the code they test.
rust_files=$(git ls-files -- 'crates/*/src/*.rs' 'src/*.rs')
echo "==> Rust lines under crates/*/src + src: $(echo "$rust_files" | xargs cat | wc -l)"
if rustfmt --version >/dev/null 2>&1; then
    normalized=$(for f in $rust_files; do
        rustfmt --edition 2021 --emit stdout --quiet <"$f" 2>/dev/null || {
            echo "==> rustfmt rejected $f: counted unformatted" >&2
            cat "$f"
        }
    done)
    # printf, not echo: sh's echo may expand the backslash escapes in Rust
    # string literals (`\n`) into line breaks, which would count them.
    echo "==> the same, rustfmt-normalized: $(printf '%s\n' "$normalized" | wc -l)"
    echo "==> the same, outside #[cfg(test)] modules: $(printf '%s\n' "$normalized" | awk '
        skip { if ($0 == "}") skip = 0; next }
        held { held = 0; if ($0 ~ /^mod [a-z_]+ \{$/) { skip = 1; next } print "#[cfg(test)]" }
        $0 == "#[cfg(test)]" { held = 1; next }
        { print }' | wc -l)"
fi

echo "==> verify OK"
