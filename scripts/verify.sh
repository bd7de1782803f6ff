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

echo "==> search equivalence property tests (postings-driven pages vs the tokenizing oracles)"
cargo test -p covidkg-search --test equivalence --test postings_oracle --offline -q

# The benchmark is a package of its own that no PR may edit: its smoke is
# the only thing that notices when a program change breaks its build or
# its byte-for-byte body check.
echo "==> benchmark smoke (builds against this tree, every reply byte-checked)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> chaos gauntlet (deterministic seed, scaled-down storm)"
./target/release/covidkg chaos --seed 42 --corpus 12 --faults 40 \
    --clients 3 --requests 8 --workers 2

echo "==> serve-bench open-loop smoke (fixed arrival rate)"
./target/release/covidkg serve-bench --corpus 20 --clients 2 --requests 10 \
    --workers 2 --open-loop --rates 200,400 --duration-ms 250

echo "==> HTTP parser property tests (incl. one-byte split reads)"
cargo test -p covidkg-net --test parser_prop --offline -q

echo "==> reactor regression suite (1000 idle conns, pipelining, churn, threaded parity)"
cargo test -p covidkg-net --test reactor_e2e --offline -q

echo "==> protocol regression suite on the reactor path (slowloris 408, 431/413/400, drain)"
cargo test -p covidkg-net --test wire_e2e --offline -q

echo "==> EXPERIMENTS.md wire tables regenerate from the committed BENCH_net.json"
./target/release/covidkg net-table
grep -q '<!-- net-table:begin -->' EXPERIMENTS.md
grep -q '<!-- conn-table:begin -->' EXPERIMENTS.md

# A scaled-down run must not replace the committed full-scale report.
echo "==> wire smoke: TCP end-to-end with the in-repo client (no curl)"
mkdir -p target/verify
./target/release/covidkg net-bench --corpus 16 --clients 2 --requests 10 \
    --workers 2 --rates 100,300 --duration-ms 250 --connections 32,128 \
    --out target/verify/BENCH_net.json
test -s target/verify/BENCH_net.json

echo "==> replication smoke: WAL shipping, checksum convergence, read-your-writes"
./target/release/covidkg repl-smoke --corpus 16 --seed 7

echo "==> failover property test (random kill points, election + fencing)"
cargo test -p covidkg-repl --test failover_prop --offline -q

echo "==> ANN recall property tests (HNSW vs brute-force oracle)"
cargo test -p covidkg-ann --test recall_prop --offline -q

echo "==> ANN smoke: dense-tier recall + wire byte-identity over TCP"
./target/release/covidkg ann-smoke --corpus 32

echo "==> EXPERIMENTS.md ANN table regenerates from the committed BENCH_ann.json"
./target/release/covidkg ann-table
grep -q '<!-- ann-table:begin -->' EXPERIMENTS.md

echo "==> KG equivalence property tests (engine vs DFS oracle, incremental vs full rebuild)"
cargo test -p covidkg-kg --test query_prop --offline -q

echo "==> KG smoke: query/profile/node wire byte-identity + cache headers over TCP"
./target/release/covidkg kg-smoke --corpus 48

echo "==> EXPERIMENTS.md KG table regenerates from the committed BENCH_kg.json"
./target/release/covidkg kg-table
grep -q '<!-- kg-table:begin -->' EXPERIMENTS.md

echo "==> trust equivalence property tests (incremental vs full rebuild, prior ledger)"
cargo test -p covidkg-trust --test trust_prop --offline -q

echo "==> derived-view driver property test (advance vs rebuild over a real collection)"
cargo test -p covidkg-core --test views_prop --offline -q

echo "==> trust smoke: trust/bias wire byte-identity + re-rank knob over TCP"
./target/release/covidkg trust-smoke --corpus 48

echo "==> EXPERIMENTS.md trust table regenerates from the committed BENCH_trust.json"
./target/release/covidkg trust-table
grep -q '<!-- trust-table:begin -->' EXPERIMENTS.md

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
        rustfmt --edition 2021 --emit stdout --quiet <"$f" 2>/dev/null || cat "$f"
    done)
    echo "==> the same, rustfmt-normalized: $(echo "$normalized" | wc -l)"
    echo "==> the same, outside #[cfg(test)] modules: $(echo "$normalized" | awk '
        skip { if ($0 == "}") skip = 0; next }
        held { held = 0; if ($0 ~ /^mod [a-z_]+ \{$/) { skip = 1; next } print "#[cfg(test)]" }
        $0 == "#[cfg(test)]" { held = 1; next }
        { print }' | wc -l)"
fi

echo "==> verify OK"
