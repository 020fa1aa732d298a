#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml, plus the static analyzer over
# the example workloads. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --release (every test in every crate)"
cargo test --workspace --release

echo "==> csqp-check: random sweep + optimizer traces + negative fixtures"
cargo run --release --bin csqp-check -- --plans 1000

echo "==> csqp-check: example workloads (more servers, alternate seeds)"
cargo run --release --bin csqp-check -- --plans 250 --servers 4 --seed 17
cargo run --release --bin csqp-check -- --plans 250 --servers 8 --seed 42

echo "==> csqp-lint: source-level determinism lints"
cargo run --release -p csqp-lint --bin csqp-lint

echo "==> csqp-check --protocol: exhaustive session-protocol model check"
cargo run --release --bin csqp-check -- --protocol
cargo run --release --bin csqp-check -- --protocol --depth 12

echo "==> csqp-check --system: composed-system model check (budgeted)"
cargo run --release --bin csqp-check -- --system --sessions 3 --depth 10 --budget-secs 5

echo "==> mutant suite: seeded bugs must be caught with minimal traces"
cargo test --release -p csqp-verify mutant

echo "==> serve-smoke: 2-second loopback load against csqp-serve"
cargo run --release --bin csqp-load -- --serve --clients 8 --seconds 2 --fail-on-rejects

echo "==> memo-smoke: memo on/off digest equality + hits over loopback"
cargo run --release --bin csqp-load -- --memo-smoke --clients 4

echo "==> memo-bench: seeded cold/warm planning suite (>=5x regression gate)"
cargo run --release -p csqp-bench --bin csqp-bench -- --min-speedup 5

echo "==> csqp-check --memo: memo-consistency pass over a populated table"
cargo run --release --bin csqp-check -- --memo

echo "==> csqp-check --bounds: bound-soundness wall + seeded mutants"
cargo run --release --bin csqp-check -- --bounds

echo "==> bounds mutant tests in the analyzer crate"
cargo test --release -p csqp-verify bounds

echo "==> mem-budget smoke: budget-starved serving == honest all-QS digests"
cargo run --release --bin csqp-load -- --serve --mem-budget 300 --clients 2 --queries 6 --seed 42

echo "==> sim-bench: pinned simulator events/sec gate (BENCH_sim.json)"
cargo run --release -p csqp-bench --bin csqp-bench -- --sim --min-events-per-sec 1000000

echo "==> chaos-smoke: seeded fault-injection soak (digest must reproduce)"
for seed in 1 2 3 5 8 13 21 34; do
  cargo run --release --bin csqp-load -- --serve --chaos "$seed" --schedules 2 --chaos-queries 10 --intensity 0.5
done

echo "==> pipeline-smoke: pipelined digest equality + chaos on one server"
cargo run --release --bin csqp-load -- --serve --pipeline 8 --chaos 13 --clients 4 --queries 6 --schedules 2 --chaos-queries 10 --intensity 0.5

echo "==> reply-fault smoke: server-side reply truncation/corruption soak"
cargo run --release --bin csqp-load -- --serve --chaos 21 --reply-faults --schedules 2 --chaos-queries 10 --intensity 0.6

echo "==> idle-session scale: poll at 2,000 sessions + the epoll wall"
cargo test --release -p csqp-serve --test scale -- --ignored

echo "==> reactor-matrix: serve suites pinned to each backend"
for reactor in poll epoll; do
  CSQP_REACTOR="$reactor" cargo test --release -p csqp-serve \
    --test equivalence --test chaos --test pipeline --test memo
done

echo "==> bench-reactor: idle+active run per backend (BENCH_reactor.json)"
cargo run --release --bin csqp-load -- --serve --bench-reactor --clients 4 --queries 32 --seed 42 --min-qps 25

echo "==> csqp-check --catalog: catalog drift state machine + seeded mutants"
cargo run --release --bin csqp-check -- --catalog

echo "==> catalog-chaos: stale-catalog fault soaks across fresh servers"
for seed in 7 13 21 34; do
  cargo run --release --bin csqp-load -- --serve --chaos "$seed" --catalog-faults --schedules 2 --chaos-queries 12 --intensity 0.6
done

echo "==> bench-serve: pinned closed-loop QPS/latency gate (BENCH_serve.json)"
cargo run --release --bin csqp-load -- --serve --bench-serve --clients 4 --queries 64 --seed 42 --min-qps 25

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "All checks passed."
