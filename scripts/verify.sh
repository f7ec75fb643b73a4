#!/usr/bin/env bash
# Full offline verification: tier-1 (build + workspace tests) plus the
# fault-injection chaos suite and the determinism regression. Runs with no
# network access — the workspace has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== formatting =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release --offline

echo "== sslint (determinism & hygiene audit) =="
# The release build above produced the binary; any finding exits 1 and
# fails verify.
target/release/sslint

echo "== sslint: trace-coverage obligation is in force =="
# Every entry of the trace_events! table in crates/simnet/src/trace.rs
# must keep an emit site and an oracle/test reference; the trace-coverage
# rule is what obliges it. Fail loudly if the rule ever drops out of the
# catalogue.
# (plain grep, not -q: -q closes the pipe on the first match, which the
# emitter sees as a broken-pipe write error)
cargo run -q -p sslint --release --offline -- --list-rules | grep '^trace-coverage' > /dev/null \
    || { echo "verify: sslint trace-coverage rule missing" >&2; exit 1; }

echo "== sslint: sync-shim obligation is in force =="
# The sync-shim rule is what makes every lock, atomic and spawn in the
# workspace reachable by the ssmc schedule explorer (`util::sync` is the
# only sanctioned std::sync/std::thread naming site). Fail loudly if it
# ever drops out of the catalogue.
cargo run -q -p sslint --release --offline -- --list-rules | grep '^sync-shim' > /dev/null \
    || { echo "verify: sslint sync-shim rule missing" >&2; exit 1; }

echo "== tier-1: workspace tests =="
cargo test -q --offline

echo "== chaos suite (fault injection, release) =="
cargo test -q --offline --release -p softstage-suite --test chaos --test determinism

echo "== scheduler differential suite (wheel vs its (at, seq) contract, release) =="
# Property tests drive the timer wheel and a BTreeMap keyed by (at, seq)
# through the same push/pop/peek sequences (equal-timestamp bursts,
# far-future overflow, pop limits, fleet-shaped periodic ticks), asserting
# identical dispatch order throughout.
cargo test -q --offline --release -p simnet --test sched_diff

echo "== allocation regression (counting allocator, release) =="
# Steady-state transmit/deliver must stay at zero heap ops per event.
cargo test -q --offline --release -p softstage-bench --test alloc_regression

echo "== overload suite (backpressure, admission, circuit breaker, release) =="
cargo test -q --offline --release -p softstage-suite --test overload

echo "== ssmc model checking (bounded schedule exploration, release) =="
# Detection power (the known-bad plain-map memo must be flagged with both
# racing sites; schedule-dependent results, lock inversion and panics in
# checked code must be reported) plus exhaustive byte-identity of the
# work-stealing cursor shape and the choice/preemption-bound machinery —
# all under the preemption-bound-2 CI budget, seconds not minutes.
cargo test -q --offline --release -p softstage-suite --test ssmc_model

echo "== util::sync under the model cfg (shim routed through ssmc) =="
# Rebuilds util with `--cfg model` into its own target dir (so the main
# build cache stays warm) and explores parallel_map — the workspace's
# one threaded function — through the exact shim exec.rs calls it by.
RUSTFLAGS="--cfg model" CARGO_TARGET_DIR=target/model \
    cargo test -q --offline -p softstage-util --test model

echo "== golden traces (flight recorder + invariant oracle, release) =="
cargo test -q --offline --release -p softstage-suite --test golden_trace

echo "== ssbench (the repo's benchmark) builds and passes its own tests =="
# benchmark/ is its own workspace, so nothing above compiles it; this is
# what notices a change under crates/ that breaks the benchmark.
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

echo "verify: OK"
