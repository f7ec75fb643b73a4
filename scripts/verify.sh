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

echo "== tier-1: workspace tests =="
cargo test -q --offline

echo "== chaos suite (fault injection, single- and multi-client, release) =="
cargo test -q --offline --release -p softstage-suite --test chaos --test determinism --test fleet

echo "== do no harm: a uniform 1000-client fleet gains >= 0.98 at seeds 42 and 7 (release) =="
cargo test -q --offline --release -p softstage-suite --test fleet -- --ignored

echo "== scheduler differential suite (wheel vs its (at, seq) contract, release) =="
# Property tests drive the timer wheel and a BTreeMap keyed by (at, seq)
# through the same push/pop/peek sequences (equal-timestamp bursts,
# far-future overflow, pop limits, fleet-shaped periodic ticks), asserting
# identical dispatch order throughout.
cargo test -q --offline --release -p simnet --test sched_diff

echo "== allocation regression (counting allocator, release) =="
# Steady-state transmit/deliver must stay at zero heap ops per event —
# bare, and with the flight recorder attached and a timer re-arming.
cargo test -q --offline --release -p softstage-bench --test alloc_regression

echo "== overload suite (backpressure, admission, exhaustive breaker walk, release) =="
cargo test -q --offline --release -p softstage-suite --test overload

echo "== client walk, depth 7 (every interleaving of 9 events against a stand-in host, release) =="
# Tier-1 runs depth 5 (59 049 sequences); this is 4 782 969, ~30 s.
cargo test -q --offline --release -p softstage --test client_walk -- --ignored

echo "== golden traces (flight recorder + invariant oracle, release) =="
cargo test -q --offline --release -p softstage-suite --test golden_trace

echo "== ssbench (the repo's benchmark) builds and passes its own tests =="
# benchmark/ is its own workspace, so nothing above compiles it; this is
# what notices a change under crates/ that breaks the benchmark.
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

echo "verify: OK"
