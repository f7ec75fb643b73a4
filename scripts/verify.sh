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
# sslint is a library; its test suite runs it on every rule fixture and on
# this workspace, and any finding fails `live_workspace_is_clean`.
cargo test -q --offline -p sslint

echo "== clippy (panic, unsafe and determinism lints; config in Cargo.toml and clippy.toml) =="
cargo clippy --offline --workspace --lib -- -D warnings

echo "== lint probes: each former sslint per-token fixture fails clippy =="
# The five rules sslint used to check token by token now live in the lint
# config. Each scripts/lint_probes/<rule>.rs becomes a module of xia-addr
# (a crate without its own unsafe attribute) in a copy of the tree under
# target/, with the tree's own Cargo.toml and clippy.toml, and
# `cargo clippy --lib` must fail naming the expected lints.
probe_dir="$PWD/target/lint-probe"
rm -rf "$probe_dir/tree"
mkdir -p "$probe_dir/tree"
cp -r Cargo.toml Cargo.lock clippy.toml crates "$probe_dir/tree/"
echo "pub mod lint_probe;" >> "$probe_dir/tree/crates/xia-addr/src/lib.rs"
probe() {
    local rule=$1
    shift
    cp "scripts/lint_probes/$rule.rs" "$probe_dir/tree/crates/xia-addr/src/lint_probe.rs"
    if (cd "$probe_dir/tree" && CARGO_TARGET_DIR="$probe_dir/target" cargo clippy \
        --offline --quiet --lib -p xia-addr --message-format=json) >"$probe_dir/$rule.json" 2>/dev/null; then
        echo "probe $rule: clippy passed, expected $*" >&2
        return 1
    fi
    for lint in "$@"; do
        if ! grep -q "\"code\":\"$lint\"" "$probe_dir/$rule.json"; then
            echo "probe $rule: clippy failed without naming $lint (see $probe_dir/$rule.json)" >&2
            return 1
        fi
    done
    echo "probe $rule: fails with $*"
}
probe wall-clock clippy::disallowed_types clippy::disallowed_methods
probe hash-iter clippy::disallowed_types
probe panic clippy::unwrap_used clippy::indexing_slicing
probe unsafe-forbid unsafe_code
probe unsafe-contract clippy::undocumented_unsafe_blocks

echo "== tier-1: workspace tests =="
cargo test -q --offline

echo "== chaos suite (fault injection, single- and multi-client, release) =="
cargo test -q --offline --release -p softstage-suite --test chaos --test determinism --test fleet

echo "== do no harm: a uniform 1000-client fleet gains >= 0.98 at seeds 42 and 7; fleet-smoke gains >= 0.98 at five seeds, median >= 1; the chunk-aware handoff policy beats the default at each of five seeds (release) =="
cargo test -q --offline --release -p softstage-suite --test fleet --test mobility_integration -- --ignored

echo "== scheduler differential suite (wheel vs its (at, seq) contract, release) =="
# Property tests drive the timer wheel and a BTreeMap keyed by (at, seq)
# through the same push/pop/peek sequences (equal-timestamp bursts,
# far-future overflow, pop limits, fleet-shaped periodic ticks), asserting
# identical dispatch order throughout.
cargo test -q --offline --release -p simnet --test sched_diff

echo "== transport mux walk, 4 more seeds (1,024 walks with the liveness oracle, release) =="
# Tier-1 runs 256 random walks of API calls, lossy deliveries, timer
# firings and migrations on two muxes; each then runs its timers out on
# one clock and every connection must end within the idle limit.
for seed in 1 2 3 4; do
    UTIL_CHECK_SEED=$seed cargo test -q --offline --release -p xia-transport --lib \
        mux::tests::no_finished_connection_survives_a_public_call
done

echo "== allocation regression (counting allocator, release) =="
# Steady-state transmit/deliver must stay at zero heap ops per event —
# bare, and with the flight recorder attached and a timer re-arming.
cargo test -q --offline --release -p softstage-bench --test alloc_regression

echo "== overload suite (backpressure, admission, exhaustive breaker walk, release) =="
cargo test -q --offline --release -p softstage-suite --test overload

echo "== client walk, depth 7 (every interleaving of 9 events against a stand-in host, release) =="
# Tier-1 runs depth 5 (59 049 sequences); this is 4 782 969, ~90 s (each waiting leaf also runs its timers out until a fetch starts).
cargo test -q --offline --release -p softstage --test client_walk -- --ignored

echo "== golden traces (flight recorder + invariant oracle, release) =="
cargo test -q --offline --release -p softstage-suite --test golden_trace

echo "== flight-recorder dump (softstage_trace fleet 42: exit 0, oracle clean, one JSON line per record, release) =="
# The whole fleet-smoke run (~2.7 M records, ~220 MB) streams to a file as
# it is recorded, so the dump holds exactly the records the summary counts.
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
out=$(cargo run -q --release --offline --example softstage_trace -- fleet 42 "$tmp")
grep -qx "oracle: clean" <<<"$out" || { echo "softstage_trace fleet 42: no 'oracle: clean'" >&2; exit 1; }
test -s "$tmp" || { echo "softstage_trace fleet 42 wrote an empty dump" >&2; exit 1; }
records=$(sed -n 's/^trace: \([0-9]*\) records$/\1/p' <<<"$out")
lines=$(wc -l <"$tmp")
[ -n "$records" ] && [ "$records" -eq "$lines" ] ||
    { echo "softstage_trace fleet 42: summary counts '$records' records, dump has $lines lines" >&2; exit 1; }
rm -f "$tmp"

echo "== ssbench (the repo's benchmark) builds and passes its own tests =="
# benchmark/ is its own workspace, so nothing above compiles it; this is
# what notices a change under crates/ that breaks the benchmark.
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

echo "verify: OK"
