#!/usr/bin/env bash
# Byte-identity gate: does this tree print what <git-ref> prints?
#   scripts/same_output.sh <git-ref>        e.g. scripts/same_output.sh HEAD~1
# Unpacks <git-ref> with `git archive` into target/same_output/ref, builds
# its `reproduce` binary and `softstage_trace` and `fault_injection`
# examples into their own target directory, runs six targets on both trees
# (seed 42, and seed 7 with --seeds 2 --jobs 2) and `cmp`s the --json
# files, printing every moved cell as `table/cell: ref → tree`: the four
# quick ones, `fig5` (the only table on
# `TransportConfig::linux_tcp`) and `ablation` (the only one that sets the
# coordinator's depth bounds and `prestage_depth`). Also runs `fig6` and
# `fig7` at seed 42 alone: the single-client tables that take the Chunk
# Profile through every staging state. Runs both `softstage_trace`
# examples at seeds 42 and 7, on the single-client drive and on the
# `fleet-smoke` world (200 clients at four shared edges, where cache,
# server and VNF records interleave), and `cmp`s their JSON-lines dumps
# (about 220 MB per fleet run). A <git-ref> whose `softstage_trace`
# predates the `fleet` argument is built with this tree's copy of the
# example instead. Also compares the stdout of both `fault_injection`
# examples: the one run that crashes and restarts a node, wipes a cache
# and opens a burst-loss window. A stdout that differs (a summary, a
# verdict) is printed as a line `diff`, its first 20 lines. Then
# builds each tree's benchmark/ into a target directory of its own, runs
# one traced `ssbench pass` per workload named in BENCHMARK.json at seed
# 42 and at the held-out seed 7 on both and compares what the seed
# determines (`attempted`, `failed`, `digests`, every `sim` reading),
# naming each reading that differs; the `host` member is ignored.
# Offline; writes nothing under benchmark/. Not part of verify.sh: CI
# checkouts are shallow.
set -euo pipefail
cd "$(dirname "$0")/.."
ref="${1:?usage: scripts/same_output.sh <git-ref>}"
dir="$PWD/target/same_output"
rm -rf "$dir/ref" "$dir/out"
mkdir -p "$dir/ref" "$dir/out/ref" "$dir/out/tree"
git archive "$ref" | tar -x -C "$dir/ref"
grep -q '"fleet"' "$dir/ref/examples/softstage_trace.rs" ||
    cp examples/softstage_trace.rs "$dir/ref/examples/softstage_trace.rs"
build() {
    cargo build --release --offline --quiet -p softstage-experiments \
        -p softstage-suite --bin reproduce --example softstage_trace \
        --example fault_injection "$@"
}
build
CARGO_TARGET_DIR="$dir/build" build --manifest-path "$dir/ref/Cargo.toml"
for side in ref tree; do
    bin="${CARGO_TARGET_DIR:-target}/release/reproduce"
    [ "$side" = ref ] && bin="$dir/build/release/reproduce"
    for target in smoke overload fleet-smoke handoff fig5 ablation; do
        run() { "$bin" "$target" "$@" >/dev/null; }
        run --seed 42 --json "$dir/out/$side/$target-42.json"
        run --seed 7 --seeds 2 --jobs 2 --json "$dir/out/$side/$target-7x2.json"
    done
    for target in fig6 fig7; do
        "$bin" "$target" --seed 42 --json "$dir/out/$side/$target-42.json" >/dev/null
    done
    examples="$(realpath "$(dirname "$bin")")/examples"
    trace="$examples/softstage_trace"
    for seed in 42 7; do
        # Run inside the output directory so the "wrote <path>" line matches.
        (cd "$dir/out/$side" && "$trace" "$seed" "trace-$seed.jsonl" >"trace-$seed.stdout")
        (cd "$dir/out/$side" && "$trace" fleet "$seed" "fleet-$seed.jsonl" >"fleet-$seed.stdout")
    done
    "$examples/fault_injection" >"$dir/out/$side/fault_injection.stdout"
done
# Prints every table cell that moved between two `reproduce --json` files
# as `file: table/cell: ref → tree` (a row's spread over seeds as
# `table/cell [min]` and `[max]`); a row on one side only reads `absent`.
moved_cells() {
    python3 - "$@" <<'PY'
import json, os, sys
ref, tree = (json.load(open(p)) for p in sys.argv[1:3])
cells = lambda tables: {(t["id"], r["label"]): r for t in tables for r in t["rows"]}
a, b = cells(ref), cells(tree)
keys = list(a) + [k for k in b if k not in a]
name = os.path.basename(sys.argv[1])
for key in keys:
    ra, rb = a.get(key, {}), b.get(key, {})
    fields = ("measured", "min", "max", "seeds", "paper") if ra and rb else ("measured",)
    for field in fields:
        va, vb = ra.get(field, "absent"), rb.get(field, "absent")
        if va != vb:
            at = "" if field == "measured" else f" [{field}]"
            print(f"{name}: {key[0]}/{key[1]}{at}: {va} → {vb}")
PY
}
status=0
for f in "$dir"/out/ref/*; do
    t="$dir/out/tree/$(basename "$f")"
    cmp -s "$f" "$t" && continue
    status=1
    case "$f" in
    *.jsonl) cmp "$f" "$t" || true ;;
    *.stdout) diff "$f" "$t" | head -n 20 || true ;;
    *) moved_cells "$f" "$t" ;;
    esac
done
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
: "${workloads:?BENCHMARK.json names no workloads}"
for side in ref tree; do
    manifest="benchmark/Cargo.toml"
    [ "$side" = ref ] && manifest="$dir/ref/benchmark/Cargo.toml"
    CARGO_TARGET_DIR="$dir/bench-$side" cargo build --release --offline --quiet --manifest-path "$manifest"
    for workload in $workloads; do
        for seed in 42 7; do
            "$dir/bench-$side/release/ssbench" pass --workload "$workload" --seed "$seed" \
                --trace 1 >"$dir/out/$side/ssbench-$workload-$seed.json"
        done
    done
done
python3 - "$dir/out" <<'PY' || status=1
import glob, json, os, sys
out, differs = sys.argv[1], 0
for ref in sorted(glob.glob(f"{out}/ref/ssbench-*.json")):
    a, b = (json.load(open(p)) for p in (ref, f"{out}/tree/{os.path.basename(ref)}"))
    seeded = lambda d: {k: d[k] for k in ("attempted", "failed", "digests")} | d["sim"]
    a, b = seeded(a), seeded(b)
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            print(f"{os.path.basename(ref)}: {key}: ref {a.get(key)} != tree {b.get(key)}")
            differs = 1
sys.exit(differs)
PY
[ "$status" = 0 ] && echo "same_output: OK (same as $ref)"
exit "$status"
