#!/usr/bin/env bash
# Byte-identity gate: does this tree print what <git-ref> prints?
#   scripts/same_output.sh <git-ref>        e.g. scripts/same_output.sh HEAD~1
# Unpacks <git-ref> with `git archive` into target/same_output/ref, builds
# `reproduce` from it into its own target directory, runs the four quick
# targets on both trees (seed 42, and seed 7 with --seeds 2 --jobs 2) and
# `cmp`s the --json files. Offline; touches nothing under benchmark/. Not
# part of verify.sh: CI checkouts are shallow.
set -euo pipefail
cd "$(dirname "$0")/.."
ref="${1:?usage: scripts/same_output.sh <git-ref>}"
dir="$PWD/target/same_output"
rm -rf "$dir/ref" "$dir/out"
mkdir -p "$dir/ref" "$dir/out/ref" "$dir/out/tree"
git archive "$ref" | tar -x -C "$dir/ref"
build() { cargo build --release --offline --quiet -p softstage-experiments --bin reproduce "$@"; }
build
CARGO_TARGET_DIR="$dir/build" build --manifest-path "$dir/ref/Cargo.toml"
for side in ref tree; do
    bin="${CARGO_TARGET_DIR:-target}/release/reproduce"
    [ "$side" = ref ] && bin="$dir/build/release/reproduce"
    for target in smoke overload fleet-smoke handoff; do
        run() { "$bin" "$target" "$@" >/dev/null; }
        run --seed 42 --json "$dir/out/$side/$target-42.json"
        run --seed 7 --seeds 2 --jobs 2 --json "$dir/out/$side/$target-7x2.json"
    done
done
status=0
for f in "$dir"/out/ref/*.json; do
    cmp "$f" "$dir/out/tree/$(basename "$f")" || status=1
done
[ "$status" = 0 ] && echo "same_output: OK (same as $ref)"
exit "$status"
