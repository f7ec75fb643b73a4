#!/usr/bin/env bash
# The benchmark's one command: builds ssbench in release and runs it.
#
#   benchmark/run.sh [--seed N] [--reps K] [--quick]     every workload, every metric
#   benchmark/run.sh check [--seed N] [--reps K]         two sets, compared to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                        one workload, for the driver
#
# Exits non-zero when the build fails, a download does not finish and
# verify, or anything the seed determines differs between passes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ssbench" --out "$here/out" "$@"
