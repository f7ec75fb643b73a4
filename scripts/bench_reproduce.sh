#!/usr/bin/env bash
# Paired determinism + wall-clock benchmark for the `reproduce` binary.
#
#   scripts/bench_reproduce.sh [TARGET] [PAR_JOBS] [SEEDS]
#
# Runs TARGET (default: smoke) at --jobs 1 and --jobs PAR_JOBS (default:
# 2), fails unless the two JSON outputs are byte-identical, and records
# both wall-clocks into BENCH_reproduce.json. The file keeps one entry
# per target, so the cheap smoke entry refreshed by scripts/verify.sh
# does not clobber a full `all` run (BENCH_FULL: `bench_reproduce.sh all 4`).
# Speedup is only meaningful relative to the recorded host_cores.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-smoke}"
PAR="${2:-2}"
SEEDS="${3:-1}"
SEED=42
OUT=BENCH_reproduce.json
BIN=target/release/reproduce

CORES=$(nproc 2>/dev/null || echo 1)

# Writes ENTRY (one `    "name": {...}` line) into $OUT, carrying the
# other targets' entries forward.
write_entry() { # write_entry NAME ENTRY_LINE
    local lines=("$2")
    if [ -f "$OUT" ]; then
        while IFS= read -r line; do
            case "$line" in
            '    "'*'": {'*)
                t="${line#    \"}"
                t="${t%%\"*}"
                if [ "$t" != "$1" ]; then
                    lines+=("${line%,}")
                fi
                ;;
            esac
        done < "$OUT"
    fi
    {
        echo '{'
        echo '  "benchmark": "reproduce wall-clock (seconds), --jobs 1 vs --jobs N",'
        echo '  "entries": {'
        printf '%s\n' "${lines[@]}" | sort | awk 'NR > 1 { print prev "," } { prev = $0 } END { print prev }'
        echo '  }'
        echo '}'
    } > "$OUT"
}

if [ ! -x "$BIN" ]; then
    cargo build -q --release --offline -p softstage-experiments --bin reproduce
fi

run_timed() { # run_timed JOBS JSON_PATH -> prints elapsed seconds
    local t0 t1
    t0=$(date +%s%3N)
    "$BIN" "$TARGET" --seed "$SEED" --seeds "$SEEDS" --jobs "$1" \
        --json "$2" > /dev/null
    t1=$(date +%s%3N)
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1000 }'
}

j1=$(mktemp) jn=$(mktemp)
trap 'rm -f "$j1" "$jn"' EXIT

serial_secs=$(run_timed 1 "$j1")
par_secs=$(run_timed "$PAR" "$jn")

if ! cmp -s "$j1" "$jn"; then
    echo "bench_reproduce: FAIL: $TARGET --jobs 1 and --jobs $PAR JSON differ" >&2
    exit 1
fi
speedup=$(awk -v a="$serial_secs" -v b="$par_secs" \
    'BEGIN { printf "%.2f", (b > 0) ? a / b : 1 }')

entry=$(printf '    "%s": {"serial_secs": %s, "parallel_secs": %s, "parallel_jobs": %s, "seeds": %s, "speedup": %s, "host_cores": %s, "byte_identical": true}' \
    "$TARGET" "$serial_secs" "$par_secs" "$PAR" "$SEEDS" "$speedup" "$CORES")

# Fleet targets also record simulation throughput: the table's
# "clients simulated (count)" row times the replicate count, over the
# parallel run's wall-clock.
case "$TARGET" in
fleet | fleet-smoke)
    clients=$(awk -F': ' '
        /"label": "clients simulated \(count\)"/ { grab = 1; next }
        grab && /"measured"/ { sub(/,$/, "", $2); sub(/\.0+$/, "", $2); print $2; exit }
    ' "$j1")
    if [ -n "$clients" ]; then
        cps=$(awk -v c="$clients" -v s="$SEEDS" -v t="$par_secs" \
            'BEGIN { printf "%.1f", (t > 0) ? c * s / t : 0 }')
        entry="${entry%\}}, \"clients_simulated\": $clients, \"clients_per_sec\": $cps}"
    fi
    ;;
esac

write_entry "$TARGET" "$entry"

echo "bench_reproduce: $TARGET jobs=1 ${serial_secs}s, jobs=$PAR ${par_secs}s" \
    "(${speedup}x on $CORES cores, byte-identical) -> $OUT"
