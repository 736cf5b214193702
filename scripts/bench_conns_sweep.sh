#!/usr/bin/env bash
# Connection-count sweep for the serve data plane (the epoll reactor):
# runs the verified loadgen against a fresh release server at each
# connection count and leaves one machine-readable bench summary per run
# in the output directory.
#
#   scripts/bench_conns_sweep.sh [OUT_DIR]
#
# Tunables (env):
#   CONNS      connection counts to sweep       (default "8 64 256 512")
#   REQUESTS   total score requests per run     (default 20000)
#   SEED       world seed for server + verifier (default 42)
#   PORT       serve port                       (default 7878)
#   RETRIES    loadgen retry budget per request (default 32)
#
# Every run is fully verified (--verify): each response must be
# bit-identical to the offline baseline, so a sweep that completes is
# also a correctness pass at every swept concurrency. A run that cannot
# complete its quota is reported and recorded in its bench summary, and
# the sweep carries on.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-target/bench-conns-sweep}"
CONNS="${CONNS:-8 64 256 512}"
REQUESTS="${REQUESTS:-20000}"
SEED="${SEED:-42}"
PORT="${PORT:-7878}"
RETRIES="${RETRIES:-32}"

cargo build --release -p taxo-bench
mkdir -p "$OUT_DIR"
SERVE=target/release/serve
LOADGEN=target/release/loadgen

wait_listening() { # PID LOGFILE
    for _ in $(seq 1 600); do
        grep -q "listening on" "$2" && return 0
        kill -0 "$1" 2>/dev/null || { cat "$2"; return 1; }
        sleep 0.1
    done
    echo "server never came up" >&2
    return 1
}

for conns in $CONNS; do
    label="serve-reactor-${conns}c"
    log="$OUT_DIR/$label.server.log"
    echo "== $label: $REQUESTS requests over $conns connections =="
    "$SERVE" --addr "127.0.0.1:$PORT" --seed "$SEED" >"$log" 2>&1 &
    server_pid=$!
    wait_listening "$server_pid" "$log"
    "$LOADGEN" --addr "127.0.0.1:$PORT" --seed "$SEED" \
        --connections "$conns" --requests "$REQUESTS" --retries "$RETRIES" \
        --verify --shutdown \
        --bench-json "$OUT_DIR/$label.json" --bench-label "$label" ||
        echo "!! $label: run degraded (see $OUT_DIR/$label.json)"
    wait "$server_pid" || true
done

echo "== sweep summaries =="
for f in "$OUT_DIR"/serve-*.json; do
    echo "-- $f"
    cat "$f"
done
