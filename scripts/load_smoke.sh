#!/usr/bin/env bash
# load_smoke.sh — end-to-end smoke of the exaload workload tools against a
# live exaserve.
#
# Boots exaserve on an ephemeral port, then drives the full exaload
# surface: generate a bursty trace, replay it against the server while
# re-recording the outcomes, run a short open-loop stream from a profile,
# and finish with a small live saturation sweep whose report must parse
# and whose final step must actually stress the server. After the sweep,
# /metrics must show no failed job and at least one done job: saturation
# may reject work with 429 but must never fail admitted work. Separately
# checks that the deterministic in-process sweep is byte-identical across
# two runs — the property the golden loadsweep exhibit pins.
#
# Tunables (environment):
#   LOAD_RATE   live-sweep top rate in req/s  (default 30)
#   LOAD_DUR    seconds per live step         (default 2)
#
# Usage: scripts/load_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

LOAD_RATE="${LOAD_RATE:-30}"
LOAD_DUR="${LOAD_DUR:-2}"

PORT=$(( (RANDOM % 20000) + 20000 ))
ADDR="127.0.0.1:${PORT}"
LOG=$(mktemp)
TRACE=$(mktemp)
RERECORD=$(mktemp)
CSV=$(mktemp)
SERVE_BIN=$(mktemp -u)
LOAD_BIN=$(mktemp -u)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -f "$LOG" "$TRACE" "$RERECORD" "$CSV" "$SERVE_BIN" "$LOAD_BIN"
}
trap cleanup EXIT

echo "== building exaserve and exaload"
go build -o "$SERVE_BIN" ./cmd/exaserve
go build -o "$LOAD_BIN" ./cmd/exaload

echo "== deterministic in-process sweep (twice, must be byte-identical)"
A=$("$LOAD_BIN" sweep -inproc)
B=$("$LOAD_BIN" sweep -inproc)
[ "$A" = "$B" ] || { echo "inproc sweep is not deterministic"; diff <(echo "$A") <(echo "$B") || true; exit 1; }
echo "$A" | grep -q "knee at" || { echo "inproc sweep found no knee:"; echo "$A"; exit 1; }

echo "== booting exaserve on ${ADDR}"
"$SERVE_BIN" -addr "$ADDR" -workers 2 >"$LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died during boot:"; cat "$LOG"; exit 1
  fi
  sleep 0.1
done
curl -fsS "http://${ADDR}/healthz" >/dev/null || { echo "server never became healthy"; cat "$LOG"; exit 1; }

echo "== gen: bursty trace"
"$LOAD_BIN" gen -profile "burst:base=2,peak=10,period=2,duty=0.3,dur=4" -seed 7 -out "$TRACE"
LINES=$(wc -l < "$TRACE")
[ "$LINES" -ge 2 ] || { echo "generated trace has ${LINES} lines, want a header plus events"; exit 1; }

echo "== replay: re-issue the trace live, re-recording outcomes"
"$LOAD_BIN" replay -addr "http://${ADDR}" -trace "$TRACE" -speed 2 -record "$RERECORD"
grep -q '"outcome":"ok"' "$RERECORD" || { echo "re-recorded trace holds no ok outcomes"; cat "$RERECORD"; exit 1; }

echo "== run: short open-loop stream from a profile"
"$LOAD_BIN" run -addr "http://${ADDR}" -profile "constant:rate=8,dur=2" -seed 3

echo "== sweep: live saturation grid up to ${LOAD_RATE} req/s"
OUT=$("$LOAD_BIN" sweep -addr "http://${ADDR}" \
  -rates "2,$((LOAD_RATE / 2)),${LOAD_RATE}" -step-dur "$LOAD_DUR" -seed 5 -csv "$CSV")
echo "$OUT"
echo "$OUT" | grep -q "Saturation sweep" || { echo "live sweep produced no report"; exit 1; }
echo "$OUT" | grep -Eq "knee at|no knee" || { echo "live sweep rendered no knee verdict"; exit 1; }
HEADER=$(head -n 1 "$CSV")
echo "$HEADER" | grep -q "rate_rps" || { echo "report CSV missing its header: ${HEADER}"; exit 1; }
DATA=$(( $(wc -l < "$CSV") - 1 ))
[ "$DATA" -eq 3 ] || { echo "report CSV has ${DATA} data rows, want 3"; exit 1; }

echo "== metrics: saturation failed no admitted job"
METRICS=$(curl -fsS "http://${ADDR}/metrics")
FAILED=$(echo "$METRICS" | awk '/^exaresil_serve_jobs_total\{state="failed"\}/ {v=$NF} END {print v+0}')
DONE=$(echo "$METRICS" | awk '/^exaresil_serve_jobs_total\{state="done"\}/ {v=$NF} END {print v+0}')
echo "   ${DONE} done, ${FAILED} failed"
[ "$FAILED" -eq 0 ] || { echo "${FAILED} jobs failed under the saturating sweep"; exit 1; }
[ "$DONE" -ge 1 ] || { echo "no jobs completed at all"; exit 1; }

echo "== clean shutdown"
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVER_PID" 2>/dev/null && { echo "server ignored SIGTERM"; exit 1; }
SERVER_PID=""

echo "load smoke passed"
