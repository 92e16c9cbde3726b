#!/usr/bin/env bash
# check.sh — the repository's model-conformance gate.
#
# Runs, in order:
#   1. go vet over every package, plus doc hygiene: every internal
#      package carries a package comment, gofmt has nothing to say, and
#      the docs can't drift — every cmd/ tool and internal/ package must
#      be mentioned in README.md or DESIGN.md
#   2. the race detector over the audit harness, the resilience
#      executors, the cluster layer, the obs metrics package, the shared
#      experiments registry, the service stack — serve, chaos injector,
#      retrying client, workload generator — and the hot-path packages
#      of the raw-speed passes: selection, analytic, rng (pins the
#      seed-determinism, metrics-attachment-is-inert,
#      single-flight/backpressure, checkpoint/resume, substream, and
#      disabled-hooks-allocation-free tests under -race), then the
#      cancel/join/drain storm five more times under -race — the audit
#      of serve's one-lock join/abandon protocol
#   3. a fuzz smoke (10s per target) on the DES scheduler, the multilevel
#      schedule search, the ReStore replica-loss bookkeeping, and the
#      workload pattern reader
#   4. the full conformance sweep (sim vs analytic, runtime invariants,
#      metamorphic properties) over the seven-technique menu, run twice:
#      plain Monte-Carlo and variance-reduced (-vr, antithetic paired) —
#      exits non-zero on any violation
#   5. the golden-exhibit digest comparison against results/golden/
#   6. go vet and the tests of the perfbench module, which root ./...
#      does not see: a serve/load API change that breaks the benchmark's
#      build fails here
#   7. two live end-to-end passes against a 2-worker exaserve (set
#      SOAK_REQUESTS=0 to skip both): exaserve -chaos vs the retrying
#      exasoak client (scripts/chaos_soak.sh), and the exaload workload
#      smoke — trace gen/replay, open-loop run, and a small live
#      saturation sweep that must fail no jobs (scripts/load_smoke.sh)
#   8. opt-in: with BENCH_BASELINE=path/to/BENCH_results.json set, rerun
#      the exhibit benchmarks and fail on any >10% time or allocation
#      regression against that report (cmd/exabench -baseline)
#
# Usage: scripts/check.sh [exacheck flags...]
# e.g.:  scripts/check.sh -quick
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet ./..."
go vet ./...

echo "== doc hygiene: package comments and gofmt"
MISSING=""
for dir in internal/*/; do
  pkg=$(basename "$dir")
  grep -rql "^// Package ${pkg}" "$dir"*.go || MISSING="${MISSING} ${pkg}"
done >/dev/null
[ -z "$MISSING" ] || { echo "internal packages missing a package comment:${MISSING}"; exit 1; }
UNFMT=$(gofmt -l .)
[ -z "$UNFMT" ] || { echo "gofmt wants to rewrite:"; echo "$UNFMT"; exit 1; }

echo "== doc drift: every binary and package appears in README.md or DESIGN.md"
UNDOCUMENTED=""
for dir in cmd/*/ internal/*/; do
  name=$(basename "$dir")
  grep -q "$name" README.md DESIGN.md || UNDOCUMENTED="${UNDOCUMENTED} ${dir%/}"
done
[ -z "$UNDOCUMENTED" ] || { echo "undocumented in README.md/DESIGN.md:${UNDOCUMENTED}"; exit 1; }

echo "== race detector on the audit harness, executors, cluster layer, machine model, metrics, registry, and service stack"
go test -race -count=1 ./internal/check/ ./internal/resilience/ ./internal/cluster/... \
	./internal/machine/ ./internal/obs/... ./internal/experiments/ ./internal/serve/... ./internal/chaos/ \
	./internal/serveclient/ ./internal/load/ ./internal/selection/ ./internal/analytic/ ./internal/rng/

echo "== race audit of serve's join/abandon protocol"
go test -race -count=5 -run '^TestPoolCancelDrainStress$' ./internal/serve/

echo "== fuzz smoke (${FUZZTIME} per target)"
go test ./internal/des/ -run='^$' -fuzz='^FuzzSimulatorOrder$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzOptimizeMultilevel$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzReStoreReplicaLoss$' -fuzztime="$FUZZTIME"
go test ./internal/workload/ -run='^$' -fuzz='^FuzzReadPattern$' -fuzztime="$FUZZTIME"

echo "== conformance sweep (plain)"
go run ./cmd/exacheck "$@" sweep

echo "== conformance sweep (variance-reduced)"
go run ./cmd/exacheck "$@" -vr sweep

echo "== golden exhibits"
go run ./cmd/exacheck golden

echo "== perfbench module: vet and tests"
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

if [ "${SOAK_REQUESTS:-8}" != "0" ]; then
  echo "== chaos soak"
  SOAK_CLIENTS="${SOAK_CLIENTS:-3}" SOAK_REQUESTS="${SOAK_REQUESTS:-8}" scripts/chaos_soak.sh
  echo "== load smoke"
  scripts/load_smoke.sh
fi

if [ -n "${BENCH_BASELINE:-}" ]; then
  echo "== bench regression gate vs ${BENCH_BASELINE}"
  go run ./cmd/exabench -baseline "$BENCH_BASELINE" -out "$(mktemp)"
fi
