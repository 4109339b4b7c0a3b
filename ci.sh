#!/bin/sh
# ci.sh — the checks every change must pass, in the order a failure is
# cheapest to diagnose. Run from the repository root. Exits non-zero on
# the first failure.
#
#   ./ci.sh          full gate (vet, build, race tests, chaos suite)
#   ./ci.sh -short   skip the race run and the fault-injection sweeps
set -eu

short=${1:-}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" "$unformatted" >&2
    exit 1
fi
# The trace package is the hot-path instrumentation layer; keep its
# formatting check explicit so a partial checkout still gates it.
unformatted=$(gofmt -l internal/trace)
if [ -n "$unformatted" ]; then
    echo "gofmt needed in internal/trace:" "$unformatted" >&2
    exit 1
fi

echo "== sjlint ./... =="
# The project's own analyzer suite (internal/lint) type-checks the tree
# and enforces the cross-cutting contracts: joinerr wrapping at API
# boundaries, paired trace spans, govern checkpoints in record loops,
# registry-managed temp files (the type-accurate successor of the old
# grep lints), exhaustive Kind switches, and %w over %v for error
# operands. See DESIGN.md §10.
go run ./cmd/sjlint ./...

echo "== sjlint concurrency contracts =="
# The CFG/dataflow quartet on its own: guarded-by field annotations,
# atomic/plain access mixes, the whole-module lock acquisition graph
# (acyclic + documented orderings realized), and goroutine join/cancel
# paths. Redundant with the full run above, but a failure here names
# the contract layer directly. See DESIGN.md §15.
go run ./cmd/sjlint -analyzers guardedby,atomicmix,lockorder,goexit ./...

echo "== sjlint -lockgraph smoke =="
# The DOT debug export must render the real acquisition graph with the
# documented shard -> sched contract edge in it.
go run ./cmd/sjlint -lockgraph ./... | grep -q 'joinState.mu" -> "spatialjoin/internal/sched.Collector.mu"'

echo "== sjlint -json smoke =="
# The JSON output mode must always re-parse, including the empty-report
# case; -checkjson validates the document shape and exits non-zero on a
# malformed one.
go run ./cmd/sjlint -json ./internal/tsv | go run ./cmd/sjlint -checkjson -

echo "== go vet ./... =="
go vet ./...

# Recorder/Span contain mutex-guarded state: copying them by value would
# silently break the concurrency contract, so check copylocks on its own
# (it is part of the default vet suite, but must never be tuned away).
echo "== go vet -copylocks ./... =="
go vet -copylocks ./...

echo "== go build ./... =="
go build ./...

echo "== storage-path benchmarks, one iteration each =="
# The disk write path, external sort, S³J scan, slab sweep and collector
# benchmarks report allocations; running each once keeps them compiling
# and working.
go test -run '^$' -bench . -benchtime 1x ./internal/diskio ./internal/extsort ./internal/s3j ./internal/sweep ./internal/sched

if [ "$short" = "-short" ]; then
    echo "== go test -short ./... =="
    go test -short -timeout 10m ./...
    echo "ci.sh: short gate passed"
    exit 0
fi

echo "== go test -race ./... =="
go test -race -timeout 20m ./...

echo "== chaos suite (fault-injection + cancellation + kill-a-shard sweeps) =="
# -timeout turns a cancellation hang (a checkpoint regression) into a
# test failure with stacks instead of a stuck CI job. internal/shard and
# the shard kill sweep in internal/chaos spawn real worker processes and
# SIGKILL them at seeded points; -count=1 keeps the process-level chaos
# uncached.
go test -race -count=1 -timeout 10m ./internal/chaos/ ./internal/govern/ ./internal/core/ ./internal/diskio/ ./internal/shard/ ./internal/netfault/ ./internal/metrics/

echo "== metrics endpoint smoke (/metrics exposition + progress) =="
# A latency-slowed PBSM join scraped mid-flight over metrics.Handler:
# every response must parse as Prometheus text, the progress fraction
# must be monotone and finish at exactly 1.0, and /metricsz must emit
# valid JSONL. The disabled-mode budget test bounds Config.Metrics==nil
# overhead at 1% the same way the trace and cancellation budgets do.
go test -count=1 -run 'TestMetricsEndpointSmoke|TestMetricsDisabledOverheadBudget' .

echo "== sjbench trace smoke (Chrome trace_event export) =="
tracefile=$(mktemp /tmp/sjbench-trace.XXXXXX.json)
benchdir=$(mktemp -d /tmp/sjbench-bench.XXXXXX)
trap 'rm -f "$tracefile"; rm -rf "$benchdir"' EXIT
# sjbench self-validates: re-reads the file, parses the JSON array and
# checks span-tree coverage >= 95%, printing "trace OK" on success.
go run ./cmd/sjbench -exp phases -phases-n 2000 -trace "$tracefile" | grep "trace OK"

echo "== sjbench parallel smoke (BENCH_*.json artifacts) =="
# The quick parallel sweep still runs every method x workers cell and
# asserts identical results and emission order at every worker count;
# sjbench re-reads the emitted BENCH_parallel.json / BENCH_baseline.json
# and validates cell completeness, printing "bench OK" on success.
go run ./cmd/sjbench -exp parallel -quick -bench-dir "$benchdir" | grep "bench OK"

echo "== sjbench shards smoke (multi-process invariance + kill recovery) =="
# The quick shards sweep spawns real worker processes (sjbench re-execs
# itself with -shard-worker), checks the result sequence hash-matches
# the single-process run at every shard count, SIGKILLs a worker at each
# chaos point, and validates the emitted BENCH_shards.json, printing
# "bench OK" on success.
go run ./cmd/sjbench -exp shards -quick -bench-dir "$benchdir" | grep "bench OK"

echo "== sjbench dup3 smoke (three-way duplicate-method agreement) =="
# The quick dup3 sweep runs the sort phase, the Reference Point Method
# and TLSP secondary classes on the same replication-heavy input,
# asserts identical result sets, TLSP emission-order invariance across
# workers, and a strictly positive class-skip ratio, then validates the
# emitted BENCH_dup.json, printing "bench OK" on success.
go run ./cmd/sjbench -exp dup3 -quick -bench-dir "$benchdir" | grep "bench OK"

echo "== TLSP chaos twin (class test under fault injection) =="
# The dup-axis agreement inside the fault harness: byte-identical TLSP
# vs RPM result hashes at every worker count, clean and faulty disks
# alike. Redundant with the -race ./... run above, but a failure here
# names the TLSP contract directly.
go test -race -count=1 -timeout 10m -run 'TestTLSPMatchesRPMUnderChaos|TestChaosSweep/pbsm-tlsp' ./internal/chaos/

echo "== sjbench net smoke (transport overhead + connection fault recovery) =="
# The quick net sweep runs every shard count over both transports (pipe
# re-exec and resident TCP workers via -worker-listen), injects one
# scripted connection fault per recovery scenario, and validates the
# emitted BENCH_net.json, printing "bench OK" on success.
go run ./cmd/sjbench -exp net -quick -bench-dir "$benchdir" | grep "bench OK"

echo "ci.sh: all checks passed"
