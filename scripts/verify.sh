#!/usr/bin/env sh
# Tier-1 verification for this repo. Everything here must pass before a
# change lands: build, go vet, the project's own static analyzers
# (cmd/hermes-lint), the full test suite, the race detector over the
# concurrency-heavy packages (TCP serving path, the batching front-end, the
# telemetry registry scraped concurrently with metric writes, the pooled
# IVF searcher scratch, the in-process store recording into the flight
# recorder under concurrent readers, the SLO engine ticking under Collect,
# and the event ring written under concurrent scrapes), and a
# single-iteration bench smoke so
# the kernel benchmarks can never rot unnoticed.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The kernels have amd64 assembly and a pure-Go fallback; cross-building for
# arm64 keeps the fallback and the assembly stubs compiling.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/vec ./internal/quant ./internal/ivf
# The lint gate diffs against the committed lint-report.json (failing only
# on new findings), refreshes that artifact in place, re-runs the gate over
# test files, and archives the facts dump — see scripts/lint-diff.sh.
./scripts/lint-diff.sh
go test ./...
go test -race ./internal/distsearch/ ./internal/batcher/ ./internal/telemetry/ ./internal/ivf/ ./internal/hermes/ ./internal/slo/ ./internal/evlog/
go test -bench=. -benchtime=1x -run '^$' ./internal/vec/ ./internal/quant/ ./internal/ivf/
