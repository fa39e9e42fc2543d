#!/usr/bin/env sh
# Performance record for the serving path. Two suites run, each publishing
# a machine-readable result at the repo root:
#
#   - hermes-kernelbench: the distance kernels (scalar vs blocked at dims
#     64/128/768, plus end-to-end searcher latency and allocation counts)
#     -> BENCH_PR3.json
#   - hermes-obsbench: the observability-plane overhead (evlog emit paths,
#     SLO engine tick, store scan with an armed slow-scan detector)
#     -> BENCH_PR7.json. This one is also an acceptance gate: it exits
#     non-zero if any disabled path allocates.
#
# Usage: scripts/bench.sh [extra hermes-kernelbench flags]
set -eux

cd "$(dirname "$0")/.."

go run ./cmd/hermes-kernelbench -out BENCH_PR3.json "$@"
go run ./cmd/hermes-obsbench -out BENCH_PR7.json
