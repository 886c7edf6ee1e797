#!/usr/bin/env bash
# Build offline and run the whole benchmark suite.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]   every workload, untraced then traced
#   benchmark/run.sh --aa [--seed N]                      untraced suite twice, compared to the bounds
#
# Exits non-zero on any correctness failure.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --suite "$@"
