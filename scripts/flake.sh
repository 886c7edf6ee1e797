#!/usr/bin/env bash
# Flake tally for the threaded driver: run the three wall-clock-racy test
# binaries N times each and count failures by assertion site.
#
#   scripts/flake.sh N          # default 20
#
# Prints one line per failing `file:line` with its count, then the total
# `failed/attempted` test-binary runs. Exits 1 if any run failed (the
# tally is printed either way, so it still compares two commits).
set -uo pipefail
cd "$(dirname "$0")/.."
n="${1:-20}"
tests=(concurrent_mutator threaded_stress threaded_collection)

cargo test -q --offline --no-run "${tests[@]/#/--test=}" >/dev/null 2>&1 || {
    echo "build failed" >&2
    exit 2
}

sites="$(mktemp)"
trap 'rm -f "$sites"' EXIT
failed=0
for _ in $(seq "$n"); do
    for t in "${tests[@]}"; do
        if ! out="$(cargo test -q --offline --test "$t" 2>&1)"; then
            failed=$((failed + 1))
            # "thread '<test>' panicked at tests/x.rs:129:5:" -> "tests/x.rs:129"
            echo "$out" | sed -n "s/.*panicked at \([^:]*:[0-9]*\).*/\1/p" | sort -u >>"$sites"
        fi
    done
done
sort "$sites" | uniq -c | sort -rn
echo "failed $failed of $((n * ${#tests[@]})) runs"
[ "$failed" -eq 0 ]
