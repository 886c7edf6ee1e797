#!/usr/bin/env bash
# A/B the repo's benchmark: a parent commit against the working tree, the
# protocol of benchmark/README.md "How a later change states a claim".
#
#   scripts/bench_ab.sh <parent-ref> <workload> [pairs=10]
#
# Exports <parent-ref> with `git archive` into target/bench_ab/<sha> (a
# plain copy: nothing to prune, no second checkout registered in .git),
# builds BENCHMARK.json's command once on each side, then runs `pairs`
# pairs of (parent, change), alternating which side goes first, each side
# from its own root. Prints, per end-to-end metric: median and quartiles
# of both sides, the ratio of the medians against the metric's bound, and
# how many pairs the change won (ties count for neither). Every run made
# is kept under target/bench_ab/runs/. A measurement, not a gate: exits
# non-zero only if a run reports `correct: false` or failed operations.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent_ref="$1" workload="$2" pairs="${3:-10}"

sha="$(git rev-parse --verify "$parent_ref^{commit}")"
root="$PWD/target/bench_ab"
parent="$root/$sha"
runs="$root/runs/$workload-$(date +%s)"
mkdir -p "$runs"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi

# BENCHMARK.json's command, one argument per line (read from the change:
# a change may not edit it, so both sides agree).
mapfile -t cmd < <(python3 -c '
import json
print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

run_side() { # <root> <out-file>
    (cd "$1" && "${cmd[@]}" --workload "$workload") >"$2" 2>"$2.err"
}

# Every cargo run of the benchmark refreshes its tracked lock file in
# place; put it back on the way out unless it already carried an edit.
if git diff --quiet -- benchmark/Cargo.lock; then
    trap 'git checkout -q -- benchmark/Cargo.lock' EXIT
fi

echo "==> build and warm up: parent $sha, then change" >&2
run_side "$parent" "$runs/warmup.parent.json"
run_side "$PWD" "$runs/warmup.change.json"

for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        if [ "$side" = parent ]; then dir="$parent"; else dir="$PWD"; fi
        run_side "$dir" "$runs/$i.$side.json"
    done
    echo "pair $i/$pairs (${order[*]})" >&2
done

python3 - "$runs" "$pairs" <<'PY'
import json, statistics, sys

runs, pairs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))

def load(i, side):
    # The last JSON line of a run carries `correct`, `failed`, `metrics`.
    lines = [l for l in open(f"{runs}/{i}.{side}.json") if l.startswith("{")]
    return json.loads(lines[-1])

sides = {s: [load(i, s) for i in range(1, pairs + 1)] for s in ("parent", "change")}
bad = [(s, i + 1) for s, rs in sides.items() for i, r in enumerate(rs)
       if not r["correct"] or r["failed"]]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"{'metric':24} {'parent q1/median/q3':>38} {'change q1/median/q3':>38} "
      f"{'ratio':>8} {'bound':>6} {'wins':>6}  verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
    ties = sum(ci == pi for pi, ci in zip(p, c))
    ratio = cm / pm if pm else float("nan")
    better = (pm - cm) if lower else (cm - pm)
    if ties == pairs:
        verdict = "identical"
    elif wins >= 0.9 * pairs and better > (p3 - p1):
        verdict = "gain"
    elif (ratio > 1 + m["bound"]) if lower else (ratio < 1 - m["bound"]):
        verdict = "REGRESSION"
    elif (p3 - p1) > m["bound"] * pm:
        verdict = "unresolved (parent spread > bound)"
    else:
        verdict = "within bound"
    fmt = lambda a, b, c: f"{a:.6g}/{b:.6g}/{c:.6g}"
    print(f"{name:24} {fmt(p1, pm, p3):>38} {fmt(c1, cm, c3):>38} "
          f"{ratio:8.4f} {m['bound']:6.2f} {wins:3}/{pairs:<2}  {verdict}")
print(f"runs kept in {runs}")
if bad:
    print(f"incorrect or failing runs: {bad}", file=sys.stderr)
    sys.exit(1)
PY
