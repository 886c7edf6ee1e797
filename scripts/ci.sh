#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Runs with --offline: the workspace vendors stand-in crates under
# vendor/ and must never touch a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> lifecycle gate (drivers create no half of a stub/scion pair themselves)"
# Opening, repairing and closing a reference is acdgc-remoting's
# lifecycle module; a table primitive named in a driver is a second copy
# of that rule in the making.
if grep -nE 'add_stub|add_scion|pardon_stub|sync_(stub|scion)_ic' \
    crates/sim/src/system.rs crates/sim/src/threaded.rs; then
    echo "pair primitives used outside acdgc-remoting's lifecycle module" >&2
    exit 1
fi

echo "==> build (release)"
cargo build --release --offline --workspace

echo "==> tests"
cargo test -q --offline --workspace

echo "==> threaded stress (release, seed matrix, traced, hard time budget)"
# The quiescence protocol must terminate these runs on its own; the 300s
# cap is a backstop that fails CI if a run ever degenerates into waiting
# out per-test deadlines. ACDGC_TRACE_ARTIFACT makes the tests export
# their merged event traces as JSONL and re-parse every line (schema
# round-trip gate); on an assertion failure the trace of the failing run
# is dumped to the same directory, so the artifacts below are the first
# place to look when this stage breaks.
trace_dir="target/trace-artifacts"
# Start clean: the forensics gates below must judge only artifacts this
# run exported, not leftovers from older revisions with older schemas.
rm -rf "$trace_dir" && mkdir -p "$trace_dir"
if ! ACDGC_TRACE_ARTIFACT="$trace_dir" \
    timeout 300 cargo test -q --offline --release --test threaded_stress; then
    echo "threaded stress FAILED — trace artifacts kept under $trace_dir:" >&2
    ls -l "$trace_dir" >&2 || true
    exit 1
fi
echo "trace artifacts kept under $trace_dir:"
ls -l "$trace_dir"

echo "==> concurrent mutator stress matrix (release, hard time budget)"
# Mutator threads race the collector workers through the per-process
# locks across a seed × drop-rate × mutation-rate matrix (≥30% GC-message
# loss included). Each run must end by quiescence votes and pass the
# shadow-oracle safety/completeness audit; the 300s cap fails CI if the
# matrix ever degenerates into waiting out per-test deadlines. Failing
# runs dump their trace artifacts next to the stress ones above.
ACDGC_TRACE_ARTIFACT="$trace_dir" \
    timeout 300 cargo test -q --offline --release --test concurrent_mutator

echo "==> flake gate (scripts/flake.sh 20: 60 dev-profile runs of the threaded tests)"
# One green run of a wall-clock-racy test says little; twenty of each of
# the three threaded test binaries must all pass. On a failure the tally
# by `file:line` is the thing to compare with the parent commit's.
scripts/flake.sh 20

echo "==> trace forensics gate (acdgc-report --check)"
# Every artifact the stress stage exported must reconstruct with balanced
# detection ledgers, monotonic hop counters, and — the stress config runs
# with sampling enabled — validated time-series sample lines (monotone
# clocks/counters, declared capacity bound).
sampled_artifact="$(grep -l '"type":"sample"' "$trace_dir"/*.jsonl | head -n 1 || true)"
if [ -z "$sampled_artifact" ]; then
    echo "stress stage exported no sampled artifact (sampling config lost?)" >&2
    exit 1
fi
cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- --check "$trace_dir"

echo "==> timeline render gate (acdgc-report --timeline)"
# The sampled artifact must render a non-empty timeline: at least one
# sparkline row and a counter-rate table. An empty render means the
# sampler, the JSONL round-trip, or the grouping went dark.
timeline_out="$(cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- \
    --timeline "$sampled_artifact")"
echo "$timeline_out" | grep -q 'timeline \[global\]' || {
    echo "--timeline rendered no global series" >&2; exit 1; }
echo "$timeline_out" | grep -qE '█|▇|▆|▅|▄|▃|▂' || {
    echo "--timeline sparklines are empty/flat-missing" >&2; exit 1; }
echo "$timeline_out" | grep -q 'avg/s' || {
    echo "--timeline printed no counter-rate table" >&2; exit 1; }

echo "==> critical-path waterfall gate (acdgc-report --critical-path)"
# The stress artifacts are traced, hence Lamport-stamped, so the slowest
# detection must render a waterfall whose per-category durations sum to
# its end-to-end latency (the renderer asserts the telescoping identity;
# an empty render means reconstruction went dark).
cp_out="$(cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- \
    --critical-path --top 1 "$sampled_artifact")"
echo "$cp_out" | grep -q 'critical-path: ' || {
    echo "--critical-path rendered nothing" >&2; exit 1; }
echo "$cp_out" | grep -qE 'µs end-to-end' || {
    echo "--critical-path printed no waterfall header" >&2; exit 1; }
echo "$cp_out" | grep -q 'causal: OK' || {
    echo "stress artifact carries no passing causal verdict" >&2; exit 1; }

echo "==> perfetto export gate (acdgc-report --perfetto)"
# The export must be non-empty valid JSON that accounts for every CDM
# delivery in the artifact: the report prints its own audit line, and the
# gate requires flows + unmatched == delivered hops (each delivery either
# carries an arrow from the one send it names, or that send was lost to
# ring overwrite — which --check above turns into a violation whenever
# the artifact claims to be complete).
perfetto_out="target/trace-artifacts/perfetto.json"
rm -f "$perfetto_out"
pf_report="$(cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- \
    --perfetto "$perfetto_out" "$sampled_artifact")"
echo "$pf_report" | grep -q 'perfetto: wrote' || {
    echo "--perfetto reported no export" >&2; exit 1; }
[ -s "$perfetto_out" ] || { echo "perfetto export is empty" >&2; exit 1; }
grep -q '"traceEvents"' "$perfetto_out" || {
    echo "perfetto export lacks the traceEvents envelope" >&2; exit 1; }
read -r flows hops unmatched <<<"$(echo "$pf_report" | sed -n \
    's/.* \([0-9]*\) flows, \([0-9]*\) delivered hops, \([0-9]*\) unmatched.*/\1 \2 \3/p')"
if [ "${flows:-0}" -eq 0 ] || [ $((flows + unmatched)) -ne "$hops" ]; then
    echo "perfetto audit: $flows flows + $unmatched unmatched != $hops delivered hops" >&2
    exit 1
fi
[ "$flows" -eq "$(grep -o '"ph":"s"' "$perfetto_out" | wc -l)" ] || {
    echo "perfetto export's flow-start events disagree with its audit line" >&2; exit 1; }

echo "==> causal gate (clock-tampered artifact must FAIL --check)"
# Negative control for the Lamport checker: rewrite every stamp in a
# healthy artifact to the same constant. Per-process stamps are then
# non-increasing, so --check must reject it. If it passes, the causal
# checker has gone blind.
corrupt_dir="target/trace-artifacts-corrupted"
rm -rf "$corrupt_dir" && mkdir -p "$corrupt_dir"
sed 's/"lc":[0-9]*/"lc":7/g' "$sampled_artifact" > "$corrupt_dir/clock-tampered.jsonl"
grep -q '"lc":7' "$corrupt_dir/clock-tampered.jsonl" || {
    echo "stress artifact carries no lamport stamps to tamper with" >&2; exit 1; }
if cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- \
    --check "$corrupt_dir/clock-tampered.jsonl" > /dev/null 2>&1; then
    echo "acdgc-report --check accepted a clock-tampered artifact" >&2
    exit 1
fi

echo "==> trace forensics gate (corrupted artifact must FAIL)"
# Negative control: strip every cycle_detected line from a healthy
# artifact — the balance ledger no longer closes, so --check must exit
# non-zero. If it passes, the checker has gone blind.
corrupt_dir="target/trace-artifacts-corrupted"
rm -rf "$corrupt_dir" && mkdir -p "$corrupt_dir"
src_artifact="$(ls "$trace_dir"/*.jsonl | head -n 1)"
grep -v '"type":"cycle_detected"' "$src_artifact" > "$corrupt_dir/corrupted.jsonl"
if cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- --check "$corrupt_dir" \
    > /dev/null 2>&1; then
    echo "acdgc-report --check accepted a corrupted artifact" >&2
    exit 1
fi

echo "==> sample stream gate (shuffled samples must FAIL --check)"
# Second negative control, aimed at the time-series checker: reverse the
# order of the sample lines in the sampled artifact. Timestamps and
# counters are then non-monotone, so --check must reject it.
{
    grep -v '"type":"sample"' "$sampled_artifact"
    grep '"type":"sample"' "$sampled_artifact" | tac
} > "$corrupt_dir/samples-reversed.jsonl"
if cargo run -q --offline --release -p acdgc-bench --bin acdgc-report -- \
    --check "$corrupt_dir/samples-reversed.jsonl" > /dev/null 2>&1; then
    echo "acdgc-report --check accepted a non-monotone sample stream" >&2
    exit 1
fi

echo "==> fan-out determinism gate (release)"
# gc_round's per-phase fan-out must be observationally identical to the
# same round driven by hand through run_lgc / run_monitor / take_snapshot /
# run_scan, one process at a time — every metric counter, merged and per
# process. Run the parity test under --release as well: optimization-level
# differences (and any future real thread pool) must not introduce
# scheduling-dependent behaviour that debug builds hide.
cargo test -q --offline --release --test integration_modes \
    parallel_phases_are_observationally_identical
# Same bar for telemetry sampling: observation must never perturb the run.
cargo test -q --offline --release --test integration_modes \
    sampling_leaves_the_metrics_ledgers_bit_identical
# And for tracing: events and the Lamport clocks piggybacked on every
# envelope are pure observation — tracing on vs off (with sampling and the
# mutator config flipped along) must leave every ledger bit-identical.
cargo test -q --offline --release --test integration_modes \
    sampling_lamport_and_mutator_config_are_jointly_inert
# Diamond ladders under optimization too: the CDM ceilings of
# tests/ladder.rs are exact counts, the same in either profile.
cargo test -q --offline --release --test ladder
# And the scan cap: a 256-ring wave drained without the processes of a
# ring herding onto it, and untried garbage reached past scions whose
# detections always fail (docs/ALGORITHM.md deviation #18).
cargo test -q --offline --release --test rings_herding --test regression_scan_starvation

echo "==> benchmark (its own workspace, built against these crates)"
# benchmark/ path-depends on crates/* but is not a member of this
# workspace, so nothing above compiles it: its unit tests and a smoke run
# of all four workloads (untraced, then traced — traced-vs-untraced counter
# equality is one of its own checks) prove the surface pinned in
# benchmark/src/api.rs still holds.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke > /dev/null

echo "==> rustdoc (-D warnings, no deps)"
# The public API carries #![warn(missing_docs)] on acdgc-sim and
# acdgc-model; broken intra-doc links or missing docs fail the build here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "==> clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustfmt check"
cargo fmt --check

echo "CI OK"
