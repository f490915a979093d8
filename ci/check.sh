#!/usr/bin/env bash
# CI check: tier-1 verify (configure + build + ctest) plus an rgb_exp smoke
# run. Usage: ci/check.sh [build-dir]  (default: build)
#
# ctest is invoked by label so shards can split the suite:
#   unit        — fast per-module tests (includes tests/exp determinism)
#   integration — end-to-end, conformance, determinism suites
#   check       — invariant oracles, schedule replay, baseline conformance
#   wire        — wire codec primitives, per-kind round-trip, snapshot codec,
#                 estimate-vs-encoded metering band
#   obs         — golden metric catalog, op tracing, tick series, flight
#                 recorder, violation-trace determinism
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# The library prints nothing: src/ reports through return values, the
# streams its callers hand it and the flight ring, so every byte on a
# process stream comes from a tool, bench or example. A non-comment line of
# src/ that names a standard stream fails the check.
echo "== lint: src/ names no standard stream =="
streams="$(grep -rnE --include='*.hpp' --include='*.cpp' \
    '\b(std::(cout|cerr|clog)|stdout|stderr)\b' src \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|/\*|\*)' || true)"
if [ -n "$streams" ]; then
  echo "FAIL: src/ names a standard stream:" >&2
  echo "$streams" >&2
  exit 1
fi

# Warnings are errors in the check build: the project's -Wall -Wextra
# build stays at zero warnings.
echo "== configure =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON > /dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j

# Note: bare `-j` must come last — it greedily consumes the next token, so
# `-j -L unit` would silently drop the label filter.
echo "== ctest (unit) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L unit -j

echo "== ctest (integration) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L integration -j

echo "== ctest (check) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L check -j

echo "== ctest (wire) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L wire -j

echo "== ctest (obs) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L obs -j

echo "== rgb_exp smoke =="
"$BUILD_DIR/rgb_exp" --list > /dev/null

# A shrunk Table II reliability run must aggregate byte-identically on 1
# and 8 worker threads (the harness determinism contract).
tmp1="$(mktemp)"; tmp8="$(mktemp)"
trap 'rm -f "$tmp1" "$tmp8"' EXIT
"$BUILD_DIR/rgb_exp" run table2.fw_mc --trials 500 --threads 1 \
    --no-table --csv "$tmp1" 2> /dev/null
"$BUILD_DIR/rgb_exp" run table2.fw_mc --trials 500 --threads 8 \
    --no-table --csv "$tmp8" 2> /dev/null
if ! cmp -s "$tmp1" "$tmp8"; then
  echo "FAIL: table2.fw_mc aggregate differs between 1 and 8 threads" >&2
  exit 1
fi
"$BUILD_DIR/rgb_exp" run table2.proto > /dev/null 2>&1

# Usage errors exit 2 where the flag or schedule line is read: a zero
# topology, and any number that is not plain decimal digits or does not fit
# its flag (no sign, no space, no wrap into a narrower type). A flag that the
# selected mode has nothing to apply to exits 2 once all flags are read. Each
# probe runs under a timeout: a build that accepts one of them runs a search
# or bench instead, and must fail here fast. Probes that a lax parser would
# turn into a huge loop or thread count (a `-1`-style value, a large valid
# --threads) are deliberately absent.
echo "== usage errors =="
expect_exit() {  # CODE TOOL ARGS...
  local rc=0
  timeout 10 "$BUILD_DIR/$2" "${@:3}" > /dev/null 2>&1 || rc=$?
  if [ "$rc" != "$1" ]; then
    echo "FAIL: ${*:2} exited $rc, not $1" >&2
    exit 1
  fi
}
expect_usage_error() { expect_exit 2 "$@"; }  # TOOL ARGS...
for flag in --ring --tiers; do
  expect_usage_error rgb_fuzz "$flag" 0
  expect_usage_error rgb_exp bench "$flag" 0
  expect_usage_error rgb_exp trace "$flag" 0
done
expect_usage_error rgb_fuzz --mask 4294967296
expect_usage_error rgb_fuzz --start 18446744073709551615 --seeds 2
expect_usage_error rgb_fuzz --start " -1"
expect_usage_error rgb_fuzz --members 4294967304
expect_usage_error rgb_fuzz --churn 2
expect_usage_error rgb_exp bench --steady-ticks 4294967297
expect_usage_error rgb_exp bench --members " 1"
expect_usage_error rgb_exp run table2.proto --threads 4294967297
expect_usage_error rgb_wire roundtrip --iters -0
usage_sched="$(mktemp)"
printf 'at 18446744073710s heal\n' > "$usage_sched"
expect_usage_error rgb_fuzz --schedule "$usage_sched"
# A replay runs the one seed --start: --seeds beside --schedule, in either
# order, is a usage error (the schedule itself is valid).
printf 'at 1s heal\n' > "$usage_sched"
expect_usage_error rgb_fuzz --schedule "$usage_sched" --seeds 5
expect_usage_error rgb_fuzz --seeds 1 --schedule "$usage_sched"
rm -f "$usage_sched"
# Scale-sweep flags that a multi-group cell has nothing to apply to, before
# or after --multigroup.
for flag in "--members 7" "--join snapshot" --detect --oscillation; do
  # shellcheck disable=SC2086  # a flag and its value, one word each
  expect_usage_error rgb_exp bench --multigroup --smoke --group-members 5 $flag
done
expect_usage_error rgb_exp bench --detect --multigroup --smoke --group-members 5
# RGB-only fixture flags beside a baseline protocol, in either order, and a
# group count of zero.
expect_usage_error rgb_fuzz --proto gossip --groups 4 --seeds 1
expect_usage_error rgb_fuzz --proto tree --stability 1 --seeds 1
expect_usage_error rgb_fuzz --proto flatring --snapshot-join 1 --seeds 1
expect_usage_error rgb_fuzz --stability 0 --proto tree --seeds 1
expect_usage_error rgb_fuzz --groups 0 --seeds 1
# The simulator has one event order: --sharded is an unknown option.
expect_usage_error rgb_fuzz --sharded 1 --seeds 1
expect_usage_error rgb_exp bench --sharded
expect_usage_error rgb_exp trace --sharded
# The bench has no clock and no spans A/B: its artifact is deterministic
# without a flag.
expect_usage_error rgb_exp bench --deterministic
expect_usage_error rgb_exp bench --spans-ab
# --help after a command prints its usage and exits 0.
for command in run bench trace metrics; do
  expect_exit 0 rgb_exp "$command" --help
done
for command in list roundtrip fuzz; do
  expect_exit 0 rgb_wire "$command" --help
done
expect_exit 0 rgb_fuzz --help

# Invariant conformance: the adversarial scenario must hold every oracle
# (exit 1 on any violation).
echo "== rgb_exp --check smoke =="
check_log="$(mktemp)"
if ! "$BUILD_DIR/rgb_exp" run check.adversarial --check --no-table \
    > "$check_log" 2> /dev/null; then
  echo "FAIL: check.adversarial violated an invariant:" >&2
  cat "$check_log" >&2
  rm -f "$check_log"
  exit 1
fi
rm -f "$check_log"

# Fuzz: the generated rgb_fuzz matrix (see ci/fuzz_matrix.sh), zero
# violating seeds in every cell. Fixed seeds keep it deterministic, not
# flaky.
ci/fuzz_matrix.sh "$BUILD_DIR"

# Bench gate: the smoke sweep (200 members, both join modes) with the
# failure-detection trial and the stability A/B runs twice. Both runs must
# exit 0 (every cell converged with zero per-group divergence), their JSON
# artifacts must be byte-identical (the latency histograms, the tick series
# and the detect and oscillation blocks ride in it), the series CSV must
# carry a header and rows, and the oscillation A/B must hold: both cells
# converge after the churn window, the stability cell cuts view changes by
# at least the ROADMAP's 10x bar and suppresses flaps. Every field is a pure
# function of the seed, so exact-threshold gating is not flaky.
echo "== bench gate =="
bench_a="$(mktemp)"; bench_b="$(mktemp)"; series="$(mktemp)"
bench_log="$(mktemp)"
for out in "$bench_a" "$bench_b"; do
  if ! "$BUILD_DIR/rgb_exp" bench --smoke --detect --oscillation \
      --json "$out" --series "$series" 2> "$bench_log"; then
    echo "FAIL: bench smoke did not run clean:" >&2
    cat "$bench_log" >&2
    exit 1
  fi
done
if ! cmp -s "$bench_a" "$bench_b"; then
  echo "FAIL: bench JSON differs between runs" >&2
  exit 1
fi
if [ "$(wc -l < "$series")" -lt 2 ] || ! head -1 "$series" | grep -q '^at_us,'; then
  echo "FAIL: bench --series wrote no header and row" >&2
  exit 1
fi
python3 - "$bench_a" <<'EOF'
import json, sys
cells = {c["stability"]: c for c in json.load(open(sys.argv[1]))["oscillation"]}
off, on = cells[False], cells[True]
assert off["converged"] and on["converged"], "oscillation cell did not converge"
assert on["view_changes"] * 10 <= off["view_changes"], (
    f"stability gave only {off['view_changes']}/{max(on['view_changes'], 1)}x "
    "fewer view changes (need >= 10x)")
assert on["suppressed_flaps"] > 0, "stability cell suppressed no flaps"
EOF

# bench.multigroup sublinearity gate: every cell of the multi-group serving
# sweep must converge with zero per-group divergence (exit code and JSON),
# and the top cell's steady bytes per link must beat G independent
# hierarchies by >= 4x, computed below from bytes_per_link_tick
# (packing_ratio < 0.25 — the committed BENCH_PR10.json holds the full
# G=1000 x 100 sweep; this smoke re-proves the shape on a bounded cell).
# --series writes the first cell's tick series: a header and a row.
echo "== bench.multigroup gate =="
# Empty both files first, so bytes the bench gate left cannot pass for this
# run's.
: > "$bench_a"; : > "$series"
if ! "$BUILD_DIR/rgb_exp" bench --multigroup --smoke --group-members 20 \
    --json "$bench_a" --series "$series" 2> "$bench_log"; then
  echo "FAIL: bench --multigroup smoke did not run clean:" >&2
  cat "$bench_log" >&2
  exit 1
fi
python3 - "$bench_a" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
assert all(c["converged"] and c["group_divergence"] == 0 for c in cells), \
    "multigroup cell failed per-group convergence"
g1 = next(c for c in cells if c["groups"] == 1)["steady"]["bytes_per_link_tick"]
top = max(cells, key=lambda c: c["groups"])
packing_ratio = top["steady"]["bytes_per_link_tick"] / (top["groups"] * g1)
assert top["groups"] > 1 and packing_ratio < 0.25, (
    f"G={top['groups']} packing_ratio {packing_ratio} >= 0.25")
print(f"G={top['groups']} packing_ratio {packing_ratio:.6g}")
EOF
if [ "$(wc -l < "$series")" -lt 2 ] || ! head -1 "$series" | grep -q '^at_us,'; then
  echo "FAIL: bench --multigroup --series wrote no header and row" >&2
  exit 1
fi
rm -f "$bench_a" "$bench_b" "$series" "$bench_log"

# Wire codec conformance: every registered kind must round-trip
# byte-identically on randomized messages — since wire v4 that includes the
# group-scoped bodies (gid-stamped ops/entries, packed per-group digests,
# the kSummary sync phase and sync-scope gid lists), since v5 the kBuckets
# phase, per-group bucket digests and bucket scopes — and a bounded
# mutation-fuzz sweep must produce only clean accepts/rejects (no crash,
# no UB, accepted mutants canonical). Fixed seeds keep both deterministic.
echo "== rgb_wire smoke =="
"$BUILD_DIR/rgb_wire" roundtrip --iters 50 --seed 1 > /dev/null
"$BUILD_DIR/rgb_wire" fuzz --iters 5000 --seed 1 > /dev/null

# Observability determinism gate (the bench gate above covers the bench
# JSON): a violating fuzz replay must print a byte-identical report +
# flight-recorder trace.
echo "== obs determinism gate =="
obs1="$(mktemp)"; obs2="$(mktemp)"
sched="$(mktemp)"
printf 'schedule ci-unhealed-partition\nat 1s partition ne 0 1\nat 2s handoff mh 2 ap 1\n' \
    > "$sched"
"$BUILD_DIR/rgb_fuzz" --schedule "$sched" --start 3 > "$obs1" || true
"$BUILD_DIR/rgb_fuzz" --schedule "$sched" --start 3 > "$obs2" || true
if ! cmp -s "$obs1" "$obs2"; then
  echo "FAIL: fuzz replay (report + flight trace) differs between runs" >&2
  exit 1
fi
if ! grep -q "flight recorder:" "$obs1"; then
  echo "FAIL: violating replay did not dump a flight-recorder trace" >&2
  exit 1
fi

# A violating search prints a minimized repro and the command that replays
# it; that command must replay it exactly as the search's own flags do. The
# tree baseline violates at seed 1, and the non-default --mask shapes the
# report, so a replay line that drops a flag prints a different replay.
echo "== rgb_fuzz replay line =="
search=(--proto tree --mask 62)
"$BUILD_DIR/rgb_fuzz" "${search[@]}" --seeds 1 --start 1 --quiet > "$obs1" \
    || true
awk '/^--- replay with:/ { f = 0 } f; /^--- minimized repro/ { f = 1 }' \
    "$obs1" > "$sched"
replay="$(sed -n 's/^--- replay with: rgb_fuzz \(.*\) --schedule .*/\1/p' \
    "$obs1")"
if [ -z "$replay" ]; then
  echo "FAIL: rgb_fuzz ${search[*]} --seeds 1 printed no replay line" >&2
  exit 1
fi
# shellcheck disable=SC2086  # the replay line's flags, one word each
"$BUILD_DIR/rgb_fuzz" $replay --schedule "$sched" > "$obs1" || true
"$BUILD_DIR/rgb_fuzz" "${search[@]}" --start 1 --schedule "$sched" \
    > "$obs2" || true
if ! cmp -s "$obs1" "$obs2"; then
  echo "FAIL: 'rgb_fuzz $replay' replays the repro differently from" \
      "rgb_fuzz ${search[*]} --start 1" >&2
  exit 1
fi
rm -f "$obs1" "$obs2" "$sched"

# Causal trace export gate. `rgb_exp trace` must emit valid Chrome
# trace-event JSON with balanced cross-NE flow events and no dropped span,
# and the full flight-ring dump of the fuzz driver must be present.
echo "== trace export gate =="
tr1="$(mktemp)"
"$BUILD_DIR/rgb_exp" trace --members 500 --out "$tr1" 2> /dev/null
python3 - "$tr1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
phases = {}
for e in events:
    phases[e["ph"]] = phases.get(e["ph"], 0) + 1
assert phases.get("s", 0) > 0, "no flow-start events in the trace"
assert phases.get("s") == phases.get("f"), "unbalanced flow start/finish"
assert phases.get("X", 0) > 0, "no handler complete events"
assert doc["otherData"]["spans_dropped"] == 0, "span ring overflowed"
EOF
"$BUILD_DIR/rgb_fuzz" --seeds 3 --start 1 --flight-full --quiet > "$tr1"
if ! grep -q "flight recorder:" "$tr1"; then
  echo "FAIL: --flight-full did not dump the flight ring" >&2
  exit 1
fi
rm -f "$tr1"

# Benchmark suite smoke: every bench/suite workload at ~2% size, the traced
# run's self-checks (the wire-sizer call count among them), and the check
# that BENCHMARK.json matches the compiled metric catalog. run.py builds the
# suite into .bench_build/ itself and exits non-zero on any failure.
echo "== bench suite smoke =="
python3 bench/suite/run.py smoke > /dev/null

# Micro-benchmark smoke: the event-kernel, member-table, directory,
# dedup-set, codec and network cells of bench/bench_micro.cpp, which perf
# changes to those structures cite, run once at a token run length, so a
# cell that breaks fails CI. bench_micro is built only when
# google-benchmark is installed.
echo "== bench_micro smoke (kernel, table, directory, dedup set, codec, network) =="
if [ -x "$BUILD_DIR/bench_micro" ]; then
  micro_cells='Simulator|MemberTable|Group|Directory|BoundedIdSet|Codec|Network'
  "$BUILD_DIR/bench_micro" --benchmark_filter="$micro_cells" \
      --benchmark_min_time=0.01
else
  echo "skip: bench_micro not built (google-benchmark not found)"
fi

# AddressSanitizer + UndefinedBehaviorSanitizer gate over the unit, wire
# and obs suites (the wire suite feeds hostile frames to the real decoders;
# the obs suite drives the tracer's bounded rings through wrap; the unit
# suite replays the fuzz seeds whose token-retx alert completes a cut):
# a separate Debug build (asserts on, libstdc++ container checks on) in
# which any memory error, UB or failed assert fails CI.
echo "== asan+ubsan unit tests =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" > /dev/null
cmake --build "$ASAN_DIR" -j --target rgb_unit_tests rgb_wire_tests \
    rgb_obs_tests > /dev/null
ctest --test-dir "$ASAN_DIR" --output-on-failure -L 'unit|wire|obs'

# ThreadSanitizer gate over the threads the program runs: the TrialRunner
# pool (src/exp/runner.cpp), which runs one trial per thread, and the
# --check observer (src/check/observer.hpp), whose mutex guards the merged
# report. Build rgb_exp with -fsanitize=thread and run three scenarios on 8
# runner threads: check.adversarial under the oracles, churn.converge and
# table2.proto. halt_on_error turns any finding into a CI failure, and
# each CSV aggregate must match the Release build's at 1 thread byte for
# byte.
echo "== tsan trial runner =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
cmake --build "$TSAN_DIR" -j --target rgb_exp > /dev/null
tsan_csv="$(mktemp)"; tsan_ref="$(mktemp)"; tsan_log="$(mktemp)"
for run in "check.adversarial --check" churn.converge table2.proto; do
  # shellcheck disable=SC2086  # a scenario id and its flags, one word each
  if ! TSAN_OPTIONS="halt_on_error=1" "$TSAN_DIR/rgb_exp" run $run \
      --threads 8 --no-table --csv "$tsan_csv" \
      > /dev/null 2> "$tsan_log"; then
    echo "FAIL: rgb_exp run $run --threads 8 under TSan:" >&2
    cat "$tsan_log" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  "$BUILD_DIR/rgb_exp" run $run --threads 1 --no-table --csv "$tsan_ref" \
      > /dev/null 2>&1
  if ! cmp -s "$tsan_csv" "$tsan_ref"; then
    echo "FAIL: rgb_exp run $run differs between TSan at 8 threads and" \
        "Release at 1" >&2
    exit 1
  fi
done
rm -f "$tsan_csv" "$tsan_ref" "$tsan_log"

echo "OK"
