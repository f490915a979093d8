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

# Invariant conformance: the adversarial scenario must hold every oracle
# (exit 1 on any violation), and a bounded rgb_fuzz smoke over a fixed seed
# range must find zero violations in the RGB scenarios — the paper's fault
# model (crash/recover + loss bursts + handoff churn) is machine-checked
# green on every CI run. Fixed seeds keep this deterministic, not flaky.
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

echo "== rgb_fuzz smoke =="
"$BUILD_DIR/rgb_fuzz" --seeds 12 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --seeds 6 --start 1 --bursts 0 --handoffs 0 --quiet

# Partition/heal conformance gate: the full 60-seed profile with partition
# faults enabled (the ROADMAP open item closed by the post-heal
# reconciliation round) must stay at zero violating seeds — this was 8/60
# before the reconcile subsystem and the claim-epoch lattice landed. The
# lossy-surge snapshot-join profile holds the bulk-join path (with its
# flush-edge ack/retx) to the same bar. Fixed seeds, bounded time (~2 min).
echo "== rgb_fuzz partition gate (60 seeds) =="
"$BUILD_DIR/rgb_fuzz" --partitions 1 --seeds 60 --start 1 --quiet
echo "== rgb_fuzz snapshot-join lossy profile =="
"$BUILD_DIR/rgb_fuzz" --partitions 1 --snapshot-join 1 --seeds 20 --start 1 \
    --quiet

# Large-group gates: every other gate runs 8 members, so no group there
# exceeds the bucket threshold (ViewSync::kBucketThreshold, 256 records on
# both ends) and no exchange takes the bucket-level anti-entropy path of
# wire v5. At 600 members, in one group and in four, differing groups go
# down to bucket level under partition faults; both must stay at zero
# violating seeds. At 250 members the one group stays under the threshold,
# so a differing group ships whole: kFulls of hundreds of records, the
# exchange that a deferred kSummary escalation (ViewSync::escalate) starts
# later and larger than the 8-member gates ever see.
echo "== rgb_fuzz large-group gates (bucket-level anti-entropy) =="
"$BUILD_DIR/rgb_fuzz" --members 600 --partitions 1 --seeds 20 --start 1 \
    --quiet
"$BUILD_DIR/rgb_fuzz" --members 600 --groups 4 --partitions 1 --seeds 20 \
    --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --members 250 --partitions 1 --seeds 20 --start 1 \
    --quiet

# Sustained-churn conformance gate (the PR8 stability layer). The churn
# profile adds 0.5–3%-per-tick member churn windows to the base fault mix;
# both detector modes must hold every oracle at zero violations — the
# single-observer baseline (stability off) and the multi-observer cut
# detector (stability on), serially and on the sharded runner at 8
# workers. Fixed seeds, bounded time. The serial stability profile runs 40
# seeds, the range over which the cut timer's verification wait and the
# repair path's evidence consumption (StabilityPlane::forget) were checked.
echo "== rgb_fuzz churn gate (stability off/on, serial + sharded) =="
"$BUILD_DIR/rgb_fuzz" --churn 1 --seeds 15 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --churn 1 --stability 1 --seeds 40 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --churn 1 --seeds 8 --start 1 --shard-workers 8 --quiet
"$BUILD_DIR/rgb_fuzz" --churn 1 --stability 1 --seeds 8 --start 1 \
    --shard-workers 8 --quiet

# AP-crash churn gates. At 100, 250 and 600 members, churn strands members
# at crashed APs and re-joins them at another AP of the same ring while
# that ring's leader is down. These profiles found dead members left
# Operational on every NE while the MQ cancelled a join against the
# departure that followed it (5, 10 and 5 violating seeds); the departure
# now absorbs the join, and all three must stay at zero violating seeds.
echo "== rgb_fuzz AP-crash churn gates (100, 250 and 600 members) =="
"$BUILD_DIR/rgb_fuzz" --members 100 --churn 1 --seeds 40 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --members 600 --churn 1 --seeds 20 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --members 250 --churn 1 --stability 1 --seeds 40 \
    --start 1 --quiet

# Sharded-runner determinism gates. The sharded kernel's contract is that
# the trajectory depends only on the *logical* shard count (fixed by
# ring_size), never on the worker-thread count: the same fuzz profile and
# the same deterministic bench must be byte-identical at 1, 2 and 8 shard
# workers, and the fuzz profiles must stay at zero violations on the
# sharded runner too.
echo "== sharded fuzz smoke + worker-identity gate =="
sw1="$(mktemp)"; sw2="$(mktemp)"; sw8="$(mktemp)"
"$BUILD_DIR/rgb_fuzz" --seeds 12 --start 1 --shard-workers 1 --quiet > "$sw1"
"$BUILD_DIR/rgb_fuzz" --seeds 12 --start 1 --shard-workers 2 --quiet > "$sw2"
"$BUILD_DIR/rgb_fuzz" --seeds 12 --start 1 --shard-workers 8 --quiet > "$sw8"
if ! cmp -s "$sw1" "$sw2" || ! cmp -s "$sw1" "$sw8"; then
  echo "FAIL: sharded fuzz output differs across 1/2/8 shard workers" >&2
  exit 1
fi
"$BUILD_DIR/rgb_fuzz" --partitions 1 --seeds 12 --start 1 --shard-workers 2 \
    --quiet

# Multi-group conformance gates (PR10). The adversarial profiles re-run
# with the hierarchy multiplexing several groups (members fan out over the
# deterministic member_groups() stride): every oracle now quantifies over
# (group, guid) and must stay at zero violations, serially and on the
# sharded runner — with the serial and 8-worker outputs byte-identical.
echo "== multi-group fuzz gate (serial + sharded worker-identity) =="
mg0="$(mktemp)"; mg8="$(mktemp)"
"$BUILD_DIR/rgb_fuzz" --groups 4 --seeds 12 --start 1 --quiet > "$mg0"
"$BUILD_DIR/rgb_fuzz" --groups 4 --seeds 12 --start 1 --shard-workers 8 \
    --quiet > "$mg8"
if ! cmp -s "$mg0" "$mg8"; then
  echo "FAIL: multi-group fuzz output differs between serial and 8 workers" >&2
  exit 1
fi
"$BUILD_DIR/rgb_fuzz" --groups 8 --partitions 1 --seeds 8 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" --groups 8 --churn 1 --stability 1 --seeds 6 --start 1 \
    --quiet
rm -f "$mg0" "$mg8"

# All-modes gate: every protocol mode the fuzz driver can switch on at once
# (groups, sustained churn, the stability layer, snapshot bulk-join and
# partition faults), so the modes' interactions are held to zero violations
# serially and on the sharded runner, not one profile at a time.
echo "== all-modes fuzz gate (serial + sharded) =="
all_modes=(--groups 4 --churn 1 --stability 1 --snapshot-join 1 --partitions 1)
"$BUILD_DIR/rgb_fuzz" "${all_modes[@]}" --seeds 20 --start 1 --quiet
"$BUILD_DIR/rgb_fuzz" "${all_modes[@]}" --seeds 8 --start 1 \
    --shard-workers 8 --quiet

# Mode cross-product gate: rgb_fuzz over members {8, 100, 250, 600} x
# groups {1, 4} x churn x stability x snapshot-join x partitions, 128
# profiles at seeds 1-40, in 4 parallel processes. The gates above sample
# this space one profile at a time; this one holds the whole product to
# zero violating seeds, the end-to-end coverage behind the MQ's one
# aggregation rule (message_queue.hpp). A violating profile prints its
# flags and report.
echo "== rgb_fuzz mode cross-product (128 profiles x 40 seeds) =="
sizes=("--members "{8,100,250,600}" --groups "{1,4})
detect=("--churn "{0,1}" --stability "{0,1})
modes=("--snapshot-join "{0,1}" --partitions "{0,1})
for size in "${sizes[@]}"; do
  for d in "${detect[@]}"; do
    for mode in "${modes[@]}"; do echo "$size $d $mode"; done
  done
done |
  xargs -P 4 -L 1 sh -c \
    'out="$("$0" --seeds 40 --start 1 --quiet "$@")" || {
       echo "FAIL: rgb_fuzz $* --seeds 40 --start 1"; echo "$out"; exit 1; }' \
    "$BUILD_DIR/rgb_fuzz"
echo "rgb_fuzz mode cross-product: 0 violating seeds in 128 profiles"

echo "== sharded bench determinism gate =="
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --shards 1 --json "$sw1" \
    2> /dev/null
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --shards 2 --json "$sw2" \
    2> /dev/null
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --shards 8 --json "$sw8" \
    2> /dev/null
if ! cmp -s "$sw1" "$sw2" || ! cmp -s "$sw1" "$sw8"; then
  echo "FAIL: deterministic bench JSON differs across 1/2/8 shard workers" >&2
  exit 1
fi

# bench.multigroup determinism + sublinearity gate (PR10): the multi-group
# serving cell must be byte-identical at 1/2/8 shard workers, every cell
# must converge with zero per-group divergence (exit code), and the G-cell
# steady bytes per link must beat G independent hierarchies by >= 4x
# (packing_ratio < 0.25 — the committed BENCH_PR10.json holds the full
# G=1000 x 100 sweep; this smoke re-proves the shape on a bounded cell).
echo "== bench.multigroup determinism gate =="
"$BUILD_DIR/rgb_exp" bench --multigroup --smoke --group-members 20 \
    --deterministic --shards 1 --json "$sw1" 2> /dev/null
"$BUILD_DIR/rgb_exp" bench --multigroup --smoke --group-members 20 \
    --deterministic --shards 2 --json "$sw2" 2> /dev/null
"$BUILD_DIR/rgb_exp" bench --multigroup --smoke --group-members 20 \
    --deterministic --shards 8 --json "$sw8" 2> /dev/null
if ! cmp -s "$sw1" "$sw2" || ! cmp -s "$sw1" "$sw8"; then
  echo "FAIL: multigroup bench JSON differs across 1/2/8 shard workers" >&2
  exit 1
fi
python3 - "$sw1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cells = doc["cells"]
assert all(c["converged"] and c["group_divergence"] == 0 for c in cells), \
    "multigroup cell failed per-group convergence"
top = max(cells, key=lambda c: c["groups"])
assert top["groups"] > 1 and top["packing_ratio"] < 0.25, (
    f"G={top['groups']} packing_ratio {top['packing_ratio']} >= 0.25")
EOF
rm -f "$sw1" "$sw2" "$sw8"

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

# Perf trajectory: a bounded scale-bench smoke must run clean (converged
# steady-state cells) and emit the BENCH json artifact, so every CI run
# keeps a point on the trajectory next to the committed BENCH_PR*.json
# (full sweeps: `rgb_exp bench --members 1000,20000,100000 --join both`).
echo "== rgb_exp bench smoke =="
bench_log="$(mktemp)"
if ! "$BUILD_DIR/rgb_exp" bench --smoke --json "$BUILD_DIR/BENCH_PR6.json" \
    --series "$BUILD_DIR/BENCH_PR6_series.csv" --detect 2> "$bench_log"; then
  echo "FAIL: bench smoke did not run clean:" >&2
  cat "$bench_log" >&2
  rm -f "$bench_log"
  exit 1
fi
rm -f "$bench_log"
test -s "$BUILD_DIR/BENCH_PR6.json"
# The series artifact must carry actual points (header + rows).
test "$(wc -l < "$BUILD_DIR/BENCH_PR6_series.csv")" -gt 1

# Stability A/B oscillation smoke (PR8): the flap-suppression comparison
# must run clean, both cells must converge after the churn window, and the
# stability cell must cut steady view changes by at least the ROADMAP's
# 10x bar. The trial is fully deterministic, so exact-threshold gating is
# not flaky.
echo "== oscillation A/B smoke =="
osc_json="$(mktemp)"
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --oscillation \
    --json "$osc_json" 2> /dev/null
python3 - "$osc_json" <<'EOF'
import json, sys
cells = {c["stability"]: c for c in json.load(open(sys.argv[1]))["oscillation"]}
off, on = cells[False], cells[True]
assert off["converged"] and on["converged"], "oscillation cell did not converge"
assert on["view_changes"] * 10 <= off["view_changes"], (
    f"stability gave only {off['view_changes']}/{max(on['view_changes'], 1)}x "
    "fewer view changes (need >= 10x)")
assert on["suppressed_flaps"] > 0, "stability cell suppressed no flaps"
EOF
rm -f "$osc_json"

# Observability determinism gates. The deterministic bench (wall-clock
# fields zeroed) must be byte-identical run-to-run — that covers the
# latency histograms and the tick series riding in the JSON. A violating
# fuzz replay must print a byte-identical report + flight-recorder trace.
echo "== obs determinism gates =="
obs1="$(mktemp)"; obs2="$(mktemp)"
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --detect --json "$obs1" \
    2> /dev/null
"$BUILD_DIR/rgb_exp" bench --smoke --deterministic --detect --json "$obs2" \
    2> /dev/null
if ! cmp -s "$obs1" "$obs2"; then
  echo "FAIL: deterministic bench JSON differs between runs" >&2
  exit 1
fi
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
rm -f "$obs1" "$obs2" "$sched"

# Causal trace export gate (PR9). `rgb_exp trace` must emit valid Chrome
# trace-event JSON with cross-NE flow events, and the export — spans,
# flow binding ids, track metadata, everything — must be byte-identical
# at 1, 2 and 8 shard workers (the span layer's determinism contract).
# The full flight-ring dump holds the same bar on the fuzz driver.
echo "== trace export gate =="
tr1="$(mktemp)"; tr2="$(mktemp)"; tr8="$(mktemp)"
"$BUILD_DIR/rgb_exp" trace --members 500 --shards 1 --out "$tr1" 2> /dev/null
"$BUILD_DIR/rgb_exp" trace --members 500 --shards 2 --out "$tr2" 2> /dev/null
"$BUILD_DIR/rgb_exp" trace --members 500 --shards 8 --out "$tr8" 2> /dev/null
if ! cmp -s "$tr1" "$tr2" || ! cmp -s "$tr1" "$tr8"; then
  echo "FAIL: trace export differs across 1/2/8 shard workers" >&2
  exit 1
fi
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
"$BUILD_DIR/rgb_fuzz" --seeds 3 --start 1 --flight-full --shard-workers 1 \
    --quiet > "$tr1"
"$BUILD_DIR/rgb_fuzz" --seeds 3 --start 1 --flight-full --shard-workers 2 \
    --quiet > "$tr2"
"$BUILD_DIR/rgb_fuzz" --seeds 3 --start 1 --flight-full --shard-workers 8 \
    --quiet > "$tr8"
if ! cmp -s "$tr1" "$tr2" || ! cmp -s "$tr1" "$tr8"; then
  echo "FAIL: --flight-full dump differs across 1/2/8 shard workers" >&2
  exit 1
fi
if ! grep -q "flight recorder:" "$tr1"; then
  echo "FAIL: --flight-full did not dump the flight ring" >&2
  exit 1
fi
rm -f "$tr1" "$tr2" "$tr8"

# Benchmark suite smoke: every bench/suite workload at ~2% size, the traced
# run's self-checks (the wire-sizer call count among them), and the check
# that BENCHMARK.json matches the compiled metric catalog. run.py builds the
# suite into .bench_build/ itself and exits non-zero on any failure.
echo "== bench suite smoke =="
python3 bench/suite/run.py smoke > /dev/null

# Micro-benchmark smoke: the member-table, directory, dedup-set and codec
# cells of bench/bench_micro.cpp, which perf changes to those structures
# cite, run once at a token run length, so a cell that breaks fails CI.
# bench_micro is built only when google-benchmark is installed.
echo "== bench_micro smoke (member table, directory, dedup set, codec cells) =="
if [ -x "$BUILD_DIR/bench_micro" ]; then
  "$BUILD_DIR/bench_micro" \
      --benchmark_filter='MemberTable|Group|Directory|BoundedIdSet|Codec' \
      --benchmark_min_time=0.01
else
  echo "skip: bench_micro not built (google-benchmark not found)"
fi

# AddressSanitizer + UndefinedBehaviorSanitizer gate over the unit, wire
# and obs suites (the wire suite feeds hostile frames to the real decoders;
# the obs suite drives the tracer's bounded rings through wrap and merge):
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

# ThreadSanitizer gate over the concurrent kernel (sim worker pool +
# cross-shard outboxes, net stripe metering, striped obs instruments,
# atomic protocol counters): build the library and the two drivers with
# -fsanitize=thread, then run bounded sharded smokes at 8 workers so shard
# windows genuinely race. The trace export is the one smoke with spans on
# (per-stripe span ids and causal contexts, rings that wrap); its output
# must also match the Release build's byte for byte. halt_on_error turns
# any finding into a CI failure.
echo "== tsan sharded smoke =="
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
cmake --build "$TSAN_DIR" -j --target rgb_fuzz rgb_exp > /dev/null
tsan_bench="$(mktemp)"
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_DIR/rgb_fuzz" --seeds 4 --start 1 --shard-workers 8 --quiet
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_DIR/rgb_fuzz" --partitions 1 --seeds 3 --start 1 \
    --shard-workers 8 --quiet
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_DIR/rgb_fuzz" --churn 1 --stability 1 --seeds 3 --start 1 \
    --shard-workers 8 --quiet
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_DIR/rgb_exp" bench --members 1000 --join both \
    --deterministic --shards 8 --json "$tsan_bench" 2> /dev/null
test -s "$tsan_bench"
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_DIR/rgb_exp" trace --members 5000 --shards 8 --out "$tsan_bench" \
    2> /dev/null
tsan_ref="$(mktemp)"
"$BUILD_DIR/rgb_exp" trace --members 5000 --shards 8 --out "$tsan_ref" \
    2> /dev/null
if ! cmp -s "$tsan_bench" "$tsan_ref"; then
  echo "FAIL: trace export differs between the TSan and Release builds" >&2
  exit 1
fi
rm -f "$tsan_bench" "$tsan_ref"

echo "OK"
