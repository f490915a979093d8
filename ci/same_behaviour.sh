#!/usr/bin/env bash
# Behaviour-identity check between two builds of this repository: runs the
# deterministic artifact matrix on both and `cmp`s every output. A change
# that claims to alter cost but not behaviour (a pure refactor, a perf
# optimisation) must pass it against the build of its parent commit.
#
# Usage: ci/same_behaviour.sh BASE_BUILD CHANGE_BUILD
#   BASE_BUILD, CHANGE_BUILD: build directories holding rgb_fuzz and rgb_exp.
#   SEEDS=N (environment, default 40): fuzz seeds per profile, from seed 1.
#
# The matrix (20 artifacts):
#   - rgb_fuzz --flight-full over seeds 1..SEEDS in seven profiles: base,
#     --partitions 1, --churn 1 --stability 1, --groups 4, --groups 4
#     --churn 1, --snapshot-join 1, and all modes at once (--groups 4
#     --churn 1 --stability 1 --snapshot-join 1 --partitions 1) (report,
#     flight ring dump and exit code must match);
#   - rgb_exp trace --members 500 (Chrome trace export);
#   - rgb_exp trace --members 5000: the only artifact whose span and
#     flight rings wrap, so the overwrite-oldest order is compared too;
#   - rgb_exp metrics --catalog (the catalog's names, types and order);
#   - rgb_exp bench --smoke --detect --oscillation --json (the bench JSON
#     has no host-dependent field);
#   - rgb_exp run --json --no-table for query.schemes, flashcrowd.agg,
#     churn.converge, mobility.handoff and table2.proto: the only artifacts
#     that run aggregate_mq = false, retain_tier 1 and 2 and
#     disseminate_down = false;
#   - bench_suite on every BENCHMARK.json workload at seed 11, --seconds 2,
#     with its timing fields stripped (setup_s, window_s, rss_b_per_member,
#     slices, slowdown, wall): every exact metric, count and outcome must
#     match. A side's bench_suite is always built from that build's source
#     tree (its CMakeCache) into BUILD/bench_suite_build, incrementally, so
#     no binary left by an older tree is ever compared.
# Each pair runs base and change side by side; exits 1 on any difference.
#
# What this matrix proves about the query plane (handle_query, QueryClient,
# MemberUnion, the systems' membership() unions):
#   - the rgb_fuzz profiles, like ci/fuzz_matrix.sh, send no query
#     messages; their oracles read RgbSystem::membership(kTopmost), a union
#     of one view;
#   - bench_suite query_mix is the only artifact that answers group-scoped
#     queries (TMS and BMS while writes run), and it compares their content
#     only through its stale count;
#   - rgb_exp run query.schemes is the only artifact that issues group-less
#     queries and the only one that runs IMS, but it compares result sizes,
#     not records.
# The check on the records themselves is the union-rule tests in
# tests/rgb/query_test.cpp (QueryUnionTest, MemberUnion).
set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_BUILD CHANGE_BUILD" >&2
  exit 2
fi
BASE="$1"
CHANGE="$2"
SEEDS="${SEEDS:-40}"
for dir in "$BASE" "$CHANGE"; do
  for tool in rgb_fuzz rgb_exp; do
    if [ ! -x "$dir/$tool" ]; then
      echo "missing $dir/$tool" >&2
      exit 2
    fi
  done
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
failures=0
checks=0

# compare NAME TOOL ARGS... — runs TOOL on both builds; an @OUT@ argument
# becomes a per-side output file that is compared along with stdout and
# the exit code (and must not come out empty).
compare() {
  local name="$1" tool="$2"
  shift 2
  local side dir args pids=() wants_out=0
  for a in "$@"; do [ "$a" = "@OUT@" ] && wants_out=1; done
  for side in base change; do
    if [ "$side" = base ]; then dir="$BASE"; else dir="$CHANGE"; fi
    args=()
    for a in "$@"; do
      if [ "$a" = "@OUT@" ]; then
        args+=("$work/$side.out")
      else
        args+=("$a")
      fi
    done
    : > "$work/$side.out"
    ( "$dir/$tool" "${args[@]}" > "$work/$side.stdout" 2> /dev/null
      echo "exit $?" >> "$work/$side.stdout" ) &
    pids+=($!)
  done
  wait "${pids[@]}"
  checks=$((checks + 1))
  if [ "$wants_out" -eq 1 ] && [ ! -s "$work/base.out" ]; then
    echo "NO OUTPUT $name"
    failures=$((failures + 1))
  elif cmp -s "$work/base.stdout" "$work/change.stdout" &&
       cmp -s "$work/base.out" "$work/change.out"; then
    echo "same    $name"
  else
    echo "DIFFERS $name"
    failures=$((failures + 1))
  fi
}

profiles=(
  ""
  "--partitions 1"
  "--churn 1 --stability 1"
  "--groups 4"
  "--groups 4 --churn 1"
  "--snapshot-join 1"
  "--groups 4 --churn 1 --stability 1 --snapshot-join 1 --partitions 1"
)
for profile in "${profiles[@]}"; do
  # shellcheck disable=SC2086  # a profile is a list of flags
  compare "rgb_fuzz ${profile:-(base)}" rgb_fuzz \
      --seeds "$SEEDS" --start 1 --flight-full $profile
done

for members in 500 5000; do
  compare "rgb_exp trace --members $members" rgb_exp \
      trace --members "$members" --out @OUT@
done

compare "rgb_exp metrics --catalog" rgb_exp metrics --catalog

compare "rgb_exp bench --smoke --detect --oscillation" \
    rgb_exp bench --smoke --detect --oscillation --json @OUT@

for scenario in query.schemes flashcrowd.agg churn.converge mobility.handoff \
    table2.proto; do
  compare "rgb_exp run $scenario" rgb_exp run "$scenario" --json @OUT@ \
      --no-table
done

# suite_of BUILD — builds bench_suite from BUILD's source tree into
# BUILD/bench_suite_build (incrementally) and prints its path.
suite_of() {
  local dir="$1" src
  src="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$dir/CMakeCache.txt" \
      2> /dev/null)"
  [ -n "$src" ] && [ -d "$src/bench/suite" ] || return 1
  cmake -S "$src/bench/suite" -B "$dir/bench_suite_build" \
      -DCMAKE_BUILD_TYPE=Release > /dev/null 2>&1 &&
    cmake --build "$dir/bench_suite_build" --target bench_suite -j 4 \
      > /dev/null 2>&1 || return 1
  echo "$dir/bench_suite_build/bench_suite"
}

# The detail and result lines of one run, timing fields removed.
strip_timing() {
  python3 -c '
import json, sys
def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items()
                if k not in ("setup_s", "window_s", "rss_b_per_member")
                and not k.startswith(("slices", "slowdown")) and "wall" not in k}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x
for line in sys.stdin.read().splitlines()[-2:]:
    print(json.dumps(strip(json.loads(line)), sort_keys=True))
'
}

base_suite="$(suite_of "$BASE")" || base_suite=""
change_suite="$(suite_of "$CHANGE")" || change_suite=""
if [ -z "$base_suite" ] || [ -z "$change_suite" ]; then
  echo "NO BUILD bench_suite"
  checks=$((checks + 1))
  failures=$((failures + 1))
else
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
      "$(dirname "$0")/../BENCHMARK.json")"
  for w in $workloads; do
    pids=()
    for side in base change; do
      if [ "$side" = base ]; then suite="$base_suite"; else suite="$change_suite"; fi
      ( "$suite" --workload "$w" --seed 11 --seconds 2 --trace 0 2> /dev/null |
          strip_timing > "$work/$side.suite" 2> /dev/null
        echo "exit ${PIPESTATUS[0]}" >> "$work/$side.suite" ) &
      pids+=($!)
    done
    wait "${pids[@]}"
    checks=$((checks + 1))
    if [ "$(wc -l < "$work/base.suite")" -lt 3 ]; then
      echo "NO OUTPUT bench_suite $w"
      failures=$((failures + 1))
    elif cmp -s "$work/base.suite" "$work/change.suite"; then
      echo "same    bench_suite $w (seed 11, 2 s, timing stripped)"
    else
      echo "DIFFERS bench_suite $w (seed 11, 2 s, timing stripped)"
      failures=$((failures + 1))
    fi
  done
fi

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures of $checks artifacts differ" >&2
  exit 1
fi
echo "OK: all $checks artifacts identical"
