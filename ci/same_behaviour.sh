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
# The matrix:
#   - rgb_fuzz --flight-full over seeds 1..SEEDS at --shard-workers 0 and 8,
#     in six profiles: base, --partitions 1, --churn 1 --stability 1,
#     --groups 4, --groups 4 --churn 1, --snapshot-join 1 (report, flight
#     ring dump and exit code must match);
#   - rgb_exp trace --members 500 at --shards 1 and 8 (Chrome trace export);
#   - rgb_exp bench --smoke --deterministic --detect --oscillation --json.
# Each pair runs base and change side by side; exits 1 on any difference.
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
)
for workers in 0 8; do
  for profile in "${profiles[@]}"; do
    # shellcheck disable=SC2086  # a profile is a list of flags
    compare "rgb_fuzz ${profile:-(base)} --shard-workers $workers" rgb_fuzz \
        --seeds "$SEEDS" --start 1 --flight-full --shard-workers "$workers" \
        $profile
  done
done

for shards in 1 8; do
  compare "rgb_exp trace --members 500 --shards $shards" rgb_exp \
      trace --members 500 --shards "$shards" --out @OUT@
done

compare "rgb_exp bench --smoke --deterministic --detect --oscillation" \
    rgb_exp bench --smoke --deterministic --detect --oscillation --json @OUT@

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures of $checks artifacts differ" >&2
  exit 1
fi
echo "OK: all $checks artifacts identical"
