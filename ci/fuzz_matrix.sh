#!/usr/bin/env bash
# The fuzz section of ci/check.sh: rgb_fuzz's invariant oracles over one
# generated matrix of protocol modes, after the worker-identity checks that
# let the matrix run the sharded kernel at 1 worker.
# Usage: ci/fuzz_matrix.sh [build-dir]  (default: build; needs rgb_fuzz)
#
# Prints one line per identity check and per matrix cell, in a fixed order.
# Exits 1 when a profile's output differs across worker counts or a cell
# finds a violating seed; a failing cell's report and replay line follow
# the cell lines.
set -euo pipefail

cd "$(dirname "$0")/.."
FUZZ="${1:-build}/rgb_fuzz"
if [ ! -x "$FUZZ" ]; then
  echo "missing $FUZZ" >&2
  exit 2
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Worker identity. The sharded kernel's trajectory depends only on the
# logical shard count (one shard per tier-0 region), never on the number of
# worker threads, so the matrix runs the sharded kernel at 1 worker, where
# it costs what a serial run costs. Each profile below runs at 1 worker
# and on 2 or 8 threads, per-seed lines and exit code included, and the
# two outputs must be the same bytes.
echo "== rgb_fuzz worker identity (1 worker vs 2 or 8) =="
# same_on_threads W FLAGS... — rgb_fuzz FLAGS at 1 and at W shard workers.
same_on_threads() {
  local workers="$1" w rc
  shift
  for w in 1 "$workers"; do
    rc=0
    "$FUZZ" "$@" --start 1 --shard-workers "$w" > "$work/w$w" || rc=$?
    echo "exit $rc" >> "$work/w$w"
  done
  if ! cmp -s "$work/w1" "$work/w$workers"; then
    echo "FAIL: rgb_fuzz $* differs between 1 and $workers shard workers" >&2
    diff "$work/w1" "$work/w$workers" | head -n 20 >&2 || true
    exit 1
  fi
  echo "same at 1 and $workers workers: $*"
}
same_on_threads 2 --seeds 12
same_on_threads 8 --seeds 12
same_on_threads 2 --partitions 1 --seeds 12
same_on_threads 8 --groups 4 --seeds 12
same_on_threads 8 --churn 1 --seeds 8
same_on_threads 8 --churn 1 --stability 1 --seeds 8
same_on_threads 8 --groups 4 --churn 1 --stability 1 --snapshot-join 1 \
    --partitions 1 --seeds 8

# The matrix: the paper's fault model (NE crash/recover, message-loss
# bursts, handoffs) under every oracle, over
#   members {600, 250, 100, 8} x groups {1, 4, 8}
#     x churn x stability x snapshot-join x partitions,
# plus the crash-only fault mix (--bursts 0 --handoffs 0) at 8 members:
# 240 profiles. Each runs serially (seeds 1-40; 1-100 at 8 members under
# the full mix) and on the sharded kernel at 1 worker (seeds 1-20): 480
# cells. Size matters: 600 members in 1 or 4 groups cross the 256-record
# bucket threshold into bucket-level anti-entropy, a differing group of
# 250 ships whole, and churn at 100-600 members strands members at
# crashed APs. The cells run in 4 processes, largest first; their lines
# print in this order once all are done.
echo "== rgb_fuzz matrix =="
detect=("--churn "{0,1}" --stability "{0,1})
modes=("--snapshot-join "{0,1}" --partitions "{0,1})
cells=()
# members, serial seeds, fault-mix flags
for profile in "600 40" "250 40" "100 40" "8 100" \
    "8 40 --bursts 0 --handoffs 0"; do
  read -r members seeds mix <<< "$profile"
  for groups in 1 4 8; do
    for d in "${detect[@]}"; do
      for mode in "${modes[@]}"; do
        cell="--members $members --groups $groups $d $mode${mix:+ $mix}"
        cells+=("$cell --seeds $seeds" "$cell --shard-workers 1 --seeds 20")
      done
    done
  done
done
for i in "${!cells[@]}"; do echo "$i ${cells[$i]}"; done |
  xargs -P 4 -L 1 sh -c 'out="$1/$2"; shift 2
    "$0" --start 1 --quiet "$@" > "$out" 2>&1; echo $? > "$out.rc"' \
    "$FUZZ" "$work"
failed=()
for i in "${!cells[@]}"; do
  rc="$(cat "$work/$i.rc" 2> /dev/null || echo "none")"
  if [ "$rc" = 0 ]; then
    echo "ok    ${cells[$i]}"
  else
    echo "FAIL  ${cells[$i]}  (exit $rc)"
    failed+=("$i")
  fi
done
for i in "${failed[@]}"; do
  echo "--- rgb_fuzz ${cells[$i]} --start 1 --quiet ---"
  cat "$work/$i"
done
if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAIL: ${#failed[@]} of ${#cells[@]} fuzz matrix cells" >&2
  exit 1
fi
echo "rgb_fuzz matrix: 0 violating seeds in ${#cells[@]} cells"
