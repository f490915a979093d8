#!/usr/bin/env bash
# The fuzz section of ci/check.sh: rgb_fuzz's invariant oracles over one
# generated matrix of protocol modes.
# Usage: ci/fuzz_matrix.sh [build-dir]  (default: build; needs rgb_fuzz)
#
# Prints one line per matrix cell, in a fixed order. Exits 1 when a cell
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

# The matrix: the paper's fault model (NE crash/recover, message-loss
# bursts, handoffs) under every oracle, over
#   members {600, 250, 100, 8} x groups {1, 4, 8}
#     x churn x stability x snapshot-join x partitions,
# plus the crash-only fault mix (--bursts 0 --handoffs 0) at 8 members:
# 240 cells, each over seeds 1-60 (1-120 at 8 members under the full
# mix). Size matters: 600 members in 1 or 4 groups cross the 256-record
# bucket threshold into bucket-level anti-entropy, a differing group of 250
# ships whole, and churn at 100-600 members strands members at crashed APs.
# The cells run in 4 processes, largest first; their lines print in this
# order once all are done.
echo "== rgb_fuzz matrix =="
detect=("--churn "{0,1}" --stability "{0,1})
modes=("--snapshot-join "{0,1}" --partitions "{0,1})
cells=()
# members, seeds, fault-mix flags
for profile in "600 60" "250 60" "100 60" "8 120" \
    "8 60 --bursts 0 --handoffs 0"; do
  read -r members seeds mix <<< "$profile"
  for groups in 1 4 8; do
    for d in "${detect[@]}"; do
      for mode in "${modes[@]}"; do
        cell="--members $members --groups $groups $d $mode${mix:+ $mix}"
        cells+=("$cell --seeds $seeds")
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
