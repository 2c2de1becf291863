#!/usr/bin/env bash
# Builds dssoc_bench from this checkout and runs the host-performance
# benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--pin-goldens] [--repeat K] [--out FILE]
#
# Without --workload every workload runs in turn, each in its own process.
# --repeat K runs each workload K times with seeds N, N+1, ... (N defaults
# to 1). --out appends one JSON line per run to FILE, the input of
# benchmark/compare.py. The last stdout line of a single run is its JSON
# result. The exit status is 0 only when every run passed its checks.
set -euo pipefail

cd "$(dirname "$0")/.."

workloads=(fig10 fig11 fig9 fig11-proc)
selected=()
seed=""
seconds=20
trace=0
pin=()
repeat=1
out=""
while (($# > 0)); do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --pin-goldens) pin=(--pin-goldens); shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
((${#selected[@]} > 0)) || selected=("${workloads[@]}")

# The benchmark passes explicit options to the libraries; no DSSOC_* knob
# from the caller's environment may change what is measured.
while IFS= read -r name; do
  unset "$name"
done < <(compgen -e | grep '^DSSOC_' || true)

build=benchmark/.build
jobs=$(nproc 2>/dev/null || echo 1)
((jobs <= 4)) || jobs=4
{
  # Configure once; later builds re-run CMake themselves when a list changes.
  [[ -f "$build/CMakeCache.txt" ]] || cmake -S benchmark -B "$build"
  cmake --build "$build" --target dssoc_bench -j "$jobs"
} >&2

revision=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
record=()
[[ -z "$out" ]] || record=(--record "$out")

status=0
for workload in "${selected[@]}"; do
  for ((i = 0; i < repeat; i++)); do
    seed_args=()
    if [[ -n "$seed" ]]; then
      seed_args=(--seed $((seed + i)))
    elif ((repeat > 1)); then
      seed_args=(--seed $((1 + i)))
    fi
    "$build/dssoc_bench" --workload "$workload" "${seed_args[@]}" \
      --seconds "$seconds" --trace "$trace" "${pin[@]}" "${record[@]}" \
      --revision "$revision" || status=1
  done
done
exit "$status"
