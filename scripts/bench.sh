#!/usr/bin/env bash
# Wall-clock executor bench smoke: runs bench/bench_wallclock and prints its
# google-benchmark table. It checks that every series still runs; it keeps
# no record. The repository's wall-clock record is perfbench/ (fixed-work
# solve, serve and stream workloads, host fingerprint and layer ledger —
# see perfbench/README.md).
#
# Usage: scripts/bench.sh [build_dir]
#   ACSR_BENCH_QUICK=1  ~25x shorter measurement windows (the CI smoke)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"

if [ ! -x "$build/bench/bench_wallclock" ]; then
  echo "bench.sh: $build/bench/bench_wallclock not built (run scripts/check.sh first)" >&2
  exit 1
fi

extra=()
if [ "${ACSR_BENCH_QUICK:-0}" != "0" ]; then extra+=(--quick); fi

"$build/bench/bench_wallclock" "${extra[@]}" --benchmark_counters_tabular=true
