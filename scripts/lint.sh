#!/usr/bin/env bash
# Repo lint gate — a thin wrapper over `acsr_audit --lint`.
#
# The three rules (pragma-once, .data() confinement, Counters metering
# parity) used to live here as grep/sed; they are now implemented
# token-level in src/analysis/audit_passes.cpp (no comment/string false
# positives) and shipped inside the acsr_audit binary. A fourth, metrics
# passthrough parity, is a compile-time check in src/prof/metrics.cpp.
# This wrapper only locates the binary so `scripts/lint.sh` keeps working
# as a standalone entry point.
#
# Usage: scripts/lint.sh [build_dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
audit="$build/tools/acsr_audit"

if [ ! -x "$audit" ]; then
  echo "lint: $audit not built — run: cmake --build $build --target acsr_audit" >&2
  exit 2
fi

exec "$audit" --lint --root=.
