#!/bin/sh
# Diff two bench JSON files (see EXPERIMENTS.md "Bench JSON schema") and
# fail on regressions past a threshold.
#
#   scripts/bench_diff.sh BASELINE.json CURRENT.json [THRESHOLD_PCT]
#
# Exit codes: 0 ok, 1 regression or missing judged metric, 2 bad input.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASELINE.json CURRENT.json [THRESHOLD_PCT]" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
exec dune exec bin/propeller.exe -- stat diff "$1" "$2" --threshold "${3:-5}"
