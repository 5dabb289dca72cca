#!/usr/bin/env bash
# Runs every workload BENCHMARK.json lists, one after another, each with
# its own result line. Run from the repository root:
#   bash servebench/all.sh --seed 1 --seconds 30 --trace 0
set -euo pipefail
for w in lubm-table2 point-distinct cluster-loopback; do
  bash servebench/run.sh --workload "$w" "$@"
done
