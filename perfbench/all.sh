#!/usr/bin/env bash
# Prints every workload's end-to-end metrics, each followed by its traced
# per-layer metrics. Run from the repository root:
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-40}
here=$(dirname "${BASH_SOURCE[0]}")
for w in paper-all battle-all trace-export; do
	for t in 0 1; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
	done
done
