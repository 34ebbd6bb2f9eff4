#!/usr/bin/env bash
# Prints every end-to-end and per-layer metric of every workload, by name,
# with its unit and sample count. Run from the repository root:
#
#   bash servebench/report.sh [seed] [seconds]
#
# Each workload runs twice: --trace 0 for the end-to-end metrics and
# --trace 1 for the per-layer ones. The JSON result lines are omitted.
set -euo pipefail
seed=${1:-1}
seconds=${2:-10}
for w in steady sharded swap; do
	for t in 0 1; do
		echo "== workload=$w trace=$t seed=$seed seconds=$seconds"
		bash servebench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" | sed '$d'
	done
done
