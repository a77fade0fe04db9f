#!/usr/bin/env bash
# Runs every benchmark workload once untraced (end-to-end metrics) and once
# traced (per-layer metrics and the Section 5 model-fit table), e.g.
#
#   bash sciviewbench/all.sh 1 20     # seed 1, 20-second windows
#
# Run it from the repository root.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
for w in sql-warm scan-cold gh-spill ingest-live; do
	for t in 0 1; do
		bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
	done
done
