#!/usr/bin/env bash
# Run every workload, one after another, from the checkout root:
#     bash perfbench/all.sh [SEED] [TRACE]
# Each run prints its metrics by name with units, fail_ratio, and a JSON line.
set -euo pipefail
cd "$(dirname "$0")/.."
for w in block-exhaustive block-sampled table run-sweep-bc; do
    python3 perfbench/run.py --workload "$w" --seed "${1:-1}" --trace "${2:-0}"
done
