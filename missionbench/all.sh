#!/usr/bin/env bash
# Runs every workload, untraced and traced, each in a process of its own.
# Usage, from the repository root: bash missionbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-7}"
seconds="${2:-30}"
for workload in static_paper dynamic_replan node_faults; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path missionbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
