#!/usr/bin/env bash
# Runs every workload of the gate benchmark, strictly one after another
# (two runs at once would measure each other), end-to-end first and then
# per-layer.
#
#   benchmark/run_all.sh [seed]
#
# Each run's full output goes to benchmark/out/<workload>.trace<0|1>.txt;
# the trace files of the per-layer runs land beside them.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
for trace in 0 1; do
    for workload in $workloads; do
        echo "== $workload --trace $trace --seed $seed"
        cargo run --release --quiet --manifest-path benchmark/Cargo.toml --bin gate -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            | tee "benchmark/out/$workload.trace$trace.txt" | grep -v -e '^{' -e 'slice'
    done
done
