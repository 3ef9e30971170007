#!/usr/bin/env bash
# Run the whole suite: every workload timed (--trace 0) and traced
# (--trace 1), each in its own process, and merge the full results into
# one JSON array that `--compare` reads.
#
#   benchmark/run.sh [OUT.json]      (default: <target>/suite.json)
#   SEED=1 BENCH_SECONDS=20 RUNS=1   environment: seed, seconds per timed
#                                    run, timed runs per workload
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${SEED:-1}
seconds=${BENCH_SECONDS:-20}
runs=${RUNS:-1}
target=${CARGO_TARGET_DIR:-benchmark/target}
out=${1:-$target/suite.json}

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$target/release/benchmark
parts=$(mktemp -d "$target/suite.XXXXXX")
trap 'rm -rf "$parts"' EXIT

n=0
for workload in front_hot lib_hot lib_coop_tcp lib_churn_rw; do
    for run in $(seq "$runs"); do
        n=$((n + 1))
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out "$parts/$(printf %03d $n).json" >/dev/null
    done
    n=$((n + 1))
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 1 --out "$parts/$(printf %03d $n).json" >/dev/null
done

{
    echo '['
    sep=''
    for part in "$parts"/*.json; do
        printf '%s' "$sep"
        cat "$part"
        sep=','
    done
    echo ']'
} >"$out"
echo "suite written to $out" >&2
