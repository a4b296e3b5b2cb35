#!/usr/bin/env bash
# Alternating parent/change runs of the BENCHMARK.json command, for the
# trajectory under results/bench/ (ROADMAP 1(e)).
#
#   scripts/bench_pairs.sh <parent-rev> [pairs=10] [seconds=20]
#
# Unpacks <parent-rev> under target/bench_pairs/, builds it and the
# working tree each into its own target directory, then runs every
# workload BENCHMARK.json names as `pairs` pairs of end-to-end runs: odd
# pairs parent first, even pairs change first, one fresh seed per pair.
# Each run appends its --out line to target/bench_pairs/parent.jsonl or
# change.jsonl; the script ends on --compare of the two (exit 1 on any
# `worse` row), which it also writes to target/bench_pairs/compare.txt.
# Commit the three as results/bench/pr<N>.parent.jsonl,
# results/bench/pr<N>.change.jsonl and results/bench/pr<N>.compare.txt.
#
# Run it on an otherwise idle machine, from anywhere inside the repo.
set -euo pipefail

parent_rev=${1:?usage: scripts/bench_pairs.sh <parent-rev> [pairs=10] [seconds=20]}
pairs=${2:-10}
seconds=${3:-20}

cd "$(git rev-parse --show-toplevel)"
work=$PWD/target/bench_pairs
rm -rf "$work/parent" "$work/parent.jsonl" "$work/change.jsonl"
mkdir -p "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

# The strings of BENCHMARK.json's "command" array and the workload names.
section() { sed -n "/\"$1\": \[/,/\]/p" BENCHMARK.json; }
mapfile -t cmd < <(section command | grep -o '"[^"]*"' | tail -n +2 | tr -d '"')
mapfile -t workloads < <(section workloads | sed -n 's/.*"name": "\([^"]*\)".*/\1/p')

# bench <side> <args...>: the benchmark of that side's tree.
bench() {
    local side=$1 tree=$PWD
    shift
    [ "$side" = parent ] && tree=$work/parent
    (cd "$tree" && CARGO_TARGET_DIR=$work/$side.target "${cmd[@]}" "$@")
}

for side in parent change; do
    echo "building $side" >&2
    bench "$side" --workload "${workloads[0]}" --rounds 1 >/dev/null
done

seed=$(date +%s)
for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    ((pair % 2 == 0)) && order=(change parent)
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "pair $pair/$pairs $workload $side (seed $((seed + pair)))" >&2
            bench "$side" --workload "$workload" --seed $((seed + pair)) \
                --seconds "$seconds" --trace 0 --out "$work/$side.jsonl" >/dev/null
        done
    done
done

bench change --compare "$work/parent.jsonl" "$work/change.jsonl" > "$work/compare.txt" || verdict=$?
cat "$work/compare.txt"
exit "${verdict:-0}"
