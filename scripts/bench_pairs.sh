#!/usr/bin/env bash
# Alternating parent/change runs of the BENCHMARK.json command, for the
# trajectory under results/bench/ (ROADMAP 1(e)).
#
#   scripts/bench_pairs.sh <parent-rev> [pairs=10] [seconds=20]
#
# Unpacks <parent-rev> under target/bench_pairs/, builds it and the
# working tree once each into its own target directory (BENCHMARK.json's
# command with `run` made `build`), then runs every workload
# BENCHMARK.json names as `pairs` pairs of end-to-end runs of those two
# binaries: odd pairs parent first, even pairs change first, one fresh
# seed per pair.  Each run appends its --out line to
# target/bench_pairs/parent.jsonl or change.jsonl; the script ends on
# --compare of the two (exit 1 on any `worse` row), which it also writes
# to target/bench_pairs/compare.txt.  It refuses to compare (exit 3)
# when a tracked source file of the working tree was saved after the
# change side's build began: the series then measured another tree than
# the one checked out.  (Not the binary's own time: cargo relinks only
# when the benchmark's dependencies change, so a file it does not build
# may be older than the build yet newer than the binary.)  Commit the three as results/bench/pr<N>.parent.jsonl,
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
build=()
for arg in "${cmd[@]}"; do
    case $arg in
        run) build+=(build) ;;
        --) ;;
        *) build+=("$arg") ;;
    esac
done

tree_of() { if [ "$1" = parent ]; then echo "$work/parent"; else echo "$PWD"; fi; }
stamp=$work/change.built

# bench <side> <args...>: that side's benchmark binary, run in its tree.
bench() {
    local side=$1
    shift
    (cd "$(tree_of "$side")" && "$work/$side.target/release/benchmark" "$@")
}

for side in parent change; do
    echo "building $side" >&2
    [ "$side" = parent ] || touch "$stamp"
    (cd "$(tree_of "$side")" && CARGO_TARGET_DIR=$work/$side.target "${build[@]}")
    # A binary's first run reads slow: take it here, outside the series.
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

stale=$(git ls-files -z -- '*.rs' '*.toml' Cargo.lock |
    xargs -0 -r sh -c 'find "$@" -maxdepth 0 -newer "$0"' "$stamp" 2>/dev/null || true)
if [ -n "$stale" ]; then
    echo "sources changed after the change side was built; not comparing:" >&2
    echo "$stale" >&2
    exit 3
fi
bench change --compare "$work/parent.jsonl" "$work/change.jsonl" > "$work/compare.txt" || verdict=$?
cat "$work/compare.txt"
exit "${verdict:-0}"
