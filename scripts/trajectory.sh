#!/usr/bin/env bash
# The committed wall-clock trajectory: every perf PR's parent/change
# verdict (results/bench/pr<N>.compare.txt, written by bench_pairs.sh and
# rewritten by CI from its pair) chained into one table (ROADMAP 13(a)).
#
#   scripts/trajectory.sh
#
# Writes results/bench/trajectory.txt: one row per PR x workload x
# metric with the ratio of the two medians (B/A, change over parent),
# the pair's verdict, and the running product of that ratio since the
# first committed pair, then each workload x metric's whole chain.  A
# ratio is only ever taken within one alternating series on one host;
# the chain multiplies those ratios and never compares absolute numbers
# across series.  PRs with no committed pair count as 1.0.  Reads files;
# times nothing.
set -euo pipefail
export LC_ALL=C

cd "$(git rev-parse --show-toplevel)"
dir=results/bench

# The compare files in numeric PR order (pr100 after pr99).
mapfile -t files < <(
    for f in "$dir"/pr*.compare.txt; do
        n=${f##*/pr}
        echo "${n%%.*} $f"
    done | sort -n | cut -d' ' -f2-
)

awk '
    FNR == 1 {
        pr = FILENAME
        sub(/.*\/pr/, "", pr)
        sub(/\..*/, "", pr)
        if (first == "") first = pr
        next
    }
    {
        key = $1 " " $2
        if (!(key in chain)) {
            chain[key] = 1
            keys[++nkeys] = key
        }
        ratio = $4 / $3
        chain[key] *= ratio
        rows[++nrows] = sprintf("%-5s %-14s %-14s %9.4f %9.4f  %s",
            pr, $1, $2, ratio, chain[key], $8)
    }
    END {
        printf "# B/A: change median over parent median within one pair of series;\n"
        printf "# chain: product of B/A since pr%s (PRs with no pair count as 1).\n", first
        printf "%-5s %-14s %-14s %9s %9s  %s\n", "pr", "workload", "metric", "B/A", "chain", "verdict"
        for (i = 1; i <= nrows; i++) print rows[i]
        printf "\n# whole chain, pr%s to pr%s\n", first, pr
        printf "%-14s %-14s %9s\n", "workload", "metric", "chain"
        for (i = 1; i <= nkeys; i++) {
            split(keys[i], k, " ")
            printf "%-14s %-14s %9.4f\n", k[1], k[2], chain[keys[i]]
        }
    }
' "${files[@]}" > "$dir/trajectory.txt"
