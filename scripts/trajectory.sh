#!/usr/bin/env bash
# The committed wall-clock trajectory: every perf PR's parent/change
# verdict (results/bench/pr<N>.compare.txt, written by bench_pairs.sh and
# rewritten by CI from its pair) chained into one table (ROADMAP 13(a)).
#
#   scripts/trajectory.sh
#
# Writes results/bench/trajectory.txt: one row per PR x workload x
# metric with the ratio of the two medians (B/A, change over parent),
# the running product of that ratio since the first committed pair, the
# number of seed-matched pairs the change won, and the pair's verdict;
# then each workload x metric's whole chain.  A pair is the parent run
# and the change run of one workload with one seed, read from
# pr<N>.parent.jsonl and pr<N>.change.jsonl; the change wins it when its
# value is better in the direction BENCHMARK.json's "better" gives, and a
# tie counts for neither side.  A ratio is only ever taken within one
# alternating series on one host; the chain multiplies those ratios and
# never compares absolute numbers across series, so it is a pointer,
# not a measurement.  PRs with no committed pair count as 1.0.  Reads
# files; times nothing.
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
jsonl=()
for f in "${files[@]}"; do
    jsonl+=("${f%.compare.txt}.parent.jsonl" "${f%.compare.txt}.change.jsonl")
done

awk '
    # The PR number in a results/bench/pr<N>.* path.
    function pr_of(path) {
        sub(/.*\/pr/, "", path)
        sub(/\..*/, "", path)
        return path
    }
    # The string or number after "key": on a one-line JSON record.
    function field(key) {
        if (!match($0, "\"" key "\": \"?[^\",}]*")) return ""
        v = substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
        sub(/^"/, "", v)
        return v
    }
    # The end-to-end metrics and which way is better.
    FILENAME == "BENCHMARK.json" {
        if ($0 ~ /"end_to_end"/) e2e = 1
        else if ($0 ~ /"per_layer"/) e2e = 0
        if (!e2e) next
        if ((v = field("name")) != "") name = v
        if ((v = field("better")) != "") better[name] = v
        next
    }
    # One run: its value of every metric, by PR, side, workload and seed.
    FILENAME ~ /\.jsonl$/ {
        pr = pr_of(FILENAME)
        side = FILENAME ~ /\.parent\.jsonl$/ ? "parent" : "change"
        w = field("workload")
        seed = field("seed")
        if (!((pr, w, seed) in seen)) {
            seen[pr, w, seed] = 1
            seeds[pr, w] = seeds[pr, w] " " seed
        }
        for (m in better)
            if (match($0, "\"" m "\": {\"value\": [^,}]*")) {
                v = substr($0, RSTART, RLENGTH)
                sub(/.*: /, "", v)
                run[pr, side, w, seed, m] = v + 0
            }
        next
    }
    FNR == 1 {
        pr = pr_of(FILENAME)
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
        wins = "-"
        if ($2 in better) {
            won = paired = 0
            ns = split(seeds[pr, $1], s, " ")
            for (i = 1; i <= ns; i++) {
                if (!((pr, "parent", $1, s[i], $2) in run)) continue
                if (!((pr, "change", $1, s[i], $2) in run)) continue
                a = run[pr, "parent", $1, s[i], $2]
                b = run[pr, "change", $1, s[i], $2]
                paired++
                if (better[$2] == "higher" ? b > a : b < a) won++
            }
            wins = won "/" paired
        }
        rows[++nrows] = sprintf("%-5s %-14s %-14s %9.4f %9.4f %7s  %s",
            pr, $1, $2, ratio, chain[key], wins, $8)
    }
    END {
        printf "# B/A: change median over parent median within one pair of series;\n"
        printf "# chain: product of B/A since pr%s (PRs with no pair count as 1), a pointer only;\n", first
        printf "# better: k/n, the change run was better in k of the n seed-matched pairs.\n"
        printf "%-5s %-14s %-14s %9s %9s %7s  %s\n", "pr", "workload", "metric", "B/A", "chain", "better", "verdict"
        for (i = 1; i <= nrows; i++) print rows[i]
        printf "\n# whole chain, pr%s to pr%s\n", first, pr
        printf "%-14s %-14s %9s\n", "workload", "metric", "chain"
        for (i = 1; i <= nkeys; i++) {
            split(keys[i], k, " ")
            printf "%-14s %-14s %9.4f\n", k[1], k[2], chain[keys[i]]
        }
    }
' BENCHMARK.json "${jsonl[@]}" "${files[@]}" > "$dir/trajectory.txt"
