#!/usr/bin/env bash
# Alternating parent/new runs of the end-to-end benchmark.
#
#   scripts/ab_pairs.sh <parent-rev> <pairs> <workload>...
#
# Clones <parent-rev> under a scratch directory, builds each side's
# `e2ebench` once into its own CARGO_TARGET_DIR (the new side is the
# working tree this script sits in), then for every workload runs
# <pairs> pairs with `--seconds 12`, alternating which side goes first
# so the hour's drift lands on both. Prints every run's end-to-end
# figures — `goodput_per_s` and `result_latency_p50_ms` are calibrated,
# `setup_s` and `bench.goodput_wall_per_s` are wall clock — and each
# side's medians. Compare medians only against the parent's own spread.
#
# Everything is written under $AB_DIR (default: <repo>/.bench_scratch/ab,
# git-ignored). One run takes 35-80 s; run nothing else meanwhile, and
# start long loops with `setsid nohup`.
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
rev=$1 pairs=$2
shift 2

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${AB_DIR:-$root/.bench_scratch/ab}
mkdir -p "$dir"

if [ ! -d "$dir/parent" ]; then
    git clone -q "$root" "$dir/parent"
fi
git -C "$dir/parent" checkout -q --detach "$rev"

build() { # <side> <checkout>
    CARGO_TARGET_DIR="$dir/target-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/e2ebench/Cargo.toml"
}
build parent "$dir/parent"
build new "$root"

metrics="setup_s goodput_per_s result_latency_p50_ms bench.goodput_wall_per_s"

# The value of metric $2 in a run's standard output $1, which lists one
# `name value unit` line per metric ("-" when the run did not print it).
value() {
    printf '%s\n' "$1" | awk -v m="$2" '$1 == m { print $2; found = 1 } END { if (!found) print "-" }'
}

median() { # of the numbers on stdin
    grep -v '^-$' | sort -g | awk '{ v[NR] = $1 }
        END { if (!NR) print "-"; else if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

run() { # <side> <workload> <pair>
    local out verdict
    mkdir -p "$dir/scratch-$1"
    out=$("$dir/target-$1/release/netalytics-benchmark" --workload "$2" --seed "$3" \
        --seconds 12 --trace 0 --scratch "$dir/scratch-$1" 2>/dev/null) || true
    verdict=$(printf '%s\n' "$out" | grep '^attempted ' || echo 'NO RESULT')
    printf '%-14s pair %2d %-6s' "$2" "$3" "$1"
    for m in $metrics; do
        v=$(value "$out" "$m")
        printf ' %s=%s' "$m" "$v"
        echo "$v" >>"$dir/$2.$1.$m"
    done
    echo " [$verdict]"
}

for workload in "$@"; do
    rm -f "$dir/$workload".*
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent new"; else order="new parent"; fi
        for side in $order; do run "$side" "$workload" "$pair"; done
    done
    for side in parent new; do
        printf '%-14s median  %-6s' "$workload" "$side"
        for m in $metrics; do printf ' %s=%s' "$m" "$(median <"$dir/$workload.$side.$m")"; done
        echo
    done
done
