#!/usr/bin/env bash
# Alternating parent/change pairs of one bench_e2e workload, then --compare.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SEED=1]
#
# Both directories are checkouts of this repository (the parent is usually a
# `git clone` under /root/scratch). Each side's bench_e2e is built from its
# own checkout and run from it; odd pairs run the parent first, even pairs
# the change, so drift of the box's speed lands on both sides alike. Every
# run's metric lines are appended to one file per side under
# CHANGE_DIR/.bench_out/pairs/, the per-pair iter_ms_p50 and the change's
# win count are printed, and `bench_e2e --compare parent.txt change.txt`
# gives the verdicts (exit 1 if anything is "worse"). A run that exits
# non-zero or outlives its time limit is reported as a failed pair (exit 1),
# never waited on.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-1}

for dir in "$parent" "$change"; do
    cargo build --release --quiet --offline --manifest-path "$dir/bench_e2e/Cargo.toml"
done

out="$change/.bench_out/pairs"
mkdir -p "$out"
parent_txt="$out/${workload}_seed${seed}_parent.txt"
change_txt="$out/${workload}_seed${seed}_change.txt"
: >"$parent_txt"
: >"$change_txt"

# One run may take this long before it is killed: six 10 s windows cover the
# slowest workload's set-up with room to spare, and a hang (a deadlocked pool
# sits at 0 % CPU forever) becomes a failed pair within a minute.
run_limit=60

run() { # DIR FILE: one untraced run at the contract's window; prints iter_ms_p50,
    # or "nan" when the run timed out or exited non-zero (the pair then fails)
    local lines
    if lines=$(cd "$1" && timeout "$run_limit" ./bench_e2e/target/release/bench_e2e \
        --workload "$workload" --seed "$seed" --seconds 10 --trace 0); then
        printf '%s\n' "$lines" | tee -a "$2" | awk '$2 == "iter_ms_p50" { print $3 }'
    else
        echo "run in $1 failed or exceeded ${run_limit}s (exit $?)" >&2
        echo nan
    fi
}

wins=0
failed=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run "$parent" "$parent_txt")
        c=$(run "$change" "$change_txt")
    else
        c=$(run "$change" "$change_txt")
        p=$(run "$parent" "$parent_txt")
    fi
    if [ "$p" = nan ] || [ "$c" = nan ]; then
        failed=$((failed + 1))
        printf 'pair %2d  FAILED       parent %8s  change %8s\n' "$i" "$p" "$c"
        continue
    fi
    if awk -v p="$p" -v c="$c" 'BEGIN { exit !(c < p) }'; then
        wins=$((wins + 1))
    fi
    printf 'pair %2d  iter_ms_p50  parent %8.1f  change %8.1f\n' "$i" "$p" "$c"
done
echo "change wins $wins of $pairs pairs on iter_ms_p50 ($failed failed)"
if [ "$failed" -gt 0 ]; then
    exit 1
fi

cd "$change"
./bench_e2e/target/release/bench_e2e --compare "$parent_txt" "$change_txt"
