#!/usr/bin/env bash
# Diffs the three examples' stdout between a parent checkout and this one.
#
#   scripts/examples_diff.sh PARENT_DIR
#
# Runs `quickstart`, `sla_explorer` and `autotuning_advisor` (release build)
# in PARENT_DIR and in this checkout, and diffs each example's stdout. The
# examples are deterministic, so a change that must keep every quote, plan
# and bill prints nothing but "identical" lines. Exits 1 if any example
# fails to run or any stdout differs.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(git rev-parse --show-toplevel)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for example in quickstart sla_explorer autotuning_advisor; do
    for side in parent change; do
        dir=$parent
        [ "$side" = change ] && dir=$change
        if ! cargo run --release --quiet --offline --manifest-path "$dir/Cargo.toml" \
            --example "$example" >"$out/$example.$side" 2>"$out/$example.$side.err"; then
            echo "$example: failed in $dir" >&2
            cat "$out/$example.$side.err" >&2
            status=1
            continue 2
        fi
    done
    if diff -u "$out/$example.parent" "$out/$example.change"; then
        echo "$example: identical ($(wc -l <"$out/$example.change") lines)"
    else
        echo "$example: stdout differs" >&2
        status=1
    fi
done
exit $status
