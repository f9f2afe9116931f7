#!/usr/bin/env bash
# Total and non-test line counts of the workspace's Rust sources.
#
#   scripts/loc.sh [REV]
#
# Counts every tracked `.rs` file under `crates/*/src` and `src`, in the
# working tree or (with REV) at that git revision. "Non-test" is everything
# above the file's `#[cfg(test)] mod tests` block — the whole file when it
# has none — so integration tests, benches and `bench_e2e/` are not counted
# at all. Prints one row per file, one per crate and a workspace total; a
# refactor quotes the difference of two runs (`scripts/loc.sh HEAD~1`).
set -euo pipefail

rev=${1:-}
cd "$(git rev-parse --show-toplevel)"

list() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- crates src
    else
        git ls-files -- crates src
    fi | grep -E '^(crates/[^/]+/src|src)/.*\.rs$' | sort
}

show() { # FILE: its contents at REV, or in the working tree
    if [ -n "$rev" ]; then
        git show "$rev:$1"
    else
        cat "$1"
    fi
}

list | while read -r f; do
    # total lines, and the line before `#[cfg(test)]` + `mod tests`
    show "$f" | awk -v f="$f" '
        prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\([a-z]+\))? )?mod tests/ && !cut { cut = NR - 2 }
        { prev = $0 }
        END { print f, NR, (cut ? cut : NR) }'
done | awk '
    {
        crate = $1
        if (crate ~ /^crates\//) { split(crate, p, "/"); crate = p[1] "/" p[2] } else { crate = "src" }
        printf "%-52s %7d %9d\n", $1, $2, $3
        total[crate] += $2; nontest[crate] += $3
        all += $2; allnt += $3
        if (!(crate in seen)) { seen[crate] = 1; order[++n] = crate }
    }
    END {
        print ""
        for (i = 1; i <= n; i++)
            printf "%-52s %7d %9d\n", order[i] "/", total[order[i]], nontest[order[i]]
        printf "%-52s %7d %9d\n", "workspace", all, allnt
    }' | { printf '%-52s %7s %9s\n' "file" "total" "non-test"; cat; }
