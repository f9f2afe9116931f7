#!/usr/bin/env bash
# Public items that only tests read.
#
#   scripts/test_only_items.sh
#
# Prints every `pub` fn, struct, enum, const or type defined in the non-test
# part of a `crates/*/src` file whose name appears nowhere else in non-test
# code: the crate sources, the bins, `examples/` and `bench_e2e/src`.
# "Non-test" is `scripts/loc.sh`'s cut — everything above a file's
# `#[cfg(test)] mod tests` block — and comment lines and one-line string
# literals do not count as a use.
# The match is by name, so an item whose name another item shares is never
# listed, and an item listed may still be a test helper or oracle worth
# keeping. Informational only: always exits 0.
set -uo pipefail

cd "$(git rev-parse --show-toplevel)" || exit 0

# FILE: its lines above `#[cfg(test)]` + `mod tests`, minus comment lines,
# each prefixed with `FILE:LINE:`.
nontest() {
    awk -v f="$1" '
        prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\([a-z]+\))? )?mod tests/ && !cut { cut = NR - 2 }
        { prev = $0; line[NR] = $0 }
        END {
            n = cut ? cut : NR
            for (i = 1; i <= n; i++)
                if (line[i] !~ /^[ \t]*\/\//) print f ":" i ":" line[i]
        }' "$1"
}

git ls-files -- crates src examples bench_e2e/src \
    | grep -E '^(crates/[^/]+/src|src|examples|bench_e2e/src)/.*\.rs$' | sort \
    | while read -r f; do nontest "$f"; done \
    | awk '
        # Pass over every non-test line: count each identifier, and record
        # the `pub` definitions of `crates/*/src` files.
        {
            split($0, p, ":")
            file = p[1]; ln = p[2]
            code = substr($0, length(file) + length(ln) + 3)
            if (file ~ /^crates\/[^\/]+\/src\// &&
                match(code, /^[ \t]*pub (const |async |unsafe )*(fn|struct|enum|const|type) [A-Za-z_][A-Za-z0-9_]*/)) {
                d = substr(code, RSTART, RLENGTH)
                nw = split(d, w, /[ \t]+/)
                name = w[nw]; kind = w[nw - 1]
                defs[++nd] = file ":" ln ": pub " kind " " name
                dname[nd] = name
                ndef[name]++
            }
            gsub(/"([^"\\]|\\.)*"/, "", code)
            n = split(code, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (tok[i] != "") seen[tok[i]]++
        }
        END {
            for (i = 1; i <= nd; i++)
                if (seen[dname[i]] <= ndef[dname[i]]) { print defs[i]; listed++ }
            printf "%d item(s) with no non-test use outside their definition\n", listed + 0
        }'
exit 0
