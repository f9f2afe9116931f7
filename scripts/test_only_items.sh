#!/usr/bin/env bash
# Public items that only tests read.
#
#   scripts/test_only_items.sh           # list them; always exits 0
#   scripts/test_only_items.sh --check   # exit 1 unless the list matches
#                                        # scripts/test_only_allowlist.txt
#
# Prints every `pub` fn, struct, enum, const or type defined in the non-test
# part of a `crates/*/src` file whose name appears nowhere else in non-test
# code: the crate sources, the bins, `examples/` and `bench_e2e/src`.
# "Non-test" is `scripts/loc.sh`'s cut — everything above a file's
# `#[cfg(test)] mod tests` block — and comment lines, one-line string
# literals and `pub use` re-exports do not count as a use (a crate's
# re-export of an item only tests read is no reader of it), nor does a
# type's name inside its own `impl` blocks (a constructor or a trait impl
# is no reader either).
# The match is by name, so an item whose name another item shares is never
# listed, and an item listed may still be a test helper or oracle worth
# keeping. That is a blind spot for common method names: `validate`, `new`
# or `len` on one type hides a test-only method of the same name on another
# (`HardwareProfile::validate` went unlisted for as long as
# `PhysicalPlan::validate` existed).
#
# A compile probe closes that blind spot for methods: in a scratch copy of
# the repository, append a suffix to the name of every `pub fn` inside an
# `impl` block of `crates/*/src`, then run `cargo check --lib --bins
# --examples` and `cargo check --manifest-path bench_e2e/Cargo.toml`
# (neither builds test code) and restore each renamed method an error
# names, until both compile. The renames left are methods nothing outside
# tests calls (`Schema::join`, `Value::width`, `ErrorInjector::bound` and
# `TierCacheSim::pricing` were found that way).
#
# `--check` compares the listed items (by file and name) with the allowlist
# and exits 1 on an item missing from it or a line in it whose item is no
# longer listed, so a new public item only tests read fails CI.
set -uo pipefail

cd "$(git rev-parse --show-toplevel)" || exit 0

if [ "${1:-}" = "--check" ]; then
    allow=scripts/test_only_allowlist.txt
    listed=$(scripts/test_only_items.sh | awk -F': pub [a-z]+ ' 'NF == 2 { split($1, p, ":"); print p[1], $2 }' | sort)
    allowed=$(grep -v '^#' "$allow" | awk 'NF { print $1, $2 }' | sort)
    missing=$(comm -23 <(echo "$listed") <(echo "$allowed"))
    stale=$(comm -13 <(echo "$listed") <(echo "$allowed"))
    [ -n "$missing" ] && printf 'test-only item not in %s:\n%s\n' "$allow" "$missing"
    [ -n "$stale" ] && printf '%s lists an item no longer test-only:\n%s\n' "$allow" "$stale"
    [ -z "$missing$stale" ] || exit 1
    echo "test-only items match $allow ($(echo "$listed" | grep -c .))"
    exit 0
fi

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
        # The implementing type of an `impl` header line: the last path
        # segment of the type after `for`, or else after the impl generics.
        function impl_self(h,   i, d, c) {
            sub(/[ \t]*(\{|where).*$/, "", h)
            sub(/^[ \t]*impl/, "", h)
            while ((i = index(h, " for ")) > 0) h = substr(h, i + 5)
            if (substr(h, 1, 1) == "<") {
                for (i = 1; i <= length(h); i++) {
                    c = substr(h, i, 1)
                    if (c == "<") d++
                    if (c == ">" && --d == 0) break
                }
                h = substr(h, i + 1)
            }
            sub(/^[ \t&]*/, "", h)
            sub(/[^A-Za-z0-9_:].*$/, "", h)
            sub(/^.*::/, "", h)
            return h
        }
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
            # A re-export is not a use: skip `pub use` items, one line or
            # several up to the closing `;`.
            if (file != usefile) { inuse = 0; usefile = file; depth = 0; self = "" }
            if (code ~ /^[ \t]*pub(\([a-z]+\))? use /) inuse = 1
            if (inuse) { if (code ~ /;[ \t]*$/) inuse = 0; next }
            gsub(/"([^"\\]|\\.)*"/, "", code)
            gsub(/\047[^\047\\]\047/, "", code)
            # Nor is a mention inside an `impl` block of the item itself:
            # from an `impl` header to its closing brace, the name of the
            # implementing type does not count.
            if (self == "" && code ~ /^[ \t]*impl[ <]/) {
                self = impl_self(code); start = depth; opened = 0
            }
            opens = gsub(/\{/, "{", code)
            depth += opens - gsub(/\}/, "}", code)
            n = split(code, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (tok[i] != "" && tok[i] != self) seen[tok[i]]++
            opened += opens
            if (self != "" && opened && depth <= start) self = ""
        }
        END {
            for (i = 1; i <= nd; i++)
                if (seen[dname[i]] <= ndef[dname[i]]) { print defs[i]; listed++ }
            printf "%d item(s) with no non-test use outside their definition\n", listed + 0
        }'
exit 0
