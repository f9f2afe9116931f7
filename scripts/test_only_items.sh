#!/usr/bin/env bash
# Public items that only tests read.
#
#   scripts/test_only_items.sh           # list them; always exits 0
#   scripts/test_only_items.sh --check   # exit 1 unless the list matches
#                                        # scripts/test_only_allowlist.txt
#   scripts/test_only_items.sh --methods # compile probe, see below
#
# Prints every `pub` fn, struct, enum, const or type defined in the non-test
# part of a `crates/*/src` file whose name appears nowhere else in non-test
# code: the crate sources, the bins, `examples/` and `bench_e2e/src`.
# "Non-test" is `scripts/loc.sh`'s cut — everything above a file's
# `#[cfg(test)] mod tests` block — and comment lines, one-line string
# literals and `pub use` re-exports do not count as a use (a crate's
# re-export of an item only tests read is no reader of it). Nor does a
# mention inside the item's own definition or `impl` blocks (a constructor,
# a trait impl, a recursive call), nor one inside the definition or `impl`
# blocks of an item already listed: the listing repeats until it stops
# changing, so an item that only test-only items read is listed too
# (`Online`, read only by the test helper `Summary`). In a file that defines
# a top-level item of the same name, a mention is that file's own item
# (`bench_e2e`'s `percentile_sorted` is not `ci_types`'s).
# The match is by name, so an item whose name another item shares is never
# listed, and an item listed may still be a test helper or oracle worth
# keeping. That is a blind spot for common method names: `validate`, `new`
# or `len` on one type hides a test-only method of the same name on another
# (`HardwareProfile::validate` went unlisted for as long as
# `PhysicalPlan::validate` existed).
#
# A compile probe closes that blind spot for methods:
#
#   scripts/test_only_items.sh --methods   # ~20 `cargo check`s; not in CI
#
# copies the working tree into a `mktemp -d` directory and, in the copy,
# appends a suffix to the name of every `pub fn` above its file's test
# module in `crates/*/src`. It then runs `cargo check --workspace --lib
# --bins --examples` and `cargo check --manifest-path bench_e2e/Cargo.toml
# --bins` (neither builds test code), restores every renamed name an error
# message quotes, and repeats until both compile. It prints the methods
# that stay renamed, the ones nothing outside tests calls, each marked
# allowlisted or not, and exits 1 if one is not. Two limits:
#   - restoring goes by name, so it is conservative: one caller of
#     `Dollars::max` restores every `max`, `SimTime::max` included;
#   - an inherent method that shares its name with a trait method falls
#     through to the trait when renamed (`SimTime::min` to `Ord::min`), so
#     it is listed although callers compile against it: it duplicates the
#     trait's method.
# The allowlist names such a method `Type::name`; `--check` skips those
# lines, since the name match cannot see them.
#
# `--check` compares the listed items (by file and name) with the allowlist
# and exits 1 on an item missing from it or a line in it whose item is no
# longer listed, so a new public item only tests read fails CI.
set -uo pipefail

cd "$(git rev-parse --show-toplevel)" || exit 0

if [ "${1:-}" = "--check" ]; then
    allow=scripts/test_only_allowlist.txt
    listed=$(scripts/test_only_items.sh | awk -F': pub [a-z]+ ' 'NF == 2 { split($1, p, ":"); print p[1], $2 }' | sort)
    allowed=$(grep -v '^#' "$allow" | awk 'NF && $2 !~ /::/ { print $1, $2 }' | sort)
    missing=$(comm -23 <(echo "$listed") <(echo "$allowed"))
    stale=$(comm -13 <(echo "$listed") <(echo "$allowed"))
    [ -n "$missing" ] && printf 'test-only item not in %s:\n%s\n' "$allow" "$missing"
    [ -n "$stale" ] && printf '%s lists an item no longer test-only:\n%s\n' "$allow" "$stale"
    [ -z "$missing$stale" ] || exit 1
    echo "test-only items match $allow ($(echo "$listed" | grep -c .))"
    exit 0
fi

if [ "${1:-}" = "--methods" ]; then
    allow=$PWD/scripts/test_only_allowlist.txt
    sfx=_xprobe
    tmp=$(mktemp -d) || exit 1
    trap 'rm -rf "$tmp"' EXIT
    git ls-files -co --exclude-standard | while IFS= read -r f; do [ -e "$f" ] && echo "$f"; done \
        | tar -cf - -T - | tar -xf - -C "$tmp"
    cd "$tmp" || exit 1
    export CARGO_TARGET_DIR=$tmp/target
    # Rename, recording `FILE LINE NAME TYPE` per definition (TYPE `-` for
    # a free function).
    for f in $(find crates/*/src -name '*.rs' | sort); do
        awk -v f="$f" -v sfx="$sfx" -v out="$tmp/renamed" '
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
            prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\([a-z]+\))? )?mod tests/ { cut = 1 }
            { prev = $0 }
            !cut && /^[ \t]*impl[ <]/ { self = impl_self($0) }
            !cut && /^}/ { self = "" }
            !cut && match($0, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
                n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
                name = w[n]
                $0 = substr($0, 1, RSTART + RLENGTH - 1) sfx substr($0, RSTART + RLENGTH)
                print f, NR, name, (self == "" ? "-" : self) >> out
            }
            { print }' "$f" >"$f.new" && mv "$f.new" "$f"
    done
    # The errors of one check, one line each (empty when it compiles).
    errors() {
        cargo check --offline --quiet --keep-going --message-format short "$@" 2>&1 \
            | grep -E '(^|: )error(\[E[0-9]+\])?: ' | grep -v 'could not compile'
    }
    rounds=0
    for target in "--workspace --lib --bins --examples" "--manifest-path bench_e2e/Cargo.toml --bins"; do
        while errs=$(errors $target); [ -n "$errs" ]; do
            rounds=$((rounds + 1))
            # The names an error quotes, and the path at its position (an
            # error such as "`&Histogram` is not an iterator" quotes none).
            quoted=$({
                grep -o '`[^`]*`' <<<"$errs" | tr -d '`' | sed 's/.*:://'
                while IFS=: read -r file ln col _; do
                    [ -f "$file" ] || file=bench_e2e/$file
                    sed -n "${ln}p" "$file" 2>/dev/null | cut -c"$col"- \
                        | grep -o '^[A-Za-z_][A-Za-z0-9_:]*' | tr -s ':' '\n'
                done <<<"$errs"
            } | sort -u)
            names=$(awk '{ print $3 }' "$tmp/renamed" | sort -u | comm -12 - <(echo "$quoted"))
            if [ -z "$names" ]; then
                printf 'probe: errors that quote no renamed method:\n%s\n' "$errs" >&2
                exit 2
            fi
            for n in $names; do
                awk -v n="$n" '$3 == n { print $1 }' "$tmp/renamed" | sort -u \
                    | xargs sed -i "s/\bfn ${n}${sfx}\b/fn ${n}/"
                awk -v n="$n" '$3 != n' "$tmp/renamed" >"$tmp/left" && mv "$tmp/left" "$tmp/renamed"
            done
        done
    done
    unlisted=0
    while read -r f ln name self; do
        item=$name
        [ "$self" != - ] && item=$self::$name
        if grep -v '^#' "$allow" | awk -v f="$f" -v a="$name" -v b="$item" \
            '$1 == f && ($2 == a || $2 == b) { found = 1 } END { exit !found }'; then
            mark=allowlisted
        else
            mark="NOT allowlisted"
            unlisted=$((unlisted + 1))
        fi
        echo "$f:$ln: pub fn $item  ($mark)"
    done < <(sort -k1,1 -k2,2n "$tmp/renamed")
    echo "$(wc -l <"$tmp/renamed") method(s) with no non-test caller after $rounds round(s); $unlisted not allowlisted"
    [ "$unlisted" -eq 0 ] || exit 1
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
        function push(name) { ++nf; fname[nf] = name; fstart[nf] = depth; fopen[nf] = 0 }
        # Pass over every non-test line: record the `pub` definitions of
        # `crates/*/src` files and the top-level item names of every file,
        # and count each identifier by file and by the definitions and
        # `impl` blocks around it.
        {
            split($0, p, ":")
            file = p[1]; ln = p[2]
            code = substr($0, length(file) + length(ln) + 3)
            if (file != usefile) { inuse = 0; instr = 0; usefile = file; depth = 0; nf = 0 }
            # String and char literals are no code: drop them, and the
            # lines a string continues over.
            if (instr) {
                if (!match(code, /^([^"\\]|\\.)*"/)) next
                code = substr(code, RLENGTH + 1); instr = 0
            }
            gsub(/\047(\\.|[^\047\\])\047/, "", code)
            gsub(/"([^"\\]|\\.)*"/, "", code)
            if ((i = index(code, "\"")) > 0) { code = substr(code, 1, i - 1); instr = 1 }
            if (match(code, /^[ \t]*(pub(\([a-z]+\))? )?(const |async |unsafe )*(fn|struct|enum|const|type|static|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
                d = substr(code, RSTART, RLENGTH)
                nw = split(d, w, /[ \t]+/)
                name = w[nw]; kind = w[nw - 1]
                if (depth == 0) local[file, name] = 1
                if (file ~ /^crates\/[^\/]+\/src\// && d ~ /^[ \t]*pub / &&
                    kind ~ /^(fn|struct|enum|const|type)$/) {
                    defs[++nd] = file ":" ln ": pub " kind " " name
                    dname[nd] = name; dfile[nd] = file; isdef[name] = 1
                    push(name)
                }
            }
            # A re-export is not a use: skip `pub use` items, one line or
            # several up to the closing `;`.
            if (code ~ /^[ \t]*pub(\([a-z]+\))? use /) inuse = 1
            if (inuse) { if (code ~ /;[ \t]*$/) inuse = 0; next }
            if (code ~ /^[ \t]*impl[ <]/) push(impl_self(code))
            owners = ""
            for (k = 1; k <= nf; k++) { owners = owners " " fname[k]; own[fname[k]] = 1 }
            opens = gsub(/\{/, "{", code)
            depth += opens - gsub(/\}/, "}", code)
            n = split(code, tok, /[^A-Za-z0-9_]+/)
            # A mention inside the own definition or `impl` block of an item
            # (its definition line, a constructor, a trait impl, a recursive
            # call) is no use.
            for (i = 1; i <= n; i++)
                if (tok[i] ~ /^[A-Za-z_]/ && !(tok[i] in own)) cnt[tok[i], file, owners]++
            for (k = 1; k <= nf; k++) delete own[fname[k]]
            # Close the frames this line ends: a braced one when its brace
            # closes, one without braces at a line ending in `;`.
            if (nf) fopen[nf] += opens
            while (nf && (fopen[nf] ? depth <= fstart[nf] : code ~ /;[ \t]*$/)) nf--
        }
        END {
            for (key in cnt) {
                split(key, kp, SUBSEP)
                if (!(kp[1] in isdef)) continue
                j = ++nuse[kp[1]]
                ufile[kp[1], j] = kp[2]; uowners[kp[1], j] = kp[3]; ucount[kp[1], j] = cnt[key]
            }
            # List until nothing changes: a mention inside a listed item is
            # no use either, so an item only listed items read is listed too.
            do {
                changed = 0
                for (i = 1; i <= nd; i++) {
                    if (i in listed) continue
                    name = dname[i]; uses = 0
                    for (j = 1; j <= nuse[name] && !uses; j++) {
                        f = ufile[name, j]
                        # In a file with its own top-level item of this
                        # name, the name is that item.
                        if (f != dfile[i] && (f, name) in local) continue
                        no = split(uowners[name, j], o, " ")
                        inside = 0
                        for (k = 1; k <= no && !inside; k++) inside = o[k] in listed_name
                        if (!inside) uses += ucount[name, j]
                    }
                    if (!uses) { listed[i] = 1; listed_name[name] = 1; changed = 1; nlisted++ }
                }
            } while (changed)
            for (i = 1; i <= nd; i++) if (i in listed) print defs[i]
            printf "%d item(s) with no non-test use outside their definition\n", nlisted
        }'
exit 0
