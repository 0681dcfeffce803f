#!/usr/bin/env bash
# Dead-surface ratchet: lists every `pub` fn, type, field and const
# declared in `crates/*/src` — up to each file's `#[cfg(test)]` module
# or `#![cfg(test)]` line, the panic ratchet's rule — whose name appears
# in no other file's non-test code under `src/` or `crates/*/src`. Such a
# name is either dead (delete it), read only in its own file (drop its
# `pub`), or read only from outside the product code — tests, the
# benchmark harness — and then listed in scripts/surface_allow.txt with
# one reason.
#
# Fails when more than CEILING names are flagged and not allowed, or when
# an allow-file entry no longer matches a flagged name (so the list cannot
# rot). When a change removes some, lower CEILING in the same change.
# Usage: scripts/surface_ratchet.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=0
ALLOW=scripts/surface_allow.txt

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Every non-test line, as `file<TAB>line`. A `pub use` statement, on
# one line or many, re-exports a name without reading it, so its lines
# are left out.
find src crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { live = 1; gated = 0; reexport = 0 }
    gated && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { live = 0 }
    { gated = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1 }
    /^#!\[cfg\(test\)\]/ { live = 0 }
    /^[[:space:]]*pub use / { reexport = 1 }
    live && !reexport { print FILENAME "\t" $0 }
    reexport && /;/ { reexport = 0 }' >"$work/live"

# `file name` of every plain-`pub` declaration in crates/*/src.
awk -F'\t' '$1 ~ /^crates\// {
    if (match($2, /^[[:space:]]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/) ||
        match($2, /^[[:space:]]*pub (struct|enum|trait|type|union|const|static) [A-Za-z_][A-Za-z0-9_]*/) ||
        match($2, /^[[:space:]]*pub [a-z_][a-z0-9_]*:/)) {
        s = substr($2, RSTART, RLENGTH)
        sub(/:$/, "", s)
        n = split(s, w, /[[:space:]]+/)
        print $1, w[n]
    }
}' "$work/live" | LC_ALL=C sort -u >"$work/decl"

# `word file` for every identifier-like word of every file's live code,
# with `//`, `///` and `//!` comments cut off first: a name mentioned in
# prose is not read. String literals stay, because `format!("{name}")`
# reads `name` inside one; so a name that also occurs as a word in some
# string (a span field such as `("workers", …)`) still counts as read.
awk -F'\t' '
    function code(line,    out, i, c, n) {
        out = ""
        n = length(line)
        for (i = 1; i <= n; i++) {
            c = substr(line, i, 1)
            if (instr) {
                if (c == "\\") { out = out c substr(line, i + 1, 1); i++; continue }
                if (c == "\"") instr = 0
            } else if (c == "\"") {
                instr = 1
            } else if (c == "\047" && substr(line, i + 1, 2) == "\"\047") {
                # the char literal of a double quote opens no string
                out = out c "\"\047"; i += 2; continue
            } else if (c == "/" && substr(line, i + 1, 1) == "/") {
                break
            }
            out = out c
        }
        return out
    }
    $1 != file { file = $1; instr = 0 }
    {
        n = split(code($2), w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (w[i] != "") print w[i], $1
    }' "$work/live" | LC_ALL=C sort -u >"$work/words"

# A declaration is flagged when no other file's live code has its name.
awk 'NR == FNR { seen[$1] = seen[$1] " " $2; next }
     {
         n = split(seen[$2], f, " ")
         other = 0
         for (i = 1; i <= n; i++) if (f[i] != $1) other = 1
         if (!other) print $1, $2
     }' "$work/words" "$work/decl" | LC_ALL=C sort >"$work/flagged"

awk '!/^[[:space:]]*(#|$)/ { print $1, $2 }' "$ALLOW" | LC_ALL=C sort >"$work/allowed"
unlisted=$(LC_ALL=C comm -23 "$work/flagged" "$work/allowed")
stale=$(LC_ALL=C comm -13 "$work/flagged" "$work/allowed")
count=$(grep -c . <<<"$unlisted" || true)

status=0
if [ -n "$stale" ]; then
    echo "surface ratchet FAILED: allow-file entries that are no longer flagged:" >&2
    echo "$stale" >&2
    status=1
fi
if [ "$count" -gt "$CEILING" ]; then
    echo "surface ratchet FAILED: $count pub names read by no other file (ceiling $CEILING):" >&2
    echo "$unlisted" >&2
    status=1
fi
[ "$status" -eq 0 ] || exit 1
echo "surface ratchet ok: $count unlisted (ceiling $CEILING), $(grep -c . "$work/allowed") allowed"
