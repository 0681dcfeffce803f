#!/usr/bin/env bash
# Panic-surface ratchet: counts `.unwrap()`, `.expect(` and `panic!(` in
# non-test code — every `.rs` file under `src/` and `crates/*/src`, up to
# the file's first `#[cfg(test)]` module (a `#[cfg(test)]` on any other
# item, such as a test-only field or switch, does not end the count) —
# and fails when the total rises above CEILING. When a change removes
# some, lower CEILING to the new count in the same change, so the surface
# can only shrink.
# Usage: scripts/panic_ratchet.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=50

per_file=$(find src crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { live = 1; gated = 0 }
    gated && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { live = 0 }
    { gated = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1 }
    live { n[FILENAME] += gsub(/\.unwrap\(\)|\.expect\(|panic!\(/, "&") }
    END { for (f in n) if (n[f] > 0) print n[f], f }' | sort -rn)
total=$(awk '{ s += $1 } END { print s + 0 }' <<<"$per_file")

if [ "$total" -gt "$CEILING" ]; then
    echo "panic ratchet FAILED: $total unwrap/expect/panic! in non-test code (ceiling $CEILING)" >&2
    echo "per file:" >&2
    echo "$per_file" >&2
    exit 1
fi
echo "panic ratchet ok: $total (ceiling $CEILING)"
