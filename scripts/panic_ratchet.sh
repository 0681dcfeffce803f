#!/usr/bin/env bash
# Panic-surface ratchet: counts `.unwrap()`, `.expect(` and `panic!(` in
# non-test code — every `.rs` file under `src/` and `crates/*/src`, up to
# the file's first `#[cfg(test)]` attribute — and fails when the total
# rises above CEILING. When a change removes some, lower CEILING to the
# new count in the same change, so the surface can only shrink.
# Usage: scripts/panic_ratchet.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=55

per_file=$(find src crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { live = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
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
