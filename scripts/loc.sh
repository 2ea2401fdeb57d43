#!/usr/bin/env bash
# Production lines per crate — the "line count per crate" metric of
# ROADMAP aim 2. Counted: every *.rs under crates/<c>/src except files
# named tests.rs; within a file only the lines above the first column-0
# `#[cfg(test)]`; blank lines and lines holding only a `//` comment are
# skipped. Also prints the sum over every crate listed, so code moved
# from a gated crate into an ungated one reads as a move, not a deletion.
# Fails when sql + server + storage + core exceeds CEILING.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=10644

count() {
    find "crates/$1/src" -name '*.rs' ! -name 'tests.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { live = 1 }
            /^#\[cfg\(test\)\]/ { live = 0 }
            live && !/^[[:space:]]*(\/\/.*)?$/ { n++ }
            END { print n + 0 }'
}

gated=0
all=0
for dir in crates/*/; do
    c=$(basename "$dir")
    [ -d "crates/$c/src" ] || continue
    n=$(count "$c")
    printf '%-12s %6d\n' "$c" "$n"
    all=$((all + n))
    case "$c" in sql | server | storage | core) gated=$((gated + n)) ;; esac
done
printf '%-12s %6d\n' "all crates" "$all"
printf '%-12s %6d  (ceiling %d)\n' "sql+server+storage+core" "$gated" "$CEILING"
if [ "$gated" -gt "$CEILING" ]; then
    echo "production line count grew past the recorded ceiling" >&2
    exit 1
fi
