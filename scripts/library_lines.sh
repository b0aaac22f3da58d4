#!/bin/sh
# Prints the library's non-test line count: every `.rs` file under
# `crates/*/src` and `src`, each counted up to (not including) its first
# `#[cfg(test)]` line, or whole when it has none. Run from anywhere in the
# repository; `-v` also lists the per-file counts.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    awk -v file="$file" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, file }' "$file"
done | awk -v verbose="${1:-}" '
    verbose == "-v" { print }
    { total += $1 }
    END { print total, "total" }'
