#!/bin/sh
# Code lines per Rust file: no blank lines, no `//` comment lines (doc
# comments included), nothing from the first `#[cfg(test)]` on. The count
# the simplicity PRs' before/after tables use.
#
#   scripts/code_lines.sh crates/serve/src/engine.rs [more.rs …]
#   git show <rev>:<path> | scripts/code_lines.sh -     # a file at another commit
[ $# -gt 0 ] || { echo "usage: $0 <file.rs|-> …" >&2; exit 2; }
for f in "$@"; do
    awk -v name="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { total = n + 0; printf "%6d %s\n", total, name }' "$f"
done | awk '{ sum += $1; print } END { if (NR > 1) printf "%6d total\n", sum }'
