#!/bin/sh
# The public surface nothing outside its crate names: how many `pub` fn /
# struct / enum / trait / const / type / static items in `crates/<c>/src`
# have a name that appears, as a whole word, nowhere in `crates/` outside
# `crates/<c>/src`, nor in `src/`, `tests/`, `examples/` or `benchmark/src`.
# A `pub use` statement (one line or a multi-line `pub use {…};` block) is
# not a use: a re-export names an item without calling, building or
# matching it. A binary under `crates/<c>/src/bin/` is a crate of its own,
# so its files count as outside `crates/<c>/src` and are not scanned for
# items: what a binary names must stay `pub`. Each item counted is a
# candidate for `pub(crate)`; a survivor needs a reason (a type in a
# signature other crates call, a method clippy asks for, …).
#
#   scripts/pub_surface.sh           # the total
#   scripts/pub_surface.sh -v        # one `file:line name` per item, then the total
cd "$(dirname "$0")/.." || exit 2
verbose=0
[ "$1" = "-v" ] && verbose=1
pattern='^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|const|type|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*'
# Every file the names are looked up in, with its `pub use` statements cut.
corpus=$(mktemp -d) || exit 2
trap 'rm -rf "$corpus"' EXIT
for f in $(find crates src tests examples benchmark/src -name '*.rs' 2>/dev/null); do
    mkdir -p "$corpus/$(dirname "$f")"
    awk '/^[[:space:]]*pub[[:space:]]+use[[:space:]]/ { reexport = 1 }
         !reexport { print }
         reexport && /;/ { reexport = 0 }' "$f" > "$corpus/$f"
done
total=0
for dir in crates/*/src; do
    others=$(cd "$corpus" && find . -name '*.rs' | sed 's|^\./||' |
        grep -v "^$dir/" ; cd "$corpus" && find "$dir/bin" -name '*.rs' 2>/dev/null)
    for name_at in $(grep -rnoE "$pattern" "$dir" --include='*.rs' --exclude-dir=bin |
        sed -E 's/^([^:]+:[0-9]+):.*[[:space:]]([A-Za-z_][A-Za-z0-9_]*)$/\1|\2/'); do
        name=${name_at#*|}
        if ! (cd "$corpus" && printf '%s\n' $others | xargs grep -qw -- "$name"); then
            total=$((total + 1))
            [ $verbose = 1 ] && echo "${name_at%|*} $name"
        fi
    done
done
echo "$total"
