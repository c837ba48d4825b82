#!/bin/sh
# The public surface nothing outside its crate names: how many `pub` fn /
# struct / enum / trait / const / type / static items in `crates/<c>/src`
# have a name that appears, as a whole word, nowhere in `crates/` outside
# `crates/<c>/src`, nor in `src/`, `tests/`, `examples/` or `benchmark/src`.
# Each is a candidate for `pub(crate)`; a survivor needs a reason (a type
# in a signature other crates call, a method clippy asks for, …).
#
#   scripts/pub_surface.sh           # the total
#   scripts/pub_surface.sh -v        # one `file:line name` per item, then the total
cd "$(dirname "$0")/.." || exit 2
verbose=0
[ "$1" = "-v" ] && verbose=1
pattern='^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|const|type|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*'
total=0
for dir in crates/*/src; do
    others=$(find crates src tests examples benchmark/src -name '*.rs' 2>/dev/null |
        grep -v "^$dir/")
    for name_at in $(grep -rnoE "$pattern" "$dir" --include='*.rs' |
        sed -E 's/^([^:]+:[0-9]+):.*[[:space:]]([A-Za-z_][A-Za-z0-9_]*)$/\1|\2/'); do
        name=${name_at#*|}
        if ! printf '%s\n' $others | xargs grep -qw -- "$name"; then
            total=$((total + 1))
            [ $verbose = 1 ] && echo "${name_at%|*} $name"
        fi
    done
done
echo "$total"
