#!/usr/bin/env bash
# Code lines (neither blank nor `//`) per crate, for the "least code" aim
# (ROADMAP item 3 and the `loc` line of 1(e)).
#
#   scripts/loc.sh [tree=this checkout]
#
# One line per directory under crates/ (every *.rs below it, tests
# included), their sum, and crates/core/src/server.rs above its test
# module — the figure crates/core/tests/knob_registry.rs ratchets.  Give
# it an unpacked parent commit to compare against.
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

code_lines() { grep -vcE '^\s*(//|$)' || true; }

total=0
for crate in crates/*/; do
    n=$(find "$crate" -name '*.rs' -print0 | xargs -0 cat | code_lines)
    printf '%-16s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' 'crates/' "$total"
printf '%-16s %6d\n' 'server.rs' \
    "$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/server.rs | code_lines)"
