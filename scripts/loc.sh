#!/usr/bin/env bash
# Code lines under src/, per module (src/<dir>/) and in total: the
# non-blank lines of every .cpp and .hpp that are not `//` comment
# lines.  The total is exactly
#
#   find src -name '*.cpp' -o -name '*.hpp' | xargs cat \
#     | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
#
# which is how ROADMAP item 5's "fewer lines under src/" gate is
# measured, so every change reports it the same way.
#
# Usage: scripts/loc.sh        (any working directory)
set -euo pipefail
cd "$(dirname "$0")/.."

code_lines() {
  # xargs -r: a module without sources counts 0 instead of reading stdin.
  xargs -r cat | { grep -v '^\s*$' || true; } | { grep -v '^\s*//' || true; } |
    wc -l
}

sum=0
printf '%-12s %6s\n' module lines
for dir in src/*/; do
  n=$(find "$dir" -name '*.cpp' -o -name '*.hpp' | code_lines)
  printf '%-12s %6d\n' "$(basename "$dir")" "$n"
  sum=$((sum + n))
done
top=$(find src -maxdepth 1 -name '*.cpp' -o -maxdepth 1 -name '*.hpp' |
  code_lines)
printf '%-12s %6d\n' "(src/)" "$top"
sum=$((sum + top))

total=$(find src -name '*.cpp' -o -name '*.hpp' | code_lines)
printf '%-12s %6d\n' total "$total"
if [[ "$sum" -ne "$total" ]]; then
  echo "loc.sh: per-module lines ($sum) do not add up to the total" >&2
  exit 1
fi
