#!/usr/bin/env bash
# Non-test Rust lines per workspace package: the lines of each source
# file before its first `#[cfg(test)]`. Integration tests (`tests/`
# directories) are not counted, so moving code into tests or deleting
# tests does not read as a reduction.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

non_test_lines() {
  find "$@" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

total=0
for src in crates/*/src; do
  n=$(non_test_lines "$src")
  printf '%-12s %6d\n' "$(basename "$(dirname "$src")")" "$n"
  total=$((total + n))
done
n=$(non_test_lines examples -maxdepth 1)
printf '%-12s %6d\n' examples "$n"
total=$((total + n))
printf '%-12s %6d\n' total "$total"
