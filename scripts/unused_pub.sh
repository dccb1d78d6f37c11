#!/usr/bin/env bash
# Public functions that nothing references: every `pub fn` whose name
# occurs as a whole word only once (its own definition) across the
# Rust sources of `crates/`, `examples/`, `tests/` and `benchmark/src`.
# Prints one `path:line: name` per hit and exits 1 if there is any.
#
# It matches by name, so a dead function whose name is also used
# elsewhere (a field, a local, another type's method) goes unreported;
# a function that something calls is never reported.
#
# Usage: scripts/unused_pub.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

dirs=()
for d in crates examples tests benchmark/src; do
  [ -d "$d" ] && dirs+=("$d")
done

defs_re='^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*'
defs=$(grep -rnEo --include='*.rs' "$defs_re" "${dirs[@]}" |
  sed -E 's/^([^:]+:[0-9]+):.*fn[[:space:]]+([A-Za-z0-9_]+)$/\1 \2/' || true)
[ -n "$defs" ] || exit 0

# Whole-word occurrences of every defined name, counted once over all files.
counts=$(printf '%s\n' "$defs" | awk '{ print $2 }' | sort -u |
  grep -rhowF --include='*.rs' -f /dev/stdin "${dirs[@]}" | sort | uniq -c)

unused=$(awk 'NR == FNR { n[$2] = $1; next } n[$2] == 1 { print $1 ": " $2 }' \
  <(printf '%s\n' "$counts") <(printf '%s\n' "$defs") | sort)
if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  exit 1
fi
