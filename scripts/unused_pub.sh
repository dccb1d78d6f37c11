#!/usr/bin/env bash
# Public functions that only their own unit tests reach: every `pub fn`
# whose name occurs as a whole word nowhere but at its definition and
# in its own file's test module (the lines from the file's first
# `#[cfg(test)]` on, as `scripts/loc.sh` counts them). Comment lines and
# `use`/`mod` items are not references; other files' tests are, so a
# helper that integration tests share stays. Sources are the Rust files
# of `crates/`, `examples/`, `tests/` and `benchmark/src`.
# Prints one `path:line: name` per hit and exits 1 if there is any.
#
# It matches by name, so a dead function whose name is also used
# elsewhere (a field, a local, another type's method) goes unreported;
# a function that something outside its own tests calls is never
# reported.
#
# Usage: scripts/unused_pub.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

dirs=()
for d in crates examples tests benchmark/src; do
  [ -d "$d" ] && dirs+=("$d")
done
files=()
while IFS= read -r -d '' f; do
  files+=("$f")
done < <(find "${dirs[@]}" -name '*.rs' -print0 | sort -z)
[ "${#files[@]}" -gt 0 ] || exit 0

# Pass 1 records each non-test `pub fn` definition; pass 2 counts the
# references to every defined name, file by file and region by region.
unused=$(awk '
  FNR == 1 { intest = 0; inuse = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { intest = 1 }
  pass == 1 {
    if (!intest && match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
      def = substr($0, RSTART, RLENGTH)
      sub(/.*fn[[:space:]]+/, "", def)
      ndefs++
      dname[ndefs] = def; dfile[ndefs] = FILENAME; dline[ndefs] = FNR
      defined[def] = 1
      defat[FILENAME ":" FNR] = def
    }
    next
  }
  inuse { if (index($0, ";")) inuse = 0; next }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?use[[:space:]]/ { if (!index($0, ";")) inuse = 1; next }
  /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { next }
  {
    own = defat[FILENAME ":" FNR]
    n = split($0, words, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
      w = words[i]
      if (!(w in defined) || w == own) continue
      refs[w]++
      if (intest) testrefs[w, FILENAME]++
    }
  }
  END {
    for (d = 1; d <= ndefs; d++) {
      w = dname[d]
      if (refs[w] - testrefs[w, dfile[d]] == 0) print dfile[d] ":" dline[d] ": " w
    }
  }
' pass=1 "${files[@]}" pass=2 "${files[@]}" | sort -t: -k1,1 -k2,2n)
if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  exit 1
fi
