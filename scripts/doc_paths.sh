#!/usr/bin/env bash
# Doc paths that name nothing: every `a::b` path inside an inline code
# span of README.md, DESIGN.md or EXPERIMENTS.md with a segment that no
# non-comment line of the Rust files of `crates/`, `examples/`, `tests/`
# or `benchmark/src` contains as a whole word — typically a doc still
# naming a deleted function, type or module.
# Prints one `doc:line: path (missing: names)` per hit and exits 1 if
# there is any.
#
# Usage: scripts/doc_paths.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

docs=()
for f in README.md DESIGN.md EXPERIMENTS.md; do
  [ -f "$f" ] && docs+=("$f")
done
dirs=()
for d in crates examples tests benchmark/src; do
  [ -d "$d" ] && dirs+=("$d")
done
[ "${#docs[@]}" -gt 0 ] && [ "${#dirs[@]}" -gt 0 ] || exit 0

# `doc:line: path` for every path in every inline code span.
paths=$(grep -noE '`[^`]+`' "${docs[@]}" | awk '
  {
    split($0, f, ":")
    at = f[1] ":" f[2]
    span = substr($0, length(at) + 2)
    while (match(span, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+/)) {
      print at ": " substr(span, RSTART, RLENGTH)
      span = substr(span, RSTART + RLENGTH)
    }
  }' || true)
[ -n "$paths" ] || exit 0

names=$(printf '%s\n' "$paths" | awk '{ print $2 }' | tr -s ':' '\n' | sort -u)
found=$(grep -rhv --include='*.rs' '^[[:space:]]*//' "${dirs[@]}" |
  grep -owF -f <(printf '%s\n' "$names") | sort -u || true)

missing=$(awk 'NR == FNR { ok[$0] = 1; next }
  {
    n = split($2, seg, "::"); miss = ""
    for (i = 1; i <= n; i++) if (!(seg[i] in ok)) miss = miss (miss == "" ? "" : ", ") seg[i]
    if (miss != "") print $1 " " $2 " (missing: " miss ")"
  }' <(printf '%s\n' "$found") <(printf '%s\n' "$paths"))
if [ -n "$missing" ]; then
  printf '%s\n' "$missing"
  exit 1
fi
