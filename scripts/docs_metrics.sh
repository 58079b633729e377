#!/bin/sh
# Checks that docs/OBSERVABILITY.md names only metrics the code emits.
#
#   $ scripts/docs_metrics.sh [REPO_ROOT]
#
# Every backquoted name in the first column of a table in that document
# that looks like a metric (lowercase, dot-separated, e.g. timing.sta.runs)
# must appear as a quoted string literal in a .h or .cpp file under src/ or
# tools/. Names with placeholders (fault.<catalog>.pass) or labels
# (serve.shed.dropped{priority=...}) are not checked. Exits 1 and lists the
# stale names when any is missing, 2 when the document is missing.
set -eu

root="${1:-$(dirname "$0")/..}"
doc="$root/docs/OBSERVABILITY.md"
[ -f "$doc" ] || { echo "docs_metrics: $doc not found" >&2; exit 2; }

literals=$(mktemp)
trap 'rm -f "$literals"' EXIT
find "$root/src" "$root/tools" -type f \( -name '*.h' -o -name '*.cpp' \) \
  -exec cat {} + | grep -o '"[^"]*"' | sort -u > "$literals"

names=$(awk -F'|' '/^\|/ { print $2 }' "$doc" |
  awk -F'`' '{ for (i = 2; i <= NF; i += 2) print $i }' |
  grep -xE '[a-z][a-z0-9_]*(\.[a-z0-9_]+)+' | sort -u)

checked=0
missing=0
for name in $names; do
  checked=$((checked + 1))
  if ! grep -qxF "\"$name\"" "$literals"; then
    echo "docs_metrics: docs/OBSERVABILITY.md names $name, which no file under src/ or tools/ emits" >&2
    missing=$((missing + 1))
  fi
done
if [ "$missing" -gt 0 ]; then
  echo "docs_metrics: $missing of $checked documented metric names are stale" >&2
  exit 1
fi
echo "docs_metrics: OK ($checked documented metric names, all emitted)"
