#!/usr/bin/env bash
# Print the non-test and test Go line counts outside bench/, the figures
# ROADMAP.md and CHANGES.md quote.
#
#   scripts/loc.sh          count the working tree
#   scripts/loc.sh <rev>    count a git revision, e.g. HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-}
if [ -n "${rev}" ]; then
  files=$(git ls-tree -r --name-only "${rev}")
  show() { git show "${rev}:$1"; }
else
  files=$(find . \( -path ./bench -o -path ./.git \) -prune -o -type f -name '*.go' -print | sed 's|^\./||')
  show() { cat "$1"; }
fi

nontest=0
tests=0
while read -r f; do
  case "${f}" in
  bench/*) continue ;;
  *.go) ;;
  *) continue ;;
  esac
  n=$(show "${f}" | wc -l)
  case "${f}" in
  *_test.go) tests=$((tests + n)) ;;
  *) nontest=$((nontest + n)) ;;
  esac
done <<<"${files}"

echo "non-test ${nontest}"
echo "test     ${tests}"
