#!/usr/bin/env sh
# Non-test, non-comment, non-blank Go lines per package of the root
# module — the measure a simplicity PR reports parent -> change. With
# arguments, only the named directories (e.g. internal/client) count;
# the last line is their total.
set -eu
cd "$(dirname "$0")/.."

count() { # count DIR: code lines in DIR's own non-test .go files
    find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + 2>/dev/null |
        grep -vcE '^[[:space:]]*(//.*)?$' || true
}

if [ $# -eq 0 ]; then
    set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
        -exec dirname {} + | sort -u | sed 's|^\./||')
fi
total=0
for dir in "$@"; do
    n=$(count "$dir")
    printf '%-28s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
