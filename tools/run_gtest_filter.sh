#!/usr/bin/env bash
# Runs a gtest binary on a --gtest_filter after checking that every
# ':'-separated pattern of the filter names at least one test.
#
# gtest exits 0 when a filter matches nothing, so a renamed or deleted
# test would otherwise drop out of a step that lists it by name without
# any failure. Negative patterns (after '-') are not supported.
#
# Usage: tools/run_gtest_filter.sh BINARY FILTER [extra gtest args...]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BINARY FILTER [gtest args...]" >&2
  exit 2
fi
binary="$1"
filter="$2"
shift 2
if [[ "$filter" == *-* ]]; then
  echo "run_gtest_filter: negative filters are not supported" >&2
  exit 2
fi

IFS=':' read -r -a patterns <<< "$filter"
missing=0
for pattern in "${patterns[@]}"; do
  count=$("$binary" --gtest_list_tests --gtest_filter="$pattern" |
          grep -c '^  ' || true)
  if [[ "$count" -eq 0 ]]; then
    echo "run_gtest_filter: '$pattern' matches no test in $binary" >&2
    missing=$((missing + 1))
  fi
done
if [[ "$missing" -gt 0 ]]; then
  echo "run_gtest_filter: $missing of ${#patterns[@]} pattern(s) match" \
       "nothing; a listed test was renamed or deleted" >&2
  exit 1
fi
echo "run_gtest_filter: all ${#patterns[@]} pattern(s) match"
exec "$binary" --gtest_filter="$filter" "$@"
