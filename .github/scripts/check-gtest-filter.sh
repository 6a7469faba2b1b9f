#!/usr/bin/env bash
# Fails when any ':'-separated pattern of a gtest filter selects no test,
# so a renamed or deleted suite cannot silently empty a CI leg.
# gtest 1.12 has no --gtest_fail_if_no_test_selected, so each pattern's
# test list is counted instead.
#
# Usage: check-gtest-filter.sh <gtest binary> <filter>
set -euo pipefail

binary=$1
IFS=':' read -ra patterns <<< "$2"
for p in "${patterns[@]}"; do
  n=$("$binary" --gtest_list_tests --gtest_filter="$p" | grep -c '^  ' || true)
  echo "$p: $n tests"
  if [ "$n" -eq 0 ]; then
    echo "::error::gtest filter pattern '$p' selects no test"
    exit 1
  fi
done
