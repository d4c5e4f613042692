#!/usr/bin/env bash
# Fails when any pattern of a gtest filter selects no test, so a renamed or
# deleted test cannot silently drop out of a CI step's filter.
#
#   check_gtest_filter.sh TEST_BINARY 'Pattern.*:Other.Pattern*'
#
# Each ':'-separated pattern is listed on its own (--gtest_list_tests); the
# combined filter would still list tests while one stale pattern matched
# nothing. Negative patterns (after '-') are not checked.
set -euo pipefail

binary=$1
filter=${2%%-*}
status=0
IFS=':' read -ra patterns <<< "$filter"
for pattern in "${patterns[@]}"; do
  [ -z "$pattern" ] && continue
  count=$("$binary" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)
  echo "$(basename "$binary") '$pattern': $count test(s)"
  if [ "$count" -eq 0 ]; then
    echo "error: gtest filter pattern '$pattern' selects no test" >&2
    status=1
  fi
done
exit $status
