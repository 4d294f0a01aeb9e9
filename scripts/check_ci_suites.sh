#!/usr/bin/env bash
# CI suite-list guard: every suite that a `ctest -R '^(a|b|...)$'` line in
# .github/workflows/ci.yml names must be a test of the given build. ctest -R
# silently runs nothing for a name that matches no test, so a deleted or
# renamed suite would otherwise drop out of its CI leg unnoticed.
#
# Usage: check_ci_suites.sh <build-dir>   (CTEST=<path> picks the ctest binary)
set -euo pipefail

BUILD_DIR=${1:?usage: check_ci_suites.sh <build-dir>}
CTEST=${CTEST:-ctest}
WORKFLOW="$(cd "$(dirname "$0")/.." && pwd)/.github/workflows/ci.yml"

known=$(cd "$BUILD_DIR" && "$CTEST" -N | sed -n 's/^ *Test *#[0-9]*: *//p')
listed=$(grep -o -- "-R '^([^)]*)" "$WORKFLOW" | sed "s/^-R '^(//; s/)\$//" | tr '|' '\n' |
  sort -u)
if [ -z "$listed" ]; then
  echo "error: no ctest -R suite list found in $WORKFLOW" >&2
  exit 1
fi

missing=0
for name in $listed; do
  if ! grep -qxF -- "$name" <<<"$known"; then
    echo "FAIL: ci.yml runs '$name', which is not a test in $BUILD_DIR" >&2
    missing=$((missing + 1))
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "$missing suite name(s) in ci.yml match no test" >&2
  exit 1
fi
echo "all $(wc -w <<<"$listed") suites named by ci.yml's ctest -R lists exist"
