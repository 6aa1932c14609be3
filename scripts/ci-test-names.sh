#!/usr/bin/env bash
# CI names tests: a step's `go test -run PATTERN` or `-fuzz PATTERN` picks
# the tests it runs by name, and a pattern that matches nothing passes
# silently. So a test that is deleted or renamed drops out of the step that
# names it without a word. This check fails instead: every alternative of
# every -run and -fuzz pattern in the workflow (split on `|`) must match at
# least one test, fuzz target or benchmark that `go test -list` reports in
# the packages the same command names. The pattern '^$' (run no tests, the
# form a fuzz step uses) is the one exception.
#
# Usage, from anywhere in the repository:
#
#   scripts/ci-test-names.sh [WORKFLOW]   # default .github/workflows/ci.yml;
#                                         # a relative WORKFLOW is read from
#                                         # the repository root
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

# pattern FLAG LINE: the value of -FLAG on LINE, quoted or bare ('' if none).
pattern() {
	sed -nE "s/.* -$1 '([^']*)'.*/\1/p; t; s/.* -$1 \"([^\"]*)\".*/\1/p; t; s/.* -$1 ([^ ]+).*/\1/p" <<<"$2"
}

declare -A listed # package -> its test names, one a line
fail=0 checked=0
while IFS= read -r line; do
	pkgs=$(grep -oE '(^| )\./[^ ]*' <<<"$line" | tr -d ' ' | paste -sd ' ')
	if [ -z "$pkgs" ]; then
		echo "ci-test-names: no package on: $line" >&2
		fail=1
		continue
	fi
	names=""
	for pkg in $pkgs; do
		if [ -z "${listed[$pkg]+set}" ]; then
			listed[$pkg]=$(go test -list '.*' "$pkg" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
		fi
		names+="${listed[$pkg]}"$'\n'
	done
	for flag in run fuzz; do
		pat=$(pattern "$flag" "$line")
		[ -n "$pat" ] && [ "$pat" != '^$' ] || continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			if ! grep -qE -- "$alt" <<<"$names"; then
				echo "ci-test-names: -$flag alternative '$alt' matches no test in $pkgs" >&2
				fail=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|fuzz) ' "$workflow")

if [ "$checked" -eq 0 ]; then
	echo "ci-test-names: no -run or -fuzz pattern found in $workflow" >&2
	exit 1
fi
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "ci-test-names: $checked named alternatives in $workflow each match a test"
