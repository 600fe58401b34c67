#!/usr/bin/env bash
# Runs every planted bug listed in plants.txt: copies the working tree
# (without .git) to a temporary directory, applies the plant's patch
# there with git apply, and runs its named test. The check fails when a
# patch no longer applies, when the named test passes on it, or when it
# fails without printing the plant's expected failure. Nothing in the
# tree itself is modified. Run from anywhere: bash testdata/plants/check.sh
set -uo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../.." && pwd)
status=0
while IFS='|' read -r patch pkg test want; do
	[[ -z "$patch" || "$patch" == \#* ]] && continue
	tmp=$(mktemp -d)
	tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tmp" -xf -
	if ! (cd "$tmp" && git apply "$dir/$patch"); then
		echo "FAIL $patch: the patch no longer applies"
		status=1
	else
		out=$(cd "$tmp" && go test "./$pkg" -run "^${test}\$" -count=1 2>&1)
		if [[ $? -eq 0 ]]; then
			echo "FAIL $patch: $test passes on the planted bug"
			status=1
		elif ! grep -Eq -- "$want" <<<"$out"; then
			echo "FAIL $patch: $test fails without the expected failure /$want/:"
			echo "$out" | head -20
			status=1
		else
			echo "ok   $patch: $test fails: $(grep -Em1 -- "$want" <<<"$out" | sed 's/^[[:space:]]*//' | cut -c1-160)"
		fi
	fi
	rm -rf "$tmp"
done <"$dir/plants.txt"
exit $status
