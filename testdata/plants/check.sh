#!/usr/bin/env bash
# Runs every planted bug listed in plants.txt: copies the working tree
# (without .git) to a temporary directory, applies the plant's patch
# there with git apply, and runs its named test. The check fails when a
# patch no longer applies, when the named test passes on it, or when it
# fails without printing the plant's expected failure. Plants run as
# many at a time as there are CPUs; their reports print in plants.txt
# order. Nothing in the tree itself is modified. Run from anywhere:
# bash testdata/plants/check.sh
set -uo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# plant runs one plant and writes its report line(s) to stdout; its exit
# status is the plant's verdict.
plant() {
	local patch=$1 pkg=$2 test=$3 want=$4 tmp log
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' RETURN
	tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tmp" -xf -
	if ! (cd "$tmp" && git apply "$dir/$patch"); then
		echo "FAIL $patch: the patch no longer applies"
		return 1
	fi
	log=$(cd "$tmp" && go test "./$pkg" -run "^${test}\$" -count=1 2>&1)
	if [[ $? -eq 0 ]]; then
		echo "FAIL $patch: $test passes on the planted bug"
		return 1
	elif ! grep -Eq -- "$want" <<<"$log"; then
		echo "FAIL $patch: $test fails without the expected failure /$want/:"
		echo "$log" | head -20
		return 1
	fi
	echo "ok   $patch: $test fails: $(grep -Em1 -- "$want" <<<"$log" | sed 's/^[[:space:]]*//' | cut -c1-160)"
}

jobs=$(nproc 2>/dev/null || echo 2)
i=0
while IFS='|' read -r patch pkg test want; do
	[[ -z "$patch" || "$patch" == \#* ]] && continue
	while (($(jobs -rp | wc -l) >= jobs)); do
		wait -n
	done
	plant "$patch" "$pkg" "$test" "$want" >"$out/$i" 2>&1 || touch "$out/$i.fail" &
	i=$((i + 1))
done <"$dir/plants.txt"
wait

status=0
for ((k = 0; k < i; k++)); do
	cat "$out/$k"
	[[ -e "$out/$k.fail" ]] && status=1
done
exit $status
