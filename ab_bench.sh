#!/usr/bin/env bash
# ab_bench.sh — the repo benchmark's parent/change A/B protocol in one command.
#
#   ./ab_bench.sh [-n pairs] [-s seed] [-w workload[,workload…]] [-d dir] [-o file] [PARENT [CHANGE]]
#
# PARENT (default HEAD~1) and CHANGE (default HEAD) are git revisions. Each
# is cloned into a sibling tree under dir (default a fresh temporary
# directory) and checked out there: the committed files only, so edits in
# the working tree are never measured, this repository's .git is left as it
# was, and each run's environment record names its own commit.
# For every workload (default: all of BENCHMARK.json's) it runs `pairs`
# pairs of
#
#   go run -C <tree>/bench . --workload W --seed S --trace 0 -out <side>.json
#
# one side after the other, never two at once, alternating which side goes
# first so drift on a shared machine falls on both. Before any of them it
# runs, in each tree, `go test -count=1 -run '^TestSize$' -v .` and then,
# timed, `go test -count=1 ./...` (after an untimed build of the tests). It
# then writes file (default BENCH.json) as {"parent": …, "change": …}, each
# side the file -out wrote plus, next to its env, "size" (the parsed
# `size: key=value …` row) and "go_test_s" (that wall time in seconds), and
# prints `-compare parent change`, which ignores the two extra keys. Cite
# rows from it as
# `jq '.change.runs[] | select(.workload == "approx.single") | .metrics.qps.value' BENCH_<n>.json`
# or `jq '.change.size.loc' BENCH_<n>.json`.
set -euo pipefail

pairs=3 seed=1 workloads="" dir="" out="BENCH.json"
while getopts "n:s:w:d:o:h" opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	s) seed=$OPTARG ;;
	w) workloads=${OPTARG//,/ } ;;
	d) dir=$OPTARG ;;
	o) out=$OPTARG ;;
	*) sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
parent=$(git rev-parse --verify "${1:-HEAD~1}^{commit}")
change=$(git rev-parse --verify "${2:-HEAD}^{commit}")
root=$(git rev-parse --show-toplevel)
[ -n "$workloads" ] || workloads=$(jq -r '[.workloads[].name] | join(" ")' "$root/BENCHMARK.json")
[ -n "$dir" ] || dir=$(mktemp -d)
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
case $out in /*) ;; *) out="$PWD/$out" ;; esac

for side in parent change; do
	rm -rf "${dir:?}/$side" "$dir/$side.json"
	git clone -q --no-checkout "$root" "$dir/$side"
	git -C "$dir/$side" checkout -q --detach "${!side}"
done
echo "parent $parent, change $change: $pairs pairs × {$workloads} at seed $seed, trees in $dir" >&2

size() { # side: the size row as a JSON object, and the suite's wall time
	local row t0
	row=$(cd "$dir/$1" && go test -count=1 -run '^TestSize$' -v . | sed -n 's/.*size: //p') || true
	jq -n --arg row "$row" 'if $row == "" then null else
		$row | split(" ") | map(split("=") | {(.[0]): (.[1] | tonumber)}) | add end' >"$dir/$1.size.json"
	(cd "$dir/$1" && go test -count=1 -run '^$' ./... >/dev/null) || true
	t0=$SECONDS
	(cd "$dir/$1" && go test -count=1 ./... >/dev/null) || echo "go test ./... failed in the $1 tree" >&2
	echo $((SECONDS - t0)) >"$dir/$1.go_test_s"
}
for side in parent change; do
	echo "== $side size row and go test" >&2
	size "$side"
done

run() { # side workload
	echo "== $1 $2" >&2
	go run -C "$dir/$1/bench" . --workload "$2" --seed "$seed" --trace 0 -out "$dir/$1.json"
}
for w in $workloads; do
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then
			run parent "$w"
			run change "$w"
		else
			run change "$w"
			run parent "$w"
		fi
	done
done

jq -n --slurpfile p "$dir/parent.json" --slurpfile c "$dir/change.json" \
	--slurpfile ps "$dir/parent.size.json" --slurpfile cs "$dir/change.size.json" \
	--slurpfile pt "$dir/parent.go_test_s" --slurpfile ct "$dir/change.go_test_s" \
	'{parent: ($p[0] + {size: $ps[0], go_test_s: $pt[0]}), change: ($c[0] + {size: $cs[0], go_test_s: $ct[0]})}' >"$out"
echo "wrote $out" >&2
go run -C "$dir/change/bench" . -compare "$dir/parent.json" "$dir/change.json"
