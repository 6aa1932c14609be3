#!/usr/bin/env bash
# Reachability gate: code stays only if a product run reaches it.
#
# Builds every command, both examples and the benchmark with coverage over
# the whole module, runs the product set below into one GOCOVERDIR, and lists
# the functions no run entered (0.0 % in `go tool cover -func`). Each one is
# keyed by file, function name and how many functions of that name in that
# file went unreached (no line numbers, so moving code does not churn the
# list) and compared with UNREACHED.txt, where every entry carries a reason:
#
#   - an unreached function missing from UNREACHED.txt fails the gate;
#   - a stale entry, one the runs now reach or whose function is gone,
#     fails it too: delete the line.
#
# Usage, from anywhere in the repository (about 2 minutes on 2 cores):
#
#   scripts/reachability.sh
#   REACH_WORK=/tmp/reach scripts/reachability.sh   # keep binaries, coverage
#                                                   # and run outputs there
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${REACH_WORK:-}" ]; then
	work=$REACH_WORK
	rm -rf "$work"
	mkdir -p "$work"
else
	work=$(mktemp -d)
	trap 'rm -rf "$work"' EXIT
fi
bin=$work/bin out=$work/out cov=$work/cov
mkdir -p "$bin" "$out" "$cov"
module=$(go list -m)

echo "== building covered binaries"
for pkg in ./cmd/ddoshield ./cmd/trainids ./cmd/detect ./cmd/tracetool \
	./cmd/benchtables ./examples/quickstart ./examples/mitigation ./benchmark; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$pkg")" "$pkg"
done

# step NAME CMD...: run one product command with coverage collection, its
# output in $out/NAME.log (printed when it fails).
step() {
	local name=$1
	shift
	echo "== $name"
	if ! GOCOVERDIR=$cov "$@" >"$out/$name.log" 2>&1; then
		cat "$out/$name.log" >&2
		echo "reachability: step $name failed" >&2
		exit 1
	fi
}

step ddoshield-default "$bin/ddoshield" -out "$out/data.csv" -pcap "$out/run.pcap" -artifacts "$out/default"
for s in chaos12 example grouped12; do
	step "ddoshield-$s" "$bin/ddoshield" -config "scenarios/$s.json" -artifacts "$out/$s"
done
step ddoshield-defended12 "$bin/ddoshield" -config scenarios/defended12.json -domains 3 -artifacts "$out/defended12"
# The live server: it binds a free loopback port and refreshes its snapshots
# every simulated second; no client connects.
step ddoshield-live "$bin/ddoshield" -config scenarios/defended12.json -domains 3 -listen 127.0.0.1:0 -pprof -artifacts "$out/live"

step trainids "$bin/trainids" -data "$out/data.csv" -outdir "$out/models"
step detect "$bin/detect" -model "$out/models/rf.model,$out/models/kmeans.model,$out/models/cnn.model" -pcap "$out/run.pcap"

spans=$out/defended12/spans.jsonl
trace_id=$(sed -n '1s/^{"trace":\([0-9]*\).*/\1/p' "$spans")
step tracetool-top "$bin/tracetool" -in "$spans" -top 5
step tracetool-mitigated "$bin/tracetool" -in "$spans" -mitigated
step tracetool-trace "$bin/tracetool" -in "$spans" -trace "$trace_id"
step tracetool-chrome "$bin/tracetool" -in "$spans" -chrome "$out/chrome.json"

step benchtables-all "$bin/benchtables" -table all
step benchtables-mitigation "$bin/benchtables" -table mitigation
for s in per-second bots throughput; do
	step "benchtables-$s" "$bin/benchtables" -series "$s"
done

step quickstart "$bin/quickstart"
step mitigation "$bin/mitigation"

step benchmark-smoke "$bin/benchmark" -smoke -out "$out/bench"
step benchmark-smoke-trace "$bin/benchmark" -smoke -trace -out "$out/bench-trace"

echo "== comparing with UNREACHED.txt"
go tool covdata textfmt -i="$cov" -o "$work/cover.out"
go tool cover -func="$work/cover.out" >"$work/func.txt"
tail -1 "$work/func.txt"

# "module/dir/file.go:LINE:  Name  0.0%" -> "dir/file.go Name COUNT"
awk -v mod="$module/" '
	$NF == "0.0%" && $1 ~ /:[0-9]+:$/ {
		file = $1; sub(/:[0-9]+:$/, "", file); sub("^" mod, "", file)
		n[file " " $2]++
	}
	END { for (k in n) print k, n[k] }' "$work/func.txt" | sort >"$work/unreached"

fail=0
if awk '!/^#/ && NF > 0 && NF < 4 { print; bad = 1 } END { exit !bad }' UNREACHED.txt >"$work/noreason"; then
	echo "UNREACHED.txt entries without a reason:" >&2
	cat "$work/noreason" >&2
	fail=1
fi
awk '!/^#/ && NF >= 3 { print $1, $2, $3 }' UNREACHED.txt | sort >"$work/listed"

comm -23 "$work/unreached" "$work/listed" >"$work/new"
comm -13 "$work/unreached" "$work/listed" >"$work/stale"
if [ -s "$work/stale" ]; then
	echo "stale UNREACHED.txt entries (now reached, or gone; delete them):" >&2
	sed 's/^/  /' "$work/stale" >&2
	fail=1
fi
if [ -s "$work/new" ]; then
	echo "functions no product run reaches and UNREACHED.txt does not list:" >&2
	sed 's/^/  /' "$work/new" >&2
	echo "reach them from a product run, delete them, or list them with a reason" >&2
	fail=1
fi
[ "$fail" = 0 ] && echo "reachability: $(awk '{ n += $3 } END { print n }' "$work/unreached") unreached functions, all listed"
exit "$fail"
