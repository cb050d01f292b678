#!/usr/bin/env bash
# reachability.sh: fail unless the simulator's reachable code is
# exactly what its traffic reaches.
#
# It builds the traffic with -cover: perfbench's three workloads, every
# dcsbench experiment, the golden checkpoint restore, dcsctl, dcstrace
# and the examples. It runs all of it and lists the non-test functions
# the traffic leaves at 0% coverage, outside dcs.go (public API),
# internal/bench, internal/lint, cmd/ and examples/. That list must
# equal scripts/reachability.keep, which names each such function with
# the rule that keeps it. The check fails when the traffic leaves a
# function unreached that the keep-list does not hold, and when it
# reaches a function the keep-list holds: delete the first, or give it
# a rule; take the second off the list. So the list can only shrink.
#
# Usage, from anywhere in the checkout: scripts/reachability.sh [OUTDIR]
# Builds and coverage data go to OUTDIR (default: a fresh temporary
# directory), never into the checkout. It takes about two minutes on
# two cores.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$(mktemp -d)}")
case "$out" in
"$root" | "$root"/*)
	echo "reachability: OUTDIR $out is inside the checkout" >&2
	exit 2
	;;
esac
mkdir -p "$out/data" "$out/tr" "$out/ck"
cd "$root"

echo "reachability: building the traffic with -cover into $out"
(cd perfbench && go build -cover -coverpkg=dcsctrl/... -o "$out/pb" .)
for c in cmd/dcsbench cmd/dcsctl cmd/dcstrace examples/*; do
	go build -cover -coverpkg=dcsctrl/... -o "$out/$(basename "$c")" "./$c"
done

export GOCOVERDIR=$out/data
echo "reachability: running the traffic"
for w in paper_cells rack_alltoall fault_matrix; do
	"$out/pb" -workload "$w" -seconds 1 >/dev/null
	"$out/pb" -workload "$w" -seconds 1 -trace 1 -outdir "$out/tr" >/dev/null
done
"$out/dcsbench" -parallel 2 >/dev/null
"$out/dcsbench" -parallel 4 -only sweep,fig11a,fig11b,rack -nodes 64 -domains 4 \
	-benchjson "$out/k.json" -dataplanejson "$out/d.json" >/dev/null
"$out/dcsbench" -checkpoint "$out/ck" >/dev/null
"$out/dcsbench" -restore artifacts/ckpt-*.ckpt.gz >/dev/null
dcsctl() {
	local status=0
	"$out/dcsctl" "$@" >/dev/null 2>"$out/dcsctl.err" || status=$?
	# The integrated design models no receive path: dcsctl refuses the
	# op with exit 2 before building anything.
	if [ "$status" -ne 0 ] && ! { [ "$status" -eq 2 ] && [ "$*" = "-config dev-integration -op recv" ]; }; then
		cat "$out/dcsctl.err" >&2
		echo "reachability: dcsctl $* exited $status" >&2
		exit 1
	fi
}
for cfg in vanilla sw-opt sw-p2p dev-integration dcs-ctrl; do
	for op in send recv; do
		dcsctl -config "$cfg" -op "$op"
	done
	dcsctl -config "$cfg" -faults heavy
	dcsctl -config "$cfg" -faults engine-fail
done
"$out/dcstrace" >/dev/null
"$out/dcstrace" -config dcs-ctrl >/dev/null
for e in examples/*; do
	"$out/$(basename "$e")" >/dev/null
done
unset GOCOVERDIR

# go tool cover cannot find the perfbench module's own files, so its
# lines are dropped first.
go tool covdata textfmt -i="$out/data" -o "$out/all.txt"
grep -v '^dcsctrl/perfbench/' "$out/all.txt" >"$out/sim.txt"
go tool cover -func="$out/sim.txt" |
	awk '$NF == "0.0%" { sub(/^dcsctrl\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	awk '!/^(dcs\.go|internal\/bench\/|internal\/lint\/|cmd\/|examples\/)/' |
	LC_ALL=C sort >"$out/unreached.txt"
awk '!/^(#|$)/ { print $1, $2 }' scripts/reachability.keep | LC_ALL=C sort >"$out/keep.txt"

status=0
if new=$(LC_ALL=C comm -23 "$out/unreached.txt" "$out/keep.txt") && [ -n "$new" ]; then
	echo "reachability: the traffic leaves these functions unreached and the keep-list does not hold them (delete them, or add each with its keep-rule):" >&2
	echo "$new" | sed 's/^/  /' >&2
	status=1
fi
if reached=$(LC_ALL=C comm -13 "$out/unreached.txt" "$out/keep.txt") && [ -n "$reached" ]; then
	echo "reachability: the traffic now reaches these kept functions (take them off scripts/reachability.keep):" >&2
	echo "$reached" | sed 's/^/  /' >&2
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "reachability: $(wc -l <"$out/unreached.txt") unreached functions, each held by the keep-list"
fi
exit $status
