#!/usr/bin/env bash
# The perf gate's benchmark set, kept in one place for the head run,
# the base run and the completeness check:
#
#   bash .github/scripts/bench-gated.sh run > bench-head.txt
#   bash .github/scripts/bench-gated.sh check bench-head.txt
#
# A -bench pattern's "/…" element filters sub-benchmarks of every
# benchmark it selects, and drops any benchmark that has none, so the
# flat benchmarks and the size ladders run as two invocations: only the
# ladders get the n=1000 filter (n=15 for the exact solver). `check`
# fails unless every gated benchmark left a result line, so a filter
# or rename that silently empties the gate fails the job instead.
set -euo pipefail

flat=(BenchmarkEngine BenchmarkEngineCancel BenchmarkCacheDedup
	BenchmarkCacheHitSweep BenchmarkRemoteDispatch BenchmarkSimulationThroughput)
ladders=(BenchmarkPlanNearestNeighbor BenchmarkPlanGreedyEdge
	BenchmarkPlanConvexHullInsertion BenchmarkPlanKMeans BenchmarkPlanFleet
	BenchmarkPlanCHBAssign BenchmarkReplanAbsorb BenchmarkOptimalHeldKarp
	BenchmarkCellSimulation)
rungs='n=(1000|15)'

alternation() {
	local IFS='|'
	echo "^($*)\$"
}

case ${1:-} in
run)
	for pattern in "$(alternation "${flat[@]}")" "$(alternation "${ladders[@]}")/^$rungs\$"; do
		go test -run '^$' -bench "$pattern" -benchtime 5x -count 6 ./...
	done
	;;
check)
	[ -r "${2:-}" ] || { echo "usage: $0 check FILE" >&2; exit 2; }
	missing=0
	for b in "${flat[@]}"; do
		grep -Eq "^$b(-[0-9]+)?[[:space:]]" "$2" ||
			{ echo "bench gate: $b has no result in $2" >&2; missing=1; }
	done
	for b in "${ladders[@]}"; do
		grep -Eq "^$b/$rungs(-[0-9]+)?[[:space:]]" "$2" ||
			{ echo "bench gate: $b/$rungs has no result in $2" >&2; missing=1; }
	done
	exit $missing
	;;
*)
	echo "usage: $0 run | check FILE" >&2
	exit 2
	;;
esac
