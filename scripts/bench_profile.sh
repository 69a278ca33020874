#!/usr/bin/env bash
# bench_profile.sh — one benchmark workload under the allocation or the CPU
# profiler, its top table already in the benchmark's own units.
#
# Nothing under bench/ may change for a measurement, so the profiler is added
# to a copy: the working tree (without .git) is copied to a temporary
# directory, the copy's bench/ gets one file that starts and writes the
# profile and one line in main.go that calls it right after flag.Parse, the
# copy is built and the workload run once from the copy's root. What is
# printed is the run's own report, then `go tool pprof -top` of the profile
# with two columns appended: flat and cum as a share of the run's
# allocs_per_event (alloc: objects per event, sampled every 4,096 bytes) or
# of its cpu_us_per_event (cpu: µs per event). The rows of "What one hop
# still allocates" and of the CPU tables in docs/PERFORMANCE.md are read off
# these columns. A profiled run is slower than a plain one: its events_per_s
# is not a measurement, its allocs_per_event is (it is a count).
#
# Usage: scripts/bench_profile.sh <workload> <seed> alloc|cpu [pprof flags]
#        e.g. scripts/bench_profile.sh pipe2-sat 12 alloc -nodecount=40
#             scripts/bench_profile.sh pipe2-sat 11 cpu -focus='idTable|idSet'
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || { [ "$3" != alloc ] && [ "$3" != cpu ]; }; then
	echo "usage: scripts/bench_profile.sh <workload> <seed> alloc|cpu [go tool pprof flags]" >&2
	exit 2
fi
workload=$1 seed=$2 kind=$3
shift 3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar --exclude=./.git -c . | tar -x -C "$work/tree"

cat >"$work/tree/bench/zz_profile.go" <<'EOF'
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

func init() {
	if os.Getenv("BENCH_PROFILE_KIND") == "alloc" {
		runtime.MemProfileRate = 4096
	}
}

// profileStart starts the profile BENCH_PROFILE_KIND names and returns what
// writes it to BENCH_PROFILE_OUT.
func profileStart() func() {
	f, err := os.Create(os.Getenv("BENCH_PROFILE_OUT"))
	if err != nil {
		panic(err)
	}
	if os.Getenv("BENCH_PROFILE_KIND") == "cpu" {
		if err := pprof.StartCPUProfile(f); err != nil {
			panic(err)
		}
		return func() { pprof.StopCPUProfile(); f.Close() }
	}
	return func() {
		runtime.GC() // the profile is complete up to the last collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			panic(err)
		}
		f.Close()
	}
}
EOF
sed -i 's/^\tflag\.Parse()$/&\n\tdefer profileStart()()/' "$work/tree/bench/main.go"
grep -q 'defer profileStart()()' "$work/tree/bench/main.go" ||
	{ echo "bench_profile: no flag.Parse() line to hook in bench/main.go" >&2; exit 1; }
(cd "$work/tree" && go build -o "$work/bench" ./bench)

out=$(cd "$work/tree" && BENCH_PROFILE_KIND=$kind BENCH_PROFILE_OUT=$work/profile \
	"$work/bench" -workload "$workload" -seed "$seed")
echo "$out"
case $(tail -n 1 <<<"$out") in
*'"correct":true'*'"failed":0,'*) ;;
*) echo "bench_profile: the profiled run was not correct" >&2; exit 1 ;;
esac

if [ "$kind" = alloc ]; then
	metric=allocs_per_event unit='objects/event' index=-sample_index=alloc_objects
else
	metric=cpu_us_per_event unit='us/event' index=-sample_index=cpu
fi
scale=$(awk -v m="$metric" '$1 == m { print $2; exit }' <<<"$out")
[ -n "$scale" ] || { echo "bench_profile: no $metric in the run's report" >&2; exit 1; }

echo
echo "== $kind profile of $workload, seed $seed: shares x $metric = $scale"
go tool pprof -top "$index" "$@" "$work/bench" "$work/profile" 2>/dev/null |
	awk -v scale="$scale" -v unit="$unit" '
		$1 == "flat" && $2 == "flat%" { printf "%s  flat %s  cum %s\n", $0, unit, unit; next }
		$2 ~ /%$/ && $5 ~ /%$/ { printf "%s  [%.3f  %.3f]\n", $0, $2 * scale / 100, $5 * scale / 100; next }
		{ print }'
