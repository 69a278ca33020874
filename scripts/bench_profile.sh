#!/usr/bin/env bash
# bench_profile.sh — one benchmark workload under the allocation, CPU, mutex
# or block profiler, its top table already in the benchmark's own units.
#
# Nothing under bench/ may change for a measurement, so the profiler is added
# to a copy: the working tree (without .git) is copied to a temporary
# directory, the copy's bench/ gets one file that starts and writes the
# profile and one line in main.go that calls it right after flag.Parse, the
# copy is built and the workload run once from the copy's root. What is
# printed is the run's own report, then `go tool pprof -top` of the profile
# with two columns appended: flat and cum as a share of the run's
# allocs_per_event (alloc: objects per event, sampled every 4,096 bytes) or
# of its cpu_us_per_event (cpu: µs per event). mutex and block profile the
# time goroutines waited — to acquire a contended sync.Mutex (mutex, one
# contention in five sampled) or blocked in a lock, channel, select or
# sync.Cond wait (block, sampled from 10 µs) — and append the delay in ns
# per finalized event: the whole run's delay over the whole run's
# `attempted` events, every one of which a correct run finalized. The rows
# of "What one hop still allocates" and of the CPU and lock tables in
# docs/PERFORMANCE.md are read off these columns. A profiled run is slower
# than a plain one: its events_per_s is not a measurement, its
# allocs_per_event is (it is a count).
#
# pprof flags after the kind pass through; -peek or -list, each an output
# format of its own, replaces -top (the callers and callees of a matching
# frame, or its annotated source), and the columns are appended to the rows
# that carry both percentages. pprof's errors are printed, and fail the run.
#
# Usage: scripts/bench_profile.sh <workload> <seed> alloc|cpu|mutex|block [pprof flags]
#        e.g. scripts/bench_profile.sh pipe2-sat 12 alloc -nodecount=40
#             scripts/bench_profile.sh pipe2-sat 11 cpu -focus='idTable|idSet'
#             scripts/bench_profile.sh sketch-par2 11 mutex
#             scripts/bench_profile.sh sketch-par2 11 cpu -peek='sync\.\(\*Mutex\)\.Lock$'
set -euo pipefail
cd "$(dirname "$0")/.."

case ${3:-} in
alloc | cpu | mutex | block) ;;
*)
	echo "usage: scripts/bench_profile.sh <workload> <seed> alloc|cpu|mutex|block [go tool pprof flags]" >&2
	exit 2
	;;
esac
workload=$1 seed=$2 kind=$3
shift 3
format=-top
for flag in "$@"; do
	case $flag in -peek* | --peek* | -list* | --list*) format= ;; esac
done

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
	switch os.Getenv("BENCH_PROFILE_KIND") {
	case "alloc":
		runtime.MemProfileRate = 4096
	case "mutex":
		runtime.SetMutexProfileFraction(5)
	case "block":
		runtime.SetBlockProfileRate(10000)
	}
}

// profileStart starts the profile BENCH_PROFILE_KIND names and returns what
// writes it to BENCH_PROFILE_OUT.
func profileStart() func() {
	f, err := os.Create(os.Getenv("BENCH_PROFILE_OUT"))
	if err != nil {
		panic(err)
	}
	kind := os.Getenv("BENCH_PROFILE_KIND")
	if kind == "cpu" {
		if err := pprof.StartCPUProfile(f); err != nil {
			panic(err)
		}
		return func() { pprof.StopCPUProfile(); f.Close() }
	}
	if kind == "alloc" {
		kind = "allocs"
	}
	return func() {
		runtime.GC() // an allocation profile is complete up to the last collection
		if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
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

if [ "$kind" = mutex ] || [ "$kind" = block ]; then
	events=$(grep -o '"attempted":[0-9]*' <<<"$out" | tail -n 1 | cut -d: -f2)
	[ -n "$events" ] && [ "$events" -gt 0 ] || { echo "bench_profile: no attempted events in the run's report" >&2; exit 1; }
	echo
	echo "== $kind profile of $workload, seed $seed: delay in ns / $events finalized events"
	go tool pprof ${format:+"$format"} -sample_index=delay -unit=ns "$@" "$work/bench" "$work/profile" |
		awk -v events="$events" '
			$1 == "flat" && $2 == "flat%" { printf "%s  flat ns/event  cum ns/event\n", $0; next }
			$2 ~ /%$/ && $5 ~ /%$/ { f = $1; c = $4; sub(/ns$/, "", f); sub(/ns$/, "", c)
				printf "%s  [%.1f  %.1f]\n", $0, f / events, c / events; next }
			{ print }'
	exit 0
fi

if [ "$kind" = alloc ]; then
	metric=allocs_per_event unit='objects/event' index=-sample_index=alloc_objects
else
	metric=cpu_us_per_event unit='us/event' index=-sample_index=cpu
fi
scale=$(awk -v m="$metric" '$1 == m { print $2; exit }' <<<"$out")
[ -n "$scale" ] || { echo "bench_profile: no $metric in the run's report" >&2; exit 1; }

echo
echo "== $kind profile of $workload, seed $seed: shares x $metric = $scale"
go tool pprof ${format:+"$format"} "$index" "$@" "$work/bench" "$work/profile" |
	awk -v scale="$scale" -v unit="$unit" '
		$1 == "flat" && $2 == "flat%" { printf "%s  flat %s  cum %s\n", $0, unit, unit; next }
		$2 ~ /%$/ && $5 ~ /%$/ { printf "%s  [%.3f  %.3f]\n", $0, $2 * scale / 100, $5 * scale / 100; next }
		{ print }'
