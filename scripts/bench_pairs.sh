#!/usr/bin/env bash
# bench_pairs.sh — alternating parent/change pairs of one benchmark workload,
# or of each in turn.
#
# Builds ./bench of <parent-ref> (from a `git archive` of it in a temporary
# directory, so nothing is left in .git or the tree) and of the working tree
# once each, then runs the two binaries once per seed, each from its own
# checkout, alternating which side goes first. For every end-to-end metric of
# BENCHMARK.json it prints each side's median and quartiles, the ratio of
# the medians against the metric's bound, and the pairs the change won (ties
# count for neither side) — the evidence docs/PERFORMANCE.md rests every row
# on — and the same, without a bound, for the two per-layer figures of an
# untraced run that say where a change of throughput came from and whether
# it cost a stall: cpu_us_per_event and final_p99_us. Every table is printed
# whatever it shows; then runs that are not `correct` or have failed
# operations are listed again and the script exits 1, or else every gated
# metric whose change-side median is worse than the parent's by more than
# its bound is listed and the script exits 3 — the regression the pipeline
# would refuse the change for.
#
# Usage: scripts/bench_pairs.sh <parent-ref> <workload>|all [seeds]
#        all runs every workload of BENCHMARK.json, one table each.
#        seeds is first..last or a quoted list; default 11..20 (ten pairs
#        of ~12 s runs each, about four minutes a workload).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: scripts/bench_pairs.sh <parent-ref> <workload>|all [seeds, first..last or a quoted list; default 11..20]" >&2
	exit 2
fi
ref=$1
workloads=$2
seeds=${3:-11..20}
case $seeds in
*..*) seeds=$(seq "${seeds%..*}" "${seeds#*..}") ;;
esac

if [ "$workloads" = all ]; then
	workloads=$(sed -n '/"workloads"/,/]/p' BENCHMARK.json | sed -nE 's/.*\{"name": "([^"]+)".*/\1/p')
	[ -n "$workloads" ] || { echo "bench_pairs: no workloads found in BENCHMARK.json" >&2; exit 1; }
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/bench_parent" ./bench)
go build -o "$work/bench_change" ./bench

# name, better (higher|lower) and bound of each gated metric, then the
# reported ones (bound "-").
metrics=$(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json |
	sed -nE 's/.*"name": "([^"]+)".*"better": "([^"]+)".*"bound": ([0-9.]+).*/\1 \2 \3/p')
[ -n "$metrics" ] || { echo "bench_pairs: no end_to_end metrics found in BENCHMARK.json" >&2; exit 1; }
metrics+=$'\ncpu_us_per_event lower -\nfinal_p99_us lower -'

# run <side> <seed>: one run of $workload from the side's own checkout;
# appends "<side> <seed> <metric> <value>" lines to $work/values. A gated
# metric is read from the driver's JSON line, the last one; a reported one
# from its row of the report above it.
run() {
	local side=$1 seed=$2 dir=. out line
	[ "$side" = parent ] && dir=$work/parent
	out=$(cd "$dir" && "$work/bench_$side" -workload "$workload" -seed "$seed")
	line=$(tail -n 1 <<<"$out")
	case $line in
	*'"correct":true'*'"failed":0,'*) ;;
	*) echo "bench_pairs: $workload, $side, seed $seed, not correct: $line" | tee -a "$work/bad" >&2 ;;
	esac
	while read -r name _ bound; do
		if [ "$bound" = - ]; then
			echo "$side $seed $name $(awk -v m="$name" '$1 == m { print $2; exit }' <<<"$out")"
		else
			echo "$side $seed $name $(sed -E 's/.*"'"$name"'":\{"value":([^,}]*).*/\1/' <<<"$line")"
		fi
	done <<<"$metrics" >>"$work/values"
}

for workload in $workloads; do
	: >"$work/values"
	pair=0
	for seed in $seeds; do
		if [ $((pair % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			echo "$workload, pair $((pair + 1)), seed $seed: $side" >&2
			run "$side" "$seed"
		done
		pair=$((pair + 1))
	done

	echo "workload $workload, parent $(git rev-parse --short "$ref"), $pair alternating pairs, seeds $(echo $seeds)"
	printf '%-18s %-7s %14s %14s %14s  %s\n' metric side median q1 q3 'change/parent, pairs won'
	while read -r name better bound; do
		awk -v m="$name" -v better="$better" -v bound="$bound" -v w="$workload" -v worse="$work/worse" '
			function sort(v, n,    i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
			# quantile of the sorted v[1..n], interpolating between ranks
			function q(v, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
			function row(side, v, n, tail) { printf "%-18s %-7s %14.6g %14.6g %14.6g  %s\n", m, side, q(v, n, .5), q(v, n, .25), q(v, n, .75), tail }
			$3 == m { val[$1, $2] = $4; if ($1 == "parent") seeds[++n] = $2 }
			END {
				for (i = 1; i <= n; i++) {
					p[i] = val["parent", seeds[i]] + 0; c[i] = val["change", seeds[i]] + 0
					if (c[i] != p[i]) won += ((c[i] > p[i]) == (better == "higher"))
				}
				sort(p, n); sort(c, n)
				row("parent", p, n, "")
				ratio = q(p, n, .5) ? q(c, n, .5) / q(p, n, .5) : 1
				row("change", c, n, sprintf("%.3f (%s is better, %s), %d/%d", ratio, better, bound == "-" ? "reported" : "bound " bound, won, n))
				if (bound != "-" && (better == "higher" ? ratio < 1 - bound : ratio > 1 + bound))
					printf "bench_pairs: %s, %s: median %.6g at the parent, %.6g with the change, ratio %.3f, bound %s\n", w, m, q(p, n, .5), q(c, n, .5), ratio, bound >>worse
			}' "$work/values"
	done <<<"$metrics"
done
if [ -s "$work/bad" ]; then
	cat "$work/bad"
	exit 1
fi
if [ -s "$work/worse" ]; then
	cat "$work/worse"
	exit 3
fi
