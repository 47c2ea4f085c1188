#!/usr/bin/env bash
# Paired runs of one workload of the benchmark suite (BENCHMARK.json) on two
# checkouts — the method docs/BENCHMARKS.md's claims rest on:
#
#   tools/bench-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [SECONDS] [SEEDS...]
#
# One pair per seed (default 1..10): the workload runs untraced once on each
# side, each side built from its own source by its own bench/run.sh, and the
# side that goes first alternates from pair to pair so that drift of the host
# lands on both. SECONDS defaults to run_seconds of the parent's
# BENCHMARK.json. Prints one line per run, then per end-to-end metric each
# side's median and quartiles, the ratio of the medians, the pairs each side
# won (ties count for neither) and a verdict: "better" or "worse" when the
# change won or lost at least nine tenths of the pairs and the medians are
# further apart than the parent's own quartiles, "~" otherwise, and "n<10"
# when fewer than ten pairs ran: too few to say.
#
# Exit status: 0; 1 when any run answered wrongly (correct:false), had a
# failed scan or did not finish; 2 on a usage error. Needs jq.
#
# The jq programs below are single-quoted on purpose: their $names are jq's.
# shellcheck disable=SC2016
set -euo pipefail

if [ "$#" -lt 3 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [SECONDS] [SEEDS...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
manifest="$parent/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$manifest")
if [ "$#" -gt 0 ]; then
	seconds=$1
	shift
fi
if [ "$#" -gt 0 ]; then
	seeds=("$@")
else
	seeds=(1 2 3 4 5 6 7 8 9 10)
fi
for side in "$parent" "$change"; do
	if [ ! -f "$side/bench/run.sh" ]; then
		echo "$0: $side has no bench/run.sh" >&2
		exit 2
	fi
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
bad=0

# run_side NAME PAIR SEED: one untraced run of side NAME (parent or change);
# appends its result line, tagged with the side and the pair, to $runs and
# prints it in short.
run_side() {
	local name=$1 pair=$2 seed=$3 dir=$parent out line
	if [ "$name" = change ]; then
		dir=$change
	fi
	if ! out=$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
		bad=1
	fi
	line=$(printf '%s\n' "$out" | tail -n 1)
	if ! printf '%s' "$line" | jq -e 'has("metrics")' >/dev/null 2>&1; then
		echo "pair $pair seed $seed $name: no result line" >&2
		bad=1
		return
	fi
	if [ "$(printf '%s' "$line" | jq -r '.correct and .failed == 0')" != "true" ]; then
		bad=1
	fi
	printf '%s' "$line" | jq -c --arg side "$name" --argjson pair "$pair" '. + {side: $side, pair: $pair}' >>"$runs"
	printf '%s' "$line" | jq -r --arg side "$name" --arg pair "$pair" --arg seed "$seed" \
		'"pair \($pair) seed \($seed) \($side) correct=\(.correct) failed=\(.failed)/\(.attempted) "
		 + ([.metrics | to_entries[] | "\(.key)=\(.value.value * 1000 | round / 1000)"] | join(" "))'
}

echo "# $workload, ${seconds}s window, ${#seeds[@]} pairs: parent $parent, change $change"
pair=0
for seed in "${seeds[@]}"; do
	pair=$((pair + 1))
	order="parent change"
	if [ $((pair % 2)) -eq 0 ]; then
		order="change parent"
	fi
	for side in $order; do
		run_side "$side" "$pair" "$seed"
	done
done

jq -r -s --slurpfile man "$manifest" '
	def quant(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $lo
		| $s[$lo] + ($h - $lo) * ($s[$h | ceil] - $s[$lo]);
	def fmt: . * 1000 | round / 1000 | tostring;
	def side(s; m): [.[] | select(.side == s) | .metrics[m].value | select(. != null)];
	. as $runs
	| ([$runs[] | .pair] | unique) as $pairs
	| ("", "metric (better) | parent median [q1, q3] | change median [q1, q3] | change/parent | wins change:parent of \($pairs | length) | verdict"),
	( $man[0].end_to_end[] | .name as $m | .better as $dir
	| ($runs | side("parent"; $m)) as $p | ($runs | side("change"; $m)) as $c
	| select(($p | length) > 0 and ($c | length) > 0)
	| [ $pairs[] as $i
	    | ([$runs[] | select(.pair == $i and .side == "parent") | .metrics[$m].value] | first) as $pv
	    | ([$runs[] | select(.pair == $i and .side == "change") | .metrics[$m].value] | first) as $cv
	    | select($pv != null and $cv != null)
	    | (if $dir == "higher" then $cv - $pv else $pv - $cv end) ] as $gains
	| ([$gains[] | select(. > 0)] | length) as $cw | ([$gains[] | select(. < 0)] | length) as $pw
	| ($p | quant(0.5)) as $pm | ($c | quant(0.5)) as $cm
	| (($p | quant(0.75)) - ($p | quant(0.25))) as $iqr
	| (if $dir == "higher" then $cm - $pm else $pm - $cm end) as $gain
	| (if ($gains | length) < 10 then "n<10"
	   elif $cw * 10 >= ($gains | length) * 9 and $gain > $iqr then "better"
	   elif $pw * 10 >= ($gains | length) * 9 and (0 - $gain) > $iqr then "worse"
	   else "~" end) as $verdict
	| "\($m) \(.unit) (\($dir)) | \($pm | fmt) [\($p | quant(0.25) | fmt), \($p | quant(0.75) | fmt)]"
	  + " | \($cm | fmt) [\($c | quant(0.25) | fmt), \($c | quant(0.75) | fmt)]"
	  + " | \(if $pm != 0 then ($cm / $pm | fmt) else "-" end)"
	  + " | \($cw):\($pw) | \($verdict)" )
' "$runs"

if [ "$bad" -ne 0 ]; then
	echo "$0: some run was wrong, had failed scans or did not finish" >&2
	exit 1
fi
