#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree:
#
#   scripts/benchpair.sh [-json <file>] [-keep <dir>] <parent-ref> <workload> [pairs=10] [extra flowkvbench args]
#
# The parent is exported (git archive) into a temporary directory, and
# `bash bench/run.sh` — the command BENCHMARK.json names — runs on the
# parent and on the change alternately, pair i with seed i, the side that
# goes first alternating from pair to pair. It then prints, for every
# metric the runs report, both sides' median and quartiles, the change's
# wins / ties / losses over the pairs, and the parent's interquartile
# range: the table section 8 of the choosing-metrics guide asks for. A
# gain may be claimed when the change wins at least nine pairs in ten and
# the medians differ by more than the parent's IQR. The three metrics the
# benchmark gates are marked with *.
#
# With -json the same numbers are also written to <file> as one JSON
# object in the shape of a BENCH_flowkvbench.json row — commit, parent,
# host provenance, and under "workloads" this workload's per-metric
# medians, quartiles and wins/ties/losses — ready to be merged into that
# file's "rows" (one row per performance change, one "workloads" entry per
# workload measured for it).
#
# With -keep every run's full output is copied to <dir> as parent.<pair>
# and change.<pair> before the temporary directory is removed — also when
# a run fails — so a value the table folds into a median (the one pair
# with a nonzero slo_miss_frac, say) can be looked up afterwards.
#
# Nothing under bench/ is edited; each side builds into its own bench/out/.
set -euo pipefail

json="" keep=""
while :; do
	case "${1:-}" in
	-json) json="${2:?-json needs a file}" ;;
	-keep) keep="${2:?-keep needs a directory}" ;;
	*) break ;;
	esac
	shift 2
done
if [ $# -lt 2 ]; then
	sed -n '2,5p' "$0" >&2
	exit 2
fi
parent="$1"
workload="$2"
pairs="${3:-10}"
shift $(($# < 3 ? $# : 3))

root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
cleanup() {
	if [ -n "$keep" ] && mkdir -p "$keep"; then
		cp "$tmp"/runs/* "$keep"/ 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")"

run() { # side dir pair
	echo "pair $3: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "${seconds:-20}" --trace 0 "${@:4}") >"$tmp/runs/$1.$3" 2>&1 || {
		cat "$tmp/runs/$1.$3" >&2
		echo "benchpair: $1 failed on pair $3" >&2
		exit 1
	}
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tmp/parent" "$i" "$@"
		run change "$root" "$i" "$@"
	else
		run change "$root" "$i" "$@"
		run parent "$tmp/parent" "$i" "$@"
	fi
done

parentrev="$(git -C "$root" rev-parse --short "$parent")"
changerev="$(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD -- . ':!ISSUE.md' || echo '+uncommitted')"
host="$(nproc) cpus, GOMAXPROCS ${GOMAXPROCS:-unset}, $(go version | cut -d' ' -f3), $(df --output=fstype "$root" | tail -1) on $(uname -sr)"
echo "workload $workload, $pairs pairs (seeds 1..$pairs), parent $parentrev, change $changerev"
echo "host: $host"

# Metric lines look like "  name   value unit   [min ... n=3]".
awk -v pairs="$pairs" -v dir="$tmp/runs" -v spec="$root/BENCHMARK.json" -v json="$json" \
	-v workload="$workload" -v parentrev="$parentrev" -v changerev="$changerev" -v host="$host" \
	-v seconds="${seconds:-20}" -v extra="$*" -v today="$(date -u +%Y-%m-%d)" '
function sorted(arr, n, out,    i, j, v) { # insertion sort: n is a few dozen at most
	for (i = 1; i <= n; i++) out[i] = arr[i]
	for (i = 2; i <= n; i++) { v = out[i]; for (j = i - 1; j >= 1 && out[j] > v; j--) out[j+1] = out[j]; out[j+1] = v }
}
function quantile(s, n, q,    pos, lo, frac) { # linear interpolation between order statistics
	pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo >= n ? s[n] : s[lo] + frac * (s[lo+1] - s[lo])
}
function jside(m, q1, q3) { return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", m, q1, q3) }
BEGIN {
	while ((getline line < spec) > 0) {
		if (line ~ /"end_to_end"/) gatedPart = 1
		if (line ~ /"per_layer"/) gatedPart = 0
		if (match(line, /"name": *"[^"]+"/)) { name = line; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
		if (match(line, /"better": *"[^"]+"/)) {
			b = line; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
			better[name] = b; if (gatedPart) gated[name] = 1
		}
	}
	for (i = 1; i <= pairs; i++) {
		for (si = 1; si <= 2; si++) {
			side = si == 1 ? "parent" : "change"
			f = dir "/" side "." i
			while ((getline line < f) > 0) {
				if (line !~ /^  [a-z_0-9.]+ +[-0-9.e+]+ /) continue
				split(line, fld, " ")
				if (!(fld[1] in better)) continue
				if (!(fld[1] in seen)) { seen[fld[1]] = 1; order[++nm] = fld[1]; unit[fld[1]] = fld[3] }
				val[side, fld[1], i] = fld[2] + 0
			}
			close(f)
		}
	}
	printf "%-26s %-5s %13s %25s %13s %25s %9s %12s %8s\n", "metric", "unit", "parent median", "[q1, q3]", "change median", "[q1, q3]", "W/T/L", "parent IQR", "change"
	for (m = 1; m <= nm; m++) {
		name = order[m]; w = t = l = 0
		for (i = 1; i <= pairs; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			d = better[name] == "higher" ? c[i] - p[i] : p[i] - c[i]
			if (d > 0) w++; else if (d < 0) l++; else t++
		}
		sorted(p, pairs, ps); sorted(c, pairs, cs)
		pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
		pq1 = quantile(ps, pairs, 0.25); pq3 = quantile(ps, pairs, 0.75)
		cq1 = quantile(cs, pairs, 0.25); cq3 = quantile(cs, pairs, 0.75)
		chg = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
		printf "%-26s %-5s %13.6g %25s %13.6g %25s %9s %12.4g %8s\n", (name in gated ? "*" : " ") name, unit[name], pm, sprintf("[%.6g, %.6g]", pq1, pq3), cm, sprintf("[%.6g, %.6g]", cq1, cq3), w "/" t "/" l, pq3 - pq1, chg
		rows = rows sprintf("%s\n        \"%s\": {\"unit\": \"%s\", \"gated\": %s, \"parent\": %s, \"change\": %s, \"wins\": %d, \"ties\": %d, \"losses\": %d}", (m > 1 ? "," : ""), name, unit[name], (name in gated ? "true" : "false"), jside(pm, pq1, pq3), jside(cm, cq1, cq3), w, t, l)
	}
	if (json != "") {
		gsub(/["\\]/, "", extra); gsub(/["\\]/, "", host)
		printf "{\n  \"commit\": \"%s\",\n  \"parent\": \"%s\",\n  \"date\": \"%s\",\n  \"host\": \"%s\",\n  \"run_seconds\": %s,\n  \"args\": \"%s\",\n  \"workloads\": {\n    \"%s\": {\n      \"pairs\": %d,\n      \"seeds\": \"1-%d\",\n      \"metrics\": {%s\n      }\n    }\n  }\n}\n", changerev, parentrev, today, host, seconds, extra, workload, pairs, pairs, rows > json
	}
}'
