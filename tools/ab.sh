#!/usr/bin/env bash
# Interleaved A/B runs of the benchmark: a base revision against this
# checkout.
#
#   tools/ab.sh <rev> --workload <name|all> [--pairs N] [benchmark args...]
#
# A is <rev>, exported with `git archive` into a fresh directory under
# $TMPDIR (the repository's own .git is only read); B is this checkout's
# working tree, uncommitted edits included. Both benchmarks are built
# first, so no run pays for compilation. Then N pairs (default 10) of
# `benchmark/run.sh --workload <name> [benchmark args...]` alternate, A
# first in even pairs and B first in odd ones, so both sides see the
# same spell of host weather. Extra arguments (`--seconds 6`, `--seed 7`)
# go to every run unchanged. `--workload all` does this for every
# workload of BENCHMARK.json in turn, after the one build.
#
# For every end-to-end metric of BENCHMARK.json it prints, per workload,
# each side's median and quartiles, the ratio of medians and "ahead in k
# of n" (B better than A in k pairs; ties count for neither), then a call:
#   B better / B worse  B won (lost) at least 9 in 10 pairs and the
#                       medians differ by more than A's quartile spread;
#   beyond bound        B's median is worse than A's by more than the
#                       metric's bound in BENCHMARK.json;
#   -                   neither.
# A workload whose runs print a result_hash must print one and the same
# hash on both sides; otherwise it prints "result_hash MOVED" and the
# script exits non-zero once every table is out. Each run's full output
# stays in the printed log directory.
set -euo pipefail

usage() {
    echo "usage: tools/ab.sh <rev> --workload <name|all> [--pairs N] [benchmark args...]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev="$1"
shift
workload=""
pairs=10
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --pairs) pairs="${2:?--pairs needs a number}"; shift 2 ;;
        *) passthrough+=("$1"); shift ;;
    esac
done
[ -n "$workload" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "--pairs must be a positive number" >&2; exit 2; }

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ "$workload" = all ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo/BENCHMARK.json")
else
    workloads=("$workload")
fi
sha="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
base="$work/base"
logs="$work/logs"
mkdir -p "$base" "$logs"
git -C "$repo" archive "$sha" | tar -x -C "$base"

echo "A = ${sha:0:12} ($rev), exported to $base"
echo "B = working tree of $repo"
for side in "$base" "$repo"; do
    echo "building $side/benchmark"
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

run() { # side-name checkout workload pair
    local out="$logs/$3-$4-$1.txt"
    bash "$2/benchmark/run.sh" --workload "$3" ${passthrough[@]+"${passthrough[@]}"} >"$out" 2>&1 ||
        echo "warning: $1 run $3/$4 exited non-zero (see $out)" >&2
    echo "$3 pair $4 $1: $(grep -o '"frames_per_s":{"value":[0-9.e+-]*' "$out" | sed 's/.*://')"
}
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run A "$base" "$w" "$i"
            run B "$repo" "$w" "$i"
        else
            run B "$repo" "$w" "$i"
            run A "$base" "$w" "$i"
        fi
    done
done
rm -rf "$base"

python3 - "$repo/BENCHMARK.json" "$logs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec_path, logs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
spec = json.load(open(spec_path))

def report(workload, side, i):
    lines = open(f"{logs}/{workload}-{i}-{side}.txt").read().splitlines()
    hashes = [l.split()[1] for l in lines if l.startswith("result_hash ")]
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line), hashes[0] if hashes else "missing"
    return None, None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def cell(median, q1, q3):
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

def table(workload):
    """Print one workload's table; return what went wrong, if anything."""
    runs = {s: [report(workload, s, i) for i in range(pairs)] for s in "AB"}
    ok = [i for i in range(pairs) if runs["A"][i][0] and runs["B"][i][0]]
    if not ok:
        print(f"\n{workload}: no pair produced a report; see {logs}")
        return "no report"
    print(f"\n{workload}: {len(ok)} complete pairs of {pairs}; logs in {logs}")
    sets = {}
    for s in "AB":
        sets[s] = {runs[s][i][1] for i in ok}
        failed = sum(runs[s][i][0]["failed"] for i in ok)
        wrong = sum(not runs[s][i][0]["correct"] for i in ok)
        print(f"{s}: result_hash {' '.join(sorted(sets[s]))}  "
              f"failed operations {failed}  incorrect runs {wrong}")
    # A wall-clock workload prints `result_hash none`: nothing to guard.
    hashed = sets["A"] != {"none"} or sets["B"] != {"none"}
    moved = hashed and (sets["A"] != sets["B"] or len(sets["A"]) != 1)
    if moved:
        print("result_hash MOVED")

    print(f"\n{'metric':<20} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'B/A':>7}  {'ahead':>7}  call")
    for m in spec["end_to_end"]:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        if any(name not in runs[s][i][0]["metrics"] for s in "AB" for i in ok):
            continue  # a traced run reports per-layer metrics instead
        a = [runs["A"][i][0]["metrics"][name]["value"] for i in ok]
        b = [runs["B"][i][0]["metrics"][name]["value"] for i in ok]
        sign = 1 if higher else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        spread = a3 - a1
        calls = []
        if 10 * wins >= 9 * len(ok) and sign * (mb - ma) > spread:
            calls.append("B better")
        elif 10 * losses >= 9 * len(ok) and sign * (ma - mb) > spread:
            calls.append("B worse")
        if sign * (ma - mb) > bound * abs(ma):
            calls.append("beyond bound")
        ratio = f"{mb / ma:.3f}" if ma else "-"
        ahead = f"{wins}/{len(ok)}"
        print(f"{name:<20} {cell(ma, a1, a3):<34} {cell(mb, b1, b3):<34} {ratio:>7}  "
              f"{ahead:>7}  {', '.join(calls) or '-'}")
    return "result_hash MOVED" if moved else None

problems = [(w, table(w)) for w in workloads]
problems = [f"{w}: {p}" for w, p in problems if p]
if problems:
    sys.exit("\n" + "\n".join(problems))
EOF
