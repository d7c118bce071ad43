#!/usr/bin/env bash
# Interleaved perfbench A/B between a parent ref and this checkout.
#
#   tools/perf_ab.sh <parent-ref> <workload> <pairs> [seconds] [seed]
#
# Exports the files of <parent-ref> into a temporary directory (under
# $TMPDIR, default /tmp; removed on exit) with `git archive`, so nothing is
# written into this checkout's .git, then runs
# `python3 perfbench/run.py --workload <workload> --seconds <seconds>
# --trace 0` (default 30 s, the benchmark's own run length; with a <seed>,
# also `--seed <seed>` on both sides) alternately in the parent's copy
# and in this checkout, <pairs> times. Each side
# builds its own .bench_build/ first, in one untimed 1 s warm-up run. The
# order flips every pair (parent first in odd pairs, change first in even
# ones), so a clock drifting over the session favours neither side.
#
# Prints, for every end-to-end metric BENCHMARK.json declares, each pair's
# gain (change over parent, oriented by the metric's "better", so > 1 is
# better), the median gain, the number of pairs the change won, both
# sides' medians, the parent's interquartile range (the spread a
# claimed gain's medians must differ by more than) and a verdict:
#
#   gain          the change won at least 9 in 10 of the pairs run (a tie
#                 counts for neither side) and its median is better than
#                 the parent's by more than the parent's IQR;
#   worse         the change's median is worse than the parent's by more
#                 than the metric's BENCHMARK.json bound (a fraction of the
#                 parent's median);
#   unresolved    neither, and the parent's IQR is wider than the bound,
#                 unless every change run reads better than every parent
#                 run: the spread hides a move of the bound's size;
#   within bound  neither, and the spread is narrow enough to tell.
#
# A run that is not `"correct": true` stops the script with exit 1; the
# verdicts never change the exit status. Uncommitted changes in this
# checkout are measured as they stand; perfbench/ and BENCHMARK.json are
# only read.
set -euo pipefail
if [ "$#" -lt 3 ] || [ "$#" -gt 5 ]; then
  echo "usage: tools/perf_ab.sh <parent-ref> <workload> <pairs> [seconds] [seed]" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="$3" seconds="${4:-30}" seed="${5:-}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: pairs must be a positive integer" >&2; exit 2; }
[[ "$seconds" =~ ^[0-9]+([.][0-9]+)?$ ]] || { echo "perf_ab: bad seconds \"$seconds\"" >&2; exit 2; }
[[ -z "$seed" || "$seed" =~ ^[0-9]+$ ]] || { echo "perf_ab: bad seed \"$seed\"" >&2; exit 2; }
cd "$(dirname "$0")/.."
change="$PWD"
commit=$(git rev-parse --verify --quiet "$ref^{commit}") ||
  { echo "perf_ab: unknown ref \"$ref\"" >&2; exit 2; }
scratch=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
parent="$scratch/parent"
trap 'rm -rf "$scratch"' EXIT
mkdir "$parent"
git archive "$commit" | tar -x -C "$parent"

python3 - "$parent" "$change" "$workload" "$pairs" "$seconds" "$seed" <<'EOF'
import json
import statistics
import subprocess
import sys

parent, change, workload, pairs, seconds, seed = sys.argv[1:]
pairs = int(pairs)
seed_args = ["--seed", seed] if seed else []
with open(f"{change}/BENCHMARK.json") as f:
    metrics = json.load(f)["end_to_end"]


def run(tree, secs):
    out = subprocess.run(["python3", "perfbench/run.py", "--workload", workload,
                          "--seconds", str(secs), "--trace", "0", *seed_args],
                         cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        side = "parent" if tree == parent else "change"
        sys.exit(f"perf_ab: {side} run not correct (exit {out.returncode}): "
                 f"{lines[-1] if lines else 'no result line'}")
    return {k: v["value"] for k, v in result["metrics"].items()}


for tree in (parent, change):
    run(tree, 1)  # build and warm up; not counted
rows = []  # (parent metrics, change metrics) per pair
for i in range(pairs):
    order = (parent, change) if i % 2 == 0 else (change, parent)
    got = {tree: run(tree, seconds) for tree in order}
    rows.append((got[parent], got[change]))
    print(f"pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)


def gain(m, p, c):
    if p == 0 or c == 0:
        return float("nan")
    return c / p if m["better"] == "higher" else p / c


def verdict(m, parent_runs, change_runs, won, iqr):
    """The metric's reading under the rules in this script's header."""
    sign = 1 if m["better"] == "higher" else -1
    med_p = statistics.median(parent_runs)
    ahead = sign * (statistics.median(change_runs) - med_p)  # > 0: change better
    if 10 * won >= 9 * len(parent_runs) and ahead > iqr:
        return "gain"
    bound = m["bound"] * abs(med_p)
    if -ahead > bound:
        return "worse"
    if iqr > bound and not (min(sign * c for c in change_runs) >
                            max(sign * p for p in parent_runs)):
        return "unresolved"
    return "within bound"


print(f"{workload}: {pairs} interleaved pairs of {seconds} s"
      f"{f', seed {seed}' if seed else ''}; gain = change over parent, > 1 is better")
print(f"{'metric':<20} {'median':>7} {'won':>5} {'parent':>12} {'change':>12} "
      f"{'parent IQR':>12} {'verdict':<12}  per-pair gain")
for m in metrics:
    name = m["name"]
    if not all(name in p and name in c for p, c in rows):
        continue
    gains = [gain(m, p[name], c[name]) for p, c in rows]
    won = sum(1 for g in gains if g > 1)
    parent_runs = [p[name] for p, _ in rows]
    change_runs = [c[name] for _, c in rows]
    med_p = statistics.median(parent_runs)
    med_c = statistics.median(change_runs)
    q1, _, q3 = statistics.quantiles(parent_runs, n=4) if pairs > 1 else (med_p,) * 3
    print(f"{name:<20} {statistics.median(gains):>7.3f} {won:>2}/{pairs:<2} "
          f"{med_p:>12.6g} {med_c:>12.6g} {q3 - q1:>12.4g} "
          f"{verdict(m, parent_runs, change_runs, won, q3 - q1):<12}  " +
          " ".join(f"{g:.3f}" for g in gains))
EOF
