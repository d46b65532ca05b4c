#!/usr/bin/env bash
# A/B the repository benchmark (perfbench/, BENCHMARK.json): a committed
# revision against the working tree.
#
#   scripts/perfbench-ab.sh REV [WORKLOAD...]
#
# REV is exported with `git archive` into a scratch directory and built
# there, so the comparison never touches the working tree's build.  For
# each workload (default: every workload in BENCHMARK.json) both
# checkouts run `perfbench/run.py --trace 0` once per seed, alternating
# which side runs first.  The script then prints, per end-to-end metric,
# each side's median and quartiles, the ratio of medians, how many seed
# pairs the working tree won, and a verdict:
#   REGRESSION    the median is worse than the metric's BENCHMARK.json
#                 bound;
#   unresolved    the base runs' interquartile range, relative to their
#                 median, is wider than the bound and the two sides'
#                 runs overlap (not every head run beats every base run);
#   gain          at least 10 pairs, 9 in 10 won, medians further apart
#                 than the base runs' interquartile range, and head failed
#                 no larger share of its operations than base;
#   within bound  otherwise.
# Last, it diffs the two binaries' exact-count ledgers
# (.bench_work/counts) seed by seed: they must be identical.
#
# Every run lasts BENCHMARK.json's run_seconds.  Environment: N seeds
# (default 10) starting at FIRST_SEED (default 1), AB_DIR for a scratch
# directory that is kept, with results.jsonl and the run logs (default:
# a fresh mktemp -d, removed at the end).  Exits 1 if a run failed its
# correctness checks or a ledger differs.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 REV [WORKLOAD...]" >&2
  exit 2
fi
rev=$1
shift
root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$rev^{commit}")
n=${N:-10}
first=${FIRST_SEED:-1}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  read -r -a workloads <<<"$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi

scratch=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")}
base="$scratch/base"
rm -rf "$base"
mkdir -p "$base"
cleanup() { if [ -z "${AB_DIR:-}" ]; then rm -rf "$scratch"; fi; }
trap cleanup EXIT
git archive --format=tar "$commit" | tar -x -C "$base"
results="$scratch/results.jsonl"
: >"$results"

echo "perfbench A/B: base $(git rev-parse --short "$commit") vs working tree; ${n} seeds x ${seconds} s; ${workloads[*]}" >&2

# run SIDE DIR WORKLOAD SEED: one benchmark run, its JSON line tagged.
run() {
  local side=$1 dir=$2 workload=$3 seed=$4 out
  out=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>>"$scratch/$side.log" | tail -n 1) || true
  python3 -c 'import json, sys; json.loads(sys.argv[1])' "$out" 2>/dev/null || out=null
  printf '{"side": "%s", "workload": "%s", "seed": %d, "result": %s}\n' \
    "$side" "$workload" "$seed" "${out:-null}" >>"$results"
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    echo "  $workload seed $seed" >&2
    if ((i % 2 == 0)); then
      run base "$base" "$workload" "$seed"
      run head "$root" "$workload" "$seed"
    else
      run head "$root" "$workload" "$seed"
      run base "$base" "$workload" "$seed"
    fi
  done
done

digest() { md5sum "$1/_build/default/perfbench/perfbench.exe" | cut -d' ' -f1; }
base_digest=$(digest "$base")
head_digest=$(digest "$root")

status=0
python3 - "$results" "$root/BENCHMARK.json" <<'PY' || status=1
import json, statistics, sys

rows = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
metrics = bench["end_to_end"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

bad = False
for w in dict.fromkeys(r["workload"] for r in rows):
    side = {"base": {}, "head": {}}
    for r in rows:
        if r["workload"] == w:
            side[r["side"]][r["seed"]] = r["result"]
    print(f"\n== {w}")
    fails = {}
    for s in ("base", "head"):
        res = [x for x in side[s].values() if x]
        att = sum(x["attempted"] for x in res)
        fail = sum(x["failed"] for x in res)
        wrong = len(side[s]) - sum(1 for x in res if x["correct"])
        bad |= wrong > 0
        fails[s] = fail / att if att else 0.0
        print(f"   {s}: {len(res)} runs, {att} ops attempted, {fail} failed, {wrong} runs not correct")
    print(f"   {'metric':<12} {'base p50 [q1, q3]':>30} {'head p50 [q1, q3]':>30} {'ratio':>7} {'wins':>6}  verdict")
    seeds = sorted(set(side["base"]) & set(side["head"]))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(side["base"][s]["metrics"][name]["value"], side["head"][s]["metrics"][name]["value"])
                 for s in seeds if side["base"][s] and side["head"][s]]
        if not pairs:
            continue
        b = [p[0] for p in pairs]
        h = [p[1] for p in pairs]
        bm, hm = statistics.median(b), statistics.median(h)
        bq1, bq3 = quartiles(b)
        hq1, hq3 = quartiles(h)
        wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
        ratio = hm / bm if bm else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        separated = max(h) < min(b) if lower else min(h) > max(b)
        if worse > m["bound"]:
            verdict = f"REGRESSION (bound {m['bound']:.0%})"
        elif bm and (bq3 - bq1) / abs(bm) > m["bound"] and not separated:
            verdict = f"unresolved (base IQR {(bq3 - bq1) / abs(bm):.0%} > bound)"
        elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(hm - bm) > (bq3 - bq1)
              and fails["head"] <= fails["base"]):
            verdict = "gain"
        else:
            verdict = "within bound"
        print(f"   {name:<12} {bm:>12.4g} [{bq1:.4g}, {bq3:.4g}] {hm:>12.4g} [{hq1:.4g}, {hq3:.4g}] "
              f"{ratio:>7.3f} {wins:>2}/{len(pairs):<3}  {verdict}")
sys.exit(1 if bad else 0)
PY

echo
echo "== exact-count ledgers (base $base_digest, head $head_digest)"
for workload in "${workloads[@]}"; do
  for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    b="$base/.bench_work/counts/$workload-$seed-$base_digest.txt"
    h="$root/.bench_work/counts/$workload-$seed-$head_digest.txt"
    if [ ! -f "$b" ] || [ ! -f "$h" ]; then
      echo "   $workload seed $seed: ledger missing"
      status=1
    elif diff -u "$b" "$h" >/dev/null; then
      echo "   $workload seed $seed: identical ($(tr '\n' ' ' <"$h"))"
    else
      echo "   $workload seed $seed: DIFFERS"
      diff -u "$b" "$h" | sed 's/^/      /' || true
      status=1
    fi
  done
done
exit $status
