#!/usr/bin/env bash
# Runs the full set — every workload, end to end and traced — twice on the
# same commit and fails unless the two sets agree:
#
#   - every timing metric's two values within that metric's bound
#     (bounds are read from /BENCHMARK.json);
#   - every exact metric and decision_fnv identical;
#   - every run correct, trace.overhead_frac < 0.05 and
#     0 <= serve.glue.share < 1.
#
#   bash benchmark/agree.sh            # ~7 min on the 2-core reference host
#   bash benchmark/agree.sh --smoke    # ~1 min: shrunken workloads, checks the
#                                      # harness and the exact metrics only
#
# Records are written to benchmark/out/agree-<set>-<workload>-<mode>.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
smoke=()
# The full set measures for as long as the contract says.
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=(--smoke)
    seconds=1
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--smoke]" >&2
    exit 2
fi
out="$here/out"
mkdir -p "$out"
workloads=(city_benign city_attack churn_hostile authority_flood)

for set in 1 2; do
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            # The smoke check traces once; its timings compare to nothing.
            if [[ ${#smoke[@]} -gt 0 && $set == 2 && $trace == 1 ]]; then
                continue
            fi
            echo "agree: set $set, $w, trace $trace" >&2
            bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$seconds" \
                --trace "$trace" "${smoke[@]}" \
                > "$out/agree-$set-$w-$trace.json" 2> "$out/agree-$set-$w-$trace.log" \
                || { echo "agree: run failed, see $out/agree-$set-$w-$trace.log" >&2; exit 1; }
        done
    done
done

python3 - "$here/../BENCHMARK.json" "$out" "${#smoke[@]}" "${workloads[@]}" <<'PY'
import json, sys

contract = json.load(open(sys.argv[1]))
out, smoke, workloads = sys.argv[2], sys.argv[3] != "0", sys.argv[4:]
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
bad = []

def load(set_, w, trace):
    lines = open(f"{out}/agree-{set_}-{w}-{trace}.json").read().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])

for w in workloads:
    (rec1, res1), (rec2, res2) = load(1, w, 0), load(2, w, 0)
    for res in (res1, res2):
        if not res["correct"]:
            bad.append(f"{w}: a run reported correct=false")
    if rec1["smoke"] != smoke:
        bad.append(f"{w}: record is not tagged smoke={smoke}")
    # Pure functions of seed and code (decision_fnv and the quality and
    # failure metrics): compared exactly.
    if rec1["exact"] != rec2["exact"]:
        bad.append(f"{w}: exact metrics differ: {rec1['exact']} vs {rec2['exact']}")
    # Every end-to-end metric within its bound; a smoke run is too short
    # for its timings to compare to anything.
    for name, bound in ([] if smoke else bounds.items()):
        a, b = res1["metrics"][name]["value"], res2["metrics"][name]["value"]
        gap = abs(a - b) / min(abs(a), abs(b))
        mark = "" if gap <= bound else "  <-- beyond its bound"
        print(f"{w:<16} {name:<22} {a:>14.4f} {b:>14.4f}  gap {gap:6.3f} (bound {bound}){mark}")
        if gap > bound:
            bad.append(f"{w}: {name} values {a} and {b} differ by {gap:.3f} > {bound}")
    for set_ in (1,) if smoke else (1, 2):
        rec, res = load(set_, w, 1)
        if not res["correct"]:
            bad.append(f"{w}: traced run reported correct=false")
        if rec["exact"] != rec1["exact"]:
            bad.append(f"{w}: traced run's exact metrics differ from the end-to-end run's")
        overhead = res["metrics"]["trace.overhead_frac"]["value"]
        glue = res["metrics"]["serve.glue.share"]["value"]
        print(f"{w:<16} set {set_}: trace.overhead_frac {overhead:8.4f}  serve.glue.share {glue:8.4f}")
        if not smoke and overhead >= 0.05:
            bad.append(f"{w}: trace.overhead_frac {overhead:.4f} >= 0.05")
        # The isolated replays cannot over-attribute by construction; a
        # remainder below 0 means the host changed speed between the spans
        # and the isolated replays, and the traced run is worth nothing.
        if not smoke and not 0.0 <= glue < 1.0:
            bad.append(f"{w}: serve.glue.share {glue:.4f} outside [0, 1)")

for line in bad:
    print("DISAGREE:", line)
sys.exit(1 if bad else 0)
PY
echo "agree: the two sets agree" >&2
