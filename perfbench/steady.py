"""Steadiness record: repeated benchmark runs per workload.

    python3 perfbench/steady.py --first-seed 1 --out steadiness-round.json

Runs the command of ``BENCHMARK.json`` for ``run_seconds`` once per (set,
workload, seed), each in its own process: two sets of ten seeds, seeds
counting up from ``--first-seed``, round-robin over the workloads so that
a change in machine load touches all of them alike.  For every end-to-end
metric it records the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance /
median) per set, and the drift of the second set's median against the
first, signed so that positive is worse.  One traced
run per workload adds the per-layer metrics and ``trace.overhead_ratio``;
a second one checks that the counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # seeds per workload and set
SETS = 2  # two sets of the same code, compared by their medians


def run_once(workload, seed, seconds, trace):
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1, help="seeds run from here up")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    names = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = BENCHMARK["run_seconds"]
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    record = {"seconds": seconds, "runs_per_set": RUNS, "sets": [], "trace": {}}
    for s in range(SETS):
        values = {w: {m: [] for m in metrics} for w in names}
        failed = {w: 0 for w in names}
        for r in range(RUNS):
            seed = args.first_seed + s * RUNS + r
            for w in names:
                detail, result = run_once(w, seed, seconds, 0)
                record.setdefault("provenance", detail["provenance"])
                failed[w] += result["failed"]
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {s} seed {seed} {w}: "
                      + " ".join(f"{m}={values[w][m][-1]:.5g}" for m in metrics), file=sys.stderr)
        record["sets"].append(
            {
                w: {
                    "seeds": [args.first_seed + s * RUNS + r for r in range(RUNS)],
                    "failed": failed[w],
                    "metrics": {m: summarize(values[w][m]) for m in metrics},
                }
                for w in names
            }
        )
    first, last = record["sets"][0], record["sets"][-1]
    record["drift"] = {
        w: {
            m: (last[w]["metrics"][m]["median"] / first[w]["metrics"][m]["median"] - 1.0)
            * (1 if better[m] == "lower" else -1)
            for m in metrics
        }
        for w in names
    }
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "bytes")]
    for w in names:
        runs = [run_once(w, args.first_seed, seconds, 1) for _ in range(2)]
        (detail, result), (_, again) = runs
        record["trace"][w] = {
            "correct": result["correct"] and again["correct"],
            "counts_repeat": all(
                result["metrics"][m]["value"] == again["metrics"][m]["value"] for m in counts
            ),
            "traced_unit_ms": detail["traced_unit_ms"],
            "inclusive_ms": detail["inclusive_ms"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    for s, summary in enumerate(record["sets"]):
        for w in names:
            print(f"set {s} {w}: " + "  ".join(
                f"{m} med={summary[w]['metrics'][m]['median']:.5g} spread={summary[w]['metrics'][m]['spread']:.4f}"
                for m in metrics
            ) + f"  failed={summary[w]['failed']}")
    for w, drift in record["drift"].items():
        print(f"drift {w}: " + "  ".join(f"{m}={d:+.4f}" for m, d in drift.items()))
    for w, t in record["trace"].items():
        print(f"trace {w}: overhead_ratio={t['metrics']['trace.overhead_ratio']:.4f} "
              f"correct={t['correct']} counts_repeat={t['counts_repeat']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
