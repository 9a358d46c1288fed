"""Run the benchmark in alternating pairs on two source trees and summarize.

    python3 tools/bench_pairs.py TREE_A TREE_B --workload W --seeds 1-10 11 \\
        --seconds 20 [--aa] [--claim units_per_s] [--out BENCH.json]

TREE_A is the parent, TREE_B the change.  For each seed, one untraced run of
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` is made in
each tree, one child process at a time; the parent runs first on odd seeds,
the change on even ones.  Each run's last line of standard output is its
result, ``{"correct", "attempted", "failed", "metrics"}``.

Per end-to-end metric of ``BENCHMARK.json`` (the file beside ``tools/``),
the summary gives both sides' quartiles (``statistics.quantiles``, n=4,
exclusive), the ratio of the medians, the pairs the change wins (ties count
for neither side), the parent's interquartile range, the median worsening
against the metric's bound, and the median gap in units of the parent's
interquartile range.  The exit status is 1 when a run is not correct or a
metric is outside its bound.  ``--aa`` runs TREE_A against itself (TREE_B is not
run) and names the sides by run order, ``first`` and ``second``.  With
``--claim METRIC`` a verdict is printed: the change must win at least nine
pairs in ten and its median must be better by more than the parent's
interquartile range.  The verdict is printed, not a gate.

With ``--out FILE`` the pairs and the summary are written into FILE under
``pairs.W`` and ``summary.W`` (``aa_control`` with ``--aa``), keeping what
FILE already holds for other workloads.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_WINS = 0.9  # share of pairs the change must win for a claimed gain


def end_to_end(benchmark_path=ROOT / "BENCHMARK.json"):
    """{name: (better, bound)} of the end-to-end metrics of BENCHMARK.json."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def parse_result(stdout):
    """The result of one run: the JSON object on the last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result line")
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a result line: {lines[-1][:200]}")
    return result


def run_tree(tree, workload, seed, seconds):
    """The result line of one untraced benchmark run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def parse_seeds(items):
    """Seeds from ``1-10 11`` or ``1,2,3``: ranges inclusive, in order."""
    seeds = []
    for item in ",".join(items).split(","):
        if item:
            lo, _, hi = item.partition("-")
            seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_pairs(trees, workload, seeds, seconds, aa=False, runner=run_tree):
    """One pair per seed, as records of the BENCH layout.  ``trees`` is
    (parent, change); ``runner(tree, workload, seed, seconds)`` returns the
    run's standard output."""
    pairs = []
    for seed in seeds:
        if aa:
            first, second = (parse_result(runner(trees[0], workload, seed, seconds)) for _ in range(2))
            pairs.append({"seed": seed, "first": _values(first), "second": _values(second),
                          "correct": [first["correct"], second["correct"]]})
            continue
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        tree = dict(zip(("parent", "change"), trees))
        results = {side: parse_result(runner(tree[side], workload, seed, seconds)) for side in order}
        pairs.append({
            "seed": seed,
            "first": order[0],
            "parent": _values(results["parent"]),
            "change": _values(results["change"]),
            "parent_attempted_failed": [results["parent"]["attempted"], results["parent"]["failed"]],
            "change_attempted_failed": [results["change"]["attempted"], results["change"]["failed"]],
            "correct": [results["parent"]["correct"], results["change"]["correct"]],
        })
    return pairs


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summarize(pairs, metrics, sides=("parent", "change")):
    """Per metric of ``metrics`` ({name: (better, bound)}), the comparison of
    side ``sides[1]`` with side ``sides[0]`` over ``pairs``."""
    base, other = sides
    summary = {"pairs": len(pairs)}
    for name, (better, bound) in metrics.items():
        a = [p[base][name] for p in pairs]
        b = [p[other][name] for p in pairs]
        qa, qb = _quartiles(a), _quartiles(b)
        ratio = qb[1] / qa[1]
        worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
        wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
        iqr = qa[2] - qa[0]
        summary[name] = {
            f"{base}_q1_median_q3": qa,
            f"{other}_q1_median_q3": qb,
            f"median_ratio_{other}_over_{base}": ratio,
            f"{other}_wins": wins,
            f"{base}_iqr": iqr,
            "bound": bound,
            "median_worsening": worsening,
            "within_bound": worsening <= bound,
            f"{base}_iqr_over_median": iqr / qa[1],
            f"median_gap_over_{base}_iqr": abs(qb[1] - qa[1]) / iqr if iqr else None,
        }
    return summary


def claim_verdict(summary, metric):
    """Whether the change's gain on ``metric`` holds: it wins at least
    ``CLAIM_WINS`` of the pairs, and its median is better than the parent's
    by more than the parent's interquartile range."""
    row = summary[metric]
    wins, pairs = row["change_wins"], summary["pairs"]
    gap = row["median_gap_over_parent_iqr"]
    holds = wins >= CLAIM_WINS * pairs and row["median_worsening"] < 0 and (gap is None or gap > 1.0)
    return holds, (f"{metric}: change ahead in {wins} of {pairs} pairs, median ratio "
                   f"{row['median_ratio_change_over_parent']:.3f}, median gap {gap if gap is None else round(gap, 2)} "
                   f"parent IQRs: claim {'holds' if holds else 'does not hold'}")


def write_out(path, workload, pairs, summary, aa):
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {}
    if aa:
        doc["aa_control"] = {"workload": workload, "pairs": pairs, "summary": summary}
    else:
        doc.setdefault("pairs", {})[workload] = pairs
        doc.setdefault("summary", {})[workload] = summary
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None, runner=run_tree):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--claim")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    metrics = end_to_end()
    pairs = run_pairs((args.tree_a, args.tree_b), args.workload, parse_seeds(args.seeds), args.seconds,
                      aa=args.aa, runner=runner)
    base, other = ("first", "second") if args.aa else ("parent", "change")
    summary = summarize(pairs, metrics, (base, other))
    for name in metrics:
        row = summary[name]
        print(f"{name}: median ratio {row[f'median_ratio_{other}_over_{base}']:.3f}, worsening "
              f"{row['median_worsening']:+.3f} (bound {row['bound']}): "
              f"{'within' if row['within_bound'] else 'OUTSIDE'} bound")
    correct = all(all(p["correct"]) for p in pairs)
    if not correct:
        print("a run was not correct")
    if args.claim and not args.aa:
        print(claim_verdict(summary, args.claim)[1])
    if args.out:
        write_out(args.out, args.workload, pairs, summary, args.aa)
    return 0 if correct and all(summary[name]["within_bound"] for name in metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
