"""bvcalc benchmark: one workload per process, timed in-process.

    python3 perfbench/run.py --workload young-sawtooth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bvcalc is imported from its ``src/``.
The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the provenance and details of the run; both are also
written, with the spans of a traced run, under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: unpinned BLAS threads made timings erratic
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# Imported by the harness, before the first set-up, so that every set-up
# repetition does the same work: import bvcalc, build inputs, warm up.
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("measures", "bv", "integrands", "functional", "young", "scenarios", "oracle", "reporting", "cli")
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

SCENARIO_IDS = (
    "sawtooth-oscillation",
    "ramp-concentration",
    "atom-absorbs-jump",
    "boundary-term-demo",
    "reshetnyak-ramp",
    "reshetnyak-counter",
    "nonquasiconvex-violation",
    "sq-envelope-monotone",
    "example1",
    "example2",
    "x-dependent-lsc",
)

PER_LAYER = {
    "measures.cell_rule.calls": "count",
    "measures.cell_rule.self_ms": "ms",
    "measures.cell_rule.nodes": "count",
    "measures.cell_rule.distinct_ratio": "ratio",
    "measures.merge_breaks.calls": "count",
    "measures.merge_breaks.self_ms": "ms",
    "measures.rn_decompose.calls": "count",
    "measures.rn_decompose.self_ms": "ms",
    "measures.density_at.self_ms": "ms",
    "measures.construct.self_ms": "ms",
    "measures.total_variation.self_ms": "ms",
    "bv.construct.self_ms": "ms",
    "bv.derivative.self_ms": "ms",
    "bv.value_at.self_ms": "ms",
    "bv.gradient_at.self_ms": "ms",
    "bv.l1_distance.self_ms": "ms",
    "integrands.call.calls": "count",
    "integrands.call.self_ms": "ms",
    "integrands.recession_values.self_ms": "ms",
    "integrands.sq_envelope.self_ms": "ms",
    "integrands.quasiconvexity_refuter.self_ms": "ms",
    "functional.evaluate.calls": "count",
    "functional.evaluate.self_ms": "ms",
    "functional.relaxation_upper_bound.self_ms": "ms",
    "functional.admissibility_check.self_ms": "ms",
    "functional.lsc_experiment.self_ms": "ms",
    "functional.reshetnyak_experiment.self_ms": "ms",
    "functional.nodes_to_tol": "count",
    "functional.rungs_to_tol": "count",
    "functional.rel_gap_max": "ratio",
    "young.pairing.calls": "count",
    "young.pairing.self_ms": "ms",
    "young.measure_parts.calls": "count",
    "young.measure_parts.self_ms": "ms",
    "young.empirical_generation_check.self_ms": "ms",
    "young.jensen.self_ms": "ms",
    **{f"scenarios.{sid}.ms": "ms" for sid in SCENARIO_IDS},
    "scenarios.carpet_lower_bound.self_ms": "ms",
    "scenarios.build_case_1d.self_ms": "ms",
    "oracle.oracle_1d.calls": "count",
    "oracle.oracle_1d.self_ms": "ms",
    "reporting.write_report.self_ms": "ms",
    "reporting.write_dat.self_ms": "ms",
    "reporting.builder_hash.self_ms": "ms",
    "reporting.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Plan:
    sizes: workloads.Sizes
    setup_reps: int  # set-ups per run; setup_s is their median
    min_units: int  # timed units even past --seconds; at 21 the tail is the median
    trace_units: int  # unit pairs after the timed phase, one untraced and one traced each


FULL = Plan(workloads.FULL, setup_reps=3, min_units=2 * TAIL_BEYOND + 1, trace_units=5)
SMOKE = Plan(workloads.SMOKE, setup_reps=1, min_units=1, trace_units=1)


class SourceMissing(RuntimeError):
    pass


def import_bvcalc():
    """Import bvcalc afresh from ``src/``: earlier imports are dropped, so
    module-level work and lazy state are paid again by every set-up."""
    for name in [n for n in sys.modules if n == "bvcalc" or n.startswith("bvcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("bvcalc")
    if Path(package.__file__).resolve().parent != SRC / "bvcalc":
        raise SourceMissing(f"bvcalc imported from {package.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"bvcalc.{name}") for name in MODULES}


def tail(times):
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    below = len(ordered) - TAIL_BEYOND
    if below < 1:
        return ordered[-1], 100.0
    return ordered[below - 1], 100.0 * below / len(ordered)


def _layer_value(name, stats, extras):
    if name in extras:
        return extras[name]
    if name.endswith(".calls"):
        return stats.calls[name[: -len(".calls")]]
    if name.endswith(".self_ms"):
        return 1000.0 * stats.self_s[name[: -len(".self_ms")]]
    if name.endswith(".ms"):
        return 1000.0 * stats.inclusive_s[name[: -len(".ms")]]
    if name == "measures.cell_rule.nodes":
        return stats.rule_nodes
    if name == "measures.cell_rule.distinct_ratio":
        calls = stats.calls["measures.cell_rule"]
        return len(stats.rule_keys) / calls if calls else 0.0
    return 0  # a workload-side count this workload does not produce


def per_layer_metrics(tracer, extras, traced_s, untraced_s):
    values = {}
    units = range(len(traced_s))
    for name in PER_LAYER:
        if name != "trace.overhead_ratio":
            values[name] = statistics.median(
                _layer_value(name, tracer.units[i], extras[i]) for i in units
            )
    values["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _ms(seconds):
    return [round(1000.0 * t, 3) for t in seconds]


def inclusive_ms(tracer, units):
    """Median per unit of the time inside each layer, children included."""
    names = sorted({n for i in range(units) for n in tracer.units[i].inclusive_s})
    return {
        n: statistics.median(1000.0 * tracer.units[i].inclusive_s[n] for i in range(units))
        for n in names
    }


class Runner:
    """Runs units of one workload and keeps the tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, workload, key):
        """Run and check the unit ``key`` = (phase, index); an exception or
        a failed check makes a failed unit.  Returns (ok, seconds of the
        unit, extras)."""
        self.attempted += 1
        start = perf_counter()
        try:
            output = workload.unit(key)
            seconds = perf_counter() - start
            ok, extras = workload.check(key, output)
        except Exception as exc:  # a unit that raises is counted, not skipped
            seconds = perf_counter() - start
            ok, extras = False, {}
            self.errors.append(f"unit {key}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                self.errors.append(f"unit {key}: output check failed")
        self.failed += not ok
        return ok, seconds, extras


def run_traced(workload, modules, runner, units):
    """Run ``units`` pairs of units, each an untraced unit and then a
    traced one, so that the two times of a pair are taken close together.
    Each has a phase of its own, so no traced unit repeats the inputs of
    an earlier unit.  The tracer is removed after every unit."""
    tracer = Tracer()
    untraced_s, traced_s, extras = [], [], []
    for index in range(units):
        untraced_s.append(runner.attempt(workload, (workloads.PAIRED, index))[1])
        tracer.unit = index
        workload.tracer = tracer
        tracer.install(modules)
        try:
            _, seconds, unit_extras = runner.attempt(workload, (workloads.TRACED, index))
        finally:
            tracer.uninstall()
            workload.tracer = NullTracer()
        traced_s.append(seconds)
        extras.append(unit_extras)
    return tracer, untraced_s, traced_s, extras


def run(name, seed, seconds, trace, plan, workdir):
    """Set up, warm up and time one workload.  Returns (result, detail,
    tracer or None)."""
    runner = Runner()
    setups = []
    for rep in range(plan.setup_reps):
        gc.collect()
        start = perf_counter()
        modules = import_bvcalc()
        workload = workloads.WORKLOADS[name](modules, seed, workdir, plan.sizes, NullTracer())
        runner.attempt(workload, (workloads.WARMUP, rep))
        setups.append(perf_counter() - start)

    unit_s, completed = [], 0
    gc.collect()
    start = perf_counter()
    while len(unit_s) < plan.min_units or perf_counter() - start < seconds:
        ok, secs, _ = runner.attempt(workload, (workloads.TIMED, len(unit_s)))
        unit_s.append(secs)
        completed += ok
    phase_s = perf_counter() - start

    if trace:
        tracer, untraced_s, traced_s, extras = run_traced(workload, modules, runner, plan.trace_units)
        metrics = per_layer_metrics(tracer, extras, traced_s, untraced_s)
        more = {
            "paired_untraced_unit_ms": _ms(untraced_s),
            "traced_unit_ms": _ms(traced_s),
            "inclusive_ms": inclusive_ms(tracer, len(traced_s)),
        }
    else:
        tracer = None
        tail_ms, tail_pct = tail(unit_s)
        values = {
            "setup_s": statistics.median(setups),
            "units_per_s": completed / phase_s,
            "unit_ms_p50": 1000.0 * statistics.median(unit_s),
            "unit_ms_tail": 1000.0 * tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        more = {"unit_ms_tail": {"percentile": tail_pct, "samples": len(unit_s)}}

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "setup_s_each": setups,
        "timed_phase_s": phase_s,
        "unit_ms": _ms(unit_s),
        **more,
        "errors": runner.errors[:20],
        "workload_detail": workload.summary(),
    }
    return result, detail, tracer


# -- provenance -----------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_hash():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_hash(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one set-up, one unit")
    args = parser.parse_args(argv)

    if not (SRC / "bvcalc" / "__init__.py").is_file():
        print(f"error: no bvcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, detail, tracer = run(
            args.workload, args.seed, args.seconds, args.trace, SMOKE if args.smoke else FULL, workdir
        )
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["provenance"] = provenance(args.seed)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
