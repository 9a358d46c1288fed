"""The benchmark's workloads, each driven through bvcalc's public API.

A workload is built once per set-up from freshly imported bvcalc modules.
``unit(key)`` does one unit of work and is the only timed call;
``check(key, output)`` verifies it and returns ``(ok, extras)``, where
``extras`` holds per-unit counts that only the workload can see.  A key is
``(phase, index)``: each phase of a run draws its own inputs, so a traced
unit never repeats a case that an earlier unit solved.  The first unit a
workload checks, a warm-up, becomes its reference output.

Every call into bvcalc goes through a module attribute (``self.scenarios.run``),
never through a name bound at construction, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass

import numpy as np

ORACLE_TOL = 1e-10
ORACLE_FIRST_RESOLUTION = 64

# phases of a run, the first part of a unit's key
WARMUP, TIMED, PAIRED, TRACED = range(4)


@dataclass(frozen=True)
class Sizes:
    sawtooth_resolution: int  # also the sawtooth's jmax
    oracle_batch: int  # fresh cases per oracle-1d unit
    oracle_cap: int  # highest resolution a case may need


FULL = Sizes(sawtooth_resolution=1024, oracle_batch=10, oracle_cap=2**20)
SMOKE = Sizes(sawtooth_resolution=256, oracle_batch=2, oracle_cap=2**14)


def _fingerprint(result):
    """Everything a sawtooth run reports, as text; equal runs give equal text."""
    clauses = [(c.name, c.passed, c.value, c.target) for c in result.clauses]
    return repr((result.metrics, clauses, result.tables, result.flags))


class YoungSawtooth:
    """One ``scenarios.run`` of the sawtooth scenario at resolution = jmax = 1024.

    Every unit repeats identical work, so its metrics must repeat exactly.
    """

    name = "young-sawtooth"

    def __init__(self, modules, seed, workdir, sizes, tracer):
        self.scenarios = modules["scenarios"]
        self.config = self.scenarios.RunConfig(
            "sawtooth-oscillation",
            resolution=sizes.sawtooth_resolution,
            jmax=sizes.sawtooth_resolution,
            seed=seed,
        )
        self.tracer = tracer
        self.reference = None

    def unit(self, key):
        return self.scenarios.run(self.config)

    def check(self, key, output):
        code, result = output
        fingerprint = _fingerprint(result)
        if self.reference is None:
            self.reference = fingerprint
        return code == 0 and result.passed and fingerprint == self.reference, {}

    def summary(self):
        return {"config": self.config.as_dict()}


class Catalog:
    """One pass of ``bvcalc run`` (``cli.main``) over every scenario id at the
    CLI defaults, writing reports under the benchmark's work directory.

    Every scenario must exit 0 and every file of every pass must be
    byte-identical to the reference pass.
    """

    name = "catalog"

    def __init__(self, modules, seed, workdir, sizes, tracer):
        self.cli = modules["cli"]
        self.ids = [s.sid for s in modules["scenarios"].scenario_catalog()]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.reference = None

    def unit(self, key):
        out = self.workdir / "pass{}-{}".format(*key)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for sid in self.ids:
                argv = ["run", "--scenario", sid, "--seed", str(self.seed), "--output", str(out / sid)]
                with self.tracer.span(f"scenarios.{sid}"):
                    codes[sid] = self.cli.main(argv)
        return out, codes

    def check(self, key, output):
        out, codes = output
        files = {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        shutil.rmtree(out)
        if self.reference is None:
            self.reference = files
        ok = all(code == 0 for code in codes.values()) and files == self.reference
        return ok, {"reporting.bytes": sum(len(b) for b in files.values())}

    def summary(self):
        return {"scenarios": self.ids, "files_per_pass": len(self.reference or ())}


class Oracle1D:
    """A batch of fresh random 1D cases per unit, each taken to a relative
    gap of at most 1e-10 against ``oracle_1d``.

    The unit with key ``(phase, i)`` draws its cases from the stream
    (seed, phase, i), so no case repeats within a run.  A case climbs the
    resolutions 64 * 2**k and fails if it has not met the tolerance at the
    cap.
    """

    name = "oracle-1d"

    def __init__(self, modules, seed, workdir, sizes, tracer):
        self.scenarios = modules["scenarios"]
        self.functional = modules["functional"]
        self.oracle = modules["oracle"]
        # bound now, before any tracer is installed: the node count below is
        # bookkeeping of the benchmark and must not show up as traced calls
        self._cell_rule = modules["measures"].Domain.cell_rule
        self._merge_breaks = modules["measures"].merge_breaks
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.cases = 0
        self.worst_gap = 0.0
        self.resolutions = {}

    def unit(self, key):
        rng = np.random.default_rng([self.seed, *key])
        records = []
        for _ in range(self.sizes.oracle_batch):
            case = self.scenarios.random_case_description(rng)
            ref = self.oracle.oracle_1d(case["u"], case["mu"], case["F"], domain=case["domain"])
            resolution, rungs = ORACLE_FIRST_RESOLUTION, 1
            while True:
                u, spec = self.scenarios.build_case_1d(case, resolution=resolution)
                gap = abs(self.functional.evaluate(u, spec).total - ref) / abs(ref)
                if gap <= ORACLE_TOL or resolution >= self.sizes.oracle_cap:
                    break
                resolution *= 2
                rungs += 1
            records.append((float(gap), resolution, rungs, u, spec))
        return records

    def check(self, key, records):
        nodes = 0
        for gap, resolution, _, u, spec in records:
            breaks = self._merge_breaks(u.domain.dim, u.breaks, spec.mu.breaks)
            nodes += len(self._cell_rule(u.domain, breaks=breaks)[1])
            self.resolutions[resolution] = self.resolutions.get(resolution, 0) + 1
            self.worst_gap = max(self.worst_gap, gap)
        self.cases += len(records)
        ok = all(gap <= ORACLE_TOL for gap, *_ in records)
        return ok, {
            "functional.nodes_to_tol": nodes,
            "functional.rungs_to_tol": max(r[2] for r in records),
            "functional.rel_gap_max": max(r[0] for r in records),
        }

    def summary(self):
        return {
            "cases": self.cases,
            "batch": self.sizes.oracle_batch,
            "worst_rel_gap": self.worst_gap,
            "tolerance": ORACLE_TOL,
            "cap": self.sizes.oracle_cap,
            "cases_per_resolution": {str(r): n for r, n in sorted(self.resolutions.items())},
        }


WORKLOADS = {w.name: w for w in (YoungSawtooth, Catalog, Oracle1D)}
