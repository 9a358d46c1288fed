"""Span tracer for bvcalc that works from outside the package.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` with a timing wrapper, in every ``bvcalc`` module namespace
that holds it (``young`` imports ``merge_breaks``, so wrapping only
``measures.merge_breaks`` would miss most calls), and ``uninstall`` puts
the very same objects back.  Nothing under ``src/`` is edited.

Each call becomes a span ``(name, start, end, parent, unit)``; spans stay
in memory until ``dump`` writes them out.  Per unit the tracer also keeps
calls, self time (a span's duration minus the time its child spans cover)
and inclusive time of the outermost span of each name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute): "Class.method" or a module-level function.
# Two attributes may share one layer name; their calls are pooled.
TARGETS = (
    ("measures.cell_rule", "measures", "Domain.cell_rule"),
    ("measures.merge_breaks", "measures", "merge_breaks"),
    ("measures.rn_decompose", "measures", "rn_decompose"),
    ("measures.rn_decompose", "measures", "scalar_rn_decompose"),
    ("measures.density_at", "measures", "ScalarRadonMeasure.density_at"),
    ("measures.density_at", "measures", "MatrixRadonMeasure.density_at"),
    ("measures.construct", "measures", "ScalarRadonMeasure.__init__"),
    ("measures.construct", "measures", "MatrixRadonMeasure.__init__"),
    ("measures.total_variation", "measures", "total_variation"),
    ("bv.construct", "bv", "BVFunction.__init__"),
    ("bv.derivative", "bv", "derivative"),
    ("bv.value_at", "bv", "BVFunction.value_at"),
    ("bv.gradient_at", "bv", "BVFunction.gradient_at"),
    ("bv.l1_distance", "bv", "BVFunction.l1_distance"),
    ("integrands.call", "integrands", "Integrand.__call__"),
    ("integrands.recession_values", "integrands", "recession_values"),
    ("integrands.sq_envelope", "integrands", "sq_envelope"),
    ("integrands.quasiconvexity_refuter", "integrands", "quasiconvexity_refuter"),
    ("functional.evaluate", "functional", "evaluate"),
    ("functional.relaxation_upper_bound", "functional", "relaxation_upper_bound"),
    ("functional.admissibility_check", "functional", "admissibility_check"),
    ("functional.lsc_experiment", "functional", "lsc_experiment"),
    ("functional.reshetnyak_experiment", "functional", "reshetnyak_experiment"),
    ("young.pairing", "young", "pairing"),
    ("young.measure_parts", "young", "measure_parts"),
    ("young.empirical_generation_check", "young", "empirical_generation_check"),
    ("young.jensen", "young", "jensen_check_mu"),
    ("young.jensen", "young", "jensen_check_lebesgue"),
    ("scenarios.carpet_lower_bound", "scenarios", "carpet_lower_bound"),
    ("scenarios.build_case_1d", "scenarios", "build_case_1d"),
    ("oracle.oracle_1d", "oracle", "oracle_1d"),
    ("reporting.write_report", "reporting", "write_report"),
    ("reporting.write_dat", "reporting", "write_dat"),
    ("reporting.builder_hash", "reporting", "builder_hash"),
)

CELL_RULE = "measures.cell_rule"


def _freeze(value):
    """Hashable form of a breaks/region argument, as given: callers pass
    the tuples ``merge_breaks`` returns, which hash without a copy."""
    try:
        hash(value)
        return value
    except TypeError:
        pass
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return float(value)


class UnitStats:
    """Per-unit aggregates, keyed by layer name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.rule_nodes = 0
        self.rule_keys = set()


class NullTracer:
    """Stands in for a tracer in untraced runs: it installs nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.units = defaultdict(UnitStats)
        self.unit = None
        self._installed = []  # (owner, attribute, original)
        self._stack = []  # open spans: [index, name, child seconds]
        self._open = defaultdict(int)

    # -- installation --------------------------------------------------------

    @staticmethod
    def targets(modules):
        """Every (owner, attribute) the tracer would replace, with the layer
        name; ``modules`` maps short names (``measures``) to the imported
        bvcalc modules."""
        out = []
        for name, module, attr in TARGETS:
            owner = modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                if attr not in vars(owner):
                    raise AttributeError(f"{cls_name}.{attr} is not defined on the class")
                out.append((name, owner, attr))
                continue
            original = getattr(owner, attr)
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name == "bvcalc" or mod_name.startswith("bvcalc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            out.append((name, mod, key))
        return out

    def install(self, modules):
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for name, owner, attr in self.targets(modules):
            original = vars(owner)[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(name, original)
            setattr(owner, attr, wrapped[id(original)])
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, 0.0])
        self._open[name] += 1
        return parent

    def _exit(self, name, parent, start, end):
        index, _, child = self._stack.pop()
        self._open[name] -= 1
        self.spans[index] = (name, start, end, parent, self.unit)
        stats = self.units[self.unit]
        stats.calls[name] += 1
        stats.self_s[name] += end - start - child
        if not self._open[name]:
            stats.inclusive_s[name] += end - start
        return stats

    def _credit_parent(self, start):
        # the parent's self time excludes the child and the bookkeeping
        if self._stack:
            self._stack[-1][2] += perf_counter() - start

    def _wrap(self, name, fn):
        tracer = self
        cell_rule = name == CELL_RULE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._enter(name)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                stats = tracer._exit(name, parent, start, perf_counter())
                if returned and cell_rule:
                    tracer._observe_rule(stats, args, kwargs, result)
                tracer._credit_parent(start)
            return result

        return wrapper

    def _observe_rule(self, stats, args, kwargs, result):
        domain = args[0]
        breaks = kwargs.get("breaks", args[1] if len(args) > 1 else None)
        region = kwargs.get("region", args[2] if len(args) > 2 else None)
        stats.rule_nodes += len(result[1])
        stats.rule_keys.add((domain.box, domain.resolution, _freeze(breaks), _freeze(region)))

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call the benchmark itself makes."""
        parent = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, parent, start, perf_counter())
            self._credit_parent(start)

    def dump(self, path):
        names = sorted({span[0] for span in filter(None, self.spans)})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "unit"],
                    "names": names,
                    "spans": [
                        [index[n], round(s, 7), round(e, 7), p, u]
                        for n, s, e, p, u in filter(None, self.spans)
                    ],
                },
                fh,
                separators=(",", ":"),
            )
