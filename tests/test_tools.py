import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name, path=None):
    spec = importlib.util.spec_from_file_location(name, path or TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_identity = _load("report_identity")
linecov = _load("linecov")


def test_report_differences_name_each_differing_leaf(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({
        "builder_hash": "x",
        "metrics": {"c": 0.5315000000000001, "bounds": [{"bound": 1}, {"bound": 2}], "same": [], "gone": 1},
    }))
    b.write_text(json.dumps({
        "builder_hash": "y",
        "metrics": {"c": 0.531386119462285, "bounds": [{"bound": 1}, {"bound": 2.0}], "same": [], "new": {}},
    }))
    assert report_identity.report_differences(a, b) == [
        "metrics.c: 0.5315000000000001 -> 0.531386119462285",
        "metrics.bounds[1].bound: 2 -> 2.0",
        "metrics.gone: 1 -> (missing)",
        "metrics.new: (missing) -> {}",
    ]
    assert report_identity.report_differences(a, a) == []


_SAMPLE = '''"""A sample module."""


def sign(x):
    if x < 0:
        return -1
    return 1


def unused(
    a,
):
    return [
        a,
        a,
    ]
'''

_SAMPLE_TEST = '''import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "pkg"))
import linecov_sample


def test_positive_sign():
    assert linecov_sample.sign(2) == 1
'''


def test_linecov_lists_the_lines_that_never_ran(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "linecov_sample.py").write_text(_SAMPLE)
    (tmp_path / "test_linecov_sample.py").write_text(_SAMPLE_TEST)
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        status, hits = linecov.traced_run(
            ["-q", "-p", "no:cacheprovider", str(tmp_path / "test_linecov_sample.py")],
            tmp_path / "pkg",
        )
    finally:
        sys.modules.pop("linecov_sample", None)
        sys.modules.pop("test_linecov_sample", None)
    assert status == 0
    missing = linecov.never_run(tmp_path / "pkg", hits)
    assert missing == {tmp_path / "pkg" / "linecov_sample.py": [6, 13, 14, 15]}
    assert linecov.ranges(missing[tmp_path / "pkg" / "linecov_sample.py"]) == "6, 13-15"


def test_every_tracer_target_still_resolves(monkeypatch):
    """Each row of the benchmark tracer's TARGETS names an attribute of its own
    module or class; a fold that moved one would break traced benchmark runs."""
    import importlib

    tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    modules = {row[1]: importlib.import_module(f"bvcalc.{row[1]}") for row in tracer.TARGETS}
    unresolved = []
    for row in tracer.TARGETS:
        monkeypatch.setattr(tracer, "TARGETS", (row,))
        try:
            found = tracer.Tracer.targets(modules)
        except AttributeError:
            found = []
        if not found:
            unresolved.append(row)
    assert unresolved == []


_KNOB_SAMPLE = '''
from dataclasses import dataclass, field


def f(a, b=1, *, c=2):
    def inner(p, q=0):
        return p
    return inner


def _private(x, y=0):
    return x


@dataclass
class Box:
    width: float
    height: float = 1.0
    cache: dict = field(init=False, default=None)

    def scale(self, k=1.0):
        return k


class Plain:
    def __init__(self, x, y=0):
        self.x = x
'''


def _canned_tree(root, source):
    (root / "src" / "bvcalc").mkdir(parents=True)
    (root / "src" / "bvcalc" / "sample.py").write_text(source)
    (root / "tests").mkdir()
    (root / "tests" / "test_knobs.py").write_text((ROOT / "tests" / "test_knobs.py").read_text())
    return root


def test_settable_inputs_are_counted_with_each_trees_collector(tmp_path):
    # f: a, b, c; inner: p, q; Box: width, height; scale: k; Plain: x, y (its __init__ once)
    before = _canned_tree(tmp_path / "before", _KNOB_SAMPLE)
    after = _canned_tree(tmp_path / "after", _KNOB_SAMPLE.replace("def f(a, b=1, *, c=2)", "def f(a, *, c=2)"))
    assert report_identity.settable_inputs(before) == 10
    assert report_identity.settable_inputs(after) == 9
    (after / "tests" / "test_knobs.py").unlink()
    assert report_identity.settable_inputs(after) is None
