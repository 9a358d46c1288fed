import importlib.util
import json
import sys
from pathlib import Path

import pytest

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


bench_pairs = _load("bench_pairs")


def _result_line(units_per_s, correct=True):
    metrics = {
        "setup_s": 0.1, "units_per_s": units_per_s, "unit_ms_p50": 1000.0 / units_per_s,
        "unit_ms_tail": 2000.0 / units_per_s, "peak_rss_mb": 40.0,
    }
    return "details line\n" + json.dumps({
        "correct": correct, "attempted": 30, "failed": 0,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }) + "\n"


def test_bench_pairs_alternates_sides_and_summarizes_canned_runs(tmp_path, capsys):
    speed = {"parent": iter([80.0, 78.0, 82.0, 79.0]), "change": iter([90.0, 91.0, 89.0, 92.0])}
    calls = []

    def runner(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return _result_line(next(speed[tree]))

    out = tmp_path / "bench.json"
    args = ["parent", "change", "--workload", "young-sawtooth", "--seeds", "1-3", "4",
            "--seconds", "2", "--claim", "units_per_s", "--out", str(out)]
    assert bench_pairs.main(args, runner=runner) == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert {c[1:] for c in calls} == {("young-sawtooth", s, 2.0) for s in (1, 2, 3, 4)}
    doc = json.loads(out.read_text())
    pairs, summary = doc["pairs"]["young-sawtooth"], doc["summary"]["young-sawtooth"]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert [p["parent"]["units_per_s"] for p in pairs] == [80.0, 78.0, 82.0, 79.0]
    row = summary["units_per_s"]
    assert summary["pairs"] == 4 and row["change_wins"] == 4
    assert row["median_ratio_change_over_parent"] == 90.5 / 79.5
    assert row["median_worsening"] == 1.0 - 90.5 / 79.5 and row["within_bound"]
    assert summary["unit_ms_p50"]["change_wins"] == 4 and summary["peak_rss_mb"]["change_wins"] == 0
    assert "claim holds" in capsys.readouterr().out

    # an A/A control joins the same file; a worse change is outside its bound
    slow = iter([80.0, 50.0])
    assert bench_pairs.main(["parent", "x", "--workload", "young-sawtooth", "--seeds", "7", "--aa",
                             "--out", str(out)], runner=lambda *a: _result_line(next(slow))) == 1
    doc = json.loads(out.read_text())
    assert doc["pairs"]["young-sawtooth"] == pairs
    aa = doc["aa_control"]
    assert aa["pairs"][0]["first"]["units_per_s"] == 80.0 and aa["pairs"][0]["second"]["units_per_s"] == 50.0
    assert aa["summary"]["units_per_s"]["second_wins"] == 0
    assert aa["summary"]["units_per_s"]["within_bound"] is False


def test_bench_pairs_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    metrics = {"units_per_s": ("higher", 0.25)}

    def pairs(parent, change):
        return [{"parent": {"units_per_s": p}, "change": {"units_per_s": c}} for p, c in zip(parent, change)]

    parent = [78.0, 80.0, 79.0, 81.0, 77.0, 80.0, 82.0, 79.0, 78.0, 80.0]
    ahead = bench_pairs.summarize(pairs(parent, [p * 1.15 for p in parent]), metrics)
    assert bench_pairs.claim_verdict(ahead, "units_per_s")[0]
    eight = bench_pairs.summarize(pairs(parent, [p * 1.15 for p in parent[:8]] + parent[8:]), metrics)
    assert not bench_pairs.claim_verdict(eight, "units_per_s")[0]
    close = bench_pairs.summarize(pairs(parent, [p + 0.5 for p in parent]), metrics)
    assert close["units_per_s"]["change_wins"] == 10
    assert not bench_pairs.claim_verdict(close, "units_per_s")[0]


def test_bench_pairs_rejects_a_run_without_a_result_line_or_not_correct():
    with pytest.raises(ValueError):
        bench_pairs.parse_result("Traceback (most recent call last):\n  ...\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_result('{"metrics": {}}\n')
    assert bench_pairs.parse_seeds(["1-3,5", "8"]) == [1, 2, 3, 5, 8]
    # equal speeds but a run that failed its check: the exit status is 1
    args = ["parent", "change", "--workload", "oracle-1d", "--seeds", "1"]
    assert bench_pairs.main(args, runner=lambda tree, *a: _result_line(80.0, correct=tree == "parent")) == 1
    assert bench_pairs.main(args, runner=lambda *a: _result_line(80.0)) == 0
