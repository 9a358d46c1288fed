"""Tests of the benchmark itself (not of bvcalc).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

sys.path.insert(0, str(bench.SRC))

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
DECLARED_UNITS = {
    0: {m["name"]: m["unit"] for m in DECLARED["end_to_end"]},
    1: {m["name"]: m["unit"] for m in DECLARED["per_layer"]},
}


def _capture_imports(monkeypatch):
    """Record, for every fresh import of bvcalc during a run, the modules
    and the original object behind every attribute the tracer may wrap."""
    imports = []
    real_import = bench.import_bvcalc

    def spying_import():
        modules = real_import()
        originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr in Tracer.targets(modules)]
        imports.append((modules, originals))
        return modules

    monkeypatch.setattr(bench, "import_bvcalc", spying_import)
    return imports


def _all_original(originals):
    return all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_declared_metrics_match_the_harness():
    assert DECLARED_UNITS[0] == bench.END_TO_END
    assert DECLARED_UNITS[1] == bench.PER_LAYER
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_declared_metrics(name, trace, tmp_path):
    result, detail, _ = bench.run(name, 3, 0.0, trace, bench.SMOKE, tmp_path)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2 + trace
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == DECLARED_UNITS[trace]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_main_prints_result_as_last_line(capsys):
    assert bench.main(["--workload", "young-sawtooth", "--seed", "2", "--seconds", "0", "--smoke"]) == 0
    *_, detail, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    provenance = json.loads(detail)["provenance"]
    assert provenance["seed"] == 2
    assert set(provenance["threads"].values()) == {"1"}


def test_main_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "catalog", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_corrupted_oracle_reference_fails_the_unit(monkeypatch, tmp_path):
    real_import = bench.import_bvcalc

    def corrupted_import():
        modules = real_import()
        true_oracle = modules["oracle"].oracle_1d
        monkeypatch.setattr(
            modules["oracle"], "oracle_1d", lambda *a, **k: true_oracle(*a, **k) * (1.0 + 1e-6)
        )
        return modules

    monkeypatch.setattr(bench, "import_bvcalc", corrupted_import)
    result, detail, _ = bench.run("oracle-1d", 5, 0.0, 0, bench.SMOKE, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert detail["workload_detail"]["worst_rel_gap"] > workloads.ORACLE_TOL


def test_raising_unit_counts_as_failed(tmp_path):
    runner = bench.Runner()
    modules = bench.import_bvcalc()
    workload = workloads.Oracle1D(modules, 1, tmp_path, workloads.SMOKE, NullTracer())
    workload.unit = lambda key: 1 / 0
    ok, _, _ = runner.attempt(workload, (workloads.TIMED, 0))
    assert not ok and runner.failed == runner.attempted == 1
    assert "ZeroDivisionError" in runner.errors[0]


def test_tracer_wraps_every_namespace_and_restores_by_identity(monkeypatch, tmp_path):
    imports = _capture_imports(monkeypatch)
    seen_wrapped = []
    real_unit = workloads.YoungSawtooth.unit

    def unit(self, key):
        seen_wrapped.append(not _all_original(imports[-1][1]))
        return real_unit(self, key)

    monkeypatch.setattr(workloads.YoungSawtooth, "unit", unit)
    result, _, tracer = bench.run("young-sawtooth", 4, 0.0, 1, bench.SMOKE, tmp_path)
    assert result["correct"]
    assert seen_wrapped[-1] and not any(seen_wrapped[:-1])
    modules, originals = imports[-1]
    wrapped_in = {getattr(owner, "__name__", None) for owner, attr, _ in originals if attr == "merge_breaks"}
    assert {"bvcalc.measures", "bvcalc.young"} <= wrapped_in
    assert _all_original(originals)
    assert tracer.spans and None not in tracer.spans
    assert result["metrics"]["young.pairing.calls"]["value"] > 0


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    imports = _capture_imports(monkeypatch)
    checks = []
    real_unit = workloads.Catalog.unit

    def unit(self, key):
        checks.append(_all_original(imports[-1][1]))
        return real_unit(self, key)

    def refuse(self, modules):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(workloads.Catalog, "unit", unit)
    monkeypatch.setattr(Tracer, "install", refuse)
    result, _, tracer = bench.run("catalog", 4, 0.0, 0, bench.SMOKE, tmp_path)
    assert result["correct"] and tracer is None
    assert checks and all(checks)


def test_every_oracle_unit_draws_fresh_inputs(monkeypatch, tmp_path):
    keys = []
    real_unit = workloads.Oracle1D.unit

    def unit(self, key):
        keys.append(key)
        return real_unit(self, key)

    monkeypatch.setattr(workloads.Oracle1D, "unit", unit)
    result, _, _ = bench.run("oracle-1d", 6, 0.0, 1, bench.SMOKE, tmp_path)
    assert result["correct"]
    assert len(keys) == result["attempted"] == len(set(keys))


def test_tail_has_ten_samples_beyond():
    times = list(range(1, 31))
    value, percentile = bench.tail(times)
    assert value == 20 and sum(t > value for t in times) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert bench.tail([3, 1, 2]) == (3, 100.0)
