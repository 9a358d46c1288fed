import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
_spec = importlib.util.spec_from_file_location("report_identity", TOOL)
report_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_identity)


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
