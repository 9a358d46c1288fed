"""Check that two source trees of bvcalc write identical scenario output.

    python3 tools/report_identity.py TREE_A TREE_B

Runs every scenario id (as listed by ``bvcalc list`` in TREE_A) with
``--seed 1 --output DIR`` from each tree's ``src/`` and compares every
file the run leaves: ``report.json``, the CSV tables, the ``.dat`` files,
and the captured stdout and stderr.  The ``builder_hash`` line of a report
hashes the package source, so it is the one line left out of the
comparison.  Under each differing scenario it prints every JSON leaf of
``report.json`` that differs, as ``path: value in TREE_A -> value in
TREE_B`` (for example ``metrics.bounds[1].bound: 0.24 -> 0.25``).  Exits 1
on any difference, 0 otherwise.  Standard library only; scenarios run one
after another.

It also prints, for information, each tree's total line count of
``src/bvcalc/*.py`` (as ``wc -l`` counts them) and its settable inputs:
the parameters and dataclass fields of the public names of the package, as
the collector of that tree's ``tests/test_knobs.py`` finds them, a class's
``__init__`` counted once.  Neither is compared, so a change that claims to
shrink the package or its inputs can be read off the same run that checks
its output.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _bvcalc(tree, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "bvcalc.cli", *args], cwd=cwd, env=env, capture_output=True
    )


def scenario_ids(tree):
    listing = _bvcalc(tree, "list")
    if listing.returncode != 0:
        raise SystemExit(f"bvcalc list failed in {tree}:\n{listing.stderr.decode()}")
    return [line.split()[0] for line in listing.stdout.decode().splitlines() if line.strip()]


def source_lines(tree):
    """Newlines in the package modules of ``tree``, summed like ``wc -l``."""
    return sum(p.read_bytes().count(b"\n") for p in Path(tree, "src", "bvcalc").glob("*.py"))


def settable_inputs(tree):
    """Parameters and dataclass fields of the public names of the package
    modules of ``tree``, counted with the collector of its own
    ``tests/test_knobs.py``; None when the tree has no such file."""
    path = Path(tree, "tests", "test_knobs.py")
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("test_knobs_of_tree", path)
    knobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(knobs)
    count = 0
    for module in sorted(Path(tree, "src", "bvcalc").glob("*.py")):
        for name, signatures in knobs._collect(module.stem, ast.parse(module.read_text())).items():
            if not name.startswith("_"):  # a class's __init__ is counted under the class name
                count += sum(len({*s.positional, *s.defaulted}) for s in signatures)
    return count


def run_scenario(tree, sid, out):
    """Run one scenario into ``out``; stdout, stderr and the exit status are
    written beside the reports so they are compared like any other file."""
    out.mkdir(parents=True)
    proc = _bvcalc(tree, "run", "--scenario", sid, "--seed", "1", "--output", str(out / "output"))
    (out / "stdout.txt").write_bytes(proc.stdout)
    (out / "stderr.txt").write_bytes(proc.stderr)
    (out / "exit_status.txt").write_text(f"{proc.returncode}\n")


def _comparable(path):
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "report.json":
        lines = [line for line in lines if b'"builder_hash"' not in line]
    return lines


def _leaves(value, path=""):
    """(path, value) for every leaf of a JSON value, with paths such as
    ``metrics.bounds[1].bound``; an empty list or object is a leaf."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def report_differences(path_a, path_b):
    """``path: a -> b`` for each leaf that differs between two report.json
    files, the builder hash left out; a leaf on one side only reads
    ``(missing)`` on the other."""
    a, b = (dict(_leaves(json.loads(path.read_text()))) for path in (path_a, path_b))
    out = []
    for key in [*a, *(key for key in b if key not in a)]:
        va, vb = (json.dumps(side[key]) if key in side else "(missing)" for side in (a, b))
        if not key.endswith("builder_hash") and va != vb:
            out.append(f"{key}: {va} -> {vb}")
    return out


def compare(dir_a, dir_b):
    """Relative paths that differ (or exist on one side only)."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    differing = sorted(files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        if _comparable(dir_a / rel) != _comparable(dir_b / rel):
            differing.append(rel)
    return differing, len(files_a | files_b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    args = parser.parse_args(argv)
    ids = scenario_ids(args.tree_a)
    ids_b = scenario_ids(args.tree_b)
    if ids != ids_b:
        print(f"scenario lists differ: {ids} vs {ids_b}")
        return 1
    for tree in (args.tree_a, args.tree_b):
        print(
            f"lines {tree}: {source_lines(tree)} in src/bvcalc/*.py, "
            f"{settable_inputs(tree)} settable inputs (not compared)"
        )
    failed = 0
    with tempfile.TemporaryDirectory(prefix="report-identity-") as tmp:
        for sid in ids:
            dir_a, dir_b = Path(tmp, "a", sid), Path(tmp, "b", sid)
            run_scenario(args.tree_a, sid, dir_a)
            run_scenario(args.tree_b, sid, dir_b)
            differing, count = compare(dir_a, dir_b)
            if differing:
                failed += 1
                print(f"DIFF {sid}: {', '.join(map(str, differing))}")
                for rel in differing:
                    if rel.name == "report.json" and (dir_a / rel).is_file() and (dir_b / rel).is_file():
                        for line in report_differences(dir_a / rel, dir_b / rel):
                            print(f"  {rel}: {line}")
            else:
                print(f"same {sid}: {count} files")
    print(f"{len(ids) - failed} of {len(ids)} scenarios identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
