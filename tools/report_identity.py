"""Check that two source trees of bvcalc write identical scenario output.

    python3 tools/report_identity.py TREE_A TREE_B

Runs every scenario id (as listed by ``bvcalc list`` in TREE_A) with
``--seed 1 --output DIR`` from each tree's ``src/`` and compares every
file the run leaves: ``report.json``, the CSV tables, the ``.dat`` files,
and the captured stdout and stderr.  The ``builder_hash`` line of a report
hashes the package source, so it is the one line left out of the
comparison.  Exits 1 on any difference, 0 otherwise.  Standard library
only; scenarios run one after another.
"""

from __future__ import annotations

import argparse
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
            else:
                print(f"same {sid}: {count} files")
    print(f"{len(ids) - failed} of {len(ids)} scenarios identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
