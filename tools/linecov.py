"""List the lines of bvcalc that a pytest run never executes.

    python3 tools/linecov.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: ``-q -p no:cacheprovider
tests``) under ``sys.settrace``, tracing only the frames of code that lives
in ``src/bvcalc``, and prints, per module, the executable lines that never
ran, as ranges (``12-14, 40``).  A module's executable lines are those its
code objects list in ``co_lines``.  It is a record, not a gate: the exit
status is pytest's.  Standard library only, apart from pytest itself; the
traced run takes about three times as long as an untraced one.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bvcalc"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path):
    """The line numbers that the code objects compiled from ``path`` list."""
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(pytest_args, package):
    """pytest's exit status, and the lines run per file of ``package``."""
    import pytest

    package = Path(package).resolve()
    wanted = {}  # co_filename -> resolved path inside ``package``, or None
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[wanted[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            path = Path(name).resolve()
            wanted[name] = path if path.parent == package else None
        if wanted[name] is None:
            return None
        hits.setdefault(wanted[name], set())
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(previous)
    return int(status), hits


def never_run(package, hits):
    """{module path: sorted executable lines that never ran} over ``package``."""
    return {
        path: sorted(executable_lines(path) - hits.get(path.resolve(), set()))
        for path in sorted(Path(package).glob("*.py"))
    }


def ranges(lines):
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = str(PACKAGE.parent)  # for this process and for the CLI subprocesses of the tests
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    status, hits = traced_run(argv or DEFAULT_ARGS, PACKAGE)
    for path, missing in never_run(PACKAGE, hits).items():
        print(f"{path.name}: {len(missing)} lines never ran" + (f": {ranges(missing)}" if missing else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
