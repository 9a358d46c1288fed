"""Deterministic report emission: canonical JSON and CSV tables.

Reports embed the run configuration and a content hash of the scenario
builder and of the whole package source, and contain no timestamps, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from pathlib import Path


def _module_sources():
    """(file name, source bytes) of every bvcalc module, sorted by name."""
    return [(p.name, p.read_bytes()) for p in sorted(Path(__file__).parent.glob("*.py"))]


@functools.cache
def _package_digest():
    """sha1 of the bvcalc and numpy versions and the source of every bvcalc
    module; computed once per process."""
    import numpy as np

    from . import __version__

    head = f"{__version__}\x00{np.__version__}".encode()
    modules = [b"%s\x00%d\x00%s" % (n.encode(), len(src), src) for n, src in _module_sources()]
    return hashlib.sha1(b"\x00".join([head, *modules])).digest()


def builder_hash(fn):
    """Git-style content hash of a builder: sha1 of its qualified name and
    the package digest, so an edit anywhere in bvcalc changes it."""
    blob = getattr(fn, "__qualname__", repr(fn)).encode() + b"\x00" + _package_digest()
    return hashlib.sha1(b"blob %d\x00" % len(blob) + blob).hexdigest()


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _jsonable(value):
    import math

    import numpy as np

    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_report(output_dir, report, tables=None):
    """Write report.json and tables/<name>.csv under ``output_dir``;
    returns the report path."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(canonical_json(_jsonable(report)))
    if tables:
        tdir = out / "tables"
        tdir.mkdir(exist_ok=True)
        for name, (header, rows) in tables.items():
            with open(tdir / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_jsonable(v) for v in row])
    return path


def write_dat(output_dir, name, columns):
    """Plot-ready whitespace-separated columns."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.dat"
    lines = [" ".join(f"{v:.12g}" for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")
    return path
