"""Independent 1D verification oracle.

Computes the two-term functional value for piecewise-affine profiles and
polynomial-density reference measures by direct summation over a fixed
fine partition plus an explicit jump/atom ledger.  Deliberately shares no
code with the evaluation pipeline: it imports nothing from bvcalc,
descriptions come in as plain dicts, and the integrand formulas are
written out inline.  The midpoint terms are computed in numpy blocks of
at most ``_BLOCK`` points, each term with the same IEEE operations in the
same order as a scalar loop, and summed exactly, then rounded once, so
the value is ``math.fsum``'s, that of the scalar midpoint loop, to the
last bit.  A finite term m 2^e (``np.frexp``) has m 2^53 = hi 2^26 + lo
with integers |hi| <= 2^27 and |lo| <= 2^25; summed per exponent by
``np.bincount`` over a block of fewer than 2^26 terms, hi and lo stay
integers below 2^53, so their float sums are exact.  Each block's bins
fold into one Python integer count of 2^-1126, whose one division rounds
correctly.  Special values follow ``fsum``: a total beyond the float range
raises ``OverflowError``, and if any term is not finite the total is
``fsum`` of the non-finite terms alone (inf and nan propagate, inf with
-inf raises ``ValueError``).
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_POINTS = 100_000
_MATCH = 1e-12
_BLOCK = 4096
_ROUND = 1.5 * 2.0**52  # t + _ROUND - _ROUND rounds |t| < 2^51 to an integer


class OracleError(ValueError):
    """A case document the oracle cannot evaluate."""


def _exact_sum(blocks):
    """``math.fsum`` of the terms of the float arrays ``blocks``, each
    shorter than 2^26: see the module docstring."""
    total, special, zero = 0, [], []  # zero: [-0.0] while every term is -0.0
    for v in blocks:
        if not np.isfinite(v).all():
            special += v[~np.isfinite(v)].tolist()
        if special or not v.size:
            continue
        if zero is not None:
            zero = [-0.0] if np.signbit(v).all() and not v.any() else None
        m, e = np.frexp(v)
        hi = (m * 2.0**27 + _ROUND) - _ROUND
        lo = m * 2.0**53 - hi * 2.0**26
        e0 = int(e.min())
        bins = zip(np.bincount(e - e0, hi).tolist(), np.bincount(e - e0, lo).tolist())
        for shift, (h, l) in enumerate(bins, e0 + 1073):
            if h or l:
                total += ((int(h) << 26) + int(l)) << shift
    if special:
        return math.fsum(special)
    return total / (1 << 1126) if total else math.fsum(zero or [])


def _poly(x, coeffs):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _integrand_pair(f_desc):
    """(F(x, t), F_infinity(x, t)) as plain closures, elementwise on arrays;
    every kind has the recession function |t|."""
    kind = f_desc["kind"]
    if kind == "shifted-norm":
        a0, c = float(f_desc.get("A0", 0.3)), float(f_desc.get("c", 0.4))
    bases = {
        "norm": abs,
        "area": lambda t: np.sqrt(1.0 + t * t),
        "shifted-norm": lambda t: abs(t - a0) + c,
        "w-shape": lambda t: abs(abs(t) - 1.0),
    }
    if kind not in bases:
        raise ValueError(f"oracle does not know integrand kind {kind!r}")
    base = bases[kind]
    if f_desc.get("modulated", False):
        return (lambda x, t: (1.0 + 0.5 * x) * base(t)), (lambda x, t: (1.0 + 0.5 * x) * abs(t))
    return (lambda x, t: base(t)), (lambda x, t: abs(t))


def oracle_1d(u_desc, mu_desc, f_desc, domain=(0.0, 1.0), npoints=ORACLE_POINTS):
    """Functional value integral F(x, dDu/dmu) dmu + recession term, by a
    direct midpoint sum over ``npoints`` sub-intervals plus the explicit
    ledger of jumps and atoms (atoms at one point are one atom, their
    weights summed, in first-occurrence order).

    ``u_desc``: {"breaks": [...], "slopes": [...], "jumps": [[pos, height]...]}
    ``mu_desc``: {"poly": [c0, c1, ...]} density coefficients, "atoms": [[pos, w]...]
    ``f_desc``: {"kind": ..., "modulated": bool, ...}
    """
    a, b = float(domain[0]), float(domain[1])
    breaks = [float(t) for t in u_desc.get("breaks", ())]
    slopes = [float(s) for s in u_desc.get("slopes", (0.0,))]
    jumps = [(float(t), float(d)) for t, d in u_desc.get("jumps", ())]
    coeffs = [float(c) for c in mu_desc.get("poly", (1.0,))]
    atoms = {}
    for p, w in mu_desc.get("atoms", ()):
        p, w = float(p), float(w)
        atoms[p] = atoms[p] + w if p in atoms else w

    F, F_inf = _integrand_pair(f_desc)

    # partition aligned with the slope breakpoints (uniform within each
    # smooth stretch), so the midpoint sum never straddles a kink
    edges = [a] + [t for t in breaks if a < t < b] + [b]

    def cell_blocks():
        for lo, hi in zip(edges[:-1], edges[1:]):
            slope = slopes[sum(0.5 * (lo + hi) >= t for t in breaks)]
            count = max(1, round(npoints * (hi - lo) / (b - a)))
            step = (hi - lo) / count
            for k0 in range(0, count, _BLOCK):
                x = lo + (np.arange(k0, min(k0 + _BLOCK, count)) + 0.5) * step
                dens = _poly(x, coeffs)
                bad = np.flatnonzero(~(dens > 0.0))
                if bad.size:
                    d, at = float(dens[bad[0]]), float(x[bad[0]])
                    if d == 0.0:
                        raise OracleError("the density of 'mu' vanishes at a summation point")
                    raise OracleError(
                        f"the density of 'mu' is {d!r}, not positive, at the summation point x = {at!r}"
                    )
                yield F(x, slope / dens) * dens * step

    total = _exact_sum(cell_blocks())

    for pos, height in jumps:
        atom_w = next((w for p, w in atoms.items() if abs(p - pos) <= _MATCH), 0.0)
        if atom_w > 0.0:
            total += float(F(pos, height / atom_w) * atom_w)
        else:
            total += float(F_inf(pos, height))

    for p, w in atoms.items():
        if not any(abs(p - pos) <= _MATCH for pos, _ in jumps):
            total += float(F(p, 0.0) * w)

    return total


def _check_entries(u, mu, f, a, b):
    """An OracleError naming the first entry that ``build_case_1d`` would
    also reject, or that would count twice: numbers that are not finite,
    breakpoints not increasing strictly inside (a, b), jumps outside (a, b)
    or within ``_MATCH`` of each other, and atoms outside (a, b) or of
    negative weight."""
    entries = {"'u' breaks": u.get("breaks", []), "'u' slopes": u.get("slopes", []),
               "'u' jumps": u.get("jumps", []), "'mu' poly": mu.get("poly", []),
               "'mu' atoms": mu.get("atoms", []), "'F' A0": f.get("A0", 0), "'F' c": f.get("c", 0)}
    for name, value in entries.items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise OracleError(f"{name} must be finite numbers, got {value!r}")
    breaks, jumps, atoms = entries["'u' breaks"], entries["'u' jumps"], entries["'mu' atoms"]
    if not all(s < t for s, t in zip([a, *breaks], [*breaks, b])):
        raise OracleError(f"'u' breaks must increase strictly inside ({a!r}, {b!r}), got {breaks!r}")
    ts = sorted(t for t, _ in jumps)
    if not all(a < t < b for t in ts) or any(t - s <= _MATCH for s, t in zip(ts, ts[1:])):
        raise OracleError(f"'u' jumps must lie inside ({a!r}, {b!r}), more than {_MATCH:g} apart, got {jumps!r}")
    if not all(a < p < b and w >= 0.0 for p, w in atoms):
        raise OracleError(f"'mu' atoms must lie inside ({a!r}, {b!r}) with weights >= 0, got {atoms!r}")


def oracle_case(case):
    """``oracle_1d`` of a case document {"u", "mu", "F", "domain"}, or an
    OracleError for a missing part, a slope count other than one per
    breakpoint interval, an empty domain, an entry ``_check_entries``
    rejects, a density that is not positive at a summation point or a
    malformed entry."""
    if not isinstance(case, dict) or not all(isinstance(case.get(k), dict) for k in ("u", "mu", "F")):
        raise OracleError("a case needs the objects 'u', 'mu' and 'F'")
    u, mu, f = case["u"], case["mu"], case["F"]
    breaks, slopes = u.get("breaks", []), u.get("slopes", [0.0])
    listed = isinstance(breaks, list) and isinstance(slopes, list)
    if not listed or len(slopes) != len(breaks) + 1:
        raise OracleError(f"'u' needs one slope per breakpoint interval: {breaks!r}, {slopes!r}")
    domain = case.get("domain", [0.0, 1.0])
    numeric = isinstance(domain, list) and all(isinstance(t, (int, float)) for t in domain)
    if not (numeric and len(domain) == 2 and domain[0] < domain[1]):
        raise OracleError(f"'domain' must be an interval [a, b] with a < b, got {domain!r}")
    try:
        _check_entries(u, mu, f, float(domain[0]), float(domain[1]))
        return oracle_1d(u, mu, f, domain=domain)
    except OracleError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OracleError(f"malformed case: {type(exc).__name__}: {exc}") from None
