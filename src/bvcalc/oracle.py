"""Independent 1D verification oracle.

Computes the two-term functional value for piecewise-affine profiles and
polynomial-density reference measures by direct summation over a fixed
fine partition plus an explicit jump/atom ledger.  Deliberately shares no
code with the evaluation pipeline: it imports nothing from bvcalc,
descriptions come in as plain dicts, and the integrand formulas are
written out inline.  The midpoint terms are computed in numpy blocks of
at most ``_BLOCK`` points, each term with the same IEEE operations in the
same order as a scalar loop, and all of them go through one
``math.fsum``.  ``fsum`` rounds the exact sum once, whatever the grouping,
so the value is that of the scalar midpoint loop to the last bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ORACLE_POINTS = 100_000
_MATCH = 1e-12
_BLOCK = 4096


class OracleError(ValueError):
    """A case document the oracle cannot evaluate."""


def _slope_at(x, breaks, slopes):
    k = 0
    for b in breaks:
        if x >= b:
            k += 1
        else:
            break
    return slopes[k]


def _poly(x, coeffs):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _integrand_pair(f_desc):
    """(F(x, t), F_infinity(x, t)) as plain closures, elementwise on arrays."""
    kind = f_desc["kind"]
    modulated = bool(f_desc.get("modulated", False))

    if kind == "norm":
        base = abs
        base_inf = abs
    elif kind == "area":
        base = lambda t: np.sqrt(1.0 + t * t)
        base_inf = abs
    elif kind == "shifted-norm":
        a0 = float(f_desc.get("A0", 0.3))
        c = float(f_desc.get("c", 0.4))
        base = lambda t: abs(t - a0) + c
        base_inf = abs
    elif kind == "w-shape":
        base = lambda t: abs(abs(t) - 1.0)
        base_inf = abs
    else:
        raise ValueError(f"oracle does not know integrand kind {kind!r}")

    if modulated:
        return (
            lambda x, t: (1.0 + 0.5 * x) * base(t),
            lambda x, t: (1.0 + 0.5 * x) * base_inf(t),
        )
    return (lambda x, t: base(t)), (lambda x, t: base_inf(t))


def oracle_1d(u_desc, mu_desc, f_desc, domain=(0.0, 1.0), npoints=ORACLE_POINTS):
    """Functional value integral F(x, dDu/dmu) dmu + recession term, by a
    direct midpoint sum over ``npoints`` sub-intervals plus the explicit
    ledger of jumps and atoms.

    ``u_desc``: {"breaks": [...], "slopes": [...], "jumps": [[pos, height]...]}
    ``mu_desc``: {"poly": [c0, c1, ...]} density coefficients, "atoms": [[pos, w]...]
    ``f_desc``: {"kind": ..., "modulated": bool, ...}
    """
    a, b = float(domain[0]), float(domain[1])
    breaks = [float(t) for t in u_desc.get("breaks", ())]
    slopes = [float(s) for s in u_desc.get("slopes", (0.0,))]
    jumps = [(float(t), float(d)) for t, d in u_desc.get("jumps", ())]
    coeffs = [float(c) for c in mu_desc.get("poly", (1.0,))]
    atoms = [(float(p), float(w)) for p, w in mu_desc.get("atoms", ())]

    F, F_inf = _integrand_pair(f_desc)

    # partition aligned with the slope breakpoints (uniform within each
    # smooth stretch), so the midpoint sum never straddles a kink
    edges = [a] + [t for t in breaks if a < t < b] + [b]

    def cell_blocks():
        for lo, hi in zip(edges[:-1], edges[1:]):
            slope = _slope_at(0.5 * (lo + hi), breaks, slopes)
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
                yield (F(x, slope / dens) * dens * step).tolist()

    total = math.fsum(itertools.chain.from_iterable(cell_blocks()))

    for pos, height in jumps:
        atom_w = 0.0
        for p, w in atoms:
            if abs(p - pos) <= _MATCH:
                atom_w = w
                break
        if atom_w > 0.0:
            total += float(F(pos, height / atom_w) * atom_w)
        else:
            total += float(F_inf(pos, height))

    for p, w in atoms:
        if any(abs(p - pos) <= _MATCH for pos, _ in jumps):
            continue
        total += float(F(p, 0.0) * w)

    return total


def oracle_case(case):
    """``oracle_1d`` of a case document {"u", "mu", "F", "domain"}, or an
    OracleError for a missing part, a slope count other than one per
    breakpoint interval, an empty domain, a density that is not positive at
    a summation point or a malformed entry."""
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
        return oracle_1d(u, mu, f, domain=domain)
    except OracleError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OracleError(f"malformed case: {type(exc).__name__}: {exc}") from None
