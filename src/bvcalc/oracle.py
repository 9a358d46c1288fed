"""Independent 1D verification oracle.

Computes the two-term functional value for piecewise-affine profiles and
polynomial-density reference measures: a Gauss-Legendre cell term plus an
explicit jump/atom ledger.  Deliberately uses no code of the evaluation
pipeline (which borrows only its kink search, to place cell edges): it
imports only ``math`` and ``numpy``, takes plain dicts and writes each
integrand formula out inline.  Each stretch between slope breakpoints
is split at the kinks of its integrand (the real roots
of A0 rho - s for ``shifted-norm``, of rho - |s| for ``w-shape``), so every
piece carries a polynomial, or an analytic function for ``area``, and
gets a rule of 2 ``_NODES`` points.  The rule checks itself: the
``math.fsum`` of its terms must be finite and within ``_RULE_TOL``
relative of the ``_NODES``-point sum, or an ``OracleError`` is raised.
So does a density with rho(a) <= 0 or a real root (imaginary part at most
``_REAL_TOL``) in [a, b], found from its coefficients, not by sampling.
"""

from __future__ import annotations

import math

import numpy as np

_NODES = 20
_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (_NODES, 2 * _NODES)}
_RULE_TOL = 1e-14
_REAL_TOL = 1e-6
_MATCH = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)


class OracleError(ValueError):
    """A case document the oracle cannot evaluate."""


def _real_roots(coeffs, lo, hi):
    """The real roots in [lo, hi], sorted, of the polynomial with
    ``coeffs`` (lowest degree first).  A leading coefficient of 0, or one
    so small that the others divided by it overflow, is dropped first; the
    roots only the latter adds lie past 1e100 up to degree 3."""
    c = [float(x) for x in coeffs]
    while len(c) > 1 and not max(map(abs, c[:-1])) <= abs(c[-1]) * _FLOAT_MAX:
        c.pop()
    roots = np.polynomial.polynomial.polyroots(c)
    return sorted(float(r.real) for r in roots if abs(r.imag) <= _REAL_TOL and lo <= r.real <= hi)


def _fsum(terms):
    """``math.fsum`` of an array, nan where fsum raises (overflow, inf - inf)."""
    try:
        return math.fsum(terms.ravel().tolist())
    except (OverflowError, ValueError):
        return math.nan


def _integrand(f_desc):
    """(F(x, t), F_infinity(x, t), kink): plain closures, elementwise on
    arrays (every kind has the recession function |t|), and kink(s) =
    (alpha, beta) when F(x, s / rho) rho has kinks at the roots of
    alpha rho(x) - beta, else (0, 0)."""
    kind = f_desc["kind"]
    if kind == "shifted-norm":
        a0, c = float(f_desc.get("A0", 0.3)), float(f_desc.get("c", 0.4))
    bases = {
        "norm": (abs, lambda s: (0.0, 0.0)),
        "area": (lambda t: np.sqrt(1.0 + t * t), lambda s: (0.0, 0.0)),
        "shifted-norm": (lambda t: abs(t - a0) + c, lambda s: (a0, s)),
        "w-shape": (lambda t: abs(abs(t) - 1.0), lambda s: (1.0, abs(s))),
    }
    if kind not in bases:
        raise ValueError(f"oracle does not know integrand kind {kind!r}")
    base, kink = bases[kind]
    if f_desc.get("modulated", False):
        return (lambda x, t: (1.0 + 0.5 * x) * base(t)), (lambda x, t: (1.0 + 0.5 * x) * abs(t)), kink
    return (lambda x, t: base(t)), (lambda x, t: abs(t)), kink


def oracle_1d(u_desc, mu_desc, f_desc, domain=(0.0, 1.0)):
    """Functional value integral F(x, dDu/dmu) dmu + recession term: the
    cell term by Gauss-Legendre quadrature on each smooth stretch, split at
    its kinks, plus the explicit ledger of jumps and atoms (atoms at one
    point are one atom, their weights summed, in first-occurrence order; a
    jump sees the summed weight of the atoms within ``_MATCH`` of it).

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

    F, F_inf, kink = _integrand(f_desc)

    bad = [a] if not np.polynomial.polynomial.polyval(a, coeffs) > 0.0 else _real_roots(coeffs, a, b)
    if bad:
        raise OracleError(f"the density of 'mu' is not positive at x = {bad[0]!r}")

    # pieces (lo, hi, slope): the smooth stretches between slope
    # breakpoints, each split at the kinks of its integrand
    edges = [a] + [t for t in breaks if a < t < b] + [b]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        slope = slopes[sum(0.5 * (lo + hi) >= t for t in breaks)]
        alpha, beta = kink(slope)  # a kink at an end leaves a piece of length 0
        cuts = [lo, *_real_roots([alpha * coeffs[0] - beta, *(alpha * c for c in coeffs[1:])], lo, hi), hi]
        pieces += [(p, q, slope) for p, q in zip(cuts[:-1], cuts[1:])]
    lo, hi, slope = (np.array(col)[:, None] for col in zip(*pieces))
    half = 0.5 * (hi - lo)

    def cell_term(n):
        t, w = _RULES[n]
        x = lo + half * (t + 1.0)
        dens = np.polynomial.polynomial.polyval(x, coeffs)
        return _fsum(F(x, slope / dens) * dens * (half * w))

    total = cell_term(2 * _NODES)
    gap = abs(cell_term(_NODES) - total)
    if not gap <= _RULE_TOL * abs(total):
        raise OracleError(
            f"the Gauss-Legendre cell term {total!r} is not finite or not certified: "
            f"the {_NODES}- and {2 * _NODES}-node sums differ by {gap!r}"
        )

    for pos, height in jumps:
        atom_w = sum(w for p, w in atoms.items() if abs(p - pos) <= _MATCH)
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
    also reject, or that would count twice: numbers that are not finite, an
    empty 'mu' poly, breakpoints not increasing strictly inside (a, b), jumps
    outside (a, b) or within ``_MATCH`` of each other, and atoms outside
    (a, b) or of negative weight."""
    entries = {"'u' breaks": u.get("breaks", []), "'u' slopes": u.get("slopes", []),
               "'u' jumps": u.get("jumps", []), "'mu' poly": mu.get("poly", []),
               "'mu' atoms": mu.get("atoms", []), "'F' A0": f.get("A0", 0), "'F' c": f.get("c", 0)}
    for name, value in entries.items():
        try:
            finite = np.isfinite(np.asarray(value, dtype=float)).all()
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise OracleError(f"{name} must be finite numbers, got {value!r}")
    if not np.size(mu.get("poly", [1.0])):
        raise OracleError(f"'mu' poly must list at least one coefficient, got {mu['poly']!r}")
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
    breakpoint interval, an empty or non-finite domain, an entry
    ``_check_entries`` rejects, a density that is not positive somewhere on
    the domain, a cell term the quadrature cannot certify or a malformed
    entry."""
    if not isinstance(case, dict) or not all(isinstance(case.get(k), dict) for k in ("u", "mu", "F")):
        raise OracleError("a case needs the objects 'u', 'mu' and 'F'")
    u, mu, f = case["u"], case["mu"], case["F"]
    breaks, slopes = u.get("breaks", []), u.get("slopes", [0.0])
    listed = isinstance(breaks, list) and isinstance(slopes, list)
    if not listed or len(slopes) != len(breaks) + 1:
        raise OracleError(f"'u' needs one slope per breakpoint interval: {breaks!r}, {slopes!r}")
    domain = case.get("domain", [0.0, 1.0])
    # compared exactly, NaN, +-inf and an int beyond the float range all fail
    numeric = isinstance(domain, list) and all(
        isinstance(t, (int, float)) and abs(t) <= _FLOAT_MAX for t in domain
    )
    if not (numeric and len(domain) == 2 and domain[0] < domain[1]):
        raise OracleError(f"'domain' must be an interval [a, b] with a < b, got {domain!r}")
    try:
        _check_entries(u, mu, f, float(domain[0]), float(domain[1]))
        return oracle_1d(u, mu, f, domain=domain)
    except OracleError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OracleError(f"malformed case: {type(exc).__name__}: {exc}") from None
