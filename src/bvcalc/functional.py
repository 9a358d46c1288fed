"""Evaluation of linear-growth functionals against a reference measure.

The core object is the two-term representation

    integral F(x, dDu/dmu) dmu
      + integral F^inf(x, polar of the mu-singular part) d|singular part|,

optionally plus the boundary term integral F^inf(x, u/|u| (x) nu) |u| dH^{n-1}
over the boundary with inward normal nu.  On top of it: admissibility in
the measure-Sobolev class (Du absolutely continuous w.r.t. mu), relaxation
upper bounds over explicit candidate families, lower-semicontinuity
experiments, and the continuity experiment for area-strictly converging
measure sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bv as bvmod
from .bv import boundary_trace, derivative, smooth_selected_jumps
from .integrands import Integrand, RecessionError, recession_values
from .measures import (
    DecompositionError,
    ScalarRadonMeasure,
    area_functional,
    measure_parts,
    merge_breaks,
    pair_with_test_function,
    rn_decompose,
    total_variation,
)

_ZTOL = 1e-12


class FunctionalError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalSpec:
    """Integrand + reference measure + domain (+ boundary-term flag).

    The reference measure must not charge the boundary; structurally this
    means no atoms on it and no carrier segments lying along it.
    """

    integrand: Integrand
    mu: ScalarRadonMeasure
    domain: object
    include_boundary: bool = False

    def __post_init__(self):
        if self.integrand.growth_M <= 0:
            raise FunctionalError("integrand must declare a positive upper growth constant")
        for p, w in self.mu.atoms:
            if w > 0 and not self.domain.strictly_contains(p):
                raise FunctionalError("mu must not charge the boundary (atom on it)")
        for cid, _ in self.mu.carrier_parts:
            carrier = self.mu.carrier(cid)
            if carrier.kind == "segment":
                mid = 0.5 * (
                    np.asarray(carrier.endpoints[0]) + np.asarray(carrier.endpoints[1])
                )
                if not self.domain.strictly_contains(mid):
                    raise FunctionalError("mu carrier lies along the boundary")
            elif not self.domain.strictly_contains(np.asarray(carrier.point)):
                raise FunctionalError("mu must not charge the boundary (carrier on it)")

    def without_boundary(self):
        return FunctionalSpec(self.integrand, self.mu, self.domain, include_boundary=False)


@dataclass
class EvaluationBreakdown:
    ac_cells: float
    ac_atoms: float
    ac_carriers: float
    singular: float
    boundary: float

    @property
    def interior(self):
        return self.ac_cells + self.ac_atoms + self.ac_carriers + self.singular

    @property
    def total(self):
        return self.interior + self.boundary

    def as_dict(self):
        return {
            "ac_cells": self.ac_cells,
            "ac_atoms": self.ac_atoms,
            "ac_carriers": self.ac_carriers,
            "singular": self.singular,
            "boundary": self.boundary,
            "total": self.total,
        }


def evaluate(u, spec):
    """Two-term (plus boundary) value of the functional at u, with the
    per-part breakdown.  Decomposition and recession failures propagate."""
    F = spec.integrand
    mu = spec.mu
    gamma = derivative(u)
    dec = rn_decompose(gamma, mu)

    ac = {"cells": 0.0, "atom": 0.0, "carrier": 0.0}
    for part in measure_parts(mu, extra_breaks=gamma.breaks):
        ac[part.kind] += float(
            np.dot(part.masses, F(part.points, dec.density_on(part, part.points)))
        )
    singular = _singular_term(F, dec.remainder, u.domain)

    boundary = 0.0
    if spec.include_boundary:
        boundary = boundary_term(u, F)
    return EvaluationBreakdown(ac["cells"], ac["atom"], ac["carrier"], singular, boundary)


def _singular_term(F, remainder, domain):
    """integral F^inf(x, polar) d|remainder|; by positive 1-homogeneity this
    is the recession evaluated directly on the densities, with zero values
    contributing zero.  Only the carrier and atom parts are read: a cell
    density of ``remainder`` is never looked at."""
    total = 0.0
    for cid, fn in remainder.carrier_parts:
        pts, wts = remainder.carrier(cid).rule(domain.resolution)
        vals = np.asarray(fn(pts))
        mags = np.sqrt(np.sum(vals * vals, axis=(1, 2)))
        out = np.zeros(len(pts))
        charged = mags > _ZTOL
        if np.any(charged):
            out[charged] = recession_values(F, pts[charged], vals[charged])
        total += float(np.dot(wts, out))
    for p, v in remainder.atoms:
        if np.linalg.norm(v) > _ZTOL:
            total += recession_values(F, p[None, :], v[None])[0]
    return total


def boundary_term(u, F):
    """integral over the boundary of F^inf(x, trace (x) inward normal),
    which equals |trace| F^inf(x, polar (x) normal) by 1-homogeneity;
    points with zero trace contribute zero."""
    pts, wts, normals = u.domain.boundary_rule()
    trace = np.asarray(boundary_trace(u)(pts))
    tensors = trace[:, :, None] * normals[:, None, :]
    mags = np.linalg.norm(trace, axis=1)
    vals = np.zeros(len(pts))
    charged = mags > _ZTOL
    if np.any(charged):
        vals[charged] = recession_values(F, pts[charged], tensors[charged])
    return float(np.dot(wts, vals))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def admissibility_check(u, mu):
    """Membership of u in the mu-Sobolev class: the derivative measure may
    only charge where mu does.  Structural, resolution-level check that
    also works for degenerate mu (density vanishing on open sets)."""
    gamma = derivative(u)
    breaks = merge_breaks(u.domain.dim, gamma.breaks, mu.breaks)
    nodes, _ = u.domain.cell_rule(breaks=breaks)
    gmag = np.sqrt(np.sum(gamma.density_at(nodes) ** 2, axis=(1, 2)))
    a = np.asarray(mu.density_at(nodes))
    if np.any((gmag > _ZTOL) & (a <= 0.0)):
        return False
    mu_parts = dict(mu.carrier_parts)
    for cid, gfn in gamma.carrier_parts:
        pts, _ = gamma.carrier(cid).rule(u.domain.resolution)
        gm = np.sqrt(np.sum(np.asarray(gfn(pts)) ** 2, axis=(1, 2)))
        if not np.any(gm > _ZTOL):
            continue
        if cid not in mu_parts:
            return False
        mv = np.asarray(mu_parts[cid](pts))
        if np.any((gm > _ZTOL) & (mv <= 0.0)):
            return False
    for p, v in gamma.atoms:
        if np.linalg.norm(v) <= _ZTOL:
            continue
        matched = any(
            w > 0 and np.linalg.norm(p - q) <= 1e-12 for q, w in mu.atoms
        )
        if not matched:
            return False
    return True


# ---------------------------------------------------------------------------
# Relaxation upper bounds
# ---------------------------------------------------------------------------


def geometric_js(jmax, jmin=2):
    js = []
    j = int(jmax)
    while j >= jmin:
        js.append(j)
        j //= 2
    return tuple(sorted(set(js)))


def _tail_min(values):
    """Deterministic liminf surrogate: minimum over the last quarter of the
    computed index range."""
    k = max(1, len(values) // 4)
    return min(values[-k:])


@dataclass
class RelaxationResult:
    status: str  # "ok" | "no_admissible_sequence"
    value: float | None
    best_id: str | None
    members: list  # (id, admissible, l1_gap, tail value or None)


def relaxation_upper_bound(u, spec, family, jmax=64, l1_tol=0.05):
    """Upper bound for the relaxed functional at u over an explicit family
    of candidate sequences; never claimed tight.

    Each family member is (id, builder j -> BVFunction); members whose
    elements fail admissibility, or that do not approach u in L^1 within
    ``l1_tol`` at the final index, are excluded.  With no surviving member,
    the documented "no admissible sequence" signal is returned.
    """
    js = geometric_js(jmax)
    interior = spec.without_boundary()
    members = []
    best = None
    for fid, builder in family:
        elements = []
        admissible = True
        l1_gap = np.inf
        for j in js:
            uj = builder(j)
            if not admissibility_check(uj, spec.mu):
                admissible = False
                break
            elements.append(uj)
            l1_gap = uj.l1_distance(u)
        if not admissible or l1_gap > l1_tol:
            # evaluation is skipped entirely for excluded members, so a
            # degenerate mu never reaches the decomposition path
            members.append((fid, admissible, float(l1_gap), None))
            continue
        values = [evaluate(uj, interior).total for uj in elements]
        tail = _tail_min(values)
        members.append((fid, True, float(l1_gap), tail))
        if best is None or tail < best[1]:
            best = (fid, tail)
    if best is None:
        return RelaxationResult("no_admissible_sequence", None, None, members)
    return RelaxationResult("ok", best[1], best[0], members)


def mollify_in_small_set(u, spec, region, j):
    """Candidate sequence element: u outside ``region``, smooth transition
    inside.  All mu-singular jump parts of u must sit inside the region;
    the result is admissible whenever mu's density covers it."""
    gamma = derivative(u)
    dec = rn_decompose(gamma, spec.mu)
    region = np.asarray(region, dtype=float).reshape(-1, 2)
    for p, v in dec.remainder.atoms:
        if np.linalg.norm(v) > _ZTOL and not _inside(p, region):
            raise FunctionalError("singular part not concentrated in the given region")
    for cid, fn in dec.remainder.carrier_parts:
        pts, _ = dec.remainder.carrier(cid).rule(u.domain.resolution)
        mags = np.sqrt(np.sum(np.asarray(fn(pts)) ** 2, axis=(1, 2)))
        if np.any(mags > _ZTOL) and not np.all(
            [_inside(p, region) for p in pts[mags > _ZTOL]]
        ):
            raise FunctionalError("singular part not concentrated in the given region")
    if not u.jumps:
        return u
    if u.domain.dim != 1:
        raise bvmod.CatalogError("mollification catalog covers 1D profiles only")
    widths = {}
    for t, d in u.structure.get("jumps", ()):
        if _inside(np.array([t]), region):
            lo, hi = region[0]
            room = 2.0 * min(t - lo, hi - t)
            if room <= 0:
                raise FunctionalError("jump sits on the region boundary")
            widths[t] = min(1.0 / (2 * j), 0.5 * room)
    return smooth_selected_jumps(u, widths)


def _inside(point, region):
    return all(lo <= point[k] <= hi for k, (lo, hi) in enumerate(region))


# ---------------------------------------------------------------------------
# Lower-semicontinuity experiment
# ---------------------------------------------------------------------------


@dataclass
class LscReport:
    value_at_limit: float
    js: tuple
    values: tuple
    liminf_estimate: float
    margin: float
    flags: list

    def as_dict(self):
        return {
            "F_u": self.value_at_limit,
            "per_j": [{"j": j, "value": v} for j, v in zip(self.js, self.values)],
            "liminf": self.liminf_estimate,
            "margin": self.margin,
            "flags": self.flags,
        }


def lsc_experiment(sequence, u, spec, js=None, tol=1e-6):
    """Per-index functional values along u_j -> u and the semicontinuity
    margin: (tail minimum of F(u_j)) - F(u).

    A margin below -tol is flagged; for an integrand that is quasiconvex
    (in particular convex) this is a genuine violation, for one flagged
    not-quasiconvex it is the expected demonstration.
    """
    js = tuple(js) if js is not None else tuple(range(1, len(sequence) + 1))
    value_u = evaluate(u, spec).total
    values = []
    for k, j in enumerate(js):
        uj = sequence(j) if callable(sequence) else sequence[k]
        values.append(evaluate(uj, spec).total)
    liminf = _tail_min(values)
    margin = liminf - value_u
    flags = []
    if margin < -tol:
        flags.append(
            "expected_violation"
            if spec.integrand.convexity == "not_quasiconvex"
            else "violation"
        )
    return LscReport(value_u, js, tuple(values), liminf, margin, flags)


# ---------------------------------------------------------------------------
# Continuity experiment for area-strict convergence
# ---------------------------------------------------------------------------


@dataclass
class ContinuityReport:
    accepted: bool
    reject_reason: str | None
    weak_star_gap: float
    area_gap: float
    js: tuple
    gaps: tuple
    final_gap: float | None
    order: float | None

    def as_dict(self):
        return {
            "accepted": self.accepted,
            "reject_reason": self.reject_reason,
            "weak_star_gap": self.weak_star_gap,
            "area_gap": self.area_gap,
            "per_j": [{"j": j, "gap": g} for j, g in zip(self.js, self.gaps)],
            "final_gap": self.final_gap,
            "order": self.order,
        }


def continuity_functional(gamma, f):
    """The functional that is continuous along area-strict sequences:
    f integrated against the volume-density of gamma plus f^inf against
    its singular parts."""
    nodes, weights = gamma.domain.cell_rule(breaks=gamma.breaks)
    total = float(np.dot(weights, np.asarray(f(nodes, gamma.density_at(nodes)))))
    return total + _singular_term(f, gamma, gamma.domain)


def reshetnyak_experiment(
    gamma_seq,
    gamma,
    f,
    js=None,
    weak_star_tol=0.05,
    area_tol=0.05,
    test_fields=None,
):
    """Continuity of the two-term functional along a measure sequence.

    Preamble: the sequence must converge weakly* (finite test-field
    dictionary surrogate) AND in the area functional; otherwise the
    experiment is rejected and no continuity claim is made.
    """
    js = tuple(js) if js is not None else tuple(range(1, len(gamma_seq) + 1))
    seq = [gamma_seq(j) if callable(gamma_seq) else gamma_seq[k] for k, j in enumerate(js)]
    fields = (
        test_fields
        if test_fields is not None
        else bvmod.matrix_test_fields(gamma.domain, gamma.shape, per_axis=3)
    )
    ref_pairs = [pair_with_test_function(gamma, phi, check_boundary=False) for phi in fields]
    last = seq[-1]
    weak_gap = max(
        abs(pair_with_test_function(last, phi, check_boundary=False) - ref)
        for phi, ref in zip(fields, ref_pairs)
    )
    area_gap = abs(area_functional(seq[-1]) - area_functional(gamma))
    if weak_gap > weak_star_tol:
        return ContinuityReport(
            False, "weak* gap persists", weak_gap, area_gap, js, (), None, None
        )
    if area_gap > area_tol:
        return ContinuityReport(
            False, "area-strictness fails", weak_gap, area_gap, js, (), None, None
        )
    ref_value = continuity_functional(gamma, f)
    gaps = tuple(abs(continuity_functional(g, f) - ref_value) for g in seq)
    order = order_fit(js, gaps, 1e-13, 2)
    return ContinuityReport(True, None, weak_gap, area_gap, js, gaps, gaps[-1], order)


def order_fit(js, gaps, floor, min_points):
    """Least-squares slope of log(gap) against log(1/j) over the indices
    whose gap exceeds ``floor``; None with fewer than ``min_points`` of them."""
    pts = [(j, g) for j, g in zip(js, gaps) if g > floor]
    if len(pts) < min_points:
        return None
    lx = np.log([1.0 / j for j, _ in pts])
    ly = np.log([g for _, g in pts])
    return float(np.polyfit(lx, ly, 1)[0])
