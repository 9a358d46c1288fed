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

from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from . import bv as bvmod
from .bv import boundary_trace, derivative
from .integrands import Integrand, recession_values
from .measures import (
    DecompositionError,
    ScalarRadonMeasure,
    area_functional,
    cell_part,
    charges_boundary,
    frobenius,
    matched_parts,
    measure_parts,
    pair_with_test_function,
    rn_decompose,
    singular_parts,
)

CHARGE_TOL = 1e-12  # a value at or below this charges nothing
LSC_TOL = 1e-6  # a margin below -LSC_TOL is flagged as a violation
WEAK_STAR_TOL = 0.05  # largest accepted test-field pairing gap at the last index
AREA_TOL = 0.05  # largest accepted area-functional gap at the last index


class FunctionalError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalSpec:
    """Integrand + reference measure (+ boundary-term flag); the domain is mu's.

    mu must not charge the boundary of its domain; structurally this means
    no point masses on it and no charged segments along it.
    """

    integrand: Integrand
    mu: ScalarRadonMeasure
    include_boundary: bool = False

    def __post_init__(self):
        if self.integrand.growth_M <= 0:
            raise FunctionalError("integrand must declare a positive upper growth constant")
        if charges_boundary(self.mu, 0.0):
            raise FunctionalError("mu must not charge the boundary")

    def without_boundary(self):
        return replace(self, include_boundary=False)


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
        return {**asdict(self), "total": self.total}


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
            np.dot(part.masses, F(part.points, dec.densities[part.key](part.points)))
        )
    singular = _singular_term(F, dec.remainder)

    boundary = 0.0
    if spec.include_boundary:
        boundary = boundary_term(u, F)
    return EvaluationBreakdown(ac["cells"], ac["atom"], ac["carrier"], singular, boundary)


def _singular_term(F, remainder):
    """integral F^inf(x, polar) d|remainder|; by positive 1-homogeneity this
    is the recession evaluated directly on the densities, with zero values
    contributing zero.  Only the carrier parts are read: a cell density of
    ``remainder`` is never looked at."""
    total = 0.0
    for part in singular_parts(remainder):
        total += float(np.dot(part.weights, charged_recession(F, part.points, part.values)))
    return total


def charged_recession(F, points, values):
    """F^inf(x, A) at the points where A is nonzero, 0 elsewhere."""
    out = np.zeros(len(points))
    charged = frobenius(values) > CHARGE_TOL
    if np.any(charged):  # rows taken by np.compress: a boolean mask index is slower
        out[charged] = recession_values(F, *(np.compress(charged, a, axis=0) for a in (points, values)))
    return out


def boundary_term(u, F):
    """integral over the boundary of F^inf(x, trace (x) inward normal),
    which equals |trace| F^inf(x, polar (x) normal) by 1-homogeneity;
    points with zero trace contribute zero."""
    pts, wts, normals = u.domain.boundary_rule()
    trace = np.asarray(boundary_trace(u)(pts))
    return float(np.dot(wts, charged_recession(F, pts, trace[:, :, None] * normals[:, None, :])))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def admissibility_check(u, mu):
    """Membership of u in the mu-Sobolev class: the derivative measure may
    only charge where mu does.  Structural, resolution-level check that
    also works for degenerate mu (density vanishing on open sets).  Du is
    read only at the cell nodes where mu's density is at most 0, which
    mu's own cell part keeps once its rule is the one mu was built on."""
    gamma = derivative(u)
    null = cell_part(mu, gamma.breaks).null_points
    if len(null) and np.any(frobenius(gamma.density_at(null)) > CHARGE_TOL):
        return False
    for g, m in matched_parts(singular_parts(gamma), singular_parts(mu)):
        mu_there = 0.0 if m is None else m.values
        if g is not None and np.any((frobenius(g.values) > CHARGE_TOL) & (mu_there <= 0.0)):
            return False
    return True


# ---------------------------------------------------------------------------
# Relaxation upper bounds
# ---------------------------------------------------------------------------


def geometric_js(jmax):
    """jmax halved (rounding down) while at least 2, in increasing order."""
    j = int(jmax)
    return tuple(j >> k for k in reversed(range(j.bit_length())) if j >> k >= 2)


def _tail_min(values):
    """Deterministic liminf surrogate: minimum over the last quarter of the
    computed index range."""
    k = max(1, len(values) // 4)
    return min(values[-k:])


@dataclass
class RelaxationResult:
    status: str  # "ok" | "no_admissible_sequence" | "not_decomposable"
    value: float | None
    best_id: str | None
    members: list  # (id, admissible, l1_gap, tail value or None)


def relaxation_upper_bound(u, spec, family, jmax=64, l1_tol=0.05):
    """Upper bound for the relaxed functional at u over an explicit family
    of candidate sequences; never claimed tight.

    Each family member is (id, builder j -> BVFunction); members whose
    elements fail admissibility, or that do not approach u in L^1 within
    ``l1_tol`` at the final index, are excluded.  With no surviving member,
    the documented "no admissible sequence" signal is returned, or
    "not_decomposable" when members survived but the decomposition against
    mu rejected each of them (they are listed with no value).

    A member's value is the tail minimum of its values, exact as their
    liminf only for values that approach from above or are constant: on
    values that rise to their limit, as along ramps to a jump, it can fall
    below the relaxed functional (ROADMAP item 21).
    """
    js = geometric_js(jmax)
    interior = spec.without_boundary()
    members = []
    best, status = None, "no_admissible_sequence"
    for fid, builder in family:
        elements = []
        admissible = True
        for j in js:
            uj = builder(j)
            if not admissibility_check(uj, spec.mu):
                admissible = False
                break
            elements.append(uj)
        l1_gap = elements[-1].l1_distance(u) if elements else np.inf  # at the last admissible index
        if not admissible or l1_gap > l1_tol:
            # evaluation is skipped entirely for excluded members, so a
            # degenerate mu never reaches the decomposition path
            members.append((fid, admissible, float(l1_gap), None))
            continue
        try:
            tail = _tail_min([evaluate(uj, interior).total for uj in elements])
        except DecompositionError:
            tail, status = None, "not_decomposable"
        members.append((fid, True, float(l1_gap), tail))
        if tail is not None and (best is None or tail < best[1]):
            best = (fid, tail)
    if best is None:
        return RelaxationResult(status, None, None, members)
    return RelaxationResult("ok", best[1], best[0], members)


# ---------------------------------------------------------------------------
# Lower-semicontinuity experiment
# ---------------------------------------------------------------------------


@dataclass
class LscReport:
    value_at_limit: float
    js: tuple
    values: tuple
    margin: float
    flags: list


def lsc_experiment(sequence, u, spec, js):
    """Per-index functional values along u_j = sequence(j) -> u over ``js``
    and the semicontinuity margin: (tail minimum of F(u_j)) - F(u).

    A margin below -LSC_TOL is flagged; for an integrand flagged
    not-quasiconvex it is the expected demonstration.  The tail minimum is
    exact as the liminf only for values that approach from above or are
    constant: values that rise to F(u), as for area along ramps of width
    1/j to a jump, are flagged "violation" although liminf F(u_j) = F(u)
    (ROADMAP item 21).
    """
    js = tuple(js)
    value_u = evaluate(u, spec).total
    values = [evaluate(sequence(j), spec).total for j in js]
    margin = _tail_min(values) - value_u
    flags = []
    if margin < -LSC_TOL:
        flags.append(
            "expected_violation"
            if spec.integrand.convexity == "not_quasiconvex"
            else "violation"
        )
    return LscReport(value_u, js, tuple(values), margin, flags)


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


def continuity_functional(gamma, f):
    """The functional that is continuous along area-strict sequences:
    f integrated against the volume-density of gamma plus f^inf against
    its singular parts."""
    cells = cell_part(gamma)
    total = float(np.dot(cells.weights, np.asarray(f(cells.points, cells.values))))
    return total + _singular_term(f, gamma)


def reshetnyak_experiment(gamma_seq, gamma, f, js):
    """Continuity of the two-term functional along the measure sequence
    gamma_seq(j), j in ``js``.

    Preamble: the sequence must converge weakly* (finite test-field
    dictionary surrogate) AND in the area functional; otherwise the
    experiment is rejected and no continuity claim is made.
    """
    js = tuple(js)
    last = gamma_seq(js[-1])  # the others are built one at a time, and only if accepted
    fields = bvmod.matrix_test_fields(gamma.domain, gamma.shape)
    ref_pairs = [pair_with_test_function(gamma, phi, check_boundary=False) for phi in fields]
    weak_gap = max(
        abs(pair_with_test_function(last, phi, check_boundary=False) - ref)
        for phi, ref in zip(fields, ref_pairs)
    )
    area_gap = abs(area_functional(last) - area_functional(gamma))
    if weak_gap > WEAK_STAR_TOL:
        return ContinuityReport(
            False, "weak* gap persists", weak_gap, area_gap, js, (), None, None
        )
    if area_gap > AREA_TOL:
        return ContinuityReport(
            False, "area-strictness fails", weak_gap, area_gap, js, (), None, None
        )
    ref_value = continuity_functional(gamma, f)
    gaps = tuple(abs(continuity_functional(g, f) - ref_value) for g in chain(map(gamma_seq, js[:-1]), [last]))
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
