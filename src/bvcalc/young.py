"""Generalized Young measures relative to a reference measure.

A triple (oscillation, concentration, concentration-direction): per-node
discrete probability measures on matrix space, a positive concentration
measure on the closed box, and per-node probability measures on the unit
sphere of matrix space.  Duality pairing against an integrand f uses f on
the oscillation part and the recession of f on the concentration part.

A field is a callable (key, points) -> (weights (M, K), atoms (M, K, N, n)):
``key`` names the structural part of the measure it is sampled on (None
for the cells, else the carrier id of a point mass or segment part), so
the elementary Young measure of a decomposed derivative is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bv import derivative, scalar_bumps
from .functional import CHARGE_TOL, charged_recession, order_fit
from .integrands import recession_values, upper_slope_values
from .measures import (
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    charges_boundary,
    frobenius,
    lebesgue,
    matched_parts,
    measure_distance,
    measure_parts,
    merge_breaks,
    part_densities,
    read_only,
    rn_decompose,
    singular_parts,
)

_PROB_TOL = 1e-12
JENSEN_TOL = 1e-8  # lhs above rhs + JENSEN_TOL marks a violating node
BARYCENTER_TOL = 1e-8  # barycenter-to-Du distance, relative to max(1, |u|_L1)


class YoungMeasureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Discrete fields: field(key, points) -> (weights, atoms)
# ---------------------------------------------------------------------------


def constant_field(atom_list):
    """x-independent field from [(matrix, weight), ...], each entry finite."""
    shape = np.shape(atom_list[0][0])
    atoms = np.stack([_as_floats(A, "an atom of 'field'").reshape(shape) for A, _ in atom_list])
    weights = np.array([_as_floats(p, "an atom weight of 'field'", ()) for _, p in atom_list])
    return lambda key, points: (
        np.repeat(weights[None], len(points), axis=0), np.repeat(atoms[None], len(points), axis=0)
    )


def _as_floats(value, what, shape=None):
    """``value`` as a finite float array (of ``shape`` when given), or a
    YoungMeasureError naming ``what``."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or (shape is not None and out.shape != shape):
        shaped = "" if shape is None else f" of shape {shape}"
        raise YoungMeasureError(f"{what} must be numeric{shaped}, got {value!r}")
    if not np.isfinite(out).all():
        raise YoungMeasureError(f"{what} must be finite, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# The Young measure triple
# ---------------------------------------------------------------------------


class GeneralizedYoungMeasure:
    """The triple (nu, lam, nu_inf) relative to ``reference_measure``.

    Immutable after construction: its quadrature parts and field values
    are computed once, on first use, and reused by every pairing.
    """

    def __init__(self, domain, dims, nu, lam, nu_inf, reference_measure, breaks=None,
                 validate=True):
        self.domain = domain
        self.dims = tuple(dims)
        self.nu = nu
        self.lam = lam
        self.nu_inf = nu_inf
        self.reference_measure = reference_measure
        self.breaks = breaks
        if validate:
            self.validate()

    # Parts and field values are independent of the integrand and of any
    # localisation, so each is computed once per Young measure; the arrays
    # are read-only so that a caller cannot change them for later pairings.

    @cached_property
    def reference_parts(self):
        return _read_only_parts(measure_parts(self.reference_measure, extra_breaks=self.breaks))

    @cached_property
    def concentration_parts(self):
        return _read_only_parts(measure_parts(self.lam))

    @cached_property
    def oscillation_values(self):
        """(part, w, A) of ``nu`` on every non-empty reference part."""
        return [
            (part, *read_only(*self.nu(part.key, part.points)))
            for part in self.reference_parts
            if len(part.points)
        ]

    @cached_property
    def sphere_values(self):
        """(part, w, S) of ``nu_inf`` on every charged concentration part."""
        if self.nu_inf is None:
            return []
        return [
            (part, *read_only(*self.nu_inf(part.key, part.points)))
            for part in self.concentration_parts
            if len(part.points) and np.max(np.abs(part.masses)) > CHARGE_TOL
        ]

    def validate(self):
        for _, w, _ in self.oscillation_values:
            if np.max(np.abs(np.sum(w, axis=1) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("oscillation weights must sum to 1 at every node")
            if np.any(w < -_PROB_TOL):
                raise YoungMeasureError("oscillation weights must be nonnegative")
        for _, w, S in self.sphere_values:
            if np.max(np.abs(np.sum(w, axis=1) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("sphere weights must sum to 1")
            if np.max(np.abs(frobenius(S) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("sphere atoms must have unit norm")
        # finite first moment of the oscillation part
        total = 0.0
        for part, w, A in self.oscillation_values:
            total += float(np.dot(part.masses, np.sum(w * frobenius(A), axis=1)))
        if not np.isfinite(total):
            raise YoungMeasureError("oscillation part has infinite first moment")
        return True


def _read_only_parts(parts):
    for part in parts:
        read_only(part.points, part.weights, part.masses)
    return parts


# ---------------------------------------------------------------------------
# Elementary Young measure
# ---------------------------------------------------------------------------


def elementary(gamma, mu):
    """The Young measure of a single measure: Diracs at its mu-density,
    concentration measure = total variation of the mu-singular remainder,
    sphere Diracs at the remainder's polar."""
    dec = rn_decompose(gamma, mu)
    rem = dec.remainder
    rem_densities = part_densities(rem)

    def oscillation(key, points):  # Dirac at the mu-density
        return np.ones((len(points), 1)), dec.densities[key](points)[:, None, :, :]

    def polar(key, points):  # Dirac at the unit-norm direction of the remainder
        vals = np.asarray(rem_densities[key](points))
        mags = frobenius(vals)
        safe = np.where(mags > CHARGE_TOL, mags, 1.0)
        return np.ones((len(points), 1)), (vals / safe[:, None, None])[:, None, :, :]

    lam_parts = [(cid, lambda pts, _f=fn: frobenius(_f(pts))) for cid, fn in rem.carrier_parts]
    lam = ScalarRadonMeasure(
        gamma.domain,
        density=None,
        carrier_parts=tuple(lam_parts),
        registry=gamma.registry,
        breaks=gamma.breaks,
    )
    return GeneralizedYoungMeasure(
        gamma.domain,
        gamma.shape,
        oscillation,
        lam,
        polar,
        reference_measure=mu,
        breaks=merge_breaks(gamma.domain.dim, gamma.breaks, mu.breaks),
    )


# ---------------------------------------------------------------------------
# Pairing and barycenter
# ---------------------------------------------------------------------------


def _field_pair(f, w, A, points, sphere=False, upper=False):
    """sum_k w_k f(x, A_k) at the given points, from a field's weights
    ``w`` (M, K) and atoms ``A`` (M, K, N, n) there (recession of f when
    ``sphere``; with ``upper`` too, the upper asymptotic slope of an f
    without analytic recession)."""
    out = np.zeros(len(points))
    for k in range(w.shape[1]):
        active = w[:, k] > 0 if sphere else np.abs(w[:, k]) > 0
        if not np.any(active):
            continue
        active = slice(None) if active.all() else active  # all active: no gather by mask
        xk, Ak = points[active], A[active, k]
        if sphere:
            vals = upper_slope_values(f, xk, Ak) if upper else recession_values(f, xk, Ak)
        else:
            vals = np.asarray(f(xk, Ak))
        out[active] += w[active, k] * vals
    return out


def pairings(integrands, nu, localizations):
    """Duality pairings: ``out[fi][pi]`` integrates <f(x, .), nu_x> against
    the reference measure and <f^inf(x, .), nu_inf_x> against the
    concentration measure, f = ``integrands[fi]``, both times the cut-off
    ``localizations[pi]`` (None: none).  Each part's field values are
    paired once for every cut-off, and each sum adds the parts in order."""
    totals = [[0.0] * len(localizations) for _ in integrands]
    for values, sphere in ((nu.oscillation_values, False), (nu.sphere_values, True)):
        for part, w, A in values:
            vals = [_field_pair(f, w, A, part.points, sphere=sphere) for f in integrands]
            for pi, phi in enumerate(localizations):
                masses = part.masses
                if phi is not None:
                    masses = masses * np.asarray(phi(part.points))
                for fi, v in enumerate(vals):
                    totals[fi][pi] += float(np.dot(masses, v))
    return totals


def pairing(f, nu):
    """The unlocalized pairing ``pairings([f], nu, [None])[0][0]``."""
    return pairings([f], nu, [None])[0][0]


def barycenter(nu):
    """The measure mean(nu_x) mu + mean(nu_inf_x) lambda as a structured
    matrix measure: on each part key of mu and lambda (cells, carrier id),
    the sum of mean(field) x density over the fields there."""
    mu, lam = nu.reference_measure, nu.lam
    terms = {key: [(nu.nu, fn)] for key, fn in part_densities(mu).items()}  # [(field, density)]
    if nu.nu_inf is not None:
        lam_fns = part_densities(lam)
        if not np.any(np.abs(nu.concentration_parts[0].masses) > CHARGE_TOL):
            del lam_fns[None]  # lambda's cells charge nothing
        for key, fn in lam_fns.items():
            terms.setdefault(key, []).append((nu.nu_inf, fn))

    def on(key):
        def density(pts):
            return sum(
                np.einsum("mk,mkij->mij", *field(key, pts)) * np.asarray(fn(pts))[:, None, None]
                for field, fn in terms[key]
            )

        return density

    return MatrixRadonMeasure(
        mu.domain,
        nu.dims,
        density=on(None),
        carrier_parts=tuple((key, on(key)) for key in terms if key is not None),
        registry=mu.registry if mu.registry is not None else lam.registry,
        breaks=merge_breaks(mu.domain.dim, mu.breaks, lam.breaks, nu.breaks),
    )


# ---------------------------------------------------------------------------
# Empirical generation check
# ---------------------------------------------------------------------------


@dataclass
class GenerationReport:
    js: tuple
    per_probe: dict  # (f label, phi index) -> gaps per j
    final_gap: float  # max over probes at the final index, normalized
    orders: dict  # f label -> fitted order in 1/j (None if gap ~ 0)


def empirical_generation_check(sequence, mu, candidate, test_integrands, js, per_axis=12):
    """Compare pairings of the elementary Young measures of Du_j with a
    candidate limit triple, over a dictionary of integrands and cut-off
    localizations; reports per-probe gaps and fitted decay orders."""
    localizations = scalar_bumps(candidate.domain, per_axis=per_axis)
    js = tuple(js)
    refs = pairings(test_integrands, candidate, localizations)
    per_probe = {}
    for j in js:
        emp = pairings(test_integrands, elementary(derivative(sequence(j)), mu), localizations)
        for fi, (emp_f, ref_f) in enumerate(zip(emp, refs)):
            for pi, (e, r) in enumerate(zip(emp_f, ref_f)):
                per_probe.setdefault((fi, pi), []).append(abs(e - r) / max(1.0, abs(r)))
    final_gap = max(gaps[-1] for gaps in per_probe.values())
    orders = {}
    for fi, f in enumerate(test_integrands):
        fitted = [order_fit(js, per_probe[(fi, pi)], 1e-11, 3) for pi in range(len(localizations))]
        fitted = [o for o in fitted if o is not None]
        orders[f.name] = min(fitted, default=None)
    return GenerationReport(js, per_probe, final_gap, orders)


# ---------------------------------------------------------------------------
# Jensen-inequality checks
# ---------------------------------------------------------------------------


@dataclass
class JensenReport:
    ac_violations: list  # (point, lhs, rhs)
    singular_violations: list
    nodes_checked: int

    @property
    def ok(self):
        return not self.ac_violations and not self.singular_violations


def _check_barycenter(u, nu):
    gap = measure_distance(barycenter(nu), derivative(u))
    if gap > BARYCENTER_TOL * max(1.0, u.l1_norm()):
        raise YoungMeasureError(
            f"candidate barycenter differs from the derivative measure ({gap:.2e})"
        )


def _jensen_core(F, u, nu, mu, upper_slope):
    if charges_boundary(nu.lam, nu.domain, CHARGE_TOL):
        raise YoungMeasureError("concentration measure charges the boundary")
    _check_barycenter(u, nu)
    dec_u = rn_decompose(derivative(u), mu)
    dec_lam = rn_decompose(nu.lam, mu)
    report = JensenReport([], [], 0)

    def check(part, lhs, rhs, dlam, violations):
        """Flag the nodes of ``part`` where lhs exceeds rhs plus the
        concentration term, ``dlam`` being the lambda density there."""
        pts = part.points
        charged = dlam > CHARGE_TOL
        if np.any(charged) and nu.nu_inf is not None:
            rhs = rhs.copy()
            w, S = nu.nu_inf(part.key, pts[charged])
            rhs[charged] += (
                _field_pair(F, w, S, pts[charged], sphere=True, upper=upper_slope)
                * dlam[charged]
            )
        report.nodes_checked += len(pts)
        for m in np.nonzero(lhs > rhs + JENSEN_TOL)[0]:
            violations.append((tuple(pts[m]), float(lhs[m]), float(rhs[m])))

    for part in measure_parts(mu, extra_breaks=nu.breaks):
        pts = part.points
        if len(pts):
            lhs = np.asarray(F(pts, dec_u.densities[part.key](pts)))
            rhs = _field_pair(F, *nu.nu(part.key, pts), pts)
            check(part, lhs, rhs, np.asarray(dec_lam.densities[part.key](pts)), report.ac_violations)

    # the mu-singular parts of Du (the carrier parts of its remainder)
    # against the lambda density on the same carrier, zero where lambda's
    # remainder has none
    lam_parts = singular_parts(dec_lam.remainder)
    for part, lam in matched_parts(singular_parts(dec_u.remainder), lam_parts):
        if part is not None:
            zeros = np.zeros(len(part.points))
            dlam = zeros if lam is None else lam.values
            lhs = charged_recession(F, part.points, part.values)
            check(part, lhs, zeros, dlam, report.singular_violations)
    return report


def jensen_check_mu(F, u, nu, mu):
    """Jensen inequalities relative to mu for a nonnegative quasiconvex
    integrand: pointwise at every mu node and density-wise on the
    mu-singular carriers.  Violating nodes are listed, not raised: for an
    integrand that is not quasiconvex they are the expected outcome."""
    return _jensen_core(F, u, nu, mu, upper_slope=False)


def jensen_check_lebesgue(F, u, nu):
    """Jensen inequalities relative to the volume measure, with the upper
    asymptotic slope in place of the recession function."""
    return _jensen_core(F, u, nu, lebesgue(u.domain, u.registry), upper_slope=True)
