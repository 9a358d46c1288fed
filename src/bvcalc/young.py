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

Each input is given once: the shape (N, n) is that of the field's atoms,
and the checks below read the reference measure mu from the Young measure.
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
    """The triple (nu, lam, nu_inf) relative to ``reference_measure``, on its domain.

    Immutable after construction: its quadrature parts and field values
    are computed once, on first use, and reused by every pairing.
    """

    def __init__(self, nu, lam, nu_inf, reference_measure, breaks=None, validate=True):
        if lam.domain != reference_measure.domain:
            raise YoungMeasureError("concentration measure must live on the reference measure's domain")
        self.domain = reference_measure.domain
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
        """(part, w, S) of ``nu_inf`` on every charged concentration part;
        a lambda without a cell density charges no cell, so its cell part is
        not built."""
        if self.nu_inf is None:
            return []
        no_cells = self.lam.density is None
        parts = _read_only_parts(singular_parts(self.lam)) if no_cells else self.concentration_parts
        return [
            (part, *read_only(*self.nu_inf(part.key, part.points)))
            for part in parts
            if len(part.points) and np.max(np.abs(part.masses)) > CHARGE_TOL
        ]

    def validate(self):
        """Probability weights (a Dirac field's are so by construction), unit
        sphere atoms and a finite first moment of the oscillation part."""
        for _, w, _ in self.oscillation_values:
            if _is_dirac(w):
                continue
            if np.max(np.abs(np.sum(w, axis=1) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("oscillation weights must sum to 1 at every node")
            if np.any(w < -_PROB_TOL):
                raise YoungMeasureError("oscillation weights must be nonnegative")
        for _, w, S in self.sphere_values:
            if not _is_dirac(w) and np.max(np.abs(np.sum(w, axis=1) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("sphere weights must sum to 1")
            if np.max(np.abs(frobenius(S) - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("sphere atoms must have unit norm")
        total = 0.0
        for part, w, A in self.oscillation_values:
            moments = frobenius(A[:, 0]) if _is_dirac(w) else np.sum(w * frobenius(A), axis=1)
            total += float(np.dot(part.masses, moments))
        if not np.isfinite(total):
            raise YoungMeasureError("oscillation part has infinite first moment")
        return True


def _read_only_parts(parts):
    for part in parts:
        read_only(part.points, part.weights)
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
        return _dirac(dec.densities[key](points))

    def polar(key, points):  # Dirac at the unit-norm direction of the remainder
        vals = np.asarray(rem_densities[key](points))
        mags = frobenius(vals)
        safe = np.where(mags > CHARGE_TOL, mags, 1.0)
        return _dirac(vals / safe[:, None, None])

    lam_parts = [(cid, lambda pts, _f=fn: frobenius(_f(pts))) for cid, fn in rem.carrier_parts]
    lam = ScalarRadonMeasure(
        gamma.domain,
        density=None,
        carrier_parts=tuple(lam_parts),
        registry=gamma.registry,
        breaks=gamma.breaks,
    )
    return GeneralizedYoungMeasure(oscillation, lam, polar, reference_measure=mu, breaks=gamma.breaks)


# ---------------------------------------------------------------------------
# Pairing and barycenter
# ---------------------------------------------------------------------------


def _dirac(atoms):
    """A field's values with one atom, of weight exactly 1, at each of the
    nodes of ``atoms`` (M, N, n): the weights (M, 1) are one read-only
    value of stride 0, which is how :func:`_is_dirac` knows them."""
    return np.broadcast_to(1.0, (len(atoms), 1)), atoms[:, None, :, :]


def _is_dirac(w):
    """Whether the weights ``w`` (M, K) are those of :func:`_dirac`: one
    column of stride 0 holding exactly 1, known without a pass over them."""
    return w.shape[1] == 1 and len(w) > 0 and w.strides[0] == 0 and w[0, 0] == 1.0


def _field_pair(f, w, A, points, sphere=False, upper=False):
    """sum_k w_k f(x, A_k) at the given points, from a field's weights
    ``w`` (M, K) and atoms ``A`` (M, K, N, n) there (recession of f when
    ``sphere``; with ``upper`` too, the upper asymptotic slope of an f
    without analytic recession).  A Dirac field (:func:`_dirac`) is one
    call of f, with the bits of the weighted sum: 0.0 + 1.0 * value."""
    if _is_dirac(w):
        return 0.0 + _atom_values(f, points, A[:, 0], sphere, upper)
    out = np.zeros(len(points))
    for k in range(w.shape[1]):
        active = w[:, k] > 0 if sphere else np.abs(w[:, k]) > 0
        if not np.any(active):
            continue
        active = slice(None) if active.all() else active  # all active: no gather by mask
        xk = points[active]
        out[active] += w[active, k] * _atom_values(f, xk, A[active, k], sphere, upper)
    return out


def _atom_values(f, x, A, sphere, upper):
    """f, its recession (``sphere``) or upper slope (``upper`` too) at the
    pairs (x, A)."""
    if sphere:
        return upper_slope_values(f, x, A) if upper else recession_values(f, x, A)
    return np.asarray(f(x, A))


def pairings(integrands, nu, localizations):
    """Duality pairings: ``out[fi][pi]`` integrates <f(x, .), nu_x> against
    the reference measure and <f^inf(x, .), nu_inf_x> against the
    concentration measure, f = ``integrands[fi]``, both times the cut-off
    ``localizations[pi]`` (None: none).  Each part's field values are
    paired once for every cut-off: one ``np.vecdot`` of the part's (F, M)
    integrand values with its (P, M) localized masses, a BLAS ``ddot`` per
    pair as ``np.dot`` takes on two vectors, so each sum keeps the bits of
    a pairing taken on its own; the parts are added in order."""
    totals = np.zeros((len(integrands), len(localizations)))
    if not totals.size:
        return totals.tolist()
    for values, sphere in ((nu.oscillation_values, False), (nu.sphere_values, True)):
        for part, w, A in values:
            vals = np.stack([_field_pair(f, w, A, part.points, sphere=sphere) for f in integrands])
            masses = np.stack([
                part.masses if phi is None else part.masses * np.asarray(phi(part.points))
                for phi in localizations
            ])
            totals += np.vecdot(vals[:, None, :], masses)
    return totals.tolist()


def pairing(f, nu):
    """The unlocalized pairing ``pairings([f], nu, [None])[0][0]``."""
    return pairings([f], nu, [None])[0][0]


def barycenter(nu):
    """The measure mean(nu_x) mu + mean(nu_inf_x) lambda as a structured
    matrix measure: on each part key of mu and lambda (cells, carrier id),
    the sum of mean(field) x density over the fields there.  Its shape is
    that of the atoms sampled on mu's cells."""
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
        nu.oscillation_values[0][2].shape[2:],  # (M, K, N, n) atoms on the cells
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


def _once_per_array(phi):
    """``phi`` remembering its values on the last node array it was given,
    returned again while that same (read-only) array is asked for."""
    last = [None, None]

    def memo(points):
        if points is not last[0]:
            last[:] = points, np.asarray(phi(points))
        return last[1]

    return memo


def empirical_generation_check(sequence, candidate, test_integrands, js, per_axis=12):
    """Compare pairings of the elementary Young measures of Du_j relative to
    the candidate's reference measure with the candidate limit triple, over
    a dictionary of integrands and cut-off localizations; reports per-probe
    gaps and fitted decay orders.  Each cut-off is evaluated once per node
    array: grid-aligned breaks give every j the cells of the candidate."""
    localizations = [_once_per_array(phi) for phi in scalar_bumps(candidate.domain, per_axis=per_axis)]
    js = tuple(js)
    refs = np.array(pairings(test_integrands, candidate, localizations))
    emp = np.array([
        pairings(test_integrands, elementary(derivative(sequence(j)), candidate.reference_measure), localizations)
        for j in js
    ])
    gaps = np.abs(emp - refs) / np.maximum(1.0, np.abs(refs))  # (j, f, phi)
    per_probe = {
        (fi, pi): gaps[:, fi, pi].tolist() for fi in range(len(test_integrands)) for pi in range(len(localizations))
    }
    final_gap = float(np.max(gaps[-1]))
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

    @property
    def ok(self):
        return not self.ac_violations and not self.singular_violations


def _jensen_core(integrands, u, nu, upper_slope):
    """One report per integrand of ``integrands``, from one pass: the
    boundary and barycenter checks, both decompositions, the density reads
    and the sphere field values are taken once for all of them."""
    if charges_boundary(nu.lam, CHARGE_TOL):
        raise YoungMeasureError("concentration measure charges the boundary")
    du = derivative(u)
    gap = measure_distance(barycenter(nu), du)
    if gap > BARYCENTER_TOL * max(1.0, u.l1_norm()):
        raise YoungMeasureError(f"candidate barycenter differs from the derivative measure ({gap:.2e})")
    dec_u = rn_decompose(du, nu.reference_measure)
    dec_lam = rn_decompose(nu.lam, nu.reference_measure)
    reports = [JensenReport([], []) for _ in integrands]

    def check(part, dlam, kind, sides):
        """Per integrand, flag the nodes of ``part`` where its lhs exceeds
        its rhs plus the concentration term, in the report's list ``kind``;
        ``sides`` gives (lhs, rhs) per integrand, ``dlam`` is the lambda
        density at the nodes."""
        pts = part.points
        charged = dlam > CHARGE_TOL
        sphere = None
        if np.any(charged) and nu.nu_inf is not None:
            at = pts[charged]
            sphere = (*nu.nu_inf(part.key, at), at)
        for F, report, (lhs, rhs) in zip(integrands, reports, sides):
            if sphere is not None:
                rhs = rhs.copy()
                rhs[charged] += _field_pair(F, *sphere, sphere=True, upper=upper_slope) * dlam[charged]
            violations = getattr(report, kind)
            for m in np.nonzero(lhs > rhs + JENSEN_TOL)[0]:
                violations.append((tuple(pts[m]), float(lhs[m]), float(rhs[m])))

    for part, w, A in nu.oscillation_values:
        pts = part.points
        dens = dec_u.densities[part.key](pts)
        sides = ((np.asarray(F(pts, dens)), _field_pair(F, w, A, pts)) for F in integrands)
        check(part, np.asarray(dec_lam.densities[part.key](pts)), "ac_violations", sides)

    # the mu-singular parts of Du (the carrier parts of its remainder)
    # against the lambda density on the same carrier, zero where lambda's
    # remainder has none
    lam_parts = singular_parts(dec_lam.remainder)
    for part, lam in matched_parts(singular_parts(dec_u.remainder), lam_parts):
        if part is not None:
            zeros = np.zeros(len(part.points))
            sides = ((charged_recession(F, part.points, part.values), zeros) for F in integrands)
            check(part, zeros if lam is None else lam.values, "singular_violations", sides)
    return reports


def jensen_check_mu(integrands, u, nu):
    """Jensen inequalities relative to mu, the reference measure of ``nu``,
    for nonnegative quasiconvex integrands: pointwise at every mu node and
    density-wise on the mu-singular carriers.  One report per integrand of
    the list ``integrands``.  Violating nodes are listed, not raised: for
    an integrand that is not quasiconvex they are the expected outcome."""
    return _jensen_core(integrands, u, nu, upper_slope=False)


def jensen_check_lebesgue(integrands, u, nu):
    """Jensen inequalities relative to the volume measure, with the upper
    asymptotic slope in place of the recession function, one report per
    integrand of the list ``integrands``; ``nu`` must be relative to the
    volume measure (density exactly 1 at its nodes, no singular part),
    else a YoungMeasureError."""
    parts = nu.reference_parts
    if len(parts) != 1 or not np.all(parts[0].values == 1.0):
        raise YoungMeasureError("the reference measure must be the volume measure")
    return _jensen_core(integrands, u, nu, upper_slope=True)
