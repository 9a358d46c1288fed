"""Generalized Young measures relative to a reference measure.

A triple (oscillation, concentration, concentration-direction): per-node
discrete probability measures on matrix space, a positive concentration
measure on the closed box, and per-node probability measures on the unit
sphere of matrix space.  Duality pairing against an integrand f uses f on
the oscillation part and the recession of f on the concentration part.

Fields are node-indexed: evaluation receives the structural part of the
reference measure (cells / atom / carrier) it is being sampled on, so the
elementary Young measure of a decomposed derivative is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expressions
from .bv import derivative
from .functional import order_fit
from .integrands import Integrand, generalized_recession, recession_values
from .measures import (
    MeasurePart,
    ScalarRadonMeasure,
    measure_parts,
    merge_breaks,
    rn_decompose,
    singular_densities,
)

_PROB_TOL = 1e-12
_ZTOL = 1e-12


class YoungMeasureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Node-indexed discrete fields
# ---------------------------------------------------------------------------


class OscillationField:
    """Node-indexed discrete probability measures on matrix space."""

    def eval(self, part, points):
        raise NotImplementedError


class LocationField(OscillationField):
    """Field given by a plain location formula nodes -> (weights, atoms)."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, part, points):
        return self.fn(points)


def constant_field(atom_list):
    """x-independent field from [(matrix, weight), ...]."""
    atoms = np.stack([np.asarray(A, dtype=float) for A, _ in atom_list])
    weights = np.array([float(p) for _, p in atom_list])

    def fn(points):
        M = len(points)
        return (
            np.tile(weights[None, :], (M, 1)),
            np.tile(atoms[None, :, :, :], (M, 1, 1, 1)),
        )

    return LocationField(fn)


class ElementaryOscillation(OscillationField):
    """Dirac at the mu-density of a decomposed measure, per part."""

    def __init__(self, decomposition):
        self.dec = decomposition

    def eval(self, part, points):
        return np.ones((len(points), 1)), self.dec.density_on(part, points)[:, None, :, :]


class ElementaryPolar(OscillationField):
    """Dirac at the polar (unit-norm density direction) of a measure whose
    parts coincide with the concentration measure's parts."""

    def __init__(self, remainder):
        self.remainder = remainder
        self._densities = singular_densities(remainder)

    def eval(self, part, points):
        if part.key not in self._densities:
            raise YoungMeasureError("elementary sphere field lives on atoms and carriers only")
        vals = np.asarray(self._densities[part.key](points))
        mags = np.sqrt(np.sum(vals * vals, axis=(1, 2)))
        safe = np.where(mags > _ZTOL, mags, 1.0)
        polar = vals / safe[:, None, None]
        return np.ones((len(points), 1)), polar[:, None, :, :]


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
        self.nu = nu if isinstance(nu, OscillationField) else LocationField(nu)
        self.lam = lam
        self.nu_inf = (
            nu_inf if (nu_inf is None or isinstance(nu_inf, OscillationField)) else LocationField(nu_inf)
        )
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
            (part, *_read_only(*self.nu.eval(part, part.points)))
            for part in self.reference_parts
            if len(part.points)
        ]

    @cached_property
    def sphere_values(self):
        """(part, w, S) of ``nu_inf`` on every charged concentration part."""
        if self.nu_inf is None:
            return []
        return [
            (part, *_read_only(*self.nu_inf.eval(part, part.points)))
            for part in self.concentration_parts
            if len(part.points) and np.max(np.abs(part.masses)) > _ZTOL
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
            mags = np.sqrt(np.sum(S * S, axis=(2, 3)))
            if np.max(np.abs(mags - 1.0)) > _PROB_TOL:
                raise YoungMeasureError("sphere atoms must have unit norm")
        # finite first moment of the oscillation part
        total = 0.0
        for part, w, A in self.oscillation_values:
            total += float(np.dot(part.masses, np.sum(w * _mags(A), axis=1)))
        if not np.isfinite(total):
            raise YoungMeasureError("oscillation part has infinite first moment")
        return True

    @staticmethod
    def from_json(domain, obj, mu, registry=None, dims=(1, 1)):
        """Candidate triple from {"nu": [{"region":..., "atoms": [[A, p]...]}],
        "lambda": measure-spec, "nu_inf": [...]}; entries are matched
        first-region-wins, "region" omitted means everywhere."""
        nu = _field_from_entries(obj.get("nu", []), domain, dims)
        lam_spec = obj.get("lambda")
        if lam_spec is None:
            lam = ScalarRadonMeasure(domain, registry=registry)
        else:
            lam = ScalarRadonMeasure.from_json(domain, lam_spec, registry=registry)
        nu_inf = None
        if obj.get("nu_inf"):
            nu_inf = _field_from_entries(obj["nu_inf"], domain, dims)
        return GeneralizedYoungMeasure(domain, dims, nu, lam, nu_inf, mu)


def _mags(A):
    return np.sqrt(np.sum(A * A, axis=(-2, -1)))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _read_only_parts(parts):
    for part in parts:
        _read_only(part.points, part.weights, part.masses)
    return parts


def _field_from_entries(entries, domain, dims):
    N, n = dims
    parsed = []
    for entry in entries:
        atoms = np.stack(
            [np.asarray(A, dtype=float).reshape(N, n) for A, _ in entry["atoms"]]
        )
        weights = np.array([float(p) for _, p in entry["atoms"]])
        region = entry.get("region")
        if region is None and "node" in entry:  # single-point entry
            pt = np.atleast_1d(np.asarray(entry["node"], dtype=float))
            region = [[v, v] for v in pt]
        parsed.append((region, atoms, weights))
    kmax = max(len(w) for _, _, w in parsed)

    def fn(points):
        M = len(points)
        W = np.zeros((M, kmax))
        A = np.zeros((M, kmax, N, n))
        claimed = np.zeros(M, dtype=bool)
        for region, atoms, weights in parsed:
            if region is None:
                mask = ~claimed
            else:
                bounds = np.asarray(region, dtype=float).reshape(-1, 2)
                mask = ~claimed
                for k, (lo, hi) in enumerate(bounds):
                    mask &= (points[:, k] >= lo) & (points[:, k] <= hi)
            if not np.any(mask):
                continue
            W[mask, : len(weights)] = weights[None, :]
            A[mask, : len(weights)] = atoms[None]
            claimed |= mask
        if not np.all(claimed):
            raise YoungMeasureError("candidate entries do not cover all nodes")
        return W, A

    return LocationField(fn)


# ---------------------------------------------------------------------------
# Elementary Young measure
# ---------------------------------------------------------------------------


def elementary(gamma, mu):
    """The Young measure of a single measure: Diracs at its mu-density,
    concentration measure = total variation of the mu-singular remainder,
    sphere Diracs at the remainder's polar."""
    dec = rn_decompose(gamma, mu)
    rem = dec.remainder
    lam_parts = []
    for cid, fn in rem.carrier_parts:
        lam_parts.append((cid, lambda pts, _f=fn: _mags(np.asarray(_f(pts)))))
    lam_atoms = tuple((p, float(np.linalg.norm(v))) for p, v in rem.atoms)
    lam = ScalarRadonMeasure(
        gamma.domain,
        density=None,
        atoms=lam_atoms,
        carrier_parts=tuple(lam_parts),
        registry=gamma.registry,
        breaks=gamma.breaks,
    )
    return GeneralizedYoungMeasure(
        gamma.domain,
        gamma.shape,
        ElementaryOscillation(dec),
        lam,
        ElementaryPolar(rem),
        reference_measure=mu,
        breaks=merge_breaks(gamma.domain.dim, gamma.breaks, mu.breaks),
    )


# ---------------------------------------------------------------------------
# Pairing and barycenter
# ---------------------------------------------------------------------------


def _field_pair(f, w, A, points, sphere=False):
    """sum_k w_k f(x, A_k) at the given points, from a field's weights
    ``w`` (M, K) and atoms ``A`` (M, K, N, n) there (recession of f when
    ``sphere``)."""
    out = np.zeros(len(points))
    for k in range(w.shape[1]):
        active = w[:, k] > 0 if sphere else np.abs(w[:, k]) > 0
        if not np.any(active):
            continue
        xk = points[active]
        vals = (
            recession_values(f, xk, A[active, k])
            if sphere
            else np.asarray(f(xk, A[active, k]))
        )
        out[active] += w[active, k] * vals
    return out


def pairing(f, nu, localization=None):
    """Duality pairing: integrate <f(x, .), nu_x> against the reference
    measure and <f^inf(x, .), nu_inf_x> against the concentration measure.
    ``localization`` multiplies both integrands by a scalar cut-off."""
    total = 0.0
    for values, sphere in ((nu.oscillation_values, False), (nu.sphere_values, True)):
        for part, w, A in values:
            masses = part.masses
            if localization is not None:
                masses = masses * np.asarray(localization(part.points))
            vals = _field_pair(f, w, A, part.points, sphere=sphere)
            total += float(np.dot(masses, vals))
    return total


def barycenter(nu):
    """The measure mean(nu_x) mu + mean(nu_inf_x) lambda as a structured
    matrix measure (parts merged by carrier id / atom location)."""
    from .measures import MatrixRadonMeasure  # local import to avoid cycle noise

    mu = nu.reference_measure
    N, n = nu.dims

    def mean_osc(part, pts):
        w, A = nu.nu.eval(part, pts)
        return np.einsum("mk,mkij->mij", w, A)

    def mean_inf(part, pts):
        w, S = nu.nu_inf.eval(part, pts)
        return np.einsum("mk,mkij->mij", w, S)

    lam_cell_charged = False
    if nu.nu_inf is not None:
        cell_part = nu.concentration_parts[0]
        lam_cell_charged = bool(np.any(np.abs(cell_part.masses) > _ZTOL))

    def density(nodes):
        out = mean_osc(MeasurePart("cells", None, nodes), nodes) * np.asarray(
            mu.density_at(nodes)
        )[:, None, None]
        if lam_cell_charged:
            out = out + mean_inf(
                MeasurePart("cells", None, nodes), nodes
            ) * np.asarray(nu.lam.density_at(nodes))[:, None, None]
        return out

    atom_acc = {}
    for p, w in mu.atoms:
        part = MeasurePart("atom", tuple(p), p[None, :])
        atom_acc[tuple(p)] = (p, w * mean_osc(part, p[None, :])[0])
    if nu.nu_inf is not None:
        for p, w in nu.lam.atoms:
            part = MeasurePart("atom", tuple(p), p[None, :])
            add = w * mean_inf(part, p[None, :])[0]
            key = tuple(p)
            if key in atom_acc:
                atom_acc[key] = (p, atom_acc[key][1] + add)
            else:
                atom_acc[key] = (p, add)

    carrier_acc = {}
    for cid, fn in mu.carrier_parts:
        carrier_acc[cid] = [(fn, "osc")]
    if nu.nu_inf is not None:
        for cid, fn in nu.lam.carrier_parts:
            carrier_acc.setdefault(cid, []).append((fn, "inf"))
    parts = []
    for cid, contribs in carrier_acc.items():

        def part_fn(pts, _cid=cid, _contribs=contribs):
            out = np.zeros((len(pts), N, n))
            part = MeasurePart("carrier", _cid, pts)
            for fn, mode in _contribs:
                mean = mean_osc(part, pts) if mode == "osc" else mean_inf(part, pts)
                out = out + mean * np.asarray(fn(pts))[:, None, None]
            return out

        parts.append((cid, part_fn))

    atoms = tuple(atom_acc.values()) if mu.domain.dim == 1 else ()
    return MatrixRadonMeasure(
        mu.domain,
        (N, n),
        density=density,
        carrier_parts=tuple(parts),
        atoms=atoms,
        registry=mu.registry if mu.registry is not None else nu.lam.registry,
        breaks=merge_breaks(mu.domain.dim, mu.breaks, nu.lam.breaks, nu.breaks),
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

    def max_order_deficit(self, target=0.8):
        fitted = [o for o in self.orders.values() if o is not None]
        return max((target - o for o in fitted), default=0.0)


def empirical_generation_check(sequence, mu, candidate, test_integrands, js,
                               localizations=None, per_axis=12):
    """Compare pairings of the elementary Young measures of Du_j with a
    candidate limit triple, over a dictionary of integrands and cut-off
    localizations; reports per-probe gaps and fitted decay orders."""
    from .bv import scalar_bumps

    if localizations is None:
        localizations = scalar_bumps(candidate.domain, per_axis=per_axis)
    js = tuple(js)
    refs = {}
    for fi, f in enumerate(test_integrands):
        for pi, phi in enumerate(localizations):
            refs[(fi, pi)] = pairing(f, candidate, localization=phi)
    per_probe = {}
    for k, j in enumerate(js):
        uj = sequence(j) if callable(sequence) else sequence[k]
        eps_j = elementary(derivative(uj), mu)
        for fi, f in enumerate(test_integrands):
            for pi, phi in enumerate(localizations):
                emp = pairing(f, eps_j, localization=phi)
                ref = refs[(fi, pi)]
                gap = abs(emp - ref) / max(1.0, abs(ref))
                per_probe.setdefault((fi, pi), []).append(gap)
    final_gap = max(gaps[-1] for gaps in per_probe.values())
    orders = {}
    for fi, f in enumerate(test_integrands):
        fitted = [order_fit(js, per_probe[(fi, pi)], 1e-11, 3) for pi in range(len(localizations))]
        fitted = [o for o in fitted if o is not None]
        orders[getattr(f, "name", f"f{fi}")] = min(fitted, default=None)
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


def _check_barycenter(u, nu, tol=1e-8):
    from .measures import measure_distance

    gap = measure_distance(barycenter(nu), derivative(u))
    if gap > tol * max(1.0, u.l1_norm()):
        raise YoungMeasureError(
            f"candidate barycenter differs from the derivative measure ({gap:.2e})"
        )


def _lambda_boundary_zero(nu):
    for p, w in nu.lam.atoms:
        if w > _ZTOL and not nu.domain.strictly_contains(p):
            raise YoungMeasureError("concentration measure charges the boundary")
    for cid, _ in nu.lam.carrier_parts:
        carrier = nu.lam.carrier(cid)
        if carrier.kind == "segment":
            mid = 0.5 * (np.asarray(carrier.endpoints[0]) + np.asarray(carrier.endpoints[1]))
            if not nu.domain.strictly_contains(mid):
                raise YoungMeasureError("concentration measure charges the boundary")


def _sphere_pair(F, field, part, points, upper):
    w, S = field.eval(part, points)
    out = np.zeros(len(points))
    for k in range(w.shape[1]):
        active = w[:, k] > 0
        if not np.any(active):
            continue
        if upper and not (isinstance(F, Integrand) and F.has_analytic_recession()):
            vals = np.array(
                [generalized_recession(F, S[m, k]).value for m in np.nonzero(active)[0]]
            )
        else:
            vals = recession_values(F, points[active], S[active, k])
        out[active] += w[active, k] * vals
    return out


def _jensen_core(F, u, nu, mu, tol, upper_slope):
    _check_barycenter(u, nu)
    _lambda_boundary_zero(nu)
    dec_u = rn_decompose(derivative(u), mu)
    dec_lam = rn_decompose(nu.lam, mu)
    report = JensenReport([], [], 0)

    def check(part, lhs, rhs, dlam, violations):
        """Flag the nodes of ``part`` where lhs exceeds rhs plus the
        concentration term, ``dlam`` being the lambda density there."""
        pts = part.points
        charged = dlam > _ZTOL
        if np.any(charged) and nu.nu_inf is not None:
            rhs = rhs.copy()
            rhs[charged] += (
                _sphere_pair(F, nu.nu_inf, part, pts[charged], upper_slope)
                * dlam[charged]
            )
        report.nodes_checked += len(pts)
        for m in np.nonzero(lhs > rhs + tol)[0]:
            violations.append((tuple(pts[m]), float(lhs[m]), float(rhs[m])))

    for part in measure_parts(mu, extra_breaks=nu.breaks):
        pts = part.points
        if len(pts):
            lhs = np.asarray(F(pts, dec_u.density_on(part, pts)))
            rhs = _field_pair(F, *nu.nu.eval(part, pts), pts)
            check(part, lhs, rhs, np.asarray(dec_lam.density_on(part, pts)), report.ac_violations)

    # the mu-singular parts of Du (the atoms and carriers of its remainder;
    # its cell part, first, is zero) against the lambda density on the same
    # atom or carrier, zero where lambda's remainder has none
    lam_density = singular_densities(dec_lam.remainder)
    for part in measure_parts(dec_u.remainder)[1:]:
        pts, vals = part.points, part.values
        lhs = np.zeros(len(pts))
        active = _mags(vals) > _ZTOL
        if np.any(active):
            lhs[active] = recession_values(F, pts[active], vals[active])
        if part.key in lam_density:
            dlam = np.asarray(lam_density[part.key](pts))
        else:
            dlam = np.zeros(len(pts))
        check(part, lhs, np.zeros(len(pts)), dlam, report.singular_violations)
    return report


def jensen_check_mu(F, u, nu, mu, tol=1e-8):
    """Jensen inequalities relative to mu for a nonnegative quasiconvex
    integrand: pointwise at every mu node and density-wise on the
    mu-singular carriers.  Violating nodes are listed, not raised: for an
    integrand that is not quasiconvex they are the expected outcome."""
    return _jensen_core(F, u, nu, mu, tol, upper_slope=False)


def jensen_check_lebesgue(F, u, nu, tol=1e-8):
    """Jensen inequalities relative to the volume measure, with the upper
    asymptotic slope in place of the recession function."""
    lebesgue = ScalarRadonMeasure(
        u.domain,
        density=lambda nodes: np.ones(len(nodes)),
        registry=u.registry,
        dominates_lebesgue=True,
    )
    return _jensen_core(F, u, nu, lebesgue, tol, upper_slope=True)
