"""Test functions, fixtures and checks that only the tests use.

Import as ``from helpers import ...``: pytest puts this directory on
``sys.path`` when it collects the test modules beside it.
"""

from dataclasses import dataclass

import numpy as np

from bvcalc.bv import BVFunction, Jump, Piece
from bvcalc.integrands import IntegrandError
from bvcalc.measures import (
    CarrierRegistry,
    MatrixRadonMeasure,
    frobenius,
    merge_breaks,
    part_densities,
    singular_parts,
)


@dataclass
class SmoothTestFunction:
    """Scalar C^1 test function vanishing on the domain boundary."""

    value: object  # nodes -> (M,)
    grad: object  # nodes -> (M, dim)
    label: str = "test"


def random_polynomial_test(domain, seed=0):
    """Random polynomial times the boundary-vanishing box factor; gradient
    is analytic, so both sides of the parts formula stay polynomial."""
    degree = 2
    rng = np.random.default_rng(seed)
    bounds = domain.box
    if domain.dim == 1:
        coef = rng.uniform(-1, 1, size=degree + 1)
        (a, b), = bounds

        def q(x):
            return np.polynomial.polynomial.polyval(x, coef)

        def dq(x):
            return np.polynomial.polynomial.polyval(
                x, np.polynomial.polynomial.polyder(coef)
            )

        def value(nodes):
            x = nodes[:, 0]
            return q(x) * (x - a) * (b - x)

        def grad(nodes):
            x = nodes[:, 0]
            g = dq(x) * (x - a) * (b - x) + q(x) * ((b - x) - (x - a))
            return g[:, None]

        return SmoothTestFunction(value, grad, label=f"poly1d[{seed}]")
    coef = rng.uniform(-1, 1, size=(degree + 1, degree + 1))
    for p in range(degree + 1):
        for qd in range(degree + 1):
            if p + qd > degree:
                coef[p, qd] = 0.0
    (ax, bx), (ay, by) = bounds

    def q2(x, y):
        return np.polynomial.polynomial.polyval2d(x, y, coef)

    dcx = np.polynomial.polynomial.polyder(coef, axis=0)
    dcy = np.polynomial.polynomial.polyder(coef, axis=1)

    def value(nodes):
        x, y = nodes[:, 0], nodes[:, 1]
        return q2(x, y) * (x - ax) * (bx - x) * (y - ay) * (by - y)

    def grad(nodes):
        x, y = nodes[:, 0], nodes[:, 1]
        bump_x = (x - ax) * (bx - x)
        bump_y = (y - ay) * (by - y)
        gx = (
            np.polynomial.polynomial.polyval2d(x, y, dcx) * bump_x
            + q2(x, y) * ((bx - x) - (x - ax))
        ) * bump_y
        gy = (
            np.polynomial.polynomial.polyval2d(x, y, dcy) * bump_y
            + q2(x, y) * ((by - y) - (y - ay))
        ) * bump_x
        return np.column_stack([gx, gy])

    return SmoothTestFunction(value, grad, label=f"poly2d[{seed}]")


def vertical_step_2d(domain, threshold=0.5, registry=None, carrier_id=None):
    """Indicator-type step across the vertical line x_1 = threshold (scalar
    valued); the jump carrier is the full vertical segment."""
    registry = registry if registry is not None else CarrierRegistry()
    (ax, bx), (ay, by) = domain.box
    cid = carrier_id or f"vline:{threshold:.12g}"
    registry.register_segment(cid, (threshold, ay), (threshold, by), normal=(1.0, 0.0))
    left = Piece(
        region=((ax, threshold), (ay, by)),
        u=lambda nodes: np.zeros((len(nodes), 1)),
        grad=lambda nodes: np.zeros((len(nodes), 1, 2)),
        breaks=((threshold,), ()),
    )
    right = Piece(
        region=((threshold, bx), (ay, by)),
        u=lambda nodes: np.ones((len(nodes), 1)),
        grad=lambda nodes: np.zeros((len(nodes), 1, 2)),
    )
    jump = Jump(
        cid,
        plus=lambda pts: np.ones((len(pts), 1)),
        minus=lambda pts: np.zeros((len(pts), 1)),
    )
    return BVFunction(
        domain,
        1,
        [left, right],
        jumps=[jump],
        registry=registry,
    )


def validate_growth(f):
    """Sampled growth bounds and 1-homogeneity of the declared recession of
    the integrand ``f``; raises on violation."""
    N, n = f.dims
    samples = 1000
    rng = np.random.default_rng(0)
    A = rng.standard_normal((samples, N, n))
    A *= (rng.uniform(0, 1e3, size=samples) / np.maximum(frobenius(A), 1e-12))[
        :, None, None
    ]
    x = rng.uniform(0, 1, size=(samples, n))
    vals = f(x, A)
    mags = frobenius(A)
    if np.any(vals < f.growth_m * mags - 1e-9 * (1 + mags)):
        raise IntegrandError(f"{f.name}: lower growth bound violated")
    if np.any(vals > f.growth_M * (1 + mags) + 1e-9 * (1 + mags)):
        raise IntegrandError(f"{f.name}: upper growth bound violated")
    if f.recession_analytic is not None:
        for s in (0.5, 2.0, 10.0):
            r1 = f.recession(x, s * A)
            r0 = f.recession(x, A)
            if np.any(np.abs(r1 - s * r0) > 1e-9 * (1 + s * mags)):
                raise IntegrandError(f"{f.name}: recession not 1-homogeneous")
    return True


def is_structurally_zero(m):
    """Whether the scalar or matrix measure ``m`` has no part at all."""
    return m.density is None and not m.carrier_parts


def atoms_of(m):
    """The point masses of the scalar or matrix measure ``m`` as
    {cid: (point, value)} in part order, the pairs as the measures' former
    ``atoms`` field held them: the point a float array (dim,), the value a
    float for a scalar measure and an (N, n) array for a matrix one."""
    return {
        part.key: (part.points[0], float(part.values[0]) if not m.shape else part.values[0])
        for part in singular_parts(m)
        if part.kind == "atom"
    }


def carriers_of(m):
    """The carrier parts of ``m`` on segments, as (cid, density) pairs in
    part order: its carrier parts less the point masses."""
    return tuple((cid, fn) for cid, fn in m.carrier_parts if m.carrier(cid).kind != "point")


def is_absolutely_continuous(decomp):
    """Whether gamma has no part that mu does not see."""
    return is_structurally_zero(decomp.remainder)


def absolutely_continuous_part(decomp, gamma, mu):
    """Reassemble (dgamma/dmu) mu as a MatrixRadonMeasure, part by part of
    mu: the decomposition's density there times mu's."""
    mu_fns = part_densities(mu)

    def on(key):
        return lambda p: decomp.densities[key](p) * np.asarray(mu_fns[key](p))[:, None, None]

    return MatrixRadonMeasure(
        gamma.domain,
        gamma.shape,
        density=on(None),
        carrier_parts=tuple((cid, on(cid)) for cid, _ in mu.carrier_parts),
        registry=gamma.registry,
        breaks=merge_breaks(gamma.domain.dim, gamma.breaks, mu.breaks),
    )
