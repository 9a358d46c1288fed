import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.measures import (
    _MATCH_TOL,
    _POINT_CELL,
    Breaks,
    CarrierRegistry,
    DecompositionError,
    Domain,
    MatrixRadonMeasure,
    MeasureError,
    ScalarRadonMeasure,
    SingularCarrier,
    _normalize_breaks,
    area_functional,
    measure_distance,
    measure_parts,
    merge_breaks,
    mutually_singular,
    pair_with_test_function,
    point_masses,
    rn_decompose,
    total_variation,
)

from helpers import (
    absolutely_continuous_part,
    atoms_of,
    carriers_of,
    is_absolutely_continuous,
    is_structurally_zero,
)


def interval(resolution=128):
    return Domain((0.0, 1.0), resolution)


def unit_square(resolution=32):
    return Domain(((0.0, 1.0), (0.0, 1.0)), resolution)


def ones_density(shape):
    def fn(nodes):
        return np.ones((len(nodes),) + shape)

    return fn


# ---------------------------------------------------------------------------
# total_variation
# ---------------------------------------------------------------------------


def test_total_variation_zero_measure():
    assert total_variation(MatrixRadonMeasure(interval(), (1, 1))) == 0.0


def test_total_variation_direct_sum_1d():
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(
        interval(),
        (1, 1),
        density=ones_density((1, 1)),
        carrier_parts=point_masses(interval(), reg, [((0.5,), [[2.0]])]),
        registry=reg,
    )
    assert total_variation(gamma) == pytest.approx(3.0, abs=1e-12)


def brute_force_cell_tv_2d(density_norm, refine):
    """Independent oracle: plain cell sum of |density| on a refine x refine
    grid, no shared quadrature code."""
    h = 1.0 / refine
    total = 0.0
    xs = (np.arange(refine) + 0.5) * h
    for x1 in xs:
        row = density_norm(x1, (np.arange(refine) + 0.5) * h)
        total += float(np.sum(row)) * h * h
    return total


def test_total_variation_2d_matches_brute_force():
    # density A(x) = x1 * Id on the unit square, N = n = 2
    dom = unit_square(resolution=32)

    def density(nodes):
        eye = np.eye(2)[None, :, :]
        return nodes[:, 0][:, None, None] * eye

    gamma = MatrixRadonMeasure(dom, (2, 2), density=density)
    oracle = brute_force_cell_tv_2d(
        lambda x1, x2s: np.full(len(x2s), x1 * np.sqrt(2.0)), refine=4 * 32
    )
    assert total_variation(gamma) == pytest.approx(oracle, abs=1e-10)


def test_total_variation_segment_region_clipping():
    dom = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    gamma = MatrixRadonMeasure(
        dom,
        (1, 2),
        carrier_parts=(("s", lambda p: np.tile([[1.0, 0.0]], (len(p), 1, 1))),),
        registry=reg,
    )
    assert total_variation(gamma) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# rn_decompose
# ---------------------------------------------------------------------------


def test_rn_decompose_atom_shared():
    # gamma = L^1 + delta_{1/2}, mu = 2 L^1 + delta_{1/2}
    dom = interval()
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 2.0 * np.ones(len(n)),
        carrier_parts=point_masses(dom, reg, [((0.5,), 1.0)]),
        registry=reg,
    )
    gamma = MatrixRadonMeasure(
        dom, (1, 1), density=ones_density((1, 1)),
        carrier_parts=point_masses(dom, reg, [((0.5,), [[1.0]])]), registry=reg
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.densities[None](nodes), 0.5)
    (cid, _), = mu.carrier_parts
    assert list(dec.densities) == [None, cid] and [c for c, _ in gamma.carrier_parts] == [cid]
    v = dec.densities[cid](np.array([[0.5]]))[0]
    assert atoms_of(mu)[cid][1] == 1.0 and v[0, 0] == pytest.approx(1.0)
    assert is_structurally_zero(dec.remainder)


def test_rn_decompose_jump_not_seen_by_mu():
    dom = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("jump", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(dom, density=lambda n: np.ones(len(n)), registry=reg)
    gamma = MatrixRadonMeasure(
        dom,
        (1, 2),
        carrier_parts=(("jump", lambda p: np.tile([[1.0, 0.0]], (len(p), 1, 1))),),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.densities[None](nodes), 0.0)
    assert not is_structurally_zero(dec.remainder)
    assert total_variation(dec.remainder) == pytest.approx(1.0, abs=1e-12)
    assert mutually_singular(dec.remainder, _as_matrix(mu))


def test_rn_decompose_proportional():
    dom = interval()
    reg = CarrierRegistry()
    reg.register_point("pt", (0.25,))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0],
        carrier_parts=point_masses(dom, reg, [((0.75,), 0.5)]) + (("pt", lambda p: 2.0 * np.ones(len(p))),),
        registry=reg,
    )
    c = 3.0
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: c * (1.0 + n[:, 0])[:, None, None],
        carrier_parts=point_masses(dom, reg, [((0.75,), [[c * 0.5]])])
        + (("pt", lambda p: c * 2.0 * np.ones(len(p))[:, None, None]),),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.densities[None](nodes), c, rtol=1e-13)
    atom = mu.carrier_parts[0][0]
    assert list(dec.densities) == [None, atom, "pt"]
    assert dec.densities[atom](np.array([[0.75]]))[0, 0, 0] == pytest.approx(c, rel=1e-13)
    pts, _ = reg["pt"].rule(dom.resolution)
    assert np.allclose(dec.densities["pt"](pts), c, rtol=1e-13)
    assert is_structurally_zero(dec.remainder)


def test_rn_decompose_requires_domination_flag():
    # mu's density vanishes on [0, 0.5): it does not dominate the volume measure
    dom = interval()
    mu = ScalarRadonMeasure(dom, density=lambda n: 1.0 * (n[:, 0] >= 0.5))
    gamma = MatrixRadonMeasure(dom, (1, 1), density=ones_density((1, 1)))
    with pytest.raises(DecompositionError):
        rn_decompose(gamma, mu)


def test_rn_decompose_rejects_vanishing_carrier_density():
    dom = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: np.ones(len(n)),
        carrier_parts=(("s", lambda p: np.maximum(p[:, 1] - 0.5, 0.0)),),
        registry=reg,
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 2),
        carrier_parts=(("s", lambda p: np.tile([[1.0, 0.0]], (len(p), 1, 1))),),
        registry=reg,
    )
    with pytest.raises(DecompositionError):
        rn_decompose(gamma, mu)


def _as_matrix(mu):
    """Scalar measure viewed as a 1 x dim matrix measure (for the
    mutual-singularity helper in tests)."""
    dim = mu.domain.dim
    e = np.zeros((1, dim))
    e[0, 0] = 1.0

    def density(nodes):
        return np.asarray(mu.density_at(nodes))[:, None, None] * e[None]

    parts = tuple(  # the point masses only in 1D
        (cid, (lambda p, _f=fn: np.asarray(_f(p))[:, None, None] * e[None]))
        for cid, fn in (mu.carrier_parts if dim == 1 else carriers_of(mu))
    )
    return MatrixRadonMeasure(
        mu.domain, (1, dim), density=density, carrier_parts=parts,
        registry=mu.registry, breaks=mu.breaks,
    )


def test_rn_reconstruction_and_tv_additivity():
    rng = np.random.default_rng(7)
    dom = interval()
    reg = CarrierRegistry()
    reg.register_point("p0", (0.3,))
    for _ in range(10):
        c0, c1 = rng.uniform(0.5, 2.0, size=2)
        mu = ScalarRadonMeasure(
            dom,
            density=lambda n, a=c0, b=c1: a + b * n[:, 0] ** 2,
            carrier_parts=point_masses(dom, reg, [((0.3,), float(rng.uniform(0.5, 2.0)))]),
            registry=reg,
        )
        s0, s1 = rng.uniform(-2.0, 2.0, size=2)
        gamma = MatrixRadonMeasure(
            dom,
            (1, 1),
            density=lambda n, a=s0, b=s1: (a + b * n[:, 0])[:, None, None],
            carrier_parts=point_masses(dom, reg, [
                ((0.3,), [[float(rng.uniform(-1, 1))]]),
                ((0.7,), [[float(rng.uniform(-1, 1))]]),
            ]),
            registry=reg,
        )
        dec = rn_decompose(gamma, mu)
        nodes, _ = dom.cell_rule()
        recon = dec.densities[None](nodes) * np.asarray(mu.density_at(nodes))[:, None, None]
        assert np.allclose(recon, gamma.density_at(nodes), rtol=1e-12, atol=1e-15)
        ac = absolutely_continuous_part(dec, gamma, mu)
        tv_sum = total_variation(ac) + total_variation(dec.remainder)
        assert tv_sum == pytest.approx(total_variation(gamma), rel=1e-12)
        assert mutually_singular(dec.remainder, _as_matrix(mu))


# ---------------------------------------------------------------------------
# area functional
# ---------------------------------------------------------------------------


def test_area_zero_density_is_volume():
    gamma = MatrixRadonMeasure(interval(), (1, 1))
    assert area_functional(gamma) == pytest.approx(1.0, abs=1e-12)


def test_area_constant_density():
    gamma = MatrixRadonMeasure(interval(), (1, 1), density=ones_density((1, 1)))
    assert area_functional(gamma) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_area_with_jump_segment():
    dom = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    gamma = MatrixRadonMeasure(
        dom,
        (1, 2),
        carrier_parts=(("s", lambda p: np.tile([[2.0, 0.0]], (len(p), 1, 1))),),
        registry=reg,
    )
    assert area_functional(gamma) == pytest.approx(3.0, abs=1e-12)


def test_area_bounds_against_tv():
    rng = np.random.default_rng(3)
    dom = interval()
    reg = CarrierRegistry()
    for _ in range(5):
        coef = rng.uniform(-2, 2, size=3)
        gamma = MatrixRadonMeasure(
            dom,
            (1, 1),
            density=lambda n, c=coef: (c[0] + c[1] * n[:, 0] + c[2] * n[:, 0] ** 2)[
                :, None, None
            ],
            carrier_parts=point_masses(dom, reg, [((0.4,), [[float(rng.uniform(-1, 1))]])]),
            registry=reg,
        )
        tv = total_variation(gamma)
        vol = dom.volume()
        area = area_functional(gamma)
        assert area >= max(tv, vol) - 1e-12
        assert area <= vol + tv + 1e-12


# ---------------------------------------------------------------------------
# mutual singularity
# ---------------------------------------------------------------------------


def test_mutually_singular_cases():
    dom = interval()
    leb = MatrixRadonMeasure(dom, (1, 1), density=ones_density((1, 1)))
    reg0 = CarrierRegistry()
    dirac = MatrixRadonMeasure(dom, (1, 1), carrier_parts=point_masses(dom, reg0, [((0.0,), [[1.0]])]), registry=reg0)
    twol = MatrixRadonMeasure(dom, (1, 1), density=lambda n: 2 * np.ones((len(n), 1, 1)))
    assert mutually_singular(leb, dirac)
    assert not mutually_singular(leb, twol)

    dom2 = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("s1", (0.25, 0.0), (0.25, 1.0))
    reg.register_segment("s2", (0.75, 0.0), (0.75, 1.0))
    part = lambda p: np.tile([[1.0, 0.0]], (len(p), 1, 1))
    m1 = MatrixRadonMeasure(dom2, (1, 2), carrier_parts=(("s1", part),), registry=reg)
    m2 = MatrixRadonMeasure(dom2, (1, 2), carrier_parts=(("s2", part),), registry=reg)
    assert mutually_singular(m1, m2)
    assert not mutually_singular(m1, m1)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def bump_field(direction):
    direction = np.asarray(direction, dtype=float)

    def phi(nodes):
        prof = np.prod(nodes * (1.0 - nodes), axis=1) * 16.0
        return prof[:, None, None] * direction[None]

    return phi


def test_pairing_zero_field():
    gamma = MatrixRadonMeasure(interval(), (1, 1), density=ones_density((1, 1)))
    assert pair_with_test_function(gamma, lambda n: np.zeros((len(n), 1, 1))) == 0.0


def test_pairing_single_atom():
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(
        interval(), (1, 1), carrier_parts=point_masses(interval(), reg, [((0.25,), [[2.0]])]), registry=reg
    )
    phi = bump_field([[1.0]])
    expected = 16.0 * 0.25 * 0.75 * 2.0
    assert pair_with_test_function(gamma, phi) == pytest.approx(expected, abs=1e-12)


def test_pairing_matches_direct_sum_oracle_1d():
    # oracle: the closed-form integral of the degree-4 polynomial
    # 16 x (1 - x) (c0 + c1 x + c2 x^2) over [0, 1] plus the explicit atom
    # term, sharing no quadrature code with the measures module
    rng = np.random.default_rng(11)
    m = 4096
    dom = Domain((0.0, 1.0), m)
    coef = rng.uniform(-1, 1, size=3)
    atom_x, atom_v = 0.6, 1.3
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n, c=coef: (c[0] + c[1] * n[:, 0] + c[2] * n[:, 0] ** 2)[:, None, None],
        carrier_parts=point_masses(dom, reg, [((atom_x,), [[atom_v]])]),
        registry=reg,
    )
    phi = bump_field([[1.0]])

    oracle = 16.0 * (coef[0] / 6.0 + coef[1] / 12.0 + coef[2] / 20.0)
    oracle += 16.0 * atom_x * (1 - atom_x) * atom_v

    assert pair_with_test_function(gamma, phi) == pytest.approx(oracle, abs=1e-10)


def test_pairing_rejects_nonvanishing_boundary_field():
    gamma = MatrixRadonMeasure(interval(), (1, 1), density=ones_density((1, 1)))
    with pytest.raises(MeasureError):
        pair_with_test_function(gamma, lambda n: np.ones((len(n), 1, 1)))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    s=st.floats(-3, 3),
)
def test_pairing_linear_in_measure(a, b, s):
    dom = Domain((0.0, 1.0), 64)
    phi = bump_field([[1.0]])
    g1 = MatrixRadonMeasure(dom, (1, 1), density=lambda n: (a + 0 * n[:, 0])[:, None, None])
    g2 = MatrixRadonMeasure(dom, (1, 1), density=lambda n: (b * n[:, 0])[:, None, None])
    combo = MatrixRadonMeasure(
        dom, (1, 1), density=lambda n: (a + s * b * n[:, 0])[:, None, None]
    )
    lhs = pair_with_test_function(combo, phi)
    rhs = pair_with_test_function(g1, phi) + s * pair_with_test_function(g2, phi)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# quadrature behaviour
# ---------------------------------------------------------------------------


def test_refinement_first_order_on_smooth_density():
    def make(resolution):
        dom = Domain((0.0, 1.0), resolution)
        return MatrixRadonMeasure(
            dom, (1, 1), density=lambda n: np.sin(3 * n[:, 0])[:, None, None]
        )

    exact = (1.0 - np.cos(3.0)) / 3.0  # integral of |sin(3x)| = sin on (0,1)
    errs = [abs(total_variation(make(r)) - exact) for r in (64, 128, 256, 512)]
    for e, r in zip(errs, (64, 128, 256, 512)):
        assert e <= 5.0 / r
    assert errs[-1] < errs[0]


def test_breakpoint_refinement_makes_piecewise_exact():
    dom = Domain((0.0, 1.0), 10)  # grid NOT aligned with the break at 1/3
    step = lambda n: np.where(n[:, 0] < 1.0 / 3.0, 2.0, 0.5)[:, None, None]
    aligned = MatrixRadonMeasure(dom, (1, 1), density=step, breaks=(1.0 / 3.0,))
    assert total_variation(aligned) == pytest.approx(2 / 3 + 0.5 * 2 / 3, abs=1e-14)


def test_measure_distance_matched_parts():
    dom = interval()
    reg = CarrierRegistry()
    g1 = MatrixRadonMeasure(
        dom, (1, 1), density=ones_density((1, 1)), carrier_parts=point_masses(dom, reg, [((0.5,), [[1.0]])]),
        registry=reg,
    )
    g2 = MatrixRadonMeasure(
        dom, (1, 1), density=ones_density((1, 1)), carrier_parts=point_masses(dom, reg, [((0.5,), [[3.0]])]),
        registry=reg,
    )
    assert measure_distance(g1, g2) == pytest.approx(2.0, abs=1e-12)
    assert measure_distance(g1, g1) == pytest.approx(0.0, abs=1e-14)


def test_domain_invariants():
    with pytest.raises(MeasureError):
        Domain((1.0, 1.0), 8)
    with pytest.raises(MeasureError):
        Domain((0.0, 1.0), 0)
    dom = unit_square()
    _, _, normals = dom.boundary_rule()
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    nodes, weights = dom.cell_rule()
    assert np.sum(weights) == pytest.approx(dom.volume(), rel=1e-14)


def test_dominates_flag_enforced():
    # domination is read from the density: below eps at a node, mu constructs but does not decompose
    dom = interval()
    mu = ScalarRadonMeasure(dom, density=lambda n: n[:, 0], eps=0.01)
    gamma = MatrixRadonMeasure(dom, (1, 1), density=ones_density((1, 1)))
    with pytest.raises(DecompositionError, match="^mu cell density vanishes at a quadrature node$"):
        rn_decompose(gamma, mu)


# ---------------------------------------------------------------------------
# one walker, one decomposition: references kept from the per-function loops
# ---------------------------------------------------------------------------
#
# The functions below are copies of the loops that measure_parts, _integrate
# and the scalar case of rn_decompose replaced.  The walker visits cells,
# atoms, carriers; the loops visited cells, carriers, atoms.  Float addition
# is not associative, so a measure with both atoms and carrier parts may sum
# to a different last bit: there the comparison is rel 1e-15 (a few ulps),
# everywhere else it is exact.


def _old_mass(m):
    nodes, weights = m.domain.cell_rule(breaks=m.breaks)
    total = float(np.dot(weights, m.density_at(nodes)))
    for cid, fn in carriers_of(m):
        pts, w = m.registry[cid].rule(m.domain.resolution)
        if len(pts):
            total += float(np.dot(w, np.asarray(fn(pts))))
    for p, w in atoms_of(m).values():
        total += w
    return total


def _frob(values):
    return np.sqrt(np.sum(values * values, axis=(1, 2)))


def _old_tv_or_area(gamma, area=False):
    nodes, weights = gamma.domain.cell_rule(breaks=gamma.breaks)
    cells = _frob(gamma.density_at(nodes)) if len(nodes) else None
    if cells is not None and area:
        cells = np.sqrt(1.0 + cells**2)
    total = float(np.dot(weights, cells)) if len(nodes) else 0.0
    for cid, fn in carriers_of(gamma):
        pts, w = gamma.carrier(cid).rule(gamma.domain.resolution)
        if len(pts):
            total += float(np.dot(w, _frob(np.asarray(fn(pts)))))
    for p, v in atoms_of(gamma).values():
        total += float(np.linalg.norm(v))
    return total


def _old_pair(gamma, phi):
    nodes, weights = gamma.domain.cell_rule(breaks=gamma.breaks)
    total = float(
        np.dot(weights, np.sum(np.asarray(phi(nodes)) * gamma.density_at(nodes), axis=(1, 2)))
    )
    for cid, fn in carriers_of(gamma):
        pts, w = gamma.carrier(cid).rule(gamma.domain.resolution)
        total += float(
            np.dot(w, np.sum(np.asarray(phi(pts)) * np.asarray(fn(pts)), axis=(1, 2)))
        )
    for p, v in atoms_of(gamma).values():
        total += float(np.sum(np.asarray(phi(p[None, :]))[0] * v))
    return total


def _old_evaluate(u, spec):
    from bvcalc.bv import derivative
    from bvcalc.functional import EvaluationBreakdown, _singular_term, boundary_term
    from bvcalc.measures import merge_breaks

    F, mu = spec.integrand, spec.mu
    gamma = derivative(u)
    dec = rn_decompose(gamma, mu)
    nodes, weights = u.domain.cell_rule(breaks=merge_breaks(u.domain.dim, gamma.breaks, mu.breaks))
    a = np.asarray(mu.density_at(nodes))
    ac_cells = float(np.dot(weights * a, F(nodes, dec.densities[None](nodes))))
    ac_atoms = 0.0
    for cid, (p, w) in atoms_of(mu).items():
        ac_atoms += w * F(p, dec.densities[cid](p[None, :])[0])
    ac_carriers = 0.0
    for cid, mfn in carriers_of(mu):
        pts, wts = mu.carrier(cid).rule(u.domain.resolution)
        ac_carriers += float(np.dot(wts * np.asarray(mfn(pts)), F(pts, dec.densities[cid](pts))))
    singular = _singular_term(F, dec.remainder)
    boundary = boundary_term(u, F) if spec.include_boundary else 0.0
    return EvaluationBreakdown(ac_cells, ac_atoms, ac_carriers, singular, boundary)


def _old_scalar_rn_decompose(lam, mu):
    from bvcalc.measures import _MATCH_TOL, _ZERO_TOL

    def cell_fn(pts, _l=lam, _m=mu):
        return np.asarray(_l.density_at(pts)) / np.asarray(_m.density_at(pts))

    matched = set()
    atom_values = []
    for p, w in atoms_of(mu).values():
        value = 0.0
        for i, (q, v) in enumerate(atoms_of(lam).values()):
            if np.linalg.norm(p - q) <= _MATCH_TOL:
                value = v / w
                matched.add(i)
                break
        atom_values.append((p, w, value))
    rem_atoms = [(p, v) for i, (p, v) in enumerate(atoms_of(lam).values()) if i not in matched]

    mu_parts = dict(carriers_of(mu))
    carrier_fns, rem_parts = [], []
    for cid, lfn in carriers_of(lam):
        if cid in mu_parts:
            mfn = mu_parts[cid]
            pts, _ = lam.carrier(cid).rule(lam.domain.resolution)
            lv, mv = np.asarray(lfn(pts)), np.asarray(mfn(pts))
            if np.any((np.abs(lv) > _ZERO_TOL) & (mv <= _ZERO_TOL)):
                raise DecompositionError("mu density vanishes where lambda charges it")

            def ratio(p, _l=lfn, _m=mfn):
                m = np.asarray(_m(p))
                safe = np.where(m > _ZERO_TOL, m, 1.0)
                out = np.asarray(_l(p)) / safe
                return np.where(m > _ZERO_TOL, out, 0.0)

            carrier_fns.append((cid, mfn, ratio))
        else:
            rem_parts.append((cid, lfn))
    charged = {cid for cid, _, _ in carrier_fns}
    for cid, mfn in carriers_of(mu):
        if cid not in charged:
            carrier_fns.append((cid, mfn, lambda p: np.zeros(len(p))))
    remainder = ScalarRadonMeasure(
        lam.domain, carrier_parts=point_masses(lam.domain, lam.registry, rem_atoms) + tuple(rem_parts),
        registry=lam.registry, breaks=lam.breaks,
    )
    return atom_values, cell_fn, carrier_fns, remainder


def _mixed_1d(resolution=96):
    """Scalar measures mu and lambda and a matrix measure on [0, 1] with
    shared and unshared atoms and point carriers."""
    dom = Domain((0.0, 1.0), resolution)
    reg = CarrierRegistry()
    for cid, x in (("p1", 0.45), ("p2", 0.8), ("p3", 0.2)):
        reg.register_point(cid, (x,))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0] ** 2,
        carrier_parts=point_masses(dom, reg, [((0.3,), 0.7), ((0.9,), 1.1)])
        + (("p1", lambda p: 2.0 + p[:, 0]), ("p3", lambda p: 0.5 + 0 * p[:, 0])),
        registry=reg,
        breaks=(0.5,),
    )
    lam = ScalarRadonMeasure(
        dom,
        density=lambda n: 0.5 + np.sin(3.0 * n[:, 0]) ** 2,
        carrier_parts=point_masses(dom, reg, [((0.3,), 0.4), ((0.6,), 1.3)])
        + (("p1", lambda p: 0.25 + p[:, 0]), ("p2", lambda p: 3.0 + 0 * p[:, 0])),
        registry=reg,
        breaks=(1.0 / 3.0,),
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: np.cos(5.0 * n[:, 0])[:, None, None],
        carrier_parts=point_masses(dom, reg, [((0.3,), [[-0.8]]), ((0.65,), [[1.7]])])
        + (("p1", lambda p: (1.0 - 3.0 * p[:, 0])[:, None, None]),),
        registry=reg,
    )
    return dom, reg, mu, lam, gamma


def test_scalar_rn_decompose_is_the_shape_0_case():
    dom, reg, mu, lam, _ = _mixed_1d()
    old_atoms, old_cell_fn, old_carriers, old_rem = _old_scalar_rn_decompose(lam, mu)
    dec = rn_decompose(lam, mu)
    # in 1D every singular part is a point mass: the atoms and the point carriers p1 and p3 alike
    atom_keys = [k for k in dec.densities if k is not None]
    assert atom_keys == [c for c, _ in mu.carrier_parts] and len(old_atoms) == 4
    for key, (q, w0, v0) in zip(atom_keys, old_atoms):
        v = dec.densities[key](q[None, :])
        assert reg[key].point == tuple(q) and v.shape == (1,) and np.array_equal(v[0], v0)
    assert [w for _, w in atoms_of(mu).values()] == [w0 for _, w0, _ in old_atoms]
    values = [v for _, _, v in old_atoms]  # shared, unshared, shared (p1), unshared (p3)
    assert values[:2] == [0.4 / 0.7, 0.0] and values[2] > 0.0 and values[3] == 0.0
    nodes, _ = dom.cell_rule(breaks=((0.5, 1.0 / 3.0),))
    assert np.array_equal(dec.densities[None](nodes), old_cell_fn(nodes))
    assert old_carriers == [] and carriers_of(mu) == ()
    rem = dec.remainder
    assert isinstance(rem, ScalarRadonMeasure) and rem.density is None
    assert [(tuple(p), w) for p, w in atoms_of(rem).values()] == [(tuple(p), w) for p, w in atoms_of(old_rem).values()]
    assert [c for c, _ in rem.carrier_parts] == [c for c, _ in old_rem.carrier_parts]
    assert rem.breaks == old_rem.breaks and rem.mass() == old_rem.mass()
    assert not is_absolutely_continuous(dec)
    # without the unshared atom and carrier (0.6 and p2) lambda is absolutely continuous
    lam_ac = ScalarRadonMeasure(
        dom, density=lam.density, carrier_parts=lam.carrier_parts[::2], registry=reg,
    )
    assert is_absolutely_continuous(rn_decompose(lam_ac, mu))


def test_scalar_rn_decompose_2d_segment_rejection_unchanged():
    dom = unit_square(16)
    reg = CarrierRegistry()
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: np.ones(len(n)),
        carrier_parts=(("s", lambda p: np.maximum(0.0, p[:, 1] - 0.5)),),
        registry=reg,
    )
    lam = ScalarRadonMeasure(dom, carrier_parts=(("s", lambda p: 1.0 + p[:, 1]),), registry=reg)
    with pytest.raises(DecompositionError):
        _old_scalar_rn_decompose(lam, mu)
    with pytest.raises(DecompositionError):
        rn_decompose(lam, mu)
    # charged only where mu's segment density is positive: the ratio is set
    # to zero on the rest, in both versions
    lam = ScalarRadonMeasure(
        dom, carrier_parts=(("s", lambda p: np.maximum(0.0, p[:, 1] - 0.5) * 3.0),), registry=reg
    )
    (_, _, ratio0), = _old_scalar_rn_decompose(lam, mu)[2]
    ratio = rn_decompose(lam, mu).densities["s"]
    pts, _ = reg["s"].rule(dom.resolution)
    assert np.array_equal(ratio(pts), ratio0(pts)) and np.any(ratio(pts) == 0.0)


def _integral_cases():
    """(measure, exact?) pairs: exact unless it has atoms and carriers."""
    dom, reg, mu, lam, gamma = _mixed_1d()
    no_atoms = MatrixRadonMeasure(  # p1 only
        dom, (1, 1), density=gamma.density, carrier_parts=gamma.carrier_parts[2:], registry=reg
    )
    no_carriers = MatrixRadonMeasure(dom, (1, 1), density=gamma.density, carrier_parts=gamma.carrier_parts[:2], registry=reg)
    sq = unit_square(24)
    reg2 = CarrierRegistry()
    reg2.register_segment("a", (0.25, 0.0), (0.25, 1.0))
    reg2.register_segment("b", (0.0, 0.6), (1.0, 0.6))
    gamma2 = MatrixRadonMeasure(
        sq,
        (1, 2),
        density=lambda n: np.stack([np.sin(n[:, 0]), n[:, 1] ** 2], axis=1)[:, None, :],
        carrier_parts=(
            ("a", lambda p: np.stack([1.0 + p[:, 1], 0 * p[:, 1]], axis=1)[:, None, :]),
            ("b", lambda p: np.stack([0 * p[:, 0], 2.0 - p[:, 0]], axis=1)[:, None, :]),
        ),
        registry=reg2,
        breaks=((0.25,), (0.6,)),
    )
    return [(gamma, False), (no_atoms, True), (no_carriers, True), (gamma2, True)], [
        (mu, False),
        (lam, False),
        (ScalarRadonMeasure(dom, density=mu.density, carrier_parts=mu.carrier_parts[:2], registry=reg), True),
    ]


def _same(new, old, exact):
    if exact:
        assert new == old
    else:
        assert new == pytest.approx(old, rel=1e-15, abs=0.0)


def test_rewritten_integrals_match_the_old_loops_1d():
    matrix, scalar = _integral_cases()
    phi = bump_field([[1.0]])
    for gamma, exact in matrix[:3]:
        _same(total_variation(gamma), _old_tv_or_area(gamma), exact)
        _same(area_functional(gamma), _old_tv_or_area(gamma, area=True), exact)
        _same(pair_with_test_function(gamma, phi), _old_pair(gamma, phi), exact)
    for m, exact in scalar:
        _same(m.mass(), _old_mass(m), exact)


def test_rewritten_integrals_match_the_old_loops_2d():
    (gamma, exact), = _integral_cases()[0][3:]
    assert total_variation(gamma) == _old_tv_or_area(gamma)
    assert area_functional(gamma) == _old_tv_or_area(gamma, area=True)
    phi = bump_field([[1.0, -0.5]])
    assert pair_with_test_function(gamma, phi) == _old_pair(gamma, phi)


def _per_part_integral(measure, on_cells, on_singular):
    """The walker before the atoms were stacked: one part per atom, each
    term a dot product, summed in the order cells, atoms, carriers."""
    total = 0.0
    for part in measure_parts(measure):
        if len(part.points):
            integrand = on_cells if part.kind == "cells" else on_singular
            total += float(np.dot(part.weights, integrand(part)))
    return total


def _measures_with_many_atoms(k=100):
    """A 1D matrix measure and a 2D scalar one, each with ``k`` atoms of
    random weight, a cell density and a carrier part."""
    rng = np.random.default_rng(29)
    reg = CarrierRegistry()
    reg.register_point("c", (0.123,))
    reg.register_segment("s", (0.25, 0.0), (0.25, 1.0))
    atoms = [((x,), rng.normal(size=(2, 1))) for x in rng.uniform(0.0, 1.0, k)]
    gamma = MatrixRadonMeasure(
        interval(64), (2, 1), density=lambda n: np.stack([np.sin(3.0 * n), n**2], 1),
        carrier_parts=point_masses(interval(64), reg, atoms) + (("c", lambda p: np.full((len(p), 2, 1), 0.7)),),
        registry=reg,
    )
    atoms = list(zip(map(tuple, rng.uniform(0.0, 1.0, (k, 2))), rng.uniform(0.0, 3.0, k)))
    mu = ScalarRadonMeasure(
        unit_square(16), density=lambda n: 1.0 + n[:, 0] * n[:, 1],
        carrier_parts=point_masses(unit_square(16), reg, atoms) + (("s", lambda p: 0.5 + p[:, 1]),), registry=reg,
    )
    return gamma, mu


def test_stacked_atoms_integrate_to_the_bits_of_one_part_per_atom():
    from bvcalc.bv import matrix_test_fields
    from bvcalc.measures import frobenius

    gamma, mu = _measures_with_many_atoms()
    assert len(atoms_of(gamma)) == 101 and len(atoms_of(mu)) == 100  # gamma's carrier c is a point
    values = lambda part: part.values
    assert mu.mass() == _per_part_integral(mu, values, values)
    magnitude = lambda part: np.abs(part.values)
    assert total_variation(mu) == _per_part_integral(mu, magnitude, magnitude)
    norm = lambda part: frobenius(part.values)
    assert total_variation(gamma) == _per_part_integral(gamma, norm, norm)
    area = lambda part: np.sqrt(1.0 + frobenius(part.values) ** 2)
    assert area_functional(gamma) == _per_part_integral(gamma, area, norm)
    for phi in [bump_field([[1.0], [-0.5]]), *matrix_test_fields(gamma.domain, gamma.shape)]:
        paired = lambda part: np.sum(np.asarray(phi(part.points)) * part.values, axis=(1, 2))
        assert pair_with_test_function(gamma, phi) == _per_part_integral(gamma, paired, paired)


def test_evaluate_breakdown_matches_the_old_loops():
    from bvcalc.functional import evaluate
    from bvcalc.scenarios import build_case_1d, random_case_description

    rng = np.random.default_rng(5)
    for _ in range(12):
        u, spec = build_case_1d(random_case_description(rng), resolution=400)
        assert evaluate(u, spec).as_dict() == _old_evaluate(u, spec).as_dict()


def test_evaluate_breakdown_matches_the_old_loops_2d_carriers():
    from helpers import vertical_step_2d
    from bvcalc.functional import FunctionalSpec, evaluate
    from bvcalc.integrands import make_area, make_norm

    dom = unit_square(24)
    reg = CarrierRegistry()
    u = vertical_step_2d(dom, threshold=0.5, registry=reg, carrier_id="jump")
    reg.register_segment("other", (0.25, 0.0), (0.25, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0] * n[:, 1],
        carrier_parts=point_masses(dom, reg, [((0.7, 0.3), 0.5)])
        + (("other", lambda p: 0.5 + p[:, 1]), ("jump", lambda p: 1.0 + p[:, 1] ** 2)),
        registry=reg,
    )
    for F in (make_norm(1, 2), make_area(1, 2)):
        for m in (mu, ScalarRadonMeasure(dom, density=mu.density, registry=reg)):
            spec = FunctionalSpec(F, m)
            assert evaluate(u, spec).as_dict() == _old_evaluate(u, spec).as_dict()


_ATOM_SITES = (0.2, 0.4, 0.6, 0.8)
_CARRIER_SITES = {"c1": 0.3, "c2": 0.5, "c3": 0.7}


@settings(max_examples=40, deadline=None)
@given(
    coef=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    mu_atoms=st.sets(st.sampled_from(_ATOM_SITES)),
    gamma_atoms=st.dictionaries(st.sampled_from(_ATOM_SITES), st.floats(-3, 3)),
    mu_carriers=st.sets(st.sampled_from(sorted(_CARRIER_SITES))),
    gamma_carriers=st.dictionaries(st.sampled_from(sorted(_CARRIER_SITES)), st.floats(-3, 3)),
)
def test_decomposition_round_trip_preserves_total_variation(
    coef, mu_atoms, gamma_atoms, mu_carriers, gamma_carriers
):
    """TV(ac part) + TV(remainder) = TV(gamma): the two parts of the
    decomposition are mutually singular and together rebuild gamma."""
    dom = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    for cid, x in _CARRIER_SITES.items():
        reg.register_point(cid, (x,))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0],
        carrier_parts=point_masses(dom, reg, [((x,), 0.5 + x) for x in sorted(mu_atoms)])
        + tuple((cid, lambda p: 0.75 + p[:, 0]) for cid in sorted(mu_carriers)),
        registry=reg,
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: (coef[0] + coef[1] * n[:, 0] + coef[2] * n[:, 0] ** 2)[:, None, None],
        carrier_parts=point_masses(dom, reg, [((x,), [[v]]) for x, v in sorted(gamma_atoms.items())])
        + tuple(
            (cid, lambda p, _v=v: np.full((len(p), 1, 1), _v))
            for cid, v in sorted(gamma_carriers.items())
        ),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    ac = absolutely_continuous_part(dec, gamma, mu)
    total = total_variation(ac) + total_variation(dec.remainder)
    assert total == pytest.approx(total_variation(gamma), rel=1e-12, abs=1e-14)
    assert mutually_singular(dec.remainder, _as_matrix(mu))


# ---------------------------------------------------------------------------
# singular_parts and matched_parts: references kept from the per-function loops
# ---------------------------------------------------------------------------
#
# The functions below are copies of the loops that singular_parts and
# matched_parts replaced.  They visited carriers before atoms, and
# measure_distance took carriers in sorted id order; the helpers visit
# atoms, then carriers, in the first measure's order.  Derivative measures
# have atoms only in 1D and carriers only in 2D, so they sum in the same
# order; a measure built with both may differ in the last bits, and is
# compared at rel 1e-15.


def _old_rn_decompose(gamma, mu):
    from bvcalc.measures import _MATCH_TOL, _ZERO_TOL, _magnitudes, _per_node

    shape = gamma.shape
    matched_gamma_atoms = set()
    atom_values = []
    for p, w in atoms_of(mu).values():
        value = np.zeros(shape)
        for i, (q, v) in enumerate(atoms_of(gamma).values()):
            if np.linalg.norm(p - q) <= _MATCH_TOL:
                value = v / w
                matched_gamma_atoms.add(i)
                break
        atom_values.append((p, w, value))
    rem_atoms = [(p, v) for i, (p, v) in enumerate(atoms_of(gamma).values()) if i not in matched_gamma_atoms]
    mu_parts = dict(carriers_of(mu))
    carrier_fns, rem_parts = [], []
    for cid, gfn in carriers_of(gamma):
        if cid in mu_parts:
            mfn = mu_parts[cid]
            pts, _ = gamma.carrier(cid).rule(gamma.domain.resolution)
            gmag = _magnitudes(np.asarray(gfn(pts)))
            if np.any((gmag > _ZERO_TOL) & (np.asarray(mfn(pts)) <= _ZERO_TOL)):
                raise DecompositionError(f"mu density vanishes on carrier {cid!r}")

            def ratio(p, _g=gfn, _m=mfn):
                m = np.asarray(_m(p))
                safe = np.where(m > _ZERO_TOL, m, 1.0)
                out = np.asarray(_g(p)) / _per_node(safe, shape)
                out[m <= _ZERO_TOL] = 0.0
                return out

            carrier_fns.append((cid, mfn, ratio))
        else:
            rem_parts.append((cid, gfn))
    charged = {cid for cid, _, _ in carrier_fns}
    for cid, mfn in carriers_of(mu):
        if cid not in charged:
            carrier_fns.append((cid, mfn, lambda p: np.zeros((len(p),) + shape)))
    return atom_values, carrier_fns, rem_atoms, rem_parts


def _old_measure_distance(g1, g2):
    from bvcalc.measures import _MATCH_TOL, merge_breaks

    breaks = merge_breaks(g1.domain.dim, g1.breaks, g2.breaks)
    nodes, weights = g1.domain.cell_rule(breaks=breaks)
    total = float(np.dot(weights, _frob(g1.density_at(nodes) - g2.density_at(nodes))))
    parts1, parts2 = dict(carriers_of(g1)), dict(carriers_of(g2))
    atoms1, atoms2 = list(atoms_of(g1).values()), list(atoms_of(g2).values())
    for cid in sorted(set(parts1) | set(parts2)):
        carrier = (g1 if cid in parts1 else g2).carrier(cid)
        pts, w = carrier.rule(g1.domain.resolution)
        v1 = np.asarray(parts1[cid](pts)) if cid in parts1 else 0.0
        v2 = np.asarray(parts2[cid](pts)) if cid in parts2 else 0.0
        total += float(np.dot(w, _frob(np.asarray(v1 - v2).reshape(len(pts), *g1.shape))))
    used = set()
    for p, v in atoms1:
        match = None
        for i, (q, u) in enumerate(atoms2):
            if i not in used and np.linalg.norm(p - q) <= _MATCH_TOL:
                match = i
                break
        if match is None:
            total += float(np.linalg.norm(v))
        else:
            used.add(match)
            total += float(np.linalg.norm(v - atoms2[match][1]))
    for i, (q, u) in enumerate(atoms2):
        if i not in used:
            total += float(np.linalg.norm(u))
    return total


def _old_mutually_singular(gamma1, gamma2):
    from bvcalc.measures import _ZERO_TOL, _magnitudes, measure_parts, merge_breaks

    breaks = merge_breaks(gamma1.domain.dim, gamma1.breaks, gamma2.breaks)
    cells, singular = [], []
    for gamma in (gamma1, gamma2):
        cell_part, *rest = measure_parts(gamma, extra_breaks=breaks)
        cells.append(_magnitudes(cell_part.values) > _ZERO_TOL)
        singular.append([p for p in rest if np.any(_magnitudes(p.values) > _ZERO_TOL)])
    if np.any(cells[0] & cells[1]):
        return False
    return not any(_old_same_support(a, b) for a in singular[0] for b in singular[1])


def _old_same_support(a, b):
    """The kept support test of the old matching: the same carrier id, or
    atoms whose points (their keys then) coincide."""
    from bvcalc.measures import _MATCH_TOL

    if a.kind != b.kind:
        return False
    if a.kind == "carrier":
        return a.key == b.key
    return np.linalg.norm(np.subtract(a.points[0], b.points[0])) <= _MATCH_TOL


def _old_admissibility_check(u, mu):
    from bvcalc.bv import derivative
    from bvcalc.measures import merge_breaks

    ztol = 1e-12
    gamma = derivative(u)
    breaks = merge_breaks(u.domain.dim, gamma.breaks, mu.breaks)
    nodes, _ = u.domain.cell_rule(breaks=breaks)
    gmag = np.sqrt(np.sum(gamma.density_at(nodes) ** 2, axis=(1, 2)))
    if np.any((gmag > ztol) & (np.asarray(mu.density_at(nodes)) <= 0.0)):
        return False
    mu_parts = dict(carriers_of(mu))
    for cid, gfn in carriers_of(gamma):
        pts, _ = gamma.carrier(cid).rule(u.domain.resolution)
        gm = np.sqrt(np.sum(np.asarray(gfn(pts)) ** 2, axis=(1, 2)))
        if not np.any(gm > ztol):
            continue
        if cid not in mu_parts:
            return False
        if np.any((gm > ztol) & (np.asarray(mu_parts[cid](pts)) <= 0.0)):
            return False
    for p, v in atoms_of(gamma).values():
        if np.linalg.norm(v) <= ztol:
            continue
        if not any(w > 0 and np.linalg.norm(p - q) <= 1e-12 for q, w in atoms_of(mu).values()):
            return False
    return True


def _old_singular_term(F, remainder, domain):
    from bvcalc.integrands import recession_values

    total = 0.0
    for cid, fn in carriers_of(remainder):
        pts, wts = remainder.carrier(cid).rule(domain.resolution)
        vals = np.asarray(fn(pts))
        out = np.zeros(len(pts))
        charged = _frob(vals) > 1e-12
        if np.any(charged):
            out[charged] = recession_values(F, pts[charged], vals[charged])
        total += float(np.dot(wts, out))
    for p, v in atoms_of(remainder).values():
        if np.linalg.norm(v) > 1e-12:
            total += recession_values(F, p[None, :], v[None])[0]
    return total


def _old_verify_integration_by_parts(u, psi, comp_i=0, comp_j=0):
    from bvcalc.bv import derivative

    gamma = derivative(u)
    nodes, weights = u.domain.gauss_cell_rule(breaks=u.breaks)
    lhs = float(
        np.dot(weights, np.asarray(psi.grad(nodes))[:, comp_j] * u.value_at(nodes)[:, comp_i])
    )
    rhs = float(
        np.dot(weights, np.asarray(psi.value(nodes)) * u.gradient_at(nodes)[:, comp_i, comp_j])
    )
    for cid, fn in carriers_of(gamma):
        pts, w = gamma.carrier(cid).rule(u.domain.resolution)
        rhs += float(
            np.dot(w, np.asarray(psi.value(pts)) * np.asarray(fn(pts))[:, comp_i, comp_j])
        )
    for p, v in atoms_of(gamma).values():
        rhs += float(np.asarray(psi.value(p[None, :]))[0] * v[comp_i, comp_j])
    return abs(lhs + rhs)


def _with_carriers(m, carrier_parts):
    from dataclasses import replace

    return replace(m, carrier_parts=carrier_parts)


def _mixed_2d(resolution=24):
    """mu and a matrix measure on the unit square with segments charged by
    one, the other or both, listed in different orders."""
    dom = unit_square(resolution)
    reg = CarrierRegistry()
    reg.register_segment("a", (0.25, 0.0), (0.25, 1.0))
    reg.register_segment("b", (0.0, 0.6), (1.0, 0.6))
    reg.register_segment("c", (0.75, 0.0), (0.75, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0] * n[:, 1],
        carrier_parts=(("c", lambda p: 0.5 + p[:, 1]), ("b", lambda p: 1.0 + p[:, 0] ** 2)),
        registry=reg,
    )
    (gamma, _), = _integral_cases()[0][3:]
    gamma = MatrixRadonMeasure(
        dom, (1, 2), density=gamma.density, carrier_parts=gamma.carrier_parts, registry=reg,
        breaks=gamma.breaks,
    )
    return dom, reg, mu, gamma


def _reordered_1d():
    """Measures on the registry of _mixed_1d whose carriers come in another
    order than mu's, with one carrier mu does not have."""
    dom, reg, mu, lam, gamma = _mixed_1d()
    other = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: (n[:, 0] - 0.5)[:, None, None],
        carrier_parts=point_masses(dom, reg, [((0.9,), [[0.4]]), ((0.3,), [[2.5]])]) + (
            ("p3", lambda p: np.full((len(p), 1, 1), -1.25)),
            ("p2", lambda p: np.full((len(p), 1, 1), 0.5)),
            ("p1", lambda p: (2.0 * p[:, 0])[:, None, None]),
        ),
        registry=reg,
    )
    return dom, reg, mu, lam, gamma, other


def _assert_same_decomposition(dec, mu, old, points_of):
    old_atoms, old_carriers, old_rem_atoms, old_rem_parts = old
    atom_keys = [k for k in dec.densities if k is not None and mu.carrier(k).kind == "point"]
    assert len(atom_keys) == len(old_atoms)
    for key, (q, w0, v0) in zip(atom_keys, old_atoms):
        v = dec.densities[key](q[None, :])
        assert mu.carrier(key).point == tuple(q) and len(v) == 1 and np.array_equal(v[0], v0)
    assert [w for _, w in atoms_of(mu).values()] == [w0 for _, w0, _ in old_atoms]
    carrier_keys = [k for k in dec.densities if k is not None and mu.carrier(k).kind != "point"]
    assert carrier_keys == [c for c, _ in carriers_of(mu)]
    old_by_id = {cid: (mfn, ratio) for cid, mfn, ratio in old_carriers}
    assert sorted(old_by_id) == sorted(carrier_keys)
    for cid in carrier_keys:
        pts = points_of(cid)
        assert dict(mu.carrier_parts)[cid] is old_by_id[cid][0]
        assert np.array_equal(dec.densities[cid](pts), old_by_id[cid][1](pts))
    rem = dec.remainder
    assert [tuple(p) for p, _ in atoms_of(rem).values()] == [tuple(p) for p, _ in old_rem_atoms]
    assert all(np.array_equal(v, v0) for (_, v), (_, v0) in zip(atoms_of(rem).values(), old_rem_atoms))
    assert carriers_of(rem) == tuple(old_rem_parts)


def test_rn_decompose_matches_the_old_loops_1d():
    dom, reg, mu, lam, gamma, other = _reordered_1d()

    def points_of(cid):
        return reg[cid].rule(dom.resolution)[0]

    for g in (gamma, lam, other):
        _assert_same_decomposition(rn_decompose(g, mu), mu, _old_rn_decompose(g, mu), points_of)
    # the densities come in mu's part order, whatever the order of other's parts
    assert list(rn_decompose(other, mu).densities) == [None, *(c for c, _ in mu.carrier_parts)]


def test_rn_decompose_matches_the_old_loops_2d():
    dom, reg, mu, gamma = _mixed_2d()

    def points_of(cid):
        return reg[cid].rule(dom.resolution)[0]

    _assert_same_decomposition(rn_decompose(gamma, mu), mu, _old_rn_decompose(gamma, mu), points_of)
    vanishing = _with_carriers(mu, (("b", lambda p: np.maximum(0.0, p[:, 0] - 0.5)),))
    with pytest.raises(DecompositionError):
        _old_rn_decompose(gamma, vanishing)
    with pytest.raises(DecompositionError):
        rn_decompose(gamma, vanishing)


def test_measure_distance_matches_the_old_loops():
    dom, reg, mu, lam, gamma, other = _reordered_1d()
    matrix = [g for g, _ in _integral_cases()[0][:3]] + [other]
    for g1 in matrix:
        for g2 in matrix:
            exact = not any(atoms_of(g) and carriers_of(g) for g in (g1, g2))
            _same(measure_distance(g1, g2), _old_measure_distance(g1, g2), exact)
    _, _, _, gamma2 = _mixed_2d()
    (_, a_fn), b_part = gamma2.carrier_parts
    shifted = _with_carriers(gamma2, (b_part, ("c", a_fn)))
    for g1, g2 in ((gamma2, shifted), (shifted, gamma2), (gamma2, gamma2)):
        assert measure_distance(g1, g2) == _old_measure_distance(g1, g2)
    with pytest.raises(MeasureError):
        measure_distance(gamma, MatrixRadonMeasure(interval(64), (1, 1)))


def test_mutually_singular_matches_the_old_loops():
    dom, reg, mu, lam, gamma, other = _reordered_1d()
    _, reg2, mu2, gamma2 = _mixed_2d()
    measures = [
        [_as_matrix(mu), _as_matrix(lam), gamma, other, MatrixRadonMeasure(dom, (1, 1))],
        [_as_matrix(mu2), gamma2, MatrixRadonMeasure(mu2.domain, (1, 2))],
    ]
    for group in measures:
        decs = [rn_decompose(g, mu if g.domain.dim == 1 else mu2) for g in group[1:]]
        group += [d.remainder for d in decs]
        for g1 in group:
            for g2 in group:
                assert mutually_singular(g1, g2) == _old_mutually_singular(g1, g2)
    assert mutually_singular(rn_decompose(gamma, mu).remainder, _as_matrix(mu))
    assert not mutually_singular(other, _as_matrix(mu))


def test_admissibility_check_matches_the_old_loop():
    from bvcalc.bv import heaviside_1d, ramp_1d
    from bvcalc.functional import admissibility_check
    from bvcalc.scenarios import build_case_1d, random_case_description
    from helpers import vertical_step_2d

    rng = np.random.default_rng(11)
    cases = [build_case_1d(random_case_description(rng), resolution=200) for _ in range(12)]
    cases = [(u, spec.mu) for u, spec in cases]
    dom = interval(200)
    reg = CarrierRegistry()
    jump = heaviside_1d(dom, 0.5, registry=reg)
    ramp = ramp_1d(dom, 0.45, 0.1, registry=reg)
    atom_sets = [(), [(0.5, 0.7)], [(0.5, 0.0)], [(0.5 + 1e-13, 0.3)], [(0.2, 1.0)]]
    for atoms in [tuple(((x,), w) for x, w in a) for a in atom_sets]:
        for density in (lambda n: np.ones(len(n)), lambda n: np.where(n[:, 0] > 0.4, 0.0, 1.0)):
            mu = ScalarRadonMeasure(
                dom, density=density, carrier_parts=point_masses(dom, reg, atoms), registry=reg, breaks=(0.4,)
            )
            cases += [(jump, mu), (ramp, mu)]
    sq = unit_square(16)
    reg2 = CarrierRegistry()
    step = vertical_step_2d(sq, threshold=0.5, registry=reg2, carrier_id="jump")
    reg2.register_segment("other", (0.25, 0.0), (0.25, 1.0))
    for parts in ((), (("other", lambda p: 1.0 + 0 * p[:, 1]),),
                  (("jump", lambda p: 1.0 + p[:, 1]),),
                  (("jump", lambda p: np.maximum(0.0, p[:, 1] - 0.5)),)):
        mu = ScalarRadonMeasure(
            sq, density=lambda n: np.ones(len(n)), carrier_parts=parts, registry=reg2
        )
        cases.append((step, mu))
    cases += _kept_part_admissibility_cases()
    results = [admissibility_check(u, mu) for u, mu in cases]
    assert results == [_old_admissibility_check(u, mu) for u, mu in cases]
    assert True in results and False in results


def _kept_part_admissibility_cases():
    """Cases where mu's kept cell part is read, is not the rule asked for,
    or does not exist, each with an admissible and an inadmissible u."""
    from bvcalc.bv import BVFunction, Piece, affine_2d, derivative, ramp_1d
    from bvcalc.measures import _MEMO_NODES, cell_part
    from bvcalc.scenarios import carpet_holes, carpet_indicator

    cases = []
    # a carpet weight on a 2D box: a constant, x, and a gradient only in the holes
    weight, breaks = carpet_indicator(carpet_holes(2))
    sq, reg = unit_square(32), CarrierRegistry()
    carpet = ScalarRadonMeasure(sq, density=weight, registry=reg, breaks=breaks)
    in_holes = BVFunction(sq, 1, [Piece(region=sq.box, u=lambda n: np.zeros((len(n), 1)),
                                        grad=lambda n: weight(n)[:, None, None] * np.ones((1, 1, 2)))],
                          registry=reg, validate=False)
    for u in (affine_2d(sq, np.zeros((1, 2)), registry=reg), affine_2d(sq, [[1.0, 0.0]], registry=reg), in_holes):
        assert cell_part(carpet, derivative(u).breaks) is carpet._cells
        cases.append((u, carpet))
    # 1D u whose breaks are off mu's grid: the rule asked for is not the kept one
    dom, reg = interval(200), CarrierRegistry()
    right_null = ScalarRadonMeasure(dom, density=lambda n: np.where(n[:, 0] > 0.4, 0.0, 1.0), registry=reg, breaks=(0.4,))
    for u in (ramp_1d(dom, 0.1013, 0.2, registry=reg), ramp_1d(dom, 0.4513, 0.1, registry=reg)):
        other = cell_part(right_null, derivative(u).breaks)
        assert right_null._cells is not None and other is not right_null._cells
        cases.append((u, right_null))
    # breaks that are grid edges give mu's cell edges, so they reach the kept part
    for u in (ramp_1d(dom, 0.05, 0.25, registry=reg), ramp_1d(dom, 0.45, 0.1, registry=reg)):
        assert cell_part(right_null, derivative(u).breaks) is right_null._cells
        cases.append((u, right_null))
    # mu's rule above the memo cap: nothing is kept
    big, reg = Domain((0.0, 1.0), _MEMO_NODES // 2 + 1), CarrierRegistry()
    hole = ScalarRadonMeasure(big, density=lambda n: np.where(np.abs(n[:, 0] - 0.5) < 0.1, 0.0, 1.0), registry=reg)
    assert hole._cells is None
    cases += [(ramp_1d(big, 0.1, 0.2, registry=reg), hole), (ramp_1d(big, 0.45, 0.1, registry=reg), hole)]
    return cases


def test_a_break_within_rounding_of_a_grid_edge_is_that_edge():
    from bvcalc.bv import derivative, ramp_1d
    from bvcalc.functional import admissibility_check
    from bvcalc.measures import cell_part, lebesgue

    dom, reg = Domain((0.0, 1.0), 200), CarrierRegistry()
    plain = dom.cell_rule()
    assert 0.1 + 0.2 != 0.3 and len(plain[1]) == 400
    nodes, weights = dom.cell_rule((0.1 + 0.2,))
    assert nodes is plain[0] and weights is plain[1]
    off = dom.cell_rule((0.3 + 1e-9,))  # beyond rounding: an edge of its own
    assert len(off[1]) == 402 and off[1].min() > 1e-10
    mu = lebesgue(dom, reg)
    u = ramp_1d(dom, 0.1, 0.2, registry=reg)
    assert cell_part(mu, derivative(u).breaks) is mu._cells
    assert admissibility_check(u, mu)


def test_admissibility_reads_du_only_where_mu_vanishes():
    from bvcalc.bv import BVFunction, Piece
    from bvcalc.functional import admissibility_check

    sq, reg = unit_square(32), CarrierRegistry()
    mu_calls, du_points = [], []

    def disc_hole(n):
        mu_calls.append(len(n))
        return np.where(np.hypot(n[:, 0] - 0.5, n[:, 1] - 0.5) < 0.25, 0.0, 1.0)

    def grad(n):
        du_points.append(n)
        return np.tile([[[0.2, 0.1]]], (len(n), 1, 1))

    u = BVFunction(sq, 1, [Piece(region=sq.box, u=lambda n: n @ [[0.2], [0.1]], grad=grad)],
                   registry=reg, validate=False)
    mu = ScalarRadonMeasure(sq, density=disc_hole, registry=reg)
    assert mu_calls == [32 * 32]
    assert not admissibility_check(u, mu) and not admissibility_check(u, mu)
    mu.mass()
    assert mu_calls == [32 * 32]  # construction read mu on its rule, and nothing since
    null = mu._cells.null_points
    assert 0 < len(null) < 32 * 32 and [p is null for p in du_points] == [True, True]
    du_points.clear()
    positive = ScalarRadonMeasure(sq, density=lambda n: np.ones(len(n)), registry=reg)
    assert admissibility_check(u, positive) and du_points == []


def test_a_scalar_measure_keeps_its_checked_cell_part():
    from dataclasses import replace

    from bvcalc.measures import _MEMO_NODES, cell_part

    dom = unit_square(16)
    mu = ScalarRadonMeasure(dom, density=lambda n: np.maximum(n[:, 0] - 0.5, 0.0), breaks=((0.25,), ()))
    kept = mu._cells
    assert kept.points is dom.cell_rule(mu.breaks)[0]
    assert cell_part(mu) is kept and measure_parts(mu)[0] is kept and cell_part(mu, ((0.25,), ())) is kept
    refined = cell_part(mu, ((0.3,), ()))
    assert refined is not kept and refined.points is not kept.points
    assert "masses" not in vars(kept)  # derived on first read only
    assert np.array_equal(kept.masses, kept.weights * kept.values) and kept.masses is kept.masses
    for a in (kept.values, kept.masses, kept.null_points):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        kept.values[0] = 1.0
    assert kept.null_points is kept.null_points
    assert np.array_equal(kept.null_points, kept.points[kept.points[:, 0] < 0.5])
    # replace builds its own part, from its own density
    doubled = replace(mu, density=lambda n: 2.0 * np.maximum(n[:, 0] - 0.5, 0.0))
    assert doubled._cells is not kept and np.array_equal(doubled._cells.values, 2.0 * kept.values)
    assert replace(mu) == mu and replace(mu)._cells is not kept
    # kept up to the memo cap, in nodes; never for a matrix measure
    at_cap = ScalarRadonMeasure(Domain((0.0, 1.0), _MEMO_NODES // 2), density=lambda n: np.ones(len(n)))
    above = ScalarRadonMeasure(Domain((0.0, 1.0), _MEMO_NODES // 2 + 1), density=lambda n: np.ones(len(n)))
    assert cell_part(at_cap) is at_cap._cells is not None
    assert above._cells is None and cell_part(above) is not cell_part(above)
    assert MatrixRadonMeasure(dom, (1, 2), density=ones_density((1, 2)))._cells is None


def test_singular_term_matches_the_old_loop():
    from bvcalc.bv import derivative
    from bvcalc.functional import _singular_term
    from bvcalc.integrands import make_area, make_norm, make_shifted_norm
    from bvcalc.scenarios import build_case_1d, random_case_description

    matrix, _ = _integral_cases()
    dom = matrix[0][0].domain
    for gamma, exact in matrix[:3]:
        for F in (make_norm(), make_area(), make_shifted_norm()):
            _same(_singular_term(F, gamma), _old_singular_term(F, gamma, dom), exact)
    (gamma2, _), = matrix[3:]
    sq = gamma2.domain
    for F in (make_norm(1, 2), make_area(1, 2)):
        assert _singular_term(F, gamma2) == _old_singular_term(F, gamma2, sq)
    rng = np.random.default_rng(7)
    for _ in range(8):
        u, spec = build_case_1d(random_case_description(rng), resolution=200)
        rem = rn_decompose(derivative(u), spec.mu).remainder
        F = spec.integrand
        assert _singular_term(F, rem) == _old_singular_term(F, rem, u.domain)


def test_integration_by_parts_matches_the_old_loop():
    from bvcalc.bv import (
        heaviside_1d,
        piecewise_affine_1d,
        verify_integration_by_parts,
        zero_extension,
    )
    from helpers import random_polynomial_test, vertical_step_2d

    dom = interval(64)
    reg = CarrierRegistry()
    vector = piecewise_affine_1d(
        dom, breakpoints=(0.3,), slopes=((1.0, -0.5), (0.25, 2.0)),
        jumps=((0.6, (1.5, -0.75)), (0.8, (-0.5, 0.25))), registry=reg,
    )
    step = heaviside_1d(dom, 0.5, registry=reg)
    outer = Domain((-0.5, 1.5), 64)
    sq = unit_square(16)
    step2 = vertical_step_2d(sq, threshold=0.4, registry=CarrierRegistry(), carrier_id="jump")
    cases = [(vector, (0, 1)), (step, (0,)), (zero_extension(step, outer), (0,)), (step2, (0,))]
    for u, comps in cases:
        for seed in range(3):
            psi = random_polynomial_test(u.domain, seed=seed)
            for i in comps:
                for j in range(u.domain.dim):
                    new = verify_integration_by_parts(u, psi, i, j)
                    assert new == _old_verify_integration_by_parts(u, psi, i, j)


def test_area_of_atoms_only_measure_is_volume_plus_singular_mass():
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(
        interval(), (1, 1), carrier_parts=point_masses(interval(), reg, [((0.3,), [[2.0]]), ((0.7,), [[-0.5]])]),
        registry=reg,
    )
    assert area_functional(gamma) == pytest.approx(1.0 + 2.5, abs=1e-12)
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    segment = MatrixRadonMeasure(
        unit_square(), (1, 2), carrier_parts=(("s", lambda p: np.full((len(p), 1, 2), 1.5)),),
        registry=reg,
    )
    assert area_functional(segment) == pytest.approx(1.0 + 1.5 * np.sqrt(2.0), abs=1e-12)


def test_matched_parts_uses_each_part_once():
    from bvcalc.measures import matched_parts, singular_parts

    dom, reg, mu, lam, gamma = _mixed_1d()
    # a measure merges the atoms it shares a point with, so the two atom
    # parts at 0.3 come from two measures; the point 0.6 + 1e-13 is
    # registered as lambda's point 0.6, and p1, p2 and p3 are points too
    once = ScalarRadonMeasure(dom, carrier_parts=point_masses(dom, reg, [((0.3,), 1.0)]), registry=reg)
    rest = ScalarRadonMeasure(
        dom,
        carrier_parts=point_masses(dom, reg, [((0.3,), 2.0), ((0.6 + 1e-13,), 4.0)])
        + (("p2", lambda p: 1.0 + 0 * p[:, 0]), ("p3", lambda p: 1.0 + 0 * p[:, 0])),
        registry=reg,
    )
    pairs = matched_parts(singular_parts(once) + singular_parts(rest), singular_parts(lam))

    def label(part):
        return None if part is None else (part.kind, reg[part.key].point)

    assert [(label(a), label(b)) for a, b in pairs] == [
        (("atom", (0.3,)), ("atom", (0.3,))),
        (("atom", (0.3,)), None),
        (("atom", (0.6,)), ("atom", (0.6,))),
        (("atom", (0.8,)), ("atom", (0.8,))),
        (("atom", (0.2,)), None),
        (None, ("atom", (0.45,))),
    ]
    # two mu atoms at one point are one atom of the summed weight, so the
    # decomposition reads lambda's atom there once, as the old loop does
    # (which gave each of two unmerged atoms the whole ratio)
    mu_twice = ScalarRadonMeasure(
        dom, density=mu.density, carrier_parts=point_masses(dom, reg, [((0.3,), 0.5), ((0.3,), 0.25)]),
        registry=reg,
    )
    ((cid, (_, w)),) = atoms_of(mu_twice).items()
    assert w == 0.75
    assert rn_decompose(lam, mu_twice).densities[cid](np.array([[0.3]])).tolist() == [0.4 / 0.75]
    assert [v for _, _, v in _old_rn_decompose(lam, mu_twice)[0]] == [0.4 / 0.75]


# ---------------------------------------------------------------------------
# cell part and construction checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("extra", [None, (0.3, 0.55), (0.3,)])
def test_cell_part_is_the_first_of_the_measure_parts(extra):
    from bvcalc.measures import cell_part, measure_parts, merge_breaks

    dom, reg, mu, lam, gamma = _mixed_1d()
    _, _, mu2, gamma2 = _mixed_2d()
    extra2 = None if extra is None else (extra, (0.45,))
    for m, e in ((mu, extra), (lam, extra), (gamma, extra), (mu2, extra2), (gamma2, extra2)):
        part, first = cell_part(m, e), measure_parts(m, e)[0]
        assert (part.kind, part.key, first.kind, first.key) == ("cells", None, "cells", None)
        for name in ("points", "weights", "values", "masses"):
            a, b = getattr(part, name), getattr(first, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        nodes, weights = m.domain.cell_rule(merge_breaks(m.domain.dim, m.breaks, e))
        assert np.array_equal(part.points, nodes) and np.array_equal(part.weights, weights)
        assert np.array_equal(part.values, m.density_at(nodes))


def _with_segment_c():
    """A registry holding the vertical segment "c" across the unit square
    (a part on a point is a point mass, with the atom rules)."""
    reg = CarrierRegistry()
    reg.register_segment("c", (0.5, 0.0), (0.5, 1.0))
    return reg


def _atom_at_centre(weight):
    return lambda reg: point_masses(unit_square(), reg, [((0.5, 0.5), weight)])


@pytest.mark.parametrize(
    "parts, message",
    [
        (dict(density=lambda n: n[:, 0] - 0.5), "scalar density must be nonnegative"),
        (
            dict(carrier_parts=lambda reg: (("c", lambda p: p[:, 1] - 0.6),)),
            "carrier densities must be nonnegative",
        ),
        (dict(carrier_parts=_atom_at_centre(-1e-13)), "atom weights must be nonnegative"),
    ],
    ids=["cells", "carrier", "atom"],
)
def test_negative_parts_are_rejected_with_their_message(parts, message):
    reg = _with_segment_c()
    parts = {k: v(reg) if k == "carrier_parts" else v for k, v in parts.items()}
    with pytest.raises(MeasureError, match=f"^{message}$"):
        ScalarRadonMeasure(unit_square(), registry=reg, **parts)


def test_densities_keep_their_slack():
    """Cell and carrier densities may dip to -1e-12; atom weights may not
    (a weight of -1e-13 is rejected above)."""
    ScalarRadonMeasure(
        unit_square(), density=lambda n: np.full(len(n), -1e-13), registry=_with_segment_c(),
        carrier_parts=(("c", lambda p: np.full(len(p), -1e-13)),),
    )


@pytest.mark.parametrize(
    "parts, message",
    [
        (dict(density=lambda n: np.where(n[:, 0] < 0.5, 1.0, np.inf)), "a scalar measure's cells part must be finite"),
        (
            dict(carrier_parts=lambda reg: (("c", lambda p: np.full(len(p), np.nan)),)),
            "a scalar measure's carrier part must be finite",
        ),
        (dict(carrier_parts=_atom_at_centre(np.nan)), "atom weights must be nonnegative"),
        (dict(carrier_parts=_atom_at_centre(np.inf)), "a scalar measure's atom part must be finite"),
    ],
    ids=["cells", "carrier", "nan-atom", "inf-atom"],
)
def test_non_finite_parts_are_rejected_with_their_message(parts, message):
    reg = _with_segment_c()
    parts = {k: v(reg) if k == "carrier_parts" else v for k, v in parts.items()}
    with pytest.raises(MeasureError, match=f"^{message}$"):
        ScalarRadonMeasure(unit_square(), registry=reg, **parts)


# ---------------------------------------------------------------------------
# coincident atoms
# ---------------------------------------------------------------------------


def test_coincident_atoms_are_merged_in_first_occurrence_order():
    dom = Domain((0.0, 1.0), 16)
    reg = CarrierRegistry()
    m = ScalarRadonMeasure(
        dom, carrier_parts=point_masses(dom, reg, [((0.5,), 1.0), ((0.2,), 0.5), ((0.5,), 2.0)]), registry=reg
    )
    assert [(p.tolist(), w) for p, w in atoms_of(m).values()] == [([0.5], 3.0), ([0.2], 0.5)]
    assert m.mass() == 3.5
    atoms = (((0.5,), [[1.0], [0.0]]), ((0.2,), [[0.5], [0.5]]), ((0.5,), [[2.0], [-1.0]]))
    g = MatrixRadonMeasure(dom, (2, 1), carrier_parts=point_masses(dom, reg, atoms), registry=reg)
    assert [(p.tolist(), v.tolist()) for p, v in atoms_of(g).values()] == [
        ([0.5], [[3.0], [-1.0]]),
        ([0.2], [[0.5], [0.5]]),
    ]
    for weights in ((2.0, -1.0), (1.0, -1.0)):  # the second sums to a weightless point mass, which is dropped
        with pytest.raises(MeasureError, match="nonnegative"):
            ScalarRadonMeasure(dom, carrier_parts=point_masses(dom, reg, [((0.5,), w) for w in weights]), registry=reg)


# ---------------------------------------------------------------------------
# folded quadrature and face tables against kept copies of the code they
# replaced: nodes, weights, normals and carriers stay bit for bit
# ---------------------------------------------------------------------------


def _old_cell_rule(dom, breaks=None):
    """The cell rule written out: in 1D the two Gauss-Legendre nodes
    mid -+ half t of each cell (t = 1/sqrt(3) as ``leggauss(2)`` rounds
    it), each weighted by half the cell width; in 2D the midpoint rule."""
    from bvcalc.measures import _normalize_breaks, _refined_edges

    axis_breaks = _normalize_breaks(breaks, dom.dim)
    axis_edges = [
        _refined_edges(lo, hi, dom.resolution, axis_breaks[k]) for k, (lo, hi) in enumerate(dom.box)
    ]
    mids = [0.5 * (e[1:] + e[:-1]) for e in axis_edges]
    widths = [np.diff(e) for e in axis_edges]
    if dom.dim == 1:
        half, t = 0.5 * widths[0], float.fromhex("0x1.279a74590331cp-1")
        nodes = np.column_stack([mids[0] - half * t, mids[0] + half * t]).reshape(-1, 1)
        weights = np.repeat(half, 2)
    else:
        gx, gy = np.meshgrid(mids[0], mids[1], indexing="ij")
        wx, wy = np.meshgrid(widths[0], widths[1], indexing="ij")
        nodes = np.column_stack([gx.ravel(), gy.ravel()])
        weights = (wx * wy).ravel()
    keep = weights > 1e-300
    return nodes[keep], weights[keep]


def _old_gauss_cell_rule(dom, breaks=None):
    from bvcalc.measures import _normalize_breaks, _panels, _refined_edges

    axis_breaks = _normalize_breaks(breaks, dom.dim)
    axis_nodes, axis_weights = zip(*[
        _panels(_refined_edges(lo, hi, dom.resolution, axis_breaks[k]), 3)
        for k, (lo, hi) in enumerate(dom.box)
    ])
    if dom.dim == 1:
        return axis_nodes[0][:, None], axis_weights[0]
    gx, gy = np.meshgrid(axis_nodes[0], axis_nodes[1], indexing="ij")
    wx, wy = np.meshgrid(axis_weights[0], axis_weights[1], indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), (wx * wy).ravel()


def _old_boundary_rule(dom):
    from bvcalc.measures import _panels

    if dom.dim == 1:
        (lo, hi), = dom.box
        return np.array([[lo], [hi]]), np.array([1.0, 1.0]), np.array([[1.0], [-1.0]])
    (ax, bx), (ay, by) = dom.box
    pts, wts, nms = [], [], []
    for fixed_axis, fixed_val, normal in (
        (0, ax, (1.0, 0.0)),
        (0, bx, (-1.0, 0.0)),
        (1, ay, (0.0, 1.0)),
        (1, by, (0.0, -1.0)),
    ):
        lo, hi = dom.box[1 - fixed_axis]
        t, w = _panels(np.linspace(lo, hi, dom.resolution + 1), 3)
        p = np.empty((len(t), 2))
        p[:, fixed_axis] = fixed_val
        p[:, 1 - fixed_axis] = t
        pts.append(p)
        wts.append(w)
        nms.append(np.tile(normal, (len(t), 1)))
    return np.concatenate(pts), np.concatenate(wts), np.concatenate(nms)


def _old_boundary_carriers(registry, domain, prefix="bnd"):
    if domain.dim == 1:
        (lo, hi), = domain.box
        return [
            registry.register_point(f"{prefix}:left", (lo,)),
            registry.register_point(f"{prefix}:right", (hi,)),
        ]
    (ax, bx), (ay, by) = domain.box
    spec = [
        ("left", (ax, ay), (ax, by), (1.0, 0.0)),
        ("right", (bx, ay), (bx, by), (-1.0, 0.0)),
        ("bottom", (ax, ay), (bx, ay), (0.0, 1.0)),
        ("top", (ax, by), (bx, by), (0.0, -1.0)),
    ]
    return [registry.register_segment(f"{prefix}:{n}", p, q, normal=nrm) for n, p, q, nrm in spec]


_FOLD_DOMAINS = [Domain((0.0, 1.0), 16), Domain((-1.0, 2.5), 7), Domain(((0.0, 1.0), (-1.0, 2.0)), 8)]


@pytest.mark.parametrize("dom", _FOLD_DOMAINS, ids=["unit-interval", "interval", "rectangle"])
def test_cell_rules_equal_the_kept_per_dimension_copies(dom):
    cases = [None]
    if dom.dim == 1:
        cases += [(0.3, 1.0 / 3.0, 0.55), (0.3,), (0.5,)]
    else:
        cases += [((0.3,), (0.1, 0.45)), ((1.0 / 3.0,), ())]
    for breaks in cases:
        new, old = dom.cell_rule(breaks), _old_cell_rule(dom, breaks)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(new, old))
        new, old = dom.gauss_cell_rule(breaks), _old_gauss_cell_rule(dom, breaks)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(new, old))


@pytest.mark.parametrize("dom", _FOLD_DOMAINS, ids=["unit-interval", "interval", "rectangle"])
def test_boundary_rule_and_carriers_equal_the_kept_copies(dom):
    for a, b in zip(dom.boundary_rule(), _old_boundary_rule(dom)):
        assert a.shape == b.shape and np.array_equal(a, b)
    new, old = CarrierRegistry(), CarrierRegistry()
    assert new.boundary_carriers(dom, prefix="ext") == _old_boundary_carriers(old, dom, prefix="ext")


def test_construction_checks_report_the_carrier_before_the_atoms():
    """Both measures check the registry in one shared step, after merging the
    parts; a measure failing both checks names the unregistered carrier."""
    dom, dom2 = interval(16), unit_square(8)
    reg = CarrierRegistry()
    unregistered = (("c", lambda p: np.ones(len(p))),)
    with pytest.raises(MeasureError, match="^carrier 'c' not in registry$"):
        ScalarRadonMeasure(dom, carrier_parts=point_masses(dom, reg, [((0.5,), -1.0)]) + unregistered, registry=reg)
    atom2 = point_masses(dom2, reg, [((0.5, 0.5), [[1.0, 0.0]])])
    with pytest.raises(MeasureError, match="^carrier 'c' not in registry$"):
        MatrixRadonMeasure(dom2, (1, 2), carrier_parts=atom2 + unregistered, registry=reg)
    with pytest.raises(MeasureError, match="^atomic parts are only permitted in 1D$"):
        MatrixRadonMeasure(dom2, (1, 2), carrier_parts=atom2, registry=reg)


# ---------------------------------------------------------------------------
# merged breaks and the per-domain rule memo, against kept copies of the
# set-and-sort merge and of the rule built on every call
# ---------------------------------------------------------------------------


def _old_merge_breaks(dim, *break_sets):
    from bvcalc.measures import _normalize_breaks

    out = [set() for _ in range(dim)]
    for bs in break_sets:
        if bs is None:
            continue
        norm = _normalize_breaks(bs, dim)
        for k in range(dim):
            out[k].update(norm[k])
    return tuple(tuple(sorted(s)) for s in out)


_break_values = st.one_of(
    st.integers(-64, 64).map(lambda k: k / 16),  # dyadic, with many duplicates
    st.sampled_from([0.0, -0.0, 1.0 / 3.0]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_axis = st.lists(_break_values, max_size=10)
_canonical_axis = _axis.map(lambda v: tuple(sorted(set(map(float, v)))))
_any_axis = st.one_of(_axis, _axis.map(tuple), _canonical_axis)
_plain_set_1d = st.one_of(st.none(), _any_axis, _any_axis.map(lambda a: (a,)))
_plain_set_2d = st.one_of(
    st.none(), st.tuples(_any_axis, _any_axis), st.lists(_any_axis, min_size=2, max_size=2)
)
# a Breaks is made only by merge_breaks, here from one or two plain inputs
_break_set_1d = st.one_of(
    _plain_set_1d, st.lists(_plain_set_1d, max_size=2).map(lambda s: merge_breaks(1, *s))
)
_break_set_2d = st.one_of(
    _plain_set_2d, st.lists(_plain_set_2d, max_size=2).map(lambda s: merge_breaks(2, *s))
)


def _same_breaks(new, old):
    """Equal, and equal in the repr of every element (so in the sign of zero)."""
    return new == old and [list(map(repr, a)) for a in new] == [list(map(repr, a)) for a in old]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_breaks_equals_the_kept_set_and_sort(data):
    dim = data.draw(st.sampled_from([1, 2]))
    sets = data.draw(st.lists(_break_set_1d if dim == 1 else _break_set_2d, max_size=4))
    merged = merge_breaks(dim, *sets)
    assert type(merged) is Breaks and _same_breaks(merged, _old_merge_breaks(dim, *sets))
    assert all(type(x) is float for axis in merged for x in axis)
    live = [bs for bs in sets if any(_normalize_breaks(bs, dim))]
    if len(live) == 1 and type(live[0]) is Breaks:
        assert merged is live[0]


def test_merge_breaks_returns_a_single_canonical_input_itself():
    one, two = ((0.25, 0.5, 0.75),), ((0.1, 0.2), (0.3,))
    # a plain canonical input gives an equal Breaks that shares its axis tuples
    b1, b2 = merge_breaks(1, one), merge_breaks(2, two)
    assert type(b1) is Breaks and b1 == one and b1[0] is one[0]
    assert type(b2) is Breaks and b2 == two and b2[0] is two[0] and b2[1] is two[1]
    # a Breaks is returned as itself, also among None and empty inputs
    for dim, b in ((1, b1), (2, b2)):
        assert merge_breaks(dim, b) is b and merge_breaks(dim, None, b, None) is b
        assert merge_breaks(dim, b, [()] * dim, merge_breaks(dim)) is b
        assert _normalize_breaks(b, dim) is b
    merged = merge_breaks(1, b1, ((0.5,),))  # two inputs: a fresh, equal Breaks
    assert merged is not b1 and _same_breaks(merged, one)
    # a Breaks of the wrong dimension is checked like any other input
    with pytest.raises(MeasureError, match=r"^breakpoints must be numbers, a pair of lists in 2D, got "):
        merge_breaks(1, b2)
    for given in ([0.25, 0.5, 0.75], (0.25, 0.5, 0.75), ((0.25, 0.5, 1),), ((0.5, 0.25),)):
        merged = merge_breaks(1, given)
        assert type(merged) is Breaks and _same_breaks(merged, _old_merge_breaks(1, given))
    dyadic = ((np.arange(1, 2048) / 2048).tolist(),)  # the sawtooth's breaks at j = 1024
    assert merge_breaks(1, dyadic) == _old_merge_breaks(1, dyadic)
    assert merge_breaks(1, (np.float64(0.5),))[0][0].__class__ is float


def test_a_breaks_is_never_scanned_again(monkeypatch):
    import operator
    import types

    from bvcalc import measures

    sawtooth = merge_breaks(1, (np.arange(1, 2048) / 2048).tolist())
    x_only, y_only = merge_breaks(2, ((0.25, 0.5), ())), merge_breaks(2, ((), (0.75,)))
    square = Domain(((0.0, 1.0), (0.0, 1.0)), 8)
    expected = {id(b): Domain(square.box, 8).cell_rule(breaks=tuple(b)) for b in (x_only, y_only)}

    def refuse(*args):
        raise AssertionError("a Breaks was checked again")

    # neither the element-type scan nor the sortedness scan of a lone run may run
    monkeypatch.setattr(measures, "_float_tuple", refuse)
    monkeypatch.setattr(measures, "operator", types.SimpleNamespace(lt=refuse, ne=operator.ne))
    assert merge_breaks(1, sawtooth) is sawtooth and merge_breaks(1, None, sawtooth) is sawtooth
    nodes, weights = Domain((0.0, 1.0), 64).cell_rule(breaks=sawtooth)
    assert len(nodes) == 4096 and weights.sum() == pytest.approx(1.0)
    for b in (x_only, y_only):
        got = square.cell_rule(breaks=b)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected[id(b)]))


@pytest.mark.parametrize("dom", _FOLD_DOMAINS[:2], ids=["unit-interval", "interval"])
def test_the_1d_cell_rule_integrates_cubics_exactly_on_each_cell(dom):
    breaks = (0.3, 1.0 / 3.0, 0.55)
    (lo, hi), = dom.box
    edges = np.unique(np.concatenate([np.linspace(lo, hi, dom.resolution + 1), breaks]))
    nodes, weights = dom.cell_rule(breaks)
    x, w = nodes[:, 0].reshape(-1, 2), weights.reshape(-1, 2)  # two nodes per cell, cell by cell
    a, b = edges[:-1, None], edges[1:, None]
    assert len(x) == len(edges) - 1 and np.all((a < x) & (x < b))
    coeffs = [0.7, -1.3, 2.1, -0.9]  # lowest degree first

    def antiderivative(t):
        return sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    exact = (antiderivative(b) - antiderivative(a))[:, 0]
    got = np.sum(w * np.polynomial.polynomial.polyval(x, coeffs), axis=1)
    assert np.allclose(got, exact, rtol=1e-13, atol=1e-15)
    # not exact beyond degree 3: x^4 leaves a gap on every cell
    quartic = np.sum(w * x**4, axis=1) - ((b**5 - a**5) / 5)[:, 0]
    assert np.all(np.abs(quartic) > 1e-13 * (b - a)[:, 0] ** 5)


_RULE_CASES = {
    1: [None, (0.3, 1.0 / 3.0, 0.55), (0.5, 0.3), [-0.0, 0.0, 0.5, 0.5]],
    2: [None, ((0.3,), (0.1, 0.45)), ((1.0 / 3.0,), ())],
}


@pytest.mark.parametrize("dom", _FOLD_DOMAINS, ids=["unit-interval", "interval", "rectangle"])
def test_cell_rule_is_built_once_per_domain_and_read_only(dom):
    dom = Domain(dom.box, dom.resolution)  # an empty memo
    for breaks in _RULE_CASES[dom.dim]:
        nodes, weights = dom.cell_rule(breaks)
        old = _old_cell_rule(dom, breaks)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip((nodes, weights), old))
        again = dom.cell_rule(breaks)
        assert again[0] is nodes and again[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
    # the same breaks spelt as arrays and lists find the same rule
    breaks = _RULE_CASES[dom.dim][-1]
    respelt = np.array(breaks) if dom.dim == 1 else [list(b) for b in breaks]
    assert dom.cell_rule(respelt)[0] is dom.cell_rule(breaks)[0]
    assert len(dom._rules) == len(_RULE_CASES[dom.dim])


def test_cell_rules_above_the_cap_are_not_kept():
    from bvcalc.measures import _MEMO_NODES

    # two nodes per cell in 1D: the cap counts nodes, not cells
    at_cap, above = Domain((0.0, 1.0), _MEMO_NODES // 2), Domain((0.0, 1.0), _MEMO_NODES // 2 + 1)
    assert at_cap.cell_rule()[0] is at_cap.cell_rule()[0] and len(at_cap._rules) == 1
    first, second = above.cell_rule(), above.cell_rule()
    assert first[0] is not second[0] and above._rules == {}
    assert np.array_equal(first[0], second[0]) and not first[1].flags.writeable
    assert len(first[1]) == _MEMO_NODES + 2


def test_a_filled_memo_leaves_equality_hash_and_repr_alone():
    from dataclasses import replace

    filled, fresh = unit_square(8), unit_square(8)
    filled.cell_rule(((0.3,), ()))
    filled.cell_rule(((), (0.5,)))
    assert filled._rules and not fresh._rules
    assert filled == fresh and hash(filled) == hash(fresh) and {filled: 1}[fresh] == 1
    assert repr(filled) == repr(fresh) == "Domain(box=((0.0, 1.0), (0.0, 1.0)), resolution=8)"
    assert replace(filled, resolution=4)._rules == {}
    assert filled != unit_square(16)


def test_breaks_that_give_the_same_cell_edges_share_one_rule():
    from bvcalc.bv import derivative, sawtooth_1d
    from bvcalc.measures import cell_part, lebesgue

    dom = interval(64)
    mu = lebesgue(dom)
    js = (1, 2, 4, 8, 16, 32)  # breaks k/(2j), each a grid edge for j <= 64/2
    for j in js:
        assert cell_part(mu, derivative(sawtooth_1d(dom, j)).breaks) is mu._cells
    assert dom.cell_rule((0.25, 0.5))[0] is mu._cells.points
    assert len(dom._rules) == 2 + len(js) and len(dom._edge_rules) == 1  # every breaks key, one rule
    off = derivative(sawtooth_1d(dom, 64)).breaks  # k/128: every other break is off the grid
    nodes = dom.cell_rule(off)[0]
    assert nodes is not mu._cells.points and len(nodes) == 2 * len(mu._cells.points)
    assert cell_part(mu, off).points is nodes and len(dom._edge_rules) == 2


def test_a_rule_above_the_cap_is_kept_in_neither_map():
    from bvcalc.measures import _MEMO_NODES

    above = Domain((0.0, 1.0), _MEMO_NODES // 2 + 1)
    for breaks in (None, (0.5,), (0.5,)):
        assert len(above.cell_rule(breaks)[1]) > _MEMO_NODES
    assert above._rules == {} and above._edge_rules == {}


@pytest.mark.parametrize("breaks", [[[0.5], [float("nan")]], [[float("-inf")], []]])
def test_2d_breaks_must_be_finite_in_both_documents(breaks):
    from bvcalc.bv import BVFunction, Piece

    dom = unit_square(8)
    with pytest.raises(MeasureError, match="^'breaks' must be finite, got "):
        ScalarRadonMeasure(dom, breaks=breaks)
    piece = Piece(region=dom.box, u=lambda n: n[:, :1], grad=lambda n: np.tile([1.0, 0.0], (len(n), 1, 1)))
    with pytest.raises(MeasureError, match="^'breaks' must be finite, got "):
        BVFunction(dom, 1, [Piece(piece.region, piece.u, piece.grad, breaks=breaks)])
    finite = [[0.5], [0.25, 0.75]]
    assert ScalarRadonMeasure(dom, breaks=finite).breaks == ((0.5,), (0.25, 0.75))
    assert BVFunction(dom, 1, [Piece(piece.region, piece.u, piece.grad, breaks=finite)]).breaks == ((0.5,), (0.25, 0.75))


@pytest.mark.parametrize("dim, breaks", [(1, "x"), (1, [["q"]]), (1, [[0.3], [0.7]]), (2, [0.5, 0.25]), (2, [[0.5], ["q"]])])
def test_breaks_that_are_not_numbers_are_rejected(dim, breaks):
    from bvcalc.bv import BVFunction, Piece

    dom = interval(8) if dim == 1 else unit_square(8)
    piece = Piece(region=dom.box, u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, dim)))
    message = "^breakpoints must be numbers, a pair of lists in 2D, got " + re.escape(repr(breaks)) + "$"
    for build in (lambda: merge_breaks(dim, breaks), lambda: ScalarRadonMeasure(dom, breaks=breaks),
                  lambda: BVFunction(dom, 1, [Piece(piece.region, piece.u, piece.grad, breaks=breaks)])):
        with pytest.raises(MeasureError, match=message):
            build()


# the ids are those these cases had when a measure document also took them
_BREAKS_CASES = {
    "doc7": ("x", "^breakpoints must be numbers, a pair of lists in 2D, got 'x'$"),
    "doc17": ([[0.3], [0.7]], r"^breakpoints must be numbers, a pair of lists in 2D, got \[\[0.3\], \[0.7\]\]$"),
    "doc18": ([float("nan")], r"^'breaks' must be finite, got \[nan\]$"),
    "doc19": ([0.5, float("inf")], r"^'breaks' must be finite, got \[0.5, inf\]$"),
}


@pytest.mark.parametrize(
    "breaks, message",
    [pytest.param(*case, id=f"{doc}-{case[1]}") for doc, case in _BREAKS_CASES.items()],
)
def test_scalar_from_json_malformed_raises_measure_error(breaks, message):
    """The breaks of a 1D scalar measure are checked as it is built."""
    dom = Domain((0.0, 1.0), 16)
    with pytest.raises(MeasureError, match=message):
        ScalarRadonMeasure(dom, breaks=breaks)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_merge_breaks_rejects_non_finite_breaks(bad):
    from bvcalc.bv import BVFunction, Piece

    shown = f"got \\[0.5, {bad}, 0.2\\]$"
    for given in ([0.5, bad, 0.2], (0.5, bad, 0.2), np.array([0.5, bad, 0.2]), [[0.5, bad, 0.2]]):
        with pytest.raises(MeasureError, match="^'breaks' must be finite, " + shown):
            merge_breaks(1, given)
        with pytest.raises(MeasureError, match=shown):  # beside a Breaks and None
            merge_breaks(1, merge_breaks(1, [0.25]), None, given)
    with pytest.raises(MeasureError, match=r"^'breaks' must be finite, got \[0.5, 0.25, " + f"{bad}\\]$"):
        merge_breaks(2, [[0.5], [0.25, bad]])
    # code-built measures and functions merge their breaks through merge_breaks
    dom = Domain((0.0, 1.0), 8)
    with pytest.raises(MeasureError, match=shown):
        ScalarRadonMeasure(dom, density=lambda n: np.ones(len(n)), breaks=[0.5, bad, 0.2])
    with pytest.raises(MeasureError, match=shown):
        MatrixRadonMeasure(dom, shape=(1, 1), density=lambda n: np.ones((len(n), 1, 1)),
                           breaks=[0.5, bad, 0.2])
    piece = Piece(region=dom.box, u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)), breaks=[0.5, bad, 0.2])
    with pytest.raises(MeasureError, match=shown):
        BVFunction(dom, 1, [piece])
    # so do the cell rules
    for rule in (dom.cell_rule, dom.gauss_cell_rule):
        with pytest.raises(MeasureError, match="^'breaks' must be finite, " + shown):
            rule([0.5, bad, 0.2])
    with pytest.raises(MeasureError, match=r"^'breaks' must be finite, got \[0.5, 0.25, " + f"{bad}\\]$"):
        Domain(((0.0, 1.0), (0.0, 1.0)), 4).cell_rule([[0.5], [0.25, bad]])
    # the finite breaks of the same calls still build, also when their sum overflows
    assert merge_breaks(1, [0.5, 0.2]) == ((0.2, 0.5),)
    assert merge_breaks(2, [[1e308, 1.5e308], [-1e308, -1.5e308]]) == ((1e308, 1.5e308), (-1.5e308, -1e308))
    assert ScalarRadonMeasure(dom, density=lambda n: np.ones(len(n)), breaks=[0.5, 0.2]).mass() == 1.0


def _old_frobenius(A):
    A = np.asarray(A, dtype=float)
    return np.sqrt(np.sum(A * A, axis=(-2, -1)))


_FROBENIUS_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -1e-310, 1e-200, 1e154, -1e200, 1.7e308, np.nan, np.inf, -np.inf]
)


def _frobenius_inputs(shape, lead, rng):
    """Random entries of every scale with special values planted at random
    places; the same values in a layout numpy does not read in C order, and
    as nested lists."""
    A = rng.standard_normal(lead + shape) * np.exp(rng.uniform(-40.0, 40.0, lead + shape))
    flat = A.reshape(-1)
    if flat.size:
        flat[rng.integers(0, flat.size, flat.size // 3 + 1)] = rng.choice(_FROBENIUS_SPECIALS, flat.size // 3 + 1)
    yield A
    yield np.swapaxes(np.ascontiguousarray(np.swapaxes(A, -1, -2)), -1, -2)
    if A.size:  # an empty nested list loses its shape
        yield A.tolist()


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (7, 1), (1, 7), (4, 2), (3, 3), (0, 2), (2, 0)]
)
@pytest.mark.parametrize("lead", [(), (1,), (257,), (3, 41), (0,)])
def test_frobenius_equals_the_two_axis_sum_bit_for_bit(shape, lead):
    from bvcalc.measures import frobenius

    rng = np.random.default_rng(sum(shape) * 100 + len(lead))
    for A in _frobenius_inputs(shape, lead, rng):
        with np.errstate(over="ignore", invalid="ignore"):
            new, old = frobenius(A), _old_frobenius(A)
        assert type(new) is type(old) and np.shape(new) == np.shape(old) == lead
        assert np.asarray(new).dtype == np.float64 and np.asarray(new).tobytes() == np.asarray(old).tobytes()


def test_frobenius_keeps_the_bits_of_every_pair_of_special_values():
    from bvcalc.measures import frobenius

    # every special value in a 1-by-2 block next to every other, so no pair is missed
    pairs = np.array(np.meshgrid(_FROBENIUS_SPECIALS, _FROBENIUS_SPECIALS)).reshape(2, -1).T[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        assert frobenius(pairs).tobytes() == _old_frobenius(pairs).tobytes()
    with pytest.raises(np.exceptions.AxisError):
        frobenius(np.ones(3))


@pytest.mark.parametrize("bounds", [(float("nan"), 1.0), (0.0, float("nan"))])
def test_a_nan_bound_is_rejected_in_a_box_and_in_a_region(bounds):
    # NaN compares False both ways, so "hi <= lo" let a NaN domain through
    with pytest.raises(MeasureError) as err:
        Domain((bounds,), 8)
    assert str(err.value) == f"box must have positive volume per axis, got {np.array([bounds])}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Domain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), 4), "only dimensions 1 and 2 are supported"),
        (lambda: point_masses(interval(8), CarrierRegistry(), [((0.5, 0.5), 1.0)]), "atom point dimension mismatch"),
        (lambda: MatrixRadonMeasure(interval(8), (1, 2)), "matrix column count must equal the domain dimension"),
        (lambda: SingularCarrier("p", "point"), "point carrier needs a location"),
        (lambda: SingularCarrier("s", "segment", endpoints=((0.2, 0.2), (0.2, 0.2))),
         "segment carrier has zero length"),
        (lambda: SingularCarrier("s", "segment", endpoints=((0.0, 0.0), (1.0, 0.0)), normal=(0.0, 2.0)),
         "segment normal must be unit length"),
        (lambda: SingularCarrier("c", "curve"), "unknown carrier kind 'curve'"),
        (lambda: (lambda r: (r.register_point("a", 0.25), r.register_point("a", 0.5)))(CarrierRegistry()),
         "carrier id 'a' already registered with different geometry"),
        # gamma's breaks put nodes at 0.495 and 0.505, inside the notch that mu's own nodes miss
        (lambda: rn_decompose(
            MatrixRadonMeasure(interval(8), (1, 1), breaks=[0.49, 0.51]),
            ScalarRadonMeasure(interval(8), density=lambda n: 1.0 * (np.abs(n[:, 0] - 0.5) > 0.01)),
        ), "mu cell density vanishes at a quadrature node"),
    ],
)
def test_construction_errors_of_domains_and_measures(build, message):
    with pytest.raises(MeasureError) as err:
        build()
    assert str(err.value) == message


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda r: ScalarRadonMeasure(interval(8), carrier_parts=point_masses(interval(8), r, [((_NAN,), 1.0)])),
         "atom point [nan] must be finite and in the domain"),
        (lambda r: point_masses(interval(8), r, [((0.5,), 1.0), ((_INF,), 1.0)]),
         "atom point [inf] must be finite and in the domain"),
        (lambda r: point_masses(interval(8), r, [((2.0,), 1.0)]),
         "atom point [2.0] must be finite and in the domain"),
        (lambda r: MatrixRadonMeasure(interval(8), (1, 1), carrier_parts=point_masses(interval(8), r, [((-0.5,), [[1.0]])])),
         "atom point [-0.5] must be finite and in the domain"),
        (lambda r: r.register_segment("s", (0.5, 0.0), (0.5, _NAN)),
         "carrier 's' endpoints must be finite, got [[0.5, 0.0], [0.5, nan]]"),
        (lambda r: r.register_segment("s", (0.5, 0.0), (0.5, 1.0), normal=(_NAN, 0.0)),
         "carrier 's' normal must be finite, got [nan, 0.0]"),
        (lambda r: r.register_point("p", _INF), "carrier 'p' point must be finite, got [inf]"),
    ],
    ids=["nan-atom", "inf-atom", "atom-outside", "matrix-atom-outside", "nan-segment", "nan-normal", "inf-point"],
)
def test_non_finite_or_outside_geometry_is_rejected(build, message):
    with pytest.raises(MeasureError) as err:
        build(CarrierRegistry())
    assert str(err.value) == message


def test_atoms_on_the_boundary_of_the_box_are_kept():
    reg = CarrierRegistry()
    m = ScalarRadonMeasure(
        unit_square(8), carrier_parts=point_masses(unit_square(8), reg, [((0.0, 1.0), 1.0), ((1.0, 0.5), 2.0)]),
        registry=reg,
    )
    assert m.mass() == 3.0


def _point_far_outside():
    reg = CarrierRegistry()
    reg.register_point("far", (2.0,))
    return ScalarRadonMeasure(
        interval(8), density=lambda n: np.ones(len(n)), carrier_parts=(("far", lambda p: np.ones(len(p))),),
        registry=reg,
    )


def _atom_of_a_wider_box():
    reg = CarrierRegistry()
    atoms = point_masses(interval(8), reg, [((0.8,), 1.0)])  # 0.8 is in [0, 1] but not in [0, 0.5]
    return ScalarRadonMeasure(Domain((0.0, 0.5), 8), carrier_parts=atoms, registry=reg)


def _segment_off_the_square():
    reg = CarrierRegistry()
    reg.register_segment("off", (3.0, 3.0), (4.0, 3.0))
    return ScalarRadonMeasure(unit_square(8), carrier_parts=(("off", lambda p: np.ones(len(p))),), registry=reg)


def _point_of_another_dimension():
    reg = CarrierRegistry()
    reg.register_point("line", (0.5,))
    return ScalarRadonMeasure(unit_square(8), carrier_parts=(("line", lambda p: np.ones(len(p))),), registry=reg)


@pytest.mark.parametrize(
    "build, cid",
    [
        (_point_far_outside, "far"),
        (_atom_of_a_wider_box, "atom:[0.8]"),
        (_segment_off_the_square, "off"),
        (_point_of_another_dimension, "line"),
    ],
    ids=["point", "atom", "segment", "dimension"],
)
def test_a_carrier_outside_the_box_is_rejected(build, cid):
    with pytest.raises(MeasureError) as err:
        build()
    assert str(err.value) == f"carrier {cid!r} lies outside the domain"


def test_registering_the_same_carrier_twice_returns_the_first():
    # two profiles with a jump at one position share its carrier
    reg = CarrierRegistry()
    first = reg.register_point("jump:0.5", (0.5,))
    assert reg.register_point("jump:0.5", (0.5,)) is first
    segment = reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    assert reg.register_segment("s", (0.5, 0.0), (0.5, 1.0)) is segment


def test_a_second_id_on_a_registered_segment_is_refused():
    # read as a second carrier, the jump would be mu-singular: area 3 in place of 1 + sqrt 2
    from bvcalc.functional import FunctionalSpec, evaluate
    from bvcalc.integrands import make_area

    from helpers import vertical_step_2d

    sq, reg = unit_square(32), CarrierRegistry()
    reg.register_segment("mu:line", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(sq, density=lambda n: np.ones(len(n)), registry=reg,
                            carrier_parts=(("mu:line", lambda p: np.ones(len(p))),))
    with pytest.raises(MeasureError) as err:
        vertical_step_2d(sq, 0.5, registry=reg, carrier_id="jump:line")
    assert str(err.value) == "segment 'jump:line' has the endpoints of registered segment 'mu:line'"
    with pytest.raises(MeasureError, match="^segment 'flipped' has the endpoints of registered segment 'mu:line'$"):
        reg.register_segment("flipped", (0.5, 1.0), (0.5 + 0.5 * _MATCH_TOL, 0.0))
    assert "jump:line" not in reg and "flipped" not in reg
    reg.register_segment("beside", (0.5 + 2 * _MATCH_TOL, 0.0), (0.5 + 2 * _MATCH_TOL, 1.0))
    u = vertical_step_2d(sq, 0.5, registry=reg, carrier_id="mu:line")
    assert evaluate(u, FunctionalSpec(make_area(), mu)).total == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)


def test_a_second_id_at_a_registered_point_returns_that_carrier():
    reg = CarrierRegistry()
    first = reg.register_point("jump:0.5", (0.5,))
    assert reg.register_point("mu-atom", (0.5,)) is first
    assert reg.register_point("mu-atom", (0.5 + 0.9 * _MATCH_TOL,)) is first
    assert "mu-atom" not in reg
    other = reg.register_point("mu-atom", (0.5 + 2.0 * _MATCH_TOL,))
    assert other is not first and other.cid == "mu-atom"
    # within _MATCH_TOL across a side of the grid cells the lookup uses, and in 2D
    side = 7 * _POINT_CELL
    assert reg.register_point("a", (side - 0.4 * _MATCH_TOL,)) is reg.register_point("b", (side + 0.4 * _MATCH_TOL,))
    corner = reg.register_point("c", (side - 0.3 * _MATCH_TOL, side - 0.3 * _MATCH_TOL))
    assert reg.register_point("d", (side + 0.3 * _MATCH_TOL, side + 0.3 * _MATCH_TOL)) is corner
    assert reg.register_point("e", (side + 0.8 * _MATCH_TOL, side + 0.8 * _MATCH_TOL)) is not corner


def test_the_boundary_demo_registers_one_carrier_per_point():
    """The two zero extensions of boundary-term-demo share one registry: the
    second finds the first's carriers at 0 and 1 instead of adding its own."""
    from bvcalc.bv import derivative, piecewise_affine_1d, zero_extension

    reg = CarrierRegistry()
    d, d_out = Domain((0.0, 1.0), 64), Domain((-0.5, 1.5), 64)
    zero_extension(piecewise_affine_1d(d, slopes=(1.0,), start_value=0.5, registry=reg), d_out)
    one = piecewise_affine_1d(d, slopes=(0.0,), start_value=1.0, registry=reg)
    De = derivative(zero_extension(one, d_out, carrier_prefix="bnd-one"))
    points = [c.point for c in reg._carriers.values() if c.kind == "point"]
    assert len(points) == 2 and "bnd-one:left" not in reg and "bnd-one:right" not in reg
    assert all(math.dist(p, q) > _MATCH_TOL for p, q in itertools.combinations(points, 2))
    assert [(p.tolist(), v.tolist()) for p, v in atoms_of(De).values()] == [([0.0], [[1.0]]), ([1.0], [[-1.0]])]
