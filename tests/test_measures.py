import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.measures import (
    CarrierRegistry,
    DecompositionError,
    Domain,
    MatrixRadonMeasure,
    MeasureError,
    ScalarRadonMeasure,
    absolutely_continuous_part,
    area_functional,
    measure_distance,
    mutually_singular,
    pair_with_test_function,
    rn_decompose,
    total_variation,
    zero_matrix_measure,
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
    assert total_variation(zero_matrix_measure(interval(), (1, 1))) == 0.0


def test_total_variation_direct_sum_1d():
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(
        interval(),
        (1, 1),
        density=ones_density((1, 1)),
        atoms=(((0.5,), [[2.0]]),),
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


def test_total_variation_region_and_empty_region():
    gamma = MatrixRadonMeasure(interval(), (1, 1), density=ones_density((1, 1)))
    assert total_variation(gamma, region=(0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)
    assert total_variation(gamma, region=(0.3, 0.3 + 1e-300)) == pytest.approx(0.0, abs=1e-12)


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
    assert total_variation(gamma, region=((0.0, 1.0), (0.0, 0.25))) == pytest.approx(
        0.25, abs=1e-12
    )


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
        atoms=(((0.5,), 1.0),),
        registry=reg,
        dominates_lebesgue=True,
    )
    gamma = MatrixRadonMeasure(
        dom, (1, 1), density=ones_density((1, 1)), atoms=(((0.5,), [[1.0]]),), registry=reg
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.cell_fn(nodes), 0.5)
    assert len(dec.atom_values) == 1
    _, w, v = dec.atom_values[0]
    assert w == 1.0 and v[0, 0] == pytest.approx(1.0)
    assert dec.remainder.is_structurally_zero()


def test_rn_decompose_jump_not_seen_by_mu():
    dom = unit_square()
    reg = CarrierRegistry()
    reg.register_segment("jump", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(
        dom, density=lambda n: np.ones(len(n)), registry=reg, dominates_lebesgue=True
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 2),
        carrier_parts=(("jump", lambda p: np.tile([[1.0, 0.0]], (len(p), 1, 1))),),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.cell_fn(nodes), 0.0)
    assert not dec.remainder.is_structurally_zero()
    assert total_variation(dec.remainder) == pytest.approx(1.0, abs=1e-12)
    assert mutually_singular(dec.remainder, _as_matrix(mu))


def test_rn_decompose_proportional():
    dom = interval()
    reg = CarrierRegistry()
    reg.register_point("pt", (0.25,))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0],
        atoms=(((0.75,), 0.5),),
        carrier_parts=(("pt", lambda p: 2.0 * np.ones(len(p))),),
        registry=reg,
        dominates_lebesgue=True,
    )
    c = 3.0
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: c * (1.0 + n[:, 0])[:, None, None],
        atoms=(((0.75,), [[c * 0.5]]),),
        carrier_parts=(("pt", lambda p: c * 2.0 * np.ones(len(p))[:, None, None]),),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    nodes, _ = dom.cell_rule()
    assert np.allclose(dec.cell_fn(nodes), c, rtol=1e-13)
    for _, _, v in dec.atom_values:
        assert v[0, 0] == pytest.approx(c, rel=1e-13)
    for cid, _, ratio in dec.carrier_fns:
        pts, _ = reg[cid].rule(dom.resolution)
        assert np.allclose(ratio(pts), c, rtol=1e-13)
    assert dec.remainder.is_structurally_zero()


def test_rn_decompose_requires_domination_flag():
    dom = interval()
    mu = ScalarRadonMeasure(dom, density=lambda n: np.ones(len(n)))
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
        dominates_lebesgue=True,
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

    parts = tuple(
        (cid, (lambda p, _f=fn: np.asarray(_f(p))[:, None, None] * e[None]))
        for cid, fn in mu.carrier_parts
    )
    atoms = tuple((p, w * e) for p, w in mu.atoms) if dim == 1 else ()
    return MatrixRadonMeasure(
        mu.domain, (1, dim), density=density, carrier_parts=parts, atoms=atoms,
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
            atoms=(((0.3,), float(rng.uniform(0.5, 2.0))),),
            registry=reg,
            dominates_lebesgue=True,
        )
        s0, s1 = rng.uniform(-2.0, 2.0, size=2)
        gamma = MatrixRadonMeasure(
            dom,
            (1, 1),
            density=lambda n, a=s0, b=s1: (a + b * n[:, 0])[:, None, None],
            atoms=(
                ((0.3,), [[float(rng.uniform(-1, 1))]]),
                ((0.7,), [[float(rng.uniform(-1, 1))]]),
            ),
            registry=reg,
        )
        dec = rn_decompose(gamma, mu)
        nodes, _ = dom.cell_rule()
        recon = dec.cell_fn(nodes) * np.asarray(mu.density_at(nodes))[:, None, None]
        assert np.allclose(recon, gamma.density_at(nodes), rtol=1e-12, atol=1e-15)
        ac = absolutely_continuous_part(dec)
        tv_sum = total_variation(ac) + total_variation(dec.remainder)
        assert tv_sum == pytest.approx(total_variation(gamma), rel=1e-12)
        assert mutually_singular(dec.remainder, _as_matrix(mu))


# ---------------------------------------------------------------------------
# area functional
# ---------------------------------------------------------------------------


def test_area_zero_density_is_volume():
    gamma = zero_matrix_measure(interval(), (1, 1))
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
    for _ in range(5):
        coef = rng.uniform(-2, 2, size=3)
        gamma = MatrixRadonMeasure(
            dom,
            (1, 1),
            density=lambda n, c=coef: (c[0] + c[1] * n[:, 0] + c[2] * n[:, 0] ** 2)[
                :, None, None
            ],
            atoms=(((0.4,), [[float(rng.uniform(-1, 1))]]),),
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
    dirac = MatrixRadonMeasure(dom, (1, 1), atoms=(((0.0,), [[1.0]]),))
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
    gamma = MatrixRadonMeasure(interval(), (1, 1), atoms=(((0.25,), [[2.0]]),))
    phi = bump_field([[1.0]])
    expected = 16.0 * 0.25 * 0.75 * 2.0
    assert pair_with_test_function(gamma, phi) == pytest.approx(expected, abs=1e-12)


def test_pairing_matches_direct_sum_oracle_1d():
    # oracle: direct midpoint sum over the same partition plus the explicit
    # atom term, sharing no quadrature code with the measures module
    rng = np.random.default_rng(11)
    m = 4096
    dom = Domain((0.0, 1.0), m)
    coef = rng.uniform(-1, 1, size=3)
    atom_x, atom_v = 0.6, 1.3
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n, c=coef: (c[0] + c[1] * n[:, 0] + c[2] * n[:, 0] ** 2)[:, None, None],
        atoms=(((atom_x,), [[atom_v]]),),
    )
    phi = bump_field([[1.0]])

    oracle = 0.0
    for k in range(m):
        x = (k + 0.5) / m
        oracle += 16.0 * x * (1.0 - x) * (coef[0] + coef[1] * x + coef[2] * x * x) / m
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
        dom, (1, 1), density=ones_density((1, 1)), atoms=(((0.5,), [[1.0]]),), registry=reg
    )
    g2 = MatrixRadonMeasure(
        dom, (1, 1), density=ones_density((1, 1)), atoms=(((0.5,), [[3.0]]),), registry=reg
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
    dom = interval()
    with pytest.raises(MeasureError):
        ScalarRadonMeasure(
            dom, density=lambda n: n[:, 0], dominates_lebesgue=True, eps=0.01
        )


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


def _old_mass(m, region=None):
    from bvcalc.measures import _point_in_region

    nodes, weights = m.domain.cell_rule(breaks=m.breaks, region=region)
    total = float(np.dot(weights, m.density_at(nodes)))
    for cid, fn in m.carrier_parts:
        pts, w = m.registry[cid].rule(m.domain.resolution, region=region)
        if len(pts):
            total += float(np.dot(w, np.asarray(fn(pts))))
    for p, w in m.atoms:
        if region is None or _point_in_region(p, region):
            total += w
    return total


def _frob(values):
    return np.sqrt(np.sum(values * values, axis=(1, 2)))


def _old_tv_or_area(gamma, region=None, area=False):
    from bvcalc.measures import _point_in_region

    nodes, weights = gamma.domain.cell_rule(breaks=gamma.breaks, region=region)
    cells = _frob(gamma.density_at(nodes)) if len(nodes) else None
    if cells is not None and area:
        cells = np.sqrt(1.0 + cells**2)
    total = float(np.dot(weights, cells)) if len(nodes) else 0.0
    for cid, fn in gamma.carrier_parts:
        pts, w = gamma.carrier(cid).rule(gamma.domain.resolution, region=region)
        if len(pts):
            total += float(np.dot(w, _frob(np.asarray(fn(pts)))))
    for p, v in gamma.atoms:
        if region is None or _point_in_region(p, region):
            total += float(np.linalg.norm(v))
    return total


def _old_pair(gamma, phi):
    nodes, weights = gamma.domain.cell_rule(breaks=gamma.breaks)
    total = float(
        np.dot(weights, np.sum(np.asarray(phi(nodes)) * gamma.density_at(nodes), axis=(1, 2)))
    )
    for cid, fn in gamma.carrier_parts:
        pts, w = gamma.carrier(cid).rule(gamma.domain.resolution)
        total += float(
            np.dot(w, np.sum(np.asarray(phi(pts)) * np.asarray(fn(pts)), axis=(1, 2)))
        )
    for p, v in gamma.atoms:
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
    ac_cells = float(np.dot(weights * a, F(nodes, dec.cell_fn(nodes))))
    ac_atoms = 0.0
    for p, w, value in dec.atom_values:
        ac_atoms += w * F(p, value)
    ac_carriers = 0.0
    for cid, mfn, ratio in dec.carrier_fns:
        pts, wts = mu.carrier(cid).rule(u.domain.resolution)
        ac_carriers += float(np.dot(wts * np.asarray(mfn(pts)), F(pts, ratio(pts))))
    singular = _singular_term(F, dec.remainder, u.domain)
    boundary = boundary_term(u, F) if spec.include_boundary else 0.0
    return EvaluationBreakdown(ac_cells, ac_atoms, ac_carriers, singular, boundary)


def _old_scalar_rn_decompose(lam, mu):
    from bvcalc.measures import _MATCH_TOL, _ZERO_TOL

    if not mu.dominates_lebesgue:
        raise DecompositionError("mu must be flagged dominates-Lebesgue")

    def cell_fn(pts, _l=lam, _m=mu):
        return np.asarray(_l.density_at(pts)) / np.asarray(_m.density_at(pts))

    matched = set()
    atom_values = []
    for p, w in mu.atoms:
        value = 0.0
        for i, (q, v) in enumerate(lam.atoms):
            if np.linalg.norm(p - q) <= _MATCH_TOL:
                value = v / w
                matched.add(i)
                break
        atom_values.append((p, w, value))
    rem_atoms = [(p, v) for i, (p, v) in enumerate(lam.atoms) if i not in matched]

    mu_parts = dict(mu.carrier_parts)
    carrier_fns, rem_parts = [], []
    for cid, lfn in lam.carrier_parts:
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
    for cid, mfn in mu.carrier_parts:
        if cid not in charged:
            carrier_fns.append((cid, mfn, lambda p: np.zeros(len(p))))
    remainder = ScalarRadonMeasure(
        lam.domain, atoms=tuple(rem_atoms), carrier_parts=tuple(rem_parts),
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
        atoms=(((0.3,), 0.7), ((0.9,), 1.1)),
        carrier_parts=(("p1", lambda p: 2.0 + p[:, 0]), ("p3", lambda p: 0.5 + 0 * p[:, 0])),
        registry=reg,
        dominates_lebesgue=True,
        breaks=(0.5,),
    )
    lam = ScalarRadonMeasure(
        dom,
        density=lambda n: 0.5 + np.sin(3.0 * n[:, 0]) ** 2,
        atoms=(((0.3,), 0.4), ((0.6,), 1.3)),
        carrier_parts=(("p1", lambda p: 0.25 + p[:, 0]), ("p2", lambda p: 3.0 + 0 * p[:, 0])),
        registry=reg,
        breaks=(1.0 / 3.0,),
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: np.cos(5.0 * n[:, 0])[:, None, None],
        atoms=(((0.3,), [[-0.8]]), ((0.65,), [[1.7]])),
        carrier_parts=(("p1", lambda p: (1.0 - 3.0 * p[:, 0])[:, None, None]),),
        registry=reg,
    )
    return dom, reg, mu, lam, gamma


def test_scalar_rn_decompose_is_the_shape_0_case():
    dom, reg, mu, lam, _ = _mixed_1d()
    old_atoms, old_cell_fn, old_carriers, old_rem = _old_scalar_rn_decompose(lam, mu)
    dec = rn_decompose(lam, mu)
    assert len(dec.atom_values) == len(old_atoms) == 2
    for (p, w, v), (q, w0, v0) in zip(dec.atom_values, old_atoms):
        assert np.array_equal(p, q) and w == w0 and np.array_equal(v, v0)
    assert [v for _, _, v in old_atoms] == [0.4 / 0.7, 0.0]  # shared, then unshared
    nodes, _ = dom.cell_rule(breaks=((0.5, 1.0 / 3.0),))
    assert np.array_equal(dec.cell_fn(nodes), old_cell_fn(nodes))
    assert [c for c, _, _ in dec.carrier_fns] == [c for c, _, _ in old_carriers] == ["p1", "p3"]
    for (cid, mfn, ratio), (_, mfn0, ratio0) in zip(dec.carrier_fns, old_carriers):
        pts, _ = reg[cid].rule(dom.resolution)
        assert mfn is mfn0 and np.array_equal(ratio(pts), ratio0(pts))
    rem = dec.remainder
    assert isinstance(rem, ScalarRadonMeasure) and rem.density is None
    assert [(tuple(p), w) for p, w in rem.atoms] == [(tuple(p), w) for p, w in old_rem.atoms]
    assert rem.carrier_parts == old_rem.carrier_parts
    assert rem.breaks == old_rem.breaks and rem.mass() == old_rem.mass()
    assert not dec.is_absolutely_continuous()
    # without the unshared atom and carrier lambda is absolutely continuous
    lam_ac = ScalarRadonMeasure(
        dom, density=lam.density, atoms=lam.atoms[:1], carrier_parts=lam.carrier_parts[:1],
        registry=reg,
    )
    assert rn_decompose(lam_ac, mu).is_absolutely_continuous()


def test_scalar_rn_decompose_2d_segment_rejection_unchanged():
    dom = unit_square(16)
    reg = CarrierRegistry()
    reg.register_segment("s", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: np.ones(len(n)),
        carrier_parts=(("s", lambda p: np.maximum(0.0, p[:, 1] - 0.5)),),
        registry=reg,
        dominates_lebesgue=True,
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
    (_, _, ratio), = rn_decompose(lam, mu).carrier_fns
    pts, _ = reg["s"].rule(dom.resolution)
    assert np.array_equal(ratio(pts), ratio0(pts)) and np.any(ratio(pts) == 0.0)


def _integral_cases():
    """(measure, exact?) pairs: exact unless it has atoms and carriers."""
    dom, reg, mu, lam, gamma = _mixed_1d()
    no_atoms = MatrixRadonMeasure(
        dom, (1, 1), density=gamma.density, carrier_parts=gamma.carrier_parts, registry=reg
    )
    no_carriers = MatrixRadonMeasure(dom, (1, 1), density=gamma.density, atoms=gamma.atoms)
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
        (ScalarRadonMeasure(dom, density=mu.density, atoms=mu.atoms), True),
    ]


def _same(new, old, exact):
    if exact:
        assert new == old
    else:
        assert new == pytest.approx(old, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("region", [None, (0.25, 0.7), (0.3, 0.3), (0.46, 0.6)])
def test_rewritten_integrals_match_the_old_loops_1d(region):
    matrix, scalar = _integral_cases()
    for gamma, exact in matrix[:3]:
        _same(total_variation(gamma, region), _old_tv_or_area(gamma, region), exact)
        _same(area_functional(gamma, region), _old_tv_or_area(gamma, region, area=True), exact)
        if region is None:
            phi = bump_field([[1.0]])
            _same(pair_with_test_function(gamma, phi), _old_pair(gamma, phi), exact)
    for m, exact in scalar:
        _same(m.mass(region), _old_mass(m, region), exact)


@pytest.mark.parametrize("region", [None, ((0.0, 1.0), (0.0, 0.5)), ((0.1, 0.3), (0.5, 0.9))])
def test_rewritten_integrals_match_the_old_loops_2d(region):
    (gamma, exact), = _integral_cases()[0][3:]
    assert total_variation(gamma, region) == _old_tv_or_area(gamma, region)
    assert area_functional(gamma, region) == _old_tv_or_area(gamma, region, area=True)
    phi = bump_field([[1.0, -0.5]])
    assert pair_with_test_function(gamma, phi) == _old_pair(gamma, phi)


def test_evaluate_breakdown_matches_the_old_loops():
    from bvcalc.functional import evaluate
    from bvcalc.scenarios import build_case_1d, random_case_description

    rng = np.random.default_rng(5)
    for _ in range(12):
        u, spec = build_case_1d(random_case_description(rng), resolution=400)
        assert evaluate(u, spec).as_dict() == _old_evaluate(u, spec).as_dict()


def test_evaluate_breakdown_matches_the_old_loops_2d_carriers():
    from bvcalc.bv import vertical_step_2d
    from bvcalc.functional import FunctionalSpec, evaluate
    from bvcalc.integrands import make_area, make_norm

    dom = unit_square(24)
    reg = CarrierRegistry()
    u = vertical_step_2d(dom, threshold=0.5, registry=reg, carrier_id="jump")
    reg.register_segment("other", (0.25, 0.0), (0.25, 1.0))
    mu = ScalarRadonMeasure(
        dom,
        density=lambda n: 1.0 + n[:, 0] * n[:, 1],
        atoms=(((0.7, 0.3), 0.5),),
        carrier_parts=(("other", lambda p: 0.5 + p[:, 1]), ("jump", lambda p: 1.0 + p[:, 1] ** 2)),
        registry=reg,
        dominates_lebesgue=True,
    )
    for F in (make_norm(1, 2), make_area(1, 2)):
        for m in (mu, ScalarRadonMeasure(dom, density=mu.density, registry=reg, dominates_lebesgue=True)):
            spec = FunctionalSpec(F, m, dom)
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
        atoms=tuple(((x,), 0.5 + x) for x in sorted(mu_atoms)),
        carrier_parts=tuple((cid, lambda p: 0.75 + p[:, 0]) for cid in sorted(mu_carriers)),
        registry=reg,
        dominates_lebesgue=True,
    )
    gamma = MatrixRadonMeasure(
        dom,
        (1, 1),
        density=lambda n: (coef[0] + coef[1] * n[:, 0] + coef[2] * n[:, 0] ** 2)[:, None, None],
        atoms=tuple(((x,), [[v]]) for x, v in sorted(gamma_atoms.items())),
        carrier_parts=tuple(
            (cid, lambda p, _v=v: np.full((len(p), 1, 1), _v))
            for cid, v in sorted(gamma_carriers.items())
        ),
        registry=reg,
    )
    dec = rn_decompose(gamma, mu)
    total = total_variation(absolutely_continuous_part(dec)) + total_variation(dec.remainder)
    assert total == pytest.approx(total_variation(gamma), rel=1e-12, abs=1e-14)
    assert mutually_singular(dec.remainder, _as_matrix(mu))
