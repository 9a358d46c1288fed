import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.integrands import (
    Integrand,
    IntegrandError,
    QuasiconvexityWitness,
    RecessionError,
    catalog_integrand,
    generalized_recession,
    laminate_field,
    make_area,
    make_norm,
    make_shifted_norm,
    make_w_shape,
    quasiconvexity_refuter,
    rank_one_convexity_check,
    recession,
    recession_values,
    sq_envelope,
    transform_T,
    transform_T_inv,
    x_modulated,
)

from helpers import validate_growth

CATALOG = [
    make_norm(),
    make_area(),
    make_w_shape(),
    make_shifted_norm(),
    x_modulated(make_norm()),
    x_modulated(make_area()),
]


def random_matrices(count, N, n, radius, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, N, n))
    mags = np.sqrt(np.sum(A * A, axis=(1, 2)))
    scales = rng.uniform(0, radius, size=count) / np.maximum(mags, 1e-12)
    return A * scales[:, None, None]


# ---------------------------------------------------------------------------
# growth metadata
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_catalog_growth_bounds(f):
    assert validate_growth(f)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_of_constant():
    f = Integrand("one", (1, 1), lambda x, A: np.ones(len(A)), 0.0, 1.0)
    Tf = transform_T(f)
    for r in (0.0, 0.3, 0.9):
        assert Tf(None, np.array([[r]])) == pytest.approx(1.0 - r, abs=1e-14)


def test_transform_of_norm_is_identity_profile():
    Tf = transform_T(make_norm())
    for r in (0.0, 0.25, 0.99):
        assert Tf(None, np.array([[r]])) == pytest.approx(r, abs=1e-14)


def test_transform_rejects_closed_ball_argument():
    Tf = transform_T(make_norm())
    with pytest.raises(IntegrandError):
        Tf(None, np.array([[1.0]]))


def test_transform_inverse_of_zero_and_norm():
    Tinv0 = transform_T_inv(lambda x, B: np.zeros(len(B)))
    assert Tinv0(None, np.array([[5.0]])) == 0.0
    Tinv = transform_T_inv(lambda x, B: np.sqrt(np.sum(B * B, axis=(1, 2))))
    assert Tinv(None, np.array([[7.0]])) == pytest.approx(7.0, abs=1e-12)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_round_trip_on_samples(f):
    N, n = f.dims
    A = random_matrices(1000, N, n, radius=1e6, seed=42)
    x = np.random.default_rng(0).uniform(0, 1, size=(1000, 1))
    back = transform_T_inv(transform_T(f))
    vals = f(x, A)
    rt = back(x, A)
    assert np.max(np.abs(rt - vals) / (1.0 + np.abs(vals))) <= 1e-12


def test_round_trip_other_direction():
    g = lambda x, B: 1.0 - np.sum(B * B, axis=(1, 2))
    B = random_matrices(1000, 1, 1, radius=0.999, seed=3)
    forward = transform_T(transform_T_inv(g))
    vals = g(None, B)
    rt = forward(None, B)
    assert np.max(np.abs(rt - vals) / (1.0 + np.abs(vals))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-1e6, 1e6))
def test_round_trip_scalar_hypothesis(t):
    f = make_area()
    back = transform_T_inv(transform_T(f))
    A = np.array([[t]])
    assert back(None, A) == pytest.approx(f(None, A), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# recession
# ---------------------------------------------------------------------------


def test_recession_of_area_is_norm():
    f = make_area()
    for t in (0.0, 0.5, 3.0, 100.0):
        res = recession(f, None, np.array([[t]]))
        assert abs(res.value - t) <= 1e-6 * (1.0 + t)


def test_recession_of_one_homogeneous_is_exact():
    f = make_norm()
    res = recession(f, None, np.array([[2.5]]))
    assert res.value == pytest.approx(2.5, abs=1e-14)
    assert res.diagnostic == pytest.approx(0.0, abs=1e-14)


def test_recession_nonstabilizing_raises():
    wild = Integrand(
        "wild",
        (1, 1),
        lambda x, A: np.sqrt(np.sum(A * A, axis=(1, 2)))
        * np.sin(np.log1p(np.sqrt(np.sum(A * A, axis=(1, 2))))),
        0.0,
        1.0,
    )
    with pytest.raises(RecessionError):
        recession(wild, None, np.array([[1.0]]))


def test_recession_values_without_analytic_recession_runs_the_schedule():
    f = Integrand("area-no-rec", (1, 1), lambda x, A: np.sqrt(1.0 + np.sum(A * A, axis=(1, 2))),
                  1.0, 1.0)
    A = np.array([[[0.5]], [[-2.0]], [[3.0]]])
    x = np.array([[0.1], [0.2], [0.3]])
    assert recession_values(f, None, A).tolist() == [recession(f, None, Ak).value for Ak in A]
    assert recession_values(f, x, A).tolist() == [recession(f, xk, Ak).value for xk, Ak in zip(x, A)]


def test_sq_identity_scaling_for_envelope():
    G = sq_envelope(make_area(), 1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        mag = rng.uniform(G.radius, 10 * G.radius)
        A = np.array([[mag]])
        assert G(None, A) == pytest.approx(G.recession(None, A) - G.index, rel=1e-12)


def test_generalized_recession_matches_limit_for_convex():
    f = make_area()
    A = np.array([[2.0]])
    lim = recession(f, None, A).value
    gen = generalized_recession(f, None, A).value
    assert abs(gen - lim) <= 1e-6


def test_generalized_recession_one_homogeneous_exact():
    f = make_norm()
    A = np.array([[3.0]])
    assert generalized_recession(f, None, A).value == pytest.approx(3.0, abs=1e-14)


def test_generalized_recession_decaying_oscillation():
    f = Integrand(
        "osc",
        (1, 1),
        lambda x, A: np.sqrt(np.sum(A * A, axis=(1, 2)))
        + np.sin(np.sqrt(np.sum(A * A, axis=(1, 2)))),
        0.0,
        2.0,
    )
    A = np.array([[1.7]])
    assert abs(generalized_recession(f, None, A).value - 1.7) <= 1e-6


def test_recession_homogeneity_property():
    rng = np.random.default_rng(8)
    f = make_area()
    for _ in range(25):
        A = rng.standard_normal((1, 1)) * rng.uniform(0.1, 50)
        base = recession(f, None, A).value
        for s in (0.5, 2.0, 10.0):
            scaled = recession(f, None, s * A).value
            assert abs(scaled - s * base) <= 1e-8 * (1.0 + s * abs(A[0, 0]))


# ---------------------------------------------------------------------------
# quasiconvexity refuter
# ---------------------------------------------------------------------------


def test_refuter_none_for_convex():
    for f in (make_norm(), make_area()):
        assert quasiconvexity_refuter(f, np.array([[0.3]]), grid=16) is None


def test_refuter_w_shape_witness_is_minus_one():
    f = make_w_shape()
    tent = laminate_field(np.array([1.0]), np.array([1.0]), oscillations=1, slope=1.0)
    witness = quasiconvexity_refuter(f, np.array([[0.0]]), trial_fields=[tent], grid=16)
    assert witness is not None
    assert witness.value == pytest.approx(-1.0, abs=1e-12)


def test_refuter_witness_survives_grid_doubling():
    f = make_w_shape()
    witness = quasiconvexity_refuter(f, np.array([[0.0]]), grid=16)
    assert witness is not None
    refined = witness.reevaluate(f, np.array([[0.0]]))
    assert refined < -1e-9


def test_refuter_none_for_norm_any_base_point():
    rng = np.random.default_rng(12)
    f = make_norm(N=2, n=2)
    A = rng.standard_normal((2, 2))
    assert quasiconvexity_refuter(f, A, grid=8) is None


# ---------------------------------------------------------------------------
# rank-one convexity
# ---------------------------------------------------------------------------


def test_rank_one_convex_has_no_violation():
    rep = rank_one_convexity_check(
        make_area(N=2, n=2), np.zeros((2, 2)), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert rep.max_violation <= 1e-12


def test_rank_one_w_shape_violation_at_wells():
    rep = rank_one_convexity_check(
        make_w_shape(), np.zeros((1, 1)), np.array([1.0]), np.array([1.0])
    )
    assert rep.max_violation == pytest.approx(1.0, abs=1e-12)
    t1, tm, t2 = rep.worst_triple
    assert tm == pytest.approx(0.0, abs=1e-12)


def test_rank_one_quasiconvex_catalog_low_violation():
    for f in (make_norm(), make_shifted_norm()):
        rep = rank_one_convexity_check(f, np.array([[0.2]]), np.array([1.0]), np.array([1.0]))
        assert rep.max_violation <= 1e-9


# ---------------------------------------------------------------------------
# special quasiconvex envelope
# ---------------------------------------------------------------------------


def test_sq_envelope_area_radius_and_branch():
    G1 = sq_envelope(make_area(), 1)
    assert G1.radius <= 2.0
    # past the crossover sqrt(1 + t^2) = 2t - 1 (t = 4/3) the linear branch wins
    for t in (1.5, 2.0, 10.0):
        assert G1(None, np.array([[t]])) == pytest.approx(2 * t - 1, abs=1e-12)
    assert G1(None, np.array([[0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_sq_envelope_monotone_and_above_base():
    F = make_area()
    A = random_matrices(1000, 1, 1, radius=50, seed=77)
    prev = None
    for i in (1, 2, 4, 8):
        G = sq_envelope(F, i)
        vals = G(None, A)
        base = F(None, A)
        assert np.all(vals >= base - 1e-12)
        if prev is not None:
            assert np.all(prev >= vals - 1e-12)
        prev = vals


def test_sq_envelope_identity_outside_radius():
    F = make_area()
    for i in (1, 2, 4, 8):
        G = sq_envelope(F, i)
        assert G.validate_sq()


def test_sq_envelope_pointwise_decrease_to_base():
    F = make_area()
    A = np.array([[0.7]])
    gaps = [sq_envelope(F, i)(None, A) - F(None, A) for i in (1, 2, 4, 8, 16, 32)]
    assert all(g >= -1e-12 for g in gaps)
    assert all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))
    assert gaps[-1] == pytest.approx(0.0, abs=1e-6) or gaps[-1] < gaps[0]


def test_sq_envelope_requires_quasiconvex_flag():
    with pytest.raises(IntegrandError):
        sq_envelope(make_w_shape(), 1)


def test_sq_envelope_rejects_an_x_dependent_integrand():
    # the envelope probes F at x = None, so an x-dependent F is refused before any probe
    F = x_modulated(make_norm())
    F.fn = F.recession_analytic = None  # a probe would fail with a TypeError
    with pytest.raises(IntegrandError, match="^envelope requires an x-independent integrand, got 'x-mod-norm'$"):
        sq_envelope(F, 1)


_AT_ZERO = np.zeros((1, 1))


@pytest.mark.parametrize(
    "what, probe",
    [
        ("quasiconvexity refutation", lambda F: quasiconvexity_refuter(F, _AT_ZERO)),
        (
            "quasiconvexity refutation",
            lambda F: QuasiconvexityWitness(laminate_field([1.0], [1.0]), -1.0, 8).reevaluate(F, _AT_ZERO),
        ),
        ("rank-one convexity check", lambda F: rank_one_convexity_check(F, _AT_ZERO, [1.0], [1.0])),
    ],
    ids=["refuter", "reevaluate", "rank-one"],
)
def test_probes_at_no_point_reject_an_x_dependent_integrand(what, probe):
    # each probe reads F at x = None, where an x-dependent F has no value
    with pytest.raises(IntegrandError, match=f"^{what} requires an x-independent integrand, got 'x-mod-area'$"):
        probe(x_modulated(make_area()))


@pytest.mark.parametrize(
    "read",
    [
        lambda G: G(None, _AT_ZERO),
        lambda G: G.recession(None, _AT_ZERO),
        lambda G: transform_T(G)(None, 0.5 * np.eye(1)),
        lambda G: transform_T_inv(G)(None, 2.0 * np.eye(1)),
    ],
    ids=["value", "recession", "T", "T-inverse"],
)
def test_an_x_dependent_integrand_read_at_no_point_raises_a_typed_error(read):
    # the catch-all guard of Integrand: x = None has no value for (1 + x_1/2) F(A)
    message = "^a read at x = None requires an x-independent integrand, got 'x-mod-area'$"
    with pytest.raises(IntegrandError, match=message):
        read(x_modulated(make_area()))


def test_x_modulated_passes_x_to_its_base():
    F = x_modulated(x_modulated(make_norm()))
    x = np.array([[0.0], [0.5], [1.0]])
    A = np.array([[[2.0]], [[-1.0]], [[3.0]]])
    expected = (1.0 + 0.5 * x[:, 0]) ** 2 * np.abs(A[:, 0, 0])
    assert F(x, A) == pytest.approx(expected, rel=1e-15)
    assert F.recession(x, A) == pytest.approx(expected, rel=1e-15)


def test_sq_envelope_one_homogeneous_base():
    G1 = sq_envelope(make_norm(), 1)
    assert G1(None, np.array([[0.0]])) == pytest.approx(0.0, abs=1e-12)
    A = random_matrices(200, 1, 1, radius=30, seed=5)
    assert np.all(G1(None, A) >= make_norm()(None, A) - 1e-12)


# ---------------------------------------------------------------------------
# folded transforms, directions and radius search against kept copies of the
# code they replaced: values stay bit for bit
# ---------------------------------------------------------------------------


def _old_transform_T(f):
    from bvcalc.measures import frobenius

    def Tf(x, B):
        B = np.asarray(B, dtype=float)
        scalar = B.ndim == 2
        Bb = B[None] if scalar else B
        r = frobenius(Bb)
        if np.any(r >= 1.0):
            raise IntegrandError("transform argument must satisfy |B| < 1")
        scale = 1.0 - r
        vals = scale * np.asarray(f(x, Bb / scale[:, None, None]))
        return float(vals[0]) if scalar else vals

    return Tf


def _old_transform_T_inv(g):
    from bvcalc.measures import frobenius

    def Tinv(x, A):
        A = np.asarray(A, dtype=float)
        scalar = A.ndim == 2
        Ab = A[None] if scalar else A
        scale = 1.0 + frobenius(Ab)
        vals = scale * np.asarray(g(x, Ab / scale[:, None, None]))
        return float(vals[0]) if scalar else vals

    return Tinv


def _old_fixed_directions(N, n, seed):
    from bvcalc.measures import frobenius

    dirs = []
    for i in range(N):
        for j in range(n):
            E = np.zeros((N, n))
            E[i, j] = 1.0
            dirs.append(E)
    dirs.append(np.ones((N, n)) / math.sqrt(N * n))
    rng = np.random.default_rng(seed)
    for _ in range(8):
        D = rng.standard_normal((N, n))
        dirs.append(D / frobenius(D))
    return dirs


def _old_sq_radius(F, i):
    from bvcalc.measures import frobenius

    if F.has_analytic_recession():
        slope = lambda A: F.recession(None, A)
    else:
        slope = lambda A: generalized_recession(F, None, A).value
    radii = [2.0**k for k in range(0, 21)]
    mags = sorted(set(radii) | {1.5 * r for r in radii[:-1]})
    values = {}
    dirs = _old_fixed_directions(*F.dims, 9)
    for D in dirs:
        for m in mags:
            A = m * np.asarray(D)
            values[(id(D), m)] = (float(np.asarray(F(None, A))), slope(A) + frobenius(A) / i - i)
    for r in radii:
        good = True
        for D in dirs:
            for m in mags:
                if m < r:
                    continue
                fv, bv = values[(id(D), m)]
                if fv > bv + 1e-12 * (1 + abs(fv)):
                    good = False
                    break
            if not good:
                break
        if good:
            return r
    return None


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_transforms_equal_the_kept_copies(f):
    x = np.random.default_rng(1).uniform(0, 1, size=(200, 1))
    B = random_matrices(200, 1, 1, radius=0.999, seed=5)
    A = random_matrices(200, 1, 1, radius=1e4, seed=6)
    for new, old, batch in (
        (transform_T(f), _old_transform_T(f), B),
        (transform_T_inv(f), _old_transform_T_inv(f), A),
        (transform_T(transform_T_inv(f)), _old_transform_T(_old_transform_T_inv(f)), B),
    ):
        assert np.array_equal(new(x, batch), old(x, batch))
        for k in (0, 17, 199):
            assert new(x[k], batch[k]) == old(x[k], batch[k])
            assert type(new(x[k], batch[k])) is float
    for bad in (np.array([[1.0]]), np.array([[-1.5]]), np.concatenate([B[:3], [[[1.0]]]])):
        for Tf in (transform_T(f), _old_transform_T(f)):
            with pytest.raises(IntegrandError, match=r"^transform argument must satisfy \|B\| < 1$"):
                Tf(None, bad)


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_fixed_directions_keep_their_order(dims):
    from bvcalc.integrands import _fixed_directions

    for seed in (9, 2024):
        new, old = _fixed_directions(*dims, seed), _old_fixed_directions(*dims, seed)
        assert len(new) == len(old) == dims[0] * dims[1] + 9
        assert all(a.shape == b.shape == dims and np.array_equal(a, b) for a, b in zip(new, old))


_NO_ANALYTIC_AREA = Integrand(
    "area-no-recession", (1, 1), make_area().fn, 1.0, 1.0, convexity="convex"
)


@pytest.mark.parametrize(
    "F",
    [make_norm(), make_area(), make_shifted_norm(), make_norm(2, 2), _NO_ANALYTIC_AREA],
    ids=["norm", "area", "shifted-norm", "norm-2x2", "area-no-recession"],
)
def test_sq_radius_equals_the_kept_search(F):
    for i in (1, 2, 4, 8, 16, 32):
        assert sq_envelope(F, i).radius == _old_sq_radius(F, i)


def test_catalog_integrand_rejects_an_unknown_name():
    with pytest.raises(IntegrandError, match="^unknown catalog integrand 'cubic'$"):
        catalog_integrand("cubic")


@pytest.mark.parametrize("i", [0, -1])
def test_sq_envelope_index_must_be_positive(i):
    with pytest.raises(IntegrandError, match="^envelope index must be positive$"):
        sq_envelope(make_norm(), i)
