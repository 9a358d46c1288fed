import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc import integrands, young
from bvcalc.bv import (
    derivative,
    heaviside_1d,
    piecewise_affine_1d,
    ramp_1d,
    sawtooth_1d,
    scalar_bumps,
)
from bvcalc.functional import FunctionalSpec, evaluate, geometric_js
from bvcalc.integrands import (
    Integrand,
    generalized_recession,
    make_area,
    make_norm,
    make_shifted_norm,
    make_w_shape,
    recession_values,
)
from bvcalc.measures import (
    CarrierRegistry,
    Domain,
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    frobenius,
    lebesgue,
    measure_distance,
    point_masses,
    read_only,
    total_variation,
)
from bvcalc.young import (
    GeneralizedYoungMeasure,
    YoungMeasureError,
    barycenter,
    constant_field,
    elementary,
    empirical_generation_check,
    jensen_check_lebesgue,
    jensen_check_mu,
    measure_parts,
    pairing,
    pairings,
)

from helpers import atoms_of, carriers_of


@pytest.fixture
def setting():
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    return d, reg, mu


def one_integrand():
    return Integrand(
        "one",
        (1, 1),
        lambda x, A: np.ones(len(A)),
        0.0,
        1.0,
        recession_analytic=lambda x, A: np.zeros(len(A)),
    )


def sawtooth_candidate(d, reg, mu):
    return GeneralizedYoungMeasure(
        constant_field([(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)]),
        ScalarRadonMeasure(d, registry=reg),
        None,
        mu,
    )


# ---------------------------------------------------------------------------
# elementary
# ---------------------------------------------------------------------------


def test_elementary_of_proportional_measure(setting):
    d, reg, mu = setting
    c = 2.5
    gamma = MatrixRadonMeasure(
        d, (1, 1), density=lambda n: np.full((len(n), 1, 1), c), registry=reg
    )
    eps = elementary(gamma, mu)
    assert eps.lam.mass() == 0.0
    # nu_x = dirac at c everywhere: pairing with |.| gives c * mu mass
    assert pairing(make_norm(), eps) == pytest.approx(c, rel=1e-12)


def test_elementary_of_heaviside(setting):
    d, reg, mu = setting
    u = heaviside_1d(d, 0.5, registry=reg)
    eps = elementary(derivative(u), mu)
    assert eps.lam.mass() == pytest.approx(1.0, abs=1e-14)
    assert [p[0] for p, _ in atoms_of(eps.lam).values()] == [0.5]
    # sphere dirac at +1: pairing of the positive part recovers full mass
    pos = Integrand(
        "pos",
        (1, 1),
        lambda x, A: np.maximum(A[:, 0, 0], 0.0),
        0.0,
        1.0,
        recession_analytic=lambda x, A: np.maximum(A[:, 0, 0], 0.0),
        nonnegative=False,
    )
    assert pairing(pos, eps) == pytest.approx(1.0, rel=1e-12)


def test_elementary_mixed_case_matches_decomposition(setting):
    d, reg, _ = setting
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 2.0 * np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]),
        registry=reg,
    )
    u = piecewise_affine_1d(
        d, slopes=(1.0,), jumps=((0.5, (1.0,)), (0.25, (0.5,))), registry=reg
    )
    eps = elementary(derivative(u), mu)
    # jump at 1/2 absorbed by the atom; the one at 1/4 concentrates
    assert eps.lam.mass() == pytest.approx(0.5, abs=1e-14)
    assert [p[0] for p, _ in atoms_of(eps.lam).values()] == [0.25]


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_constant_integrand_gives_reference_mass(setting):
    d, reg, mu = setting
    u = heaviside_1d(d, 0.5, registry=reg)
    eps = elementary(derivative(u), mu)
    assert pairing(one_integrand(), eps) == pytest.approx(mu.mass(), rel=1e-12)


def test_pairing_norm_gives_variation_split(setting):
    d, reg, _ = setting
    mu = ScalarRadonMeasure(d, density=lambda n: 2.0 * np.ones(len(n)), registry=reg)
    u = piecewise_affine_1d(d, slopes=(1.0,), jumps=((0.5, (1.0,)),), registry=reg)
    eps = elementary(derivative(u), mu)
    # integral |dDu/dmu| dmu + |singular|(domain) = 1 + 1
    assert pairing(make_norm(), eps) == pytest.approx(2.0, rel=1e-12)


def test_pairing_linear_integrand_is_barycenter_pairing(setting):
    d, reg, mu = setting
    B0 = 1.7
    lin = Integrand(
        "linear",
        (1, 1),
        lambda x, A: B0 * A[:, 0, 0],
        0.0,
        abs(B0),
        recession_analytic=lambda x, A: B0 * A[:, 0, 0],
        nonnegative=False,
    )
    u = piecewise_affine_1d(d, slopes=(0.5,), jumps=((0.25, (2.0,)),), registry=reg)
    eps = elementary(derivative(u), mu)
    bar = barycenter(eps)
    nodes, weights = d.cell_rule(breaks=bar.breaks)
    direct = float(np.dot(weights, B0 * bar.density_at(nodes)[:, 0, 0]))
    direct += sum(B0 * v[0, 0] for _, v in atoms_of(bar).values())
    assert pairing(lin, eps) == pytest.approx(direct, rel=1e-10)


def test_pairing_linear_in_weights(setting):
    d, reg, mu = setting
    A1, A2 = np.array([[1.0]]), np.array([[-2.0]])
    f = make_area()
    lam0 = ScalarRadonMeasure(d, registry=reg)
    for theta in (0.0, 0.3, 1.0):
        cand = GeneralizedYoungMeasure(
            constant_field([(A1, theta), (A2, 1.0 - theta)]), lam0, None, mu
        )
        v1 = GeneralizedYoungMeasure(constant_field([(A1, 1.0)]), lam0, None, mu)
        v2 = GeneralizedYoungMeasure(constant_field([(A2, 1.0)]), lam0, None, mu)
        lhs = pairing(f, cand)
        rhs = theta * pairing(f, v1) + (1 - theta) * pairing(f, v2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pairing_matches_evaluate_interior(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(
        d, breakpoints=(0.3,), slopes=(2.0, -1.0), jumps=((0.6, (1.5,)),), registry=reg
    )
    eps = elementary(derivative(u), mu)
    for f in (make_norm(), make_area(), make_shifted_norm()):
        spec = FunctionalSpec(f, mu)
        assert pairing(f, eps) == pytest.approx(
            evaluate(u, spec).interior, rel=1e-10
        )


# ---------------------------------------------------------------------------
# barycenter
# ---------------------------------------------------------------------------


def test_barycenter_reconstructs_elementary(setting):
    d, reg, _ = setting
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 1.0 + n[:, 0],
        carrier_parts=point_masses(d, reg, [((0.5,), 0.7)]),
        registry=reg,
    )
    u = piecewise_affine_1d(
        d, breakpoints=(0.25,), slopes=(1.0, -2.0), jumps=((0.5, (1.0,)), (0.75, (-0.5,))),
        registry=reg,
    )
    gamma = derivative(u)
    eps = elementary(gamma, mu)
    assert measure_distance(barycenter(eps), gamma) <= 1e-10


def test_barycenter_of_sawtooth_limit_is_zero(setting):
    d, reg, mu = setting
    cand = sawtooth_candidate(d, reg, mu)
    assert total_variation(barycenter(cand)) == pytest.approx(0.0, abs=1e-14)


def test_barycenter_of_concentration_is_step_derivative():
    d = Domain((-1.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    u = heaviside_1d(d, 0.0, registry=reg)
    assert measure_distance(barycenter(cand), derivative(u)) <= 1e-12


# ---------------------------------------------------------------------------
# probability-structure invariants
# ---------------------------------------------------------------------------


def test_rejects_unnormalized_weights(setting):
    d, reg, mu = setting
    with pytest.raises(YoungMeasureError):
        GeneralizedYoungMeasure(
            constant_field([(np.array([[1.0]]), 0.7)]),
            ScalarRadonMeasure(d, registry=reg),
            None,
            mu,
        )


def test_rejects_off_sphere_atoms(setting):
    d, reg, mu = setting
    with pytest.raises(YoungMeasureError):
        GeneralizedYoungMeasure(
            constant_field([(np.array([[0.0]]), 1.0)]),
            ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]), registry=reg),
            constant_field([(np.array([[2.0]]), 1.0)]),
            mu,
        )


def _dirac(value):
    """A plain callable field: the Dirac at the 1x1 matrix ``value`` at every point."""
    return lambda key, pts: (np.ones((len(pts), 1)), np.full((len(pts), 1, 1, 1), value))


@pytest.mark.parametrize(
    "nu, nu_inf, message",
    [
        (
            lambda key, pts: (np.tile([1.5, -0.5], (len(pts), 1)), np.zeros((len(pts), 2, 1, 1))),
            _dirac(1.0),
            "oscillation weights must be nonnegative",
        ),
        (
            _dirac(0.0),
            lambda key, pts: (np.full((len(pts), 1), 0.5), np.ones((len(pts), 1, 1, 1))),
            "sphere weights must sum to 1",
        ),
        (_dirac(0.0), _dirac(2.0), "sphere atoms must have unit norm"),
        (_dirac(np.inf), _dirac(1.0), "oscillation part has infinite first moment"),
    ],
    ids=["negative-weight", "sphere-weights", "sphere-norm", "first-moment"],
)
def test_validate_rejects_a_plain_callable_field(setting, nu, nu_inf, message):
    d, reg, mu = setting
    lam = ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]), registry=reg)
    with pytest.raises(YoungMeasureError) as err:
        GeneralizedYoungMeasure(nu, lam, nu_inf, mu)
    assert str(err.value) == message


@pytest.mark.parametrize("box, resolution", [((-1.0, 2.0), 512), ((0.0, 1.0), 16)], ids=["box", "resolution"])
def test_a_concentration_measure_on_another_domain_is_rejected(setting, box, resolution):
    # lambda's atom at 1.0 lies on the boundary of mu's box but inside the wider box
    d, reg, mu = setting

    def triple(where):
        lam = ScalarRadonMeasure(where, carrier_parts=point_masses(where, reg, [((1.0,), 1.0)]), registry=reg)
        return GeneralizedYoungMeasure(
            constant_field([(np.array([[0.0]]), 1.0)]), lam, constant_field([(np.array([[1.0]]), 1.0)]), mu
        )

    with pytest.raises(YoungMeasureError, match="^concentration measure must live on the reference measure's domain$"):
        triple(Domain(box, resolution))
    nu = triple(Domain((0.0, 1.0), 512))  # an equal domain is mu's, and the Jensen check sees the atom on its boundary
    assert nu.domain is d
    with pytest.raises(YoungMeasureError, match="^concentration measure charges the boundary$"):
        jensen_check_mu([make_norm()], piecewise_affine_1d(d, registry=reg), nu)


# ---------------------------------------------------------------------------
# generation checks
# ---------------------------------------------------------------------------


def test_generation_constant_sequence_zero_gap(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    eps = elementary(derivative(u), mu)
    rep = empirical_generation_check(
        lambda j: u, eps, [make_norm(), make_area()], js=(1, 2, 4), per_axis=4
    )
    assert rep.final_gap <= 1e-13


def test_generation_sawtooth(setting):
    d, reg, mu = setting
    cand = sawtooth_candidate(d, reg, mu)
    js = geometric_js(256)
    rep = empirical_generation_check(
        lambda j: sawtooth_1d(d, j, registry=reg),
        cand,
        [make_norm(), make_area(), make_shifted_norm(), make_w_shape()],
        js=js,
        per_axis=12,
    )
    assert rep.final_gap <= 0.02
    fitted = [o for o in rep.orders.values() if o is not None]
    assert fitted and min(fitted) >= 0.8


def test_generation_ramp_concentration():
    d = Domain((-1.0, 1.0), 512)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    js = geometric_js(256)
    rep = empirical_generation_check(
        lambda j: ramp_1d(d, 0.0, 1.0 / j, registry=reg),
        cand,
        [make_norm(), make_area()],
        js=js,
        per_axis=12,
    )
    worst_first = max(gaps[0] for gaps in rep.per_probe.values())
    assert rep.final_gap <= 0.05
    assert rep.final_gap < 0.25 * worst_first  # tail gap decays toward zero


# ---------------------------------------------------------------------------
# Jensen checks
# ---------------------------------------------------------------------------


def test_jensen_elementary_equality(setting):
    d, reg, mu = setting
    u = heaviside_1d(d, 0.5, registry=reg)
    eps = elementary(derivative(u), mu)
    for f in (make_norm(), make_area()):
        (rep,) = jensen_check_mu([f], u, eps)
        assert rep.ok


def test_jensen_sawtooth_convex_holds(setting):
    d, reg, mu = setting
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    cand = sawtooth_candidate(d, reg, mu)
    for f in (make_norm(), make_area(), make_shifted_norm()):
        (rep,) = jensen_check_mu([f], zero, cand)
        assert rep.ok, f.name


def test_jensen_sawtooth_w_shape_fails(setting):
    d, reg, mu = setting
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    cand = sawtooth_candidate(d, reg, mu)
    (rep,) = jensen_check_mu([make_w_shape()], zero, cand)
    assert len(rep.ac_violations) >= 1
    point, lhs, rhs = rep.ac_violations[0]
    assert lhs == pytest.approx(1.0, abs=1e-12)  # F(0) = 1
    assert rhs == pytest.approx(0.0, abs=1e-12)  # mean of F(+-1) = 0


def test_jensen_requires_matching_barycenter(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)  # Du = 1, barycenter 0
    cand = sawtooth_candidate(d, reg, mu)
    with pytest.raises(YoungMeasureError):
        jensen_check_mu([make_norm()], u, cand)


@pytest.mark.parametrize("charge", ["atom", "point carrier"])
def test_jensen_rejects_concentration_on_the_boundary(setting, charge):
    d, reg, mu = setting
    if charge == "atom":
        lam = ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg)
    else:
        reg.register_point("edge", (0.0,))
        edge = (("edge", lambda p: np.ones(len(p))),)
        lam = ScalarRadonMeasure(d, carrier_parts=edge, registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        lam,
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    with pytest.raises(YoungMeasureError, match="charges the boundary"):
        jensen_check_mu([make_norm()], zero, cand)


def test_jensen_lebesgue_ramp_concentration():
    d = Domain((-1.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    u = heaviside_1d(d, 0.0, registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    for f in (make_norm(), make_area()):
        (rep,) = jensen_check_lebesgue([f], u, cand)
        assert rep.ok, f.name


@pytest.mark.parametrize(
    "scale, atoms", [(2.0, ()), (1.0, [((0.5,), 1.0)])], ids=["twice-the-volume", "volume-plus-atom"]
)
def test_jensen_lebesgue_rejects_another_reference_measure(scale, atoms):
    d = Domain((-1.0, 1.0), 64)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(
        d, density=lambda n: np.full(len(n), scale), carrier_parts=point_masses(d, reg, atoms), registry=reg
    )
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    with pytest.raises(YoungMeasureError, match="^the reference measure must be the volume measure$"):
        jensen_check_lebesgue([make_norm()], heaviside_1d(d, 0.0, registry=reg), cand)


def area_without_recession():
    return Integrand("area-no-rec", (1, 1), lambda x, A: np.sqrt(1.0 + np.sum(A * A, axis=(1, 2))),
                     1.0, 1.0)


def test_upper_slope_pairs_the_generalized_recession():
    f = area_without_recession()
    w = np.array([[0.25, 0.75], [1.0, 0.0]])
    S = np.array([[[[1.0]], [[-1.0]]], [[[-1.0]], [[1.0]]]])
    got = young._field_pair(f, w, S, np.array([[0.2], [0.6]]), sphere=True, upper=True)
    slope = lambda m, k: w[m, k] * generalized_recession(f, None, S[m, k]).value
    assert got.tolist() == [slope(0, 0) + slope(0, 1), slope(1, 0)]


def test_the_upper_slope_reads_an_analytic_recession_at_its_points():
    # an x-dependent analytic recession is the upper slope at the nodes, not at x = None
    from bvcalc.integrands import x_modulated

    f = x_modulated(make_area())
    w, S, pts = np.ones((2, 1)), np.array([[[[1.0]]], [[[-2.0]]]]), np.array([[0.2], [0.6]])
    got = young._field_pair(f, w, S, pts, sphere=True, upper=True)
    assert got.tobytes() == f.recession(pts, S[:, 0]).tobytes()


def test_jensen_lebesgue_uses_the_upper_slope_without_analytic_recession(monkeypatch):
    d = Domain((-1.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    slopes = []

    def recorded(f, x, A):
        slopes.append(np.asarray(A).tolist())
        return generalized_recession(f, x, A)

    monkeypatch.setattr(integrands, "generalized_recession", recorded)
    (rep,) = jensen_check_lebesgue([area_without_recession()], heaviside_1d(d, 0.0, registry=reg), cand)
    assert rep.ok
    assert slopes == [[[1.0]]]


def test_jensen_lebesgue_reads_the_upper_slope_at_the_nodes(monkeypatch):
    # without analytic recession the upper slope of (1 + x/2) F is read at the jump, not at x = None
    from bvcalc.integrands import x_modulated

    d = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        lebesgue(d, reg),
    )
    slopes = []

    def recorded(f, x, A):
        result = generalized_recession(f, x, A)
        slopes.append((np.asarray(x).tolist(), np.asarray(A).tolist(), result.value))
        return result

    monkeypatch.setattr(integrands, "generalized_recession", recorded)
    F = x_modulated(area_without_recession())
    assert jensen_check_lebesgue([F], heaviside_1d(d, 0.5, registry=reg), cand)[0].ok
    assert [(x, A) for x, A, _ in slopes] == [([0.5], [[1.0]])]
    assert slopes[0][2] == pytest.approx((1.0 + 0.5 / 2) * 1.0, abs=1e-12)


def test_jensen_convex_catalog_no_violations_flagging(setting):
    # the recorded violation set is empty exactly for the quasiconvex flags
    d, reg, mu = setting
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    cand = sawtooth_candidate(d, reg, mu)
    outcomes = {}
    for f in (make_norm(), make_area(), make_shifted_norm(), make_w_shape()):
        outcomes[f.name] = jensen_check_mu([f], zero, cand)[0].ok
    assert outcomes == {
        "norm": True,
        "area": True,
        "shifted-norm": True,
        "w-shape": False,
    }


def test_pairing_linear_in_integrand(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.5,), jumps=((0.5, (1.0,)),), registry=reg)
    eps = elementary(derivative(u), mu)
    f1, f2 = make_norm(), make_area()
    rng = np.random.default_rng(21)
    for _ in range(5):
        a, b = rng.uniform(-2, 2, size=2)
        combo = Integrand(
            "combo",
            (1, 1),
            lambda x, A, _a=a, _b=b: _a * np.asarray(f1.fn(x, A)) + _b * np.asarray(f2.fn(x, A)),
            0.0,
            abs(a) + abs(b),
            recession_analytic=lambda x, A, _a=a, _b=b: _a
            * np.asarray(f1.recession_analytic(x, A))
            + _b * np.asarray(f2.recession_analytic(x, A)),
            nonnegative=False,
        )
        lhs = pairing(combo, eps)
        rhs = a * pairing(f1, eps) + b * pairing(f2, eps)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# parts and field values computed once per Young measure
# ---------------------------------------------------------------------------


def mixed_elementary_setting(d, reg):
    """A reference measure with an atom and a BV function with two jumps:
    one absorbed by the atom, one left in the concentration part."""
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 1.0 + n[:, 0],
        carrier_parts=point_masses(d, reg, [((0.5,), 0.7)]),
        registry=reg,
    )
    u = piecewise_affine_1d(
        d, breakpoints=(0.25,), slopes=(1.0, -2.0), jumps=((0.5, (1.0,)), (0.75, (-0.5,))),
        registry=reg,
    )
    return mu, u


def concentration_candidate_2d():
    d = Domain(((0.0, 1.0), (0.0, 1.0)), 32)
    reg = CarrierRegistry()
    reg.register_segment("mid", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[1.0, 0.5]]), 0.25), (np.array([[-0.5, 0.0]]), 0.75)]),
        ScalarRadonMeasure(d, carrier_parts=(("mid", lambda p: 1.0 + p[:, 1]),), registry=reg),
        constant_field([(np.array([[0.6, 0.8]]), 0.5), (np.array([[0.0, -1.0]]), 0.5)]),
        mu,
    )
    return d, cand


def fresh_pairing(f, nu, localization=None):
    """The pairing recomputed from freshly built parts and field values."""
    terms = [(measure_parts(nu.reference_measure, extra_breaks=nu.breaks), nu.nu, False)]
    if nu.nu_inf is not None:
        terms.append((measure_parts(nu.lam), nu.nu_inf, True))
    total = 0.0
    for parts, field, sphere in terms:
        for part in parts:
            pts = part.points
            if not len(pts) or (sphere and np.max(np.abs(part.masses)) <= 1e-12):
                continue
            w, A = field(part.key, pts)
            vals = np.zeros(len(pts))
            for k in range(w.shape[1]):
                active = w[:, k] > 0 if sphere else np.abs(w[:, k]) > 0
                if not np.any(active):
                    continue
                fk = (
                    recession_values(f, pts[active], A[active, k])
                    if sphere
                    else np.asarray(f(pts[active], A[active, k]))
                )
                vals[active] += w[active, k] * fk
            masses = part.masses
            if localization is not None:
                masses = masses * np.asarray(localization(pts))
            total += float(np.dot(masses, vals))
    return total


def test_parts_built_once_per_measure(setting, monkeypatch):
    d, reg, _ = setting
    mu, u = mixed_elementary_setting(d, reg)
    built = []
    original = young.measure_parts

    def counting(m, extra_breaks=None):
        built.append(m)
        return original(m, extra_breaks=extra_breaks)

    monkeypatch.setattr(young, "measure_parts", counting)
    eps = elementary(derivative(u), mu)
    for f in (make_norm(), make_area(), make_shifted_norm()):
        pairings([f], eps, [None, *scalar_bumps(d, per_axis=4)])
    barycenter(eps)
    assert len(built) == 2
    assert built[0] is mu and built[1] is eps.lam

    built.clear()
    field = constant_field([(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)])
    evaluated = []

    def counting_field(key, pts):
        evaluated.append(pts)
        return field(key, pts)

    cand = GeneralizedYoungMeasure(
        counting_field, ScalarRadonMeasure(d, registry=reg), None, mu, validate=False
    )
    assert built == [] and evaluated == []  # nothing is computed before first use
    for phi in scalar_bumps(d, per_axis=4):
        pairings([make_norm()], cand, [phi])
    cand.validate()
    assert len(built) == 1 and built[0] is mu
    assert len(evaluated) == 2  # one cell part and one atom part of mu


def test_cached_arrays_are_read_only(setting):
    d, reg, _ = setting
    mu, u = mixed_elementary_setting(d, reg)
    eps = elementary(derivative(u), mu)
    parts = eps.reference_parts + eps.concentration_parts
    assert {p.kind for p in parts} == {"cells", "atom"}
    for part in parts:
        with pytest.raises(ValueError):
            part.masses[0] = 1.0
        with pytest.raises(ValueError):
            part.points[0, 0] = 1.0
    for _, w, A in eps.oscillation_values + eps.sphere_values:
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        with pytest.raises(ValueError):
            A[0, 0, 0, 0] = 0.0


def _part_integrands():
    from bvcalc.integrands import x_modulated

    pos = Integrand(
        "pos-part",
        (1, 1),
        lambda x, A: np.maximum(A[:, 0, 0], 0.0),
        0.0,
        1.0,
        recession_analytic=lambda x, A: np.maximum(A[:, 0, 0], 0.0),
        nonnegative=False,
    )
    return [make_norm(), make_area(), make_shifted_norm(), make_w_shape(),
            x_modulated(make_area()), pos]


def _pairing_measures():
    """The sawtooth candidate, an elementary sawtooth measure, the
    ramp-concentration candidate (sphere parts with ``nu_inf``) and an
    elementary measure with an atom of mu and a jump left to lambda."""
    d = Domain((0.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    d2 = Domain((-1.0, 1.0), 256)
    reg2 = CarrierRegistry()
    ramp = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d2, carrier_parts=point_masses(d2, reg2, [((0.0,), 1.0)]), registry=reg2),
        constant_field([(np.array([[1.0]]), 1.0)]),
        ScalarRadonMeasure(d2, density=lambda n: np.ones(len(n)), registry=reg2),
    )
    mu3, u3 = mixed_elementary_setting(d, CarrierRegistry())
    return {
        "sawtooth-candidate": sawtooth_candidate(d, reg, mu),
        "elementary-sawtooth": elementary(derivative(sawtooth_1d(d, 8, registry=reg)), mu),
        "ramp-candidate": ramp,
        "elementary-mixed": elementary(derivative(u3), mu3),
    }


def _assert_pairings_are_fresh(nu, fs, per_axis):
    """Every (integrand, cut-off) value of ``pairings``, and ``pairing``,
    equals its fresh recomputation under ``==``."""
    locs = [None, *scalar_bumps(nu.domain, per_axis=per_axis)]
    expected = [[fresh_pairing(f, nu, phi) for phi in locs] for f in fs]
    assert pairings(fs, nu, locs) == expected
    assert [pairing(f, nu) for f in fs] == [row[0] for row in expected]


def test_pairing_equals_fresh_recomputation_1d():
    measures = _pairing_measures()
    assert measures["ramp-candidate"].sphere_values
    assert measures["elementary-mixed"].sphere_values  # the jump at 0.75 is left to lambda
    for nu in measures.values():
        _assert_pairings_are_fresh(nu, _part_integrands(), per_axis=4)


def _old_field_pair(f, w, A, points, sphere=False, upper=False):
    """``young._field_pair`` as it was before it skipped the gather by mask
    when every weight of a column is active."""
    slope = upper and f.recession_analytic is None
    out = np.zeros(len(points))
    for k in range(w.shape[1]):
        active = w[:, k] > 0 if sphere else np.abs(w[:, k]) > 0
        if not np.any(active):
            continue
        xk, Ak = points[active], A[active, k]
        if slope:
            vals = np.array([generalized_recession(f, None, S).value for S in Ak])
        elif sphere:
            vals = recession_values(f, xk, Ak)
        else:
            vals = np.asarray(f(xk, Ak))
        out[active] += w[active, k] * vals
    return out


def test_field_pair_matches_the_masked_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    M, K = 37, 3
    points, A = rng.uniform(0.0, 1.0, (M, 1)), rng.normal(size=(M, K, 1, 1))
    partly = rng.uniform(-0.5, 1.0, (M, K)) * (rng.uniform(size=(M, K)) < 0.6)  # sphere: only w > 0
    weights = {
        "all active": rng.uniform(0.1, 1.0, (M, K)),
        "partly active": partly,
        "all zero": np.zeros((M, K)),
        "column by column": np.column_stack([np.ones(M), np.zeros(M), partly[:, 2]]),
    }
    cases = [(w, A, points, name) for name, w in weights.items()]
    for nu in _pairing_measures().values():  # the field values the pairings really use
        cases += [(w, A, part.points, part.kind) for part, w, A in nu.oscillation_values + nu.sphere_values]
    for w, A, pts, name in cases:
        assert w.shape == A.shape[:2] and len(pts) == len(w)
        w, A, pts = read_only(w, A, pts)  # as the cached field values are
        for f in _part_integrands():
            for sphere in (False, True):
                new = young._field_pair(f, w, A, pts, sphere=sphere)
                old = _old_field_pair(f, w, A, pts, sphere=sphere)
                assert new.tobytes() == old.tobytes(), (f.name, name, sphere)
        f = area_without_recession()
        new = young._field_pair(f, w, A, pts, sphere=True, upper=True)
        assert new.tobytes() == _old_field_pair(f, w, A, pts, sphere=True, upper=True).tobytes(), name


def test_pairing_equals_fresh_recomputation_2d():
    d, cand = concentration_candidate_2d()
    assert [p.kind for p, _, _ in cand.sphere_values] == ["carrier"]
    _assert_pairings_are_fresh(
        cand, [make_norm(1, 2), make_area(1, 2), make_shifted_norm(N=1, n=2)], per_axis=2
    )


# ---------------------------------------------------------------------------
# barycenter: reference kept from the loop the part tables replaced
# ---------------------------------------------------------------------------


def _old_barycenter(nu):
    """The barycenter as it was built before it read the part tables of
    ``part_densities``: its own walk over atoms and carriers."""
    from bvcalc.measures import MeasurePart, merge_breaks

    mu = nu.reference_measure
    N, n = nu.oscillation_values[0][2].shape[2:]  # the atoms' (N, n)

    def mean_osc(part, pts):
        w, A = nu.nu(part.key, pts)
        return np.einsum("mk,mkij->mij", w, A)

    def mean_inf(part, pts):
        w, S = nu.nu_inf(part.key, pts)
        return np.einsum("mk,mkij->mij", w, S)

    lam_cell_charged = False
    if nu.nu_inf is not None:
        cell_part = nu.concentration_parts[0]
        lam_cell_charged = bool(np.any(np.abs(cell_part.masses) > 1e-12))

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
    for key, (p, w) in atoms_of(mu).items():
        part = MeasurePart("atom", key, p[None, :])
        atom_acc[key] = (p, w * mean_osc(part, p[None, :])[0])
    if nu.nu_inf is not None:
        for key, (p, w) in atoms_of(nu.lam).items():
            part = MeasurePart("atom", key, p[None, :])
            add = w * mean_inf(part, p[None, :])[0]
            if key in atom_acc:
                atom_acc[key] = (p, atom_acc[key][1] + add)
            else:
                atom_acc[key] = (p, add)

    carrier_acc = {}
    for cid, fn in carriers_of(mu):
        carrier_acc[cid] = [(fn, "osc")]
    if nu.nu_inf is not None:
        for cid, fn in carriers_of(nu.lam):
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

    registry = mu.registry if mu.registry is not None else nu.lam.registry
    atoms = point_masses(mu.domain, registry, atom_acc.values()) if mu.domain.dim == 1 else ()
    return MatrixRadonMeasure(
        mu.domain,
        (N, n),
        density=density,
        carrier_parts=atoms + tuple(parts),
        registry=registry,
        breaks=merge_breaks(mu.domain.dim, mu.breaks, nu.lam.breaks, nu.breaks),
    )


def moving_field(dims, scale):
    """Two matrix atoms, weights 1/4 and 3/4, that move with the point."""
    base = np.arange(1.0, 1.0 + np.prod(dims)).reshape(dims)

    def field(key, points):
        s = scale * (1.0 + np.sum(points, axis=1))[:, None, None]
        A = np.stack([s * base, (0.5 - s) * base], axis=1)
        return np.tile([0.25, 0.75], (len(points), 1)), A

    return field


def barycenter_cases():
    """Young measures whose lambda charges atoms on and off mu's atoms,
    shared and unshared carriers, cells, and none of them."""
    d = Domain((0.0, 1.0), 48)
    reg = CarrierRegistry()
    for cid, x in (("p1", 0.45), ("p2", 0.8), ("p3", 0.2)):
        reg.register_point(cid, (x,))
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 1.0 + n[:, 0] ** 2,
        carrier_parts=point_masses(d, reg, [((0.3,), 0.7), ((0.9,), 1.1)])
        + (("p1", lambda p: 2.0 + p[:, 0]), ("p3", lambda p: 0.5 + 0 * p[:, 0])),
        registry=reg,
        breaks=(0.5,),
    )
    singular = dict(
        carrier_parts=point_masses(d, reg, [((0.3,), 0.4), ((0.6,), 1.3)])
        + (("p1", lambda p: 0.25 + p[:, 0]), ("p2", lambda p: 3.0 + 0 * p[:, 0])),
        registry=reg,
        breaks=(1.0 / 3.0,),
    )
    lam = ScalarRadonMeasure(d, **singular)
    lam_cells = ScalarRadonMeasure(
        d, density=lambda n: 0.5 + np.sin(3.0 * n[:, 0]) ** 2, **singular
    )

    def triple(dims, lam, mu, nu_inf=True, breaks=None):
        sphere = moving_field(dims, -0.5) if nu_inf else None
        return GeneralizedYoungMeasure(
            moving_field(dims, 1.0), lam, sphere, mu, breaks=breaks, validate=False
        )

    sq = Domain(((0.0, 1.0), (0.0, 1.0)), 16)
    reg2 = CarrierRegistry()
    reg2.register_segment("a", (0.25, 0.0), (0.25, 1.0))
    reg2.register_segment("b", (0.0, 0.6), (1.0, 0.6))
    reg2.register_segment("c", (0.75, 0.0), (0.75, 1.0))
    mu2 = ScalarRadonMeasure(
        sq,
        density=lambda n: 1.0 + n[:, 0] * n[:, 1],
        carrier_parts=(("c", lambda p: 0.5 + p[:, 1]), ("b", lambda p: 1.0 + p[:, 0] ** 2)),
        registry=reg2,
    )
    lam2 = ScalarRadonMeasure(
        sq,
        carrier_parts=(("b", lambda p: 2.0 - p[:, 0]), ("a", lambda p: 0.5 + p[:, 1] ** 2)),
        registry=reg2,
    )
    mixed_mu, u = mixed_elementary_setting(Domain((0.0, 1.0), 64), CarrierRegistry())
    return {
        "1d-atoms-on-and-off": triple((1, 1), lam, mu, breaks=(0.7,)),
        "1d-lambda-cells": triple((1, 1), lam_cells, mu),
        "2d-segments": triple((1, 2), lam2, mu2, breaks=((0.4,), (0.3,))),
        "no-nu-inf": triple((1, 1), lam_cells, mu, nu_inf=False),
        "elementary": elementary(derivative(u), mixed_mu),
    }


@pytest.mark.parametrize("case", sorted(barycenter_cases()))
def test_barycenter_matches_the_old_loop(case):
    nu = barycenter_cases()[case]
    new, old = barycenter(nu), _old_barycenter(nu)
    assert new.breaks == old.breaks and new.registry is old.registry
    nodes, _ = new.domain.cell_rule(breaks=new.breaks)
    assert np.array_equal(new.density_at(nodes), old.density_at(nodes))
    assert list(atoms_of(new)) == list(atoms_of(old))
    for (p, v), (q, w) in zip(atoms_of(new).values(), atoms_of(old).values()):
        assert np.array_equal(p, q) and np.array_equal(v, w)
    assert [cid for cid, _ in carriers_of(new)] == [cid for cid, _ in carriers_of(old)]
    for (cid, fn), (_, gn) in zip(carriers_of(new), carriers_of(old)):
        pts, _ = new.carrier(cid).rule(new.domain.resolution)
        assert np.array_equal(fn(pts), gn(pts))
    charged = {  # in 1D the point carriers p1, p2 and p3 are point masses like the atoms
        "1d-atoms-on-and-off": (6, []),
        "1d-lambda-cells": (6, []),
        "2d-segments": (0, ["c", "b", "a"]),
        "no-nu-inf": (4, []),
        "elementary": (2, []),
    }[case]
    assert (len(atoms_of(new)), [cid for cid, _ in carriers_of(new)]) == charged


# ---------------------------------------------------------------------------
# pairings: every integrand and cut-off in one walk over the parts
# ---------------------------------------------------------------------------


def _old_generation_check(sequence, mu, candidate, test_integrands, js, per_axis=12):
    """``empirical_generation_check`` as it was: one fresh pairing per probe."""
    from bvcalc.functional import order_fit

    localizations = scalar_bumps(candidate.domain, per_axis=per_axis)
    js = tuple(js)
    refs = {}
    for fi, f in enumerate(test_integrands):
        for pi, phi in enumerate(localizations):
            refs[(fi, pi)] = fresh_pairing(f, candidate, phi)
    per_probe = {}
    for k, j in enumerate(js):
        uj = sequence(j) if callable(sequence) else sequence[k]
        eps_j = elementary(derivative(uj), mu)
        for fi, f in enumerate(test_integrands):
            for pi, phi in enumerate(localizations):
                emp = fresh_pairing(f, eps_j, phi)
                ref = refs[(fi, pi)]
                gap = abs(emp - ref) / max(1.0, abs(ref))
                per_probe.setdefault((fi, pi), []).append(gap)
    final_gap = max(gaps[-1] for gaps in per_probe.values())
    orders = {}
    for fi, f in enumerate(test_integrands):
        fitted = [order_fit(js, per_probe[(fi, pi)], 1e-11, 3) for pi in range(len(localizations))]
        fitted = [o for o in fitted if o is not None]
        orders[getattr(f, "name", f"f{fi}")] = min(fitted, default=None)
    return young.GenerationReport(js, per_probe, final_gap, orders)


def test_pairings_pair_each_part_once_for_every_cut_off(monkeypatch):
    nu = _pairing_measures()["elementary-mixed"]
    parts = len(nu.oscillation_values) + len(nu.sphere_values)
    fs = _part_integrands()
    called, cut = [], []
    real = young._field_pair
    monkeypatch.setattr(young, "_field_pair", lambda *a, **k: called.append(1) or real(*a, **k))
    locs = [lambda pts, _phi=phi: cut.append(1) or _phi(pts)
            for phi in scalar_bumps(nu.domain, per_axis=4)]
    pairings(fs, nu, locs)
    assert len(called) == len(fs) * parts
    assert len(cut) == len(locs) * parts


def test_generation_report_equals_the_old_per_pair_loop():
    from bvcalc.measures import cell_part

    d = Domain((0.0, 1.0), 128)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    cand = sawtooth_candidate(d, reg, mu)
    seq = lambda j: sawtooth_1d(d, j, registry=reg)
    fs = [make_norm(), make_area(), make_w_shape()]
    # jmax 64: every break k/(2j) is a cell edge, so every j pairs on mu's own
    # nodes; jmax 128 adds breaks k/256, off the grid, and a fresh node array
    assert cell_part(mu, derivative(seq(64)).breaks) is mu._cells
    assert cell_part(mu, derivative(seq(128)).breaks) is not mu._cells
    for js in (geometric_js(64), geometric_js(128)):
        new = empirical_generation_check(seq, cand, fs, js=js, per_axis=5)
        assert new == _old_generation_check(seq, mu, cand, fs, js=js, per_axis=5)
        assert list(new.per_probe) == [(fi, pi) for fi in range(3) for pi in range(5)]


def test_the_generation_check_evaluates_each_cut_off_once_per_node_array(monkeypatch):
    d, reg = Domain((0.0, 1.0), 128), CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    seen = []

    def counted(domain, per_axis):
        return [lambda pts, _phi=phi: seen.append(pts) or _phi(pts) for phi in scalar_bumps(domain, per_axis)]

    monkeypatch.setattr(young, "scalar_bumps", counted)
    seq = lambda j: sawtooth_1d(d, j, registry=reg)
    empirical_generation_check(seq, sawtooth_candidate(d, reg, mu), [make_norm()], js=geometric_js(128), per_axis=5)
    # mu's own nodes (the candidate and j <= 64), then the fresh ones of j = 128
    assert len(seen) == 2 * 5 and all(pts is mu._cells.points for pts in seen[:5])
    assert all(pts is seen[5] for pts in seen[5:]) and seen[5] is not mu._cells.points


# ---------------------------------------------------------------------------
# coincident atoms are one atom
# ---------------------------------------------------------------------------


def test_barycenter_sums_coincident_atoms():
    d = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.5,), 1.0), ((0.5,), 2.0)]),
        registry=reg,
    )
    field = constant_field([(np.array([[-0.5]]), 0.75), (np.array([[0.0]]), 0.25)])  # mean -0.375
    nu = GeneralizedYoungMeasure(field, ScalarRadonMeasure(d, registry=reg), None, mu)
    ((point, value),) = atoms_of(barycenter(nu)).values()
    assert point.tolist() == [0.5] and value.tolist() == [[-1.125]]


# ---------------------------------------------------------------------------
# constant fields against a kept copy of the code they replaced
# ---------------------------------------------------------------------------


def _old_constant_field(atom_list):
    atoms = np.stack([np.asarray(A, dtype=float) for A, _ in atom_list])
    weights = np.array([float(p) for _, p in atom_list])
    return lambda points: (
        np.tile(weights[None, :], (len(points), 1)),
        np.tile(atoms[None, :, :, :], (len(points), 1, 1, 1)),
    )


@pytest.mark.parametrize(
    "atom_list",
    [
        [(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)],
        [(np.array([[-0.0]]), 1.0)],
        [([[1.0, 2.0], [3.0, -4.0]], 0.25), (np.eye(2), 0.75)],
    ],
)
def test_constant_field_equals_the_kept_copy(atom_list):
    points = np.linspace(0.0, 1.0, 7)[:, None]
    new, old = constant_field(atom_list)(None, points), _old_constant_field(atom_list)(points)
    for a, b in zip(new, old):
        assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_constant_field_atoms_must_be_finite():
    with pytest.raises(YoungMeasureError, match="^an atom of 'field' must be finite"):
        constant_field([(np.array([[np.nan]]), 1.0)])
    with pytest.raises(YoungMeasureError, match="^an atom weight of 'field' must be finite"):
        constant_field([(np.array([[0.0]]), np.inf)])


@pytest.mark.parametrize(
    "atom_list, message",
    [
        ([("a", 1.0)], "an atom of 'field' must be numeric, got 'a'"),
        ([(np.zeros((1, 1)), [0.5, 0.5])], "an atom weight of 'field' must be numeric of shape (), got [0.5, 0.5]"),
    ],
)
def test_constant_field_entries_must_be_numeric(atom_list, message):
    with pytest.raises(YoungMeasureError) as err:
        constant_field(atom_list)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# pairings in one vecdot per part, and one Jensen pass for all integrands
# ---------------------------------------------------------------------------


def _per_pair_pairings(integrands, nu, localizations):
    """``pairings`` as it was before it took one ``np.vecdot`` per part:
    a ``float(np.dot(...))`` per (integrand, cut-off), parts in order."""
    totals = [[0.0] * len(localizations) for _ in integrands]
    for values, sphere in ((nu.oscillation_values, False), (nu.sphere_values, True)):
        for part, w, A in values:
            vals = [young._field_pair(f, w, A, part.points, sphere=sphere) for f in integrands]
            for pi, phi in enumerate(localizations):
                masses = part.masses if phi is None else part.masses * np.asarray(phi(part.points))
                for fi, v in enumerate(vals):
                    totals[fi][pi] += float(np.dot(masses, v))
    return totals


def test_pairings_equal_the_per_pair_dot_loop_bit_for_bit():
    from types import SimpleNamespace

    from bvcalc.measures import MeasurePart

    fs = _part_integrands()
    for nu in _pairing_measures().values():  # atoms, carriers and sphere parts
        locs = [None, *scalar_bumps(nu.domain, per_axis=4)]
        assert pairings(fs, nu, locs) == _per_pair_pairings(fs, nu, locs)
    rng = np.random.default_rng(37)
    locs = [None, *scalar_bumps(Domain((0.0, 1.0), 8), per_axis=3)]
    for M in (1, 3, 7, 513, 2049):  # node arrays of odd lengths, past BLAS block sizes
        pts = np.sort(rng.uniform(0.0, 1.0, (M, 1)), axis=0)
        part = MeasurePart("cells", None, pts, rng.uniform(0.0, 1e-3, M), rng.uniform(0.5, 2.0, M))
        fields = [read_only(rng.uniform(0.1, 1.0, (M, 2)), rng.normal(size=(M, 2, 1, 1))),
                  young._dirac(read_only(rng.normal(size=(M, 1, 1)))[0])]
        for w, A in fields:
            nu = SimpleNamespace(oscillation_values=[(part, w, A)], sphere_values=[(part, w, A / frobenius(A)[..., None, None])])
            assert pairings(fs, nu, locs) == _per_pair_pairings(fs, nu, locs), M


def test_dirac_fields_pair_with_the_bits_of_the_weighted_loop():
    """The weights of ``elementary``'s fields are one read-only value 1.0 of
    stride 0; their pairing is 0.0 + f, which is what the loop adds."""
    d = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    mu3, u3 = mixed_elementary_setting(d, reg)
    eps = elementary(derivative(u3), mu3)
    assert eps.sphere_values
    for part, w, A in eps.oscillation_values + eps.sphere_values:
        assert w.shape == (len(part.points), 1) and w.strides[0] == 0 and not w.flags.writeable
        for f in _part_integrands():
            for sphere in (False, True):
                got = young._field_pair(f, w, A, part.points, sphere=sphere)
                assert got.tobytes() == _old_field_pair(f, np.ones(w.shape), A, part.points, sphere=sphere).tobytes()


def test_one_jensen_pass_equals_single_integrand_checks():
    d, reg = Domain((0.0, 1.0), 128), CarrierRegistry()
    mu = lebesgue(d, reg)
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    fs = [make_norm(), make_w_shape(), make_area()]
    together = jensen_check_mu(fs, zero, sawtooth_candidate(d, reg, mu))
    alone = [jensen_check_mu([f], zero, sawtooth_candidate(d, reg, mu))[0] for f in fs]
    assert together == alone and len(together) == 3
    assert together[1].ac_violations and together[0].ok and together[2].ok
    # the Lebesgue check, with a sphere part: the ramp-concentration candidate
    d2 = Domain((-1.0, 1.0), 128)
    reg2 = CarrierRegistry()
    cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d2, carrier_parts=point_masses(d2, reg2, [((0.0,), 1.0)]), registry=reg2),
        constant_field([(np.array([[1.0]]), 1.0)]),
        lebesgue(d2, reg2),
    )
    u = heaviside_1d(d2, 0.0, registry=reg2)
    fs = [make_norm(), make_area(), area_without_recession()]
    assert jensen_check_lebesgue(fs, u, cand) == [jensen_check_lebesgue([f], u, cand)[0] for f in fs]
    assert jensen_check_mu([], zero, sawtooth_candidate(d, reg, mu)) == []


def test_the_generation_check_builds_no_cell_part_for_lambda(monkeypatch):
    """An elementary Young measure's lambda has no cell density: neither its
    construction nor its sphere values build its (zero) cell part."""
    from bvcalc import measures

    d, reg = Domain((0.0, 1.0), 128), CarrierRegistry()
    cand = sawtooth_candidate(d, reg, lebesgue(d, reg))
    built = []
    real = measures.cell_part
    monkeypatch.setattr(measures, "cell_part", lambda m, *a: built.append(m) or real(m, *a))
    seq = lambda j: sawtooth_1d(d, j, registry=reg)
    empirical_generation_check(seq, cand, [make_norm()], js=geometric_js(128), per_axis=5)
    assert built and all(m.density is not None for m in built if isinstance(m, ScalarRadonMeasure))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_elementary_pairing_meets_the_oracle(seed):
    """<<F, eps>> of the elementary Young measure of Du relative to mu is the
    functional without boundary term, which ``oracle_1d`` computes apart
    from the pipeline: 200 drawn cases at resolution 64 (about 0.5 s)."""
    import warnings

    from bvcalc.oracle import oracle_1d
    from bvcalc.scenarios import build_case_1d, random_case_description

    case = random_case_description(np.random.default_rng(seed))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        u, spec = build_case_1d(case, resolution=64)
        got = pairing(spec.integrand, elementary(derivative(u), spec.mu))
        ref = oracle_1d(case["u"], case["mu"], case["F"], domain=case["domain"])
    assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref)), case
