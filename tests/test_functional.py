import math
from dataclasses import replace

import numpy as np
import pytest

from bvcalc.bv import (
    derivative,
    heaviside_1d,
    piecewise_affine_1d,
    ramp_1d,
    sawtooth_1d,
)
from bvcalc.functional import (
    FunctionalError,
    FunctionalSpec,
    admissibility_check,
    evaluate,
    geometric_js,
    lsc_experiment,
    relaxation_upper_bound,
    reshetnyak_experiment,
)
from bvcalc.integrands import make_area, make_norm, make_w_shape, sq_envelope, x_modulated
from bvcalc.oracle import oracle_1d
from bvcalc.measures import (
    CarrierRegistry,
    DecompositionError,
    Domain,
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    lebesgue,
    point_masses,
    rn_decompose,
    total_variation,
)


@pytest.fixture
def setting():
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    return d, reg, mu


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_linear_area(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    spec = FunctionalSpec(make_area(), mu)
    assert evaluate(u, spec).total == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_evaluate_atom_absorbs_jump(setting):
    d, reg, _ = setting
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 2.0 * np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]),
        registry=reg,
    )
    u = piecewise_affine_1d(d, slopes=(1.0,), jumps=((0.5, (1.0,)),), registry=reg)
    out = evaluate(u, FunctionalSpec(make_norm(), mu))
    assert out.ac_cells == pytest.approx(1.0, rel=1e-12)
    assert out.ac_atoms == pytest.approx(1.0, rel=1e-12)
    assert out.singular == 0.0
    assert out.total == pytest.approx(2.0, rel=1e-12)


def test_evaluate_heaviside_against_lebesgue(setting):
    d, reg, mu = setting
    u = heaviside_1d(d, 0.5, registry=reg)
    out = evaluate(u, FunctionalSpec(make_area(), mu))
    # oracle: F(0) * 1 + F^inf(1) * 1 = 1 + 1
    assert out.ac_cells == pytest.approx(1.0, rel=1e-12)
    assert out.singular == pytest.approx(1.0, rel=1e-12)
    assert out.total == pytest.approx(2.0, rel=1e-12)


def test_evaluate_carrier_absorbed_jump_2d():
    d = Domain(((0.0, 1.0), (0.0, 1.0)), 32)
    reg = CarrierRegistry()
    from helpers import vertical_step_2d

    u = vertical_step_2d(d, 0.5, registry=reg)
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: np.ones(len(n)),
        carrier_parts=(("vline:0.5", lambda p: 2.0 * np.ones(len(p))),),
        registry=reg,
    )
    out = evaluate(u, FunctionalSpec(make_norm(), mu))
    # jump density e1 of magnitude 1 against carrier density 2:
    # F(1/2) * 2 per unit length = 1, no singular remainder
    assert out.ac_carriers == pytest.approx(1.0, rel=1e-12)
    assert out.singular == 0.0


def test_evaluate_boundary_term_1d(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), start_value=0.0, registry=reg)
    spec = FunctionalSpec(make_norm(), mu, include_boundary=True)
    out = evaluate(u, spec)
    # trace 0 at the left end contributes nothing; |u(1)| = 1 at the right
    assert out.boundary == pytest.approx(1.0, rel=1e-12)


def test_evaluate_boundary_equals_extension_interior(setting):
    # gluing consistency: for F with F(0) = 0, the boundary term makes the
    # functional on the box agree with the interior functional of the zero
    # extension on a larger box
    d, reg, mu = setting
    from bvcalc.bv import zero_extension

    u = piecewise_affine_1d(d, slopes=(1.0,), start_value=0.5, registry=reg)
    spec = FunctionalSpec(make_norm(), mu, include_boundary=True)
    val_inner = evaluate(u, spec).total

    d_out = Domain((-0.5, 1.5), 512)
    ext = zero_extension(u, d_out)
    mu_ext = ScalarRadonMeasure(d_out, density=lambda n: np.ones(len(n)), registry=reg)
    val_outer = evaluate(ext, FunctionalSpec(make_norm(), mu_ext)).total
    assert val_inner == pytest.approx(val_outer, rel=1e-12)


def test_evaluate_rejects_mu_charging_boundary(setting):
    d, reg, _ = setting
    mu_bad = ScalarRadonMeasure(
        d,
        density=lambda n: np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]),
        registry=reg,
    )
    with pytest.raises(FunctionalError):
        FunctionalSpec(make_norm(), mu_bad)


def test_evaluate_propagates_decomposition_failure(setting):
    d, reg, _ = setting
    mu_plain = ScalarRadonMeasure(d, density=lambda n: 1.0 * (n[:, 0] >= 0.5), registry=reg)
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    with pytest.raises(DecompositionError):
        evaluate(u, FunctionalSpec(make_norm(), mu_plain))


def test_a_density_one_mu_is_the_volume_measure():
    # domination is read from the density: no flag is needed to decompose
    d = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    u = piecewise_affine_1d(
        d, breakpoints=(0.3,), slopes=(2.0, -1.0), jumps=((0.6, (1.5,)),), registry=reg
    )
    dec = rn_decompose(derivative(u), mu)
    assert [reg[cid].point for cid, _ in dec.remainder.carrier_parts] == [(0.6,)]
    for F in (make_norm(), make_area(), x_modulated(make_area())):
        got = evaluate(u, FunctionalSpec(F, mu)).as_dict()
        assert got == evaluate(u, FunctionalSpec(F, lebesgue(d, reg))).as_dict()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_growth_sandwich(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(
        d, breakpoints=(0.3, 0.7), slopes=(2.0, -1.0, 0.5), jumps=((0.5, (1.0,)),), registry=reg
    )
    F = make_area()
    out = evaluate(u, FunctionalSpec(F, mu))
    Du = derivative(u)
    tv = total_variation(Du)
    assert out.interior >= F.growth_m * tv - 1e-10
    assert out.interior <= F.growth_M * (mu.mass() + tv) + 1e-10


def test_scaling_in_integrand(setting):
    d, reg, mu = setting
    u = heaviside_1d(d, 0.5, registry=reg)
    F = make_area()
    from bvcalc.integrands import Integrand

    twoF = Integrand(
        "2area",
        F.dims,
        lambda x, A: 2.0 * np.asarray(F.fn(x, A)),
        2 * F.growth_m,
        2 * F.growth_M,
        recession_analytic=lambda x, A: 2.0 * np.asarray(F.recession_analytic(x, A)),
        convexity="convex",
    )
    v1 = evaluate(u, FunctionalSpec(F, mu)).total
    v2 = evaluate(u, FunctionalSpec(twoF, mu)).total
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_translation_changes_only_boundary(setting):
    d, reg, mu = setting
    base = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    shifted = piecewise_affine_1d(d, slopes=(1.0,), start_value=2.0, registry=reg)
    spec = FunctionalSpec(make_area(), mu, include_boundary=True)
    b1 = evaluate(base, spec)
    b2 = evaluate(shifted, spec)
    assert b1.interior == pytest.approx(b2.interior, rel=1e-12)
    assert b1.boundary != pytest.approx(b2.boundary, rel=1e-3)


def test_sq_envelope_monotonicity_integrated(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, breakpoints=(0.5,), slopes=(3.0, -2.0), registry=reg)
    F = make_area()
    vals = [evaluate(u, FunctionalSpec(sq_envelope(F, i), mu)).total for i in (1, 2, 4, 8)]
    base = evaluate(u, FunctionalSpec(F, mu)).total
    assert all(vals[k] >= vals[k + 1] - 1e-10 for k in range(len(vals) - 1))
    assert all(v >= base - 1e-10 for v in vals)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissibility_cases(setting):
    d, reg, mu = setting
    smooth = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    assert admissibility_check(smooth, mu)
    h = heaviside_1d(d, 0.5, registry=reg)
    assert not admissibility_check(h, mu)
    mu_atom = ScalarRadonMeasure(
        d,
        density=lambda n: np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]),
        registry=reg,
    )
    assert admissibility_check(h, mu_atom)


def test_admissibility_degenerate_mu(setting):
    d, reg, _ = setting
    # mu vanishes on (0.4, 0.6): gradients there are not allowed
    mu_hole = ScalarRadonMeasure(
        d,
        density=lambda n: np.where((n[:, 0] > 0.4) & (n[:, 0] < 0.6), 0.0, 1.0),
        registry=reg,
        breaks=(0.4, 0.6),
    )
    inside = ramp_1d(d, 0.45, 0.1, registry=reg)
    outside = ramp_1d(d, 0.1, 0.1, registry=reg)
    assert not admissibility_check(inside, mu_hole)
    assert admissibility_check(outside, mu_hole)


# ---------------------------------------------------------------------------
# relaxation upper bounds
# ---------------------------------------------------------------------------


def test_relaxation_constant_family(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    spec = FunctionalSpec(make_area(), mu)
    res = relaxation_upper_bound(u, spec, [("const", lambda j: u)], jmax=16)
    assert res.status == "ok"
    assert res.value <= evaluate(u, spec.without_boundary()).total + 1e-12


def test_relaxation_no_admissible_signal(setting):
    d, reg, mu = setting
    h = heaviside_1d(d, 0.5, registry=reg)
    spec = FunctionalSpec(make_norm(), mu)
    res = relaxation_upper_bound(h, spec, [("itself", lambda j: h)], jmax=16)
    assert res.status == "no_admissible_sequence"
    assert res.value is None


@pytest.mark.parametrize("flagged, status", [(False, "not_decomposable"), (True, "ok")])
def test_relaxation_status_when_mu_does_not_decompose(flagged, status):
    # flagged: mu of density 1; else density max(x - 0.5, 0), which vanishes
    # on [0, 0.5] where u is flat, so u is admissible but cannot be decomposed
    d = Domain((0.0, 1.0), 64)
    reg = CarrierRegistry()
    if flagged:
        mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
        u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    else:
        mu = ScalarRadonMeasure(d, density=lambda n: np.maximum(n[:, 0] - 0.5, 0.0), registry=reg)
        u = piecewise_affine_1d(d, breakpoints=(0.5,), slopes=(0.0, 1.0), registry=reg)
    spec = FunctionalSpec(make_area(), mu)
    res = relaxation_upper_bound(u, spec, [("self", lambda j: u)])
    assert res.status == status
    if flagged:
        assert res.value == evaluate(u, spec.without_boundary()).total
        assert res.members == [("self", True, 0.0, res.value)] and res.best_id == "self"
    else:
        assert (res.value, res.best_id, res.members) == (None, None, [("self", True, 0.0, None)])


def test_relaxation_recovery_by_mollification(setting):
    d, reg, mu = setting
    h = heaviside_1d(d, 0.5, registry=reg)
    spec = FunctionalSpec(make_area(), mu)
    # the jump spread into a ramp of width 1/j centred on it
    fam = [("mollify", lambda j: ramp_1d(d, 0.5 - 0.5 / j, 1.0 / j, registry=reg))]
    res = relaxation_upper_bound(h, spec, fam, jmax=64, l1_tol=0.05)
    target = evaluate(h, spec).total
    assert res.status == "ok"
    assert res.value <= target + 1e-9
    # the gap closes like the transition width
    assert target - res.value <= 1.0 / 64 + 1e-6


def test_relaxation_reports_the_l1_gap_of_the_last_admissible_index():
    d = Domain((0.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: 1.0 * (n[:, 0] < 0.5), registry=reg)
    h = heaviside_1d(d, 0.1, registry=reg)
    spec = FunctionalSpec(make_area(), mu)

    def ramps(j):  # a ramp where mu charges up to j = 4, one where it does not from j = 8 on
        return ramp_1d(d, 0.1, 0.2 / j, registry=reg) if j < 8 else ramp_1d(d, 0.7, 0.1, registry=reg)

    fam = [("ramps", ramps), ("never", lambda j: ramp_1d(d, 0.7, 0.1, registry=reg))]
    res = relaxation_upper_bound(h, spec, fam, jmax=16)
    gap = ramps(4).l1_distance(h)
    assert gap == pytest.approx(0.025, rel=1e-6) and gap != ramps(2).l1_distance(h)
    assert res.members == [("ramps", False, gap, None), ("never", False, np.inf, None)]
    assert res.status == "no_admissible_sequence"


# ---------------------------------------------------------------------------
# lower semicontinuity experiments
# ---------------------------------------------------------------------------


def test_lsc_constant_sequence_zero_margin(setting):
    d, reg, mu = setting
    u = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    spec = FunctionalSpec(make_area(), mu)
    rep = lsc_experiment(lambda j: u, u, spec, js=(1, 2, 3, 4))
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    assert not rep.flags


def test_lsc_sawtooth_mass_drop(setting):
    d, reg, mu = setting
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    js = geometric_js(64)
    seq = lambda j: sawtooth_1d(d, j, registry=reg)
    rep = lsc_experiment(seq, zero, FunctionalSpec(make_norm(), mu), js=js)
    assert rep.margin == pytest.approx(1.0, abs=1e-9)
    assert not rep.flags
    rep_w = lsc_experiment(seq, zero, FunctionalSpec(make_w_shape(), mu), js=js)
    assert rep_w.margin == pytest.approx(-1.0, abs=1e-9)
    assert rep_w.flags == ["expected_violation"]


def test_lsc_boundary_term_x_dependent(setting):
    d, reg, mu = setting
    F = x_modulated(make_norm())
    spec = FunctionalSpec(F, mu, include_boundary=True)
    one = piecewise_affine_1d(d, slopes=(0.0,), start_value=1.0, registry=reg)
    js = geometric_js(256)
    seq = lambda j: ramp_1d(d, 0.0, 1.0 / j, registry=reg)
    rep = lsc_experiment(seq, one, spec, js=js)
    assert rep.margin >= -1e-6
    assert rep.margin == pytest.approx(0.0, abs=0.01)
    assert not rep.flags


# ---------------------------------------------------------------------------
# continuity experiment
# ---------------------------------------------------------------------------


def ramp_derivative_sequence(domain, registry):
    def gamma_j(j):
        w = 1.0 / (8 * j)
        return derivative(ramp_1d(domain, 0.5 - w / 2, w, registry=registry))

    return gamma_j


def test_reshetnyak_identity_sequence(setting):
    d, reg, mu = setting
    gamma = derivative(piecewise_affine_1d(d, slopes=(1.0,), registry=reg))
    rep = reshetnyak_experiment(lambda j: gamma, gamma, make_area(), js=(1, 2, 3))
    assert rep.accepted
    assert max(rep.gaps) == 0.0


def test_reshetnyak_ramp_first_order(setting):
    d, reg, mu = setting
    reg.register_point("jump:0.5", (0.5,))
    gamma = MatrixRadonMeasure(d, (1, 1), carrier_parts=point_masses(d, reg, [((0.5,), [[1.0]])]), registry=reg)
    js = geometric_js(256)
    rep = reshetnyak_experiment(ramp_derivative_sequence(d, reg), gamma, make_area(), js=js)
    assert rep.accepted
    assert rep.final_gap <= 1e-3
    assert rep.order == pytest.approx(1.0, abs=0.15)


def test_reshetnyak_rejects_a_persisting_weak_star_gap(setting):
    d, reg, mu = setting
    zero = derivative(piecewise_affine_1d(d, slopes=(0.0,), registry=reg))
    step = derivative(heaviside_1d(d, 0.5, registry=reg))
    rep = reshetnyak_experiment(lambda j: step, zero, make_area(), js=(1, 2, 4))
    assert not rep.accepted
    assert rep.reject_reason == "weak* gap persists"
    assert rep.weak_star_gap == pytest.approx(1.0, abs=1e-12)
    assert rep.gaps == () and rep.final_gap is None and rep.order is None


def test_reshetnyak_rejects_strict_but_not_area_strict(setting):
    d, reg, mu = setting
    leb = MatrixRadonMeasure(
        d, (1, 1), density=lambda n: np.ones((len(n), 1, 1)), registry=reg
    )

    def atoms_j(j):
        return MatrixRadonMeasure(
            d,
            (1, 1),
            carrier_parts=point_masses(d, reg, [(np.array([(k + 0.5) / j]), [[1.0 / j]]) for k in range(j)]),
            registry=reg,
        )

    rep = reshetnyak_experiment(atoms_j, leb, make_area(), js=geometric_js(128))
    assert not rep.accepted
    assert rep.reject_reason == "area-strictness fails"
    # the TV itself converges (strict convergence), only the area gap persists
    assert abs(total_variation(atoms_j(128)) - total_variation(leb)) < 1e-9
    assert rep.area_gap > 0.5


def test_reshetnyak_builds_only_the_last_measure_of_a_rejected_sequence(setting):
    d, reg, mu = setting
    leb = MatrixRadonMeasure(d, (1, 1), density=lambda n: np.ones((len(n), 1, 1)), registry=reg)
    built = []

    def atoms_j(j):
        built.append(j)
        return MatrixRadonMeasure(
            d, (1, 1), carrier_parts=point_masses(d, reg, [(((k + 0.5) / j,), [[1.0 / j]]) for k in range(j)]),
            registry=reg,
        )

    rep = reshetnyak_experiment(atoms_j, leb, make_area(), js=geometric_js(128))
    assert rep.reject_reason == "area-strictness fails" and built == [128]
    built.clear()
    rep = reshetnyak_experiment(atoms_j, atoms_j(4), make_area(), js=(1, 2, 4))
    assert rep.accepted and built == [4, 4, 1, 2] and rep.gaps[-1] == 0.0


# ---------------------------------------------------------------------------
# 1D oracle equivalence (cross-checked again in the acceptance suite)
# ---------------------------------------------------------------------------


def test_oracle_equivalence_small_sample(setting):
    from bvcalc.oracle import oracle_1d
    from bvcalc.scenarios import build_case_1d, random_case_description

    rng = np.random.default_rng(0)
    for k in range(10):
        case = random_case_description(rng)
        u, spec = build_case_1d(case, resolution=20000)
        ours = evaluate(u, spec).total
        ref = oracle_1d(case["u"], case["mu"], case["F"])
        assert abs(ours - ref) / abs(ref) <= 1e-8


def _old_geometric_js(jmax):
    js = []
    j = int(jmax)
    while j >= 2:
        js.append(j)
        j //= 2
    return tuple(sorted(set(js)))


def test_geometric_js_equals_the_kept_loop():
    for jmax in [*range(-3, 300), 1000, 1024, 1025, 2**20 - 1, 2**20, 64.0, 9.9]:
        assert geometric_js(jmax) == _old_geometric_js(jmax)


def test_lsc_flags_a_violation_for_a_convex_integrand(setting):
    # u(x) = x against u_j = 0 under norm: the values drop from 1 to 0, which
    # no convex integrand allows, so the margin -1 is a violation, not expected
    d, reg, mu = setting
    identity = piecewise_affine_1d(d, slopes=(1.0,), registry=reg)
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    rep = lsc_experiment(lambda j: zero, identity, FunctionalSpec(make_norm(), mu), js=(1, 2, 4))
    assert rep.margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.flags == ["violation"]


def test_a_spec_needs_a_positive_upper_growth_constant(setting):
    _, _, mu = setting
    for growth_M in (0.0, -1.0):
        with pytest.raises(FunctionalError, match="^integrand must declare a positive upper growth constant$"):
            FunctionalSpec(replace(make_norm(), growth_M=growth_M), mu)


@pytest.mark.parametrize("written_on", ["the jump carrier", "another id"])
def test_a_point_mass_absorbs_the_jump_on_its_point_whatever_its_id(written_on):
    # mu = L^1 + a point mass of 1 at 0.5 and a unit jump there, under area:
    # dDu/dmu is 1 at the point, so the value is 1 + F(1) = 1 + sqrt 2
    d = Domain((0.0, 1.0), 256)
    reg = CarrierRegistry()
    u = piecewise_affine_1d(d, slopes=(0.0,), jumps=((0.5, (1.0,)),), registry=reg)
    cid = "jump:0.5" if written_on == "the jump carrier" else reg.register_point("mu-atom", (0.5,)).cid
    mu = ScalarRadonMeasure(
        d, density=lambda n: np.ones(len(n)), carrier_parts=((cid, lambda p: np.ones(len(p))),),
        registry=reg,
    )
    out = evaluate(u, FunctionalSpec(make_area(), mu))
    ref = oracle_1d({"slopes": [0.0], "jumps": [[0.5, 1.0]]}, {"poly": [1.0], "atoms": [[0.5, 1.0]]}, {"kind": "area"})
    assert ref == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert out.total == pytest.approx(ref, abs=1e-10) and out.singular == 0.0
    assert out.ac_atoms == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert admissibility_check(u, mu)


def test_a_weightless_point_mass_is_no_part_of_mu(setting):
    # the jump it sits on is then mu-singular and counted by F^inf, as the oracle counts it
    d, reg, _ = setting
    u = piecewise_affine_1d(d, slopes=(0.0,), jumps=((0.5, (1.0,)),), registry=reg)
    mu = ScalarRadonMeasure(
        d, density=lambda n: np.ones(len(n)), carrier_parts=point_masses(d, reg, [((0.5,), 0.0)]),
        registry=reg,
    )
    assert mu.carrier_parts == () and mu.mass() == pytest.approx(1.0, abs=1e-12)
    out = evaluate(u, FunctionalSpec(make_norm(), mu))
    assert (out.ac_atoms, out.singular) == (0.0, 1.0) and not admissibility_check(u, mu)
    ref = oracle_1d({"slopes": [0.0], "jumps": [[0.5, 1.0]]}, {"poly": [1.0], "atoms": [[0.5, 0.0]]}, {"kind": "norm"})
    assert out.total == pytest.approx(ref, abs=1e-12)
