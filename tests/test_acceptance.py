"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np

from bvcalc.bv import (
    affine_2d,
    heaviside_1d,
    piecewise_affine_1d,
    ramp_1d,
    sawtooth_1d,
    verify_integration_by_parts,
    derivative,
)
from bvcalc.functional import (
    FunctionalSpec,
    evaluate,
    geometric_js,
    lsc_experiment,
    reshetnyak_experiment,
)
from bvcalc.integrands import (
    make_area,
    make_norm,
    make_shifted_norm,
    make_w_shape,
    recession,
    sq_envelope,
    transform_T,
    transform_T_inv,
    x_modulated,
)
from bvcalc.measures import (
    CarrierRegistry,
    Domain,
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    point_masses,
)
from bvcalc.oracle import oracle_1d
from bvcalc.scenarios import (
    RunConfig,
    build_case_1d,
    random_case_description,
    run,
)
from bvcalc.young import (
    GeneralizedYoungMeasure,
    constant_field,
    elementary,
    empirical_generation_check,
    jensen_check_lebesgue,
    jensen_check_mu,
)

from helpers import random_polynomial_test, vertical_step_2d

CATALOG = [
    make_norm(),
    make_area(),
    make_w_shape(),
    make_shifted_norm(),
    x_modulated(make_norm()),
    x_modulated(make_area()),
]


def report(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def sample_matrices(count, N, n, radius, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((count, N, n))
    mags = np.sqrt(np.sum(A * A, axis=(1, 2)))
    A *= (rng.uniform(0, radius, size=count) / np.maximum(mags, 1e-12))[:, None, None]
    return A, rng.uniform(0, 1, size=(count, 1))


def test_criterion_01_transform_round_trip():
    start = time.monotonic()
    worst = 0.0
    for f in CATALOG:
        N, n = f.dims
        A, x = sample_matrices(1000, N, n, radius=1e6, seed=11)
        back = transform_T_inv(transform_T(f))
        vals = f(x, A)
        rt = back(x, A)
        worst = max(worst, float(np.max(np.abs(rt - vals) / (1.0 + np.abs(vals)))))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"round-trip residual {worst:.2e} (<= 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_recession_correctness():
    F = make_area()
    A, _ = sample_matrices(100, 1, 1, radius=100.0, seed=7)
    worst_rec = 0.0
    worst_hom = 0.0
    for Ak in A:
        mag = float(np.abs(Ak[0, 0]))
        res = recession(F, None, Ak)
        worst_rec = max(worst_rec, abs(res.value - mag) / (1.0 + mag))
        base = res.value
        for s in (0.5, 2.0, 10.0):
            scaled = recession(F, None, s * Ak).value
            worst_hom = max(
                worst_hom, abs(scaled - s * base) / (1.0 + s * mag)
            )
    report(
        2,
        worst_rec <= 1e-6 and worst_hom <= 1e-8,
        f"recession residual {worst_rec:.2e} (<= 1e-6), homogeneity {worst_hom:.2e} (<= 1e-8)",
    )


def test_criterion_03_sq_envelope():
    F = make_area()
    A, _ = sample_matrices(1000, 1, 1, radius=64.0, seed=13)
    base = F(None, A)
    envelopes = {i: sq_envelope(F, i) for i in (1, 2, 4, 8)}
    monotone = True
    for i in (1, 2, 4):
        gi = envelopes[i](None, A)
        g2i = envelopes[2 * i](None, A)
        monotone &= bool(np.all(gi >= g2i - 1e-12) and np.all(g2i >= base - 1e-12))
    worst_identity = 0.0
    rng = np.random.default_rng(17)
    for i, G in envelopes.items():
        mags = rng.uniform(G.radius, 8 * G.radius, size=250)
        As = np.sign(rng.standard_normal(250)).reshape(-1, 1, 1) * mags.reshape(-1, 1, 1)
        vals = G(None, As)
        rec = G.recession(None, As)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(vals - (rec - i)) / (1.0 + np.abs(vals))))
        )
    report(
        3,
        monotone and worst_identity <= 1e-10,
        f"monotone chain {monotone}, identity residual {worst_identity:.2e} (<= 1e-10)",
    )


def test_criterion_04_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        case = random_case_description(rng)
        u, spec = build_case_1d(case, resolution=40000)
        ours = evaluate(u, spec).total
        ref = oracle_1d(case["u"], case["mu"], case["F"])
        worst = max(worst, abs(ours - ref) / abs(ref))
    elapsed = time.monotonic() - start
    report(
        4,
        worst <= 1e-8 and elapsed < 30.0,
        f"worst relative gap {worst:.2e} (<= 1e-8) over 50 cases, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_integration_by_parts():
    d1 = Domain((0.0, 1.0), 256)
    d2 = Domain(((0.0, 1.0), (0.0, 1.0)), 32)
    functions = [
        piecewise_affine_1d(d1, slopes=(1.0,)),
        piecewise_affine_1d(d1, breakpoints=(0.25, 0.6), slopes=(2.0, -1.0, 0.5)),
        heaviside_1d(d1, 0.5),
        piecewise_affine_1d(d1, breakpoints=(0.5,), slopes=(1.0, 1.0), jumps=((0.5, (1.0,)),)),
        ramp_1d(d1, 0.4, 0.2),
        sawtooth_1d(d1, 8),
        affine_2d(d2, np.array([[1.0, 2.0], [0.5, -1.0]]), offset=[0.3, -0.2]),
        vertical_step_2d(d2, 0.5),
    ]
    worst = 0.0
    for u in functions:
        for seed in range(20):
            psi = random_polynomial_test(u.domain, seed=seed)
            for i in range(u.N):
                for j in range(u.domain.dim):
                    worst = max(worst, verify_integration_by_parts(u, psi, i, j))
    report(5, worst <= 1e-8, f"worst residual {worst:.2e} (<= 1e-8), 20 tests per function")


def test_criterion_06_young_generation_sawtooth():
    start = time.monotonic()
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    candidate = GeneralizedYoungMeasure(
        constant_field([(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)]),
        ScalarRadonMeasure(d, registry=reg),
        None,
        mu,
    )
    js = geometric_js(256)
    rep = empirical_generation_check(
        lambda j: sawtooth_1d(d, j, registry=reg),
        candidate,
        [make_norm(), make_area(), make_shifted_norm(), make_w_shape(), x_modulated(make_area())],
        js=js,
        per_axis=12,
    )
    fitted = [o for o in rep.orders.values() if o is not None]
    elapsed = time.monotonic() - start
    report(
        6,
        rep.final_gap <= 0.02 and bool(fitted) and min(fitted) >= 0.8 and elapsed < 60.0,
        f"gap at j=256 {rep.final_gap:.2e} (<= 2e-2), order {min(fitted):.2f} (>= 0.8), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_07_young_generation_concentration():
    code, result = run(RunConfig(scenario="ramp-concentration", resolution=512, jmax=256))
    lam = result.metrics["lambda_mass"]
    wp = result.metrics["weight_plus"]
    wm = result.metrics["weight_minus"]
    report(
        7,
        code == 0 and abs(lam - 1.0) <= 0.01 and abs(wp - 1.0) <= 0.01 and wm <= 0.01,
        f"lambda mass {lam:.4f} (1 +- 1%), sphere weight at +1: {wp:.4f} (1 +- 1%)",
    )


def test_criterion_08_jensen_suite():
    d = Domain((0.0, 1.0), 256)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    sawtooth_cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)]),
        ScalarRadonMeasure(d, registry=reg),
        None,
        mu,
    )
    d2 = Domain((-1.0, 1.0), 256)
    reg2 = CarrierRegistry()
    mu2 = ScalarRadonMeasure(d2, density=lambda n: np.ones(len(n)), registry=reg2)
    conc_u = heaviside_1d(d2, 0.0, registry=reg2)
    conc_cand = GeneralizedYoungMeasure(
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d2, carrier_parts=point_masses(d2, reg2, [((0.0,), 1.0)]), registry=reg2),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu2,
    )
    h = heaviside_1d(d, 0.5, registry=reg)
    elem = elementary(derivative(h), mu)
    convex_violations = 0
    for F in (make_norm(), make_area(), make_shifted_norm()):
        (rep,) = jensen_check_mu([F], zero, sawtooth_cand)
        convex_violations += len(rep.ac_violations) + len(rep.singular_violations)
        (rep,) = jensen_check_mu([F], h, elem)
        convex_violations += len(rep.ac_violations) + len(rep.singular_violations)
        (rep,) = jensen_check_lebesgue([F], conc_u, conc_cand)
        convex_violations += len(rep.ac_violations) + len(rep.singular_violations)
    (w_rep,) = jensen_check_mu([make_w_shape()], zero, sawtooth_cand)
    report(
        8,
        convex_violations == 0 and len(w_rep.ac_violations) >= 1,
        f"convex catalog violations {convex_violations} (= 0); "
        f"double-well produces {len(w_rep.ac_violations)} violating nodes (>= 1, expected)",
    )


def test_criterion_09_lower_semicontinuity():
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    one = piecewise_affine_1d(d, slopes=(0.0,), start_value=1.0, registry=reg)
    js = geometric_js(256)
    sawtooth_seq = lambda j: sawtooth_1d(d, j, registry=reg)
    margins = {}
    for F in (make_norm(), make_area()):
        rep = lsc_experiment(sawtooth_seq, zero, FunctionalSpec(F, mu), js=js)
        margins[F.name] = rep.margin
    ramp_seq = lambda j: ramp_1d(d, 0.0, 1.0 / j, registry=reg)
    xdep = lsc_experiment(
        ramp_seq,
        one,
        FunctionalSpec(x_modulated(make_norm()), mu, include_boundary=True),
        js=js,
    )
    margins["x-mod-norm+boundary"] = xdep.margin
    wrep = lsc_experiment(sawtooth_seq, zero, FunctionalSpec(make_w_shape(), mu), js=js)
    quasiconvex_ok = all(m >= -1e-6 for m in margins.values())
    report(
        9,
        quasiconvex_ok and wrep.margin <= -0.9,
        f"quasiconvex margins {({k: round(v, 6) for k, v in margins.items()})} (>= -1e-6); "
        f"double-well margin {wrep.margin:.3f} (<= -0.9, expected violation)",
    )


def test_criterion_10_reshetnyak():
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    reg.register_point("jump:0.5", (0.5,))
    gamma = MatrixRadonMeasure(d, (1, 1), carrier_parts=point_masses(d, reg, [((0.5,), [[1.0]])]), registry=reg)

    def gamma_j(j):
        w = 1.0 / (8 * j)
        return derivative(ramp_1d(d, 0.5 - w / 2, w, registry=reg))

    js = geometric_js(256)
    rep = reshetnyak_experiment(gamma_j, gamma, make_area(), js=js)

    target = MatrixRadonMeasure(
        d, (1, 1), density=lambda n: np.ones((len(n), 1, 1)), registry=reg
    )

    def atoms_j(j):
        return MatrixRadonMeasure(
            d,
            (1, 1),
            carrier_parts=point_masses(d, reg, [(np.array([(k + 0.5) / j]), [[1.0 / j]]) for k in range(j)]),
            registry=reg,
        )

    counter = reshetnyak_experiment(atoms_j, target, make_area(), js=js)
    report(
        10,
        rep.accepted and rep.final_gap <= 1e-3 and not counter.accepted,
        f"ramp final gap {rep.final_gap:.2e} at j=256 (<= 1e-3); "
        f"counter-sequence rejected: {counter.reject_reason!r}",
    )


def test_criterion_11_example1():
    code, result = run(RunConfig(scenario="example1", resolution=256, jmax=32))
    bound = result.metrics["l1_lower_bound"]
    status = result.metrics["relaxation_status"]
    report(
        11,
        code == 0 and status == "no_admissible_sequence" and bound > 0.05,
        f"exit {code}, status {status!r}, lower bound {bound:.4f} (> 0.05)",
    )


def test_criterion_12_example2():
    start = time.monotonic()
    code, result = run(RunConfig(scenario="example2", resolution=128, jmax=16))
    bounds = {row["depth"]: row["bound"] for row in result.metrics["bounds"]}
    elapsed = time.monotonic() - start
    report(
        12,
        code == 0
        and abs(bounds[0] - 0.25) <= 1e-3
        and all(bounds[k] > 0 for k in range(5))
        and elapsed < 60.0,
        f"c_0 = {bounds[0]:.6f} (1/4 +- 1e-3), c_k > 0 for k <= 4, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_13_determinism(tmp_path):
    config = dict(scenario="sawtooth-oscillation", resolution=64, jmax=32, seed=3)
    run(RunConfig(output=str(tmp_path / "a"), **config))
    run(RunConfig(output=str(tmp_path / "b"), **config))
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    report(13, a == b, f"two identical runs -> byte-identical report.json ({len(a)} bytes)")
