"""Scenario catalog: end-to-end constructions with machine-checkable
expected outcomes, plus the randomized-case builder used for oracle
equivalence.

Each scenario builder is deterministic given the run configuration and
produces clause results (name, pass/fail, value, target); the runner
turns them into reports and an exit status.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import reporting
from .bv import (
    Piece,
    BVFunction,
    affine_2d,
    derivative,
    heaviside_1d,
    piecewise_affine_1d,
    ramp_1d,
    sawtooth_1d,
    zero_extension,
)
from .functional import (
    FunctionalSpec,
    admissibility_check,
    evaluate,
    geometric_js,
    lsc_experiment,
    relaxation_upper_bound,
    reshetnyak_experiment,
)
from .integrands import (
    Integrand,
    catalog_integrand,
    make_area,
    make_norm,
    make_shifted_norm,
    make_w_shape,
    quasiconvexity_refuter,
    rank_one_convexity_check,
    sq_envelope,
    x_modulated,
)
from .measures import (
    CarrierRegistry,
    Domain,
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    frobenius,
    lebesgue,
    point_masses,
    rn_decompose,
    singular_parts,
    total_variation,
)
from .oracle import oracle_1d
from .young import (
    GeneralizedYoungMeasure,
    constant_field,
    elementary,
    empirical_generation_check,
    jensen_check_lebesgue,
    jensen_check_mu,
    pairing,
    pairings,
)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    resolution: int = 256
    jmax: int = 256
    tolerance: float = 1e-6
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.resolution < 8:
            raise ScenarioError("resolution must be at least 8")
        if self.jmax < 8:
            raise ScenarioError("jmax must be at least 8")
        if self.tolerance <= 0:
            raise ScenarioError("tolerance must be positive")

    def as_dict(self):
        """The fields that decide a result: every one but ``output``."""
        return {k: v for k, v in asdict(self).items() if k != "output"}


@dataclass
class Clause:
    name: str
    passed: bool
    value: object
    target: str


@dataclass
class ScenarioResult:
    clauses: list
    metrics: dict
    tables: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.clauses)

    def report(self, config, hash_):
        return {
            "scenario": config.scenario,
            "config": config.as_dict(),
            "builder_hash": hash_,
            "passed": self.passed,
            "flags": self.flags,
            "metrics": self.metrics,
            "clauses": [asdict(c) for c in self.clauses],
        }


@dataclass(frozen=True)
class Scenario:
    sid: str
    summary: str
    builder: object  # RunConfig -> ScenarioResult


def _clause(name, passed, value, target):
    return Clause(name, bool(passed), value, target)


# ---------------------------------------------------------------------------
# oscillation / concentration scenarios
# ---------------------------------------------------------------------------


def _sawtooth_setting(config):
    """The unit interval with Lebesgue mu, the zero function, the two-well
    Young measure (gradients -1 and 1 with weight 1/2 each), the indices j
    and the sawtooth sequence u_j of slopes +-1 that generates it."""
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = lebesgue(d, reg)
    zero = piecewise_affine_1d(d, slopes=(0.0,), registry=reg)
    candidate = GeneralizedYoungMeasure(
        d,
        (1, 1),
        constant_field([(np.array([[-1.0]]), 0.5), (np.array([[1.0]]), 0.5)]),
        ScalarRadonMeasure(d, registry=reg),
        None,
        mu,
    )
    seq = lambda j: sawtooth_1d(d, j, registry=reg)
    return d, mu, zero, candidate, geometric_js(config.jmax), seq


def scenario_sawtooth(config):
    d, mu, zero, candidate, js, seq = _sawtooth_setting(config)
    dictionary = [
        make_norm(),
        make_area(),
        make_shifted_norm(),
        make_w_shape(),
        x_modulated(make_area()),
    ]
    gen = empirical_generation_check(seq, mu, candidate, dictionary, js=js, per_axis=12)
    fitted = [o for o in gen.orders.values() if o is not None]
    lsc = lsc_experiment(seq, zero, FunctionalSpec(make_norm(), mu, d), js=js)
    jensen_ok = {
        f.name: jensen_check_mu(f, zero, candidate, mu).ok
        for f in (make_norm(), make_area(), make_shifted_norm())
    }
    clauses = [
        _clause("generation_tail_gap", gen.final_gap <= 0.02, gen.final_gap, "<= 0.02"),
        _clause(
            "generation_order",
            bool(fitted) and min(fitted) >= 0.8,
            min(fitted) if fitted else None,
            ">= 0.8 in 1/j",
        ),
        _clause(
            "lsc_margin_nonnegative",
            lsc.margin >= -config.tolerance,
            lsc.margin,
            f">= -{config.tolerance}",
        ),
        _clause(
            "jensen_convex_all_hold", all(jensen_ok.values()), jensen_ok, "no violating nodes"
        ),
    ]
    gap_rows = [
        (j, max(gaps[k] for gaps in gen.per_probe.values()))
        for k, j in enumerate(js)
    ]
    return ScenarioResult(
        clauses,
        {
            "generation_final_gap": gen.final_gap,
            "orders": gen.orders,
            "lsc_margin": lsc.margin,
        },
        tables={"generation_gaps": (("j", "max_gap"), gap_rows)},
    )


def _plateau_bump(center, inner, outer):
    def phi(nodes):
        s = (np.abs(nodes[:, 0] - center) - inner) / (outer - inner)
        s = np.clip(s, 0.0, 1.0)
        return (1.0 - s) ** 2 * (1.0 + 2.0 * s)

    return phi


def scenario_ramp_concentration(config):
    d = Domain((-1.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = lebesgue(d, reg)
    u = heaviside_1d(d, 0.0, registry=reg)
    candidate = GeneralizedYoungMeasure(
        d,
        (1, 1),
        constant_field([(np.array([[0.0]]), 1.0)]),
        ScalarRadonMeasure(d, carrier_parts=point_masses(d, reg, [((0.0,), 1.0)]), registry=reg),
        constant_field([(np.array([[1.0]]), 1.0)]),
        mu,
    )
    j = config.jmax
    uj = ramp_1d(d, 0.0, 1.0 / j, registry=reg)
    eps_j = elementary(derivative(uj), mu)
    plateau = _plateau_bump(0.0, 0.05, 0.1)
    pos, neg = (  # positively 1-homogeneous: each part is its own recession
        Integrand(name, (1, 1), fn, 0.0, 1.0, recession_analytic=fn, nonnegative=False)
        for name, fn in (
            ("pos-part", lambda x, A: np.maximum(A[:, 0, 0], 0.0)),
            ("neg-part", lambda x, A: np.maximum(-A[:, 0, 0], 0.0)),
        )
    )
    (lam_mass,), (w_plus,), (w_minus,) = pairings([make_norm(), pos, neg], eps_j, [plateau])
    jump_size = 1.0
    jensen_ok = {
        f.name: jensen_check_lebesgue(f, u, candidate).ok
        for f in (make_norm(), make_area())
    }
    clauses = [
        _clause(
            "lambda_mass_recovery",
            abs(lam_mass - jump_size) <= 0.01 * jump_size,
            lam_mass,
            "within 1% of the unit jump",
        ),
        _clause(
            "sphere_atom_plus_one",
            abs(w_plus - 1.0) <= 0.01 and w_minus <= 0.01,
            {"weight_plus": w_plus, "weight_minus": w_minus},
            "weight 1 at +1 within 1%",
        ),
        _clause(
            "jensen_lebesgue_convex", all(jensen_ok.values()), jensen_ok, "no violating nodes"
        ),
    ]
    return ScenarioResult(
        clauses,
        {"lambda_mass": lam_mass, "weight_plus": w_plus, "weight_minus": w_minus},
    )


# ---------------------------------------------------------------------------
# decomposition / boundary scenarios
# ---------------------------------------------------------------------------


def scenario_atom_absorbs_jump(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: 2.0 * np.ones(len(n)),
        carrier_parts=point_masses(d, reg, [((0.5,), 1.0)]),
        registry=reg,
        dominates_lebesgue=True,
    )
    u = piecewise_affine_1d(d, slopes=(1.0,), jumps=((0.5, (1.0,)),), registry=reg)
    spec = FunctionalSpec(make_norm(), mu, d)
    out = evaluate(u, spec)
    remainder_tv = total_variation(rn_decompose(derivative(u), mu).remainder)
    case = {
        "u": {"breaks": [], "slopes": [1.0], "jumps": [[0.5, 1.0]]},
        "mu": {"poly": [2.0], "atoms": [[0.5, 1.0]]},
        "F": {"kind": "norm"},
    }
    ref = oracle_1d(case["u"], case["mu"], case["F"], domain=(0.0, 1.0))
    eps = elementary(derivative(u), mu)
    pair_gap = abs(pairing(make_norm(), eps) - out.interior)
    admissible = admissibility_check(u, mu)
    clauses = [
        _clause("value_is_two", abs(out.total - 2.0) <= 1e-10, out.total, "= 2"),
        _clause(
            "no_singular_remainder", remainder_tv == 0.0, remainder_tv, "= 0 (jump absorbed)"
        ),
        _clause("admissible", admissible, admissible, "in the mu-Sobolev class"),
        _clause(
            "oracle_agreement",
            abs(out.total - ref) / abs(ref) <= 1e-8,
            abs(out.total - ref) / abs(ref),
            "<= 1e-8 relative",
        ),
        _clause(
            "young_pairing_consistent", pair_gap <= 1e-10, pair_gap, "<= 1e-10"
        ),
    ]
    return ScenarioResult(
        clauses,
        {"value": out.total, "oracle": ref, "breakdown": out.as_dict()},
    )


def scenario_boundary_term(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = lebesgue(d, reg)
    u = piecewise_affine_1d(d, slopes=(1.0,), start_value=0.5, registry=reg)
    spec = FunctionalSpec(make_norm(), mu, d, include_boundary=True)
    val_inner = evaluate(u, spec).total

    d_out = Domain((-0.5, 1.5), config.resolution)
    ext = zero_extension(u, d_out)
    val_outer = evaluate(ext, FunctionalSpec(make_norm(), lebesgue(d_out, reg), d_out)).total
    glue_gap = abs(val_inner - val_outer) / max(1.0, abs(val_inner))

    one = piecewise_affine_1d(d, slopes=(0.0,), start_value=1.0, registry=reg)
    De = derivative(zero_extension(one, d_out, carrier_prefix="bnd-one"))
    atom_vals = {part.points[0, 0]: part.values[0, 0, 0] for part in singular_parts(De)}
    unit_jumps_ok = (
        abs(atom_vals.get(0.0, 0.0) - 1.0) <= 1e-12
        and abs(atom_vals.get(1.0, 0.0) + 1.0) <= 1e-12
    )

    d2 = Domain(((0.0, 1.0), (0.0, 1.0)), max(16, config.resolution // 8))
    c = np.array([1.5, -2.0])
    reg2 = CarrierRegistry()
    const2 = affine_2d(d2, np.zeros((2, 2)), offset=c, registry=reg2)
    ext2 = zero_extension(const2, Domain(((-1.0, 2.0), (-1.0, 2.0)), max(16, config.resolution // 8)))
    perimeter_mass = total_variation(derivative(ext2))
    expected_mass = float(np.linalg.norm(c)) * 4.0
    clauses = [
        _clause(
            "gluing_identity",
            glue_gap <= 1e-10,
            {"inner": val_inner, "outer": val_outer},
            "boundary term = extension interior (1e-10 rel)",
        ),
        _clause(
            "unit_jumps_at_endpoints", unit_jumps_ok, atom_vals, "+1 at 0, -1 at 1"
        ),
        _clause(
            "perimeter_mass_2d",
            abs(perimeter_mass - expected_mass) <= 1e-10 * expected_mass,
            perimeter_mass,
            f"= |c| * perimeter = {expected_mass}",
        ),
    ]
    return ScenarioResult(
        clauses,
        {"inner": val_inner, "outer": val_outer, "perimeter_mass": perimeter_mass},
    )


# ---------------------------------------------------------------------------
# continuity scenarios
# ---------------------------------------------------------------------------


def scenario_reshetnyak_ramp(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    gamma = MatrixRadonMeasure(d, (1, 1), carrier_parts=point_masses(d, reg, [((0.5,), [[1.0]])]), registry=reg)

    def gamma_j(j):
        w = 1.0 / (8 * j)
        return derivative(ramp_1d(d, 0.5 - w / 2, w, registry=reg))

    js = geometric_js(config.jmax)
    rep = reshetnyak_experiment(gamma_j, gamma, make_area(), js=js)
    # the pinned tolerance 1e-3 applies at j = 256; first-order scaling
    # adjusts it when the run is truncated earlier
    gap_target = 1e-3 * max(1.0, 256.0 / config.jmax)
    clauses = [
        _clause("preamble_accepted", rep.accepted, rep.accepted, "area-strict sequence"),
        _clause(
            "final_gap",
            rep.accepted and rep.final_gap <= gap_target,
            rep.final_gap,
            f"<= {gap_target:g} at j = {config.jmax}",
        ),
        _clause(
            "first_order_trend",
            rep.order is not None and rep.order >= 0.8,
            rep.order,
            "order >= 0.8 in 1/j",
        ),
    ]
    rows = list(zip(js, rep.gaps)) if rep.accepted else []
    return ScenarioResult(
        clauses,
        {"final_gap": rep.final_gap, "order": rep.order, "area_gap": rep.area_gap},
        tables={"continuity_gaps": (("j", "gap"), rows)},
    )


def scenario_reshetnyak_counter(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    target = MatrixRadonMeasure(
        d, (1, 1), density=lambda n: np.ones((len(n), 1, 1)), registry=reg
    )

    @functools.cache  # the last one is read twice
    def atoms_j(j):
        return MatrixRadonMeasure(
            d,
            (1, 1),
            carrier_parts=point_masses(d, reg, [(((k + 0.5) / j,), [[1.0 / j]]) for k in range(j)]),
            registry=reg,
        )

    js = geometric_js(config.jmax)
    rep = reshetnyak_experiment(atoms_j, target, make_area(), js=js)
    tv_gap = abs(total_variation(atoms_j(js[-1])) - total_variation(target))
    clauses = [
        _clause(
            "preamble_rejects",
            not rep.accepted and rep.reject_reason == "area-strictness fails",
            rep.reject_reason,
            "rejected: strict but not area-strict",
        ),
        _clause(
            "strict_convergence_holds", tv_gap <= 1e-9, tv_gap, "total variation gap -> 0"
        ),
        _clause(
            "area_gap_persists", rep.area_gap > 0.5, rep.area_gap, "> 0.5 (2 vs sqrt 2)"
        ),
    ]
    return ScenarioResult(
        clauses,
        {"area_gap": rep.area_gap, "tv_gap": tv_gap},
        flags=["expected_rejection"],
    )


# ---------------------------------------------------------------------------
# quasiconvexity scenarios
# ---------------------------------------------------------------------------


def scenario_nonquasiconvex(config):
    d, mu, zero, candidate, js, seq = _sawtooth_setting(config)
    F = make_w_shape()
    lsc = lsc_experiment(seq, zero, FunctionalSpec(F, mu, d), js=js)
    jensen = jensen_check_mu(F, zero, candidate, mu)
    witness = quasiconvexity_refuter(F, np.array([[0.0]]), grid=16)
    refined = witness.reevaluate(F, np.array([[0.0]])) if witness else 0.0
    r1 = rank_one_convexity_check(F, np.zeros((1, 1)), np.array([1.0]), np.array([1.0]))
    clauses = [
        _clause("lsc_margin_drops", lsc.margin <= -0.9, lsc.margin, "<= -0.9"),
        _clause(
            "expected_violation_flagged",
            lsc.flags == ["expected_violation"],
            lsc.flags,
            "violation attributed to missing quasiconvexity",
        ),
        _clause(
            "jensen_violating_nodes",
            len(jensen.ac_violations) >= 1,
            len(jensen.ac_violations),
            ">= 1 node",
        ),
        _clause(
            "refuter_witness",
            witness is not None and witness.value <= -0.9,
            None if witness is None else witness.value,
            "<= -0.9 (sawtooth laminate)",
        ),
        _clause(
            "witness_survives_refinement", refined < -1e-9, refined, "< -1e-9 at 2x grid"
        ),
        _clause(
            "rank_one_violation",
            abs(r1.max_violation - 1.0) <= 1e-9,
            r1.max_violation,
            "= 1 at the (-1, 0, 1) triple",
        ),
    ]
    return ScenarioResult(
        clauses,
        {
            "lsc_margin": lsc.margin,
            "jensen_violations": len(jensen.ac_violations),
            "witness": None if witness is None else witness.value,
            "rank_one_violation": r1.max_violation,
        },
        flags=["expected_violation"],
    )


def scenario_sq_envelope(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = lebesgue(d, reg)
    F = make_area()
    rng = np.random.default_rng(config.seed)
    A = rng.standard_normal((1000, 1, 1))
    A *= (rng.uniform(0, 50, size=1000) / np.maximum(np.abs(A[:, 0, 0]), 1e-12))[
        :, None, None
    ]
    indices = (1, 2, 4, 8)
    envs = [sq_envelope(F, i) for i in indices]
    vals = [G(None, A) for G in envs]
    base = F(None, A)
    monotone = all(np.all(vals[k] >= vals[k + 1] - 1e-12) for k in range(len(vals) - 1))
    above = all(np.all(v >= base - 1e-12) for v in vals)
    identity_ok = all(G.validate_sq() for G in envs)
    u = piecewise_affine_1d(d, breakpoints=(0.5,), slopes=(3.0, -2.0), registry=reg)
    evals = [evaluate(u, FunctionalSpec(G, mu, d)).total for G in envs]
    base_eval = evaluate(u, FunctionalSpec(F, mu, d)).total
    integrated_monotone = all(
        evals[k] >= evals[k + 1] - 1e-10 for k in range(len(evals) - 1)
    ) and all(v >= base_eval - 1e-10 for v in evals)
    clauses = [
        _clause("pointwise_monotone", monotone and above, monotone, "G_i >= G_2i >= F"),
        _clause(
            "sq_identity",
            identity_ok,
            [G.radius for G in envs],
            "F = F^inf - i outside r_i (1e-10)",
        ),
        _clause(
            "crossover_radius", envs[0].radius <= 2.0, envs[0].radius, "r_1 <= 2"
        ),
        _clause(
            "integrated_monotone",
            integrated_monotone,
            evals,
            "functional values decrease to the base",
        ),
    ]
    return ScenarioResult(
        clauses,
        {"radii": [G.radius for G in envs], "evals": evals, "base_eval": base_eval},
    )


# ---------------------------------------------------------------------------
# degenerate-weight scenarios
# ---------------------------------------------------------------------------


def _flat_top_bump(center, radius):
    cx, cy = center

    def value(nodes):
        rho2 = (nodes[:, 0] - cx) ** 2 + (nodes[:, 1] - cy) ** 2
        s2 = np.minimum(rho2 / radius**2, 1.0)
        return ((1.0 - s2**2) ** 2)[:, None]

    def grad(nodes):
        dx = nodes[:, 0] - cx
        dy = nodes[:, 1] - cy
        rho2 = dx**2 + dy**2
        s2 = rho2 / radius**2
        inside = s2 < 1.0
        # d/drho2 of (1 - (rho2/r^2)^2)^2 = 2(1 - s2^2)(-2 s2 / r^2)
        factor = np.where(inside, -4.0 * (1.0 - s2**2) * s2 / radius**2, 0.0)
        g = np.zeros((len(nodes), 1, 2))
        g[:, 0, 0] = factor * dx
        g[:, 0, 1] = factor * dy
        return g

    return value, grad


def _bump_profile_radial(s):
    return (1.0 - np.minimum(s, 1.0) ** 4) ** 2


def scenario_example1(config):
    """Open set of positive area carrying none of the reference measure:
    no admissible sequence can reach a function that varies there, and the
    best-constant L^1 distance on the hole is a positive lower bound."""
    d = Domain(((0.0, 1.0), (0.0, 1.0)), config.resolution)
    reg = CarrierRegistry()
    center, hole_radius = (0.5, 0.5), 0.25
    bump_radius = 0.98 * hole_radius

    def weight(nodes):
        rho2 = (nodes[:, 0] - center[0]) ** 2 + (nodes[:, 1] - center[1]) ** 2
        return np.where(rho2 < hole_radius**2, 0.0, 1.0)

    mu = ScalarRadonMeasure(d, density=weight, registry=reg, dominates_lebesgue=False)
    value, grad = _flat_top_bump(center, bump_radius)
    u = BVFunction(d, 1, [Piece(region=d.box, u=value, grad=grad)], registry=reg)

    # candidate family: the bump itself, its rescalings, affine fields, constants
    def const_builder(c):
        return lambda j: affine_2d(d, np.zeros((1, 2)), offset=[c], registry=reg)

    family = [
        ("bump-itself", lambda j: u),
        (
            "shrunk-bump",
            lambda j: BVFunction(
                d,
                1,
                [Piece(region=d.box, u=lambda n: value(n) * (1 - 1.0 / j), grad=lambda n: grad(n) * (1 - 1.0 / j))],
                registry=reg,
                validate=False,
            ),
        ),
        ("constant-0", const_builder(0.0)),
        ("constant-mean", const_builder(0.25)),
        ("affine", lambda j: affine_2d(d, np.array([[0.2, 0.1]]), registry=reg)),
    ]
    spec = FunctionalSpec(make_norm(N=1, n=2), mu, d)
    relax = relaxation_upper_bound(u, spec, family, jmax=min(config.jmax, 32), l1_tol=0.01)

    # admissible candidates must be locally constant on the hole
    nodes, _ = d.cell_rule()
    in_hole = (nodes[:, 0] - center[0]) ** 2 + (nodes[:, 1] - center[1]) ** 2 < hole_radius**2
    constant_on_hole = True
    for fid, builder in family:
        w = builder(config.jmax)
        if admissibility_check(w, mu):
            gmag = frobenius(w.gradient_at(nodes[in_hole]))
            if np.any(gmag > 1e-12):
                constant_on_hole = False

    # lower bound min_c integral over the hole of |u - c| by radial quadrature
    m = 100_000
    s = (np.arange(m) + 0.5) / m  # rho / bump_radius on (0, 1]; u = 0 beyond
    vals = np.append(_bump_profile_radial(s), 0.0)  # the value 0 on the rest of the hole
    weights = np.append(2.0 * math.pi * bump_radius**2 * s / m, math.pi * (hole_radius**2 - bump_radius**2))
    # sum w_i |v_i - c| is minimized by the weighted median of the v_i
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(weights[order])
    best = vals[order][np.searchsorted(cum, 0.5 * cum[-1])]
    lower_bound = float(np.dot(weights, np.abs(vals - best)))

    clauses = [
        _clause(
            "no_admissible_sequence",
            relax.status == "no_admissible_sequence",
            relax.status,
            "relaxation family empties out",
        ),
        _clause(
            "admissible_candidates_constant_on_hole",
            constant_on_hole,
            constant_on_hole,
            "zero gradient where the weight vanishes",
        ),
        _clause(
            "l1_lower_bound",
            lower_bound > 0.05,
            lower_bound,
            "> 0.05 for the unit-height bump",
        ),
    ]
    return ScenarioResult(
        clauses,
        {
            "relaxation_status": relax.status,
            "l1_lower_bound": lower_bound,
            "best_constant": float(best),
            "members": [(fid, adm, gap) for fid, adm, gap, _ in relax.members],
        },
        flags=["relaxed_value_infinite"],
    )


def carpet_holes(depth):
    """Removed open squares of the fat-carpet construction.

    Level m removes from each of the 8^(m-1) active cells (the 3 x 3
    subdivision minus the center, recursively) a centered open square of
    side 3^(-m) / sqrt(2); the total removed area over all levels is 1/2.
    Returns a list of (x0, x1, y0, y1).
    """
    beta = 1.0 / math.sqrt(2.0)
    cells = [(ix, iy) for ix in range(3) for iy in range(3) if (ix, iy) != (1, 1)]  # not the center
    holes = []
    active = [(0.0, 0.0, 1.0)]  # (x0, y0, side)
    for m in range(1, depth + 1):
        side = 3.0 ** (-m) * beta
        nxt = []
        for x0, y0, cell in active:
            cx, cy = x0 + cell / 2, y0 + cell / 2
            holes.append((cx - side / 2, cx + side / 2, cy - side / 2, cy + side / 2))
            third = cell / 3.0
            nxt += [(x0 + ix * third, y0 + iy * third, third) for ix, iy in cells]
        active = nxt
    return holes


def carpet_lower_bound(depth):
    """min over constants c of the integral over the depth-k carpet of
    |x - c|, via exact per-hole sums (holes are axis-aligned squares).
    The holes map onto themselves under x -> 1 - x, so the convex
    integral is least at c = 1/2."""
    c = 0.5
    x0, x1, y0, y1 = np.array([(0.0, 1.0, 0.0, 1.0)] + carpet_holes(depth)).T
    # integral of |x - c| over each square: (y1 - y0) [a|a|/2] from a0 to a1
    a0, a1 = x0 - c, x1 - c
    square, *hole_terms = ((y1 - y0) * (0.5 * a1 * np.abs(a1) - 0.5 * a0 * np.abs(a0))).tolist()
    for term in hole_terms:  # the unit square minus each hole, in order: np.sum rounds differently
        square -= term
    return square, c


def carpet_indicator(holes):
    """Indicator of the union of the open squares ``holes`` (x0, x1, y0, y1),
    and the sorted hole edges per axis at which it jumps.

    Along each axis a coordinate falls in class 2k on the open interval
    just below the k-th edge and in class 2k + 1 on that edge, so a 0/1
    table over pairs of classes reproduces the strict per-hole comparisons
    exactly, nodes on edges and corners included."""
    x0, x1, y0, y1 = np.array(holes).reshape(-1, 4).T
    xb, yb = np.unique([x0, x1]), np.unique([y0, y1])

    def classes(edges, v):
        return np.searchsorted(edges, v) + np.searchsorted(edges, v, "right")

    table = np.zeros((2 * len(xb) + 1, 2 * len(yb) + 1))
    for i0, i1, j0, j1 in zip(*classes(xb, (x0, x1)), *classes(yb, (y0, y1))):
        table[i0 + 1 : i1, j0 + 1 : j1] = 1.0

    def weight(nodes):
        return table[classes(xb, nodes[:, 0]), classes(yb, nodes[:, 1])]

    return weight, (xb, yb)


def scenario_example2(config):
    """Fat-carpet weight: the measure sees only a dense family of holes of
    total area 1/2, admissible functions are constant on the connected
    carpet interior, and the profile u(x, y) = x stays at L^1 distance
    bounded below at every depth."""
    d = Domain(((0.0, 1.0), (0.0, 1.0)), config.resolution)
    reg = CarrierRegistry()
    max_depth = 4
    bounds = [(k, *carpet_lower_bound(k)) for k in range(max_depth + 1)]
    u = affine_2d(d, np.array([[1.0, 0.0]]), registry=reg)  # u(x, y) = x

    holes4 = carpet_holes(max_depth)
    weight, breaks = carpet_indicator(holes4)
    mu_k = ScalarRadonMeasure(
        d, density=weight, registry=reg, breaks=breaks, dominates_lebesgue=False
    )
    u_admissible = admissibility_check(u, mu_k)
    c0 = bounds[0][1]
    clauses = [
        _clause("c0_is_quarter", abs(c0 - 0.25) <= 1e-3, c0, "= 1/4 within 1e-3"),
        _clause(
            "bounds_positive",
            all(ck > 0 for _, ck, _ in bounds),
            [ck for _, ck, _ in bounds],
            "> 0 for depths 0..4",
        ),
        _clause(
            "bounds_decreasing",
            all(bounds[k + 1][1] <= bounds[k][1] + 1e-15 for k in range(len(bounds) - 1)),
            [ck for _, ck, _ in bounds],
            "monotone in depth",
        ),
        _clause(
            "target_profile_inadmissible",
            not u_admissible,
            u_admissible,
            "u(x, y) = x has gradient outside the holes",
        ),
    ]
    return ScenarioResult(
        clauses,
        {
            "bounds": [{"depth": k, "bound": ck, "c_star": cs} for k, ck, cs in bounds],
            "hole_area_depth4": sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in holes4),
        },
        tables={"carpet_bounds": (("depth", "bound", "best_c"), [(k, ck, cs) for k, ck, cs in bounds])},
        flags=["relaxed_value_infinite"],
    )


def scenario_x_dependent_lsc(config):
    d = Domain((0.0, 1.0), config.resolution)
    reg = CarrierRegistry()
    mu = lebesgue(d, reg)
    F = x_modulated(make_norm())
    spec = FunctionalSpec(F, mu, d, include_boundary=True)
    one = piecewise_affine_1d(d, slopes=(0.0,), start_value=1.0, registry=reg)
    js = geometric_js(config.jmax)
    seq = lambda j: ramp_1d(d, 0.0, 1.0 / j, registry=reg)
    rep = lsc_experiment(seq, one, spec, js=js)
    # mass of Du_j drifts into the left endpoint; the boundary term absorbs it
    interior_only = lsc_experiment(seq, one, spec.without_boundary(), js=js)
    clauses = [
        _clause(
            "margin_nonnegative", rep.margin >= -1e-6, rep.margin, ">= -1e-6 (weak* LSC)"
        ),
        _clause(
            "margin_tight",
            abs(rep.margin) <= 0.01,
            rep.margin,
            "boundary term absorbs the concentrating gradient",
        ),
        _clause(
            "no_violation_flag", not rep.flags, rep.flags, "no violation for quasiconvex F"
        ),
    ]
    return ScenarioResult(
        clauses,
        {
            "margin": rep.margin,
            "interior_margin": interior_only.margin,
            "limit_value": rep.value_at_limit,
        },
        tables={"lsc_values": (("j", "value"), list(zip(rep.js, rep.values)))},
    )


# ---------------------------------------------------------------------------
# randomized 1D cases for oracle equivalence
# ---------------------------------------------------------------------------


def random_case_description(rng):
    """A random piecewise-affine profile, polynomial-density measure with
    atoms, and convex catalog integrand, as plain dicts."""
    n_breaks = int(rng.integers(0, 4))
    breaks = sorted(float(t) for t in rng.uniform(0.1, 0.9, size=n_breaks))
    slopes = [float(s) for s in rng.uniform(0.5, 3.0, size=n_breaks + 1) * rng.choice([-1, 1], size=n_breaks + 1)]
    n_jumps = int(rng.integers(0, 6))
    jump_positions = []
    while len(jump_positions) < n_jumps:
        t = float(rng.uniform(0.05, 0.95))
        if all(abs(t - s) > 0.02 for s in jump_positions):
            jump_positions.append(t)
    jumps = [[t, float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))] for t in jump_positions]
    poly = [float(rng.uniform(0.8, 2.0)), float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3))]
    atoms = []
    for t, _ in jumps:
        if rng.uniform() < 0.5 and len(atoms) < 3:
            atoms.append([t, float(rng.uniform(0.5, 2.0))])
    while len(atoms) < int(rng.integers(0, 4)):
        p = float(rng.uniform(0.05, 0.95))
        if all(abs(p - q) > 0.02 for q, _ in atoms) and all(
            abs(p - t) > 0.02 for t, _ in jumps
        ):
            atoms.append([p, float(rng.uniform(0.5, 2.0))])
    kind = rng.choice(["norm", "area", "shifted-norm"])
    f_desc = {"kind": str(kind), "modulated": bool(rng.uniform() < 0.3)}
    if kind == "shifted-norm":
        f_desc["A0"] = 0.3
        f_desc["c"] = 0.4
    return {
        "u": {"breaks": breaks, "slopes": slopes, "jumps": jumps},
        "mu": {"poly": poly, "atoms": atoms},
        "F": f_desc,
        "domain": [0.0, 1.0],
    }


def build_case_1d(case, resolution=20000):
    """Instantiate a random case through the regular pipeline objects."""
    domain = Domain(tuple(case.get("domain", (0.0, 1.0))), resolution)
    reg = CarrierRegistry()
    u = piecewise_affine_1d(
        domain,
        breakpoints=case["u"].get("breaks", ()),
        slopes=case["u"].get("slopes", (0.0,)),
        jumps=tuple((t, (d,)) for t, d in case["u"].get("jumps", ())),
        registry=reg,
    )
    coeffs = case["mu"].get("poly", (1.0,))
    if not np.size(coeffs):
        raise ScenarioError(f"'mu' poly must list at least one coefficient, got {coeffs!r}")

    def density(nodes):
        return np.polynomial.polynomial.polyval(nodes[:, 0], coeffs)

    mu = ScalarRadonMeasure(
        domain,
        density=density,
        carrier_parts=point_masses(domain, reg, [((p,), w) for p, w in case["mu"].get("atoms", ())]),
        registry=reg,
        dominates_lebesgue=True,
        eps=1e-6,
    )
    f_desc = case["F"]
    if f_desc["kind"] == "shifted-norm":
        F = make_shifted_norm(A0=f_desc.get("A0", 0.3), c=f_desc.get("c", 0.4))
    else:
        F = catalog_integrand(f_desc["kind"])
    if f_desc.get("modulated"):
        F = x_modulated(F)
    return u, FunctionalSpec(F, mu, domain)


# ---------------------------------------------------------------------------
# catalog and runner
# ---------------------------------------------------------------------------


def scenario_catalog():
    return [
        Scenario("sawtooth-oscillation", "oscillating gradients: generation + LSC + Jensen", scenario_sawtooth),
        Scenario("ramp-concentration", "gradient concentration: recovered mass and direction", scenario_ramp_concentration),
        Scenario("atom-absorbs-jump", "jump absorbed by a reference-measure atom", scenario_atom_absorbs_jump),
        Scenario("boundary-term-demo", "zero extension and the boundary term", scenario_boundary_term),
        Scenario("reshetnyak-ramp", "continuity along an area-strict ramp sequence", scenario_reshetnyak_ramp),
        Scenario("reshetnyak-counter", "strict-but-not-area-strict sequence is rejected", scenario_reshetnyak_counter),
        Scenario("nonquasiconvex-violation", "double-well integrand: expected failures", scenario_nonquasiconvex),
        Scenario("sq-envelope-monotone", "special quasiconvex envelopes decrease to the base", scenario_sq_envelope),
        Scenario("example1", "weight vanishing on a ball: no admissible sequence", scenario_example1),
        Scenario("example2", "fat-carpet weight: positive lower bounds per depth", scenario_example2),
        Scenario("x-dependent-lsc", "spatially modulated integrand with boundary term", scenario_x_dependent_lsc),
    ]


def get_scenario(sid):
    for s in scenario_catalog():
        if s.sid == sid:
            return s
    raise ScenarioError(f"unknown scenario {sid!r}")


def run(config):
    """Execute a scenario and write its reports; returns (exit status,
    ScenarioResult).  Exit status 0 iff every expected-outcome clause holds."""
    scenario = get_scenario(config.scenario)
    result = scenario.builder(config)
    if config.output is not None:
        report = result.report(config, reporting.builder_hash(scenario.builder))
        reporting.write_report(config.output, report, tables=result.tables)
        for name, (header, rows) in result.tables.items():
            if rows and len(header) >= 2 and all(
                isinstance(v, (int, float)) for v in rows[0][:2]
            ):
                columns = list(zip(*[(row[0], row[1]) for row in rows]))
                reporting.write_dat(config.output, name, columns)
    return (0 if result.passed else 1), result
