import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc import reporting
from bvcalc.cli import build_parser
from bvcalc.cli import main as cli_main
from bvcalc.bv import BVError
from bvcalc.functional import FunctionalError, evaluate
from bvcalc.integrands import IntegrandError
from bvcalc.measures import (
    CarrierRegistry,
    Domain,
    MeasureError,
    ScalarRadonMeasure,
    point_masses,
)
from bvcalc.oracle import OracleError, oracle_1d, oracle_case
from bvcalc.scenarios import (
    RunConfig,
    ScenarioError,
    build_case_1d,
    carpet_holes,
    carpet_indicator,
    carpet_lower_bound,
    random_case_description,
    run,
    scenario_catalog,
    scenario_example1,
    scenario_example2,
)


# ---------------------------------------------------------------------------
# catalog structure
# ---------------------------------------------------------------------------


def test_catalog_size_and_unique_ids():
    catalog = scenario_catalog()
    assert len(catalog) >= 10
    ids = [s.sid for s in catalog]
    assert len(set(ids)) == len(ids)
    required = {
        "sawtooth-oscillation",
        "ramp-concentration",
        "atom-absorbs-jump",
        "boundary-term-demo",
        "reshetnyak-ramp",
        "nonquasiconvex-violation",
        "sq-envelope-monotone",
        "example1",
        "example2",
        "x-dependent-lsc",
    }
    assert required <= set(ids)


def test_run_config_validation():
    with pytest.raises(ScenarioError):
        RunConfig(scenario="sawtooth-oscillation", resolution=4)
    with pytest.raises(ScenarioError):
        RunConfig(scenario="sawtooth-oscillation", jmax=4)
    with pytest.raises(ScenarioError):
        RunConfig(scenario="sawtooth-oscillation", tolerance=0.0)


def test_run_parser_defaults_are_run_config_defaults():
    args = build_parser().parse_args(["run", "--scenario", "example1"])
    config = RunConfig(scenario="example1")
    for name in ("resolution", "jmax", "tolerance", "seed", "output"):
        assert getattr(args, name) == getattr(config, name)


def test_the_parser_is_built_once_and_parsing_leaves_it_unchanged(capsys):
    from bvcalc import cli

    assert build_parser() is build_parser()
    outputs = []
    for _ in range(2):
        assert cli.main(["list"]) == 0
        with pytest.raises(SystemExit):
            cli.main(["run", "--resolution", "x"])
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and "--scenario" in outputs[0].err


def test_field_dicts_list_every_field_in_declaration_order(monkeypatch):
    from bvcalc import cli
    from bvcalc.functional import EvaluationBreakdown
    from bvcalc.scenarios import Clause, ScenarioResult

    config = RunConfig(scenario="example1", resolution=64, jmax=32, tolerance=1e-7, seed=3, output="o")
    assert list(config.as_dict().items()) == [
        ("scenario", "example1"), ("resolution", 64), ("jmax", 32), ("tolerance", 1e-7), ("seed", 3)
    ]
    parts = EvaluationBreakdown(1.0, 2.0, 3.0, 4.0, 5.0).as_dict()
    assert list(parts.items()) == [
        ("ac_cells", 1.0), ("ac_atoms", 2.0), ("ac_carriers", 3.0), ("singular", 4.0),
        ("boundary", 5.0), ("total", 15.0),
    ]
    clause = Clause("c", True, {"per_probe": [1.0, None]}, "<= 1")
    report = ScenarioResult([clause], {}).report(config, "hash")
    assert [list(c.items()) for c in report["clauses"]] == [
        [("name", "c"), ("passed", True), ("value", {"per_probe": [1.0, None]}), ("target", "<= 1")]
    ]
    seen = []
    monkeypatch.setattr(cli, "run", lambda c: (seen.append(c), (0, ScenarioResult([], {})))[1])
    argv = ["run", "--scenario", "example1", "--resolution", "64", "--jmax", "32"]
    assert cli_main(argv + ["--tolerance", "1e-7", "--seed", "3", "--output", "o"]) == 0
    assert seen == [config]


def test_cli_lists_scenarios_marks_clauses_and_prints_usage_without_a_command(capsys, monkeypatch):
    from bvcalc import cli
    from bvcalc.scenarios import Clause, ScenarioResult

    assert cli_main(["list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in listed] == [s.sid for s in scenario_catalog()]
    assert len(listed) == 11 and all(s.summary in line for s, line in zip(scenario_catalog(), listed))
    assert cli_main([]) == cli.USAGE_EXIT
    assert capsys.readouterr().out.startswith("usage: bvcalc [-h] {list,run,oracle}")
    clauses = [Clause("a", True, 1.0, "<= 2"), Clause("b", False, 3.0, "<= 2")]
    monkeypatch.setattr(cli, "run", lambda c: (1, ScenarioResult(clauses, {})))
    assert cli_main(["run", "--scenario", "example1"]) == 1
    assert capsys.readouterr().out.splitlines() == ["[ok  ] example1: a (target <= 2)", "[FAIL] example1: b (target <= 2)"]


def test_unknown_scenario_is_usage_error():
    with pytest.raises(ScenarioError):
        run(RunConfig(scenario="definitely-not-a-scenario"))
    assert cli_main(["run", "--scenario", "definitely-not-a-scenario"]) == 2


@pytest.mark.parametrize("sid", [s.sid for s in scenario_catalog()])
def test_every_scenario_passes_and_is_fast(sid, tmp_path):
    start = time.time()
    code, result = run(
        RunConfig(scenario=sid, resolution=128, jmax=64, output=str(tmp_path / sid))
    )
    elapsed = time.time() - start
    assert code == 0, [c.name for c in result.clauses if not c.passed]
    assert elapsed < 60.0
    assert (tmp_path / sid / "report.json").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_byte_identical(tmp_path):
    config = dict(scenario="reshetnyak-ramp", resolution=64, jmax=32)
    run(RunConfig(output=str(tmp_path / "a"), **config))
    run(RunConfig(output=str(tmp_path / "b"), **config))
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    ta = (tmp_path / "a" / "tables" / "continuity_gaps.csv").read_bytes()
    tb = (tmp_path / "b" / "tables" / "continuity_gaps.csv").read_bytes()
    assert ta == tb


def test_report_embeds_config_and_hash(tmp_path):
    run(
        RunConfig(
            scenario="atom-absorbs-jump", resolution=64, jmax=16, output=str(tmp_path)
        )
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["scenario"] == "atom-absorbs-jump"
    assert report["config"]["resolution"] == 64
    assert len(report["builder_hash"]) == 40
    assert report["passed"] is True


def test_builder_hash_sees_every_module(monkeypatch):
    real = reporting._module_sources()
    assert "measures.py" in dict(real) and "scenarios.py" in dict(real)
    reporting._package_digest.cache_clear()
    try:
        before = reporting.builder_hash(scenario_example2)
        assert before == reporting.builder_hash(scenario_example2)
        assert before != reporting.builder_hash(scenario_example1)
        assert int(before, 16) >= 0 and len(before) == 40
        edited = [(n, s + b"\n# edit\n" if n == "measures.py" else s) for n, s in real]
        monkeypatch.setattr(reporting, "_module_sources", lambda: edited)
        assert reporting.builder_hash(scenario_example2) == before  # computed once
        reporting._package_digest.cache_clear()
        assert reporting.builder_hash(scenario_example2) != before
    finally:
        reporting._package_digest.cache_clear()


# ---------------------------------------------------------------------------
# 1D oracle
# ---------------------------------------------------------------------------


def test_oracle_trivial_formula_identity():
    # F = |.|, smooth u: integral |u' / a| a = integral |u'|
    case_u = {"breaks": [], "slopes": [2.0], "jumps": []}
    case_mu = {"poly": [1.5], "atoms": []}
    val = oracle_1d(case_u, case_mu, {"kind": "norm"})
    assert val == pytest.approx(2.0, rel=1e-12)


def test_oracle_zero_profile():
    val = oracle_1d(
        {"breaks": [], "slopes": [0.0], "jumps": []},
        {"poly": [1.0], "atoms": [[0.5, 2.0]]},
        {"kind": "area"},
    )
    # F(0) * mu(0,1) = 1 * (1 + 2)
    assert val == pytest.approx(3.0, rel=1e-12)


def test_oracle_matches_evaluate_on_fifty_random_cases():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        case = random_case_description(rng)
        u, spec = build_case_1d(case, resolution=40000)
        ours = evaluate(u, spec).total
        ref = oracle_1d(case["u"], case["mu"], case["F"])
        worst = max(worst, abs(ours - ref) / abs(ref))
    assert worst <= 1e-8
    assert time.time() - start < 30.0


def test_norm_and_area_cases_meet_the_oracle_at_the_first_rung():
    """At resolution 64, the first rung of the oracle ladder, GL2 cells
    bring seeded ``norm`` and ``area`` cases within 1e-10 relative of
    ``oracle_1d`` (the midpoint rule needed up to seven more rungs)."""
    rng = np.random.default_rng(32)
    cases = [c for c in (random_case_description(rng) for _ in range(60)) if c["F"]["kind"] != "shifted-norm"]
    assert {c["F"]["kind"] for c in cases} == {"norm", "area"} and len(cases) >= 30
    for case in cases:
        ref = oracle_1d(case["u"], case["mu"], case["F"], domain=case["domain"])
        got = evaluate(*build_case_1d(case, resolution=64)).total
        assert abs(got - ref) <= 1e-10 * abs(ref), case


@pytest.mark.parametrize("kind", ["shifted-norm", "w-shape"])
def test_kinked_cases_meet_the_oracle_at_the_first_rung(kind):
    """The kinks of ``shifted-norm`` and ``w-shape``, where dDu/dmu crosses
    A0 or +-1, are breaks of mu in ``build_case_1d``, so seeded cases meet
    1e-10 relative of ``oracle_1d`` at resolution 64.  With the kinks
    inside cells, 2 of these 150 shifted-norm cases were 1e-8 off there,
    and w-shape cases up to 3e-5."""
    rng = np.random.default_rng(33)
    for _ in range(150):
        case = random_case_description(rng)
        case["F"] = dict(case["F"], kind=kind)
        ref = oracle_1d(case["u"], case["mu"], case["F"], domain=case["domain"])
        got = evaluate(*build_case_1d(case, resolution=64)).total
        assert abs(got - ref) <= 1e-10 * abs(ref), case


def test_mu_breaks_are_those_of_u_and_of_the_kinks():
    # rho(x) = 1 + x; u has slope 0.6 on (0, 0.5) and -1.75 on (0.5, 1), and a jump at 0.25
    case = {"u": {"breaks": [0.5], "slopes": [0.6, -1.75], "jumps": [[0.25, 1.0]]}, "mu": {"poly": [1.0, 1.0]}}

    def kinks(f_desc):
        u, spec = build_case_1d(dict(case, F=f_desc), resolution=64)
        assert u.breaks == ((0.25, 0.5),) and set(u.breaks[0]) <= set(spec.mu.breaks[0])
        return sorted(set(spec.mu.breaks[0]) - set(u.breaks[0]))

    assert kinks({"kind": "norm"}) == kinks({"kind": "area"}) == []
    # A0 rho = s: 0.5 (1 + x) = 0.6 at x = 0.2; = -1.75 at no x in (0.5, 1)
    assert kinks({"kind": "shifted-norm", "A0": 0.5}) == [pytest.approx(0.2, abs=1e-15)]
    # rho = |s|: 1 + x = 0.6 at no x in (0, 0.5); = 1.75 at x = 0.75
    assert kinks({"kind": "w-shape"}) == [0.75]
    # A0 = 0 leaves no polynomial in x, and a tiny A0 none with a root in (0, 1)
    assert kinks({"kind": "shifted-norm", "A0": 0.0}) == kinks({"kind": "shifted-norm", "A0": 2.2e-313}) == []


@pytest.mark.parametrize("kind, expected", [("norm", 1.0), ("area", 2.0)])
@pytest.mark.parametrize("weight", [1e-13, 1e-15])
def test_a_tiny_point_mass_under_a_jump_meets_the_oracle(weight, kind, expected):
    """A point mass of mu is an exact positive constant, so any weight above
    0 divides the jump: a weight in (0, 1e-14] once raised DecompositionError."""
    case = {"u": {"slopes": [0.0], "jumps": [[0.5, 1.0]]}, "mu": {"poly": [1.0], "atoms": [[0.5, weight]]},
            "F": {"kind": kind}}
    assert oracle_case(case) == expected
    got = evaluate(*build_case_1d(case, resolution=64)).total
    assert got == pytest.approx(expected, rel=1e-10)


def test_an_overflowing_cell_term_is_an_oracle_error():
    # each term is finite, their sum 3e308 is not: fsum overflows, and the
    # nan it gives fails the rule's self-check
    with pytest.raises(OracleError, match=r"^the Gauss-Legendre cell term nan is not finite or not certified"):
        oracle_1d({"slopes": [2.0]}, {"poly": [1.0]}, {"kind": "norm"}, domain=(0.0, 1.5e308))


def test_oracle_cli_roundtrip(tmp_path):
    case = {
        "u": {"breaks": [], "slopes": [1.0], "jumps": [[0.5, 1.0]]},
        "mu": {"poly": [2.0], "atoms": [[0.5, 1.0]]},
        "F": {"kind": "norm"},
        "domain": [0.0, 1.0],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    out = subprocess.run(
        [sys.executable, "-m", "bvcalc.cli", "oracle", "--case", str(path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == pytest.approx(2.0, rel=1e-10)


def _oracle_cli(tmp_path, case):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    return cli_main(["oracle", "--case", str(path)])


_HUGE = 10**400  # an int JSON allows that no float holds

_ORACLE_CASE = {
    "u": {"breaks": [0.5], "slopes": [1.0, -1.0], "jumps": [[0.25, 1.0]]},
    "mu": {"poly": [2.0], "atoms": [[0.25, 1.0]]},
    "F": {"kind": "area"},
}


def test_oracle_cli_missing_key_is_usage_error(tmp_path, capsys):
    case = {"u": _ORACLE_CASE["u"], "F": _ORACLE_CASE["F"]}
    assert _oracle_cli(tmp_path, case) == 2
    assert capsys.readouterr().err == "error: a case needs the objects 'u', 'mu' and 'F'\n"


def test_oracle_cli_empty_slopes_is_usage_error(tmp_path, capsys):
    case = dict(_ORACLE_CASE, u={"breaks": [], "slopes": []})
    assert _oracle_cli(tmp_path, case) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'u' needs one slope per breakpoint interval")


def test_oracle_cli_zero_density_is_usage_error(tmp_path, capsys):
    case = dict(_ORACLE_CASE, mu={"poly": [0.0]})
    assert _oracle_cli(tmp_path, case) == 2
    assert capsys.readouterr().err == "error: the density of 'mu' is not positive at x = 0.0\n"


def test_oracle_cli_well_formed_case_matches_oracle(tmp_path, capsys):
    assert _oracle_cli(tmp_path, _ORACLE_CASE) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == oracle_1d(_ORACLE_CASE["u"], _ORACLE_CASE["mu"], _ORACLE_CASE["F"])


def test_oracle_cli_sign_changing_density_is_usage_error(tmp_path, capsys):
    case = {"u": {"slopes": [1.0]}, "mu": {"poly": [1.0, -3.0]}, "F": {"kind": "norm"}}
    assert _oracle_cli(tmp_path, case) == 2
    # the root of 1 - 3x
    assert capsys.readouterr().err.startswith("error: the density of 'mu' is not positive at x = 0.3333")


@pytest.mark.parametrize(
    "u, mu, f, pinned",
    [
        (_ORACLE_CASE["u"], _ORACLE_CASE["mu"], _ORACLE_CASE["F"], "0x1.d33c6ced7928ep+1"),
        (
            {"breaks": [0.3, 0.7], "slopes": [2.0, -0.5, 1.25], "jumps": [[0.5, -1.5]]},
            {"poly": [1.2, -0.3, 0.25], "atoms": [[0.9, 0.75]]},
            {"kind": "shifted-norm", "A0": 0.3, "c": 0.4, "modulated": True},
            "0x1.22ac162c4a9a0p+2",
        ),
        (
            {"breaks": [0.4], "slopes": [-2.5, 0.75], "jumps": [[0.2, 0.8], [0.6, -1.0]]},
            {"poly": [1.0, 0.5], "atoms": [[0.6, 1.5]]},
            {"kind": "w-shape", "modulated": True},
            "0x1.514d242e6bdc8p+1",
        ),
    ],
)
def test_oracle_pinned_values(u, mu, f, pinned):
    # recorded from the Gauss-Legendre oracle; the 100,000-point midpoint sum gave
    # 0x1.d33c6ced79290p+1, 0x1.22ac162c4a60cp+2 and 0x1.514d242e6ba1ep+1
    assert oracle_1d(u, mu, f).hex() == pinned


# ---------------------------------------------------------------------------
# the Gauss-Legendre oracle against the midpoint sum it replaced and closed forms
# ---------------------------------------------------------------------------


def _old_oracle_1d(u_desc, mu_desc, f_desc, domain=(0.0, 1.0), npoints=100_000):
    """``oracle_1d`` as a midpoint sum over ``npoints`` sub-intervals
    aligned with the slope breakpoints, every term a Python float through
    one ``math.fsum``; the first atom at a point only."""
    a, b = float(domain[0]), float(domain[1])
    breaks = [float(t) for t in u_desc.get("breaks", ())]
    slopes = [float(s) for s in u_desc.get("slopes", (0.0,))]
    jumps = [(float(t), float(d)) for t, d in u_desc.get("jumps", ())]
    coeffs = [float(c) for c in mu_desc.get("poly", (1.0,))]
    atoms = [(float(p), float(w)) for p, w in mu_desc.get("atoms", ())]
    base = {
        "norm": abs,
        "area": lambda t: np.sqrt(1.0 + t * t),
        "shifted-norm": lambda t: abs(t - float(f_desc.get("A0", 0.3))) + float(f_desc.get("c", 0.4)),
        "w-shape": lambda t: abs(abs(t) - 1.0),
    }[f_desc["kind"]]
    if f_desc.get("modulated", False):
        F, F_inf = (lambda x, t: (1.0 + 0.5 * x) * base(t)), (lambda x, t: (1.0 + 0.5 * x) * abs(t))
    else:
        F, F_inf = (lambda x, t: base(t)), (lambda x, t: abs(t))
    edges = [a] + [t for t in breaks if a < t < b] + [b]

    def cell_blocks():
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            slope = slopes[next((k for k, t in enumerate(breaks) if mid < t), len(breaks))]
            count = max(1, round(npoints * (hi - lo) / (b - a)))
            step = (hi - lo) / count
            for k0 in range(0, count, 4096):
                x = lo + (np.arange(k0, min(k0 + 4096, count)) + 0.5) * step
                dens = np.zeros_like(x)
                for c in reversed(coeffs):
                    dens = dens * x + c
                yield (F(x, slope / dens) * dens * step).tolist()

    total = math.fsum(t for block in cell_blocks() for t in block)
    for pos, height in jumps:
        atom_w = next((w for p, w in atoms if abs(p - pos) <= 1e-12), 0.0)
        total += float(F(pos, height / atom_w) * atom_w if atom_w > 0.0 else F_inf(pos, height))
    for p, w in atoms:
        if not any(abs(p - pos) <= 1e-12 for pos, _ in jumps):
            total += float(F(p, 0.0) * w)
    return total


def test_oracle_matches_the_midpoint_oracle_per_kind():
    """The Gauss-Legendre oracle against the 100,000-point midpoint sum it
    replaced, within bounds per kind set by the midpoint sum's own error:
    largest for w-shape, whose kinks the midpoint sum does not split."""
    bounds = {"norm": 1e-15, "area": 1e-12, "shifted-norm": 1e-12, "w-shape": 1e-11}
    kinds = tuple(bounds)
    worst = dict.fromkeys(kinds, 0.0)
    rng = np.random.default_rng(20)
    for i in range(120):
        case = random_case_description(rng)
        f = case["F"] = dict(case["F"], kind=kinds[i % 4], modulated=bool(i // 4 % 2))
        new, old = oracle_1d(case["u"], case["mu"], f), _old_oracle_1d(case["u"], case["mu"], f)
        worst[f["kind"]] = max(worst[f["kind"]], abs(new - old) / abs(old))
    assert all(worst[k] <= bounds[k] for k in kinds), worst


def _scalar_oracle_1d(u_desc, mu_desc, f_desc, order=list, domain=(0.0, 1.0), nodes=40):
    """``oracle_1d`` as a loop over Python floats: the ``nodes``-point
    Gauss-Legendre term at every node of every piece, the density by
    Horner's rule, ``order`` applied to the list of terms before one
    ``math.fsum``, then the jump/atom ledger."""
    a, b = float(domain[0]), float(domain[1])
    breaks = [float(t) for t in u_desc.get("breaks", ())]
    slopes = [float(s) for s in u_desc.get("slopes", (0.0,))]
    coeffs = [float(c) for c in mu_desc.get("poly", (1.0,))]
    atoms = {}
    for p, w in mu_desc.get("atoms", ()):
        atoms[float(p)] = atoms.get(float(p), 0.0) + float(w)
    a0, c0 = float(f_desc.get("A0", 0.3)), float(f_desc.get("c", 0.4))
    kind = f_desc["kind"]
    base = {
        "norm": abs,
        "area": lambda t: math.sqrt(1.0 + t * t),
        "shifted-norm": lambda t: abs(t - a0) + c0,
        "w-shape": lambda t: abs(abs(t) - 1.0),
    }[kind]
    weight = (lambda x: 1.0 + 0.5 * x) if f_desc.get("modulated", False) else (lambda x: 1.0)

    def rho(x):
        d = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            d = c + d * x
        return d

    def kinks(slope, lo, hi):
        if kind == "shifted-norm":
            shifted = [a0 * coeffs[0] - slope, *(a0 * c for c in coeffs[1:])]
        elif kind == "w-shape":
            shifted = [coeffs[0] - abs(slope), *coeffs[1:]]
        else:
            return []
        roots = np.polynomial.polynomial.polyroots(shifted)
        return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-6 and lo <= r.real <= hi)

    ts, ws = (v.tolist() for v in np.polynomial.legendre.leggauss(nodes))
    edges = [a] + [t for t in breaks if a < t < b] + [b]
    terms = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        slope = slopes[next((k for k, t in enumerate(breaks) if mid < t), len(breaks))]
        cuts = [lo, *kinks(slope, lo, hi), hi]
        for p, q in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (q - p)
            for t, w in zip(ts, ws):
                x = p + half * (t + 1.0)
                d = rho(x)
                terms.append(weight(x) * base(slope / d) * d * (half * w))
    total = math.fsum(order(terms))
    jumps = [(float(t), float(d)) for t, d in u_desc.get("jumps", ())]
    for pos, height in jumps:
        atom_w = next((w for p, w in atoms.items() if abs(p - pos) <= 1e-12), 0.0)
        total += weight(pos) * base(height / atom_w) * atom_w if atom_w > 0.0 else weight(pos) * abs(height)
    for p, w in atoms.items():
        if not any(abs(p - pos) <= 1e-12 for pos, _ in jumps):
            total += weight(p) * base(0.0) * w
    return total


def test_oracle_equals_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(10)
    kinds = ("norm", "area", "shifted-norm", "w-shape")
    for i in range(120):
        case = random_case_description(rng)
        case["F"] = {"kind": kinds[i % 4], "modulated": bool(i // 4 % 2)}
        value = oracle_1d(case["u"], case["mu"], case["F"])
        assert type(value) is float
        assert value == _scalar_oracle_1d(case["u"], case["mu"], case["F"]), case


def test_exact_oracle_equals_the_fsum_oracle_bit_for_bit():
    """The cell term is one exactly rounded ``math.fsum``, so the oracle
    does not depend on the order of its terms: reversed or shuffled, the
    scalar loop gives the same bits."""
    rng = np.random.default_rng(20)
    kinds = ("norm", "area", "shifted-norm", "w-shape")
    orders = (lambda terms: terms[::-1], lambda terms: rng.permutation(terms).tolist())
    for i in range(200):
        case = random_case_description(rng)
        case["F"] = dict(case["F"], kind=kinds[i % 4], modulated=bool(i // 4 % 2))
        new = oracle_1d(case["u"], case["mu"], case["F"])
        for order in orders:
            old = _scalar_oracle_1d(case["u"], case["mu"], case["F"], order=order)
            assert new == old and new.hex() == old.hex(), case


_STRETCHES ={"breaks": [0.3, 0.55], "slopes": [2.0, -0.5, 1.25], "jumps": []}
_SPANS = [(0.0, 0.3, 2.0), (0.3, 0.55, -0.5), (0.55, 1.0, 1.25)]  # (lo, hi, slope)


def _area_antiderivative(r, s):
    """A primitive in r of sqrt(r^2 + s^2)."""
    return 0.5 * (r * math.hypot(r, s) + s * s * math.asinh(r / abs(s)))


@pytest.mark.parametrize(
    "mu, f, expected",
    [
        # norm: the total variation sum |s| len, whatever the density
        ({"poly": [1.5]}, {"kind": "norm"}, math.fsum(abs(s) * (hi - lo) for lo, hi, s in _SPANS)),
        ({"poly": [1.2, -0.3, 0.25]}, {"kind": "norm"}, math.fsum(abs(s) * (hi - lo) for lo, hi, s in _SPANS)),
        # modulated: |s| times the integral of 1 + x/2 over each stretch
        (
            {"poly": [1.2, -0.3, 0.25]},
            {"kind": "norm", "modulated": True},
            math.fsum(abs(s) * (hi - lo + (hi * hi - lo * lo) / 4.0) for lo, hi, s in _SPANS),
        ),
        # area, constant density: len sqrt(rho^2 + s^2)
        ({"poly": [1.5]}, {"kind": "area"}, math.fsum((hi - lo) * math.hypot(1.5, s) for lo, hi, s in _SPANS)),
        # area, density 1.2 - 0.4 x: the asinh antiderivative in rho, over d rho / dx = -0.4
        (
            {"poly": [1.2, -0.4]},
            {"kind": "area"},
            math.fsum(
                (_area_antiderivative(1.2 - 0.4 * hi, s) - _area_antiderivative(1.2 - 0.4 * lo, s)) / -0.4
                for lo, hi, s in _SPANS
            ),
        ),
        # shifted-norm, constant density: len (|s - A0 rho| + c rho)
        (
            {"poly": [1.5]},
            {"kind": "shifted-norm", "A0": 0.3, "c": 0.4},
            math.fsum((hi - lo) * (abs(s - 0.3 * 1.5) + 0.4 * 1.5) for lo, hi, s in _SPANS),
        ),
    ],
)
def test_oracle_closed_forms(mu, f, expected):
    value = oracle_1d(_STRETCHES, mu, f)
    assert value == pytest.approx(expected, rel=2e-15)


@pytest.mark.parametrize(
    "slopes, kind",
    [
        ([1e308, 1.0], "norm"),  # terms ~1e303 whose sum stays finite
        ([1.7e308, 1.7e308], "norm"),  # a sum beyond the float range when modulated
        ([1e200, 1.0], "area"),  # t * t overflows: inf terms
        ([1e308, -1e308], "norm"),  # 1e308 / density 0.5 overflows
    ],
)
def test_exact_oracle_keeps_the_special_values_of_fsum(slopes, kind):
    """Slopes near the float range give a finite value or an OracleError,
    never an inf or a nan."""
    u = {"breaks": [0.5], "slopes": slopes, "jumps": []}
    for mu in ({"poly": [1.0]}, {"poly": [0.5]}):
        for modulated in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    value = oracle_1d(u, mu, {"kind": kind, "modulated": modulated})
                except OracleError:
                    continue
            assert math.isfinite(value)


@pytest.mark.parametrize(
    "poly, x",
    [
        ([0.25, -1.0, 1.0], 0.5),  # (x - 1/2)^2: zero at one point, never negative
        ([1.0, -1.0], 1.0),  # zero at the right end only
        ([-0.5, 1.0], 0.0),  # negative at the left end
    ],
)
def test_oracle_finds_where_the_density_is_not_positive(poly, x):
    with pytest.raises(OracleError, match="^the density of 'mu' is not positive at x = ") as err:
        oracle_1d({"slopes": [1.0]}, {"poly": poly}, {"kind": "norm"})
    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(x, abs=1e-7)


def test_oracle_rejects_a_cell_term_its_rule_cannot_certify():
    # sqrt(rho^2 + s^2) for rho = 1 - 0.99 x and s = 1e-3 has branch points about 0.01 from [0, 1]
    with pytest.raises(OracleError, match="not certified: the 20- and 40-node sums differ by "):
        oracle_1d({"slopes": [1e-3]}, {"poly": [1.0, -0.99]}, {"kind": "area"})


# ---------------------------------------------------------------------------
# oracle case documents: what the pipeline rejects, the oracle rejects
# ---------------------------------------------------------------------------


def test_oracle_merges_atoms_given_at_one_point():
    case = {
        "u": dict(_ORACLE_CASE["u"], jumps=[[0.3, 1.0]]),
        "mu": dict(_ORACLE_CASE["mu"], atoms=[[0.3, 0.5], [0.3, 0.5]]),
        "F": _ORACLE_CASE["F"],
    }
    u, spec = build_case_1d(case, resolution=40000)
    ours, ref = evaluate(u, spec).total, oracle_case(case)
    assert abs(ours - ref) / abs(ref) <= 1e-8
    merged = dict(case, mu=dict(case["mu"], atoms=[[0.3, 1.0]]))
    assert ref == oracle_case(merged)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"domain": [1.0, 0.0]}, "'domain' must be an interval [a, b] with a < b, got [1.0, 0.0]"),
        ({"F": {"kind": "cubic"}}, "malformed case: ValueError: oracle does not know integrand kind 'cubic'"),
        ({"u": {"slopes": [1.0], "jumps": [[0.3]]}}, "malformed case: ValueError: not enough values"),
        # ints beyond the float range, which JSON allows
        ({"u": {"breaks": [0.5], "slopes": [1.0, _HUGE]}}, "'u' slopes must be finite numbers, got [1.0, 1000"),
        ({"u": {"slopes": [1.0], "jumps": [[0.5, -_HUGE]]}}, "'u' jumps must be finite numbers, got [[0.5, -1000"),
        ({"mu": {"poly": [_HUGE]}}, "'mu' poly must be finite numbers, got [1000"),
        ({"mu": {"poly": [2.0], "atoms": [[0.25, _HUGE]]}}, "'mu' atoms must be finite numbers, got [[0.25, 1000"),
        ({"F": {"kind": "shifted-norm", "A0": _HUGE}}, "'F' A0 must be finite numbers, got 1000"),
        ({"domain": [0, _HUGE]}, "'domain' must be an interval [a, b] with a < b, got [0, 1000"),
        # non-finite domain ends
        ({"domain": [0.0, math.inf]}, "'domain' must be an interval [a, b] with a < b, got [0.0, inf]"),
        ({"domain": [-math.inf, 1.0]}, "'domain' must be an interval [a, b] with a < b, got [-inf, 1.0]"),
    ],
)
def test_oracle_case_rejects_a_malformed_document(change, message):
    with pytest.raises(OracleError) as err:
        oracle_case(dict(_ORACLE_CASE, **change))
    assert str(err.value).startswith(message)


# json reads no int of more than 4300 digits by default: a ValueError, not a JSONDecodeError
@pytest.mark.parametrize("digits, message", [(401, "error: 'u' slopes must be finite numbers"), (5001, "error: ")])
def test_oracle_cli_huge_int_is_usage_error(tmp_path, capsys, digits, message):
    path = tmp_path / "case.json"
    slopes = "[1.0, 1" + "0" * (digits - 1) + "]"
    path.write_text(f'{{"u": {{"breaks": [0.5], "slopes": {slopes}}}, "mu": {{"poly": [2.0]}}, "F": {{"kind": "norm"}}}}')
    assert cli_main(["oracle", "--case", str(path)]) == 2
    assert capsys.readouterr().err.startswith(message)


def _entry_paths(node, path=()):
    """The key or index path of every entry below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _entry_paths(child, (*path, key))


_CORRUPTIONS = {
    "missing": None,  # the entry is deleted
    "none": lambda v: None,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "huge": lambda v: _HUGE,
    "-huge": lambda v: -_HUGE,
    "string": lambda v: "x",
    "nested": lambda v: [v],
}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_oracle_case_raises_only_oracle_error_on_a_corrupted_case(seed, data):
    case = random_case_description(np.random.default_rng(seed))
    *parents, last = data.draw(st.sampled_from(list(_entry_paths(case))))
    corruption = data.draw(st.sampled_from(sorted(_CORRUPTIONS)))
    node = case
    for key in parents:
        node = node[key]
    if corruption == "missing":
        del node[last]
    else:
        node[last] = _CORRUPTIONS[corruption](node[last])
    try:
        oracle_case(case)
    except OracleError:
        pass


def _a_jump(case, data):
    """The position of a jump of ``case``, drawn; a case without jumps gets a unit jump at 0.5."""
    if not case["u"]["jumps"]:
        case["u"]["jumps"].append([0.5, 1.0])
    return data.draw(st.sampled_from(case["u"]["jumps"]))[0]


def _jump_on_a_slope_break(case, data):
    u = case["u"]
    if not u["breaks"]:
        u["breaks"], u["slopes"] = [0.5], [*u["slopes"], -u["slopes"][0]]
    u["jumps"].append([data.draw(st.sampled_from(u["breaks"])), 0.7])


def _jump_next_to_an_end(case, data):
    gap = data.draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    case["u"]["jumps"].append([gap if data.draw(st.booleans()) else 1.0 - gap, 0.8])


# Edge mutations of a random 1D case: the oracle accepts each one, so the
# pipeline must give its value, or both must reject the case.
_EDGE_MUTATIONS = {
    "weightless atom on a jump": lambda case, data: case["mu"]["atoms"].append([_a_jump(case, data), 0.0]),
    "weightless atom alone": lambda case, data: case["mu"]["atoms"].append([data.draw(st.floats(0.05, 0.95)), 0.0]),
    "atom of weight 1e-13 on a jump": lambda case, data: case["mu"]["atoms"].append([_a_jump(case, data), 1e-13]),
    "atom of weight in (0, 1e-14] on a jump": lambda case, data: case["mu"]["atoms"].append(
        [_a_jump(case, data), data.draw(st.sampled_from([1e-14, 1e-15, 1e-16]))]
    ),
    "w-shape": lambda case, data: case["F"].update(kind="w-shape"),
    "jump on a slope break": _jump_on_a_slope_break,
    "domain [-0.5, 1.5]": lambda case, data: case.update(domain=[-0.5, 1.5]),
    "duplicated atom": lambda case, data: case["mu"]["atoms"].extend(
        [list(data.draw(st.sampled_from(case["mu"]["atoms"])))] if case["mu"]["atoms"] else []
    ),
    "shifted-norm with A0 in [-3, 3]": lambda case, data: case["F"].update(
        kind="shifted-norm", A0=data.draw(st.floats(-3.0, 3.0)), c=0.4
    ),
    "atom within _MATCH of a jump": lambda case, data: case["mu"]["atoms"].append(
        [_a_jump(case, data) + data.draw(st.floats(-9e-13, 9e-13)), data.draw(st.floats(0.5, 2.0))]
    ),
    "jump next to a domain end": _jump_next_to_an_end,
}
_PIPELINE_ERRORS = (MeasureError, BVError, ScenarioError, IntegrandError, FunctionalError)


def _value_or_error(compute, errors):
    try:
        return compute()
    except errors as exc:
        return exc


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), mutation=st.sampled_from(sorted(_EDGE_MUTATIONS)), data=st.data())
def test_the_pipeline_agrees_with_the_oracle_on_edge_cases(seed, mutation, data):
    case = random_case_description(np.random.default_rng(seed))
    _EDGE_MUTATIONS[mutation](case, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a failure, not a value
        expected = _value_or_error(lambda: oracle_case(case), OracleError)
        got = _value_or_error(lambda: evaluate(*build_case_1d(case, resolution=4096)).total, _PIPELINE_ERRORS)
    if isinstance(expected, Exception) or isinstance(got, Exception):
        assert isinstance(expected, Exception) and isinstance(got, Exception), (expected, got)
    else:
        assert got == pytest.approx(expected, rel=1e-6)


def _pipeline_rejects(case):
    """Whether ``build_case_1d`` and ``evaluate`` raise a typed error on ``case``."""
    try:
        u, spec = build_case_1d(case, resolution=64)
        evaluate(u, spec)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize(
    "part, entry, value, message",
    [
        ("u", "jumps", [[0.3, 1.0], [0.3, 1.0]], "'u' jumps must lie inside (0.0, 1.0), more than 1e-12 apart"),
        ("u", "jumps", [[0.3, 1.0], [0.3 + 1e-14, 1.0]], "'u' jumps must lie inside"),
        ("u", "jumps", [[1.5, 1.0]], "'u' jumps must lie inside"),
        ("u", "breaks", [0.7, 0.2], "'u' breaks must increase strictly inside (0.0, 1.0), got [0.7, 0.2]"),
        ("u", "breaks", [1.5, 2.0], "'u' breaks must increase strictly inside"),
        ("mu", "atoms", [[1.0, 1.0]], "'mu' atoms must lie inside (0.0, 1.0) with weights >= 0"),
        ("mu", "atoms", [[0.6, -1.0]], "'mu' atoms must lie inside"),
        ("u", "slopes", [math.nan, 1.0, 2.0], "'u' slopes must be finite numbers, got [nan, 1.0, 2.0]"),
        ("mu", "poly", [math.inf], "'mu' poly must be finite numbers"),
        ("u", "jumps", [[0.3, math.nan]], "'u' jumps must be finite numbers"),
        ("mu", "atoms", [[0.3, math.inf]], "'mu' atoms must be finite numbers"),
        ("F", "A0", math.nan, "'F' A0 must be finite numbers"),
        ("u", "breaks", [0.2, 0.2], "'u' breaks must increase strictly inside"),
        # a jump at the box end a
        ("u", "jumps", [[0.0, 1.0]], "'u' jumps must lie inside"),
        ("mu", "poly", [], "'mu' poly must list at least one coefficient, got []"),
    ],
)
def test_oracle_case_rejects_what_the_pipeline_rejects(part, entry, value, message):
    case = {
        "u": {"breaks": [0.2, 0.7], "slopes": [1.0, -1.0, 2.0], "jumps": [[0.3, 1.0]]},
        "mu": {"poly": [2.0], "atoms": [[0.3, 1.0]]},
        "F": {"kind": "shifted-norm"},
    }
    assert not _pipeline_rejects(case)
    case[part] = dict(case[part], **{entry: value})
    with pytest.raises(OracleError) as err:
        oracle_case(case)
    assert str(err.value).startswith(message)
    assert _pipeline_rejects(case)


def test_build_case_1d_names_an_empty_density_polynomial():
    # numpy's polyval raised a bare IndexError on an empty coefficient list
    with pytest.raises(ScenarioError, match=r"^'mu' poly must list at least one coefficient, got \[\]$"):
        build_case_1d(dict(_ORACLE_CASE, mu={"poly": []}), resolution=64)


# ---------------------------------------------------------------------------
# carpet construction
# ---------------------------------------------------------------------------


def test_carpet_hole_area_approaches_half():
    total = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in carpet_holes(6))
    # removed area = sum over levels of (1/2) (1/9) (8/9)^(m-1) -> 1/2
    expected = 0.5 * (1.0 - (8.0 / 9.0) ** 6)
    assert total == pytest.approx(expected, rel=1e-12)
    assert total < 0.5


def test_carpet_holes_disjoint():
    holes = carpet_holes(3)
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            x0, x1, y0, y1 = holes[i]
            a0, a1, b0, b1 = holes[j]
            overlap = max(0.0, min(x1, a1) - max(x0, a0)) * max(
                0.0, min(y1, b1) - max(y0, b0)
            )
            assert overlap == 0.0


def test_carpet_bound_depth0_analytic():
    # no holes: min over c of the integral of |x - c| over the unit square
    # is attained at c = 1/2 with value 1/4
    bound, c = carpet_lower_bound(0)
    assert bound == pytest.approx(0.25, abs=1e-9)
    assert c == pytest.approx(0.5, abs=1e-6)


def _segment_l1_reference(x0, x1, c):
    def anti(t):
        return 0.5 * (t - c) * abs(t - c)

    return anti(x1) - anti(x0)


def _carpet_value_reference(holes, c):
    """The per-hole scalar loop: the unit square minus each hole, in order."""
    total = _segment_l1_reference(0.0, 1.0, c)
    for x0, x1, y0, y1 in holes:
        total -= (y1 - y0) * _segment_l1_reference(x0, x1, c)
    return total


def _carpet_lower_bound_reference(holes):
    """The per-hole scalar loop with a 200-step ternary search."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _carpet_value_reference(holes, m1) <= _carpet_value_reference(holes, m2):
            hi = m2
        else:
            lo = m1
    c = 0.5 * (lo + hi)
    return _carpet_value_reference(holes, c), c


@pytest.mark.parametrize("depth", range(5))
def test_carpet_bound_equals_scalar_loop(depth):
    # the bound is the scalar loop at the symmetry point c = 1/2, and the
    # ternary search of the scalar loop finds no smaller value beyond rounding
    holes = carpet_holes(depth)
    bound, c = carpet_lower_bound(depth)
    assert (bound, c) == (_carpet_value_reference(holes, 0.5), 0.5)
    assert abs(bound - _carpet_lower_bound_reference(holes)[0]) <= 1e-14


@pytest.mark.parametrize("depth", range(7))
def test_carpet_holes_map_onto_themselves_under_reflection(depth):
    holes = np.array(carpet_holes(depth)).reshape(-1, 4)
    mirrored = np.column_stack([1.0 - holes[:, 1], 1.0 - holes[:, 0], holes[:, 2], holes[:, 3]])
    # y is untouched, and the holes of one row lie far apart in x, so both sorts pair them
    by_row = np.lexsort((holes[:, 0], holes[:, 2]))
    by_row_mirrored = np.lexsort((mirrored[:, 0], mirrored[:, 2]))
    assert np.max(np.abs(holes[by_row] - mirrored[by_row_mirrored]), initial=0.0) <= 1e-15


def _hole_loop_weight(holes, nodes):
    out = np.zeros(len(nodes))
    for x0, x1, y0, y1 in holes:
        inside = (
            (nodes[:, 0] > x0) & (nodes[:, 0] < x1) & (nodes[:, 1] > y0) & (nodes[:, 1] < y1)
        )
        out[inside] = 1.0
    return out


def test_carpet_indicator_equals_hole_loop():
    holes = carpet_holes(4)
    assert len(holes) == 585
    weight, (xb, yb) = carpet_indicator(holes)
    assert xb.tolist() == sorted({v for h in holes for v in h[:2]})
    assert yb.tolist() == sorted({v for h in holes for v in h[2:]})
    rng = np.random.default_rng(7)
    rule_nodes, _ = Domain(((0.0, 1.0), (0.0, 1.0)), 256).cell_rule(breaks=(xb, yb))
    random_nodes = rng.uniform(-0.1, 1.1, size=(20_000, 2))
    corners = np.array(np.meshgrid(xb, yb, indexing="ij")).reshape(2, -1).T
    on_x_edge = np.column_stack([rng.choice(xb, 5_000), rng.uniform(0.0, 1.0, 5_000)])
    on_y_edge = np.column_stack([rng.uniform(0.0, 1.0, 5_000), rng.choice(yb, 5_000)])
    for nodes in (rule_nodes, random_nodes, corners, on_x_edge, on_y_edge):
        got = weight(nodes)
        assert got.dtype == np.float64
        assert np.array_equal(got, _hole_loop_weight(holes, nodes))
    # every set meets both values; edge nodes inside a larger hole weigh 1
    for nodes in (rule_nodes, random_nodes, corners, on_x_edge, on_y_edge):
        assert set(weight(nodes).tolist()) == {0.0, 1.0}
    assert np.array_equal(carpet_indicator([])[0](random_nodes), np.zeros(len(random_nodes)))


@pytest.mark.parametrize("holes", [[], [(0.25, 0.5, 0.125, 0.75)]], ids=["no hole", "one hole"])
def test_carpet_indicator_classes_with_few_edges(holes):
    weight, (xb, yb) = carpet_indicator(holes)
    assert len(xb) == len(yb) == 2 * len(holes)
    grid = np.array([0.0, 0.125, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0])
    nodes = np.array(np.meshgrid(grid, grid, indexing="ij")).reshape(2, -1).T
    nodes = np.vstack([nodes, np.nextafter(nodes, 2.0), np.nextafter(nodes, -1.0)])
    got = weight(nodes)
    assert np.array_equal(got, _hole_loop_weight(holes, nodes))
    assert set(got.tolist()) == ({0.0, 1.0} if holes else {0.0})


def test_carpet_lower_bound_from_the_depth_4_holes_is_bit_for_bit():
    holes4 = carpet_holes(4)
    for k in range(5):
        assert carpet_lower_bound(k, holes4) == carpet_lower_bound(k)


def _example1_old_search():
    """The radial samples of example1 and the grid-and-ternary search that
    chose its best constant before the weighted median."""
    hole_radius = 0.25
    bump_radius = 0.98 * hole_radius
    m = 100_000
    s = (np.arange(m) + 0.5) / m
    vals = (1.0 - np.minimum(s, 1.0) ** 4) ** 2
    ring = 2.0 * math.pi * bump_radius**2 * s / m
    pad_area = math.pi * (hole_radius**2 - bump_radius**2)

    def l1_distance_to_const(c):
        return float(np.dot(ring, np.abs(vals - c))) + pad_area * abs(c)

    cs = np.linspace(0.0, 1.0, 201)
    best = min(cs, key=l1_distance_to_const)
    for _ in range(40):
        lo, hi = max(0.0, best - 0.01), min(1.0, best + 0.01)
        grid = np.linspace(lo, hi, 41)
        previous, best = best, min(grid, key=l1_distance_to_const)
        if best == previous:
            break
    return np.append(vals, 0.0), np.append(ring, pad_area), l1_distance_to_const, best


def test_example1_bound_pinned_at_cli_defaults():
    result = scenario_example1(RunConfig(scenario="example1"))
    best, bound = result.metrics["best_constant"], float(result.metrics["l1_lower_bound"])
    assert repr(best) == "0.531386119462285"
    assert repr(bound) == "0.06318234923267084"
    vals, weights, l1_distance_to_const, old_best = _example1_old_search()
    assert repr(float(old_best)) == "0.5315000000000001"
    assert bound <= l1_distance_to_const(old_best)
    assert all(bound <= l1_distance_to_const(c) for c in np.linspace(0.0, 1.0, 201))
    # a weighted median: at most half the weight lies on either side of it
    half = 0.5 * weights.sum()
    assert weights[vals < best].sum() <= half and weights[vals > best].sum() <= half


# ---------------------------------------------------------------------------
# scalar measures of the kinds a measure document once described, built in code
# ---------------------------------------------------------------------------


def test_scalar_measure_from_json():
    d = Domain((0.0, 1.0), 128)
    reg = CarrierRegistry()
    mu = ScalarRadonMeasure(
        d, density=lambda n: 1.0 + n[:, 0], carrier_parts=point_masses(d, reg, [((0.5,), 2.0)]), registry=reg,
    )
    assert mu.mass() == pytest.approx(1.5 + 2.0, rel=1e-12)


def test_scalar_measure_from_json_with_segment():
    d = Domain(((0.0, 1.0), (0.0, 1.0)), 16)
    reg = CarrierRegistry()
    reg.register_segment("mid", (0.5, 0.0), (0.5, 1.0))
    mu = ScalarRadonMeasure(
        d,
        density=lambda n: np.zeros(len(n)),
        carrier_parts=(("mid", lambda p: np.full(len(p), 2.0)),),
        registry=reg,
    )
    # density 2 times the H^1 measure of a unit segment
    assert mu.mass() == pytest.approx(2.0, rel=1e-12)


def test_scalar_measure_from_json_cell_array():
    d = Domain((0.0, 1.0), 4)
    values = np.array([1.0, 2.0, 3.0, 4.0])  # one value per base cell
    mu = ScalarRadonMeasure(d, density=lambda n: values[np.clip((4 * n[:, 0]).astype(int), 0, 3)])
    assert mu.mass() == pytest.approx(2.5, rel=1e-12)


def test_sawtooth_scenario_cross_oracle():
    # the final sawtooth element, described independently for the oracle
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    from bvcalc.bv import sawtooth_1d
    from bvcalc.functional import FunctionalSpec
    from bvcalc.integrands import make_norm

    j = 32
    u = sawtooth_1d(d, j, registry=reg)
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    ours = evaluate(u, FunctionalSpec(make_norm(), mu)).total
    breaks = [k / (2 * j) for k in range(1, 2 * j)]
    slopes = [1.0 if k % 2 == 0 else -1.0 for k in range(2 * j)]
    ref = oracle_1d(
        {"breaks": breaks, "slopes": slopes, "jumps": []},
        {"poly": [1.0], "atoms": []},
        {"kind": "norm"},
    )
    assert abs(ours - ref) / abs(ref) <= 1e-8


def test_ramp_scenario_cross_oracle():
    d = Domain((0.0, 1.0), 512)
    reg = CarrierRegistry()
    from bvcalc.bv import ramp_1d
    from bvcalc.functional import FunctionalSpec
    from bvcalc.integrands import make_norm, x_modulated

    j = 64
    u = ramp_1d(d, 0.0, 1.0 / j, registry=reg)
    mu = ScalarRadonMeasure(d, density=lambda n: np.ones(len(n)), registry=reg)
    ours = evaluate(u, FunctionalSpec(x_modulated(make_norm()), mu)).total
    ref = oracle_1d(
        {"breaks": [0.0, 1.0 / j], "slopes": [0.0, float(j), 0.0], "jumps": []},
        {"poly": [1.0], "atoms": []},
        {"kind": "norm", "modulated": True},
    )
    assert abs(ours - ref) / abs(ref) <= 1e-8
