from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcalc.bv import (
    TRACE_TOL,
    BVError,
    BVFunction,
    Jump,
    Piece,
    affine_2d,
    boundary_trace,
    derivative,
    heaviside_1d,
    matrix_test_fields,
    piecewise_affine_1d,
    ramp_1d,
    sawtooth_1d,
    verify_integration_by_parts,
    zero_extension,
)
from bvcalc.measures import (
    CarrierRegistry,
    Domain,
    area_functional,
    pair_with_test_function,
    total_variation,
)

from helpers import SmoothTestFunction, atoms_of, random_polynomial_test, vertical_step_2d


def interval(resolution=256):
    return Domain((0.0, 1.0), resolution)


def unit_square(resolution=32):
    return Domain(((0.0, 1.0), (0.0, 1.0)), resolution)


def catalog_functions():
    d1 = interval()
    d2 = unit_square()
    return [
        piecewise_affine_1d(d1, slopes=(1.0,)),
        piecewise_affine_1d(d1, breakpoints=(0.25, 0.6), slopes=(2.0, -1.0, 0.5)),
        heaviside_1d(d1, 0.5),
        piecewise_affine_1d(
            d1, breakpoints=(0.5,), slopes=(1.0, 1.0), jumps=((0.5, (1.0,)),)
        ),
        ramp_1d(d1, 0.4, 0.2),
        affine_2d(d2, np.array([[1.0, 2.0], [0.5, -1.0]]), offset=[0.3, -0.2]),
        vertical_step_2d(d2, 0.5),
    ]


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------


def test_derivative_of_identity_1d():
    u = piecewise_affine_1d(interval(), slopes=(1.0,))
    Du = derivative(u)
    assert total_variation(Du) == pytest.approx(1.0, abs=1e-12)
    assert not atoms_of(Du) and not Du.carrier_parts


def test_derivative_of_heaviside_is_unit_atom():
    u = heaviside_1d(interval(), 0.5)
    Du = derivative(u)
    assert len(atoms_of(Du)) == 1
    ((p, v),) = atoms_of(Du).values()
    assert p[0] == 0.5 and v[0, 0] == pytest.approx(1.0)
    assert total_variation(Du) == pytest.approx(1.0, abs=1e-14)


def test_derivative_of_2d_step():
    u = vertical_step_2d(unit_square(), 0.5)
    Du = derivative(u)
    assert len(Du.carrier_parts) == 1
    assert total_variation(Du) == pytest.approx(1.0, abs=1e-12)
    # jump density is e1^T: (u+ - u-) (x) eta with eta = e1
    pts = np.array([[0.5, 0.3], [0.5, 0.9]])
    vals = dict(Du.carrier_parts)["vline:0.5"](pts)
    assert np.allclose(vals, [[[1.0, 0.0]]] * 2)
    # cross-check through the parts formula
    psi = random_polynomial_test(unit_square(), seed=11)
    assert verify_integration_by_parts(u, psi, 0, 0) < 1e-10


def test_trace_inconsistency_rejected():
    d = interval()
    registry = CarrierRegistry()
    registry.register_point("jump:bad", (0.5,))
    piece = Piece(
        region=d.box,
        u=lambda n: (n[:, 0] > 0.5).astype(float)[:, None],
        grad=lambda n: np.zeros((len(n), 1, 1)),
        breaks=((0.5,),),
    )
    bad = Jump(
        "jump:bad",
        plus=lambda p: np.full((len(p), 1), 2.0),  # true one-sided limit is 1
        minus=lambda p: np.zeros((len(p), 1)),
    )
    with pytest.raises(BVError):
        from bvcalc.bv import BVFunction

        BVFunction(d, 1, [piece], jumps=[bad], registry=registry)


# ---------------------------------------------------------------------------
# integration by parts
# ---------------------------------------------------------------------------


def test_ibp_smooth_random():
    u = piecewise_affine_1d(interval(), breakpoints=(0.3,), slopes=(1.0, -2.0))
    for seed in range(5):
        psi = random_polynomial_test(interval(), seed=seed)
        assert verify_integration_by_parts(u, psi) < 1e-8


def test_ibp_heaviside_closed_form():
    # psi = c x (1 - x): LHS = int c(1-2x) H(x-1/2) = -c/4, RHS side = psi(1/2) = c/4
    u = heaviside_1d(interval(), 0.5)
    c = 1.7
    psi = SmoothTestFunction(
        lambda n: c * n[:, 0] * (1 - n[:, 0]), lambda n: (c * (1 - 2 * n[:, 0]))[:, None]
    )
    assert verify_integration_by_parts(u, psi) < 1e-10


def test_ibp_zero_test_function():
    u = heaviside_1d(interval(), 0.5)
    psi = SmoothTestFunction(lambda n: np.zeros(len(n)), lambda n: np.zeros((len(n), 1)))
    assert verify_integration_by_parts(u, psi) == 0.0


@pytest.mark.parametrize("case", range(len(catalog_functions())))
def test_ibp_catalog_with_twenty_random_tests(case):
    u = catalog_functions()[case]
    for seed in range(20):
        psi = random_polynomial_test(u.domain, seed=seed)
        for i in range(u.N):
            for j in range(u.domain.dim):
                assert verify_integration_by_parts(u, psi, i, j) < 1e-8


# ---------------------------------------------------------------------------
# traces and zero extension
# ---------------------------------------------------------------------------


def test_boundary_trace_identity_1d():
    u = piecewise_affine_1d(interval(), slopes=(1.0,))
    tr = boundary_trace(u)
    vals = tr(np.array([[0.0], [1.0]]))
    assert vals[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_boundary_trace_constant():
    u = piecewise_affine_1d(interval(), slopes=(0.0,), start_value=3.14)
    tr = boundary_trace(u)
    assert np.allclose(tr(np.array([[0.0], [1.0]])), 3.14)


def test_boundary_trace_affine_2d_matches_restriction():
    G = np.array([[1.0, -2.0]])
    u = affine_2d(unit_square(), G, offset=[0.5])
    tr = boundary_trace(u)
    pts, _, _ = unit_square().boundary_rule()
    expected = pts @ G.T + 0.5
    assert np.max(np.abs(tr(pts) - expected)) < 1e-9


def test_zero_extension_of_zero():
    u = piecewise_affine_1d(interval(), slopes=(0.0,))
    ext = zero_extension(u, Domain((-1.0, 2.0), 128))
    assert total_variation(derivative(ext)) == pytest.approx(0.0, abs=1e-14)


def test_zero_extension_unit_constant_1d():
    u = piecewise_affine_1d(interval(), slopes=(0.0,), start_value=1.0)
    ext = zero_extension(u, Domain((-1.0, 2.0), 128))
    De = derivative(ext)
    values = {p[0]: v[0, 0] for p, v in atoms_of(De).values()}
    assert values[0.0] == pytest.approx(1.0)
    assert values[1.0] == pytest.approx(-1.0)


def test_zero_extension_constant_2d_perimeter_mass():
    c = np.array([1.5, -2.0])
    u = affine_2d(unit_square(), np.zeros((2, 2)), offset=c)
    ext = zero_extension(u, Domain(((-1.0, 2.0), (-1.0, 2.0)), 48))
    De = derivative(ext)
    # new jump mass = |c| * perimeter, by segment quadrature
    assert total_variation(De) == pytest.approx(np.linalg.norm(c) * 4.0, rel=1e-12)


def test_zero_extension_preserves_l1_and_boundary_mass_formula():
    u = ramp_1d(interval(), 0.2, 0.3, height=2.0)
    ext = zero_extension(u, Domain((-0.5, 1.5), 256))
    assert ext.l1_norm() == pytest.approx(u.l1_norm(), rel=1e-12)
    De, Du = derivative(ext), derivative(u)
    tr = boundary_trace(u)
    ends = tr(np.array([[0.0], [1.0]]))
    added = abs(ends[0, 0]) + abs(ends[1, 0])
    assert total_variation(De) == pytest.approx(total_variation(Du) + added, rel=1e-12)


def test_zero_extension_requires_strict_containment():
    u = piecewise_affine_1d(interval(), slopes=(1.0,))
    with pytest.raises(BVError):
        zero_extension(u, Domain((0.0, 2.0), 64))


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


def test_sawtooth_weak_star_but_not_strict():
    d = interval()
    zero = piecewise_affine_1d(d, slopes=(0.0,))
    gamma = derivative(zero)
    fields = matrix_test_fields(d, (1, 1))
    refs = [pair_with_test_function(gamma, phi) for phi in fields]
    l1, weak, tv = [], [], []
    for j in (4, 8, 16, 32):
        uj = sawtooth_1d(d, j)
        gj = derivative(uj)
        l1.append(uj.l1_distance(zero))
        weak.append(max(abs(pair_with_test_function(gj, phi) - ref) for phi, ref in zip(fields, refs)))
        tv.append(abs(total_variation(gj) - total_variation(gamma)))
    # weak* and L1 gaps vanish, the TV gap stays at |Du_j|(0,1) = 1
    assert l1[-1] < l1[0]
    assert l1[-1] < 0.01
    assert weak[-1] < 0.05
    assert all(abs(g - 1.0) < 1e-9 for g in tv)


def test_mollified_sequence_is_area_strict():
    d = Domain((0.0, 1.0), 4096)
    u = heaviside_1d(d, 0.5)
    js = (2, 4, 8, 16, 32)
    # the jump spread into a ramp of width 1/j centred on it
    area = area_functional(derivative(u))
    gaps = [abs(area_functional(derivative(ramp_1d(d, 0.5 - 0.5 / j, 1.0 / j))) - area) for j in js]
    assert all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(js) - 1))
    assert gaps[-1] <= 1.0 / js[-1]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_tv_invariant_under_repartition():
    d = interval()
    u1 = piecewise_affine_1d(d, breakpoints=(0.5,), slopes=(1.0, 1.0))
    u2 = piecewise_affine_1d(d, breakpoints=(0.25, 0.5, 0.75), slopes=(1.0,) * 4)
    assert total_variation(derivative(u1)) == pytest.approx(
        total_variation(derivative(u2)), rel=1e-12
    )


def test_l1_norm_heaviside():
    u = heaviside_1d(interval(), 0.5)
    assert u.l1_norm() == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# piece lookup and JSON input
# ---------------------------------------------------------------------------


def test_piece_lookup_error_messages():
    left = Piece(region=(0.0, 0.5), u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)))
    u = BVFunction(interval(8), 1, [left], validate=False)
    with pytest.raises(BVError, match="^pieces do not cover all quadrature nodes$"):
        u.value_at([[0.75]])
    with pytest.raises(BVError, match="^pieces do not cover all quadrature nodes$"):
        u.gradient_at([[0.25], [0.75]])
    with pytest.raises(BVError, match="^no piece adjacent to the requested points$"):
        u.value_from_inside([[0.5]], [[1.0]])
    assert u.value_from_inside([[0.5]], [[-1.0]])[0, 0] == 0.5


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(slopes=(1.0, np.nan), breakpoints=(0.5,)), "slopes and start_value must be finite, got [[1.0], [nan]] and [0.0]"),
        (dict(start_value=np.inf), "slopes and start_value must be finite, got [[0.0]] and [inf]"),
        (dict(jumps=((0.5, np.nan),)), "jump (0.5, [nan]) must lie inside (0, 1) with a finite height"),
        (dict(jumps=((np.nan, 1.0),)), "jump (nan, [1.0]) must lie inside (0, 1)"),
        (dict(jumps=((0.0, 1.0),)), "jump (0.0, [1.0]) must lie inside (0, 1)"),
        (dict(jumps=((1.0, 1.0),)), "jump (1.0, [1.0]) must lie inside (0, 1)"),
        (dict(jumps=((1.2, 1.0),)), "jump (1.2, [1.0]) must lie inside (0, 1)"),
    ],
)
def test_piecewise_affine_1d_names_the_entry_it_rejects(kw, message):
    with pytest.raises(BVError) as err:
        piecewise_affine_1d(interval(16), **kw)
    assert str(err.value).startswith(message)


def test_boundary_trace_checks_a_stored_trace():
    piece = Piece(region=(0.0, 1.0), u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)))
    u = BVFunction(interval(8), 1, [piece], trace=lambda p: p[:, :1])
    pts = np.array([[0.0], [1.0]])
    assert boundary_trace(u)(pts).tolist() == [[0.0], [1.0]]
    off = BVFunction(interval(8), 1, [piece], trace=lambda p: p[:, :1] + 0.5)
    with pytest.raises(BVError, match="^stored boundary trace inconsistent with pieces"):
        boundary_trace(off)
    nan = BVFunction(u.domain, 1, u.pieces, trace=lambda p: np.full((len(p), 1), np.nan), registry=u.registry)
    with pytest.raises(BVError, match=r"^stored boundary trace inconsistent with pieces \(nan\)$"):
        boundary_trace(nan)


# ---------------------------------------------------------------------------
# 1D profile builder: references kept from the closures it replaced
# ---------------------------------------------------------------------------


def _old_piecewise_affine_1d(domain, breakpoints=(), slopes=(0.0,), start_value=0.0, jumps=(),
                             registry=None, carrier_prefix="jump"):
    """``piecewise_affine_1d`` as it was before the profile builder: its own
    value, gradient and trace closures."""
    registry = registry if registry is not None else CarrierRegistry()
    (a, b), = domain.box
    breakpoints = tuple(sorted(float(t) for t in breakpoints))
    jumps = tuple((float(t), np.atleast_1d(np.asarray(d, dtype=float))) for t, d in jumps)
    N = len(jumps[0][1]) if jumps else np.atleast_1d(np.asarray(slopes[0])).shape[0]
    slopes = np.asarray([np.broadcast_to(np.atleast_1d(s), (N,)) for s in slopes], dtype=float)
    start = np.broadcast_to(np.atleast_1d(np.asarray(start_value, dtype=float)), (N,))
    edges = np.concatenate([[a], breakpoints, [b]])
    left_vals = np.zeros((len(edges) - 1, N))
    left_vals[0] = start
    for k in range(1, len(edges) - 1):
        left_vals[k] = left_vals[k - 1] + slopes[k - 1] * (edges[k] - edges[k - 1])
    jump_positions = np.array([t for t, _ in jumps]) if jumps else np.zeros(0)
    jump_heights = np.stack([d for _, d in jumps]) if jumps else np.zeros((0, N))

    def affine_part(x):
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(slopes) - 1)
        return left_vals[idx] + slopes[idx] * (x - edges[idx])[:, None]

    def value(nodes):
        x = nodes[:, 0]
        out = affine_part(x)
        for t, d in zip(jump_positions, jump_heights):
            out = out + (x > t)[:, None] * d[None, :]
        return out

    def grad(nodes):
        x = nodes[:, 0]
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx][:, :, None]

    jump_objs = []
    for t, d in jumps:
        carrier = registry.register_point(f"{carrier_prefix}:{t:.12g}", (t,))

        def plus(pts, _t=t):
            return affine_part(pts[:, 0]) + sum(
                float(_s <= _t) * h[None, :] for _s, h in zip(jump_positions, jump_heights)
            )

        def minus(pts, _t=t):
            return affine_part(pts[:, 0]) + sum(
                float(_s < _t) * h[None, :] for _s, h in zip(jump_positions, jump_heights)
            )

        jump_objs.append(Jump(carrier.cid, plus, minus, orientation=1.0))
    piece = Piece(region=domain.box, u=value, grad=grad,
                  breaks=(tuple(breakpoints) + tuple(jump_positions),))
    return BVFunction(domain, N, [piece], jumps=jump_objs, registry=registry)


_PROFILES = {
    # N = 1, three jumps, one of them on the slope breakpoint 0.3
    "scalar": dict(
        breakpoints=(0.3, 0.6), slopes=(1.0, -2.0, 0.5), start_value=0.2,
        jumps=((0.3, 1.0), (0.45, -0.5), (0.8, 2.0)),
    ),
    "vector": dict(
        breakpoints=(0.5,), slopes=((1.0, 0.0), (-1.0, 2.0)), start_value=(0.0, 1.0),
        jumps=((0.7, (1.0, -1.0)), (0.5, (0.5, 0.25)), (0.2, (-2.0, 3.0))),
    ),
    "zero_slope": dict(
        slopes=(0.0,), start_value=1.0, jumps=((0.25, 1.0), (0.5, 1.0), (0.75, -1.0))
    ),
}


def _assert_same_profile(new, old, trace_tol=0.0):
    d = new.domain
    nodes = np.concatenate([d.cell_rule(breaks=new.breaks)[0], [[0.0], [0.3], [0.5], [1.0]]])
    assert new.breaks == old.breaks and new.N == old.N
    assert np.array_equal(new.value_at(nodes), old.value_at(nodes))
    assert np.array_equal(new.gradient_at(nodes), old.gradient_at(nodes))
    assert [j.carrier_id for j in new.jumps] == [j.carrier_id for j in old.jumps]
    for jn, jo in zip(new.jumps, old.jumps):
        assert jn.orientation == jo.orientation
        for side in ("plus", "minus"):
            a, b = getattr(jn, side)(nodes), getattr(jo, side)(nodes)
            assert np.allclose(a, b, rtol=0, atol=trace_tol) if trace_tol else np.array_equal(a, b)
    Dn, Do = derivative(new), derivative(old)
    assert np.array_equal(Dn.density_at(nodes), Do.density_at(nodes))
    assert len(atoms_of(Dn)) == len(atoms_of(Do))
    for (p, v), (q, w) in zip(atoms_of(Dn).values(), atoms_of(Do).values()):
        assert np.array_equal(p, q)
        assert np.allclose(v, w, rtol=0.0, atol=trace_tol) if trace_tol else np.array_equal(v, w)


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_profile_builder_matches_the_old_closures(name):
    d = interval(64)
    new = piecewise_affine_1d(d, registry=CarrierRegistry(), **_PROFILES[name])
    old = _old_piecewise_affine_1d(d, registry=CarrierRegistry(), **_PROFILES[name])
    _assert_same_profile(new, old)


def _old_matrix_test_fields(domain, shape):
    from bvcalc.bv import scalar_bumps

    N, n = shape
    fields = []
    for bump in scalar_bumps(domain, 3):
        for i in range(N):
            for j in range(n):
                E = np.zeros((N, n))
                E[i, j] = 1.0

                def phi(nodes, _b=bump, _E=E):
                    return np.asarray(_b(nodes))[:, None, None] * _E[None]

                fields.append(phi)
    return fields


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_matrix_test_fields_keep_the_kept_order(shape):
    from bvcalc.bv import matrix_test_fields

    dom = interval(16) if shape[1] == 1 else unit_square(8)
    nodes, _ = dom.cell_rule()
    new, old = matrix_test_fields(dom, shape), _old_matrix_test_fields(dom, shape)
    assert len(new) == len(old) == 3 ** dom.dim * shape[0] * shape[1]
    assert all(np.array_equal(a(nodes), b(nodes)) for a, b in zip(new, old))


# ---------------------------------------------------------------------------
# one-piece lookup and bumps, against kept copies of the code they replaced
# ---------------------------------------------------------------------------


def _old_by_piece(u, nodes, fn, shape, probe=None):
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    idx = u._piece_index(nodes if probe is None else probe)
    assert np.all(idx >= 0)
    out = np.empty((len(nodes),) + shape)
    for k, piece in enumerate(u.pieces):
        m = idx == k
        if np.any(m):
            out[m] = np.asarray(fn(piece, nodes[m])).reshape((-1,) + shape)
    return out


def _one_piece_functions():
    d1, d2 = interval(64), unit_square(8)
    return [
        sawtooth_1d(d1, 8),
        ramp_1d(d1, 0.25, 0.5),
        heaviside_1d(d1, 0.5),
        affine_2d(d2, [[1.0, -2.0], [0.5, 3.0]], offset=[0.25, -1.0]),
        BVFunction(d2, 2, [Piece(region=d2.box, u=lambda n: np.column_stack([n[:, 0] * n[:, 1], np.ones(len(n))]),
                                 grad=lambda n: np.stack([n[:, ::-1], np.zeros_like(n)], 1))]),
        # u returns its (read-only, shared) input nodes: the result must be a fresh array
        BVFunction(d2, 2, [Piece(region=d2.box, u=lambda n: n, grad=lambda n: np.stack([n, n], 1))]),
    ]


@pytest.mark.parametrize("k", range(6))
def test_one_piece_lookup_equals_the_mask_loop(k):
    u = _one_piece_functions()[k]
    assert len(u.pieces) == 1
    nodes, _ = u.domain.cell_rule(breaks=u.breaks)
    for method, fn, shape in (
        (u.value_at, lambda p, x: p.u(x), (u.N,)),
        (u.gradient_at, lambda p, x: p.grad(x), (u.N, u.domain.dim)),
    ):
        new, old = method(nodes), _old_by_piece(u, nodes, fn, shape)
        assert new.shape == old.shape and new.dtype == old.dtype and np.array_equal(new, old)
        assert new.flags.writeable and not np.shares_memory(new, nodes)
    normals = np.zeros_like(nodes)
    normals[:, 0] = 1.0
    new = u.value_from_inside(nodes, normals)
    old = _old_by_piece(u, nodes, lambda p, x: p.u(x), (u.N,), nodes + 1e-9 * normals)
    assert np.array_equal(new, old)


def test_one_piece_lookup_still_rejects_uncovered_nodes():
    left = Piece(region=(0.0, 0.5), u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)))
    u = BVFunction(interval(8), 1, [left], validate=False)
    assert np.array_equal(u.value_at([[0.25], [0.5]]), [[0.25], [0.5]])
    with pytest.raises(BVError, match="^pieces do not cover all quadrature nodes$"):
        u.value_at([[0.25], [0.5 + 1e-12]])
    with pytest.raises(BVError, match="^no piece adjacent to the requested points$"):
        u.value_from_inside([[0.5]], [[1.0]])
    with pytest.raises(BVError, match="^pieces do not partition the domain"):
        BVFunction(interval(8), 1, [left])


def _old_piece_index(u, nodes):
    from bvcalc.measures import in_box

    idx = np.full(len(nodes), -1, dtype=int)
    for k, piece in enumerate(u.pieces):
        m = in_box(nodes, piece.region) & (idx < 0)  # the former Piece.mask
        idx[m] = k
    return idx


def _old_checked_by_piece(u, nodes, fn, shape, probe=None):
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    idx = _old_piece_index(u, nodes if probe is None else probe)
    if np.any(idx < 0):
        raise BVError(
            "pieces do not cover all quadrature nodes"
            if probe is None
            else "no piece adjacent to the requested points"
        )
    if len(u.pieces) == 1:
        return np.array(fn(u.pieces[0], nodes), dtype=float).reshape((-1,) + shape)
    out = np.empty((len(nodes),) + shape)
    for k, piece in enumerate(u.pieces):
        m = idx == k
        if np.any(m):
            out[m] = np.asarray(fn(piece, nodes[m])).reshape((-1,) + shape)
    return out


def _returned_or_raised(call):
    """The array a call returns, or the text of the BVError it raises."""
    try:
        return call()
    except BVError as exc:
        return f"BVError: {exc}"


def _lookup_functions():
    """One piece on the whole box, one on a strict sub-box (1D, 2D, and a
    bare 1D pair as region), and two pieces."""
    d1, d2 = interval(8), unit_square(8)

    def one(dom, region):
        return BVFunction(dom, 1, [Piece(region=region, u=lambda n: n[:, :1] * 2.0 + n[:, -1:],
                                         grad=lambda n: np.ones((len(n), 1, dom.dim)))], validate=False)

    halves = [Piece(region=[[lo, hi], [0.0, 1.0]], u=lambda n: n[:, :1], grad=lambda n: np.tile([1.0, 0.0], (len(n), 1, 1)))
              for lo, hi in ((0.0, 0.5), (0.5, 1.0))]
    two = BVFunction(d2, 1, halves)
    return [one(d1, d1.box), one(d2, d2.box), one(d1, (0.25, 0.75)),
            one(d2, ((0.25, 0.75), (0.0, 0.5))), affine_2d(d2, [[1.0, -2.0]], offset=[0.5]), two]


def _lookup_nodes(u):
    """Interior nodes, nodes on the region's edges (-0.0 among them), nodes
    just outside (also next to a corner), NaN nodes and no nodes."""
    dim, rng = u.domain.dim, np.random.default_rng(3)
    inner = np.asarray(u.pieces[0].region, dtype=float).reshape(-1, 2)
    inside = inner[:, 0] + (inner[:, 1] - inner[:, 0]) * rng.random((9, dim))
    edges = np.array([inner[:, 0], inner[:, 1], np.where(inner[:, 0] == 0.0, -0.0, inner[:, 0])])
    sets = {"inside": inside, "edges": np.concatenate([inside, edges])}
    for name, delta in (("below", -1e-12), ("above", 1e-12)):
        off = inside.copy()
        off[4, -1] = (inner[-1, 0] if delta < 0 else inner[-1, 1]) + delta
        sets[name] = off
    for k in range(dim):
        nan = inside.copy()
        nan[2, k] = np.nan
        sets[f"nan{k}"] = nan
        for side, delta in ((0, -1e-12), (1, 1e-12)):  # a corner, and one axis of it just past the edge
            corner = inner[:, [side, side]].T.copy()
            corner[1, k] += delta
            sets[f"corner{side}-past-axis{k}"] = corner
    sets["empty"] = np.empty((0, dim))
    sets["cell_rule"] = u.domain.cell_rule(breaks=u.breaks)[0]
    return sets


@pytest.mark.parametrize("k", range(6))
def test_piece_lookup_equals_the_mask_loop_with_its_errors(k):
    u = _lookup_functions()[k]
    shift = 1e-9 * max(hi - lo for lo, hi in u.domain.box)
    for name, nodes in _lookup_nodes(u).items():
        assert np.array_equal(u._piece_index(nodes), _old_piece_index(u, nodes)), name
        for fn, shape in ((lambda p, x: p.u(x), (u.N,)), (lambda p, x: p.grad(x), (u.N, u.domain.dim))):
            new = _returned_or_raised(lambda: u._by_piece(nodes, fn, shape))
            old = _returned_or_raised(lambda: _old_checked_by_piece(u, nodes, fn, shape))
            _assert_same_outcome(new, old, name)
        # value_from_inside: the probe, shifted along the normal, picks the piece
        for sign in (1.0, -1.0):
            normals = np.zeros_like(nodes)
            normals[:, 0] = sign
            new = _returned_or_raised(lambda: u.value_from_inside(nodes, normals))
            old = _returned_or_raised(lambda: _old_checked_by_piece(
                u, nodes, lambda p, x: p.u(x), (u.N,), probe=nodes + shift * normals))
            _assert_same_outcome(new, old, f"{name} from inside {sign}")


def _assert_same_outcome(new, old, name):
    assert type(new) is type(old), (name, new, old)
    if isinstance(old, str):
        assert new == old, name
    else:
        assert new.shape == old.shape and new.dtype == old.dtype and new.tobytes() == old.tobytes(), name


def test_a_covered_one_piece_function_never_builds_a_mask(monkeypatch):
    from bvcalc import bv

    def refuse(*args):
        raise AssertionError("a per-node mask was built")

    # on the square every coordinate lies in the range both axes allow
    u = affine_2d(unit_square(8), [[1.0, -2.0], [0.5, 3.0]], offset=[0.25, -1.0])
    nodes, _ = u.domain.cell_rule(breaks=u.breaks)
    r = affine_2d(Domain(((0.0, 2.0), (-1.0, 0.5)), 8), [[1.0, -2.0], [0.5, 3.0]], offset=[0.25, -1.0])
    r_nodes, _ = r.domain.cell_rule(breaks=r.breaks)
    monkeypatch.setattr(bv, "in_box", refuse)
    assert u.value_at(nodes).shape == (len(nodes), 2) and u.gradient_at(nodes).shape == (len(nodes), 2, 2)
    inward = u.domain.inward_normal(u.domain.boundary_rule()[0])
    assert u.value_from_inside(u.domain.boundary_rule()[0], inward).shape[1] == 2
    BVFunction(u.domain, 2, u.pieces)  # validation: coverage by bounds alone
    with pytest.raises(AssertionError, match="mask"):  # an uncovered node still takes the mask
        u.value_at([[0.5, 1.5]])
    # on a rectangle whose axes share no range the nodes take the mask, with the bits of the old lookup
    with pytest.raises(AssertionError, match="mask"):
        r.value_at(r_nodes)
    monkeypatch.undo()
    for fn, shape in ((lambda p, x: p.u(x), (2,)), (lambda p, x: p.grad(x), (2, 2))):
        new, old = r._by_piece(r_nodes, fn, shape), _old_checked_by_piece(r, r_nodes, fn, shape)
        _assert_same_outcome(new, old, "rectangle")
    # a region of more axes than the nodes fails in the mask, as before, not in the bounds check
    square_region = Piece(region=((0.0, 1.0), (0.0, 1.0)), u=lambda n: n, grad=lambda n: n[:, :, None])
    v = BVFunction(interval(8), 1, [square_region], validate=False)
    with pytest.raises(IndexError):
        v.value_at([[0.5]])
    with pytest.raises(IndexError):
        _old_checked_by_piece(v, [[0.5]], lambda p, x: p.u(x), (1,))


class _CountedBox:
    """A piece region that counts how often it is read as an array."""

    def __init__(self, box):
        self.box, self.reads = box, 0

    def __array__(self, dtype=None, copy=None):
        self.reads += 1
        return np.array(self.box, dtype=dtype)


def test_a_read_only_node_array_is_checked_once_while_it_lives():
    region = _CountedBox((0.0, 1.0))
    u = BVFunction(interval(8), 1, [Piece(region=region, u=lambda n: n, grad=lambda n: n[:, :, None])],
                   validate=False)
    nodes, _ = u.domain.cell_rule()
    assert not nodes.flags.writeable
    assert u._one_piece_covers(nodes) and u._one_piece_covers(nodes) and region.reads == 1
    # a writable array, or a read-only array not found covered, is checked on every call
    writable = np.array(nodes)
    assert u._one_piece_covers(writable) and u._one_piece_covers(writable) and region.reads == 3
    outside = np.array([[0.5], [1.5]])
    outside.setflags(write=False)
    assert not u._one_piece_covers(outside) and not u._one_piece_covers(outside) and region.reads == 5
    # an array made writable again is checked again, and so is a new array where the old one lived
    nodes.setflags(write=True)
    assert u._one_piece_covers(nodes) and region.reads == 6
    nodes.setflags(write=False)
    covered = np.array([[0.25]])
    covered.setflags(write=False)
    assert u._one_piece_covers(covered)
    del covered
    for _ in range(50):  # a later array often reuses the address of a freed one
        later = np.array([[1.5]])
        later.setflags(write=False)
        assert not u._one_piece_covers(later)


def _old_scalar_bumps(domain, per_axis=12):
    axes = []
    for lo, hi in domain.box:
        centers = lo + (hi - lo) * (np.arange(1, per_axis + 1)) / (per_axis + 1)
        width = (hi - lo) / (per_axis + 1)
        axes.append((centers, width))

    def axis_bump(t, c, w):
        s = np.clip(np.abs(t - c) / w, 0.0, 1.0)
        return (1.0 - s**2) ** 2

    bumps = []
    if domain.dim == 1:
        for c in axes[0][0]:
            bumps.append(lambda nodes, _c=c, _w=axes[0][1]: axis_bump(nodes[:, 0], _c, _w))
    else:
        for cx in axes[0][0]:
            for cy in axes[1][0]:
                bumps.append(
                    lambda nodes, _cx=cx, _cy=cy, _wx=axes[0][1], _wy=axes[1][1]: axis_bump(
                        nodes[:, 0], _cx, _wx
                    )
                    * axis_bump(nodes[:, 1], _cy, _wy)
                )
    return bumps


@pytest.mark.parametrize("per_axis", [1, 3, 12])
def test_scalar_bumps_equal_the_kept_copy(per_axis):
    from bvcalc.bv import scalar_bumps

    for dom in (Domain((-1.0, 2.0), 32), Domain(((0.0, 1.0), (-0.5, 2.0)), 16)):
        nodes, _ = dom.cell_rule()
        new, old = scalar_bumps(dom, per_axis), _old_scalar_bumps(dom, per_axis)
        assert len(new) == len(old) == per_axis**dom.dim
        assert all(np.array_equal(a(nodes), b(nodes)) for a, b in zip(new, old))


# ---------------------------------------------------------------------------
# batched trace check, interval lookup and sawtooth breaks, against kept
# copies of the code they replaced
# ---------------------------------------------------------------------------


def _old_check_trace_consistency(u):
    """The per-jump trace check: two ``value_at`` calls per jump and side."""
    h = 1e-6 * max(hi - lo for lo, hi in u.domain.box)

    def eval_offset(pts, directions, step):
        probe = pts + step * directions
        inside = u.domain.contains(probe)
        return u.value_at(np.where(inside[:, None], probe, pts))

    for jump in u.jumps:
        carrier = u.registry[jump.carrier_id]
        pts, _ = carrier.rule(min(u.domain.resolution, 16))
        normal = carrier.normal
        if carrier.kind == "point":
            normal = (jump.orientation,) + (0.0,) * (u.domain.dim - 1)
        eta = np.tile(np.asarray(normal, dtype=float), (len(pts), 1))
        for side, declared, sgn in (("plus", jump.plus, 1.0), ("minus", jump.minus, -1.0)):
            u1 = eval_offset(pts, sgn * eta, h)
            u2 = eval_offset(pts, sgn * eta, 0.5 * h)
            limit = 2.0 * u2 - u1
            stated = np.asarray(declared(pts)).reshape(-1, u.N)
            err = np.max(np.abs(limit - stated)) if len(pts) else 0.0
            if err > TRACE_TOL:
                raise BVError(
                    f"{side} trace on carrier {jump.carrier_id!r} inconsistent "
                    f"with pieces (error {err:.2e})"
                )


def _outcome(check, u):
    """None if ``check(u)`` passes, else the message of its BVError."""
    try:
        check(u)
    except BVError as exc:
        return str(exc)
    return None


def _with_jumps(u, jumps):
    return BVFunction(
        u.domain, u.N, u.pieces, jumps=jumps, registry=u.registry, breaks=u.breaks, validate=False
    )


def _trace_check_cases():
    from bvcalc.scenarios import build_case_1d, random_case_description

    d1 = interval(64)
    rng = np.random.default_rng(18)
    cases = [build_case_1d(random_case_description(rng), resolution=64)[0] for _ in range(12)]
    cases += [heaviside_1d(d1, 0.5), heaviside_1d(d1, 1.0 / 3.0)]
    for kw in _PROFILES.values():
        cases.append(piecewise_affine_1d(d1, registry=CarrierRegistry(), **kw))
    cases.append(vertical_step_2d(unit_square(8), 0.5))
    cases.append(zero_extension(heaviside_1d(d1), Domain((-0.5, 1.5), 64)))
    # a jump on the box edge: its plus probes leave the box and are clamped
    reg = CarrierRegistry()
    reg.register_point("edge", (1.0,))
    ramp = Piece(region=d1.box, u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)))
    edge = Jump("edge", plus=lambda p: p[:, :1], minus=lambda p: p[:, :1])
    cases.append(BVFunction(d1, 1, [ramp], jumps=[edge], registry=reg, validate=False))
    return cases


def test_batched_trace_check_matches_the_per_jump_loop():
    cases = _trace_check_cases()
    assert sum(len(u.jumps) for u in cases) > 20
    for u in cases:
        assert _outcome(BVFunction.check_trace_consistency, u) is None
        assert _outcome(_old_check_trace_consistency, u) is None
        # a NaN among a side's errors fails that side (the per-jump loop let it pass)
        for k, jump in enumerate(u.jumps):
            odd = lambda p: np.where(np.arange(len(p)) % 2, 1.0, np.nan)[:, None]
            nan = lambda p, f=jump.plus: np.asarray(f(p)) + odd(p)
            v = _with_jumps(u, u.jumps[:k] + [replace(jump, plus=nan)] + u.jumps[k + 1 :])
            message = f"plus trace on carrier {jump.carrier_id!r} inconsistent with pieces (error nan)"
            assert _outcome(BVFunction.check_trace_consistency, v) == message
        # one side of one jump off by a distinct amount: the same message, error included
        for k, jump in enumerate(u.jumps):
            for side in ("plus", "minus"):
                off = lambda p, f=getattr(jump, side), e=3.7e-6 * (k + 1): np.asarray(f(p)) + e
                v = _with_jumps(u, u.jumps[:k] + [replace(jump, **{side: off})] + u.jumps[k + 1 :])
                new = _outcome(BVFunction.check_trace_consistency, v)
                assert new == _outcome(_old_check_trace_consistency, v)
                assert new.startswith(f"{side} trace on carrier {jump.carrier_id!r} inconsistent")


def test_batched_trace_check_calls_value_at_once_per_function():
    for u in _trace_check_cases():
        calls = []
        value_at = u.value_at
        u.value_at = lambda nodes: calls.append(len(nodes)) or value_at(nodes)
        u.check_trace_consistency()
        rule = min(u.domain.resolution, 16)
        probes = 4 * sum(len(u.registry[j.carrier_id].rule(rule)[0]) for j in u.jumps)
        assert calls == ([probes] if u.jumps else [])


def test_first_bad_jump_wins_and_plus_before_minus():
    u = piecewise_affine_1d(interval(64), registry=CarrierRegistry(), **_PROFILES["scalar"])
    first, second, third = u.jumps
    worse = lambda f, e: (lambda p: np.asarray(f(p)) + e)
    for jumps, message in (
        # the first jump's minus side is off by less than the second's plus side
        ([replace(first, minus=worse(first.minus, 0.1)),
          replace(second, plus=worse(second.plus, 5.0)), third],
         "minus trace on carrier 'jump:0.3' inconsistent with pieces (error 1.00e-01)"),
        # both sides of one jump off: plus is compared first
        ([first, replace(second, plus=worse(second.plus, 0.2), minus=worse(second.minus, 0.3)),
          third],
         "plus trace on carrier 'jump:0.45' inconsistent with pieces (error 2.00e-01)"),
    ):
        v = _with_jumps(u, jumps)
        assert _outcome(BVFunction.check_trace_consistency, v) == message
        assert _outcome(_old_check_trace_consistency, v) == message


def test_minus_trace_alone_wrong():
    u = heaviside_1d(interval(64), 0.5)
    (jump,) = u.jumps
    v = _with_jumps(u, [replace(jump, minus=lambda p: np.full((len(p), 1), 0.25))])
    message = "minus trace on carrier 'jump:0.5' inconsistent with pieces (error 2.50e-01)"
    assert _outcome(BVFunction.check_trace_consistency, v) == message
    assert _outcome(_old_check_trace_consistency, v) == message
    with pytest.raises(BVError, match=r"^minus trace on carrier 'jump:0\.5'"):
        BVFunction(v.domain, 1, v.pieces, jumps=v.jumps, registry=v.registry)


def test_uncovered_probe_raises_before_any_trace_comparison():
    """Every probe is evaluated before the first comparison, so a probe
    outside the pieces wins over an earlier jump's bad trace."""
    reg = CarrierRegistry()
    reg.register_point("bad", (0.25,))
    reg.register_point("gap", (0.75,))
    left = Piece(region=(0.0, 0.75), u=lambda n: n[:, :1], grad=lambda n: np.ones((len(n), 1, 1)))
    u = BVFunction(
        interval(16), 1, [left], registry=reg, validate=False,
        jumps=[Jump("bad", plus=lambda p: p[:, :1] + 1.0, minus=lambda p: p[:, :1]),
               Jump("gap", plus=lambda p: p[:, :1], minus=lambda p: p[:, :1])],
    )
    assert _outcome(_old_check_trace_consistency, u).startswith("plus trace on carrier 'bad'")
    message = _outcome(BVFunction.check_trace_consistency, u)
    assert message == "pieces do not cover all quadrature nodes"


@pytest.mark.parametrize("offset", [8.2e-7, -8.2e-7, 3e-7])
def test_a_slope_break_within_the_probe_step_of_a_jump_is_not_crossed(offset):
    """The probes stop half-way to the nearest other break, so a kink closer
    to a jump than the step 1e-6 does not spoil its Richardson limits."""
    u = piecewise_affine_1d(interval(64), breakpoints=(0.5 + offset,), slopes=(2.5, -1.5), jumps=((0.5, 1.0),))
    assert _outcome(_old_check_trace_consistency, u).startswith("plus trace" if offset > 0 else "minus trace")
    assert _outcome(BVFunction.check_trace_consistency, u) is None


@pytest.mark.parametrize("key, k", [((8, 1, 409), 3), ((9, 1, 419), 2)])
def test_random_cases_with_a_break_next_to_a_jump_build_and_match_the_oracle(key, k):
    """Cases of the oracle-1d benchmark stream whose slope break lies within
    1e-6 of a jump: they build, and ``evaluate`` agrees with ``oracle_1d``."""
    from bvcalc.functional import evaluate
    from bvcalc.oracle import oracle_1d
    from bvcalc.scenarios import build_case_1d, random_case_description

    rng = np.random.default_rng(list(key))
    case = [random_case_description(rng) for _ in range(k + 1)][k]
    assert min(abs(t - s) for t, _ in case["u"]["jumps"] for s in case["u"]["breaks"]) < 1e-6
    u, spec = build_case_1d(case, resolution=4096)
    ref = oracle_1d(case["u"], case["mu"], case["F"])
    assert abs(evaluate(u, spec).total - ref) <= 1e-8 * abs(ref)


def _old_interval_of(edges, x):
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interval_of_equals_the_clipped_search(data):
    from bvcalc.bv import _interval_of

    a = data.draw(st.floats(-4.0, 3.5), label="a")
    b = data.draw(st.floats(a, 4.0, exclude_min=True), label="b")
    breakpoints = data.draw(st.lists(st.floats(a, b) | st.sampled_from([a, b]), max_size=6))
    # duplicates of drawn breakpoints
    breakpoints += data.draw(st.lists(st.sampled_from(breakpoints or [a]), max_size=3))
    edges = np.concatenate([[a], sorted(breakpoints), [b]])
    x = np.array(data.draw(st.lists(
        st.floats(allow_nan=False) | st.floats(2 * a - b, 2 * b - a)
        | st.sampled_from([*edges.tolist(), -0.0, 0.0, np.inf, -np.inf]),
        min_size=1, max_size=40,
    )))
    new, old = _interval_of(edges, x), _old_interval_of(edges, x)
    assert new.dtype == old.dtype and np.array_equal(new, old)


def test_piecewise_affine_rejects_breakpoints_outside_the_box():
    d = Domain((-1.0, 2.0), 16)
    assert piecewise_affine_1d(d, breakpoints=(-1.0, 2.0), slopes=(1.0, 2.0, 3.0)).N == 1
    for bad in (-1.5, 2.0 + 1e-12, np.nan):
        with pytest.raises(BVError, match=r"^breakpoints must lie in \[-1, 2\], got "):
            piecewise_affine_1d(d, breakpoints=(0.5, bad), slopes=(1.0, 2.0, 3.0))


def test_piecewise_affine_rejects_unsorted_breakpoints():
    d = Domain((0.0, 1.0), 16)
    # a breakpoint at an end of the box stays allowed (ramp_1d at position a uses one)
    assert piecewise_affine_1d(d, breakpoints=(0.0, 0.7, 1.0), slopes=(1.0, 2.0, 3.0, 4.0)).N == 1
    with pytest.raises(BVError, match=r"^breakpoints must be sorted and distinct, got \[0\.7, 0\.2\]$"):
        piecewise_affine_1d(d, breakpoints=(0.7, 0.2), slopes=(1.0, 2.0, 3.0))
    # repeated breakpoints would drop the slope of the interval of length 0 between them
    with pytest.raises(BVError, match=r"^breakpoints must be sorted and distinct, got \[0\.5, 0\.5\]$"):
        piecewise_affine_1d(d, breakpoints=(0.5, 0.5), slopes=(1.0, 5.0, -1.0))


@pytest.mark.parametrize("second", [0.3, 0.3 + 1e-14])
def test_jumps_at_one_carrier_id_are_rejected(second):
    # each would otherwise count the full trace difference: |Du|({0.3}) read 4 for 2
    d, reg = Domain((0.0, 1.0), 16), CarrierRegistry()
    with pytest.raises(BVError, match=r"^jumps must have distinct carrier ids, got \['jump:0\.3', 'jump:0\.3'\]$"):
        piecewise_affine_1d(d, slopes=(0.0,), jumps=((0.3, 1.0), (second, 1.0)), registry=reg)
    assert "jump:0.3" not in reg


def test_sawtooth_breaks_equal_the_generator():
    for box, js in (((0.0, 1.0), range(1, 1101)), ((-0.3, 2.7), range(1, 1101, 7))):
        d = Domain(box, 4)
        (a, b), = d.box
        length = b - a
        for j in js:
            (new,) = sawtooth_1d(d, j).pieces[0].breaks
            old = tuple(a + length * k / (2 * j) for k in range(1, 2 * j))
            assert new == old and list(map(repr, new)) == list(map(repr, old))


def test_a_jump_on_an_unregistered_carrier_is_rejected():
    d = Domain((0.0, 1.0), 8)
    zero = lambda x: np.zeros((len(x), 1))
    piece = Piece(region=d.box, u=zero, grad=lambda x: np.zeros((len(x), 1, 1)))
    with pytest.raises(BVError) as err:
        BVFunction(d, 1, [piece], jumps=[Jump("nowhere", zero, zero)])
    assert str(err.value) == "jump carrier 'nowhere' not registered"


def test_a_profile_needs_one_slope_per_breakpoint_interval():
    with pytest.raises(BVError, match="^need one slope per breakpoint interval$"):
        piecewise_affine_1d(interval(), breakpoints=(0.5,), slopes=(1.0,))


@pytest.mark.parametrize("position", [1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9])
def test_a_jump_next_to_an_end_of_the_interval_passes_the_trace_check(position):
    # the probes of the trace check stop half-way to the box side, as they do at a break
    u = piecewise_affine_1d(interval(), slopes=(1.0,), jumps=((position, (0.8,)),))
    ((p, v),) = atoms_of(derivative(u)).values()
    assert p.tolist() == [position] and v[0, 0] == pytest.approx(0.8, abs=1e-12)
