"""Piecewise-smooth BV functions with explicit jump sets.

A function is a list of C^1 pieces partitioning the box plus jump parts
along registered carriers, so its derivative measure is exact: gradient
cell density plus (trace difference) (x) normal on each jump carrier (a
point mass on each jump point in 1D).  Everything downstream then carries
quadrature error only.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .measures import (
    CarrierRegistry,
    MatrixRadonMeasure,
    in_box,
    merge_breaks,
    singular_parts,
)

TRACE_TOL = 1e-8


class BVError(ValueError):
    pass


@dataclass
class Piece:
    """A sub-region with closed-form u and gradient expressions.

    ``region`` is a closed box, one (lo, hi) pair per axis (where boxes
    overlap, the first piece wins); ``breaks`` declares per-axis gradient
    discontinuities inside the piece so quadrature can refine there.
    """

    region: object
    u: object  # nodes (M, dim) -> (M, N)
    grad: object  # nodes (M, dim) -> (M, N, n)
    breaks: tuple = None


@dataclass
class Jump:
    """One-sided traces along a carrier; the normal points from the minus
    side to the plus side (orientation is the stored 1D sign for point
    carriers)."""

    carrier_id: str
    plus: object  # pts (M, dim) -> (M, N)
    minus: object
    orientation: float = 1.0  # 1D only


class BVFunction:
    def __init__(
        self,
        domain,
        N,
        pieces,
        jumps=(),
        trace=None,
        registry=None,
        validate=True,
    ):
        self.domain = domain
        self.N = int(N)
        self.pieces = list(pieces)
        self.jumps = list(jumps)
        self.registry = registry if registry is not None else CarrierRegistry()
        self.trace = trace
        self.breaks = merge_breaks(domain.dim, *(p.breaks for p in self.pieces))
        self._covered = None  # weak reference to the last read-only node array found covered
        if validate:
            self._validate()

    # -- evaluation ----------------------------------------------------------

    def _piece_index(self, nodes):
        """Per node, the index of the first piece whose closed box holds it, or -1 where none does."""
        idx = np.full(len(nodes), -1, dtype=int)
        for k, piece in enumerate(self.pieces):
            idx[in_box(nodes, piece.region) & (idx < 0)] = k
        return idx

    def _one_piece_covers(self, nodes):
        """Whether the only piece's closed box holds all of ``nodes``, each coordinate in the
        range every axis of it allows (a square box, an interval); False: use the masks."""
        if len(self.pieces) != 1 or not len(nodes):
            return False
        if self._covered is not None and self._covered() is nodes and not nodes.flags.writeable:
            return True
        lo, hi = np.asarray(self.pieces[0].region, dtype=float).reshape(-1, 2).T
        covers = len(lo) == nodes.shape[1] and lo.max() <= nodes.min() and nodes.max() <= hi.min()
        if covers and not nodes.flags.writeable:  # a memoised cell rule: checked once while it lives
            self._covered = weakref.ref(nodes)
        return covers

    def _by_piece(self, nodes, fn, shape, probe=None):
        """``fn(piece, points)`` at ``nodes``, shaped (M, *shape), taking at
        each node the piece that contains ``probe`` (default: the node)."""
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        where = nodes if probe is None else probe
        if not self._one_piece_covers(where):
            idx = self._piece_index(where)
            if np.any(idx < 0):
                raise BVError(
                    "pieces do not cover all quadrature nodes"
                    if probe is None
                    else "no piece adjacent to the requested points"
                )
        if len(self.pieces) == 1:  # every node is in the one piece: no gather by mask
            return np.array(fn(self.pieces[0], nodes), dtype=float).reshape((-1,) + shape)
        out = np.empty((len(nodes),) + shape)
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if np.any(m):  # rows taken by np.compress: a boolean mask index is slower
                out[m] = np.asarray(fn(piece, np.compress(m, nodes, axis=0))).reshape((-1,) + shape)
        return out

    def value_at(self, nodes):
        return self._by_piece(nodes, lambda piece, x: piece.u(x), (self.N,))

    def gradient_at(self, nodes):
        return self._by_piece(nodes, lambda piece, x: piece.grad(x), (self.N, self.domain.dim))

    def value_from_inside(self, points, normals):
        """Evaluate the piece expression seen when approaching ``points``
        from the direction of ``normals``; used for boundary traces."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shift = 1e-9 * max(hi - lo for lo, hi in self.domain.box)
        probe = points + shift * np.asarray(normals, dtype=float)
        return self._by_piece(points, lambda piece, x: piece.u(x), (self.N,), probe=probe)

    def l1_norm(self):
        nodes, weights = self.domain.cell_rule(breaks=self.breaks)
        return float(np.dot(weights, np.linalg.norm(self.value_at(nodes), axis=1)))

    def l1_distance(self, other):
        breaks = merge_breaks(self.domain.dim, self.breaks, other.breaks)
        nodes, weights = self.domain.cell_rule(breaks=breaks)
        diff = self.value_at(nodes) - other.value_at(nodes)
        return float(np.dot(weights, np.linalg.norm(diff, axis=1)))

    # -- validation ----------------------------------------------------------

    def _validate(self):
        # a single piece whose region holds the box holds every rule node: no rule is built
        if not (len(self.pieces) == 1 and _holds_box(self.pieces[0].region, self.domain.box)):
            nodes, _ = self.domain.cell_rule(breaks=self.breaks)
            if not self._one_piece_covers(nodes) and np.any(self._piece_index(nodes) < 0):
                raise BVError("pieces do not partition the domain at quadrature nodes")
        for jump in self.jumps:
            if jump.carrier_id not in self.registry:
                raise BVError(f"jump carrier {jump.carrier_id!r} not registered")
        self.check_trace_consistency()

    def check_trace_consistency(self):
        """One-sided Richardson limits of the piece expressions must match
        the declared jump traces at carrier quadrature nodes.  The probes of
        every jump, side and step go through one ``value_at``, and the
        errors of every (jump, side) come from one pass; the first failing
        side, in jump order and plus before minus, raises."""
        if not self.jumps:
            return
        dim, h = self.domain.dim, 1e-6 * max(hi - lo for lo, hi in self.domain.box)
        rules, normals, pad = [], [], (0.0,) * (dim - 1)
        for jump in self.jumps:  # a point carrier's normal is the jump's stored 1D sign
            carrier = self.registry[jump.carrier_id]
            rules.append(carrier.rule(min(self.domain.resolution, 16))[0])
            normals.append((jump.orientation, *pad) if carrier.kind == "point" else carrier.normal)
        counts = [len(pts) for pts in rules]
        pts = np.concatenate(rules)
        eta = np.repeat(np.asarray(normals, dtype=float), counts, axis=0)
        # a point's step h stops half-way to the nearest other break or box side along its normal: no
        # probe crosses a kink, and only a point on the box's boundary probes outside it
        step = np.full(len(pts), h)
        for k, axis in enumerate(self.breaks):
            gap = np.abs(np.subtract.outer(pts[:, k], axis + self.domain.box[k]))
            gap[(gap == 0.0) | (eta[:, k, None] == 0.0)] = np.inf
            step = np.minimum(step, 0.5 * gap.min(axis=1, initial=np.inf))
        # probes at h, h/2, -h and -h/2 along the normal; those outside the box clamp to the point
        probe = (pts + np.array([1.0, 0.5, -1.0, -0.5])[:, None, None] * (step[:, None] * eta)).reshape(-1, dim)
        values = self.value_at(np.where(self.domain.contains(probe)[:, None], probe, np.tile(pts, (4, 1))))
        stated = [[np.asarray(f(p)).reshape(-1, self.N) for f in (j.plus, j.minus)]
                  for j, p in zip(self.jumps, rules)]
        u = values.reshape(2, 2, len(pts), self.N)  # Richardson 2 u(h/2) - u(h): O(h^2) for C^1 pieces
        err = np.abs(2.0 * u[:, 1] - u[:, 0] - np.stack([np.concatenate(s) for s in zip(*stated)]))
        err = np.maximum.reduceat(err.max(axis=2), np.cumsum([0] + counts[:-1]), axis=1)
        bad = np.flatnonzero(~(err.T <= TRACE_TOL))  # a NaN error fails too
        if bad.size:
            k, side = divmod(int(bad[0]), 2)
            raise BVError(
                f"{('plus', 'minus')[side]} trace on carrier {self.jumps[k].carrier_id!r} "
                f"inconsistent with pieces (error {err[side, k]:.2e})"
            )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def derivative(u):
    """The derivative measure: gradient cell density plus, per jump
    carrier, the density (trace difference) (x) normal there; the normal
    of a jump point is the jump's stored 1D sign."""
    parts = []
    for jump in u.jumps:
        carrier = u.registry[jump.carrier_id]
        normal = np.asarray((jump.orientation,) if carrier.kind == "point" else carrier.normal, dtype=float)

        def part(pts, _j=jump, _nrm=normal):
            diff = np.asarray(_j.plus(pts)) - np.asarray(_j.minus(pts))
            return diff.reshape(len(pts), u.N)[:, :, None] * _nrm[None, None, :]

        parts.append((jump.carrier_id, part))
    return MatrixRadonMeasure(
        u.domain,
        (u.N, u.domain.dim),
        density=u.gradient_at,
        carrier_parts=tuple(parts),
        registry=u.registry,
        breaks=u.breaks,
    )


def verify_integration_by_parts(u, psi, comp_i=0, comp_j=0):
    """|LHS + RHS| for the parts formula

        integral (dpsi/dx_j) u^i dL^n  =  - integral psi dDu^i_j,

    both sides by per-cell Gauss quadrature refined at the declared
    breakpoints (exact for polynomial data on aligned pieces)."""
    gamma = derivative(u)
    nodes, weights = u.domain.gauss_cell_rule(breaks=u.breaks)
    lhs = float(
        np.dot(weights, np.asarray(psi.grad(nodes))[:, comp_j] * u.value_at(nodes)[:, comp_i])
    )
    rhs = float(
        np.dot(weights, np.asarray(psi.value(nodes)) * u.gradient_at(nodes)[:, comp_i, comp_j])
    )
    for part in singular_parts(gamma):
        values = np.asarray(psi.value(part.points)) * part.values[:, comp_i, comp_j]
        rhs += float(np.dot(part.weights, values))
    return abs(lhs + rhs)


def boundary_trace(u):
    """The boundary trace as a callable on boundary points: the stored
    trace if present (validated against the interior limit), otherwise
    the interior limit of the piece expressions."""
    pts, _, normals = u.domain.boundary_rule()

    def from_inside(points):
        return u.value_from_inside(points, u.domain.inward_normal(points))

    if u.trace is None:
        return from_inside
    stated = np.asarray(u.trace(pts)).reshape(-1, u.N)
    err = np.max(np.abs(stated - from_inside(pts)))
    if not err <= TRACE_TOL:
        raise BVError(f"stored boundary trace inconsistent with pieces ({err:.2e})")
    return lambda points: np.asarray(u.trace(points)).reshape(-1, u.N)


def zero_extension(u, outer_domain, carrier_prefix=None):
    """Extend by zero to a strictly larger box; the derivative gains the
    boundary jump density trace (x) inward-normal along the old boundary."""
    for k, (lo, hi) in enumerate(u.domain.box):
        olo, ohi = outer_domain.box[k]
        if not (olo < lo and hi < ohi):
            raise BVError("outer domain must strictly contain the inner one")
    trace_fn = boundary_trace(u)
    prefix = carrier_prefix or f"bnd[{id(u) & 0xFFFF:x}]"
    carriers = u.registry.boundary_carriers(u.domain, prefix=prefix)
    inner_box = u.domain.box
    pieces = [replace(p, region=_restrict_region(p.region, inner_box)) for p in u.pieces]

    def zeros(pts):
        return np.zeros((len(pts), u.N))

    zero = Piece(
        region=outer_domain.box,  # listed last: the inner pieces win on the old boundary
        u=zeros,
        grad=lambda nodes: np.zeros((len(nodes), u.N, outer_domain.dim)),
        breaks=merge_breaks(outer_domain.dim, u.breaks, inner_box),
    )
    # the plus side of each boundary jump is the inner box: orientation +1
    # at an interval's left end, -1 at its right end, inward segment normals
    orientations = (1.0, -1.0) if u.domain.dim == 1 else (1.0,) * len(carriers)
    jumps = list(u.jumps) + [
        Jump(carrier.cid, plus=trace_fn, minus=zeros, orientation=sign)
        for carrier, sign in zip(carriers, orientations)
    ]
    return BVFunction(
        outer_domain,
        u.N,
        pieces + [zero],
        jumps=jumps,
        trace=lambda pts: zeros(np.atleast_2d(pts)),
        registry=u.registry,
        validate=False,  # nodes of the outer grid may probe across the old boundary
    )


def _holds_box(region, box):
    """Whether the closed box ``region`` holds ``box``, axis by axis (False for a NaN bound)."""
    bounds = np.asarray(region, dtype=float).reshape(-1, 2).tolist()
    return len(bounds) == len(box) and all(lo <= a and b <= hi for (lo, hi), (a, b) in zip(bounds, box))


def _restrict_region(region, box):
    region = np.asarray(region, dtype=float).reshape(-1, 2)
    return tuple((max(lo, box[k][0]), min(hi, box[k][1])) for k, (lo, hi) in enumerate(region))


# ---------------------------------------------------------------------------
# Test fields for weak* comparisons
# ---------------------------------------------------------------------------


def matrix_test_fields(domain, shape):
    """Boundary-vanishing bump fields times coordinate matrices; the finite
    dictionary standing in for all continuous test fields in weak*
    comparisons."""
    N, n = shape
    units = np.eye(N * n).reshape(N * n, N, n)  # E_ij in row-major order
    return [
        lambda nodes, _b=bump, _E=E: np.asarray(_b(nodes))[:, None, None] * _E[None]
        for bump in scalar_bumps(domain, 3)
        for E in units
    ]


def scalar_bumps(domain, per_axis=12):
    """Tensor-product C^1 bumps, ``per_axis`` centers per axis, the last
    axis running fastest."""
    axes = []
    for lo, hi in domain.box:
        centers = lo + (hi - lo) * (np.arange(1, per_axis + 1)) / (per_axis + 1)
        width = (hi - lo) / (per_axis + 1)  # edge bumps vanish exactly on the boundary
        axes.append([(c, width) for c in centers])

    def bump(nodes, centered):
        s = [np.minimum(np.abs(nodes[:, k] - c) / w, 1.0) for k, (c, w) in enumerate(centered)]
        return functools.reduce(operator.mul, [(1.0 - t**2) ** 2 for t in s])

    return [functools.partial(bump, centered=centered) for centered in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------


def piecewise_affine_1d(
    domain, breakpoints=(), slopes=(0.0,), start_value=0.0, jumps=(), registry=None
):
    """Continuous piecewise-affine profile plus jumps: ``slopes`` has one
    entry per interval of the breakpoint partition, ``jumps`` is a list of
    (position, height) pairs (positions need not be slope breakpoints), one
    point carrier ``jump:t`` per jump."""
    registry = registry if registry is not None else CarrierRegistry()
    (a, b), = domain.box
    breakpoints = tuple(float(t) for t in breakpoints)
    if not all(a <= t <= b for t in breakpoints):
        raise BVError(f"breakpoints must lie in [{a:g}, {b:g}], got {list(breakpoints)}")
    if not all(s < t for s, t in zip(breakpoints, breakpoints[1:])):
        raise BVError(f"breakpoints must be sorted and distinct, got {list(breakpoints)}")
    jumps = tuple((float(t), np.atleast_1d(np.asarray(d, dtype=float))) for t, d in jumps)
    for t, d in jumps:
        if not (a < t < b and np.isfinite(d).all()):
            raise BVError(f"jump ({t!r}, {d.tolist()}) must lie inside ({a:g}, {b:g}) with a finite height")
    N = len(jumps[0][1]) if jumps else np.atleast_1d(np.asarray(slopes[0])).shape[0]
    slopes = np.asarray(
        [np.broadcast_to(np.atleast_1d(s), (N,)) for s in slopes], dtype=float
    )
    if len(slopes) != len(breakpoints) + 1:
        raise BVError("need one slope per breakpoint interval")
    start = np.broadcast_to(np.atleast_1d(np.asarray(start_value, dtype=float)), (N,))
    if not (np.isfinite(slopes).all() and np.isfinite(start).all()):
        raise BVError(f"slopes and start_value must be finite, got {slopes.tolist()} and {start.tolist()}")

    edges = np.concatenate([[a], breakpoints, [b]])
    # continuous accumulation of the affine part
    left_vals = np.zeros((len(edges) - 1, N))
    left_vals[0] = start
    for k in range(1, len(edges) - 1):
        left_vals[k] = left_vals[k - 1] + slopes[k - 1] * (edges[k] - edges[k - 1])

    def affine_part(x):
        idx = _interval_of(edges, x)
        return left_vals[idx] + slopes[idx] * (x - edges[idx])[:, None]

    def value(nodes):
        x = nodes[:, 0]
        out = affine_part(x)
        for t, d in jumps:
            out = out + (x > t)[:, None] * d[None, :]
        return out

    def grad(nodes):
        return slopes[_interval_of(edges, nodes[:, 0])][:, :, None]

    def trace(t, below):
        # the jumps at or left of t count on the plus side, those strictly
        # left of t on the minus side
        offset = sum(float(below(s, t)) * d[None, :] for s, d in jumps)
        return lambda pts: affine_part(pts[:, 0]) + offset

    cids = [f"jump:{t:.12g}" for t, _ in jumps]
    if len(set(cids)) < len(cids):
        raise BVError(f"jumps must have distinct carrier ids, got {cids}")
    jump_parts = [
        Jump(registry.register_point(cid, (t,)).cid, trace(t, operator.le), trace(t, operator.lt))
        for (t, _), cid in zip(jumps, cids)
    ]
    breaks = breakpoints + tuple(t for t, _ in jumps)
    piece = Piece(region=domain.box, u=value, grad=grad, breaks=(breaks,))
    return BVFunction(domain, N, [piece], jumps=jump_parts, registry=registry)


def _interval_of(edges, x):
    """Index of the partition interval [edges[k], edges[k+1]) holding each x."""
    return np.searchsorted(edges[1:-1], x, side="right")


def heaviside_1d(domain, position=0.5, registry=None):
    return piecewise_affine_1d(
        domain, slopes=(0.0,), jumps=((position, (1.0,)),), registry=registry
    )


def ramp_1d(domain, position=0.0, width=1.0, height=1.0, registry=None):
    """Continuous ramp rising from 0 to ``height`` over [position,
    position + width]."""
    return piecewise_affine_1d(
        domain,
        breakpoints=(position, position + width),
        slopes=(0.0, height / width, 0.0),
        registry=registry,
    )


def sawtooth_1d(domain, j, registry=None):
    """Tent profile of period 1/j and amplitude 1/(2j), slopes exactly
    +-1; converges to zero in L^1 while |Du_j| stays at the box length."""
    (a, b), = domain.box
    length = b - a

    def phase(nodes):  # x - floor(x) is np.mod(x, 1.0), bit for bit, for x >= 0
        x = (nodes[:, 0] - a) * j / length
        return x - np.floor(x)

    def value(nodes):
        t = phase(nodes)
        return (length / j) * np.minimum(t, 1.0 - t)[:, None]

    def grad(nodes):
        return np.where(phase(nodes) < 0.5, 1.0, -1.0)[:, None, None]

    breaks = (tuple((a + length * np.arange(1, 2 * j) / (2 * j)).tolist()),)
    piece = Piece(region=domain.box, u=value, grad=grad, breaks=breaks)
    return BVFunction(
        domain,
        1,
        [piece],
        registry=registry if registry is not None else CarrierRegistry(),
    )


def affine_2d(domain, matrix, offset=None, registry=None):
    G = np.asarray(matrix, dtype=float)
    N = G.shape[0]
    c = np.zeros(N) if offset is None else np.asarray(offset, dtype=float)

    def value(nodes):
        return nodes @ G.T + c[None, :]

    def grad(nodes):
        return np.tile(G[None], (len(nodes), 1, 1))

    piece = Piece(region=domain.box, u=value, grad=grad)
    return BVFunction(
        domain,
        N,
        [piece],
        registry=registry if registry is not None else CarrierRegistry(),
    )
