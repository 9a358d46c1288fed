"""Structured Radon measures on boxes, with decomposition and quadrature.

A positive measure mu on a box domain is stored in structured form

    mu = a * (volume measure)  +  densities on carriers,

and an R^{N x n}-valued measure gamma (a derivative measure, typically)
likewise carries a matrix density plus carrier parts; on a point carrier
a part is a point mass.  Carriers live in a shared registry, which gives
one point one id, so that mutual singularity is decidable structurally:
two carrier parts interact only when they reference the same carrier id.
A measure's carriers lie in its closed box, and whether mu dominates the
volume measure is read from its density (see :func:`rn_decompose`).

Quadrature is deterministic: on cells (refined at declared breakpoints
so piecewise-closed-form densities integrate cleanly) 2-point
Gauss-Legendre in 1D and the midpoint rule in 2D, 3-point Gauss-Legendre
per segment sub-interval, fixed left-to-right summation order.

A scalar measure keeps the cell part its construction checked when its
rule is one the domain keeps: ``cell_part`` returns that part (values read-only)
whenever the rule asked for is the same array; its ``null_points``, where the
density is at most 0, and ``masses`` are each found once, on first read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, product

import numpy as np

# k-point Gauss-Legendre nodes and weights on [-1, 1]; k = 1 is the midpoint rule
_GAUSS = {k: np.polynomial.legendre.leggauss(k) for k in (1, 2, 3)}

_MATCH_TOL = 1e-12  # points this close are one point carrier
_EDGE_TOL = 1e-12  # a break this close to a grid edge, relative to the box length, is that edge
_POINT_CELL = 1024 * _MATCH_TOL  # side of the grid cells that index point carriers
_ZERO_TOL = 1e-14  # densities below this count as "not charging"
_MEMO_NODES = 1 << 17  # larger cell rules are rebuilt on each call, never kept


class MeasureError(ValueError):
    pass


class DecompositionError(MeasureError):
    """Radon-Nikodym decomposition ill-posed at the working resolution."""


# ---------------------------------------------------------------------------
# Domain and quadrature
# ---------------------------------------------------------------------------


def _as_bounds(box):
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.shape[1] != 2 or np.any(~(box[:, 1] > box[:, 0])):  # NaN fails too
        raise MeasureError(f"box must have positive volume per axis, got {box}")
    return tuple((float(lo), float(hi)) for lo, hi in box)


def in_box(points, box):
    """Mask of the rows of ``points`` (M, dim) in the closed box ``box``,
    one (lo, hi) pair per axis (a bare pair for an interval)."""
    mask = np.ones(len(points), dtype=bool)
    for k, (lo, hi) in enumerate(np.asarray(box, dtype=float).reshape(-1, 2)):
        mask &= (points[:, k] >= lo) & (points[:, k] <= hi)
    return mask


def _refined_edges(lo, hi, resolution, breaks):
    """The grid edges of [lo, hi] with the breaks inside it added; a break
    within ``_EDGE_TOL`` of the box length of a grid edge is that edge, so
    grid-aligned breaks give the grid edges themselves."""
    edges = np.linspace(lo, hi, resolution + 1)
    extra = np.asarray(breaks, dtype=float)
    extra = extra[(extra > lo) & (extra < hi)]
    k = np.searchsorted(edges, extra)  # edges[k - 1] < break <= edges[k]
    extra = extra[np.minimum(extra - edges[k - 1], edges[k] - extra) > _EDGE_TOL * (hi - lo)]
    return np.unique(np.concatenate([edges, extra])) if len(extra) else edges


def _panels(edges, k):
    """k-point Gauss-Legendre nodes and weights on each panel between
    consecutive ``edges``, panel by panel."""
    nodes, weights = _GAUSS[k]
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * nodes[None, :]).ravel(), (half[:, None] * weights[None, :]).ravel()


def _tensor(axis_nodes, axis_weights):
    """Tensor product of per-axis rules: nodes (M, dim) and weights (M,),
    the last axis running fastest."""
    if len(axis_nodes) == 1:  # a view, not a copy: 1D rules reach 2^20 cells
        return axis_nodes[0][:, None], axis_weights[0]
    gx, gy = np.meshgrid(*axis_nodes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), np.outer(*axis_weights).ravel()


@dataclass(frozen=True)
class Domain:
    """Interval (1D) or axis-aligned rectangle (2D) with a fixed cell grid.

    ``resolution`` is the number of quadrature cells per axis.  Polygonal
    domains are not supported; every operation here only needs boxes.
    """

    box: tuple
    resolution: int
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _edge_rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # by edge bytes

    def __post_init__(self):
        object.__setattr__(self, "box", _as_bounds(self.box))
        if self.resolution < 1:
            raise MeasureError("resolution must be a positive integer")
        if self.dim not in (1, 2):
            raise MeasureError("only dimensions 1 and 2 are supported")

    @property
    def dim(self):
        return len(self.box)

    def volume(self):
        return float(np.prod([hi - lo for lo, hi in self.box]))

    def contains(self, points):
        return in_box(np.atleast_2d(np.asarray(points, dtype=float)), self.box)

    def strictly_contains(self, point):
        point = np.asarray(point, dtype=float)
        return all(lo < point[k] < hi for k, (lo, hi) in enumerate(self.box))

    # -- cell quadrature ----------------------------------------------------

    def cell_rule(self, breaks=None):
        """Nodes (M, dim) and weights (M,) tiling the box: 2-point
        Gauss-Legendre on each cell in 1D (exact for cubics per cell), the
        midpoint rule in 2D.

        ``breaks`` refines the per-axis partition at declared discontinuity
        locations.  The arrays are read-only: a rule of at most
        ``_MEMO_NODES`` nodes is kept by the domain and returned again, the
        same arrays for breaks that give the same cell edges.
        """
        key = _normalize_breaks(breaks, self.dim)
        rule = self._rules.get(key)
        if rule is None:
            edges = self._axis_edges(key)
            edge_key = tuple(e.tobytes() for e in edges)
            rule = self._edge_rules.get(edge_key) or read_only(*self._build_rule(edges))
            if len(rule[1]) <= _MEMO_NODES:
                self._rules[key] = self._edge_rules[edge_key] = rule
        return rule

    def _build_rule(self, axis_edges):
        k = 2 if self.dim == 1 else 1  # tensor GL2 would take 4x the nodes of a 256^2 grid
        nodes, weights = _tensor(*zip(*(_panels(e, k) for e in axis_edges)))
        keep = weights > 1e-300
        return (nodes, weights) if keep.all() else tuple(np.compress(keep, a, axis=0) for a in (nodes, weights))

    def gauss_cell_rule(self, breaks=None):
        """Per-cell 3-point Gauss rule (tensorized in 2D); exact for
        polynomials of degree 5 per axis on each refined cell."""
        return _tensor(*zip(*(_panels(e, 3) for e in self._axis_edges(_normalize_breaks(breaks, self.dim)))))

    def _axis_edges(self, axis_breaks):
        """Per axis, the cell edges refined at that axis's breaks."""
        return [
            _refined_edges(lo, hi, self.resolution, b) for (lo, hi), b in zip(self.box, axis_breaks)
        ]

    # -- boundary quadrature ------------------------------------------------

    def boundary_rule(self):
        """Boundary nodes, H^{n-1} weights and inward unit normals, face by
        face in the order of :func:`_faces`: a point has weight 1, a side
        GL3 per cell along the axis it runs on."""
        pts, wts, nms = [], [], []
        for _, start, end, normal in _faces(self.box):
            p, w = np.array([start]), np.ones(1)
            for k in np.flatnonzero(np.not_equal(start, end)):  # the axis a side runs on
                t, w = _panels(np.linspace(start[k], end[k], self.resolution + 1), 3)
                p = np.repeat(p, len(t), axis=0)
                p[:, k] = t
            pts.append(p)
            wts.append(w)
            nms.append(np.tile(normal, (len(p), 1)))
        return np.concatenate(pts), np.concatenate(wts), np.concatenate(nms)

    def inward_normal(self, points):
        """Inward unit normal at boundary quadrature points (nearest face)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        normals = np.zeros((len(points), self.dim))
        dists = np.full(len(points), np.inf)
        for k, (lo, hi) in enumerate(self.box):
            for val, sgn in ((lo, 1.0), (hi, -1.0)):
                d = np.abs(points[:, k] - val)
                closer = d < dists
                normals[closer] = 0.0
                normals[closer, k] = sgn
                dists = np.where(closer, d, dists)
        return normals


def _faces(box):
    """The sides of a box as (name, start, end, inward unit normal): two
    points in 1D, four segments in 2D."""
    if len(box) == 1:
        (lo, hi), = box
        return [("left", (lo,), (lo,), (1.0,)), ("right", (hi,), (hi,), (-1.0,))]
    (ax, bx), (ay, by) = box
    return [
        ("left", (ax, ay), (ax, by), (1.0, 0.0)),
        ("right", (bx, ay), (bx, by), (-1.0, 0.0)),
        ("bottom", (ax, ay), (bx, ay), (0.0, 1.0)),
        ("top", (ax, by), (bx, by), (0.0, -1.0)),
    ]


class Breaks(tuple):
    """Per axis, a sorted tuple of distinct floats.  Only :func:`merge_breaks`
    makes one, so a ``Breaks`` is checked once and then passed on as it is;
    building one directly is unsupported, as nothing checks it again."""
    __slots__ = ()


def _normalize_breaks(breaks, dim):
    """Per axis, a tuple of finite floats (else a MeasureError); a ``Breaks`` of ``dim`` axes as it is."""
    if type(breaks) is Breaks and len(breaks) == dim:
        return breaks
    if breaks is None:
        return tuple(() for _ in range(dim))
    norm = None
    try:
        if dim == 1 and (not len(breaks) or np.isscalar(breaks[0])):
            norm = (_float_tuple(breaks),)
        elif len(breaks) == dim and all(hasattr(b, "__len__") for b in breaks):
            norm = tuple(map(_float_tuple, breaks))
    except (LookupError, TypeError, ValueError):
        pass
    if norm is None:
        raise MeasureError(f"breakpoints must be numbers, a pair of lists in 2D, got {breaks!r}")
    if not all(map(math.isfinite, chain(*norm))):
        raise MeasureError(f"'breaks' must be finite, got {[*chain(*norm)]!r}")
    return norm


def _float_tuple(values):
    if type(values) is tuple and set(map(type, values)) == {float}:
        return values
    return tuple(map(float, values))


def merge_breaks(dim, *break_sets):
    """Per axis, the sorted union of the breakpoints of ``break_sets``
    (``None`` skipped), keeping the first of equal values, as a ``Breaks``;
    a MeasureError if an input other than a ``Breaks`` holds a non-finite
    value.  A ``Breaks`` that is the only non-empty input is returned as it is."""
    norms = [n for n in (_normalize_breaks(bs, dim) for bs in break_sets) if any(n)]
    if len(norms) == 1 and type(norms[0]) is Breaks:
        return norms[0]
    return Breaks(_axis_union([n[k] for n in norms if n[k]]) for k in range(dim))


def _axis_union(runs):
    """The sorted union of float tuples, first of equal values kept: a stable
    sort, as a set of dyadic floats (hashes sharing low bits) probes slowly."""
    if len(runs) == 1 and all(map(operator.lt, runs[0], runs[0][1:])):
        return runs[0]
    ordered = sorted(chain.from_iterable(runs))
    return tuple(compress(ordered, chain((True,), map(operator.ne, ordered[1:], ordered))))


def read_only(*arrays):
    """``arrays``, flagged not writable: no caller may change what others share."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularCarrier:
    """A point (Hausdorff dimension 0) or oriented straight segment
    (dimension n-1 = 1 in 2D) on which singular parts may live.

    The unit normal of a segment points from the "minus" side to the
    "plus" side of a jump across it.
    """

    cid: str
    kind: str  # "point" | "segment"
    point: tuple | None = None
    endpoints: tuple | None = None
    normal: tuple | None = None

    def __post_init__(self):
        for name, value in (("point", self.point), ("endpoints", self.endpoints), ("normal", self.normal)):
            flat = () if value is None else chain.from_iterable(value) if name == "endpoints" else value
            if not all(map(math.isfinite, flat)):
                raise MeasureError(f"carrier {self.cid!r} {name} must be finite, got {np.asarray(value).tolist()}")
        if self.kind == "point":
            if self.point is None:
                raise MeasureError("point carrier needs a location")
        elif self.kind == "segment":
            p, q = np.asarray(self.endpoints[0]), np.asarray(self.endpoints[1])
            if np.allclose(p, q):
                raise MeasureError("segment carrier has zero length")
            if self.normal is None:
                d = (q - p) / np.linalg.norm(q - p)
                object.__setattr__(self, "normal", (float(d[1]), float(-d[0])))
            nrm = np.linalg.norm(self.normal)
            if abs(nrm - 1.0) > 1e-12:
                raise MeasureError("segment normal must be unit length")
        else:
            raise MeasureError(f"unknown carrier kind {self.kind!r}")

    def rule(self, resolution):
        """Quadrature points (M, dim) and H^{dim}-weights along the carrier.

        For a point carrier this is the point with weight 1 (counting
        measure); for a segment, GL3 per sub-interval.
        """
        if self.kind == "point":
            return np.asarray(self.point, dtype=float)[None, :], np.ones(1)
        p = np.asarray(self.endpoints[0], dtype=float)
        q = np.asarray(self.endpoints[1], dtype=float)
        t, w = _panels(np.linspace(0.0, 1.0, resolution + 1), 3)
        return p[None, :] + t[:, None] * (q - p)[None, :], w * float(np.linalg.norm(q - p))


class CarrierRegistry:
    """Shared registry assigning unique ids to carriers.

    Structural discipline: carriers registered here are either identical
    (same id) or geometrically disjoint up to H^{n-1}-null overlap; the
    decomposition logic relies on this instead of float geometry tests;
    :meth:`register_point` is the one place that compares point locations.
    """

    def __init__(self):
        self._carriers = {}
        self._points = {}  # grid cell of side _POINT_CELL -> the point carriers in it

    def register_point(self, cid, point):
        """The point carrier within ``_MATCH_TOL`` of ``point``, whatever id
        it was registered under, or else a new one named ``cid``."""
        point = tuple(np.atleast_1d(point).tolist())
        cell = tuple(x // _POINT_CELL for x in point)  # NaN for a point that is not finite
        for near in product(*[(c - 1.0, c, c + 1.0) for c in cell]):
            for other in self._points.get(near, ()):
                if math.dist(other.point, point) <= _MATCH_TOL:
                    return other
        carrier = self._register(SingularCarrier(cid, "point", point=point))
        self._points.setdefault(cell, []).append(carrier)
        return carrier

    def register_segment(self, cid, start, end, normal=None):
        """The segment carrier ``cid``; a MeasureError if another id already
        holds these endpoints within ``_MATCH_TOL``, in either order."""
        carrier = SingularCarrier(
            cid, "segment", endpoints=(tuple(start), tuple(end)), normal=None if normal is None else tuple(normal)
        )
        for other in self._carriers.values():
            if other.kind == "segment" and other.cid != cid:
                for p, q in (other.endpoints, other.endpoints[::-1]):
                    if max(map(math.dist, carrier.endpoints, (p, q))) <= _MATCH_TOL:
                        raise MeasureError(f"segment {cid!r} has the endpoints of registered segment {other.cid!r}")
        return self._register(carrier)

    def _register(self, carrier):
        existing = self._carriers.get(carrier.cid)
        if existing is not None:
            if existing != carrier:
                raise MeasureError(f"carrier id {carrier.cid!r} already registered with different geometry")
            return existing
        self._carriers[carrier.cid] = carrier
        return carrier

    def __getitem__(self, cid):
        return self._carriers[cid]

    def __contains__(self, cid):
        return cid in self._carriers

    def boundary_carriers(self, domain, prefix="bnd"):
        """Register (or fetch) the carriers of a box boundary, with inward
        normals; used by the zero-extension construction."""
        return [
            self.register_point(f"{prefix}:{name}", p)
            if domain.dim == 1
            else self.register_segment(f"{prefix}:{name}", p, q, normal=nrm)
            for name, p, q, nrm in _faces(domain.box)
        ]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


class _StructuredMeasure:
    """What scalar and matrix measures share: carriers looked up in the
    registry, and their construction."""

    _cells = None  # a scalar measure's checked cell part on its own memoised rule, else None

    def carrier(self, cid):
        return self.registry[cid]

    def _normalize(self):
        """Construction shared by both measures: parts on one id summed in
        first-occurrence order, ids looked up, breaks merged.  Point parts
        come first, each read once at its point into a constant density and
        into ``_points``, one stacked part of kind "atom" (or None); a point
        part of value 0 is no part.  Every point and segment end must lie in
        the closed box.  Returns the summed parts as given."""
        merged = {}
        for cid, fn in self.carrier_parts:
            merged.setdefault(cid, []).append(fn)
        points, segments = [], []
        for cid, fns in merged.items():
            if self.registry is None or cid not in self.registry:
                raise MeasureError(f"carrier {cid!r} not in registry")
            part = (cid, fns[0] if len(fns) == 1 else _summed(fns))
            (points if self.registry[cid].kind == "point" else segments).append(part)
        object.__setattr__(self, "breaks", merge_breaks(self.domain.dim, self.breaks))
        ends = [self.registry[cid].point for cid, _ in points]
        ends += [end for cid, _ in segments for end in self.registry[cid].endpoints]
        inside = [len(end) == self.domain.dim for end in ends]  # a point of another dimension is outside
        if ends and all(inside):
            ends = np.array(ends, dtype=float)
            inside = in_box(ends, self.domain.box)
        if not all(inside):
            owners = [cid for cid, _ in points] + [cid for cid, _ in segments for _ in range(2)]
            raise MeasureError(f"carrier {owners[np.argmin(inside)]!r} lies outside the domain")
        stacked = None
        if points:
            at = ends[: len(points)]
            values = np.array([fn(p[None]) for p, (_, fn) in zip(at, points)], float)
            values = values.reshape(at.shape[:1] + self.shape)
            if not values.all():
                kept = values.reshape(len(at), -1).any(axis=1)
                points, at, values = [part for part, keep in zip(points, kept) if keep], at[kept], values[kept]
            if points:
                read_only(at, values)
                points = [(cid, _constant(v)) for (cid, _), v in zip(points, values)]
                stacked = MeasurePart("atom", None, at, np.ones(len(at)), values)
        object.__setattr__(self, "carrier_parts", (*points, *segments))
        object.__setattr__(self, "_points", stacked)
        return [(cid, fn) for cid, fns in merged.items() if len(fns) > 1 for fn in fns]


def _summed(fns):
    """The density sum(fns), added left to right."""
    return lambda pts: sum((np.asarray(f(pts)) for f in fns[1:]), np.asarray(fns[0](pts)))


def _constant(value):
    """The density ``value`` (an array) at any points."""
    return lambda pts: np.repeat(value[None], len(pts), axis=0)


@dataclass(frozen=True)
class ScalarRadonMeasure(_StructuredMeasure):
    """Positive measure: nonnegative cell density + carrier parts, a point
    mass (a part on a point carrier) being at least 0 exactly.

    Whether the volume measure is absolutely continuous with respect to mu
    is read from the density: :func:`rn_decompose` asks for a >= ``eps`` at
    every node of the cell rule it uses, the checkable surrogate of L^n << mu.
    """

    domain: Domain
    density: object = None  # callable nodes -> (M,) or None for zero
    carrier_parts: tuple = ()  # ((cid, callable pts -> (M,)), ...); parts on one id are summed
    registry: CarrierRegistry | None = None
    eps: float = 1e-12
    breaks: tuple = None
    shape = ()  # values are scalars: the shape-() case of a matrix measure

    def __post_init__(self):
        # a point mass is at least 0, and so is each part given on it
        weights = [fn(np.array([self.carrier(cid).point])) for cid, fn in self._normalize()
                   if self.carrier(cid).kind == "point"]
        weights += [] if self._points is None else [self._points.values]
        if not all((np.asarray(w) >= 0).all() for w in weights):  # NaN fails too
            raise MeasureError("atom weights must be nonnegative")
        cells = None if self.density is None else cell_part(self)  # no density: zero by definition
        for part in filter(None, (cells, self._points, *_carrier_parts(self))):
            if not np.isfinite(part.values).all():
                raise MeasureError(f"a scalar measure's {part.kind} part must be finite")
            if part.kind == "cells" and np.any(part.values < -1e-12):
                raise MeasureError("scalar density must be nonnegative")
            if part.kind == "carrier" and np.any(part.values < -1e-12):
                raise MeasureError("carrier densities must be nonnegative")
        if cells is not None and len(cells.weights) <= _MEMO_NODES:  # its rule is the domain's kept one
            read_only(cells.values)
            object.__setattr__(self, "_cells", cells)

    def density_at(self, nodes):
        if self.density is None:
            return np.zeros(len(nodes))
        return np.asarray(self.density(nodes), dtype=float)

    def mass(self):
        """Total mass mu(Omega)."""
        return _integrate(self, _values, _values)


def lebesgue(domain, registry=None):
    """The volume measure of ``domain``: density 1."""
    return ScalarRadonMeasure(domain, density=lambda n: np.ones(len(n)), registry=registry)


@dataclass(frozen=True)
class MatrixRadonMeasure(_StructuredMeasure):
    """R^{N x n}-valued measure: matrix cell density + carrier parts.  Derivative
    measures live here, so a point part is permitted only in 1D."""

    domain: Domain
    shape: tuple  # (N, n)
    density: object = None  # callable nodes -> (M, N, n)
    carrier_parts: tuple = ()  # ((cid, callable pts -> (M, N, n)), ...); parts on one id are summed
    registry: CarrierRegistry | None = None
    breaks: tuple = None

    def __post_init__(self):
        if self.shape[1] != self.domain.dim:
            raise MeasureError("matrix column count must equal the domain dimension")
        self._normalize()
        if self._points is not None and self.domain.dim != 1:
            raise MeasureError("atomic parts are only permitted in 1D")

    def density_at(self, nodes):
        if self.density is None:
            return np.zeros((len(nodes),) + self.shape)
        return np.asarray(self.density(nodes), dtype=float)


# ---------------------------------------------------------------------------
# Quadrature parts
# ---------------------------------------------------------------------------


@dataclass
class MeasurePart:
    """One structural part of a measure as quadrature data."""

    kind: str  # "cells" | "atom" (on a point carrier) | "carrier" (on a segment)
    key: object  # None for the cells, else the carrier id
    points: np.ndarray  # (M, dim)
    weights: np.ndarray = None  # (M,) volume, H^1 or counting weights
    values: np.ndarray = None  # (M,) or (M, N, n): the measure's density there

    @cached_property
    def masses(self):
        """weights x values for a scalar part, read-only; None for a matrix part."""
        return None if self.values.ndim == 3 else read_only(self.weights * self.values)[0]

    @cached_property
    def null_points(self):
        """The points where a scalar density is at most 0, read-only."""
        return read_only(np.compress(self.values <= 0.0, self.points, axis=0))[0]  # a mask index is 6x slower


def point_masses(domain, registry, masses):
    """Carrier parts (cid, constant density) for the point masses
    ``masses``, ((point, value), ...), of a measure on ``domain``: each point
    must lie in the closed box, and ``registry`` gives it its point carrier."""
    parts = []
    for p, v in masses:
        p = list(map(float, p))
        if not all(lo <= x <= hi for x, (lo, hi) in zip(p, domain.box)):  # NaN fails too
            raise MeasureError(f"atom point {p} must be finite and in the domain")
        if len(p) != domain.dim:
            raise MeasureError("atom point dimension mismatch")
        cid = registry.register_point(f"atom:{p}", p).cid
        parts.append((cid, _constant(np.asarray(v, dtype=float))))
    return tuple(parts)


def _part(m, kind, key, points, weights, density):
    values = np.asarray(density(points), dtype=float) if len(points) else np.zeros((0,) + m.shape)
    return MeasurePart(kind, key, points, weights, values)


def measure_parts(m, extra_breaks=None):
    """The parts of a scalar or matrix measure, in the order cells, points,
    segments, so that summing dot(part.weights, g(part.points, part.values))
    over them integrates g(x, density) against the measure over its whole
    domain.  ``extra_breaks`` refines the cell partition.
    """
    return [cell_part(m, extra_breaks), *singular_parts(m)]


def cell_part(m, extra_breaks=None):
    """The cell part of :func:`measure_parts`: the cell rule on the breaks
    of ``m`` (merged with ``extra_breaks`` only when given), with the cell
    density of ``m`` at its nodes.  A scalar measure's own kept part, read
    once at construction, is returned when the rule is that same array."""
    breaks = m.breaks
    if extra_breaks is not None:
        breaks = merge_breaks(m.domain.dim, m.breaks, extra_breaks)
    nodes, weights = m.domain.cell_rule(breaks=breaks)
    if m._cells is not None and m._cells.points is nodes:
        return m._cells
    return _part(m, "cells", None, nodes, weights, m.density_at)


def singular_parts(m):
    """One part per carrier part of ``m`` (points, rows of ``m._points``, then
    segments): the parts of :func:`measure_parts` after the cells."""
    s, rows = m._points, []
    for k, (cid, _) in enumerate(m.carrier_parts[: 0 if s is None else len(s.points)]):
        rows.append(MeasurePart("atom", cid, s.points[k:k + 1], s.weights[k:k + 1], s.values[k:k + 1]))
    return rows + _carrier_parts(m)


def _carrier_parts(m):
    """The segment parts of ``m``, in the order of ``m.carrier_parts``."""
    res, k = m.domain.resolution, 0 if m._points is None else len(m._points.points)
    return [_part(m, "carrier", cid, *m.carrier(cid).rule(res), fn) for cid, fn in m.carrier_parts[k:]]


def _integrate(measure, on_cells, on_singular):
    """Sum over the parts of ``measure`` of dot(weights, integrand(part)),
    where the integrand is ``on_cells`` on the cell part and
    ``on_singular`` on points and segments.  The points form one stacked
    part, its terms added in part order: the bits of one part per point."""
    total = 0.0
    cells = cell_part(measure)
    total += float(np.dot(cells.weights, on_cells(cells)))
    if measure._points is not None:
        for term in on_singular(measure._points).tolist():
            total += term
    for part in _carrier_parts(measure):
        total += float(np.dot(part.weights, on_singular(part)))
    return total


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def frobenius(A):
    """Pointwise Frobenius norm of matrices stacked along the leading axes: the
    squares summed left to right, the bits of ``np.sum`` on 1 to 7 C-ordered entries."""
    sq = np.square(np.asarray(A, dtype=float))
    n = math.prod(sq.shape[-2:])
    if sq.ndim < 2 or not 0 < n < 8 or not sq.flags.c_contiguous:  # numpy sums 8 or more pairwise
        return np.sqrt(np.sum(sq, axis=(-2, -1)))
    cols = sq.reshape(sq.shape[:-2] + (n,))
    return np.sqrt(sum((cols[..., k] for k in range(1, n)), cols[..., 0]))


def _magnitudes(values):
    """Pointwise |value|: absolute value of scalars, Frobenius norm of matrices."""
    return np.abs(values) if values.ndim == 1 else frobenius(values)


def _values(part):
    return part.values


def _norm_of_values(part):
    return _magnitudes(part.values)


def total_variation(gamma):
    """|gamma|(Omega): cell integral of the pointwise norm plus all
    carrier masses."""
    return _integrate(gamma, _norm_of_values, _norm_of_values)


def area_functional(gamma):
    """The minimal-surface-type functional of a measure: integrate
    sqrt(1 + |density|^2) over cells and add the singular masses."""

    def area(part):
        return np.sqrt(1.0 + frobenius(part.values) ** 2)

    return _integrate(gamma, area, _norm_of_values)


def matched_parts(parts1, parts2):
    """Pair the singular parts of two measures on one registry by carrier id.

    Each part of ``parts1``, in order, is paired with the part of
    ``parts2`` on the same id if it is still unused, or with None; the
    parts of ``parts2`` left over follow as (None, part).  ``parts2`` holds
    each id once, as the parts of one measure do.
    """
    unused = {b.key: b for b in parts2}
    pairs = [(a, unused.pop(a.key, None)) for a in parts1]
    return pairs + [(None, b) for b in unused.values()]


def mutually_singular(gamma1, gamma2):
    """Structural mutual singularity: no common cell node where both
    densities are nonzero and no carrier id charged by both."""
    cells = cell_part(gamma1, gamma2.breaks)
    if np.any(
        (_magnitudes(cells.values) > _ZERO_TOL)
        & (_magnitudes(gamma2.density_at(cells.points)) > _ZERO_TOL)
    ):
        return False
    charged = [
        [p for p in singular_parts(g) if np.any(_magnitudes(p.values) > _ZERO_TOL)]
        for g in (gamma1, gamma2)
    ]
    return all(a is None or b is None for a, b in matched_parts(*charged))


def charges_boundary(m, tol):
    """Whether ``m`` charges the boundary of its domain: a singular part
    with a value above ``tol`` on a point of it or a segment along it."""
    for cid, fn in m.carrier_parts:
        c = m.carrier(cid)
        at = c.point if c.kind == "point" else np.mean(np.asarray(c.endpoints), axis=0)
        if not m.domain.strictly_contains(at):
            values = np.asarray(fn(c.rule(m.domain.resolution)[0]), dtype=float)
            if np.max(_magnitudes(values)) > tol:
                return True
    return False


def pair_with_test_function(gamma, phi, check_boundary=True):
    """Duality pairing <phi, gamma> = integral of phi : dgamma for a
    continuous matrix field phi vanishing on the domain boundary."""
    if check_boundary:
        bpts, _, _ = gamma.domain.boundary_rule()
        if np.max(frobenius(phi(bpts))) > 1e-8:
            raise MeasureError("test field must vanish on the boundary")

    def paired(part):
        return np.sum(np.asarray(phi(part.points)) * part.values, axis=(1, 2))

    return _integrate(gamma, paired, paired)


# ---------------------------------------------------------------------------
# Radon-Nikodym decomposition
# ---------------------------------------------------------------------------


def _per_node(a, shape):
    """Scalars per node (M,) shaped to divide or scale values (M, *shape)."""
    return np.asarray(a).reshape((-1,) + (1,) * len(shape))


@dataclass
class MuDecomposition:
    """gamma = (dgamma/dmu) mu + remainder, resolved per structural part.

    ``densities`` maps every part key of mu (see :func:`part_densities`) to
    dgamma/dmu there, points -> values of shape (M,) + gamma.shape, zero
    where gamma does not charge; ``remainder`` collects the gamma parts mu
    does not see, which are mutually singular with mu by construction.
    gamma is a matrix measure or, as the shape-() case, a scalar one.
    """

    densities: dict
    remainder: MatrixRadonMeasure | ScalarRadonMeasure


def part_densities(m):
    """Density callables points -> values of every part of ``m``, keyed
    like the parts of :func:`measure_parts`: None for the cells, the
    carrier id for the others."""
    return {None: m.density_at, **dict(m.carrier_parts)}


def rn_decompose(gamma, mu):
    """Decompose gamma against a measure mu that dominates the volume measure.

    gamma is a matrix measure or a positive scalar measure (the
    concentration measure of a Young measure); densities and ratios then
    have the shape of gamma's values, () for a scalar measure.  Rejected
    when mu's cell density falls below its eps at a node of the cell rule
    on gamma's breaks (mu does not dominate the volume measure there), or
    when a segment density of mu is at most ``_ZERO_TOL`` at a node where
    gamma's is not (the pointwise ratio is then ill-posed at this
    resolution).  A point mass of mu is an exact constant above 0, as a
    weightless one is no part of mu, so on points the threshold is 0 and
    any positive mass divides.
    """
    if np.any(cell_part(mu, gamma.breaks).values < mu.eps):
        raise DecompositionError("mu cell density vanishes at a quadrature node")
    shape = gamma.shape
    densities = {None: lambda pts: gamma.density_at(pts) / _per_node(mu.density_at(pts), shape)}
    mu_fns, gamma_fns = dict(mu.carrier_parts), dict(gamma.carrier_parts)
    rem_parts = []
    for mp, gp in matched_parts(singular_parts(mu), singular_parts(gamma)):
        if mp is None:  # a part of gamma that mu does not see
            rem_parts.append((gp.key, gamma_fns[gp.key]))
        elif gp is None:
            densities[mp.key] = lambda p: np.zeros((len(p),) + shape)
        else:
            tol = 0.0 if mp.kind == "atom" else _ZERO_TOL
            if np.any((_magnitudes(gp.values) > _ZERO_TOL) & (mp.values <= tol)):
                raise DecompositionError(
                    f"mu density vanishes on carrier {mp.key!r} where gamma charges it"
                )

            def ratio(p, _g=gamma_fns[gp.key], _m=mu_fns[mp.key], _tol=tol):
                m = np.asarray(_m(p))
                safe = np.where(m > _tol, m, 1.0)
                out = np.asarray(_g(p)) / _per_node(safe, shape)
                out[m <= _tol] = 0.0
                return out

            densities[mp.key] = ratio

    return MuDecomposition(densities, replace(gamma, density=None, carrier_parts=tuple(rem_parts)))


# The decomposition of a scalar measure is the shape-() case of rn_decompose;
# the name stays because benchmark tracing resolves it.
scalar_rn_decompose = rn_decompose


def measure_distance(g1, g2):
    """Total variation of g1 - g2 for structured matrix measures on one
    domain; singular parts are paired by :func:`matched_parts`."""
    if g1.shape != g2.shape or g1.domain != g2.domain:
        raise MeasureError("shape or domain mismatch")
    cells = cell_part(g1, g2.breaks)
    total = float(np.dot(cells.weights, frobenius(cells.values - g2.density_at(cells.points))))
    for a, b in matched_parts(singular_parts(g1), singular_parts(g2)):
        one = b if a is None else a
        diff = one.values if a is None or b is None else a.values - b.values
        total += float(np.dot(one.weights, frobenius(diff)))
    return total
