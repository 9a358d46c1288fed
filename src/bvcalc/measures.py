"""Structured Radon measures on boxes, with decomposition and quadrature.

A positive measure mu on a box domain is stored in structured form

    mu = a * (volume measure)  +  atoms  +  line densities on carriers,

and an R^{N x n}-valued measure gamma (a derivative measure, typically)
likewise carries a matrix density plus carrier/atom parts.  Carriers live
in a shared registry so that mutual singularity is decidable structurally:
two carrier parts interact only when they reference the same carrier id.

Quadrature is deterministic: midpoint rule on cells (refined at declared
breakpoints so piecewise-closed-form densities integrate cleanly),
3-point Gauss-Legendre per segment sub-interval, fixed left-to-right
summation order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain, compress

import numpy as np

# 3-point Gauss-Legendre on [-1, 1]
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)

_MATCH_TOL = 1e-12  # coincidence tolerance for atom points
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
    edges = np.linspace(lo, hi, resolution + 1)
    extra = np.asarray(breaks, dtype=float)
    extra = extra[(extra > lo) & (extra < hi)]
    return np.unique(np.concatenate([edges, extra])) if len(extra) else edges


def _gl3(edges):
    """GL3 nodes and weights on each panel between consecutive ``edges``."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GL3_NODES[None, :]).ravel()
    return nodes, (half[:, None] * _GL3_WEIGHTS[None, :]).ravel()


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
        """Midpoint nodes (M, dim) and weights (M,) tiling the box.

        ``breaks`` refines the per-axis partition at declared discontinuity
        locations.  The arrays are read-only: a rule of at most
        ``_MEMO_NODES`` nodes is kept by the domain and returned again for
        the same breaks.
        """
        key = _normalize_breaks(breaks, self.dim)
        rule = self._rules.get(key)
        if rule is None:
            rule = read_only(*self._build_rule(key))
            if len(rule[1]) <= _MEMO_NODES:
                self._rules[key] = rule
        return rule

    def _build_rule(self, axis_breaks):
        axis_edges = self._axis_edges(axis_breaks)
        nodes, weights = _tensor(
            [0.5 * (e[1:] + e[:-1]) for e in axis_edges], [np.diff(e) for e in axis_edges]
        )
        keep = weights > 1e-300
        return (nodes, weights) if keep.all() else (nodes[keep], weights[keep])

    def gauss_cell_rule(self, breaks=None):
        """Per-cell 3-point Gauss rule (tensorized in 2D); exact for
        polynomials of degree 5 per axis on each refined cell."""
        return _tensor(*zip(*map(_gl3, self._axis_edges(_normalize_breaks(breaks, self.dim)))))

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
                t, w = _gl3(np.linspace(start[k], end[k], self.resolution + 1))
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
    return Breaks(_merged_axis([n[k] for n in norms if n[k]]) for k in range(dim))


def _merged_axis(runs):
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
            if value is not None and not np.isfinite(value).all():
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
        t, w = _gl3(np.linspace(0.0, 1.0, resolution + 1))
        return p[None, :] + t[:, None] * (q - p)[None, :], w * float(np.linalg.norm(q - p))


class CarrierRegistry:
    """Shared registry assigning unique ids to carriers.

    Structural discipline: carriers registered here are either identical
    (same id) or geometrically disjoint up to H^{n-1}-null overlap; the
    decomposition logic relies on this instead of float geometry tests.
    """

    def __init__(self):
        self._carriers = {}

    def register_point(self, cid, point):
        return self._register(SingularCarrier(cid, "point", point=tuple(np.atleast_1d(point))))

    def register_segment(self, cid, start, end, normal=None):
        return self._register(
            SingularCarrier(
                cid,
                "segment",
                endpoints=(tuple(start), tuple(end)),
                normal=None if normal is None else tuple(normal),
            )
        )

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

    def carrier(self, cid):
        return self.registry[cid]

    def _normalize(self, value):
        """Construction shared by both measures: atoms as (point, ``value``)
        merged per point, carrier parts as a tuple, breaks merged, and every
        carrier id looked up in the registry.  Returns the atoms unmerged."""
        atoms = tuple((np.asarray(p, float).reshape(-1), value(v)) for p, v in self.atoms)
        for p, _ in atoms:  # NaN fails the comparisons too; a dimension mismatch is rejected later
            if not all(lo <= x <= hi for x, (lo, hi) in zip(p.tolist(), self.domain.box)):
                raise MeasureError(f"atom point {p.tolist()} must be finite and in the domain")
        object.__setattr__(self, "atoms", _merged(atoms))
        object.__setattr__(self, "carrier_parts", tuple(self.carrier_parts))
        object.__setattr__(self, "breaks", merge_breaks(self.domain.dim, self.breaks))
        for cid, _ in self.carrier_parts:
            if self.registry is None or cid not in self.registry:
                raise MeasureError(f"carrier {cid!r} not in registry")
        return atoms


def _merged(atoms):
    """Atoms sharing a point as one atom, values summed, in first-occurrence order."""
    merged = {}
    for p, v in atoms:
        key = tuple(p)
        merged[key] = (p, merged[key][1] + v) if key in merged else (p, v)
    return tuple(merged.values())


@dataclass(frozen=True)
class ScalarRadonMeasure(_StructuredMeasure):
    """Positive measure: nonnegative cell density + atoms + carrier parts.

    ``dominates_lebesgue`` asserts a >= eps at every quadrature node, the
    checkable surrogate for "the volume measure is absolutely continuous
    with respect to mu"; it is verified at construction.
    """

    domain: Domain
    density: object = None  # callable nodes -> (M,) or None for zero
    atoms: tuple = ()  # ((point, weight), ...); weights at one point are summed
    carrier_parts: tuple = ()
    registry: CarrierRegistry | None = None
    dominates_lebesgue: bool = False
    eps: float = 1e-12
    breaks: tuple = None
    shape = ()  # values are scalars: the shape-() case of a matrix measure

    def __post_init__(self):
        for p, w in self._normalize(float):
            if not w >= 0:
                raise MeasureError("atom weights must be nonnegative")
            if len(p) != self.domain.dim:
                raise MeasureError("atom point dimension mismatch")
        # the atoms' signs were checked above
        for part in filter(None, (cell_part(self), _atom_part(self), *_carrier_parts(self))):
            if not np.isfinite(part.values).all():
                raise MeasureError(f"a scalar measure's {part.kind} part must be finite")
            if part.kind == "cells" and np.any(part.values < -1e-12):
                raise MeasureError("scalar density must be nonnegative")
            if part.kind == "cells" and self.dominates_lebesgue and np.any(part.values < self.eps):
                raise MeasureError("dominates-Lebesgue flag requires density >= eps at every node")
            if part.kind == "carrier" and np.any(part.values < -1e-12):
                raise MeasureError("carrier densities must be nonnegative")

    def density_at(self, nodes):
        if self.density is None:
            return np.zeros(len(nodes))
        return np.asarray(self.density(nodes), dtype=float)

    def mass(self):
        """Total mass mu(Omega)."""
        return _integrate(self, _values, _values)


def lebesgue(domain, registry=None):
    """The volume measure of ``domain``: density 1, flagged dominates-Lebesgue."""
    return ScalarRadonMeasure(
        domain, density=lambda n: np.ones(len(n)), registry=registry, dominates_lebesgue=True
    )


@dataclass(frozen=True)
class MatrixRadonMeasure(_StructuredMeasure):
    """R^{N x n}-valued measure: matrix cell density + carrier parts +
    (1D only) atoms.  Derivative measures of BV functions live here."""

    domain: Domain
    shape: tuple  # (N, n)
    density: object = None  # callable nodes -> (M, N, n)
    carrier_parts: tuple = ()  # ((cid, callable pts -> (M, N, n)), ...)
    atoms: tuple = ()  # ((point, value (N, n)), ...), 1D only; values at one point are summed
    registry: CarrierRegistry | None = None
    breaks: tuple = None

    def __post_init__(self):
        N, n = self.shape
        if n != self.domain.dim:
            raise MeasureError("matrix column count must equal the domain dimension")
        self._normalize(lambda v: np.asarray(v, float).reshape(N, n))
        if self.atoms and self.domain.dim != 1:
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

    kind: str  # "cells" | "atom" | "carrier"
    key: object  # None | atom point tuple | carrier id
    points: np.ndarray  # (M, dim)
    weights: np.ndarray = None  # (M,) volume, H^1 or counting weights
    values: np.ndarray = None  # (M,) or (M, N, n): the measure's density there
    masses: np.ndarray = None  # (M,) weights x values, for scalar measures


def _repeated(value):
    """The constant density ``value`` at any points (an atom's value)."""
    return lambda pts: np.repeat(np.asarray(value)[None], len(pts), axis=0)


def _part(m, kind, key, points, weights, density):
    values = np.asarray(density(points), dtype=float) if len(points) else np.zeros((0,) + m.shape)
    return MeasurePart(kind, key, points, weights, values, None if m.shape else weights * values)


def measure_parts(m, extra_breaks=None):
    """The parts of a scalar or matrix measure, in the order cells, atoms,
    carriers, so that summing dot(part.weights, g(part.points, part.values))
    over them integrates g(x, density) against the measure over its whole
    domain.  ``extra_breaks`` refines the cell partition.
    """
    return [cell_part(m, extra_breaks), *singular_parts(m)]


def cell_part(m, extra_breaks=None):
    """The cell part of :func:`measure_parts`: the cell rule on the breaks
    of ``m`` (merged with ``extra_breaks`` only when given), with the cell
    density of ``m`` at its nodes."""
    breaks = m.breaks
    if extra_breaks is not None:
        breaks = merge_breaks(m.domain.dim, m.breaks, extra_breaks)
    nodes, weights = m.domain.cell_rule(breaks=breaks)
    return _part(m, "cells", None, nodes, weights, m.density_at)


def singular_parts(m):
    """The atom and carrier parts of ``m``, in that order: the parts of
    :func:`measure_parts` after the cells, built without a cell rule."""
    atoms = [_part(m, "atom", tuple(p), p[None, :], np.ones(1), _repeated(v)) for p, v in m.atoms]
    return atoms + _carrier_parts(m)


def _atom_part(m):
    """The atoms of ``m`` as one part of unit weights, points (K, dim) and
    values (K, ...) in atom order; None without atoms."""
    if not m.atoms:
        return None
    points, values = map(np.array, zip(*m.atoms))
    return _part(m, "atom", None, points, np.ones(len(points)), lambda _: values)


def _carrier_parts(m):
    """The carrier parts of ``m``, in the order of ``m.carrier_parts``."""
    res = m.domain.resolution
    return [_part(m, "carrier", cid, *m.carrier(cid).rule(res), fn) for cid, fn in m.carrier_parts]


def _integrate(measure, on_cells, on_singular):
    """Sum over the parts of ``measure`` of dot(weights, integrand(part)),
    where the integrand is ``on_cells`` on the cell part and
    ``on_singular`` on atoms and carriers.  The atoms form one part (see
    :func:`_atom_part`), its terms added in atom order: the bits of one part per atom."""
    total = 0.0
    cells = cell_part(measure)
    total += float(np.dot(cells.weights, on_cells(cells)))
    atoms = _atom_part(measure)
    if atoms is not None:
        for term in on_singular(atoms).tolist():
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
    carrier/atom masses."""
    return _integrate(gamma, _norm_of_values, _norm_of_values)


def area_functional(gamma):
    """The minimal-surface-type functional of a measure: integrate
    sqrt(1 + |density|^2) over cells and add the singular masses."""

    def area(part):
        return np.sqrt(1.0 + frobenius(part.values) ** 2)

    return _integrate(gamma, area, _norm_of_values)


def _same_support(a, b):
    """Whether singular parts of two measures sit on one set: the same
    carrier id, or atoms at coincident points."""
    if a.kind != b.kind:
        return False
    if a.kind == "carrier":
        return a.key == b.key
    return np.linalg.norm(np.subtract(a.key, b.key)) <= _MATCH_TOL


def matched_parts(parts1, parts2):
    """Pair the singular parts of two measures on one domain by support.

    Each part of ``parts1``, in order, is paired with the first unused part
    of ``parts2`` on the same support, or with None; the parts of
    ``parts2`` left over follow as (None, part).  Each part is used once.
    """
    pairs, used = [], set()
    for a in parts1:
        j = next((j for j, b in enumerate(parts2) if j not in used and _same_support(a, b)), None)
        used.add(j)
        pairs.append((a, None if j is None else parts2[j]))
    return pairs + [(None, b) for j, b in enumerate(parts2) if j not in used]


def mutually_singular(gamma1, gamma2):
    """Structural mutual singularity: no common cell node where both
    densities are nonzero, no shared carrier id, no coincident atoms."""
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


def charges_boundary(m, domain, tol):
    """Whether ``m`` charges the boundary of ``domain``: an atom heavier
    than ``tol`` on it, a point carrier on it or a segment along it."""
    if any(w > tol and not domain.strictly_contains(p) for p, w in m.atoms):
        return True
    for cid, _ in m.carrier_parts:
        c = m.carrier(cid)
        at = c.point if c.kind == "point" else np.mean(np.asarray(c.endpoints), axis=0)
        if not domain.strictly_contains(at):
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
    like the parts of :func:`measure_parts`: None for the cells, the point
    tuple for an atom, the id for a carrier."""
    table = {None: m.density_at}
    table.update((tuple(p), _repeated(v)) for p, v in m.atoms)
    table.update(m.carrier_parts)
    return table


def rn_decompose(gamma, mu):
    """Decompose gamma against a dominates-Lebesgue measure mu.

    gamma is a matrix measure or a positive scalar measure (the
    concentration measure of a Young measure); densities and ratios then
    have the shape of gamma's values, () for a scalar measure.  Rejected
    when mu's cell density falls below its declared eps, or when a carrier
    density of mu vanishes at a node where gamma's does not (the pointwise
    ratio is then ill-posed at this resolution).
    """
    if not mu.dominates_lebesgue:
        raise DecompositionError("mu must be flagged dominates-Lebesgue")
    if np.any(cell_part(mu, gamma.breaks).values < mu.eps):
        raise DecompositionError("mu cell density vanishes at a quadrature node")
    shape = gamma.shape
    densities = {None: lambda pts: gamma.density_at(pts) / _per_node(mu.density_at(pts), shape)}
    mu_fns, gamma_fns = dict(mu.carrier_parts), dict(gamma.carrier_parts)
    rem_atoms, rem_parts = [], []
    for mp, gp in matched_parts(singular_parts(mu), singular_parts(gamma)):
        if mp is None:  # a part of gamma that mu does not see
            if gp.kind == "atom":
                rem_atoms.append((gp.points[0], gp.values[0]))
            else:
                rem_parts.append((gp.key, gamma_fns[gp.key]))
        elif mp.kind == "atom":
            densities[mp.key] = _repeated(
                np.zeros(shape) if gp is None else gp.values[0] / mp.values[0]
            )
        elif gp is None:
            densities[mp.key] = lambda p: np.zeros((len(p),) + shape)
        else:
            if np.any((_magnitudes(gp.values) > _ZERO_TOL) & (mp.values <= _ZERO_TOL)):
                raise DecompositionError(
                    f"mu density vanishes on carrier {mp.key!r} where gamma charges it"
                )

            def ratio(p, _g=gamma_fns[gp.key], _m=mu_fns[mp.key]):
                m = np.asarray(_m(p))
                safe = np.where(m > _ZERO_TOL, m, 1.0)
                out = np.asarray(_g(p)) / _per_node(safe, shape)
                out[m <= _ZERO_TOL] = 0.0
                return out

            densities[mp.key] = ratio

    singular = {"density": None, "carrier_parts": tuple(rem_parts), "atoms": tuple(rem_atoms)}
    if not shape:  # a scalar remainder has no cell density to dominate Lebesgue with
        singular["dominates_lebesgue"] = False
    return MuDecomposition(densities, replace(gamma, **singular))


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
