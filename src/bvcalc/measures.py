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

from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions

# 3-point Gauss-Legendre on [-1, 1]
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)

_MATCH_TOL = 1e-12  # coincidence tolerance for atom points
_ZERO_TOL = 1e-14  # densities below this count as "not charging"


class MeasureError(ValueError):
    pass


class DecompositionError(MeasureError):
    """Radon-Nikodym decomposition ill-posed at the working resolution."""


# ---------------------------------------------------------------------------
# Domain and quadrature
# ---------------------------------------------------------------------------


def _as_bounds(box, allow_empty=False):
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    bad = box[:, 1] <= box[:, 0] if not allow_empty else box[:, 1] < box[:, 0]
    if box.shape[1] != 2 or np.any(bad):
        raise MeasureError(f"box must have positive volume per axis, got {box}")
    return tuple((float(lo), float(hi)) for lo, hi in box)


def _refined_edges(lo, hi, resolution, breaks):
    edges = np.linspace(lo, hi, resolution + 1)
    if breaks is not None and len(breaks):
        extra = np.asarray(breaks, dtype=float)
        extra = extra[(extra > lo) & (extra < hi)]
        if len(extra):
            edges = np.unique(np.concatenate([edges, extra]))
    return edges


@dataclass(frozen=True)
class Domain:
    """Interval (1D) or axis-aligned rectangle (2D) with a fixed cell grid.

    ``resolution`` is the number of quadrature cells per axis.  Polygonal
    domains are not supported; every operation here only needs boxes.
    """

    box: tuple
    resolution: int

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

    def contains(self, points, tol=0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        mask = np.ones(len(points), dtype=bool)
        for k, (lo, hi) in enumerate(self.box):
            mask &= (points[:, k] >= lo - tol) & (points[:, k] <= hi + tol)
        return mask

    def strictly_contains(self, point, margin=0.0):
        point = np.asarray(point, dtype=float)
        return all(
            lo + margin < point[k] < hi - margin for k, (lo, hi) in enumerate(self.box)
        )

    # -- cell quadrature ----------------------------------------------------

    def cell_rule(self, breaks=None, region=None):
        """Midpoint nodes (M, dim) and weights (M,) tiling the box.

        ``breaks`` refines the per-axis partition at declared discontinuity
        locations; ``region`` restricts to a closed sub-box (its edges are
        added to the partition, so sub-cells never straddle the region).
        """
        axis_breaks = _normalize_breaks(breaks, self.dim)
        if region is not None:
            region = _as_bounds(region, allow_empty=True)
            axis_breaks = tuple(
                tuple(sorted(set(axis_breaks[k]) | set(region[k])))
                for k in range(self.dim)
            )
        axis_edges = [
            _refined_edges(lo, hi, self.resolution, axis_breaks[k])
            for k, (lo, hi) in enumerate(self.box)
        ]
        mids = [0.5 * (e[1:] + e[:-1]) for e in axis_edges]
        widths = [np.diff(e) for e in axis_edges]
        if self.dim == 1:
            nodes = mids[0][:, None]
            weights = widths[0]
        else:
            gx, gy = np.meshgrid(mids[0], mids[1], indexing="ij")
            wx, wy = np.meshgrid(widths[0], widths[1], indexing="ij")
            nodes = np.column_stack([gx.ravel(), gy.ravel()])
            weights = (wx * wy).ravel()
        keep = weights > 1e-300
        nodes, weights = nodes[keep], weights[keep]
        if region is not None:
            inside = np.ones(len(nodes), dtype=bool)
            for k, (lo, hi) in enumerate(region):
                inside &= (nodes[:, k] >= lo) & (nodes[:, k] <= hi)
            nodes, weights = nodes[inside], weights[inside]
        return nodes, weights

    def gauss_cell_rule(self, breaks=None):
        """Per-cell 3-point Gauss rule (tensorized in 2D); exact for
        polynomials of degree 5 per axis on each refined cell."""
        axis_breaks = _normalize_breaks(breaks, self.dim)
        axis_nodes = []
        axis_weights = []
        for k, (lo, hi) in enumerate(self.box):
            edges = _refined_edges(lo, hi, self.resolution, axis_breaks[k])
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * np.diff(edges)
            pts = (mid[:, None] + half[:, None] * _GL3_NODES[None, :]).ravel()
            wts = (half[:, None] * _GL3_WEIGHTS[None, :]).ravel()
            axis_nodes.append(pts)
            axis_weights.append(wts)
        if self.dim == 1:
            return axis_nodes[0][:, None], axis_weights[0]
        gx, gy = np.meshgrid(axis_nodes[0], axis_nodes[1], indexing="ij")
        wx, wy = np.meshgrid(axis_weights[0], axis_weights[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()]), (wx * wy).ravel()

    # -- boundary quadrature ------------------------------------------------

    def boundary_rule(self):
        """Boundary nodes, H^{n-1} weights and inward unit normals."""
        if self.dim == 1:
            (lo, hi), = self.box
            nodes = np.array([[lo], [hi]])
            weights = np.array([1.0, 1.0])
            normals = np.array([[1.0], [-1.0]])
            return nodes, weights, normals
        (ax, bx), (ay, by) = self.box
        pts, wts, nms = [], [], []
        for fixed_axis, fixed_val, normal in (
            (0, ax, (1.0, 0.0)),
            (0, bx, (-1.0, 0.0)),
            (1, ay, (0.0, 1.0)),
            (1, by, (0.0, -1.0)),
        ):
            lo, hi = self.box[1 - fixed_axis]
            edges = np.linspace(lo, hi, self.resolution + 1)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * np.diff(edges)
            t = (mid[:, None] + half[:, None] * _GL3_NODES[None, :]).ravel()
            w = (half[:, None] * _GL3_WEIGHTS[None, :]).ravel()
            p = np.empty((len(t), 2))
            p[:, fixed_axis] = fixed_val
            p[:, 1 - fixed_axis] = t
            pts.append(p)
            wts.append(w)
            nms.append(np.tile(normal, (len(t), 1)))
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


def _normalize_breaks(breaks, dim):
    if breaks is None:
        return tuple(() for _ in range(dim))
    if dim == 1:
        if len(breaks) and np.isscalar(breaks[0]):
            return (tuple(map(float, breaks)),)
        breaks = breaks[0] if len(breaks) else ()
        return (tuple(map(float, breaks)),)
    if len(breaks) == dim and all(hasattr(b, "__len__") for b in breaks):
        return tuple(tuple(map(float, b)) for b in breaks)
    raise MeasureError("2D breakpoints must be a pair (x_breaks, y_breaks)")


def merge_breaks(dim, *break_sets):
    out = [set() for _ in range(dim)]
    for bs in break_sets:
        if bs is None:
            continue
        norm = _normalize_breaks(bs, dim)
        for k in range(dim):
            out[k].update(norm[k])
    return tuple(tuple(sorted(s)) for s in out)


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

    @property
    def hausdorff_dim(self):
        return 0 if self.kind == "point" else 1

    def length(self):
        if self.kind == "point":
            return 0.0
        p, q = np.asarray(self.endpoints[0]), np.asarray(self.endpoints[1])
        return float(np.linalg.norm(q - p))

    def rule(self, resolution, region=None):
        """Quadrature points (M, dim) and H^{dim}-weights along the carrier.

        For a point carrier this is the point with weight 1 (counting
        measure); for a segment, GL3 per sub-interval.  ``region`` clips.
        """
        if self.kind == "point":
            pt = np.asarray(self.point, dtype=float)[None, :]
            if region is not None and not _point_in_region(pt[0], region):
                return pt[:0], np.zeros(0)
            return pt, np.ones(1)
        p = np.asarray(self.endpoints[0], dtype=float)
        q = np.asarray(self.endpoints[1], dtype=float)
        t0, t1 = 0.0, 1.0
        if region is not None:
            t0, t1 = _clip_segment(p, q, region)
            if t1 <= t0:
                return np.zeros((0, len(p))), np.zeros(0)
        edges = np.linspace(t0, t1, resolution + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * _GL3_NODES[None, :]).ravel()
        w = (half[:, None] * _GL3_WEIGHTS[None, :]).ravel() * self.length()
        return p[None, :] + t[:, None] * (q - p)[None, :], w


def _point_in_region(point, region):
    region = _as_bounds(region, allow_empty=True)
    return all(lo <= point[k] <= hi for k, (lo, hi) in enumerate(region))


def _clip_segment(p, q, region):
    region = _as_bounds(region, allow_empty=True)
    t0, t1 = 0.0, 1.0
    for k, (lo, hi) in enumerate(region):
        d = q[k] - p[k]
        if abs(d) < 1e-300:
            if not (lo <= p[k] <= hi):
                return 1.0, 0.0
            continue
        ta, tb = (lo - p[k]) / d, (hi - p[k]) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    return t0, t1


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
        if domain.dim == 1:
            (lo, hi), = domain.box
            return [
                self.register_point(f"{prefix}:left", (lo,)),
                self.register_point(f"{prefix}:right", (hi,)),
            ]
        (ax, bx), (ay, by) = domain.box
        spec = [
            ("left", (ax, ay), (ax, by), (1.0, 0.0)),
            ("right", (bx, ay), (bx, by), (-1.0, 0.0)),
            ("bottom", (ax, ay), (bx, ay), (0.0, 1.0)),
            ("top", (ax, by), (bx, by), (0.0, -1.0)),
        ]
        return [
            self.register_segment(f"{prefix}:{name}", p, q, normal=nrm)
            for name, p, q, nrm in spec
        ]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


class _StructuredMeasure:
    """What scalar and matrix measures share: carriers looked up in the
    registry, and the test for having no part at all."""

    def carrier(self, cid):
        return self.registry[cid]

    def is_structurally_zero(self):
        return self.density is None and not self.carrier_parts and not self.atoms


@dataclass(frozen=True)
class ScalarRadonMeasure(_StructuredMeasure):
    """Positive measure: nonnegative cell density + atoms + carrier parts.

    ``dominates_lebesgue`` asserts a >= eps at every quadrature node, the
    checkable surrogate for "the volume measure is absolutely continuous
    with respect to mu"; it is verified at construction.
    """

    domain: Domain
    density: object = None  # callable nodes -> (M,) or None for zero
    atoms: tuple = ()
    carrier_parts: tuple = ()
    registry: CarrierRegistry | None = None
    dominates_lebesgue: bool = False
    eps: float = 1e-12
    breaks: tuple = None
    shape = ()  # values are scalars: the shape-() case of a matrix measure

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((np.asarray(p, float).reshape(-1), float(w)) for p, w in self.atoms)
        )
        object.__setattr__(self, "carrier_parts", tuple(self.carrier_parts))
        object.__setattr__(self, "breaks", merge_breaks(self.domain.dim, self.breaks))
        for p, w in self.atoms:
            if w < 0:
                raise MeasureError("atom weights must be nonnegative")
            if len(p) != self.domain.dim:
                raise MeasureError("atom point dimension mismatch")
        for cid, _ in self.carrier_parts:
            if self.registry is None or cid not in self.registry:
                raise MeasureError(f"carrier {cid!r} not in registry")
        nodes, _ = self.domain.cell_rule(breaks=self.breaks)
        dens = self.density_at(nodes)
        if np.any(dens < -1e-12):
            raise MeasureError("scalar density must be nonnegative")
        if self.dominates_lebesgue and np.any(dens < self.eps):
            raise MeasureError(
                "dominates-Lebesgue flag requires density >= eps at every node"
            )
        for cid, fn in self.carrier_parts:
            pts, _ = self.registry[cid].rule(self.domain.resolution)
            if np.any(np.asarray(fn(pts)) < -1e-12):
                raise MeasureError("carrier densities must be nonnegative")

    def density_at(self, nodes):
        if self.density is None:
            return np.zeros(len(nodes))
        return np.asarray(self.density(nodes), dtype=float)

    def mass(self, region=None):
        """Total mass mu(region); the whole domain when region is None."""
        return _integrate(self, region, _values, _values)

    @staticmethod
    def from_json(domain, obj, registry=None, **flags):
        """Build from {"density": expr|cell-array, "atoms": [[x, w]...],
        "segments": [{"id", "from", "to", "density"}]}."""
        registry = registry if registry is not None else CarrierRegistry()
        density = _parse_density(domain, obj.get("density"))
        atoms = tuple(
            (np.atleast_1d(np.asarray(a[0], float)), float(a[1]))
            for a in obj.get("atoms", ())
        )
        parts = []
        for seg in obj.get("segments", ()):
            carrier = registry.register_segment(
                seg["id"], seg["from"], seg["to"], normal=seg.get("normal")
            )
            parts.append((carrier.cid, expressions.compile_scalar(seg["density"], domain.dim)))
        breaks = obj.get("breaks")
        return ScalarRadonMeasure(
            domain,
            density=density,
            atoms=atoms,
            carrier_parts=tuple(parts),
            registry=registry,
            breaks=breaks,
            **flags,
        )


def _parse_density(domain, spec):
    if spec is None:
        return None
    if isinstance(spec, (str, int, float)):
        return expressions.compile_scalar(spec, domain.dim)
    values = np.asarray(spec, dtype=float)  # cell-wise values on the base grid

    def cellwise(nodes):
        idx = []
        for k, (lo, hi) in enumerate(domain.box):
            i = np.floor((nodes[:, k] - lo) / (hi - lo) * domain.resolution).astype(int)
            idx.append(np.clip(i, 0, domain.resolution - 1))
        return values[tuple(idx)] if domain.dim == 2 else values[idx[0]]

    return cellwise


@dataclass(frozen=True)
class MatrixRadonMeasure(_StructuredMeasure):
    """R^{N x n}-valued measure: matrix cell density + carrier parts +
    (1D only) atoms.  Derivative measures of BV functions live here."""

    domain: Domain
    shape: tuple  # (N, n)
    density: object = None  # callable nodes -> (M, N, n)
    carrier_parts: tuple = ()  # ((cid, callable pts -> (M, N, n)), ...)
    atoms: tuple = ()  # ((point, value (N, n)), ...), 1D only
    registry: CarrierRegistry | None = None
    breaks: tuple = None

    def __post_init__(self):
        N, n = self.shape
        if n != self.domain.dim:
            raise MeasureError("matrix column count must equal the domain dimension")
        object.__setattr__(
            self,
            "atoms",
            tuple(
                (np.asarray(p, float).reshape(-1), np.asarray(v, float).reshape(N, n))
                for p, v in self.atoms
            ),
        )
        object.__setattr__(self, "carrier_parts", tuple(self.carrier_parts))
        object.__setattr__(self, "breaks", merge_breaks(self.domain.dim, self.breaks))
        if self.atoms and self.domain.dim != 1:
            raise MeasureError("atomic parts are only permitted in 1D")
        for cid, _ in self.carrier_parts:
            if self.registry is None or cid not in self.registry:
                raise MeasureError(f"carrier {cid!r} not in registry")

    def density_at(self, nodes):
        if self.density is None:
            return np.zeros((len(nodes),) + self.shape)
        return np.asarray(self.density(nodes), dtype=float)


def zero_matrix_measure(domain, shape, registry=None):
    return MatrixRadonMeasure(domain, shape, registry=registry)


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


def measure_parts(m, extra_breaks=None, region=None):
    """The parts of a scalar or matrix measure, in the order cells, atoms,
    carriers, so that summing dot(part.weights, g(part.points, part.values))
    over them integrates g(x, density) against the measure.

    ``extra_breaks`` refines the cell partition; ``region`` clips every
    part to a closed sub-box, and a part it misses stays with no points.
    """
    if extra_breaks is not None:
        breaks = merge_breaks(m.domain.dim, m.breaks, extra_breaks)
    else:
        breaks = m.breaks
    nodes, weights = m.domain.cell_rule(breaks=breaks, region=region)
    parts = [_part(m, "cells", None, nodes, weights, m.density_at)]
    for p, v in m.atoms:
        inside = region is None or _point_in_region(p, region)
        points = p[None, :] if inside else np.zeros((0, len(p)))
        parts.append(_part(m, "atom", tuple(p), points, np.ones(len(points)), _repeated(v)))
    for cid, fn in m.carrier_parts:
        pts, wts = m.carrier(cid).rule(m.domain.resolution, region=region)
        parts.append(_part(m, "carrier", cid, pts, wts, fn))
    return parts


def _integrate(measure, region, on_cells, on_singular):
    """Sum over the parts of ``measure`` clipped to ``region`` of
    dot(weights, integrand(part)), where the integrand is ``on_cells`` on
    the cell part and ``on_singular`` on atoms and carriers."""
    total = 0.0
    for part in measure_parts(measure, region=region):
        if len(part.points):
            integrand = on_cells if part.kind == "cells" else on_singular
            total += float(np.dot(part.weights, integrand(part)))
    return total


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _frob(values):
    return np.sqrt(np.sum(values * values, axis=(1, 2)))


def _magnitudes(values):
    """Pointwise |value|: absolute value of scalars, Frobenius norm of matrices."""
    return np.abs(values) if values.ndim == 1 else _frob(values)


def _values(part):
    return part.values


def _norm_of_values(part):
    return _magnitudes(part.values)


def total_variation(gamma, region=None):
    """|gamma|(region): cell integral of the pointwise norm plus all
    carrier/atom masses intersecting the region."""
    return _integrate(gamma, region, _norm_of_values, _norm_of_values)


def area_functional(gamma, region=None):
    """The minimal-surface-type functional of a measure: integrate
    sqrt(1 + |density|^2) over cells and add the singular masses."""

    def area(part):
        return np.sqrt(1.0 + _frob(part.values) ** 2)

    return _integrate(gamma, region, area, _norm_of_values)


def _same_support(a, b):
    """Whether singular parts of two measures sit on one set: the same
    carrier id, or atoms at coincident points."""
    if a.kind != b.kind:
        return False
    if a.kind == "carrier":
        return a.key == b.key
    return np.linalg.norm(a.points[0] - b.points[0]) <= _MATCH_TOL


def mutually_singular(gamma1, gamma2):
    """Structural mutual singularity: no common cell node where both
    densities are nonzero, no shared carrier id, no coincident atoms."""
    breaks = merge_breaks(gamma1.domain.dim, gamma1.breaks, gamma2.breaks)
    cells, singular = [], []
    for gamma in (gamma1, gamma2):
        cell_part, *rest = measure_parts(gamma, extra_breaks=breaks)
        cells.append(_magnitudes(cell_part.values) > _ZERO_TOL)
        singular.append([p for p in rest if np.any(_magnitudes(p.values) > _ZERO_TOL)])
    if np.any(cells[0] & cells[1]):
        return False
    return not any(_same_support(a, b) for a in singular[0] for b in singular[1])


def pair_with_test_function(gamma, phi, check_boundary=True):
    """Duality pairing <phi, gamma> = integral of phi : dgamma for a
    continuous matrix field phi vanishing on the domain boundary."""
    if check_boundary:
        bpts, _, _ = gamma.domain.boundary_rule()
        if np.max(_frob(np.asarray(phi(bpts)))) > 1e-8:
            raise MeasureError("test field must vanish on the boundary")

    def paired(part):
        return np.sum(np.asarray(phi(part.points)) * part.values, axis=(1, 2))

    return _integrate(gamma, None, paired, paired)


# ---------------------------------------------------------------------------
# Radon-Nikodym decomposition
# ---------------------------------------------------------------------------


def _per_node(a, shape):
    """Scalars per node (M,) shaped to divide or scale values (M, *shape)."""
    return np.asarray(a).reshape((-1,) + (1,) * len(shape))


@dataclass
class MuDecomposition:
    """gamma = (dgamma/dmu) mu + remainder, resolved per structural part.

    ``cell_fn`` is the density on cells (gamma density / a); ``atom_values``
    and ``carrier_fns`` cover every atom/carrier of mu (zero where gamma
    does not charge); ``remainder`` collects the gamma parts mu does not
    see, which are mutually singular with mu by construction.  gamma is a
    matrix measure or, as the shape-() case, a scalar one.
    """

    gamma: MatrixRadonMeasure | ScalarRadonMeasure
    mu: ScalarRadonMeasure
    cell_fn: object
    atom_values: list  # [(point, mu weight, value of shape gamma.shape)]
    carrier_fns: list  # [(cid, mu density fn, ratio fn)]
    remainder: MatrixRadonMeasure | ScalarRadonMeasure
    _on_part: dict = field(init=False, repr=False)  # part key -> points -> density

    def __post_init__(self):
        self._on_part = {None: self.cell_fn}  # the cell part's key
        self._on_part.update((tuple(p), _repeated(v)) for p, _, v in self.atom_values)
        self._on_part.update((cid, ratio) for cid, _, ratio in self.carrier_fns)

    def is_absolutely_continuous(self):
        return self.remainder.is_structurally_zero()

    def density_on(self, part, points):
        """dgamma/dmu at ``points`` of one part of mu (as built by
        :func:`measure_parts`), of shape (M,) + gamma.shape."""
        return self._on_part[part.key](points)


def singular_densities(m):
    """Density callables points -> values of the atoms and carriers of
    ``m``, keyed like the parts of :func:`measure_parts` (atom point
    tuple, carrier id)."""
    table = {tuple(p): _repeated(v) for p, v in m.atoms}
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
    breaks = merge_breaks(gamma.domain.dim, gamma.breaks, mu.breaks)
    nodes, _ = gamma.domain.cell_rule(breaks=breaks)
    a = mu.density_at(nodes)
    if np.any(a < mu.eps):
        raise DecompositionError("mu cell density vanishes at a quadrature node")
    shape = gamma.shape

    def cell_fn(pts, _g=gamma, _m=mu):
        return _g.density_at(pts) / _per_node(_m.density_at(pts), shape)

    matched_gamma_atoms = set()
    atom_values = []
    for p, w in mu.atoms:
        value = np.zeros(shape)
        for i, (q, v) in enumerate(gamma.atoms):
            if np.linalg.norm(p - q) <= _MATCH_TOL:
                value = v / w
                matched_gamma_atoms.add(i)
                break
        atom_values.append((p, w, value))
    rem_atoms = [
        (p, v) for i, (p, v) in enumerate(gamma.atoms) if i not in matched_gamma_atoms
    ]

    mu_parts = dict(mu.carrier_parts)
    carrier_fns = []
    rem_parts = []
    for cid, gfn in gamma.carrier_parts:
        if cid in mu_parts:
            mfn = mu_parts[cid]
            pts, _ = gamma.carrier(cid).rule(gamma.domain.resolution)
            gmag = _magnitudes(np.asarray(gfn(pts)))
            mvals = np.asarray(mfn(pts))
            if np.any((gmag > _ZERO_TOL) & (mvals <= _ZERO_TOL)):
                raise DecompositionError(
                    f"mu density vanishes on carrier {cid!r} where gamma charges it"
                )

            def ratio(p, _g=gfn, _m=mfn):
                m = np.asarray(_m(p))
                safe = np.where(m > _ZERO_TOL, m, 1.0)
                out = np.asarray(_g(p)) / _per_node(safe, shape)
                out[m <= _ZERO_TOL] = 0.0
                return out

            carrier_fns.append((cid, mfn, ratio))
        else:
            rem_parts.append((cid, gfn))
    charged = {cid for cid, _, _ in carrier_fns}
    for cid, mfn in mu.carrier_parts:
        if cid not in charged:
            carrier_fns.append((cid, mfn, lambda p: np.zeros((len(p),) + shape)))

    singular = {"density": None, "carrier_parts": tuple(rem_parts), "atoms": tuple(rem_atoms)}
    if not shape:  # a scalar remainder has no cell density to dominate Lebesgue with
        singular["dominates_lebesgue"] = False
    remainder = replace(gamma, **singular)
    return MuDecomposition(gamma, mu, cell_fn, atom_values, carrier_fns, remainder)


# The decomposition of a scalar measure is the shape-() case of rn_decompose;
# the name stays because benchmark tracing resolves it.
scalar_rn_decompose = rn_decompose


def absolutely_continuous_part(decomp):
    """Reassemble (dgamma/dmu) mu as a MatrixRadonMeasure."""
    gamma, mu = decomp.gamma, decomp.mu

    def density(pts):
        return decomp.cell_fn(pts) * np.asarray(mu.density_at(pts))[:, None, None]

    parts = []
    for cid, mfn, ratio in decomp.carrier_fns:

        def part(p, _m=mfn, _r=ratio):
            return _r(p) * np.asarray(_m(p))[:, None, None]

        parts.append((cid, part))
    atoms = [(p, w * v) for p, w, v in decomp.atom_values]
    return MatrixRadonMeasure(
        gamma.domain,
        gamma.shape,
        density=density,
        carrier_parts=tuple(parts),
        atoms=tuple(atoms),
        registry=gamma.registry,
        breaks=merge_breaks(gamma.domain.dim, gamma.breaks, mu.breaks),
    )


def measure_distance(g1, g2):
    """Total variation of g1 - g2 for structured matrix measures; parts are
    matched by carrier id / atom location."""
    if g1.shape != g2.shape:
        raise MeasureError("shape mismatch")
    breaks = merge_breaks(g1.domain.dim, g1.breaks, g2.breaks)
    nodes, weights = g1.domain.cell_rule(breaks=breaks)
    total = float(np.dot(weights, _frob(g1.density_at(nodes) - g2.density_at(nodes))))
    parts1, parts2 = dict(g1.carrier_parts), dict(g2.carrier_parts)
    for cid in sorted(set(parts1) | set(parts2)):
        carrier = (g1 if cid in parts1 else g2).carrier(cid)
        pts, w = carrier.rule(g1.domain.resolution)
        v1 = np.asarray(parts1[cid](pts)) if cid in parts1 else 0.0
        v2 = np.asarray(parts2[cid](pts)) if cid in parts2 else 0.0
        total += float(np.dot(w, _frob(np.asarray(v1 - v2).reshape(len(pts), *g1.shape))))
    used = set()
    for p, v in g1.atoms:
        match = None
        for i, (q, u) in enumerate(g2.atoms):
            if i not in used and np.linalg.norm(p - q) <= _MATCH_TOL:
                match = i
                break
        if match is None:
            total += float(np.linalg.norm(v))
        else:
            used.add(match)
            total += float(np.linalg.norm(v - g2.atoms[match][1]))
    for i, (q, u) in enumerate(g2.atoms):
        if i not in used:
            total += float(np.linalg.norm(u))
    return total
