"""Linear-growth integrands F(x, A) and the calculus around them.

Covers the unit-ball compactification transforms (T and its inverse), the
asymptotic slope at infinity (recession function and its limsup variant),
a sampling surrogate for membership in the class of integrands whose
transform extends continuously to the closed ball, quasiconvexity
refutation on piecewise-affine trial fields, rank-one convexity probing,
and the construction of special quasiconvex envelopes

    G_i(A) = max{F(A), F#(A) + |A|/i - i},

which agree with their recession function minus i outside a finite radius
r_i and are coercive at rate 1/i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_T_SCHEDULE = tuple(10.0**k for k in range(2, 9))


class RecessionError(RuntimeError):
    """The slope-at-infinity evaluation did not stabilize along the schedule."""


class IntegrandError(ValueError):
    pass


def _norm(A):
    A = np.asarray(A, dtype=float)
    return np.sqrt(np.sum(A * A, axis=(-2, -1)))


def _as_batch(x, A, dim):
    """Normalize to x (M, dim) or None and A (M, N, n); report scalar-ness."""
    A = np.asarray(A, dtype=float)
    scalar = A.ndim == 2
    if scalar:
        A = A[None]
    if x is None:
        return None, A, scalar
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.ndim == 1 and len(x) == dim and (scalar or dim != len(A)):
        x = x[None, :]
    if x.ndim == 1:
        x = x[:, None]
    if len(x) == 1 and len(A) > 1:
        x = np.broadcast_to(x, (len(A), x.shape[1]))
    return x, A, scalar


@dataclass
class Integrand:
    """F: closure(Omega) x R^{N x n} -> R with linear growth
    m |A| <= F(x, A) <= M (1 + |A|).

    ``fn`` takes (x or None, A-batch) and returns a batch of values;
    ``recession_analytic``, when given, is the exact positively
    1-homogeneous limit of F(x, tA)/t.  ``convexity`` is advisory
    metadata ("convex", "quasiconvex", "not_quasiconvex", "unknown")
    used by experiments to decide which outcomes are expected.
    """

    name: str
    dims: tuple  # (N, n)
    fn: object
    growth_m: float
    growth_M: float
    recession_analytic: object = None
    x_dependent: bool = False
    spatial_dim: int = 1
    convexity: str = "unknown"
    nonnegative: bool = True

    def __call__(self, x, A):
        x, A, scalar = _as_batch(x, A, self.spatial_dim)
        vals = np.asarray(self.fn(x, A), dtype=float)
        return float(vals[0]) if scalar else vals

    def recession(self, x, A):
        if self.recession_analytic is None:
            raise IntegrandError(f"integrand {self.name!r} has no analytic recession")
        x, A, scalar = _as_batch(x, A, self.spatial_dim)
        vals = np.asarray(self.recession_analytic(x, A), dtype=float)
        return float(vals[0]) if scalar else vals

    def has_analytic_recession(self):
        return self.recession_analytic is not None

    def validate_growth(self, samples=1000, radius=1e3, seed=0):
        """Sampled growth bounds and 1-homogeneity of the declared
        recession; raises on violation."""
        N, n = self.dims
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((samples, N, n))
        A *= (rng.uniform(0, radius, size=samples) / np.maximum(_norm(A), 1e-12))[
            :, None, None
        ]
        x = rng.uniform(0, 1, size=(samples, self.spatial_dim))
        vals = self(x, A)
        mags = _norm(A)
        if np.any(vals < self.growth_m * mags - 1e-9 * (1 + mags)):
            raise IntegrandError(f"{self.name}: lower growth bound violated")
        if np.any(vals > self.growth_M * (1 + mags) + 1e-9 * (1 + mags)):
            raise IntegrandError(f"{self.name}: upper growth bound violated")
        if self.recession_analytic is not None:
            for s in (0.5, 2.0, 10.0):
                r1 = self.recession(x, s * A)
                r0 = self.recession(x, A)
                if np.any(np.abs(r1 - s * r0) > 1e-9 * (1 + s * mags)):
                    raise IntegrandError(f"{self.name}: recession not 1-homogeneous")
        return True


@dataclass
class SQIntegrand(Integrand):
    """Special quasiconvex integrand: F = F^inf - i outside radius r_i,
    with recession bounded below by |A|/i."""

    index: float = 1.0
    radius: float = 1.0
    base: Integrand = None

    def validate_sq(self, samples=400, seed=1):
        rng = np.random.default_rng(seed)
        N, n = self.dims
        A = rng.standard_normal((samples, N, n))
        A /= np.maximum(_norm(A), 1e-12)[:, None, None]
        mags = rng.uniform(self.radius, 8 * self.radius, size=samples)
        A = A * mags[:, None, None]
        vals = self(None, A)
        rec = self.recession(None, A)
        if np.any(np.abs(vals - (rec - self.index)) > 1e-10 * (1 + np.abs(vals))):
            raise IntegrandError("SQ identity F = F^inf - i fails beyond r_i")
        small = A * (rng.uniform(0, 1, size=samples) / mags)[:, None, None]
        if np.any(self.recession(None, small) < _norm(small) / self.index - 1e-10):
            raise IntegrandError("SQ coercivity F^inf >= |A|/i fails")
        return True


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def make_norm(N=1, n=1):
    return Integrand(
        name="norm",
        dims=(N, n),
        fn=lambda x, A: _norm(A),
        growth_m=1.0,
        growth_M=1.0,
        recession_analytic=lambda x, A: _norm(A),
        convexity="convex",
    )


def make_area(N=1, n=1):
    return Integrand(
        name="area",
        dims=(N, n),
        fn=lambda x, A: np.sqrt(1.0 + _norm(A) ** 2),
        growth_m=1.0,
        growth_M=1.0,
        recession_analytic=lambda x, A: _norm(A),
        convexity="convex",
    )


def make_w_shape():
    """Scalar double-well | |t| - 1 |: rank-one convexity (= convexity in
    the scalar case) fails at the wells, so it is not quasiconvex."""
    return Integrand(
        name="w-shape",
        dims=(1, 1),
        fn=lambda x, A: np.abs(_norm(A) - 1.0),
        growth_m=0.0,
        growth_M=1.0,
        recession_analytic=lambda x, A: _norm(A),
        convexity="not_quasiconvex",
    )


def make_shifted_norm(A0=0.3, c=0.4, N=1, n=1):
    A0m = np.zeros((N, n))
    A0m.flat[0] = A0
    m = min(1.0, c / max(abs(A0), 1e-12)) * 0.5
    return Integrand(
        name="shifted-norm",
        dims=(N, n),
        fn=lambda x, A: _norm(A - A0m[None]) + c,
        growth_m=m,
        growth_M=1.0 + abs(A0) + c,
        recession_analytic=lambda x, A: _norm(A),
        convexity="convex",
    )


def x_modulated(base):
    """Spatial modulation (1 + x_1 / 2) F(A); keeps the base convexity in A.
    The declared growth constants assume x_1 >= 0 on the domain."""
    factor = lambda x: 1.0 + 0.5 * x[:, 0]
    rec = None
    if base.recession_analytic is not None:
        rec = lambda x, A: factor(x) * np.asarray(base.recession_analytic(None, A))
    return Integrand(
        name=f"x-mod-{base.name}",
        dims=base.dims,
        fn=lambda x, A: factor(x) * np.asarray(base.fn(None, A)),
        growth_m=base.growth_m,
        growth_M=1.5 * base.growth_M,
        recession_analytic=rec,
        x_dependent=True,
        convexity=base.convexity,
        nonnegative=base.nonnegative,
    )


CATALOG_BUILDERS = {
    "norm": make_norm,
    "area": make_area,
    "w-shape": make_w_shape,
    "shifted-norm": make_shifted_norm,
}


def catalog_integrand(name, N=1, n=1, modulated=False):
    if name not in CATALOG_BUILDERS:
        raise IntegrandError(f"unknown catalog integrand {name!r}")
    if name == "w-shape":
        f = make_w_shape()
    else:
        f = CATALOG_BUILDERS[name](N=N, n=n)
    return x_modulated(f) if modulated else f


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def transform_T(f):
    """Unit-ball compactification (Tf)(x, B) = (1 - |B|) f(x, B / (1 - |B|)),
    defined for |B| < 1."""

    def Tf(x, B):
        B = np.asarray(B, dtype=float)
        scalar = B.ndim == 2
        Bb = B[None] if scalar else B
        r = _norm(Bb)
        if np.any(r >= 1.0):
            raise IntegrandError("transform argument must satisfy |B| < 1")
        scale = 1.0 - r
        vals = scale * np.asarray(f(x, Bb / scale[:, None, None]))
        return float(vals[0]) if scalar else vals

    return Tf


def transform_T_inv(g):
    """Inverse transform (T^{-1}g)(x, A) = (1 + |A|) g(x, A / (1 + |A|))."""

    def Tinv(x, A):
        A = np.asarray(A, dtype=float)
        scalar = A.ndim == 2
        Ab = A[None] if scalar else A
        scale = 1.0 + _norm(Ab)
        vals = scale * np.asarray(g(x, Ab / scale[:, None, None]))
        return float(vals[0]) if scalar else vals

    return Tinv


# ---------------------------------------------------------------------------
# Recession functions
# ---------------------------------------------------------------------------


@dataclass
class RecessionResult:
    value: float
    diagnostic: float  # last successive difference, scaled by 1 + |A|
    values: tuple

    def __float__(self):
        return self.value


def recession(f, x, A, t_schedule=None, stabilization_tol=1e-5, cross_check_tol=1e-6):
    """Slope at infinity: evaluate f(x, tA)/t along the schedule, require a
    Cauchy tail, and cross-check an analytic recession when available."""
    schedule = tuple(t_schedule) if t_schedule is not None else DEFAULT_T_SCHEDULE
    A = np.asarray(A, dtype=float)
    mag = float(_norm(A))
    values = tuple(float(np.asarray(f(x, t * A))) / t for t in schedule)
    diag = abs(values[-1] - values[-2]) / (1.0 + mag)
    if diag > stabilization_tol:
        raise RecessionError(
            f"recession did not stabilize: tail difference {diag:.3e} at |A|={mag:.3e}"
        )
    if isinstance(f, Integrand) and f.has_analytic_recession():
        ref = f.recession(x, A)
        if abs(values[-1] - ref) > cross_check_tol * (1.0 + mag):
            raise RecessionError(
                f"schedule limit {values[-1]:.6e} disagrees with analytic recession {ref:.6e}"
            )
    return RecessionResult(values[-1], diag, values)


def generalized_recession(f, A, t_schedule=None):
    """Upper asymptotic slope: running max over the tail of f(tA)/t along
    the schedule (a limsup surrogate; always returns, diagnostic attached)."""
    schedule = tuple(t_schedule) if t_schedule is not None else DEFAULT_T_SCHEDULE
    A = np.asarray(A, dtype=float)
    values = tuple(float(np.asarray(f(None, t * A))) / t for t in schedule)
    tail = max(2, len(values) // 4)
    value = max(values[-tail:])
    diag = abs(values[-1] - values[-2]) / (1.0 + float(_norm(A)))
    return RecessionResult(value, diag, values)


def recession_values(f, x, A_batch, t_schedule=None):
    """Vectorized F^inf over a batch of matrices (x batched alike)."""
    A_batch = np.asarray(A_batch, dtype=float)
    if isinstance(f, Integrand) and f.has_analytic_recession():
        return np.asarray(f.recession(x, A_batch), dtype=float)
    out = np.empty(len(A_batch))
    for k, A in enumerate(A_batch):
        xk = None if x is None else np.asarray(x)[k]
        out[k] = recession(f, xk, A, t_schedule=t_schedule).value
    return out


def _fixed_directions(N, n, extra=8, seed=2024):
    dirs = []
    for i in range(N):
        for j in range(n):
            E = np.zeros((N, n))
            E[i, j] = 1.0
            dirs.append(E)
    diag = np.ones((N, n)) / math.sqrt(N * n)
    dirs.append(diag)
    rng = np.random.default_rng(seed)
    for _ in range(extra):
        D = rng.standard_normal((N, n))
        dirs.append(D / _norm(D))
    return dirs


@dataclass
class EMembershipReport:
    max_tail_oscillation: float
    sup_bound: float
    in_class: bool
    shell_values: dict


def membership_E_check(f, oscillation_tol=1e-4, shells=20, x=None):
    """Sample the transform on shells |B| = 1 - 2^{-k} along fixed
    directions; a vanishing shell-to-shell tail oscillation is the
    numerical surrogate for a continuous extension to the closed ball.

    One-sided check: a pass is advisory, a clear failure is flagged.
    """
    N, n = f.dims if isinstance(f, Integrand) else (1, 1)
    if x is None and isinstance(f, Integrand) and f.x_dependent:
        x = 0.5 * np.ones((1, f.spatial_dim))
    Tf = transform_T(f)
    radii = [0.0] + [1.0 - 2.0**-k for k in range(1, shells + 1)]
    sup_bound = 0.0
    max_tail_osc = 0.0
    shell_values = {}
    for d_index, D in enumerate(_fixed_directions(N, n)):
        vals = np.array([Tf(x, r * D) for r in radii])
        sup_bound = max(sup_bound, float(np.max(np.abs(vals))))
        diffs = np.abs(np.diff(vals))
        tail = diffs[-4:]
        max_tail_osc = max(max_tail_osc, float(np.max(tail)))
        shell_values[d_index] = vals
    return EMembershipReport(
        max_tail_oscillation=max_tail_osc,
        sup_bound=sup_bound,
        in_class=max_tail_osc <= oscillation_tol,
        shell_values=shell_values,
    )


# ---------------------------------------------------------------------------
# Quasiconvexity refutation
# ---------------------------------------------------------------------------


class TrialField:
    """Piecewise-affine R^N-valued field on the unit box, vanishing on its
    boundary: node values are generated from a closed form and interpolated
    on a simplicial grid, so the perturbed-gradient integral is an exact
    finite sum over cells (1D) or triangles (2D)."""

    def __init__(self, label, generator, N, n):
        self.label = label
        self.generator = generator  # callable nodes (M, n) -> (M, N)
        self.N = N
        self.n = n

    def gradient_cells(self, grid):
        """(volumes, gradients): gradients (K, N, n), volumes summing to 1."""
        if self.n == 1:
            xs = np.linspace(0.0, 1.0, grid + 1)
            vals = self.generator(xs[:, None])  # (grid+1, N)
            grads = (vals[1:] - vals[:-1]) * grid  # (grid, N)
            vols = np.full(grid, 1.0 / grid)
            return vols, grads[:, :, None]
        xs = np.linspace(0.0, 1.0, grid + 1)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        vals = self.generator(nodes).reshape(grid + 1, grid + 1, self.N)
        h = 1.0 / grid
        v00 = vals[:-1, :-1]
        v10 = vals[1:, :-1]
        v01 = vals[:-1, 1:]
        v11 = vals[1:, 1:]
        # two triangles per cell, diagonal from (i, j) to (i+1, j+1)
        g1 = np.stack([(v10 - v00) / h, (v11 - v10) / h], axis=-1)
        g2 = np.stack([(v11 - v01) / h, (v01 - v00) / h], axis=-1)
        grads = np.concatenate([g1.reshape(-1, self.N, 2), g2.reshape(-1, self.N, 2)])
        vols = np.full(len(grads), 0.5 * h * h)
        return vols, grads


def _tent(t):
    t = np.mod(t, 1.0)
    return np.where(t < 0.5, t, 1.0 - t)


def _boundary_distance(nodes):
    d = np.minimum(nodes, 1.0 - nodes)
    return np.min(d, axis=1)


def laminate_field(a, b, oscillations=8, slope=1.0):
    """Sawtooth in the direction b with profile vector a, cut off by the
    sup-norm distance to the boundary so the field is compactly supported."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    N, n = len(a), len(b)

    def gen(nodes):
        saw = slope * _tent(oscillations * nodes @ b) / oscillations
        prof = np.minimum(saw, slope * _boundary_distance(nodes))
        return prof[:, None] * a[None, :]

    label = f"laminate[{oscillations} osc, slope {slope}]"
    return TrialField(label, gen, N, n)


def random_field(N, n, seed, amplitude=0.5, modes=3):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((N, modes, modes if n == 2 else 1))

    def gen(nodes):
        out = np.zeros((len(nodes), N))
        for i in range(N):
            for p in range(modes):
                for q in range(coef.shape[2]):
                    term = np.sin((p + 1) * np.pi * nodes[:, 0])
                    if n == 2:
                        term = term * np.sin((q + 1) * np.pi * nodes[:, 1])
                    out[:, i] += coef[i, p, q] * term
        return amplitude * out / (modes * modes)

    return TrialField(f"random[{seed}]", gen, N, n)


def default_trial_fields(N, n, seed=7):
    fields = []
    axes_a = [np.eye(N)[i] for i in range(N)]
    axes_b = [np.eye(n)[j] for j in range(n)]
    rng = np.random.default_rng(seed)
    for a in axes_a:
        for b in axes_b:
            for osc, slope in ((1, 1.0), (4, 1.0), (8, 2.0), (8, 0.5)):
                fields.append(laminate_field(a, b, oscillations=osc, slope=slope))
    for _ in range(2):
        a = rng.standard_normal(N)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        fields.append(laminate_field(a, b, oscillations=6, slope=1.5))
    for k in range(10):
        fields.append(random_field(N, n, seed=seed + 100 + k))
    return fields


@dataclass
class QuasiconvexityWitness:
    field: TrialField
    value: float
    grid: int

    def reevaluate(self, F, A, x=None, grid=None):
        grid = grid if grid is not None else 2 * self.grid
        return _perturbed_gap(F, A, self.field, grid, x=x)


def _perturbed_gap(F, A, trial, grid, x=None):
    vols, grads = trial.gradient_cells(grid)
    A = np.asarray(A, dtype=float)
    vals = np.asarray(F(x, A[None] + grads))
    base = float(np.asarray(F(x, A)))
    return float(np.dot(vols, vals)) - base


def quasiconvexity_refuter(F, A, trial_fields=None, grid=16, x=None, threshold=-1e-9):
    """Search for a trial field certifying failure of the gradient Jensen
    inequality at A.  Returns the most negative witness, or None; None is
    NOT a proof of quasiconvexity."""
    N, n = F.dims if isinstance(F, Integrand) else np.asarray(A).shape
    trials = trial_fields if trial_fields is not None else default_trial_fields(N, n)
    worst = None
    for trial in trials:
        gap = _perturbed_gap(F, A, trial, grid, x=x)
        if gap < threshold and (worst is None or gap < worst.value):
            worst = QuasiconvexityWitness(trial, gap, grid)
    return worst


@dataclass
class RankOneReport:
    max_violation: float
    worst_triple: tuple
    samples: int


def rank_one_convexity_check(F, A, a, b, samples=64, span=4.0, seed=5, x=None):
    """Midpoint-convexity residuals of t -> F(A + t a (x) b): the largest
    positive value of F(midpoint) - mean(F(endpoints)) over sampled triples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rank_one = np.outer(a, b)
    A = np.asarray(A, dtype=float)

    def g(ts):
        ts = np.asarray(ts, dtype=float)
        return np.asarray(F(x, A[None] + ts[:, None, None] * rank_one[None]))

    triples = [(-t, 0.0, t) for t in np.linspace(0.25, span, 16)]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        t1, t2 = np.sort(rng.uniform(-span, span, size=2))
        triples.append((t1, 0.5 * (t1 + t2), t2))
    worst_val, worst_triple = -np.inf, None
    for t1, tm, t2 in triples:
        v = g(np.array([t1, tm, t2]))
        residual = float(v[1] - 0.5 * (v[0] + v[2]))
        if residual > worst_val:
            worst_val, worst_triple = residual, (t1, tm, t2)
    return RankOneReport(worst_val, worst_triple, len(triples))


# ---------------------------------------------------------------------------
# Special quasiconvex envelope
# ---------------------------------------------------------------------------


def _upper_slope_fn(F, t_schedule=None):
    if isinstance(F, Integrand) and F.has_analytic_recession():
        return lambda A: F.recession(None, A)

    def slope(A):
        return generalized_recession(F, A, t_schedule=t_schedule).value

    return slope


def sq_envelope(F, i, max_radius_exponent=20, directions=None, seed=9):
    """Envelope G_i = max{F, F# + |A|/i - i} with the smallest dyadic radius
    r_i past which the second branch dominates at every sampled matrix.

    Requires a nonnegative quasiconvex-flagged F of linear growth.
    """
    if i <= 0:
        raise IntegrandError("envelope index must be positive")
    if not F.nonnegative or F.convexity not in ("convex", "quasiconvex"):
        raise IntegrandError("envelope requires a nonnegative quasiconvex-flagged integrand")
    N, n = F.dims
    slope = _upper_slope_fn(F)
    dirs = directions if directions is not None else _fixed_directions(N, n, extra=8, seed=seed)
    radii = [2.0**k for k in range(0, max_radius_exponent + 1)]
    # dyadic magnitudes to probe, including off-grid midpoints
    mags = sorted(set(radii) | {1.5 * r for r in radii[:-1]})

    def branch(A):
        return slope(A) + _norm(A) / i - i

    ok_radius = None
    values = {}
    for D in dirs:
        for m in mags:
            A = m * np.asarray(D)
            values[(id(D), m)] = (float(np.asarray(F(None, A))), branch(A))
    for r in radii:
        good = True
        for D in dirs:
            for m in mags:
                if m < r:
                    continue
                fv, bv = values[(id(D), m)]
                if fv > bv + 1e-12 * (1 + abs(fv)):
                    good = False
                    break
            if not good:
                break
        if good:
            ok_radius = r
            break
    if ok_radius is None:
        raise IntegrandError("SQ parameters not found within the radius budget")

    if F.has_analytic_recession():
        batch_rec = lambda A: np.asarray(F.recession_analytic(None, A))
    else:
        scalar_rec = _upper_slope_fn(F)
        batch_rec = lambda A: np.array([scalar_rec(Ak) for Ak in A])

    def g_fn(x, A):
        A = np.asarray(A, dtype=float)
        return np.maximum(np.asarray(F.fn(x, A)), batch_rec(A) + _norm(A) / i - i)

    def g_rec(x, A):
        A = np.asarray(A, dtype=float)
        return batch_rec(A) + _norm(A) / i

    out = SQIntegrand(
        name=f"sq[{F.name}, i={i}]",
        dims=F.dims,
        fn=g_fn,
        growth_m=F.growth_m,
        growth_M=F.growth_M + 1.0 / i + 1.0,
        recession_analytic=g_rec,
        convexity=F.convexity,
        nonnegative=True,  # the max includes the nonnegative F branch
        index=float(i),
        radius=float(ok_radius),
        base=F,
    )
    out.validate_sq()
    return out
